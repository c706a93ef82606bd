"""The stable campaign API: one spec in, one result out.

Everything a campaign needs — target, generation knobs, retry policy,
cache, supervision, checkpointing, observability — lives in a single
:class:`CampaignSpec` value, and :func:`run_campaign` is the one entry
point.  A spec round-trips exactly through :meth:`CampaignSpec.to_dict` /
:meth:`CampaignSpec.from_dict`, so a campaign is reproducible from a single
JSON artifact (``repro campaign --spec spec.json``) and its
:meth:`~CampaignSpec.fingerprint` names the campaign for checkpoint-journal
compatibility checks.

    >>> from repro.api import CampaignSpec, run_campaign
    >>> from repro.core import TestbedConfig
    >>> spec = CampaignSpec(testbed=TestbedConfig(protocol="tcp"),
    ...                     sample_every=500, cache_dir="runcache")
    >>> result = run_campaign(spec)                    # doctest: +SKIP
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, Optional, get_args, get_origin, get_type_hints

from repro.core.cache import CACHE_VERSION, _digest
from repro.core.controller import CampaignResult, Controller
from repro.core.detector import ConfirmationPolicy
from repro.core.executor import TestbedConfig
from repro.core.generation import GenerationConfig
from repro.core.parallel import RetryPolicy
from repro.core.supervisor import SupervisionConfig
from repro.fabric.config import FabricConfig
from repro.obs.config import ObsConfig
from repro.obs.metrics import METRICS
from repro.snap.config import SnapshotConfig

#: bump on incompatible spec-dict changes; ``from_dict`` reads versions 1
#: to this one (v1 predates ``tenant``, which then defaults) and rejects
#: any other
SPEC_VERSION = 2


def _require_finite(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` naming a NaN or infinite number in ``document``
    (an explicit stack, so nesting depth cannot exhaust the call stack)."""
    stack = [("spec", document)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} is {value}; numbers must be finite")
        if isinstance(value, dict):
            stack.extend((f"{where}.{key}", item) for key, item in value.items())
        elif isinstance(value, (list, tuple)):
            stack.extend((f"{where}[{index}]", item) for index, item in enumerate(value))


ProgressHook = Callable[[str, int, int], None]

#: what a JSON value must be for a field of each scalar annotation
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _load(cls: type, data: Dict[str, Any], where: str) -> Any:
    """Build dataclass ``cls`` from the keys of ``data`` that name its
    fields, checking each value against the field's annotation.

    A wrong type is a ``ValueError`` naming its path.  A bool is not an
    integer, an integer passes where a float is declared, a list passes
    for a sequence (its items are checked, and it comes back a tuple), and
    a nested dataclass is an object or null (null: its defaults).
    """
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        value = data.get(f.name)
        if f.name in data and not (value is None and is_dataclass(hints[f.name])):
            kwargs[f.name] = _value(hints[f.name], value, f"{where}.{f.name}")
    return cls(**kwargs)


def _value(annotation: Any, value: Any, where: str) -> Any:
    """``value`` checked against ``annotation`` (see :func:`_load`)."""
    if type(None) in get_args(annotation):  # Optional[X]
        if value is None:
            return None
        (annotation,) = [arg for arg in get_args(annotation) if arg is not type(None)]
    if is_dataclass(annotation):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        return _load(annotation, value, where)
    if get_origin(annotation) is Sequence:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        (item,) = get_args(annotation)
        return tuple(_value(item, x, f"{where}[{i}]") for i, x in enumerate(value))
    kinds = (int, float) if annotation is float else annotation
    if not isinstance(value, kinds) or (isinstance(value, bool) and annotation is not bool):
        raise ValueError(f"{where} must be {_NOUNS[annotation]}, got {value!r}")
    return value


@dataclass
class CampaignSpec:
    """Everything that defines one campaign, as one picklable value.

    A spec checks itself when it is built, so an invalid one is refused
    where it is made, not once its campaign runs.
    """

    #: the executor's world: protocol, variant, topology, seeds, watchdogs
    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    #: the strategy enumeration; ``None`` = protocol defaults
    generation: Optional[GenerationConfig] = None
    workers: Optional[int] = None
    confirm: bool = True
    #: above 1, run a deterministic 1-in-N stratified subsample of the
    #: generated strategies (``strategies_generated`` still counts them all)
    sample_every: int = 1
    #: a crashed or timed-out run gets ``retries`` more attempts with
    #: deterministically derived seeds
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: a JSONL journal of completed outcomes, appended as they arrive;
    #: ``resume`` reads it back first and skips the strategies it holds
    checkpoint: Optional[str] = None
    resume: bool = False
    #: a content-addressed run cache (:mod:`repro.core.cache`): a run found
    #: there is restored, not simulated, and fresh clean runs are stored
    cache_dir: Optional[str] = None
    #: JSONL event traces, the merged metrics registry and per-run
    #: profiling; ``None`` = everything off
    obs: Optional[ObsConfig] = None
    #: the worker pool's deadlines and poison-strategy quarantine (one
    #: worker runs in this process, unsupervised)
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    #: how many baseline replicas run, and the noise band (in baseline
    #: standard deviations) every detected effect must clear
    confirmation: ConfirmationPolicy = field(default_factory=ConfirmationPolicy)
    #: distribute the sweep over a shared artifact store (see
    #: :mod:`repro.fabric`); ``None`` keeps the single-process runtime.
    #: Like workers, this changes *how* the campaign runs, not what it
    #: computes, so it is excluded from :meth:`fingerprint`.
    fabric: Optional[FabricConfig] = None
    #: snapshot/fork engine (see :mod:`repro.snap`), disabled by default:
    #: eligible runs fork their attack tails from deep-copied prefix
    #: snapshots.  Fingerprint-neutral like ``supervision``: the
    #: determinism contract guarantees identical outcomes either way.
    snapshots: SnapshotConfig = field(default_factory=SnapshotConfig)
    #: quota-accounting identity under the campaign service (spec v2).
    #: Fingerprint-neutral: who submitted a campaign does not change what
    #: it computes, so tenants share the run cache.
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.resume and not self.checkpoint:
            raise ValueError("resume requires a checkpoint path")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump; exact inverse of :meth:`from_dict`."""
        return {"version": SPEC_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a spec file).

        Sequence-valued generation knobs normalize back to tuples, so
        ``from_dict(spec.to_dict()) == spec`` holds exactly.  Keys are read
        by field name at every level, so a key a later version dropped
        (``batch_size``, ``service``, ``snapshots.store``, ``retry.backoff``,
        ``supervision.max_tasks_per_child``, ``fabric.store_retries`` and
        ``fabric.store_backoff``) loads as a no-op.  Versions 1 to
        :data:`SPEC_VERSION` load.  Any other version, a NaN or infinite
        number, a non-object document or a field whose value does not
        have its declared type is a ``ValueError`` naming its path.
        """
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        version = data.get("version", SPEC_VERSION)
        if version not in range(1, SPEC_VERSION + 1):
            raise ValueError(
                f"spec version {version!r} not supported (expected 1 to {SPEC_VERSION})"
            )
        _require_finite(data)
        return _load(cls, data, "spec")

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Hash of the outcome-affecting slice of this spec.

        Two specs with equal fingerprints compute the same campaign:
        workers, cache/checkpoint paths, supervision and observability
        are excluded because they change how a campaign runs, not what it
        finds; the confirmation policy *is* included because baseline
        replicas and the noise band change which strategies count as
        attacks.  Stored in the checkpoint-journal header so ``resume``
        refuses a journal written under a different spec.
        """
        return _digest({
            "v": CACHE_VERSION,
            "config": self.testbed.to_dict(),
            "generation": asdict(self.generation or GenerationConfig()),
            "sample_every": self.sample_every,
            "confirm": self.confirm,
            "retries": self.retry.retries,
            "confirmation": asdict(self.confirmation),
        })

    def with_overrides(self, **changes: Any) -> "CampaignSpec":
        """A copy with the given fields replaced (convenience for the CLI)."""
        return replace(self, **changes)


# keep pytest from collecting the dataclass as a test class
CampaignSpec.__test__ = False  # type: ignore[attr-defined]


def run_campaign(
    spec: CampaignSpec, progress: Optional[ProgressHook] = None
) -> CampaignResult:
    """Run one campaign described by ``spec`` — the stable entry point.

    ``progress(stage, done, total)`` is invoked from the parent process as
    runs finish ("baseline" / "sweep" / "confirm").

    A spec with ``fabric`` set runs distributed: the sweep is sharded into
    leased work units on the shared artifact store and any ``repro worker``
    processes pointed at the same store help execute them (see
    :mod:`repro.fabric`).
    """
    if spec.fabric is not None:
        from repro.fabric.coordinator import run_fabric_campaign

        return run_fabric_campaign(spec, progress=progress)
    # the result's metrics snapshot covers this campaign only
    with METRICS.campaign():
        return Controller(spec).run_campaign(progress=progress)


__all__ = [
    "SPEC_VERSION",
    "CampaignSpec",
    "run_campaign",
]
