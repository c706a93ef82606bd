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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional

from repro.core.cache import campaign_fingerprint
from repro.core.controller import CampaignResult, Controller
from repro.core.detector import ConfirmationPolicy
from repro.core.executor import TestbedConfig
from repro.core.generation import GenerationConfig
from repro.core.parallel import RetryPolicy
from repro.core.supervisor import SupervisionConfig
from repro.fabric.config import FabricConfig
from repro.obs.config import ObsConfig
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


#: GenerationConfig fields whose JSON lists must come back as tuples for the
#: round-trip to be exact (dataclass defaults are tuples)
_GENERATION_SEQUENCE_FIELDS = (
    "drop_percents", "duplicate_copies", "delay_seconds", "batch_windows",
    "inject_counts", "hsw_intervals", "hsw_stride_divisors",
)

ProgressHook = Callable[[str, int, int], None]


def _from_known(cls: type, data: Dict[str, Any]) -> Dict[str, Any]:
    known = {f.name for f in fields(cls)}
    return {k: v for k, v in data.items() if k in known}


def _generation_from_dict(data: Dict[str, Any]) -> GenerationConfig:
    kwargs = _from_known(GenerationConfig, data)
    for name in _GENERATION_SEQUENCE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return GenerationConfig(**kwargs)


@dataclass
class CampaignSpec:
    """Everything that defines one campaign, as one picklable value.

    Field groups mirror the subsystems they configure: ``testbed`` is the
    executor's world, ``generation`` the strategy enumeration (``None`` =
    protocol defaults), ``retry`` the fault-tolerance policy, ``cache_dir``
    the run cache, ``supervision`` the worker pool's deadlines, recycling
    and quarantine, ``confirmation`` the baseline replication + noise-band
    verdict policy, ``checkpoint`` / ``resume`` the journal, and ``obs``
    the telemetry (``None`` = everything off).
    """

    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    generation: Optional[GenerationConfig] = None
    workers: Optional[int] = None
    confirm: bool = True
    sample_every: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint: Optional[str] = None
    resume: bool = False
    cache_dir: Optional[str] = None
    obs: Optional[ObsConfig] = None
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    confirmation: ConfirmationPolicy = field(default_factory=ConfirmationPolicy)
    #: distribute the sweep over a shared artifact store (see
    #: :mod:`repro.fabric`); ``None`` keeps the single-process runtime.
    #: Like workers, this changes *how* the campaign runs, not what it
    #: computes, so it is excluded from :meth:`fingerprint`.
    fabric: Optional[FabricConfig] = None
    #: snapshot/fork engine (see :mod:`repro.snap`); disabled by default.
    #: Fingerprint-neutral for the same reason as ``supervision``: the
    #: determinism contract guarantees identical outcomes either way.
    snapshots: SnapshotConfig = field(default_factory=SnapshotConfig)
    #: quota-accounting identity under the campaign service (spec v2).
    #: Fingerprint-neutral: who submitted a campaign does not change what
    #: it computes, so tenants share the run cache.
    tenant: str = "default"

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump; exact inverse of :meth:`from_dict`."""
        return {"version": SPEC_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a spec file).

        Sequence-valued generation knobs normalize back to tuples, so
        ``from_dict(spec.to_dict()) == spec`` holds exactly.  Unknown keys
        inside the nested configs are ignored for forward compatibility, and
        top-level keys are read by name, so a key a later version dropped
        (``batch_size``, ``service``) loads as a no-op.  Versions 1 to
        :data:`SPEC_VERSION` load; any other version, and any NaN or
        infinite number anywhere in the document, is a ``ValueError``.
        """
        version = data.get("version", SPEC_VERSION)
        if version not in range(1, SPEC_VERSION + 1):
            raise ValueError(
                f"spec version {version!r} not supported (expected 1 to {SPEC_VERSION})"
            )
        _require_finite(data)
        generation = data.get("generation")
        obs = data.get("obs")
        return cls(
            testbed=TestbedConfig.from_dict(data.get("testbed", {})),
            generation=None if generation is None else _generation_from_dict(generation),
            workers=data.get("workers"),
            confirm=data.get("confirm", True),
            sample_every=data.get("sample_every", 1),
            retry=RetryPolicy(**_from_known(RetryPolicy, data.get("retry", {}))),
            checkpoint=data.get("checkpoint"),
            resume=data.get("resume", False),
            cache_dir=data.get("cache_dir"),
            obs=None if obs is None else ObsConfig(**_from_known(ObsConfig, obs)),
            supervision=SupervisionConfig(
                **_from_known(SupervisionConfig, data.get("supervision") or {})
            ),
            confirmation=ConfirmationPolicy(
                **_from_known(ConfirmationPolicy, data.get("confirmation") or {})
            ),
            fabric=(
                None if data.get("fabric") is None
                else FabricConfig.from_dict(data["fabric"])
            ),
            snapshots=SnapshotConfig(
                **_from_known(SnapshotConfig, data.get("snapshots") or {})
            ),
            tenant=data.get("tenant", "default"),
        )

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
        return campaign_fingerprint(
            self.testbed, self.generation, self.sample_every, self.confirm,
            self.retry.retries, confirmation=self.confirmation,
        )

    def with_overrides(self, **changes: Any) -> "CampaignSpec":
        """A copy with the given fields replaced (convenience for the CLI)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def build_controller(self) -> Controller:
        """Materialize the configured :class:`~repro.core.Controller`."""
        return Controller(
            self.testbed,
            generation=self.generation,
            workers=self.workers,
            confirm=self.confirm,
            sample_every=self.sample_every,
            retries=self.retry.retries,
            retry_backoff=self.retry.backoff,
            checkpoint=self.checkpoint,
            resume=self.resume,
            obs=self.obs,
            cache_dir=self.cache_dir,
            supervision=self.supervision,
            confirmation=self.confirmation,
            snapshots=self.snapshots,
        )


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
    return spec.build_controller().run_campaign(progress=progress)


__all__ = [
    "SPEC_VERSION",
    "CampaignSpec",
    "run_campaign",
]
