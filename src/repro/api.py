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

#: bump on incompatible spec-dict changes; ``from_dict`` upgrades known old
#: versions through :data:`_SPEC_UPGRADES` and rejects unknown ones
SPEC_VERSION = 2


def _upgrade_v1_to_v2(data: Dict[str, Any]) -> Dict[str, Any]:
    """v1 → v2: the multi-tenant service fields, with safe defaults.

    v2 adds ``tenant`` (quota accounting identity, default ``"default"``)
    and ``service`` (service-mode runtime knobs, default ``None``).  Both
    are fingerprint-neutral, so an upgraded spec names the same campaign.
    """
    upgraded = dict(data)
    upgraded.setdefault("tenant", "default")
    upgraded.setdefault("service", None)
    upgraded["version"] = 2
    return upgraded


#: explicit spec-version upgrade chain: ``{from_version: hook}``; applied
#: repeatedly by :meth:`CampaignSpec.from_dict` until ``SPEC_VERSION``
_SPEC_UPGRADES: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    1: _upgrade_v1_to_v2,
}

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
    #: service-mode runtime knobs (spec v2), an open dict so the control
    #: plane can evolve without another spec bump; ``None`` outside the
    #: service.  Fingerprint-neutral like ``fabric``.
    service: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump; exact inverse of :meth:`from_dict`."""
        return {
            "version": SPEC_VERSION,
            "testbed": self.testbed.to_dict(),
            "generation": None if self.generation is None else asdict(self.generation),
            "workers": self.workers,
            "confirm": self.confirm,
            "sample_every": self.sample_every,
            "retry": asdict(self.retry),
            "checkpoint": self.checkpoint,
            "resume": self.resume,
            "cache_dir": self.cache_dir,
            "obs": None if self.obs is None else asdict(self.obs),
            "supervision": asdict(self.supervision),
            "confirmation": asdict(self.confirmation),
            "fabric": None if self.fabric is None else self.fabric.to_dict(),
            "snapshots": asdict(self.snapshots),
            "tenant": self.tenant,
            "service": None if self.service is None else dict(self.service),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a spec file).

        Sequence-valued generation knobs normalize back to tuples, so
        ``from_dict(spec.to_dict()) == spec`` holds exactly.  Unknown keys
        inside the nested configs are ignored for forward compatibility, and
        top-level keys are read by name, so a key a later version dropped
        loads as a no-op.
        Old spec versions are upgraded in place through the
        :data:`_SPEC_UPGRADES` hook chain (v1 dicts gain the v2
        ``tenant``/``service`` defaults); a version with no upgrade path
        is rejected loudly.
        """
        version = data.get("version", SPEC_VERSION)
        while version != SPEC_VERSION:
            upgrade = _SPEC_UPGRADES.get(version)
            if upgrade is None:
                raise ValueError(
                    f"spec version {version!r} not supported (expected "
                    f"{SPEC_VERSION}; upgradable: {sorted(_SPEC_UPGRADES)})"
                )
            data = upgrade(data)
            version = data.get("version", SPEC_VERSION)
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
            service=data.get("service"),
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
