"""Fabric configuration: the ``CampaignSpec.fabric`` fragment.

Kept in its own module (not ``repro.api``) so the fabric package and the
spec layer can both import it without a cycle: ``api`` imports
:class:`FabricConfig`; ``fabric.coordinator`` imports ``api``.

Fabric settings describe *how* a campaign is distributed, never *what* it
computes — they are deliberately excluded from the campaign fingerprint,
just like worker counts and cache paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class FabricConfig:
    """Distribution settings for a fabric campaign.

    ``store`` names the shared artifact store as a URL —
    ``dir://PATH``, ``sqlite://PATH`` or ``memory://NAME`` (see
    :func:`repro.fabric.store.store_for`).  ``lease_ttl`` is
    how long a claimed unit may go without a heartbeat before any other
    participant may reclaim it; it bounds the stall after a SIGKILL.
    ``lease_size`` is strategies per claimable unit — small units spread
    better, large units amortize dispatch; a participant runs one unit
    at a time across its pool, so ``lease_size`` >= its ``workers`` keeps
    the pool busy.  ``participate`` controls
    whether the coordinator executes units itself while waiting on
    workers (on by default so a fabric campaign completes even with zero
    external workers).

    ``telemetry_interval`` is how often each participant publishes its
    status record into the store's ``telemetry`` namespace (seconds;
    ``0`` disables the fleet telemetry plane entirely), and
    ``stall_window`` is how long a participant may go without a heartbeat
    — or without unit progress while executing — before the aggregator
    flags it as a straggler (``fleet.straggler`` event + counter).

    ``store_retries`` > 0 wraps the opened store in a
    :class:`~repro.fabric.resilience.ResilientStore`: transient store
    faults are retried that many extra times per operation with
    ``store_backoff`` base seconds of exponential backoff (plus a
    circuit breaker); ``0`` (the default) opens the bare backend.
    """

    store: str
    lease_ttl: float = 30.0
    lease_size: int = 4
    poll_interval: float = 0.2
    participate: bool = True
    telemetry_interval: float = 1.0
    stall_window: float = 15.0
    store_retries: int = 0
    store_backoff: float = 0.05

    def __post_init__(self) -> None:
        if not self.store:
            raise ValueError("fabric store must be a non-empty path")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.lease_size < 1:
            raise ValueError("lease_size must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.telemetry_interval < 0:
            raise ValueError("telemetry_interval must be >= 0 (0 disables telemetry)")
        if self.stall_window <= 0:
            raise ValueError("stall_window must be positive")
        if self.store_retries < 0:
            raise ValueError("store_retries must be >= 0")
        if self.store_backoff < 0:
            raise ValueError("store_backoff must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)
