"""Snapshot-engine configuration.

Like :class:`~repro.core.supervisor.SupervisionConfig`, this is a runtime
knob: it is excluded from the campaign fingerprint, so enabling or tuning
snapshots never invalidates caches, journals, or fabric ledgers.  The
determinism guard (``verify_fraction``) is what makes that safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SnapshotConfig:
    """How the snapshot/fork engine behaves (picklable, fingerprint-neutral).

    Parameters
    ----------
    enabled:
        Master switch (``--snapshots``).  Off by default: forked runs are
        behaviourally identical to full runs by contract, but the contract
        is opt-in.
    verify_fraction:
        Fraction of forked runs (deterministically sampled per strategy)
        that also execute in full; any :class:`RunResult` divergence
        poisons the prefix and emits a ``snap.divergence`` event.
    max_cached:
        In-process LRU capacity, in snapshots, per worker process.
    min_events:
        Prefixes shorter than this many events are not worth snapshotting;
        such runs execute in full.
    store:
        Optional shared artifact store URL (``dir://PATH`` or
        ``sqlite://PATH``); snapshots are then also published under a
        ``snapshots`` namespace so fabric workers share warm prefixes
        cross-host.
    """

    enabled: bool = False
    verify_fraction: float = 0.05
    max_cached: int = 8
    min_events: int = 50
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.verify_fraction <= 1.0):
            raise ValueError(
                f"verify_fraction must be within [0, 1], got {self.verify_fraction!r}"
            )
        if self.max_cached < 1:
            raise ValueError(f"max_cached must be >= 1, got {self.max_cached!r}")
        if self.min_events < 0:
            raise ValueError(f"min_events must be >= 0, got {self.min_events!r}")


__all__ = ["SnapshotConfig"]
