"""Prefix fingerprints: content addresses for snapshot reuse.

A snapshot is only reusable when *everything* that shapes the prefix is
identical: the full testbed configuration (protocol, variant, durations,
watchdog budgets, chaos config, ...), the simulator seed, and the trigger
descriptor the strategy arms on.  The fingerprint is a BLAKE2b digest over
the canonical JSON of exactly those inputs — the same digest discipline as
the run cache (:mod:`repro.core.cache`) — so snapshots slot into the
existing content-addressed store layout under a ``snapshots`` namespace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cache import _digest
from repro.core.executor import TestbedConfig

#: bumped whenever snapshot capture semantics change, so stale persistent
#: snapshots from an older engine are never resurrected.  2: the pickled
#: scheduler heap holds ``(time, seq, handle)`` tuples instead of handles.
#: 3: a heap entry may lag its handle's ``(time, seq)`` after a deferred
#: timer re-arm, which an older engine would fire at the stale time.
#: 4: the heap also holds handle-free ``(time, seq, fn, args)`` entries
#: from :meth:`~repro.netsim.simulator.Simulator.post`, which an older
#: engine cannot fire
SNAP_VERSION = 4

#: store namespace for persistent (cross-host) snapshots
SNAPSHOT_NAMESPACE = "snapshots"


def run_key(config: TestbedConfig, seed: Optional[int]) -> str:
    """Identity of one (testbed, seed) prefix family (scout + build index)."""
    return _digest(
        {
            "snap": SNAP_VERSION,
            "config": config.to_dict(),
            "seed": config.seed if seed is None else seed,
        }
    )


def prefix_fingerprint(
    config: TestbedConfig, seed: Optional[int], descriptor: Sequence[str]
) -> str:
    """BLAKE2b fingerprint of one snapshot prefix.

    ``descriptor`` is the trigger descriptor from
    :func:`repro.core.generation.snapshot_descriptor` —
    ``("pair", state, packet_type)`` or ``("state", role, state)``.
    """
    return _digest(
        {
            "snap": SNAP_VERSION,
            "config": config.to_dict(),
            "seed": config.seed if seed is None else seed,
            "descriptor": list(descriptor),
        }
    )


__all__ = ["SNAP_VERSION", "SNAPSHOT_NAMESPACE", "prefix_fingerprint", "run_key"]
