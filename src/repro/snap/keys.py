"""Prefix fingerprints: content addresses for snapshot reuse.

A snapshot is only reusable when *everything* that shapes the prefix is
identical: the full testbed configuration (protocol, variant, durations,
watchdog budgets, chaos config, ...), the simulator seed, and the trigger
descriptor the strategy arms on.  The fingerprint is a BLAKE2b digest over
the canonical JSON of exactly those inputs — the same digest discipline as
the run cache (:mod:`repro.core.cache`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cache import _digest
from repro.core.executor import TestbedConfig

#: a fixed input of every key, kept so the keys stay byte-identical: the
#: determinism guard picks which forks to verify from a digest of the
#: prefix fingerprint
SNAP_VERSION = 4


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


__all__ = ["SNAP_VERSION", "prefix_fingerprint", "run_key"]
