"""Network chaos injection: random drop/duplicate/delay/reorder on a pipe.

Promoted from the chaos test suite so campaigns can run under injected
network noise — the robustness analog of ProFuzzBench-style fault
injection.  A :class:`ChaosTap` installs as a :attr:`Pipe.tap
<repro.netsim.link.Pipe.tap>` and randomly perturbs traffic while keeping
per-perturbation counters; :class:`ChaosConfig` is the picklable
description that crosses process boundaries inside a
:class:`~repro.core.executor.TestbedConfig` so parallel executors can
build identical taps.

All randomness is drawn from the caller-supplied RNG (normally the
simulator's), so chaotic runs remain fully deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.link import Pipe
    from repro.packets.packet import Packet


class ChaosTap:
    """Random drop/duplicate/delay/reorder interposition on one pipe.

    Each intercepted packet rolls once against the cumulative probability
    bands ``drop``, ``duplicate``, ``delay``, and ``reorder`` (in that
    order); anything left over passes through untouched.  ``reorder``
    holds the packet back until the next packet on the same tap has been
    enqueued, swapping their wire order.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[random.Random] = None,
        drop: float = 0.05,
        duplicate: float = 0.05,
        delay: float = 0.05,
        max_delay: float = 0.05,
        reorder: float = 0.0,
    ):
        self.sim = sim
        self.rng = rng if rng is not None else sim.rng
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay
        self.max_delay = max_delay
        self.reorder = reorder
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.passed = 0
        self._held: Optional[Tuple["Packet", "Pipe"]] = None

    def __call__(self, packet: "Packet", pipe: "Pipe") -> None:
        release = self._held
        self._held = None
        roll = self.rng.random()
        if roll < self.drop:
            self.dropped += 1
        elif roll < self.drop + self.duplicate:
            self.duplicated += 1
            pipe.enqueue(packet)
            pipe.enqueue(packet.clone())
        elif roll < self.drop + self.duplicate + self.delay:
            self.delayed += 1
            self.sim.post(self.rng.random() * self.max_delay, pipe.enqueue, packet)
        elif roll < self.drop + self.duplicate + self.delay + self.reorder:
            self.reordered += 1
            self._held = (packet, pipe)
        else:
            self.passed += 1
            pipe.enqueue(packet)
        if release is not None:
            held_packet, held_pipe = release
            held_pipe.enqueue(held_packet)

    def counters(self) -> Dict[str, int]:
        """Per-perturbation counts, for reports and assertions."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "passed": self.passed,
        }


@dataclass
class ChaosConfig:
    """Picklable chaos parameters (probabilities per intercepted packet).

    Carried inside :class:`~repro.core.executor.TestbedConfig` so the
    executor can rebuild identical :class:`ChaosTap` instances in every
    worker process.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: float = 0.05
    reorder: float = 0.0

    def make_tap(self, sim: Simulator, rng: Optional[random.Random] = None) -> ChaosTap:
        """Build a tap bound to ``sim`` (and its RNG unless one is given)."""
        return ChaosTap(
            sim,
            rng,
            drop=self.drop,
            duplicate=self.duplicate,
            delay=self.delay,
            max_delay=self.max_delay,
            reorder=self.reorder,
        )
