"""The snapshot/fork engine.

One engine lives in each worker process.  For an eligible strategy it
splits the run into explicit phases:

1. **scout** — run the unmodified world once per (testbed, seed) with
   listeners attached, recording the event ordinal at which each trigger
   descriptor (observed packet pair / entered state) first becomes
   reachable.  The scout doubles as the ground-truth plain run.
2. **snapshot** — the first time a trigger boundary is needed, build a
   fresh world, run it to the boundary with ``stop_after_events``, and park
   the paused world in an in-process LRU; a snapshot never leaves the
   worker process that built it.  Later boundaries of the same prefix
   family are built incrementally from the nearest earlier snapshot.
3. **arm + continue (fork)** — deep-copy the snapshot, install the attack
   on the copy, and run the remaining tail.  The forked ``RunResult`` is
   indistinguishable from a full run's because trigger arming is passive:
   a packet rule or state hook has no observable effect until the event at
   the boundary fires it, and that event executes *after* arming either
   way.
4. **determinism guard** — a deterministically sampled fraction of forked
   runs also execute in full; any ``RunResult`` divergence poisons the
   prefix fingerprint (all later runs execute in full), bumps the
   ``snap.divergence`` counter, and emits a ``snap.divergence`` event.

Strategies whose trigger never became reachable in the scout are *elided*:
an armed run is then provably identical to the plain run, so the scout's
result is returned directly (restamped with the strategy id) without any
simulation at all.

Time-triggered strategies are ineligible — their ``arm()`` schedules the
fire relative to arming time — as are retry attempts (different seeds) and
baseline runs; all fall back to full execution.

A scout costs one full run, so :func:`execute_run` starts one on a
(testbed, seed) only at the second eligible request for it in this
process: the first runs in full (``snap.scouts_deferred``), and a lone
request never pays for a scout it cannot amortize.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import _digest
from repro.core.executor import Executor, RunResult, SimWorld, TestbedConfig
from repro.core.generation import snapshot_descriptor
from repro.core.strategy import Strategy
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS
from repro.snap.config import SnapshotConfig
from repro.snap.keys import prefix_fingerprint, run_key

#: RunResult fields ignored by the determinism comparison: identity and
#: timing metadata assigned outside the simulation itself
_VOLATILE_FIELDS = ("wall_seconds", "run_id", "cached", "attempts")


def comparable_result(result: RunResult) -> Dict[str, Any]:
    """A :class:`RunResult` dict with run-identity/timing fields stripped."""
    data = result.to_dict()
    for field_name in _VOLATILE_FIELDS:
        data.pop(field_name, None)
    return data


class _Scout:
    """One plain run's result plus its trigger-boundary map."""

    __slots__ = ("result", "boundaries")

    def __init__(self, result: RunResult, boundaries: Dict[Tuple[str, str, str], int]):
        self.result = result
        self.boundaries = boundaries


class SnapshotEngine:
    """Per-process snapshot cache and fork executor."""

    def __init__(self, config: SnapshotConfig):
        self.config = config
        #: run_key -> _Scout (None = scout truncated; snapshots unusable)
        self._scouts: Dict[str, Optional[_Scout]] = {}
        #: fingerprint -> paused SimWorld, LRU order (oldest first)
        self._lru: Dict[str, SimWorld] = {}
        #: run_key -> [(boundary, fingerprint)] of cached snapshots, for
        #: incremental builds from the nearest earlier boundary
        self._by_run: Dict[str, List[Tuple[int, str]]] = {}
        #: fingerprints the determinism guard has disabled
        self._poisoned: set = set()
        #: run_keys whose first eligible request ran in full (scout gate)
        self._deferred: set = set()

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def admit(self, config: TestbedConfig, strategy: Strategy, seed: Optional[int]) -> bool:
        """Scout gate: ``False`` defers the first eligible request on a
        (testbed, seed) with no scout yet, so it runs in full."""
        if snapshot_descriptor(strategy) is None:
            return False
        key = run_key(config, seed)
        if key in self._scouts or key in self._deferred:
            return True
        self._deferred.add(key)
        METRICS.inc("snap.scouts_deferred")
        return False

    def execute(
        self,
        config: TestbedConfig,
        strategy: Strategy,
        seed: Optional[int],
    ) -> Optional[RunResult]:
        """Run ``strategy`` via snapshot fork, or ``None`` = run in full."""
        descriptor = snapshot_descriptor(strategy)
        if descriptor is None:
            return None
        scout = self._scout_for(config, seed)
        if scout is None:
            return None
        fingerprint = prefix_fingerprint(config, seed, descriptor)
        if fingerprint in self._poisoned:
            return None
        boundary = scout.boundaries.get(descriptor)
        if boundary is not None and boundary < 0:
            # the descriptor is reachable during world *construction* (the
            # target client sends its first packets synchronously while the
            # world is still being built, before the first event runs).  An
            # armed run installs the strategy mid-build, so no post-build
            # snapshot can reproduce it — run in full.
            return None
        if boundary is None:
            # the trigger never became reachable: an armed run is provably
            # identical to the plain run the scout already executed
            started = time.perf_counter()
            METRICS.inc("snap.elided")
            METRICS.inc("snap.events_saved", scout.result.events_processed)
            elided = copy.deepcopy(scout.result)
            elided.strategy_id = strategy.strategy_id
            elided.wall_seconds = time.perf_counter() - started
            return elided
        if boundary < self.config.min_events:
            return None
        snapshot = self._snapshot(config, seed, fingerprint, boundary)
        if snapshot is None:
            return None
        result = self._fork(config, strategy, snapshot, boundary)
        if self._should_verify(fingerprint, strategy):
            full = Executor(config).run(strategy, seed=seed, observe=False)
            METRICS.inc("snap.verify_events", full.events_processed)
            if comparable_result(result) != comparable_result(full):
                self._poisoned.add(fingerprint)
                METRICS.inc("snap.divergence")
                BUS.emit(
                    "snap.divergence",
                    fingerprint=fingerprint,
                    strategy_id=strategy.strategy_id,
                    boundary=boundary,
                )
                return full
        return result

    # ------------------------------------------------------------------
    # phase 1: scout
    # ------------------------------------------------------------------
    def _scout_for(self, config: TestbedConfig, seed: Optional[int]) -> Optional[_Scout]:
        key = run_key(config, seed)
        if key in self._scouts:
            return self._scouts[key]
        METRICS.inc("snap.scout_runs")
        started = time.perf_counter()
        executor = Executor(config)
        world = executor.build_world(None, seed)
        sim = world.sim
        boundaries: Dict[Tuple[str, str, str], int] = {}

        # listeners read the live event counter *during* the triggering
        # event's callback, i.e. the count of events completed before it —
        # exactly the ordinal ``stop_after_events`` pauses at
        def on_pair(state: str, packet_type: str) -> None:
            boundaries.setdefault(("pair", state, packet_type), sim.events_processed)

        def on_transition(role: str, new_state: str) -> None:
            boundaries.setdefault(("state", role, new_state), sim.events_processed)

        # descriptors already reached while the world was being built (the
        # apps send their opening packets synchronously at construction)
        # are marked with a negative sentinel: they predate event 0, so no
        # snapshot boundary can sit in front of them
        for state, packet_type in world.tracker.observed_pairs:
            boundaries[("pair", state, packet_type)] = -1
        for role, endpoint in (("client", world.tracker.client),
                               ("server", world.tracker.server)):
            for _time, _src, _event, dst in endpoint.transitions_taken:
                boundaries.setdefault(("state", role, dst), -1)

        world.tracker.pair_listeners.append(on_pair)
        world.tracker.transition_listeners.append(on_transition)
        sim.run(until=config.duration, max_events=config.max_events,
                wall_budget=config.run_budget)
        result = executor.collect(world, None, started, observe=False)
        METRICS.inc("snap.scout_events", result.events_processed)
        # a truncated scout saw only part of the run: its boundary map and
        # elision baseline are both unusable for this (testbed, seed)
        scout = None if result.timed_out else _Scout(result, boundaries)
        self._scouts[key] = scout
        return scout

    # ------------------------------------------------------------------
    # phase 2: snapshot
    # ------------------------------------------------------------------
    def _snapshot(
        self,
        config: TestbedConfig,
        seed: Optional[int],
        fingerprint: str,
        boundary: int,
    ) -> Optional[SimWorld]:
        world = self._lru.get(fingerprint)
        if world is not None:
            METRICS.inc("snap.hits")
            # refresh LRU position
            self._lru.pop(fingerprint)
            self._lru[fingerprint] = world
            return world
        METRICS.inc("snap.misses")
        world = self._build(config, seed, boundary)
        if world is None:
            return None
        self._remember(config, seed, fingerprint, boundary, world)
        return world

    def _build(
        self, config: TestbedConfig, seed: Optional[int], boundary: int
    ) -> Optional[SimWorld]:
        """Run a plain world to the boundary, incrementally when possible."""
        METRICS.inc("snap.builds")
        key = run_key(config, seed)
        base_boundary, base_fp = 0, None
        for cached_boundary, cached_fp in self._by_run.get(key, ()):
            if base_boundary < cached_boundary <= boundary and cached_fp in self._lru:
                base_boundary, base_fp = cached_boundary, cached_fp
        if base_fp is not None:
            world = copy.deepcopy(self._lru[base_fp])
        else:
            world = Executor(config).build_world(None, seed)
        base_events = world.sim.events_processed
        remaining = boundary - base_events
        if remaining > 0:
            budget = None
            if config.max_events is not None:
                budget = max(0, config.max_events - base_events)
            world.sim.run(
                until=config.duration,
                max_events=budget,
                wall_budget=config.run_budget,
                stop_after_events=remaining,
            )
        METRICS.inc("snap.build_events", world.sim.events_processed - base_events)
        if world.sim.truncated is not None or world.sim.events_processed != boundary:
            # a watchdog fired mid-build, or the world ran dry before the
            # boundary; neither is a valid snapshot
            return None
        return world

    def _remember(
        self,
        config: TestbedConfig,
        seed: Optional[int],
        fingerprint: str,
        boundary: int,
        world: SimWorld,
    ) -> None:
        self._lru[fingerprint] = world
        key = run_key(config, seed)
        index = self._by_run.setdefault(key, [])
        if (boundary, fingerprint) not in index:
            index.append((boundary, fingerprint))
        while len(self._lru) > self.config.max_cached:
            evicted_fp = next(iter(self._lru))
            del self._lru[evicted_fp]
            for entries in self._by_run.values():
                entries[:] = [entry for entry in entries if entry[1] != evicted_fp]

    # ------------------------------------------------------------------
    # phase 3: fork (arm + continue)
    # ------------------------------------------------------------------
    def _fork(
        self,
        config: TestbedConfig,
        strategy: Strategy,
        snapshot: SimWorld,
        boundary: int,
    ) -> RunResult:
        started = time.perf_counter()
        fork = copy.deepcopy(snapshot)
        executor = Executor(config)
        executor._install_strategy(fork.proxy, strategy)
        tail_budget = None
        if config.max_events is not None:
            tail_budget = max(0, config.max_events - fork.sim.events_processed)
        with BUS.span("run.simulate"):
            fork.sim.run(
                until=config.duration,
                max_events=tail_budget,
                wall_budget=config.run_budget,
            )
        METRICS.inc("snap.forks")
        METRICS.inc("snap.events_saved", boundary)
        return executor.collect(fork, strategy, started, observe=True)

    # ------------------------------------------------------------------
    # phase 4: determinism guard
    # ------------------------------------------------------------------
    def _should_verify(self, fingerprint: str, strategy: Strategy) -> bool:
        fraction = self.config.verify_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        token = _digest({"fingerprint": fingerprint, "strategy": strategy.canonical_form()})
        return int(token[:8], 16) % 1_000_000 < fraction * 1_000_000


# ----------------------------------------------------------------------
# per-process entry point (used by the pull dispatcher)
# ----------------------------------------------------------------------
_ENGINE: Optional[SnapshotEngine] = None


def execute_run(
    config: TestbedConfig,
    strategy: Optional[Strategy],
    seed: Optional[int],
    attempt: int,
    snap_config: Optional[SnapshotConfig],
) -> Optional[RunResult]:
    """Snapshot-fork one run if eligible; ``None`` = caller runs in full.

    Retry attempts use derived seeds that never match a cached prefix, so
    they (like baselines and time-triggered strategies) execute in full.
    The first eligible request on a (testbed, seed) also runs in full (see
    :meth:`SnapshotEngine.admit`); the second starts the scout.
    """
    global _ENGINE
    if (
        snap_config is None
        or not snap_config.enabled
        or strategy is None
        or attempt > 0
    ):
        return None
    if _ENGINE is None or _ENGINE.config != snap_config:
        _ENGINE = SnapshotEngine(snap_config)
    if not _ENGINE.admit(config, strategy, seed):
        return None
    return _ENGINE.execute(config, strategy, seed)


def reset_engine() -> None:
    """Drop the process-local engine (tests)."""
    global _ENGINE
    _ENGINE = None


__all__ = [
    "SnapshotEngine",
    "comparable_result",
    "execute_run",
    "reset_engine",
]
