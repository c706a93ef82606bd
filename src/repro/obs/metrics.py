"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Prometheus-flavoured but dependency-free and multiprocessing-aware: every
worker process accumulates into its own process-local registry, snapshots
it after each run, and the parent merges the snapshots back into the
campaign-level registry (counters add, gauges take the max, histograms add
bucket-wise).  Fixed bucket bounds are what make the merge exact — two
snapshots of the same histogram always share a schema.

Like the event bus, the registry is built to vanish when disabled: hot
paths gate on :attr:`MetricsRegistry.enabled` (instrumentation records
once per *run*, never per simulated packet) and the whole subsystem costs
one attribute check when off.

Canonical metric names are documented in ``docs/observability.md``.
Supervision and verdict counters live in the parent process only:
``supervisor.kills`` / ``supervisor.worker_lost`` / ``supervisor.respawns``
/ ``supervisor.redispatched`` / ``supervisor.quarantines`` count the
supervised pool's interventions, and
``detector.confirmed`` / ``detector.flaky`` count confirm-stage verdicts.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: wall-time buckets (seconds): 1 ms .. 60 s, roughly ×2.5 per step
TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: event-rate buckets (events/second): 1k .. 10M
RATE_BUCKETS: Tuple[float, ...] = (
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7,
)


class Counter:
    """Monotonic count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value; merges as max across workers (used for peaks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything above the last bound.  Percentiles are
    linearly interpolated inside the winning bucket, which is exact enough
    for triage tables (the error is bounded by the bucket width).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = TIME_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        return histogram_percentile(self.snapshot(), p)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


def histogram_percentile(snapshot: Dict[str, Any], p: float) -> float:
    """Estimate the ``p`` percentile (0..1) from a histogram snapshot.

    Linear interpolation inside the winning bucket, clamped to the observed
    [min, max] so a wide bucket can never report a percentile above the
    largest value actually seen.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {p}")
    total = snapshot.get("count", 0)
    if not total:
        return 0.0
    bounds = snapshot["bounds"]
    counts = snapshot["counts"]
    observed_min = snapshot.get("min")
    observed_max = snapshot.get("max")
    rank = p * total
    cumulative = 0.0
    estimate: float = observed_max if observed_max is not None else bounds[-1]
    for i, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            lo = bounds[i - 1] if i > 0 else (observed_min or 0.0)
            hi = bounds[i] if i < len(bounds) else (observed_max or bounds[-1])
            fraction = (rank - cumulative) / bucket_count
            estimate = lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            break
        cumulative += bucket_count
    if observed_max is not None and estimate > observed_max:
        estimate = observed_max
    if observed_min is not None and estimate < observed_min:
        estimate = observed_min
    return estimate


def histogram_mean(snapshot: Dict[str, Any]) -> float:
    count = snapshot.get("count", 0)
    return snapshot.get("sum", 0.0) / count if count else 0.0


class MetricsRegistry:
    """Named counters/gauges/histograms, snapshot-able and mergeable."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        return histogram

    def inc(self, name: str, n: int = 1) -> None:
        """Convenience: increment a counter (creates it on first use)."""
        self.counter(name).inc(n)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable dump of everything recorded so far."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }

    def snapshot_and_reset(self) -> Dict[str, Any]:
        """Snapshot then clear — the per-run delta a worker ships back."""
        snap = self.snapshot()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        return snap

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold one snapshot (e.g. a worker's per-run delta) into this
        registry: counters add, gauges keep the max, histograms add
        bucket-wise (bounds must match — they always do, by construction)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, bounds=data["bounds"])
            if list(histogram.bounds) != list(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r}: merge with mismatched bounds"
                )
            for i, bucket_count in enumerate(data["counts"]):
                histogram.counts[i] += bucket_count
            histogram.count += data["count"]
            histogram.sum += data["sum"]
            if data.get("min") is not None:
                if histogram.min is None or data["min"] < histogram.min:
                    histogram.min = data["min"]
            if data.get("max") is not None:
                if histogram.max is None or data["max"] > histogram.max:
                    histogram.max = data["max"]


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge snapshot dicts without touching any live registry."""
    registry = MetricsRegistry(enabled=True)
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()


class ScopedMetrics(MetricsRegistry):
    """The process registry, with optional per-thread scoping.

    By default this *is* the ordinary process-wide registry.  A thread
    that enters :meth:`scoped` routes its metric calls to its own
    :class:`MetricsRegistry` until the block exits: the three tables and
    the ``enabled`` flag, the only state a registry method reads, resolve
    to that registry, so every inherited method is scoped by
    construction.  That is how one service process drives N concurrent
    campaigns without their metric snapshots cross-polluting: each
    campaign's drive thread (and the fork pools it spawns, which inherit
    the forking thread's routing) records into the campaign's private
    registry (:meth:`campaign`), folded into the process registry when
    the campaign ends.
    """

    _counters = property(lambda self: self._target()._counters)
    _gauges = property(lambda self: self._target()._gauges)
    _histograms = property(lambda self: self._target()._histograms)
    # ``configure_observability`` assigns ``enabled``: inside a campaign
    # scope that toggles the campaign's registry, not the process one
    enabled = property(
        lambda self: self._target().enabled,
        lambda self, value: setattr(self._target(), "enabled", value),
    )

    def __init__(self, enabled: bool = False):
        # no super().__init__: the tables live in the registries routed to
        self._tls = threading.local()
        self._process = MetricsRegistry(enabled)

    def _target(self) -> MetricsRegistry:
        return getattr(self._tls, "registry", None) or self._process

    @contextmanager
    def scoped(self, registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
        """Route this thread's metric calls into ``registry`` for the block."""
        previous = self.active_registry()
        self._tls.registry = registry
        try:
            yield registry
        finally:
            self._tls.registry = previous

    @contextmanager
    def campaign(self) -> Iterator[MetricsRegistry]:
        """Record this thread's metrics for one campaign: a fresh registry,
        enabled as the enclosing one is, folded into the enclosing registry
        when the block exits, also on error."""
        registry = MetricsRegistry(self.enabled)
        try:
            with self.scoped(registry):
                yield registry
        finally:
            self.merge(registry.snapshot())

    def active_registry(self) -> Optional[MetricsRegistry]:
        """This thread's scoped registry, ``None`` when unscoped.  Capture
        it before spawning a helper thread that should record into the
        same scope (thread-locals do not inherit)."""
        return getattr(self._tls, "registry", None)


#: the process-wide registry; enable via
#: :func:`repro.obs.config.configure_observability`.  Campaign drive
#: threads scope it per campaign via :meth:`ScopedMetrics.campaign`.
METRICS = ScopedMetrics()
