"""Per-layer span tracer for the campaign benchmark.

The program itself carries no tracing: :func:`install` wraps layer
functions from the outside, in the sample's process, before any worker
pool forks, so every worker inherits the wrappers.  A wrapper that finds the
tracer disabled calls straight through, but it still costs a Python call,
so only a dedicated traced sample ever installs them.

Accounting.  Each process keeps one span stack.  When a span closes, its
inclusive time is charged to its parent's child time, and its self time
(inclusive minus children) accumulates per span name and per
``(name, parent)`` edge.  Low-frequency spans (runs, cache lookups,
journal records) also keep every duration; per-packet spans keep only
their totals, so no per-packet record is ever written.

Records.  Each worker appends one JSON line per finished run to
``spans-<pid>.jsonl`` (the run's id plus that run's aggregates) and resets
its totals; the traced parent appends its own totals once at the end.
:func:`merge` folds every file of a trace directory back together and
:func:`layer_metrics` turns the totals into the benchmark's per-layer
metrics.

Functions a module imports by name are patched in the namespace that
calls them: ``dedupe_strategies`` in ``repro.core.controller``,
``run_fingerprint`` in each consumer, ``_execute_single`` in both
dispatchers, and ``execute_run`` in ``repro.snap.engine`` (looked up at
call time by the dispatcher).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from benchstats import percentile

#: spans whose self time partitions ``Simulator.run`` (the layer ledger)
LAYER_SPANS = (
    "netsim.run",
    "netsim.link.enqueue",
    "netsim.node.receive",
    "proxy.intercept",
    "statemachine.observe",
    "tcpstack.on_packet",
    "dccpstack.on_packet",
    "packets.header.codec",
)

def _moves(metric: str, workloads: Tuple[str, ...], *names: str) -> Dict[str, Any]:
    return {name: (metric, workloads) for name in names}


COLD = ("tcp-sweep", "tcp-snap", "dccp-fabric")

#: which end-to-end metric each per-layer metric should move, and on which
#: workloads ("bench" marks checks on the benchmark itself)
LAYER_MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    **_moves("campaign_s", COLD, "core.controller.baseline_s", "core.executor.runs",
             "core.executor.runs_per_core_s", "core.executor.build_share",
             "core.executor.collect_share"),
    **_moves("campaign_s", ("warm-resubmit",), "core.generation.generate_ms",
             "core.generation.dedupe_ms", "core.cache.fingerprint_us.p50",
             "core.cache.fingerprint.calls", "core.cache.get_us.p50", "core.cache.get.calls",
             "core.cache.hit_frac", "core.detector.evaluate_us.p50",
             "core.detector.evaluate.calls", "fabric.store.get_us.p50",
             "fabric.store.get.calls"),
    **_moves("campaign_s", ("tcp-sweep",), "core.cache.put.calls", "core.cache.put_share",
             "core.checkpoint.record.calls", "core.checkpoint.record_share",
             "core.checkpoint.bytes_written", "tcpstack.on_packet.calls",
             "tcpstack.on_packet.self_share"),
    **_moves("campaign_s", ("dccp-fabric",), "core.parallel.sweep_share",
             "core.parallel.confirm_share", "core.parallel.worker_busy_frac",
             "dccpstack.on_packet.calls", "dccpstack.on_packet.self_share",
             "fabric.store.write.calls", "fabric.store.write_share", "fabric.store.keys.calls",
             "fabric.leases.claim.calls", "fabric.leases.claim_empty_frac",
             "fabric.ledger.fetch.calls", "fabric.ledger.fetch_hit_frac",
             "fabric.ledger.commit.calls", "fabric.worker.run_one.calls",
             "fabric.worker.run_one_share", "fabric.coordinator.idle_share"),
    **_moves("campaign_s", ("tcp-snap",), "snap.execute_run.calls", "snap.served_frac",
             "snap.served_cost_ratio", "snap.self_share", "snap.events_skipped_frac"),
    **_moves("campaign_s", ("tcp-sweep", "dccp-fabric"), "netsim.events",
             "netsim.events_per_s", "netsim.self_share", "netsim.link.enqueue.calls",
             "netsim.link.enqueue.drops", "netsim.link.enqueue.self_share",
             "netsim.node.receive.calls", "netsim.node.receive.self_share",
             "proxy.intercept.calls", "proxy.intercept.self_share",
             "statemachine.observe.calls", "statemachine.observe.self_share",
             "packets.header.codec.calls"),
    **_moves("bench", (), "layers.share_sum", "trace.overhead_frac", "runtime.cpu_util"),
}


class Tracer:
    """One process's span stack and totals (see the module docstring)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.trace_dir: Optional[str] = None
        self.stack: List[List[Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every total (the open-span stack is kept)."""
        #: name -> [calls, inclusive ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        #: (name, parent name) -> [calls, inclusive ns]
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        #: name -> inclusive ns of every call (sampled spans only)
        self.samples: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}

    def after_fork(self) -> None:
        """A forked worker starts with an empty stack and no totals."""
        self.stack = []
        self.reset()

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0])

    def exit(self, sampled: bool = False) -> int:
        """Close the innermost span; returns its inclusive nanoseconds."""
        name, start, child = self.stack.pop()
        inclusive = self.clock() - start
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += inclusive - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += inclusive
            key = (name, parent[0])
        else:
            key = (name, "")
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0]
        edge[0] += 1
        edge[1] += inclusive
        if sampled:
            self.sample(name, inclusive)
        return inclusive

    def sample(self, name: str, nanoseconds: int) -> None:
        self.samples.setdefault(name, []).append(nanoseconds)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    def flush(self, run_id: str) -> None:
        """Append this process's totals as one record, then reset them."""
        if self.trace_dir is None:
            return
        record = {
            "run": run_id,
            "pid": os.getpid(),
            "spans": self.spans,
            "edges": [[name, parent, *value] for (name, parent), value in self.edges.items()],
            "samples": self.samples,
            "counters": self.counters,
        }
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.reset()


SpanName = Union[str, Callable[[Tuple[Any, ...]], str]]


def wrap(
    tracer: Tracer,
    fn: Callable[..., Any],
    name: SpanName,
    sampled: bool = False,
    when: Optional[Callable[[Tuple[Any, ...]], bool]] = None,
    before: Optional[Callable[[Tracer, Tuple[Any, ...]], None]] = None,
    after: Optional[Callable[[Tracer, Tuple[Any, ...], Any, int], None]] = None,
) -> Callable[..., Any]:
    """``fn`` inside a span.  ``name`` may be computed from the call's
    positional arguments; ``when`` skips the span for calls it rejects;
    ``before``/``after`` record counters around a successful call."""
    dynamic = callable(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled or (when is not None and not when(args)):
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        tracer.enter(name(args) if dynamic else name)  # type: ignore[operator]
        try:
            result = fn(*args, **kwargs)
        finally:
            inclusive = tracer.exit(sampled)
        if after is not None:
            after(tracer, args, result, inclusive)
        return result

    return wrapper


def _patch(tracer: Tracer, owner: Any, attr: str, name: SpanName, **options: Any) -> None:
    setattr(owner, attr, wrap(tracer, getattr(owner, attr), name, **options))


# ----------------------------------------------------------------------
# counters recorded around particular calls
# ----------------------------------------------------------------------
def _count_hit(counter: str) -> Callable[..., None]:
    def after(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
        if result is not None:
            tracer.count(counter)
    return after


def _count_empty(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
    if result is None:
        tracer.count("fabric.leases.claim.empty")


def _count_drop(tracer: Tracer, args: Tuple[Any, ...]) -> None:
    pipe = args[0]
    if len(pipe._queue) >= pipe.queue_packets:
        tracer.count("netsim.link.enqueue.drops")


def _count_events(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
    tracer.count("netsim.events", result)


def _count_journal_bytes(
    tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int
) -> None:
    tracer.count("core.checkpoint.bytes_written", os.path.getsize(args[0].path))


def _served(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
    if result is not None:
        tracer.count("snap.served")
        tracer.sample("snap.served_run", inclusive)


def _baseline_done(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
    _, runs = result
    for run in runs:
        if not run.cached:
            tracer.count("core.executor.baseline_runs")
            tracer.count("core.executor.logical_events", run.events_processed)


def _run_done(tracer: Tracer, args: Tuple[Any, ...], result: Any, inclusive: int) -> None:
    outcome, _delta = result
    tracer.count("core.executor.logical_events", getattr(outcome, "events_processed", 0))
    tracer.flush(outcome.run_id or "run")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function (once per process, before forking)."""
    from repro.core import (
        cache, checkpoint, controller, detector, executor, generation, parallel, supervisor,
    )
    from repro.dccpstack import endpoint as dccp_endpoint
    from repro.fabric import coordinator, leases, ledger, store, worker
    from repro.netsim import link, node, simulator
    from repro.packets import header
    from repro.snap import engine
    from repro.statemachine import tracker
    from repro.tcpstack import endpoint as tcp_endpoint

    patch = functools.partial(_patch, tracer)
    # controller, generation, cache, detector, journal (parent process)
    patch(controller.Controller, "run_baseline", "core.controller.baseline",
          sampled=True, after=_baseline_done)
    patch(controller.Controller, "_run_stage", lambda args: f"core.parallel.stage.{args[1]}")
    patch(generation.StrategyGenerator, "generate", "core.generation.generate", sampled=True)
    patch(controller, "dedupe_strategies", "core.generation.dedupe", sampled=True)
    for consumer in (controller, parallel, coordinator):
        patch(consumer, "run_fingerprint", "core.cache.fingerprint", sampled=True)
    patch(cache.RunCache, "get", "core.cache.get", sampled=True,
          after=_count_hit("core.cache.get.hits"))
    patch(cache.RunCache, "put", "core.cache.put", sampled=True)
    patch(detector.AttackDetector, "evaluate", "core.detector.evaluate", sampled=True)
    patch(checkpoint.CheckpointJournal, "record", "core.checkpoint.record",
          sampled=True, after=_count_journal_bytes)
    # executor and snapshot engine (the run-level span closes each record)
    for dispatcher in (parallel, supervisor):
        patch(dispatcher, "_execute_single", "core.executor.run", sampled=True, after=_run_done)
    patch(executor.Executor, "run", "core.executor.full_run", sampled=True)
    patch(executor.Executor, "build_world", "core.executor.build", sampled=True)
    patch(executor.Executor, "collect", "core.executor.collect", sampled=True)
    patch(engine, "execute_run", "snap.execute_run", sampled=True, after=_served)
    # the simulated run, per packet
    patch(simulator.Simulator, "run", "netsim.run", after=_count_events)
    patch(link.Pipe, "enqueue", "netsim.link.enqueue", before=_count_drop)
    patch(link.Pipe, "transmit", "proxy.intercept", when=lambda args: args[0].tap is not None)
    patch(node.Host, "receive", "netsim.node.receive")
    patch(tracker.StateTracker, "observe", "statemachine.observe")
    patch(tcp_endpoint.TcpEndpoint, "on_packet", "tcpstack.on_packet")
    patch(dccp_endpoint.DccpEndpoint, "on_packet", "dccpstack.on_packet")
    patch(header.Header, "pack", "packets.header.codec")
    parse = header.Header.__dict__["parse"].__func__
    header.Header.parse = classmethod(wrap(tracer, parse, "packets.header.codec"))
    # fabric: store, leases, ledger, worker, coordinator
    patch(store.LocalDirStore, "get", "fabric.store.get", sampled=True)
    for op in ("put", "put_if_absent", "update", "delete"):
        patch(store.LocalDirStore, op, "fabric.store.write", sampled=True)
    patch(store.LocalDirStore, "keys", "fabric.store.keys")
    patch(leases.LeaseQueue, "claim", "fabric.leases.claim", after=_count_empty)
    patch(ledger.ResultLedger, "fetch", "fabric.ledger.fetch",
          after=_count_hit("fabric.ledger.fetch.hits"))
    patch(ledger.ResultLedger, "commit", "fabric.ledger.commit")
    patch(worker.FabricWorker, "run_one", "fabric.worker.run_one")
    patch(coordinator._FabricStageRunner, "__call__", "fabric.coordinator.stage")
    os.register_at_fork(after_in_child=tracer.after_fork)


# ----------------------------------------------------------------------
# merging and the per-layer metrics
# ----------------------------------------------------------------------
class Totals:
    """Every record of a trace directory folded together."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[int]] = {}
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        self.samples: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        #: inclusive ns of run-level spans executed outside the parent
        self.worker_run_ns = 0
        self.records = 0

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9

    def mean_s(self, name: str) -> float:
        calls = self.calls(name)
        return self.inclusive_s(name) / calls if calls else 0.0

    def p50_s(self, name: str) -> float:
        return percentile(self.samples.get(name, ()), 50) / 1e9

    def edge_s(self, name: str, parent: str) -> float:
        return self.edges.get((name, parent), (0, 0))[1] / 1e9


def merge(trace_dir: str, parent_pid: int) -> Totals:
    """Fold every ``spans-*.jsonl`` record under ``trace_dir``."""
    totals = Totals()
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            totals.records += 1
            for name, (calls, inclusive, own) in record["spans"].items():
                entry = totals.spans.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
            for name, parent, calls, inclusive in record["edges"]:
                edge = totals.edges.setdefault((name, parent), [0, 0])
                edge[0] += calls
                edge[1] += inclusive
            for name, values in record["samples"].items():
                totals.samples.setdefault(name, []).extend(values)
            for name, value in record["counters"].items():
                totals.counters[name] = totals.counters.get(name, 0) + value
            if record["pid"] != parent_pid:
                totals.worker_run_ns += record["spans"].get("core.executor.run", (0, 0, 0))[1]
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Totals, wall_s: float, workers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced sample.

    ``wall_s`` is the traced sample's timed wall time (the ``*_share``
    denominators); the simulator shares divide by ``Simulator.run``'s
    inclusive time.  ``trace.overhead_frac`` and ``runtime.cpu_util`` need
    the untraced samples and are added by the caller.
    """
    t = totals
    sim_s = t.inclusive_s("netsim.run")
    counters = t.counters
    runs = t.calls("core.executor.run") + counters.get("core.executor.baseline_runs", 0)
    run_span_s = t.inclusive_s("core.executor.run") + t.edge_s(
        "core.executor.full_run", "core.controller.baseline"
    )
    stage_s = t.inclusive_s("core.parallel.stage.sweep") + t.inclusive_s(
        "core.parallel.stage.confirm"
    )
    events = counters.get("netsim.events", 0)
    logical = counters.get("core.executor.logical_events", 0)
    full_run_p50 = t.p50_s("core.executor.full_run")
    metrics = {
        "core.controller.baseline_s": t.mean_s("core.controller.baseline"),
        "core.generation.generate_ms": t.mean_s("core.generation.generate") * 1e3,
        "core.generation.dedupe_ms": t.mean_s("core.generation.dedupe") * 1e3,
        "core.cache.fingerprint_us.p50": t.p50_s("core.cache.fingerprint") * 1e6,
        "core.cache.fingerprint.calls": t.calls("core.cache.fingerprint"),
        "core.cache.get_us.p50": t.p50_s("core.cache.get") * 1e6,
        "core.cache.get.calls": t.calls("core.cache.get"),
        "core.cache.hit_frac": _ratio(counters.get("core.cache.get.hits", 0),
                                      t.calls("core.cache.get")),
        "core.detector.evaluate_us.p50": t.p50_s("core.detector.evaluate") * 1e6,
        "core.detector.evaluate.calls": t.calls("core.detector.evaluate"),
        "core.cache.put.calls": t.calls("core.cache.put"),
        "core.cache.put_share": _ratio(t.inclusive_s("core.cache.put"), wall_s),
        "core.checkpoint.record.calls": t.calls("core.checkpoint.record"),
        "core.checkpoint.record_share": _ratio(t.inclusive_s("core.checkpoint.record"), wall_s),
        "core.checkpoint.bytes_written": counters.get("core.checkpoint.bytes_written", 0),
        "core.parallel.sweep_share": _ratio(t.inclusive_s("core.parallel.stage.sweep"), wall_s),
        "core.parallel.confirm_share": _ratio(
            t.inclusive_s("core.parallel.stage.confirm"), wall_s
        ),
        "core.parallel.worker_busy_frac": _ratio(t.worker_run_ns / 1e9, workers * stage_s),
        "core.executor.runs": runs,
        "core.executor.runs_per_core_s": _ratio(runs, run_span_s),
        "core.executor.build_share": _ratio(t.inclusive_s("core.executor.build"), run_span_s),
        "core.executor.collect_share": _ratio(
            t.inclusive_s("core.executor.collect"), run_span_s
        ),
        "snap.execute_run.calls": t.calls("snap.execute_run"),
        "snap.served_frac": _ratio(counters.get("snap.served", 0), t.calls("snap.execute_run")),
        "snap.served_cost_ratio": _ratio(t.p50_s("snap.served_run"), full_run_p50),
        "snap.self_share": _ratio(t.self_s("snap.execute_run"), run_span_s),
        "snap.events_skipped_frac": 1.0 - events / logical if logical else 0.0,
        "netsim.events": events,
        "netsim.events_per_s": _ratio(events, sim_s),
        "netsim.self_share": _ratio(t.self_s("netsim.run"), sim_s),
        "netsim.link.enqueue.calls": t.calls("netsim.link.enqueue"),
        "netsim.link.enqueue.drops": counters.get("netsim.link.enqueue.drops", 0),
        "netsim.link.enqueue.self_share": _ratio(t.self_s("netsim.link.enqueue"), sim_s),
        "netsim.node.receive.calls": t.calls("netsim.node.receive"),
        "netsim.node.receive.self_share": _ratio(t.self_s("netsim.node.receive"), sim_s),
        "proxy.intercept.calls": t.calls("proxy.intercept"),
        "proxy.intercept.self_share": _ratio(t.self_s("proxy.intercept"), sim_s),
        "statemachine.observe.calls": t.calls("statemachine.observe"),
        "statemachine.observe.self_share": _ratio(t.self_s("statemachine.observe"), sim_s),
        "tcpstack.on_packet.calls": t.calls("tcpstack.on_packet"),
        "tcpstack.on_packet.self_share": _ratio(t.self_s("tcpstack.on_packet"), sim_s),
        "dccpstack.on_packet.calls": t.calls("dccpstack.on_packet"),
        "dccpstack.on_packet.self_share": _ratio(t.self_s("dccpstack.on_packet"), sim_s),
        "packets.header.codec.calls": t.calls("packets.header.codec"),
        "fabric.store.get_us.p50": t.p50_s("fabric.store.get") * 1e6,
        "fabric.store.get.calls": t.calls("fabric.store.get"),
        "fabric.store.write.calls": t.calls("fabric.store.write"),
        "fabric.store.write_share": _ratio(t.inclusive_s("fabric.store.write"), wall_s),
        "fabric.store.keys.calls": t.calls("fabric.store.keys"),
        "fabric.leases.claim.calls": t.calls("fabric.leases.claim"),
        "fabric.leases.claim_empty_frac": _ratio(counters.get("fabric.leases.claim.empty", 0),
                                                 t.calls("fabric.leases.claim")),
        "fabric.ledger.fetch.calls": t.calls("fabric.ledger.fetch"),
        "fabric.ledger.fetch_hit_frac": _ratio(counters.get("fabric.ledger.fetch.hits", 0),
                                               t.calls("fabric.ledger.fetch")),
        "fabric.ledger.commit.calls": t.calls("fabric.ledger.commit"),
        "fabric.worker.run_one.calls": t.calls("fabric.worker.run_one"),
        "fabric.worker.run_one_share": _ratio(t.inclusive_s("fabric.worker.run_one"), wall_s),
        "fabric.coordinator.idle_share": _ratio(
            t.inclusive_s("fabric.coordinator.stage") - t.inclusive_s("fabric.worker.run_one"),
            wall_s,
        ),
        "layers.share_sum": _ratio(sum(t.self_s(name) for name in LAYER_SPANS), sim_s),
    }
    return {name: float(value) for name, value in metrics.items()}
