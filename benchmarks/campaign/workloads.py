"""The four campaign workloads and the work one benchmark sample does.

Every workload goes through the public ``repro.api.run_campaign`` entry
point with two workers (the machine's core count) and one campaign in
flight at a time (closed loop, no client threads).  ``--seed`` becomes the
testbed seed: the strategy list is fixed by the protocol's fixed baseline
seeds, so every seed runs the same strategies at the same cost while the
sweep's random draws, and with them the verdicts, change.

A *sample* runs in a fresh process (see ``run.py``): it sets up, runs its
timed part, checks its verdicts and reports one JSON object.  Cold
workloads time one campaign; ``warm-resubmit`` fills its cache in set-up
and times only resubmits.

Sizes give 16 strategies: two full dispatch batches of 8 (one per
worker) for TCP, four lease units of 4 for the DCCP fabric.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: both cores of the measurement machine; workers == nproc
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    variant: str
    sample_every: int
    snapshots: bool = False
    fabric: bool = False
    #: set-up fills the run cache; the timed part only resubmits
    warm: bool = False

    @property
    def has_reference(self) -> bool:
        """Whether the plain path is a different code path to check against
        (forked == full for snapshots, fabric == plain for the fabric)."""
        return self.snapshots or self.fabric


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's main path: simulator, TCP stack, proxy and state
        # tracker do nearly all the work; cache and journal only write
        Workload("tcp-sweep", "tcp", "linux-3.13", sample_every=360),
        # the only workload where scout, deepcopy and fork run
        Workload("tcp-snap", "tcp", "linux-3.13", sample_every=360, snapshots=True),
        # leases, ledger and store writes run while tcpstack idles
        Workload("dccp-fabric", "dccp", "linux-3.13-dccp", sample_every=320, fabric=True),
        # no simulation: generation, fingerprinting and store reads are the
        # whole cost, and no simulator change may move it
        Workload("warm-resubmit", "tcp", "linux-3.13", sample_every=360, warm=True),
    )
}


def build_spec(
    workload: Workload,
    seed: int,
    workdir: str,
    sample_every: Optional[int] = None,
    plain: bool = False,
) -> Any:
    """The workload's campaign spec in a fresh ``workdir``.

    ``plain`` drops snapshots and the fabric: the reference the
    determinism contracts compare against.
    """
    from repro.api import CampaignSpec
    from repro.core import TestbedConfig
    from repro.fabric.config import FabricConfig
    from repro.snap.config import SnapshotConfig

    os.makedirs(workdir, exist_ok=True)
    spec = CampaignSpec(
        testbed=TestbedConfig(protocol=workload.protocol, variant=workload.variant, seed=seed),
        workers=WORKERS,
        sample_every=sample_every or workload.sample_every,
        cache_dir=os.path.join(workdir, "cache"),
        checkpoint=None if workload.warm else os.path.join(workdir, "journal.jsonl"),
    )
    if plain:
        return spec
    if workload.snapshots:
        spec = spec.with_overrides(snapshots=SnapshotConfig(enabled=True))
    if workload.fabric:
        # the fabric keeps its run cache at the store root
        spec = spec.with_overrides(
            cache_dir=None,
            fabric=FabricConfig(store="dir://" + os.path.join(workdir, "store")),
        )
    return spec


# ----------------------------------------------------------------------
# verdict digests
# ----------------------------------------------------------------------
def _strategy_hash(strategy: Any) -> str:
    from repro.core.cache import canonical_json

    return hashlib.blake2b(
        canonical_json(strategy.canonical_form()).encode(), digest_size=8
    ).hexdigest()


def digest(result: Any) -> Dict[str, Any]:
    """What a campaign found, independent of how it ran."""
    return {
        "table1_row": result.table1_row(),
        "attacks": sorted(result.unique_attacks),
        "flagged": sorted(_strategy_hash(s) for s, _ in result.flagged),
        "flaky": sorted(_strategy_hash(s) for s, _ in result.flaky),
        "runs_executed": result.runs_executed,
    }


def mismatches(expected: Dict[str, Any], actual: Dict[str, Any], runs: bool = True) -> int:
    """How many digest entries differ (``runs=False`` ignores runs_executed)."""
    count = 0
    for column in set(expected["table1_row"]) | set(actual["table1_row"]):
        count += expected["table1_row"].get(column) != actual["table1_row"].get(column)
    count += expected["attacks"] != actual["attacks"]
    for key in ("flagged", "flaky"):
        count += len(set(expected[key]) ^ set(actual[key]))
    if runs:
        count += expected["runs_executed"] != actual["runs_executed"]
    return count


# ----------------------------------------------------------------------
# one sample (runs in its own process)
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _timed(spec: Any) -> Tuple[Any, float]:
    from repro.api import run_campaign

    started = time.perf_counter()
    result = run_campaign(spec)
    return result, time.perf_counter() - started


def run_reference(workload: Workload, seed: int, workdir: str,
                  sample_every: Optional[int]) -> Dict[str, Any]:
    """Digest of ``workload``'s spec without snapshots or fabric."""
    result, _ = _timed(build_spec(workload, seed, workdir, sample_every, plain=True))
    return {"digest": digest(result), "errors": len(result.errors)}


def run_sample(
    workload: Workload,
    seed: int,
    workdir: str,
    spawned_at: float,
    slice_s: float,
    sample_every: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, run the timed part, and check it; returns the sample report.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process, so ``setup_s`` covers interpreter start, imports,
    spec construction and, for ``warm-resubmit``, the cold fill plus one
    untimed resubmit.  The timed part is one campaign, or for
    ``warm-resubmit`` back-to-back resubmits for ``slice_s`` seconds
    (``submission_s`` holds every timed submission's wall seconds).
    With ``trace_dir`` the timed part runs under the tracer.
    """
    spec = build_spec(workload, seed, workdir, sample_every)
    report: Dict[str, Any] = {"workers": WORKERS, "errors": 0, "failed": 0,
                              "verdict_mismatches": 0}
    submission_s: List[float] = []

    def submit() -> Any:
        result, elapsed = _timed(spec)
        submission_s.append(elapsed)
        report["errors"] += len(result.errors)
        report["failed"] += bool(result.errors)
        report["strategies_tried"] = result.strategies_tried
        return result

    if workload.warm:
        fill, _ = _timed(spec)
        report["digest"] = digest(fill)
        report["errors"] += len(fill.errors)
        _timed(spec)
    report["setup_s"] = time.monotonic() - spawned_at

    tracer = None
    if trace_dir is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        tracer.trace_dir = trace_dir
        install(tracer)
        tracer.enabled = True

    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    if workload.warm:
        deadline = started + slice_s
        while not submission_s or time.perf_counter() < deadline:
            result = submit()
            # cached == fresh: a resubmit finds the same verdicts, executing nothing
            wrong = mismatches(report["digest"], digest(result), runs=False)
            wrong += result.runs_executed != 0
            report["verdict_mismatches"] += wrong
            report["failed"] += bool(wrong) and not result.errors
    else:
        report["digest"] = digest(submit())
    wall_s = time.perf_counter() - started
    report["cpu_util"] = (_cpu_seconds() - cpu_before) / (WORKERS * wall_s)
    if tracer is not None:
        from tracer import layer_metrics, merge

        tracer.enabled = False
        tracer.flush("parent")
        report["layers"] = layer_metrics(
            merge(trace_dir, os.getpid()), sum(submission_s), WORKERS
        )
    report["submission_s"] = submission_s
    report["runs_executed"] = report["digest"]["runs_executed"]
    report["rss_mb"] = _peak_rss_mb()
    return report
