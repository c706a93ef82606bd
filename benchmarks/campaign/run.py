"""Campaign benchmark: end-to-end campaign metrics and a per-layer ledger.

One workload, one seed (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/campaign/run.py --workload tcp-sweep --seed 7 --seconds 15 --trace 0

prints every end-to-end metric with its unit (``--trace 1``: every
per-layer metric) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when any verdict
differs from its golden digest, its plain-path reference or another
sample of the same run.

All four workloads, repeats interleaved round-robin, each (workload,
repeat) in a fresh process::

    python3 benchmarks/campaign/run.py --repeats 3 [--seed 7] [--trace] [--out DIR]
    python3 benchmarks/campaign/run.py --smoke          # tiny sizes, traced
    python3 benchmarks/campaign/run.py --regen-golden   # rewrite golden/

Inside one run every sample is a fresh process too (``--child``, internal).
See README.md for the workloads, metrics and noise protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
WORK_ROOT = HERE / ".work"
GOLDEN_SEEDS = (7, 1007)

#: samples per run (a median needs three); cold samples continue until
#: ``--seconds`` of timed campaigns, warm samples split ``--seconds`` evenly
MIN_SAMPLES = 3
#: no new sample starts after this many seconds of a run
START_CUTOFF_S = 100.0
#: a run's samples are killed (and the run fails) after this many seconds,
#: so one workload at one seed always ends within three minutes
RUN_DEADLINE_S = 170.0
#: traced cold samples must attribute Simulator.run's time to its layers
SHARE_SUM_TOLERANCE = 0.05

sys.path.insert(0, str(SRC))


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def spawn(args: List[str], timeout: float = RUN_DEADLINE_S) -> Dict[str, Any]:
    """Run ``run.py --child ARGS`` in a fresh process; return its report."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", *args,
               "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"sample timed out after {timeout:.0f}s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"sample exited {proc.returncode}: {' '.join(args)}")
    return json.loads(out.decode().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, run_reference, run_sample

    workload = WORKLOADS[args.workload]
    if args.reference:
        report = run_reference(workload, args.seed, args.workdir, args.sample_every)
    else:
        report = run_sample(workload, args.seed, args.workdir, args.spawned_at,
                            args.slice, args.sample_every, args.trace_dir)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# one workload, one seed
# ----------------------------------------------------------------------
def golden_digest(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    path = GOLDEN / f"{workload}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["digest"]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sample_every: Optional[int] = None,
    min_samples: int = MIN_SAMPLES,
) -> Dict[str, Any]:
    """Run one workload at one seed; returns metrics, counts and checks."""
    from benchstats import percentile, tail_percentile
    from workloads import WORKERS, WORKLOADS, mismatches

    workload = WORKLOADS[name]
    started = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    problems: List[str] = []
    common = ["--workload", name, "--seed", str(seed)]
    if sample_every is not None:
        common += ["--sample-every", str(sample_every)]

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - (time.monotonic() - started))

    def sample(index: int, trace_dir: Optional[str] = None) -> Dict[str, Any]:
        args = [*common, "--workdir", os.path.join(workdir, f"s{index}"),
                "--slice", repr(seconds / min_samples)]
        if trace_dir is not None:
            os.makedirs(trace_dir)
            args += ["--trace-dir", trace_dir]
        return spawn(args, remaining())

    try:
        expected = golden_digest(name, seed) if sample_every is None else None
        reference = None
        if workload.has_reference:
            reference = spawn([*common, "--reference", "--workdir",
                               os.path.join(workdir, "reference")], remaining())
            if reference["errors"]:
                problems.append(f"reference campaign had {reference['errors']} run error(s)")
        samples: List[Dict[str, Any]] = []
        measured = 0.0
        while len(samples) < min_samples or (not workload.warm and measured < seconds):
            if samples and time.monotonic() - started > START_CUTOFF_S:
                break
            samples.append(sample(len(samples)))
            measured += sum(samples[-1]["submission_s"])
        traced = sample(len(samples), os.path.join(workdir, "trace")) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # -------------------------------------------------------- verdicts
    verdict_mismatches = sum(s["verdict_mismatches"] for s in samples)
    failed = 0
    baselines = [("another sample", samples[0]["digest"])]
    if reference is not None:
        baselines.append(("the plain-path reference", reference["digest"]))
    if expected is not None:
        baselines.append((f"golden/{name}-seed{seed}.json", expected))
    for index, report in enumerate(samples + ([traced] if traced else [])):
        wrong_any = False
        for label, digest in baselines:
            wrong = mismatches(digest, report["digest"])
            if wrong:
                problems.append(f"sample {index}: {wrong} verdict mismatch(es) against {label}")
                verdict_mismatches += wrong
                wrong_any = True
        if index < len(samples):
            # a wrong digest makes every submission of the sample wrong
            failed += len(report["submission_s"]) if wrong_any else report["failed"]
    errors = sum(s["errors"] for s in samples)
    if errors or (traced and traced["errors"]):
        problems.append(f"{errors + (traced['errors'] if traced else 0)} run error(s)")

    # --------------------------------------------------------- metrics
    submissions = [t for s in samples for t in s["submission_s"]]
    campaign_s = statistics.median(submissions)
    strategies = samples[0]["strategies_tried"]
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "campaign_s": campaign_s,
        "strategies_per_core_s": strategies / (WORKERS * campaign_s),
        "rss_peak_mb": statistics.median(s["rss_mb"] for s in samples),
    }
    tail = tail_percentile(len(submissions))
    latency = {"n": len(submissions), "p50_ms": percentile(submissions, 50) * 1e3,
               "tail": None if tail is None else f"p{tail:g}",
               "tail_ms": None if tail is None else percentile(submissions, tail) * 1e3}
    per_layer: Optional[Dict[str, float]] = None
    if traced is not None:
        per_layer = dict(traced["layers"])
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced["submission_s"]) / campaign_s - 1.0
        )
        per_layer["runtime.cpu_util"] = statistics.median(s["cpu_util"] for s in samples)
        if workload.warm:
            if per_layer["netsim.events"] != 0:
                problems.append("warm-resubmit traced sample simulated events")
        else:
            if abs(per_layer["layers.share_sum"] - 1.0) > SHARE_SUM_TOLERANCE:
                problems.append(f"layers.share_sum {per_layer['layers.share_sum']:.3f} "
                                f"is not within 1 +- {SHARE_SUM_TOLERANCE}")
            if per_layer["core.executor.runs"] != traced["runs_executed"]:
                problems.append(f"core.executor.runs {per_layer['core.executor.runs']:.0f} != "
                                f"runs_executed {traced['runs_executed']}")
    return {
        "workload": name,
        "seed": seed,
        "samples": len(samples),
        "attempted": len(submissions),
        "failed": failed,
        "run_error_frac": errors / (len(submissions) * strategies),
        "verdict_mismatches": verdict_mismatches,
        "latency": latency,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": problems,
        "correct": not problems,
    }


def emit(outcome: Dict[str, Any], trace: bool) -> None:
    """Print the metric table and the final one-line JSON result."""
    benchmark = load_benchmark()
    section = "per_layer" if trace else "end_to_end"
    values = outcome[section]
    declared = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    if set(declared) != set(values):
        raise BenchError(f"computed {section} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(values))}")
    latency = outcome["latency"]
    tail = "no tail percentile has ten samples beyond it" if latency["tail"] is None else (
        f"{latency['tail']} {latency['tail_ms']:.4g} ms")
    print(f"# {outcome['workload']} seed {outcome['seed']}: {outcome['samples']} sample(s), "
          f"{latency['n']} timed submission(s): p50 {latency['p50_ms']:.4g} ms, {tail}")
    for name, unit in declared.items():
        print(f"{name:<34} {values[name]:>16.6g} {unit}")
    print(f"{'run_error_frac':<34} {outcome['run_error_frac']:>16.6g} ratio")
    print(f"{'verdict_mismatches':<34} {outcome['verdict_mismatches']:>16d} count")
    for problem in outcome["problems"]:
        print(f"# FAIL: {problem}")
    print("details: " + json.dumps({k: v for k, v in outcome.items() if k != section}))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))


# ----------------------------------------------------------------------
# all workloads: repeats, smoke, golden
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    revision = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        revision = probe.stdout.strip() or revision
    return {"git_revision": revision, "python": platform.python_version(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def run_workload_process(name: str, seed: int, seconds: float, trace: bool,
                         extra: List[str]) -> Dict[str, Any]:
    """One (workload, repeat) in a fresh process, as the one-workload form."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
               *extra]
    load_before = os.getloadavg()
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    details = next((json.loads(line[len("details: "):]) for line in lines
                    if line.startswith("details: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr[-4000:])
    return {"workload": name, "seed": seed, "trace": trace, "exit_code": proc.returncode,
            "result": result, "details": details,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg()}


def suite(args: argparse.Namespace) -> int:
    from benchstats import quartiles, spread
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    repeats, trace_repeat, extra = args.repeats, bool(args.trace), []
    if args.smoke:
        extra = ["--sample-every", "1024", "--min-samples", "1"]
        seconds, repeats, trace_repeat = 1.0, 0, True
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    env = environment()
    records: List[Dict[str, Any]] = []
    plan = [(repeat, names[repeat % len(names):] + names[:repeat % len(names)], False)
            for repeat in range(repeats)]
    if trace_repeat:
        plan.append((repeats, names, True))
    for repeat, order, traced in plan:
        for name in order:
            record = run_workload_process(name, args.seed, seconds, traced, extra)
            record.update(repeat=repeat, order=len(records), env=env)
            records.append(record)
            if out is not None:
                suffix = "trace" if traced else f"r{repeat}"
                (out / f"{name}-{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("\n# summary: median [q1, q3] over repeats, spread = (q3 - q1) / median")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name in names:
        for traced in (False, True):
            runs = [r for r in records if r["workload"] == name and r["trace"] == traced
                    and r["result"] is not None]
            if not runs:
                continue
            print(f"{name} ({'traced' if traced else f'{len(runs)} repeat(s)'})")
            for metric in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][metric]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                print(f"  {metric:<34} {median:>12.6g} [{q1:.6g}, {q3:.6g}] "
                      f"{units[metric]}  spread {spread(values):.3f}")
    bad = [r for r in records if r["exit_code"] != 0 or not (r["result"] or {}).get("correct")]
    for record in bad:
        print(f"# FAIL: {record['workload']} repeat {record['repeat']} "
              f"exit {record['exit_code']}")
    return 1 if bad else 0


def regen_golden() -> int:
    """Rewrite golden/ after checking forked == full and fabric == plain."""
    from workloads import WORKLOADS, mismatches

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK_ROOT)
    digests: Dict[Any, Dict[str, Any]] = {}
    failures: List[str] = []
    try:
        for seed in GOLDEN_SEEDS:
            for name, workload in WORKLOADS.items():
                base = ["--workload", name, "--seed", str(seed)]
                report = spawn([*base, "--workdir", os.path.join(workdir, f"{name}-{seed}")])
                digests[name, seed] = report["digest"]
                if report["errors"] or report["verdict_mismatches"]:
                    failures.append(f"{name} seed {seed}: run errors or resubmit mismatches")
                if workload.has_reference:
                    plain = spawn([*base, "--reference", "--workdir",
                                   os.path.join(workdir, f"{name}-{seed}-plain")])
                    if mismatches(plain["digest"], report["digest"]):
                        failures.append(f"{name} seed {seed} differs from its plain-path run")
            if mismatches(digests["tcp-sweep", seed], digests["tcp-snap", seed]):
                failures.append(f"tcp-snap differs from tcp-sweep at seed {seed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"# FAIL: {failure}")
        print("golden digests not written")
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for (name, seed), digest in sorted(digests.items()):
        payload = {"workload": name, "seed": seed,
                   "sample_every": WORKLOADS[name].sample_every, "digest": digest}
        (GOLDEN / f"{name}-seed{seed}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote golden/{name}-seed{seed}.json")
    return 0


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, --repeats times)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="report per-layer metrics from one extra traced sample")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per workload when running all (default 3)")
    parser.add_argument("--out", help="directory for one result JSON per (workload, repeat)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads once at sample_every=1024, traced")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/ for seeds 7 and 1007")
    parser.add_argument("--sample-every", type=int,
                        help="override the workload's size (skips the golden check)")
    parser.add_argument("--min-samples", type=int, default=MIN_SAMPLES, help=argparse.SUPPRESS)
    # internal: one sample in a fresh process
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--slice", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--trace-dir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: the repro sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.regen_golden:
        return regen_golden()
    if args.workload is None:
        return suite(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    try:
        outcome = measure(args.workload, args.seed, seconds, bool(args.trace),
                          args.sample_every, args.min_samples)
        emit(outcome, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
