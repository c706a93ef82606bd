"""Compare campaign-benchmark results of a parent commit and a change.

    python3 benchmarks/campaign/compare.py PARENT_DIR CHANGE_DIR

Both directories hold the per-(workload, repeat) JSON files that
``run.py --repeats N --out DIR`` writes, measured with identical benchmark
code and settings; runs pair up by repeat index.  For every (end-to-end
metric, workload) one row reports each side's median and quartiles, the
pairs the change won, and a verdict, using the bounds in BENCHMARK.json:

* ``improved``   -- at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither), and the medians differ by more than the
  parent's interquartile distance;
* ``unresolved`` -- either side's spread (interquartile distance over
  median) is wider than the bound, unless every change run reads better
  than every parent run;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``  -- otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchstats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent.parent

#: pairs below which no gain may be claimed
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one metric on one workload."""
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = p_median - c_median if lower else c_median - p_median
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    every_run_better = all(beats(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(p_median):
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def load(directory: Path) -> Dict[str, Dict[int, Dict[str, float]]]:
    """workload -> repeat -> metric values, from untraced runs only."""
    runs: Dict[str, Dict[int, Dict[str, float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") or not record.get("result"):
            continue
        values = {name: metric["value"] for name, metric in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["repeat"]] = values
    return runs


def compare(parent_dir: Path, change_dir: Path,
            benchmark: Optional[dict] = None) -> List[Dict[str, object]]:
    """One row per (end-to-end metric, workload) present on both sides."""
    if benchmark is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(parent_dir), load(change_dir)
    rows: List[Dict[str, object]] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        repeats = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not repeats:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][r][name] for r in repeats]
            c = [change[workload][r][name] for r in repeats]
            label, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "wins": wins, "pairs": pairs, "verdict": label})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result directory of the parent commit")
    parser.add_argument("change", type=Path, help="result directory of the change")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    if not rows:
        print("error: no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = row[side]  # type: ignore[misc]
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}")
        print(f"{row['workload']:<14} {row['metric']:<22} {cells[0]:>32} {cells[1]:>32} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    if any(int(row["pairs"]) < MIN_PAIRS for row in rows):  # type: ignore[call-overload]
        print(f"# fewer than {MIN_PAIRS} pairs: no row can read 'improved'")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
