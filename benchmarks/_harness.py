"""Helpers the ``benchmarks/bench_*.py`` scripts share.

The scripts run from the repository root (``PYTHONPATH=src python
benchmarks/bench_sweep.py``), so Python puts ``benchmarks/`` on the
import path and they import this module by name.
"""

from __future__ import annotations

import statistics

from repro.obs import METRICS, configure_observability


def spread(values: list) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def reset_obs() -> None:
    """Observability off and an empty metrics registry in this process."""
    configure_observability(None)
    METRICS.reset()
