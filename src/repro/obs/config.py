"""The observability switch: picklable config + process-local activation.

:class:`ObsConfig` crosses process boundaries inside the parallel runner's
work items, so forked *and* spawned workers can configure their own bus and
registry before executing a run.  :func:`configure_observability` is
idempotent per config value — workers call it on every work item and pay a
dataclass equality check after the first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from repro.obs.bus import BUS, JsonlTraceSink
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.obs")


@dataclass(frozen=True)
class ObsConfig:
    """What to collect during a campaign (everything off by default)."""

    #: directory receiving per-process ``events-<host>-<pid>.jsonl`` traces
    trace_dir: Optional[str] = None
    #: accumulate the metrics registry (merged across workers)
    metrics: bool = False
    #: directory receiving per-run cProfile ``.pstats`` dumps
    profile_dir: Optional[str] = None
    #: after the campaign, keep profiles only for the N slowest runs
    profile_keep: int = 5

    @property
    def active(self) -> bool:
        return bool(self.trace_dir or self.metrics or self.profile_dir)


#: the config currently applied to this process (None = never configured)
_APPLIED: Optional[ObsConfig] = None


def configure_observability(config: Optional[ObsConfig]) -> None:
    """Point the process-local bus/registry at what ``config`` asks for.

    Safe to call repeatedly with the same config (no-op), from the
    controller process and from pool workers alike.  ``None`` (or an
    all-off config) disables everything.
    """
    global _APPLIED
    if config is not None and config == _APPLIED:
        return
    _APPLIED = config
    if config is None or not config.active:
        BUS.configure(None)
        METRICS.enabled = False
        return
    BUS.configure(JsonlTraceSink(config.trace_dir) if config.trace_dir else None)
    METRICS.enabled = config.metrics
    log.info(
        "observability on: trace_dir=%s metrics=%s profile_dir=%s",
        config.trace_dir, config.metrics, config.profile_dir,
    )
