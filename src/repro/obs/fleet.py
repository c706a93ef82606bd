"""The fleet telemetry plane: store-backed worker health and live metrics.

PR 6 made campaigns distributed, but observability stayed single-host:
traces land in per-pid files and metrics merge only inside one fork pool.
This module closes the gap using the same shared
:class:`~repro.fabric.store.ArtifactStore` the fabric already trusts for
leases and results:

* :class:`FleetPublisher` — every participant (each ``repro worker`` and
  the coordinator itself) periodically ``put``s one compact *status
  record* into the ``telemetry`` namespace: host, pid, in-flight unit,
  units/commits done, recent simulator events/sec, and a full
  metrics-registry snapshot.  ``put`` is atomic on both store backends, so
  readers always see a whole record.
* :class:`FleetAggregator` — merges those records into fleet-wide
  metrics, and flags *stragglers*: a participant whose heartbeat stopped
  (SIGKILL, partition) or that keeps heartbeating without making unit
  progress inside a configurable stall window.  Each new straggler emits
  a ``fleet.straggler`` trace event and bumps the ``fleet.stragglers``
  counter.
* :func:`fleet_overview` — the one-shot snapshot behind ``repro top`` and
  ``repro report --store``: workers with heartbeat ages, lease-state
  counts, per-stage completion, fleet events/sec, and an ETA.
* :func:`prometheus_text` — renders any metrics snapshot (including the
  merged cross-host one) in the Prometheus text exposition format for
  ``repro report --export-prom``.

Status record schema (one JSON document per participant, last write
wins)::

    {"worker_id": "hostA-4242-c0ffee", "host": "hostA", "pid": 4242,
     "role": "worker",            # or "coordinator"
     "spec_fingerprint": "...",   # campaign the record belongs to
     "started_at": 1722890000.0, "updated_at": 1722890012.5,
     "interval": 1.0,             # publisher cadence (for staleness math)
     "phase": "executing",        # idle | executing | coordinating | exited
     "unit": "ab12..",            # in-flight unit id (None when idle)
     "stage": "sweep", "leases_held": 1,
     "units_done": 3, "runs_done": 12, "commits": 12, "duplicates": 0,
     "sim_events": 950123, "events_per_sec": 118000.0,
     "metrics": {...}}            # cumulative MetricsRegistry snapshot

Records are *cumulative*, so the aggregator folds at most one snapshot
per participant and counters never double-count.  Everything here is
read/write through the store interface only — no shared filesystem or
trace directory is required between hosts.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.fabric.leases import (
    NS_UNITS,
    STATE_DONE,
    STATE_LEASED,
    STATE_PENDING,
    LeaseQueue,
)
from repro.fabric.store import ArtifactStore, load_statuses, publish_status
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS, merge_snapshots

#: status-record phases
PHASE_IDLE = "idle"
PHASE_EXECUTING = "executing"
PHASE_COORDINATING = "coordinating"
PHASE_EXITED = "exited"

#: participant roles
ROLE_WORKER = "worker"
ROLE_COORDINATOR = "coordinator"

#: default publisher cadence (seconds) and straggler stall window
DEFAULT_TELEMETRY_INTERVAL = 1.0
DEFAULT_STALL_WINDOW = 15.0


class FleetPublisher:
    """Publishes one participant's status record into the shared store.

    ``publish`` is rate-limited to ``interval`` seconds (``force=True``
    bypasses the limit for state transitions: unit claimed, unit done,
    clean exit) and never raises — a telemetry hiccup must not take down
    the worker it describes.
    """

    def __init__(
        self,
        store: ArtifactStore,
        worker_id: str,
        role: str = ROLE_WORKER,
        interval: float = DEFAULT_TELEMETRY_INTERVAL,
        spec_fingerprint: Optional[str] = None,
    ):
        self.store = store
        self.worker_id = worker_id
        self.role = role
        self.interval = max(interval, 0.05)
        self.spec_fingerprint = spec_fingerprint
        self.host = socket.gethostname()
        self.started_at = time.time()
        self.published = 0
        #: publishes swallowed because the store (or a torn snapshot)
        #: misbehaved — telemetry degrades, the worker keeps running
        self.dropped = 0
        self._lock = threading.Lock()
        self._last_publish = 0.0
        #: (timestamp, cumulative sim events) of the previous publish, for
        #: the recent events/sec estimate
        self._rate_anchor: Optional[tuple] = None
        self._last_rate = 0.0

    # ------------------------------------------------------------------
    def _events_per_sec(self, now: float, sim_events: int) -> float:
        if self._rate_anchor is None:
            self._rate_anchor = (now, sim_events)
            return 0.0
        anchor_ts, anchor_events = self._rate_anchor
        elapsed = now - anchor_ts
        if elapsed < self.interval / 2:
            return self._last_rate  # too soon for a stable estimate
        self._rate_anchor = (now, sim_events)
        self._last_rate = max(0.0, (sim_events - anchor_events) / elapsed)
        return self._last_rate

    def publish(
        self,
        phase: str,
        unit: Optional[str] = None,
        stage: Optional[str] = None,
        stats: Optional[Dict[str, int]] = None,
        force: bool = False,
    ) -> bool:
        """Publish a status record; ``True`` iff a record was written.

        Safe to call from several threads (the worker's lease-heartbeat
        thread and its main loop both publish) and never raises — even a
        metrics snapshot torn by a concurrent merge only costs this one
        heartbeat.
        """
        with self._lock:
            now = time.time()
            if not force and now - self._last_publish < self.interval:
                return False
            stats = stats or {}
            try:
                metrics = METRICS.snapshot() if METRICS.enabled else {}
                sim_events = int(metrics.get("counters", {}).get("sim.events", 0))
                record: Dict[str, Any] = {
                    "worker_id": self.worker_id,
                    "host": self.host,
                    "pid": os.getpid(),
                    "role": self.role,
                    "spec_fingerprint": self.spec_fingerprint,
                    "started_at": round(self.started_at, 6),
                    "updated_at": round(now, 6),
                    "interval": self.interval,
                    "phase": phase,
                    "unit": unit,
                    "stage": stage,
                    "leases_held": 1 if phase == PHASE_EXECUTING and unit is not None else 0,
                    "units_done": int(stats.get("units", 0)),
                    "runs_done": int(stats.get("runs", 0)),
                    "commits": int(stats.get("commits", 0)),
                    "duplicates": int(stats.get("duplicates", 0)),
                    "sim_events": sim_events,
                    "events_per_sec": round(self._events_per_sec(now, sim_events), 1),
                    "metrics": metrics,
                }
                publish_status(self.store, self.worker_id, record)
            except Exception:  # noqa: BLE001 - telemetry must never kill its worker
                self.dropped += 1
                if METRICS.enabled:
                    METRICS.inc("fleet.publish_dropped")
                return False
            self._last_publish = now
            self.published += 1
            return True


class FleetAggregator:
    """Reads every status record and derives fleet health.

    The aggregator is *stateful across polls*: straggler detection
    compares a participant's progress counters between polls, and each
    participant is flagged once per stall episode (``fleet.straggler``
    trace event + ``fleet.stragglers`` counter), then cleared when it
    recovers.  A single poll from a fresh aggregator (``repro top
    --once``) still detects heartbeat-based stragglers — a dead worker's
    ``updated_at`` speaks for itself.
    """

    def __init__(self, store: ArtifactStore, stall_window: float = DEFAULT_STALL_WINDOW):
        if stall_window <= 0:
            raise ValueError("stall_window must be positive")
        self.store = store
        self.stall_window = stall_window
        #: worker_id -> (progress tuple, first time it was seen unchanged)
        self._progress: Dict[str, tuple] = {}
        #: worker ids currently flagged as straggling
        self._straggling: set = set()
        #: total stall episodes flagged over this aggregator's lifetime
        self.stragglers_flagged = 0
        #: torn status records skipped on the most recent read
        self.torn_records = 0

    # ------------------------------------------------------------------
    def statuses(self) -> Dict[str, Dict[str, Any]]:
        """Readable status records of the store's campaign scope.

        Torn records (publisher killed mid-rewrite) are skipped and
        counted in :attr:`torn_records`, never raised — the health table
        stays renderable through a partial store."""
        skipped: List[str] = []
        records = load_statuses(self.store, skipped=skipped)
        self.torn_records = len(skipped)
        return records

    @staticmethod
    def _progress_key(record: Dict[str, Any]) -> tuple:
        return (
            record.get("units_done", 0),
            record.get("commits", 0) + record.get("duplicates", 0),
            record.get("sim_events", 0),
        )

    def _check_straggler(
        self, worker_id: str, record: Dict[str, Any], now: float
    ) -> Optional[str]:
        """The stall reason for this participant, or ``None`` if healthy."""
        if record.get("phase") == PHASE_EXITED:
            self._straggling.discard(worker_id)
            self._progress.pop(worker_id, None)
            return None
        heartbeat_age = now - float(record.get("updated_at", 0.0))
        if heartbeat_age > self.stall_window:
            return "no-heartbeat"
        key = self._progress_key(record)
        previous = self._progress.get(worker_id)
        if previous is None or previous[0] != key or record.get("phase") != PHASE_EXECUTING:
            # progressed, or not executing: (re)anchor the stall clock
            self._progress[worker_id] = (key, now)
            return None
        if now - previous[1] > self.stall_window:
            return "no-progress"
        return None

    def poll(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One aggregation pass: per-worker health plus fleet rollups."""
        now = time.time() if now is None else now
        workers: List[Dict[str, Any]] = []
        stragglers: List[str] = []
        fleet_rate = 0.0
        for worker_id, record in sorted(self.statuses().items()):
            heartbeat_age = max(0.0, now - float(record.get("updated_at", 0.0)))
            reason = self._check_straggler(worker_id, record, now)
            if reason is not None:
                stragglers.append(worker_id)
                if worker_id not in self._straggling:
                    self._straggling.add(worker_id)
                    self.stragglers_flagged += 1
                    if METRICS.enabled:
                        METRICS.inc("fleet.stragglers")
                    BUS.emit(
                        "fleet.straggler",
                        worker=worker_id,
                        host=record.get("host"),
                        reason=reason,
                        heartbeat_age=round(heartbeat_age, 3),
                        unit=record.get("unit"),
                    )
            else:
                self._straggling.discard(worker_id)
            # a silent worker's self-reported rate is history, not throughput
            interval = float(record.get("interval", DEFAULT_TELEMETRY_INTERVAL))
            rate = float(record.get("events_per_sec", 0.0))
            stale = heartbeat_age > max(2 * interval, 2.0) or record.get("phase") == PHASE_EXITED
            if not stale:
                fleet_rate += rate
            workers.append({
                "worker_id": worker_id,
                "host": record.get("host"),
                "pid": record.get("pid"),
                "role": record.get("role", ROLE_WORKER),
                "phase": record.get("phase"),
                "unit": record.get("unit"),
                "stage": record.get("stage"),
                "heartbeat_age": round(heartbeat_age, 3),
                "units_done": record.get("units_done", 0),
                "runs_done": record.get("runs_done", 0),
                "commits": record.get("commits", 0),
                "duplicates": record.get("duplicates", 0),
                "sim_events": record.get("sim_events", 0),
                "events_per_sec": 0.0 if stale else rate,
                "straggler": reason is not None,
                "straggler_reason": reason,
            })
        if METRICS.enabled:
            METRICS.gauge("fleet.workers").set_max(float(len(workers)))
        return {
            "now": round(now, 6),
            "workers": workers,
            "stragglers": stragglers,
            "events_per_sec": round(fleet_rate, 1),
            "torn_records": self.torn_records,
        }

    def merged_metrics(
        self, include_roles: Iterable[str] = (ROLE_WORKER,)
    ) -> Dict[str, Any]:
        """Fold the latest metrics snapshot of each matching participant.

        Records are cumulative per participant, so the merge is exact:
        counters add across hosts, gauges keep the max, histograms add
        bucket-wise.  Returns ``{}`` when nobody published metrics.
        """
        roles = set(include_roles)
        snapshots = [
            record["metrics"]
            for record in self.statuses().values()
            if record.get("role") in roles and record.get("metrics")
        ]
        return merge_snapshots(snapshots) if snapshots else {}


# ----------------------------------------------------------------------
# one-shot snapshot (``repro top`` / ``repro report --store``)
# ----------------------------------------------------------------------
def _lease_rollup(store: ArtifactStore) -> Dict[str, Any]:
    """Lease-state counts plus per-stage unit completion, straight from
    the store through the queue's lease reader."""
    states = {STATE_PENDING: 0, STATE_LEASED: 0, STATE_DONE: 0}
    reclaims = 0
    stages: Dict[str, Dict[str, int]] = {}
    for unit_id, lease in LeaseQueue(store).leases():
        state = lease.get("state", STATE_PENDING)
        states[state] = states.get(state, 0) + 1
        reclaims += int(lease.get("reclaims", 0))
        try:
            unit = store.get(NS_UNITS, unit_id)
        except Exception:  # noqa: BLE001
            unit = None
        stage = (unit or {}).get("stage", "?")
        bucket = stages.setdefault(stage, {"done": 0, "total": 0})
        bucket["total"] += 1
        if state == STATE_DONE:
            bucket["done"] += 1
    total = sum(states.values())
    return {
        "pending": states.get(STATE_PENDING, 0),
        "leased": states.get(STATE_LEASED, 0),
        "done": states.get(STATE_DONE, 0),
        "total": total,
        "reclaims": reclaims,
        "stages": stages,
    }


def fleet_overview(
    store: ArtifactStore,
    aggregator: Optional[FleetAggregator] = None,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Everything ``repro top`` renders, as one JSON-ready dict.

    Stragglers are judged by the ``stall_window`` the campaign's manifest
    records (the default without one), the window its coordinator uses.
    Pass a long-lived ``aggregator`` to keep progress-based straggler
    detection across refreshes; a fresh one is built otherwise (heartbeat
    staleness still detects dead workers in a single shot).
    """
    from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN, manifest_fabric

    now = time.time() if now is None else now
    try:
        manifest = store.get(NS_CAMPAIGN, KEY_MANIFEST)
    except Exception:  # noqa: BLE001 - torn manifest mid-rewrite
        manifest = None
    fabric = manifest_fabric(manifest or {})
    if aggregator is None:
        aggregator = FleetAggregator(store)
    aggregator.stall_window = fabric.stall_window
    fleet = aggregator.poll(now=now)
    leases = _lease_rollup(store)
    eta: Optional[float] = None
    done, total = leases["done"], leases["total"]
    created_at = (manifest or {}).get("created_at")
    if created_at is not None and done and total > done:
        elapsed = max(now - float(created_at), 1e-6)
        eta = round((total - done) * elapsed / done, 1)
    return {
        "now": round(now, 6),
        "manifest": None if manifest is None else {
            "status": manifest.get("status"),
            "spec_fingerprint": manifest.get("spec_fingerprint"),
            "created_at": manifest.get("created_at"),
            "lease_ttl": fabric.lease_ttl,
            "campaign_id": manifest.get("campaign_id"),
            "tenant": manifest.get("tenant"),
        },
        "workers": fleet["workers"],
        "stragglers": fleet["stragglers"],
        "events_per_sec": fleet["events_per_sec"],
        "torn_records": fleet.get("torn_records", 0),
        "leases": leases,
        "eta_seconds": eta,
    }


# ----------------------------------------------------------------------
# Prometheus text exposition (``repro report --export-prom``)
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def prometheus_text(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a metrics snapshot in the Prometheus text format (0.0.4).

    Counters and gauges become single samples; fixed-bucket histograms
    become the canonical ``_bucket{le=...}`` / ``_sum`` / ``_count``
    series with cumulative bucket counts, which is exactly what the
    registry's inclusive upper bounds already are after a running sum.
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data.get("bounds", []), data.get("counts", [])):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data.get("count", 0)}')
        lines.append(f"{metric}_sum {data.get('sum', 0.0)!r}")
        lines.append(f"{metric}_count {data.get('count', 0)}")
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_STALL_WINDOW",
    "DEFAULT_TELEMETRY_INTERVAL",
    "PHASE_COORDINATING",
    "PHASE_EXECUTING",
    "PHASE_EXITED",
    "PHASE_IDLE",
    "ROLE_COORDINATOR",
    "ROLE_WORKER",
    "FleetAggregator",
    "FleetPublisher",
    "fleet_overview",
    "prometheus_text",
]
