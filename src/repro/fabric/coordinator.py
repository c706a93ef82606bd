"""The fabric coordinator: one campaign, many crash-prone participants.

``run_fabric_campaign`` is what :func:`repro.api.run_campaign` dispatches
to when a spec carries a :class:`~repro.fabric.config.FabricConfig`.  It
runs the ordinary single-process :class:`~repro.core.Controller` —
baseline, generation, detection, classification and the checkpoint
journal all stay exactly where they were — but plugs a distributed stage
runner into the controller's ``stage_runner`` seam, so the sweep/confirm
stages execute as leased units on a shared artifact store instead of a
local-only worker pool:

1. publish the campaign *manifest* (the spec plus its fingerprint) to the
   campaign's scope, where ``repro worker`` processes polling the
   campaign index find it;
2. fingerprint every pending strategy, serve what the shared cache or the
   result ledger already has, shard the rest into ``lease_size`` units
   and enqueue them;
3. loop — read the lease states once per pass and collect each
   ``done`` unit's results from the ledger, one read per result; execute
   units itself like any other worker (``participate``: the per-campaign
   context a ``repro worker`` builds from the manifest, served by
   :meth:`FabricWorker.run_one`), and reclaim expired leases of crashed
   workers simply by claiming them;
4. when a ``done`` unit still lacks a committed result (a torn result
   record), reopen it in the same pass and let the loop re-dispatch it;
   the re-run restores the slot from the cache its first execution
   filled, and the slot journals as executed;
5. mark the manifest complete (or failed) so workers drain and exit.

Exactly-once accounting holds because only ledger commits are
authoritative and only the coordinator turns ledger entries into journal
lines / campaign outcomes: every fingerprint is collected exactly once,
no matter how many workers executed it.

Every campaign lives in its own ``campaigns/<id>/...`` scope of the
store, listed in the campaign index; only the run cache is shared at the
root, so any number of campaigns share one store.  The HTTP service picks
a fresh id per submission; ``run_fabric_campaign`` uses the first 12 hex
characters of the spec fingerprint, so rerunning a spec lands in the same
scope.  There a running manifest whose coordinator is still heartbeating
raises :class:`FabricMismatch`; only one whose coordinator has verifiably
stopped (stale heartbeat) is adopted, because the ledger already holds
its progress.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set

import dataclasses

from repro.api import CampaignSpec
from repro.core.cache import RunCache, run_fingerprint
from repro.core.controller import CampaignResult, Controller
from repro.core.executor import RunOutcome, RunResult
from repro.core.strategy import Strategy
from repro.core.supervisor import SupervisedWorkerPool
from repro.fabric.ledger import ResultLedger
from repro.fabric.leases import STATE_DONE, unit_fingerprint
from repro.fabric.store import (
    CAMPAIGN_CANCELLED,
    CAMPAIGN_CANCELLING,
    CAMPAIGN_COMPLETE,
    CAMPAIGN_FAILED,
    CAMPAIGN_RUNNING,
    ArtifactStore,
    CampaignScopedStore,
    StoreCorrupt,
    clear_statuses,
    register_campaign,
    store_for,
    update_campaign,
)
from repro.fabric.worker import (
    KEY_MANIFEST,
    NS_CAMPAIGN,
    CampaignContext,
    FabricWorker,
    encode_strategy,
    manifest_fabric,
)
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig
from repro.obs.fleet import (
    PHASE_COORDINATING,
    PHASE_EXITED,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    FleetAggregator,
    fleet_overview,
)
from repro.obs.metrics import METRICS, merge_snapshots

log = logging.getLogger("repro.fabric.coordinator")


class FabricMismatch(ValueError):
    """The store already hosts a live campaign this one cannot share."""


class CampaignCancelled(RuntimeError):
    """The campaign was cancelled mid-run via :meth:`CampaignHandle.cancel`."""


#: how stale a running manifest's coordinator heartbeat must be, in lease
#: TTLs, before a same-fingerprint restart may adopt it
ADOPT_STALE_TTLS = 2.0


def coordinator_alive(manifest: Dict[str, Any]) -> bool:
    """Whether the coordinator that wrote ``manifest`` still heartbeats.

    Judged by the lease TTL the manifest records — the cadence that
    coordinator bumps at — never by the TTL of whoever asks.
    """
    beat = manifest.get("coordinator_heartbeat_at")
    ttl = manifest_fabric(manifest).lease_ttl
    return beat is not None and time.time() - float(beat) < ADOPT_STALE_TTLS * ttl


class _FabricStageRunner:
    """The controller's ``stage_runner``: stage execution as leased units.

    ``store`` is the base store and ``manifest`` the one the coordinator
    published.  The runner takes part through the context a ``repro
    worker`` builds from that manifest, with role ``coordinator`` so the
    worker-metrics fold never double-counts it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ArtifactStore,
        manifest: Dict[str, Any],
        cancel_event: Optional[threading.Event] = None,
    ):
        self.spec = spec
        self.fabric = spec.fabric
        assert self.fabric is not None
        self.spec_fingerprint = manifest["spec_fingerprint"]
        self.cancel_event = cancel_event
        self._last_manifest_beat = 0.0
        self._outage_streak = 0
        self.agent = FabricWorker(store, workers=spec.workers, obs=spec.obs)
        self.ctx = CampaignContext(self.agent, manifest["campaign_id"], manifest,
                                   role=ROLE_COORDINATOR)
        # fleet telemetry plane: the coordinator also reads everyone's status
        self.aggregator: Optional[FleetAggregator] = None
        self._last_poll = 0.0
        if self.ctx.fleet is not None:
            self.aggregator = FleetAggregator(self.ctx.store, stall_window=self.fabric.stall_window)

    def _telemetry_tick(self) -> None:
        """Publish the coordinator's status and run one aggregation pass
        (both internally rate-limited to the telemetry interval)."""
        self._manifest_heartbeat()
        if self.aggregator is None:
            return
        self.agent.publish(self.ctx, PHASE_COORDINATING)
        now = time.monotonic()
        if now - self._last_poll >= max(self.fabric.telemetry_interval, 0.25):
            self._last_poll = now
            self.aggregator.poll()

    def _manifest_heartbeat(self) -> None:
        """Prove this coordinator is alive: bump the manifest heartbeat.

        A restarting coordinator refuses to adopt a manifest whose
        heartbeat is fresher than :data:`ADOPT_STALE_TTLS` lease TTLs, so
        the bump cadence (a third of a TTL) leaves ample slack.
        """
        now = time.monotonic()
        if now - self._last_manifest_beat < max(self.fabric.lease_ttl / 3.0, 0.05):
            return
        self._last_manifest_beat = now

        def bump(manifest: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
            if manifest is None:
                return None
            fresh = dict(manifest)
            fresh["coordinator_heartbeat_at"] = time.time()
            return fresh

        try:
            self.ctx.store.update(NS_CAMPAIGN, KEY_MANIFEST, bump)
        except Exception:  # noqa: BLE001 - heartbeat is best-effort
            pass

    def _check_cancel(self) -> None:
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise CampaignCancelled(self.spec_fingerprint)

    def _pause_for_outage(self, op: str, error: BaseException) -> None:
        """Degraded mode: the store is down (retries exhausted / breaker
        open) — pause the campaign with capped exponential backoff
        instead of failing it, and resume when the store heals."""
        self._outage_streak += 1
        METRICS.inc("fabric.store_outages")
        BUS.emit(
            "fabric.store.outage", op=op, streak=self._outage_streak,
            error=f"{type(error).__name__}: {error}",
        )
        log.warning("fabric: store outage during %s (%s); campaign paused "
                    "(streak %d)", op, error, self._outage_streak)
        delay = min(
            self.fabric.poll_interval * (2 ** min(self._outage_streak, 6)),
            max(self.fabric.lease_ttl / 2.0, self.fabric.poll_interval),
        )
        time.sleep(delay)

    # ------------------------------------------------------------------
    def __call__(
        self,
        stage: str,
        strategies: List[Optional[Strategy]],
        seed: Optional[int],
        cache: Optional[RunCache],
        pool: Optional[SupervisedWorkerPool],
        on_result: Callable[[int, RunOutcome], None],
        progress: Callable[[int, int], None],
    ) -> List[RunOutcome]:
        self._check_cancel()
        total = len(strategies)
        results: List[Optional[RunOutcome]] = [None] * total
        done_count = 0

        def finish(index: int, outcome: RunOutcome) -> None:
            nonlocal done_count
            results[index] = outcome
            done_count += 1
            on_result(index, outcome)
            progress(done_count, total)

        def restamped(index: int, outcome: RunOutcome) -> RunOutcome:
            strategy = strategies[index]
            outcome.strategy_id = strategy.strategy_id if strategy is not None else None
            return outcome

        # ---------------------------------------------------- pre-serve
        fingerprints = [run_fingerprint(self.spec.testbed, s, seed) for s in strategies]
        remaining: List[int] = []
        for index in range(total):
            if cache is not None:
                hit = cache.get(fingerprints[index])
                if hit is not None:
                    finish(index, restamped(index, hit))
                    continue
            try:
                committed = self.ctx.ledger.fetch(stage, fingerprints[index])
            except OSError:
                committed = None  # store blip: fall through to enqueue
            if committed is not None:
                finish(index, restamped(index, committed))
                continue
            remaining.append(index)
        if not remaining:
            return results  # type: ignore[return-value]

        # ------------------------------------------------------ enqueue
        size = self.fabric.lease_size
        unit_members: Dict[str, List[int]] = {}
        for lo in range(0, len(remaining), size):
            members = remaining[lo : lo + size]
            member_fps = [fingerprints[i] for i in members]
            unit_id = unit_fingerprint(self.spec_fingerprint, stage, member_fps)
            unit_members[unit_id] = members
            while True:
                self._check_cancel()
                try:
                    self.ctx.queue.enqueue({
                        "unit_id": unit_id,
                        "stage": stage,
                        "seed": seed,
                        "slots": [
                            {"fingerprint": fingerprints[i],
                             "strategy": encode_strategy(strategies[i])}
                            for i in members
                        ],
                    })
                    break  # enqueue is idempotent per unit id; safe to repeat
                except OSError as error:
                    self._pause_for_outage("enqueue", error)
        METRICS.inc("fabric.units.enqueued", len(unit_members))
        BUS.emit("fabric.stage.sharded", stage=stage,
                 units=len(unit_members), pending=len(remaining))
        log.info("fabric: stage %s sharded into %d unit(s) of <=%d (%d pre-served)",
                 stage, len(unit_members), size, total - len(remaining))

        # ------------------------------------------------- drive to done
        #: slots whose result went missing after their unit finished: the
        #: campaign executed each once already, so when a re-run restores
        #: one from the cache that execution filled, it journals as executed
        #: (a first owner that had itself restored the slot, from another
        #: campaign's entry, cannot be told apart: the lost record said so)
        reopened: Set[int] = set()
        while unit_members:
            self._check_cancel()
            self._telemetry_tick()
            # Degraded mode: any store fault that survived the retry layer
            # (or a tripped breaker, StoreOutage ⊂ OSError) pauses the
            # campaign and resumes it when the store heals — never fails it.
            # Work already committed stays committed; an abandoned unit's
            # lease expires and is reclaimed, so accounting is unchanged.
            try:
                collected = False
                states = self.ctx.queue.states()
                for unit_id in [u for u in unit_members if states.get(u) == STATE_DONE]:
                    members = unit_members[unit_id]
                    for index in list(members):
                        outcome = self.ctx.ledger.fetch(stage, fingerprints[index])
                        if outcome is not None:
                            # leave the list first: a store fault later in
                            # the pass must not finish this slot twice
                            members.remove(index)
                            if index in reopened and isinstance(outcome, RunResult):
                                outcome.cached = False
                            finish(index, restamped(index, outcome))
                            collected = True
                    if members:
                        # a done unit lost a result (a torn record the
                        # fetch deleted): reopen it for re-dispatch
                        log.warning("fabric: unit %s done but %d result(s) missing; "
                                    "reopening", unit_id[:12], len(members))
                        self.ctx.queue.reopen(unit_id)
                        reopened.update(members)
                    else:
                        del unit_members[unit_id]
                self._outage_streak = 0  # the store answered a full pass
                if not unit_members:
                    break
                if self.fabric.participate:
                    if self.agent.run_one(self.ctx, pool):
                        continue  # executed a unit; collect its results next pass
                if not collected:
                    time.sleep(self.fabric.poll_interval)
            except OSError as error:
                self._pause_for_outage("drive", error)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Campaign-wide fabric counters for :attr:`CampaignResult.fabric`.

        Lease reclaims are read back from the lease records themselves, so
        reclaims performed by *other* participants (another worker picking
        up a SIGKILLed one's unit) are counted too, not just local ones.
        """
        out = {f"leases_{name}": value for name, value in self.ctx.queue.counters.items()}
        out["lease_reclaims"] = self.ctx.queue.reclaim_total()
        out["commits"] = self.ctx.ledger.commits
        out["commit_duplicates"] = self.ctx.ledger.duplicates
        out["worker_units"] = self.agent.stats["units"]
        out["worker_commit_duplicates"] = self.agent.stats["duplicates"]
        if self.aggregator is not None:
            records = self.aggregator.statuses()
            out["telemetry_workers"] = sum(
                1 for r in records.values() if r.get("role") == ROLE_WORKER
            )
            out["stragglers"] = self.aggregator.stragglers_flagged
        return out


class CampaignHandle:
    """A resumable in-process driver for one fabric campaign.

    The handle is the shared substrate under both front ends: the CLI
    calls :meth:`run` (blocking, exceptions propagate — exactly the old
    ``run_fabric_campaign`` contract), the HTTP service calls
    :meth:`start` and then talks to the handle from other threads via
    :meth:`poll` / :meth:`cancel` / :meth:`result`.

    The handle drives the campaign whose index record ``campaign_id``
    names: every namespace is scoped under ``campaigns/<id>/...`` and the
    status is mirrored into the record.  Pass an open ``store`` to share
    one base store across handles (the service does); otherwise the
    handle opens ``spec.fabric.store`` itself.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        campaign_id: str,
        store: Optional[ArtifactStore] = None,
    ):
        if spec.fabric is None:
            raise ValueError("spec has no fabric configuration")
        self.spec = spec
        self.fabric = spec.fabric
        self.campaign_id = campaign_id
        self.tenant = spec.tenant
        self.spec_fingerprint = spec.fingerprint()
        self.store = store if store is not None else store_for(self.fabric.store)
        self.view = CampaignScopedStore(self.store, campaign_id)
        self._cancel = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._status = "pending"
        self._result: Optional[CampaignResult] = None
        self._error: Optional[BaseException] = None
        self._poll_aggregator: Optional[FleetAggregator] = None

    # ------------------------------------------------------- lifecycle
    def run(
        self, progress: Optional[Callable[[str, int, int], None]] = None
    ) -> CampaignResult:
        """Drive the campaign to completion on this thread (CLI path)."""
        self._drive(progress)
        return self.result()

    def start(self) -> "CampaignHandle":
        """Drive the campaign on a background thread (service path)."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("campaign already started")
            self._thread = threading.Thread(
                target=self._drive,
                name=f"campaign-{self.campaign_id}",
                daemon=True,
            )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def done(self) -> bool:
        with self._lock:
            return self._status in (
                CAMPAIGN_COMPLETE, CAMPAIGN_FAILED, CAMPAIGN_CANCELLED
            )

    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    def result(self, timeout: Optional[float] = None) -> CampaignResult:
        """The campaign's result; raises what the drive raised (including
        :class:`CampaignCancelled`) or ``TimeoutError`` if still running."""
        self.join(timeout)
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise TimeoutError("campaign still running")
            return self._result

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already finished.

        The drive thread notices at its next stage-runner pass and raises
        :class:`CampaignCancelled`; the manifest moves to ``cancelling``
        immediately so workers stop claiming new units right away.
        """
        if self.done():
            return False
        self._cancel.set()

        def mark(manifest: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
            if manifest is None or manifest.get("status") != CAMPAIGN_RUNNING:
                return None
            fresh = dict(manifest)
            fresh["status"] = CAMPAIGN_CANCELLING
            return fresh

        try:
            self.view.update(NS_CAMPAIGN, KEY_MANIFEST, mark)
        except Exception:  # noqa: BLE001 - drive thread will finalize anyway
            pass
        BUS.emit(
            "fabric.campaign.cancel_requested",
            spec_fingerprint=self.spec_fingerprint,
            campaign_id=self.campaign_id,
        )
        return True

    # ------------------------------------------------------------ status
    def poll(self) -> Dict[str, Any]:
        """A JSON-ready status snapshot, read straight from the store.

        Safe from any thread: it uses its own fleet aggregator (under the
        handle lock), never the drive thread's.
        """
        with self._lock:
            status = self._status
            error = self._error
            if self._poll_aggregator is None:
                self._poll_aggregator = FleetAggregator(self.view)
            try:
                overview = fleet_overview(self.view, aggregator=self._poll_aggregator)
            except OSError:  # store outage: status stays answerable
                overview = {"workers": [], "stragglers": [],
                            "events_per_sec": 0.0, "leases": {}, "eta_seconds": None}
            try:
                committed = ResultLedger(self.view).committed_count()
            except OSError:
                committed = None
        snapshot: Dict[str, Any] = {
            "campaign_id": self.campaign_id,
            "tenant": self.tenant,
            "status": status,
            "spec_fingerprint": self.spec_fingerprint,
            "workers": overview["workers"],
            "stragglers": overview["stragglers"],
            "events_per_sec": overview["events_per_sec"],
            "leases": overview["leases"],
            "eta_seconds": overview["eta_seconds"],
            "results_committed": committed,
        }
        if error is not None:
            snapshot["error"] = f"{type(error).__name__}: {error}"
        return snapshot

    # ------------------------------------------------------------- drive
    def _set_status(self, status: str) -> None:
        with self._lock:
            self._status = status
        try:
            update_campaign(self.store, self.campaign_id, status=status)
        except Exception:  # noqa: BLE001 - index mirror is best-effort
            log.exception("fabric: campaign index update failed")

    def _guard_manifest(self) -> Optional[Dict[str, Any]]:
        """Manifest admission; returns the adopted manifest (or ``None``
        for a fresh scope).

        A scope without a running manifest is fresh.  A *running* one
        belongs to an earlier coordinator of this campaign — a restarted
        ``run_campaign`` or the service re-attaching — and is adoptable
        only once that coordinator's heartbeat went verifiably stale; a
        live one, or one for a different spec, is a
        :class:`FabricMismatch`.
        """
        try:
            existing = self.view.get(NS_CAMPAIGN, KEY_MANIFEST)
        except StoreCorrupt:
            return None
        if existing is None or existing.get("status") != CAMPAIGN_RUNNING:
            return None
        if existing.get("spec_fingerprint") != self.spec_fingerprint:
            raise FabricMismatch(
                f"campaign {self.campaign_id!r} already carries a running "
                f"manifest for a different spec "
                f"({existing.get('spec_fingerprint')!r}); refusing to "
                "overwrite it"
            )
        if coordinator_alive(existing):
            raise FabricMismatch(
                f"campaign {self.campaign_id!r} is still being driven by a "
                "heartbeating coordinator; refusing to double-drive it"
            )
        log.info("fabric: adopting stale manifest for %s "
                 "(previous coordinator gone)", self.campaign_id)
        return existing

    def _drive(
        self, progress: Optional[Callable[[str, int, int], None]] = None
    ) -> None:
        # Every metric this campaign records — on the drive thread and in
        # the fork pools it spawns, which inherit the forking thread's
        # routing — lands in the campaign-private registry, then folds
        # into the process registry exactly once on completion.  N
        # concurrent campaigns in one service process stay isolated.
        with METRICS.campaign():
            self._drive_scoped(progress)

    def _drive_scoped(
        self, progress: Optional[Callable[[str, int, int], None]] = None
    ) -> None:
        spec = self.spec
        fabric = self.fabric
        if fabric.telemetry_interval > 0:
            # the fleet plane needs the metrics registry even when the user
            # asked for no tracing; obs is fingerprint-neutral, so this is safe
            obs = spec.obs or ObsConfig()
            if not obs.metrics:
                spec = spec.with_overrides(obs=dataclasses.replace(obs, metrics=True))
        # enable the scoped registry before the manifest guard and status
        # records use it; the controller applies spec.obs only once it runs
        METRICS.enabled = bool(spec.obs and spec.obs.metrics)
        spec_fp = self.spec_fingerprint
        manifest: Dict[str, Any] = {}
        try:
            adopted = self._guard_manifest()
            if adopted is None:
                # a fresh campaign starts with a clean fleet view — stale
                # status records from a previous run would read as
                # long-dead stragglers (no-op on a fresh campaign scope)
                clear_statuses(self.view)
            # the spec workers execute under: same computation, their own
            # runtime — no journal, no private cache dir, no nested fabric
            worker_spec = spec.with_overrides(
                checkpoint=None, resume=False, cache_dir=None, obs=None, fabric=None
            )
            manifest = {
                "spec": worker_spec.to_dict(),
                "spec_fingerprint": spec_fp,
                "status": CAMPAIGN_RUNNING,
                "fabric": fabric.to_dict(),
                "created_at": time.time(),
                "coordinator_heartbeat_at": time.time(),
                "campaign_id": self.campaign_id,
                "tenant": self.tenant,
            }
            if adopted is not None and adopted.get("created_at") is not None:
                manifest["created_at"] = adopted["created_at"]  # keep ETA honest
            self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
            self._set_status(CAMPAIGN_RUNNING)
            BUS.emit("fabric.campaign.start", spec_fingerprint=spec_fp,
                     store=fabric.store, campaign_id=self.campaign_id)

            runner = _FabricStageRunner(spec, self.store, manifest, self._cancel)
            controller = Controller(spec, cache=runner.ctx.cache, stage_runner=runner)
            try:
                result = controller.run_campaign(progress=progress)
            except CampaignCancelled:
                manifest["status"] = CAMPAIGN_CANCELLED
                self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
                self._set_status(CAMPAIGN_CANCELLED)
                BUS.emit("fabric.campaign.cancelled", spec_fingerprint=spec_fp,
                         campaign_id=self.campaign_id)
                raise
            except BaseException:
                manifest["status"] = CAMPAIGN_FAILED
                self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
                self._set_status(CAMPAIGN_FAILED)
                raise
            manifest["status"] = CAMPAIGN_COMPLETE
            self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
            if runner.aggregator is not None:
                # final aggregation pass, then fold every worker host's
                # cumulative registry into the campaign metrics: counters
                # add, gauges max, histograms add bucket-wise — the health
                # table and `repro report` now describe the whole fleet
                runner.aggregator.poll()
                fleet_metrics = runner.aggregator.merged_metrics(
                    include_roles=(ROLE_WORKER,)
                )
                if fleet_metrics:
                    result.metrics = merge_snapshots(
                        s for s in (result.metrics, fleet_metrics) if s
                    )
                per_worker = result.metrics.setdefault("counters", {})
                for worker_id, record in sorted(runner.aggregator.statuses().items()):
                    if record.get("role") != ROLE_WORKER:
                        continue
                    per_worker.setdefault(
                        f"fleet.worker.{worker_id}.commits",
                        int(record.get("commits", 0)) + int(record.get("duplicates", 0)),
                    )
                runner.agent.publish(runner.ctx, PHASE_EXITED, force=True)
            result.fabric = runner.counters()
            # surface fabric counters beside the ordinary metric counters so
            # `--metrics-out` consumers (and CI chaos assertions) see them
            bucket = result.metrics.setdefault("counters", {})
            for name, value in result.fabric.items():
                bucket.setdefault(f"fabric.{name}", value)
            with self._lock:
                self._result = result
            self._set_status(CAMPAIGN_COMPLETE)
            BUS.emit("fabric.campaign.complete", spec_fingerprint=spec_fp,
                     campaign_id=self.campaign_id,
                     reclaims=result.fabric.get("lease_reclaims", 0))
        except BaseException as error:
            with self._lock:
                self._error = error
                if isinstance(error, FabricMismatch):
                    # refused at admission: the index record and manifest
                    # belong to the live campaign, so the terminal status
                    # stays in memory
                    self._status = CAMPAIGN_FAILED
            if not self.done():
                # failed before the manifest existed (store trouble):
                # still reach a terminal status so waiters and the
                # service's reaper see the campaign as finished
                self._set_status(
                    CAMPAIGN_CANCELLED if isinstance(error, CampaignCancelled)
                    else CAMPAIGN_FAILED
                )
            if isinstance(error, (FabricMismatch, CampaignCancelled)):
                log.info("fabric: campaign %s ended early: %s",
                         self.campaign_id, error)
            else:
                log.exception("fabric: campaign %s failed", self.campaign_id)


def run_fabric_campaign(
    spec: CampaignSpec, progress: Optional[Callable[[str, int, int], None]] = None
) -> CampaignResult:
    """Run one campaign distributed over a shared artifact store.

    Registers a ``standalone`` index record — this call, not a service, is
    the campaign's coordinator — under the first 12 hex characters of the
    spec fingerprint (put-if-absent, so a rerun keeps the record, and a
    restarted coordinator finds and adopts its stale manifest), then
    drives it to completion with a blocking :class:`CampaignHandle`.
    """
    fingerprint = spec.fingerprint()
    campaign_id = fingerprint[:12]
    handle = CampaignHandle(spec, campaign_id)
    now = time.time()
    register_campaign(handle.store, campaign_id, {
        "campaign_id": campaign_id,
        "tenant": spec.tenant,
        "spec_fingerprint": fingerprint,
        "status": CAMPAIGN_RUNNING,
        "standalone": True,
        "created_at": now,
        "updated_at": now,
    })
    return handle.run(progress=progress)


__all__ = [
    "ADOPT_STALE_TTLS",
    "CampaignCancelled",
    "CampaignHandle",
    "FabricMismatch",
    "coordinator_alive",
    "run_fabric_campaign",
]
