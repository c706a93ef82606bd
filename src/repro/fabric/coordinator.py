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
   store, which idle ``repro worker`` processes are polling for;
2. fingerprint every pending strategy, serve what the shared cache or the
   result ledger already has, shard the rest into ``lease_size`` units
   and enqueue them;
3. loop — collect freshly committed results from the ledger, execute
   units itself like any other worker (``participate``), and reclaim
   expired leases of crashed workers simply by claiming them;
4. when every unit is done but a fingerprint still has no committed
   result (a torn result record), reopen the owning unit and let the
   loop re-dispatch it;
5. mark the manifest complete (or failed) so workers drain and exit.

Exactly-once accounting holds because only ledger commits are
authoritative and only the coordinator turns ledger entries into journal
lines / campaign outcomes: every fingerprint is collected exactly once,
no matter how many workers executed it.

Campaign identity comes in two layouts.  The legacy root layout (one
implicit manifest per store, ``repro campaign --fabric``) allows one
campaign per store at a time: a running manifest with a different spec
fingerprint — or a same-fingerprint manifest whose coordinator is still
heartbeating — raises :class:`FabricMismatch`; only a manifest whose
coordinator has verifiably stopped (stale heartbeat) is adopted, because
the ledger already holds its progress.  The multi-campaign layout keys
everything under ``campaigns/<id>/...`` and multiplexes freely; it is
what :class:`CampaignHandle` (and the HTTP service on top of it) uses.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import dataclasses

from repro.api import CampaignSpec
from repro.core.cache import RunCache, run_fingerprint
from repro.core.controller import CampaignResult
from repro.core.executor import RunOutcome
from repro.core.strategy import Strategy
from repro.core.supervisor import SupervisedWorkerPool
from repro.fabric.ledger import ResultLedger
from repro.fabric.leases import LeaseQueue, unit_fingerprint
from repro.fabric.store import (
    CAMPAIGN_CANCELLED,
    CAMPAIGN_COMPLETE,
    CAMPAIGN_FAILED,
    ArtifactStore,
    StoreCorrupt,
    clear_statuses,
    scoped_store,
    store_for,
    update_campaign,
)
from repro.fabric.worker import (
    KEY_MANIFEST,
    MANIFEST_CANCELLED,
    MANIFEST_CANCELLING,
    MANIFEST_COMPLETE,
    MANIFEST_FAILED,
    MANIFEST_RUNNING,
    NS_CAMPAIGN,
    FabricWorker,
    encode_strategy,
)
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig
from repro.obs.fleet import (
    PHASE_COORDINATING,
    PHASE_EXITED,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    FleetAggregator,
    FleetPublisher,
    fleet_overview,
)
from repro.obs.metrics import METRICS, MetricsRegistry, merge_snapshots

log = logging.getLogger("repro.fabric.coordinator")


class FabricMismatch(ValueError):
    """The store already hosts a live campaign this one cannot share."""


class CampaignCancelled(RuntimeError):
    """The campaign was cancelled mid-run via :meth:`CampaignHandle.cancel`."""


#: how stale a legacy manifest's coordinator heartbeat must be, in lease
#: TTLs, before a same-fingerprint restart may adopt it
ADOPT_STALE_TTLS = 2.0


class _FabricStageRunner:
    """The controller's ``stage_runner``: stage execution as leased units.

    ``store`` is the campaign's *view* — the store root in the legacy
    layout, a ``campaigns/<id>/...`` scope otherwise.  ``cache_store``
    is always the base store: the run cache is shared across campaigns.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ArtifactStore,
        cache_store: Optional[ArtifactStore] = None,
        cancel_event: Optional[threading.Event] = None,
    ):
        self.spec = spec
        self.store = store
        self.fabric = spec.fabric
        assert self.fabric is not None
        self.spec_fingerprint = spec.fingerprint()
        self.cancel_event = cancel_event
        self.queue = LeaseQueue(store, ttl=self.fabric.lease_ttl)
        self.ledger = ResultLedger(store)
        self.cache = RunCache(cache_store if cache_store is not None else store)
        self._last_manifest_beat = 0.0
        self._outage_streak = 0
        self.agent = FabricWorker(
            store,
            workers=spec.workers,
            obs=spec.obs,
            poll_interval=self.fabric.poll_interval,
            ledger=self.ledger,
        )
        # fleet telemetry plane: the coordinator publishes its own status
        # (role=coordinator, so the worker-metrics fold never double-counts
        # it) and aggregates everyone else's
        self.aggregator: Optional[FleetAggregator] = None
        self._last_poll = 0.0
        if self.fabric.telemetry_interval > 0:
            self.aggregator = FleetAggregator(
                store,
                stall_window=self.fabric.stall_window,
                spec_fingerprint=self.spec_fingerprint,
            )
            self.agent.fleet = FleetPublisher(
                store,
                self.agent.worker_id,
                role=ROLE_COORDINATOR,
                interval=self.fabric.telemetry_interval,
                spec_fingerprint=self.spec_fingerprint,
            )

    def _telemetry_tick(self) -> None:
        """Publish the coordinator's status and run one aggregation pass
        (both internally rate-limited to the telemetry interval)."""
        self._manifest_heartbeat()
        if self.aggregator is None:
            return
        if self.agent.fleet is not None:
            self.agent.fleet.publish(PHASE_COORDINATING, stats=self.agent.stats)
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
            self.store.update(NS_CAMPAIGN, KEY_MANIFEST, bump)
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
                try:
                    hit = cache.get(fingerprints[index])
                except (OSError, StoreCorrupt):
                    hit = None  # unreadable cache entry: recompute
                if hit is not None:
                    finish(index, restamped(index, hit))
                    continue
            try:
                committed = self.ledger.fetch(stage, fingerprints[index])
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
                    self.queue.enqueue({
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
        waiting = set(remaining)
        while waiting:
            self._check_cancel()
            self._telemetry_tick()
            # Degraded mode: any store fault that survived the retry layer
            # (or a tripped breaker, StoreOutage ⊂ OSError) pauses the
            # campaign and resumes it when the store heals — never fails it.
            # Work already committed stays committed; an abandoned unit's
            # lease expires and is reclaimed, so accounting is unchanged.
            try:
                progressed = False
                for index in sorted(waiting):
                    outcome = self.ledger.fetch(stage, fingerprints[index])
                    if outcome is not None:
                        waiting.discard(index)
                        finish(index, restamped(index, outcome))
                        progressed = True
                self._outage_streak = 0  # the store answered a full pass
                if not waiting:
                    break
                if self.fabric.participate:
                    if self.agent.run_one(self.spec, self.queue, self.cache, pool):
                        continue  # executed a unit; collect its commits next pass
                if progressed:
                    continue
                # Nothing claimable and nothing new in the ledger.  If every
                # unit owning a missing fingerprint is already done, its result
                # record was lost (torn write): reopen the unit for re-dispatch.
                states = self.queue.states()
                reopened = False
                for unit_id, members in unit_members.items():
                    missing = [i for i in members if i in waiting]
                    if not missing or states.get(unit_id) != "done":
                        continue
                    if any(
                        self.ledger.fetch(stage, fingerprints[i]) is None for i in missing
                    ):
                        log.warning("fabric: unit %s done but %d result(s) missing; reopening",
                                    unit_id[:12], len(missing))
                        self.queue.reopen(unit_id)
                        reopened = True
                if not reopened:
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
        out = {f"leases_{name}": value for name, value in self.queue.counters.items()}
        out["lease_reclaims"] = self.queue.reclaim_total()
        out["commits"] = self.ledger.commits
        out["commit_duplicates"] = self.ledger.duplicates
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

    ``campaign_id=None`` drives the legacy root layout (one campaign per
    store, adopt-or-mismatch semantics); a campaign id drives the
    multi-campaign layout — every namespace scoped under
    ``campaigns/<id>/...``, status mirrored into the campaign index, any
    number of concurrent campaigns per store.  Pass an open ``store`` to
    share one base store across handles (the service does); otherwise the
    handle opens ``spec.fabric.store`` itself and closes it when done.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[ArtifactStore] = None,
        campaign_id: Optional[str] = None,
    ):
        if spec.fabric is None:
            raise ValueError("spec has no fabric configuration")
        self.spec = spec
        self.fabric = spec.fabric
        self.campaign_id = campaign_id
        self.tenant = spec.tenant
        self.spec_fingerprint = spec.fingerprint()
        self._owns_store = store is None
        self.store = store if store is not None else store_for(
            self.fabric.store,
            retries=self.fabric.store_retries,
            backoff=self.fabric.store_backoff,
        )
        self.view = scoped_store(self.store, campaign_id)
        #: the campaign-private metrics registry the drive thread records
        #: into (scoped via :meth:`ScopedMetrics.scoped`, folded into the
        #: process registry on completion) — concurrent campaigns in one
        #: service process no longer cross-pollute their snapshots
        self.registry = MetricsRegistry()
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
                name=f"campaign-{self.campaign_id or 'legacy'}",
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
            if manifest is None or manifest.get("status") != MANIFEST_RUNNING:
                return None
            fresh = dict(manifest)
            fresh["status"] = MANIFEST_CANCELLING
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
                self._poll_aggregator = FleetAggregator(
                    self.view,
                    stall_window=self.fabric.stall_window,
                    spec_fingerprint=self.spec_fingerprint,
                )
            try:
                overview = fleet_overview(
                    self.view,
                    stall_window=self.fabric.stall_window,
                    aggregator=self._poll_aggregator,
                )
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
        if self.campaign_id is not None:
            try:
                update_campaign(self.store, self.campaign_id, status=status)
            except Exception:  # noqa: BLE001 - index mirror is best-effort
                log.exception("fabric: campaign index update failed")

    def _guard_manifest(self) -> Optional[Dict[str, Any]]:
        """Manifest admission for both layouts; returns the adopted
        manifest (or ``None`` for a fresh scope).

        Legacy root layout: one campaign per store — a different running
        fingerprint, or the same one under a live coordinator, is a
        :class:`FabricMismatch`.  Multi-campaign scope: a fresh campaign
        id has no manifest (normal submit); a *running* manifest under
        this id is the service-HA re-attach path — adoptable only once
        its previous coordinator's heartbeat went verifiably stale.
        """
        try:
            existing = self.view.get(NS_CAMPAIGN, KEY_MANIFEST)
        except StoreCorrupt:
            return None
        if existing is None or existing.get("status") != MANIFEST_RUNNING:
            return None
        if existing.get("spec_fingerprint") != self.spec_fingerprint:
            if self.campaign_id is not None:
                raise FabricMismatch(
                    f"campaign {self.campaign_id!r} already carries a running "
                    f"manifest for a different spec "
                    f"({existing.get('spec_fingerprint')!r}); refusing to "
                    "overwrite it"
                )
            raise FabricMismatch(
                f"store {self.fabric.store!r} already hosts a running campaign "
                f"(spec {existing.get('spec_fingerprint')!r}); the legacy "
                "layout fits one campaign per store — run concurrent "
                "campaigns through the multi-campaign service instead "
                "(`repro serve` + `repro submit`, see docs/service.md)"
            )
        beat = existing.get("coordinator_heartbeat_at")
        if beat is not None and (
            time.time() - float(beat) < ADOPT_STALE_TTLS * self.fabric.lease_ttl
        ):
            if self.campaign_id is not None:
                raise FabricMismatch(
                    f"campaign {self.campaign_id!r} is still being driven by a "
                    "heartbeating coordinator; refusing to double-drive it"
                )
            raise FabricMismatch(
                f"store {self.fabric.store!r} already hosts this exact "
                "campaign under a coordinator that is still heartbeating; "
                "refusing to adopt a live campaign — cancel it first, or "
                "use the multi-campaign service for concurrent runs "
                "(`repro serve` + `repro submit`, see docs/service.md)"
            )
        log.info("fabric: adopting stale manifest for %s "
                 "(previous coordinator gone)",
                 self.campaign_id or f"spec {self.spec_fingerprint[:12]}")
        return existing

    def _drive(
        self, progress: Optional[Callable[[str, int, int], None]] = None
    ) -> None:
        # Every metric this campaign records — on the drive thread and in
        # the fork pools it spawns, which inherit the forking thread's
        # routing — lands in the campaign-private registry, then folds
        # into the process registry exactly once on completion.  N
        # concurrent campaigns in one service process stay isolated.
        try:
            with METRICS.scoped(self.registry):
                self._drive_scoped(progress)
        finally:
            METRICS.merge(self.registry.snapshot())

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
        # configure_observability is value-idempotent, so it may skip the
        # METRICS.enabled assignment entirely — enable the scoped registry
        # here, explicitly
        self.registry.enabled = bool(spec.obs and spec.obs.metrics)
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
                checkpoint=None, resume=False, cache_dir=None, obs=None,
                fabric=None, service=None,
            )
            manifest = {
                "spec": worker_spec.to_dict(),
                "spec_fingerprint": spec_fp,
                "status": MANIFEST_RUNNING,
                "lease_ttl": fabric.lease_ttl,
                "telemetry_interval": fabric.telemetry_interval,
                "stall_window": fabric.stall_window,
                "created_at": time.time(),
                "coordinator_heartbeat_at": time.time(),
                "campaign_id": self.campaign_id,
                "tenant": self.tenant,
            }
            if adopted is not None and adopted.get("created_at") is not None:
                manifest["created_at"] = adopted["created_at"]  # keep ETA honest
            self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
            self._set_status(MANIFEST_RUNNING)
            BUS.emit("fabric.campaign.start", spec_fingerprint=spec_fp,
                     store=fabric.store, campaign_id=self.campaign_id)

            controller = spec.build_controller()
            controller.cache = RunCache(self.store)
            runner = _FabricStageRunner(
                spec, self.view, cache_store=self.store, cancel_event=self._cancel
            )
            controller.stage_runner = runner
            try:
                result = controller.run_campaign(progress=progress)
            except CampaignCancelled:
                manifest["status"] = MANIFEST_CANCELLED
                self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
                self._set_status(CAMPAIGN_CANCELLED)
                BUS.emit("fabric.campaign.cancelled", spec_fingerprint=spec_fp,
                         campaign_id=self.campaign_id)
                raise
            except BaseException:
                manifest["status"] = MANIFEST_FAILED
                self.view.put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
                self._set_status(CAMPAIGN_FAILED)
                raise
            manifest["status"] = MANIFEST_COMPLETE
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
                if runner.agent.fleet is not None:
                    runner.agent.fleet.publish(
                        PHASE_EXITED, stats=runner.agent.stats, force=True
                    )
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
            if not self.done():
                # failed before the manifest existed (admission, store
                # trouble): still reach a terminal status so waiters and
                # the service's reaper see the campaign as finished
                self._set_status(
                    CAMPAIGN_CANCELLED if isinstance(error, CampaignCancelled)
                    else CAMPAIGN_FAILED
                )
            if isinstance(error, (FabricMismatch, CampaignCancelled)):
                log.info("fabric: campaign %s ended early: %s",
                         self.campaign_id or spec_fp[:12], error)
            else:
                log.exception("fabric: campaign %s failed",
                              self.campaign_id or spec_fp[:12])
        finally:
            if self._owns_store:
                self.store.close()


def run_fabric_campaign(
    spec: CampaignSpec, progress: Optional[Callable[[str, int, int], None]] = None
) -> CampaignResult:
    """Run one campaign distributed over a shared artifact store.

    Thin blocking wrapper over :class:`CampaignHandle` with the legacy
    root layout — the historical entry point, unchanged in contract.
    """
    return CampaignHandle(spec).run(progress=progress)


__all__ = [
    "ADOPT_STALE_TTLS",
    "CampaignCancelled",
    "CampaignHandle",
    "FabricMismatch",
    "run_fabric_campaign",
]
