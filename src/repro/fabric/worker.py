"""The fabric worker: a per-host agent that executes leased work units.

``repro worker --store <path>`` starts one of these next to a shared
artifact store.  It finds running campaigns through the campaign index,
then loops: claim a unit, heartbeat its lease from a background thread,
execute the unit's strategies through the same pull-dispatch runtime a
single-process campaign uses (a :class:`SupervisedWorkerPool` per host,
tuned by the spec's ``supervision``), commit every outcome idempotently to
the campaign's result ledger *as it arrives*, and mark the unit done.

Crash semantics, in order of violence:

* Worker SIGKILLed mid-unit — heartbeats stop, the lease expires after
  ``lease_ttl``, any other participant reclaims the unit.  Outcomes the
  dead worker already committed stay committed; the reclaimer's repeats
  become counted duplicates.
* Worker loses its lease but is still alive (a stall longer than the
  TTL) — ``renew`` returns ``False``; the worker finishes the unit
  anyway, because its commits are idempotent and work done is work done.
* Worker dies between the last commit and ``complete`` — the reclaimed
  unit re-executes against a warm shared cache and every commit is a
  duplicate; accounting is unchanged.

Fault hooks (test/CI only), via ``REPRO_TEST_FAULT``:

* ``fabric-stale-lease`` — claim, then never heartbeat and sleep past the
  TTL before executing, forcing a reclaim race on a live owner.
* ``fabric-commit-crash:<k>`` — SIGKILL-style ``os._exit`` after ``k``
  ledger commits, the "died after executing, before finishing the unit"
  case.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Set

from repro.api import CampaignSpec
from repro.core.cache import RunCache
from repro.core.executor import RunOutcome
from repro.core.parallel import run_strategies
from repro.core.strategy import Strategy
from repro.core.supervisor import SupervisedWorkerPool
from repro.fabric.config import FabricConfig
from repro.fabric.ledger import ResultLedger
from repro.fabric.leases import LeaseQueue
from repro.fabric.store import (
    ACTIVE_CAMPAIGN_STATES,
    CAMPAIGN_RUNNING,
    ArtifactStore,
    CampaignScopedStore,
    fault_hook,
    load_campaign_index,
)
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.fleet import (
    PHASE_EXECUTING,
    PHASE_EXITED,
    PHASE_IDLE,
    ROLE_WORKER,
    FleetPublisher,
)
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.fabric.worker")

NS_CAMPAIGN = "campaign"
KEY_MANIFEST = "manifest"


def manifest_fabric(manifest: Dict[str, Any]) -> FabricConfig:
    """The :class:`FabricConfig` a campaign manifest records; a manifest
    written before it recorded one reads as the defaults."""
    return FabricConfig.from_dict({"store": "unrecorded", **(manifest.get("fabric") or {})})


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def decode_strategy(data: Optional[Dict[str, Any]]) -> Optional[Strategy]:
    """Rebuild a unit-slot strategy (``None`` = baseline run)."""
    if data is None:
        return None
    return Strategy(
        strategy_id=data["strategy_id"],
        protocol=data["protocol"],
        kind=data["kind"],
        state=data.get("state"),
        packet_type=data.get("packet_type"),
        action=data.get("action"),
        params=data.get("params") or {},
    )


def encode_strategy(strategy: Optional[Strategy]) -> Optional[Dict[str, Any]]:
    """Inverse of :func:`decode_strategy` (canonical form + id)."""
    if strategy is None:
        return None
    form = strategy.canonical_form()
    form["strategy_id"] = strategy.strategy_id
    return form


class CampaignContext:
    """Everything a participant needs to serve one campaign on a shared store.

    A context binds the campaign's ``campaigns/<id>/...`` view of the
    store to its lease queue, ledger, fleet publisher and lazily-started
    worker pool, all as its manifest describes them.  A worker builds one
    per indexed campaign (``record`` is its index entry); a participating
    coordinator builds one from the manifest it publishes.  The run cache
    reads the store root, not the campaign's scope: identical runs are
    deliberately shared across campaigns and tenants.
    """

    def __init__(
        self,
        worker: "FabricWorker",
        campaign_id: str,
        manifest: Dict[str, Any],
        role: str = ROLE_WORKER,
        record: Optional[Dict[str, Any]] = None,
    ):
        record = record or {}
        self.campaign_id = campaign_id
        self.tenant = str(record.get("tenant", "default"))
        #: driven by a ``run_campaign`` caller rather than a service
        self.standalone = bool(record.get("standalone"))
        raw_quota = record.get("max_leased_units")
        self.max_leased_units: Optional[int] = (
            None if raw_quota is None else int(raw_quota)
        )
        self.store = CampaignScopedStore(worker.store, campaign_id)
        self.spec = CampaignSpec.from_dict(manifest["spec"])
        fabric = manifest_fabric(manifest)
        self.queue = LeaseQueue(self.store, ttl=fabric.lease_ttl)
        self.ledger = ResultLedger(self.store)
        self.cache = RunCache(worker.store)
        self.fleet: Optional[FleetPublisher] = None
        if fabric.telemetry_interval > 0:
            self.fleet = FleetPublisher(
                self.store,
                worker.worker_id,
                role=role,
                interval=fabric.telemetry_interval,
                spec_fingerprint=manifest.get("spec_fingerprint"),
            )
        self._worker = worker
        self._pool: Optional[SupervisedWorkerPool] = None

    def pool(self) -> SupervisedWorkerPool:
        """The per-campaign worker pool, started on first use."""
        if self._pool is None:
            self._pool = SupervisedWorkerPool(
                workers=self._worker.workers, obs=self._worker.obs,
                supervision=self.spec.supervision,
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None


class FabricWorker:
    """One per-host agent pulling leased units from a shared store."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: Optional[int] = None,
        obs: Optional[ObsConfig] = None,
        poll_interval: float = 0.2,
        worker_id: Optional[str] = None,
    ):
        self.store = store
        self.workers = workers
        self.obs = obs
        self.poll_interval = poll_interval
        self.worker_id = worker_id or default_worker_id()
        self.stats: Dict[str, int] = {"units": 0, "runs": 0, "commits": 0, "duplicates": 0}
        #: distinct campaigns this worker has executed units for —
        #: fairness tests read this
        self.served_campaigns: Set[str] = set()
        self._rotation = 0
        self._obs_configured = False
        self._commits_until_crash: Optional[int] = None
        raw = fault_hook("fabric-commit-crash")
        if raw is not None:
            self._commits_until_crash = max(1, int(raw))

    # ------------------------------------------------------------------
    def publish(
        self,
        ctx: CampaignContext,
        phase: str,
        unit: Optional[str] = None,
        stage: Optional[str] = None,
        force: bool = False,
    ) -> None:
        """Publish this participant's status to ``ctx``'s fleet plane, if on."""
        if ctx.fleet is not None:
            ctx.fleet.publish(
                phase, unit=unit, stage=stage, stats=self.stats, force=force
            )

    # ------------------------------------------------------------------
    def run_one(self, ctx: CampaignContext, pool: SupervisedWorkerPool) -> bool:
        """Claim and execute one unit of ``ctx``'s campaign on ``pool``;
        ``False`` when nothing was claimable."""
        spec, queue = ctx.spec, ctx.queue
        unit = queue.claim(self.worker_id)
        if unit is None:
            return False
        unit_id = unit["unit_id"]
        stage = unit["stage"]
        seed = unit.get("seed")
        slots = unit.get("slots", [])
        strategies = [decode_strategy(slot.get("strategy")) for slot in slots]
        fingerprints = [slot["fingerprint"] for slot in slots]
        log.info("worker %s: unit %s (%d slot(s), stage=%s)",
                 self.worker_id, unit_id[:12], len(slots), stage)
        METRICS.inc("fabric.units.executed")
        BUS.emit("fabric.unit.start", unit=unit_id, owner=self.worker_id, slots=len(slots))
        self.publish(ctx, PHASE_EXECUTING, unit=unit_id, stage=stage, force=True)

        stale = fault_hook("fabric-stale-lease") is not None
        stop_heartbeat = threading.Event()
        # the heartbeat thread must record into the same metrics scope as
        # the thread that spawned it (thread-locals do not inherit) — the
        # coordinator participates via run_one on its scoped drive thread
        scope = METRICS.active_registry()

        def heartbeat_loop() -> None:
            renew_interval = max(queue.ttl / 3.0, 0.05)
            wake = renew_interval
            if ctx.fleet is not None:
                # wake at telemetry cadence too, not just lease cadence — a
                # long-running unit must not look stalled between commits
                wake = min(wake, max(ctx.fleet.interval, 0.05))
            renewing = True
            next_renew = time.monotonic() + renew_interval
            while not stop_heartbeat.wait(wake):
                self.publish(ctx, PHASE_EXECUTING, unit=unit_id, stage=stage)
                if renewing and time.monotonic() >= next_renew:
                    next_renew = time.monotonic() + renew_interval
                    try:
                        renewed = queue.renew(unit_id, self.worker_id)
                    except OSError as error:
                        # store outage: keep trying — the lease renews
                        # late, but within the TTL grace window as long
                        # as the store comes back; dying silently here
                        # would forfeit a lease the owner still holds
                        METRICS.inc("fabric.heartbeat_errors")
                        log.warning("worker %s: lease renew on %s hit a store "
                                    "fault (%s); retrying next beat",
                                    self.worker_id, unit_id[:12], error)
                        continue
                    if not renewed:
                        log.warning("worker %s: lost lease on %s; finishing anyway "
                                    "(commits are idempotent)", self.worker_id, unit_id[:12])
                        renewing = False
                        if ctx.fleet is None:
                            return

        def heartbeat() -> None:
            if scope is not None:
                with METRICS.scoped(scope):
                    heartbeat_loop()
            else:
                heartbeat_loop()

        thread: Optional[threading.Thread] = None
        if stale:
            # never renew, and outlive the TTL so another participant
            # reclaims a unit whose first owner is alive and working
            time.sleep(queue.ttl * 1.5)
        else:
            thread = threading.Thread(target=heartbeat, daemon=True)
            thread.start()

        def commit(index: int, outcome: RunOutcome) -> None:
            fresh = ctx.ledger.commit(stage, fingerprints[index], outcome)
            self.stats["commits" if fresh else "duplicates"] += 1
            if self._commits_until_crash is not None:
                self._commits_until_crash -= 1
                if self._commits_until_crash <= 0:
                    os._exit(117)  # simulated death after executing, before completing
            self.publish(ctx, PHASE_EXECUTING, unit=unit_id, stage=stage)

        try:
            run_strategies(
                spec.testbed,
                strategies,
                seed=seed,
                retries=spec.retry.retries,
                on_result=commit,
                obs=self.obs,
                stage=stage,
                cache=ctx.cache,
                pool=pool,
                snapshots=spec.snapshots,
            )
        finally:
            stop_heartbeat.set()
            if thread is not None:
                thread.join(timeout=5.0)
        queue.complete(unit_id, self.worker_id)
        self.stats["units"] += 1
        self.stats["runs"] += len(slots)
        # force-publish the cumulative snapshot at every unit boundary so
        # the coordinator's final cross-host fold never misses this unit
        self.publish(ctx, PHASE_IDLE, force=True)
        return True

    # ------------------------------------------------------------------
    def _on_context(self, ctx: CampaignContext) -> None:
        """First sighting of a campaign: enable obs/telemetry as needed."""
        if ctx.fleet is not None and (self.obs is None or not self.obs.metrics):
            # the coordinator strips ``obs`` from the worker spec, so a
            # telemetry-carrying campaign must self-enable metrics
            self.obs = (
                ObsConfig(metrics=True)
                if self.obs is None
                else dataclasses.replace(self.obs, metrics=True)
            )
        if self.obs is not None and not self._obs_configured:
            configure_observability(self.obs)
            self._obs_configured = True
        self.publish(ctx, PHASE_IDLE, force=True)

    def _retire(self, ctx: CampaignContext) -> None:
        # an exited record is never a straggler; cumulative stats and
        # metrics stay readable for the coordinator's final fold
        self.publish(ctx, PHASE_EXITED, force=True)
        ctx.close()

    def _refresh_contexts(
        self,
        contexts: Dict[str, CampaignContext],
        index: Dict[str, Dict[str, Any]],
    ) -> List[CampaignContext]:
        """Sync the context map with the campaign index; return servable
        campaigns — those whose record *and* scoped manifest say running.

        Contexts for ended campaigns are retired (pool shut down, exited
        status published).
        """
        active: List[CampaignContext] = []
        alive = set()
        for campaign_id, record in sorted(index.items()):
            if record.get("status") not in ACTIVE_CAMPAIGN_STATES:
                continue
            ctx = contexts.get(campaign_id)
            view = ctx.store if ctx is not None else CampaignScopedStore(
                self.store, campaign_id
            )
            try:
                manifest = view.get(NS_CAMPAIGN, KEY_MANIFEST)
            except Exception:
                manifest = None
            if manifest is None or manifest.get("status") != CAMPAIGN_RUNNING:
                continue  # no coordinator driving it (yet), or retired below
            if ctx is None:
                ctx = CampaignContext(self, campaign_id, manifest, record=record)
                contexts[campaign_id] = ctx
                self._on_context(ctx)
            alive.add(campaign_id)
            active.append(ctx)
        for key in [k for k in contexts if k not in alive]:
            self._retire(contexts.pop(key))
        return active

    def _quota_blocked(
        self, ctx: CampaignContext, active: List[CampaignContext]
    ) -> bool:
        """True when claiming for ``ctx`` would put its tenant over quota.

        The quota is fleet-wide: live leases held across *all* of the
        tenant's campaigns, by any worker, count against it.
        """
        if ctx.max_leased_units is None:
            return False
        held = sum(c.queue.leased_count() for c in active if c.tenant == ctx.tenant)
        if held >= ctx.max_leased_units:
            METRICS.inc("fabric.quota.deferrals")
            return True
        return False

    def _rotate(self, active: List[CampaignContext]) -> List[CampaignContext]:
        """Round-robin view of ``active``: each pass starts one further
        along, so no campaign monopolizes a worker while others starve."""
        if not active:
            return []
        start = self._rotation % len(active)
        self._rotation += 1
        return active[start:] + active[:start]

    def run(
        self,
        once: bool = False,
        idle_exit: Optional[float] = None,
        manifest_timeout: Optional[float] = None,
    ) -> Dict[str, int]:
        """Serve units until the campaign(s) end (or ``once``/``idle_exit``).

        Every running campaign in the index is served round-robin,
        skipping campaigns whose tenant is at its leased-units quota.  A
        worker that has served only ``standalone`` campaigns (driven by
        ``repro campaign --fabric``) exits once none of them is running,
        as does one that finds every indexed campaign standalone and over
        before doing any work; a worker that has served a service
        campaign stays for the next one until ``idle_exit``.

        ``manifest_timeout`` bounds the initial wait for any campaign to
        appear; ``idle_exit`` seconds with neither claimable work nor a
        running campaign ends the loop — CI uses it so orphaned workers
        cannot outlive their test.
        """
        deadline = (
            None if manifest_timeout is None else time.monotonic() + manifest_timeout
        )
        contexts: Dict[str, CampaignContext] = {}
        idle_since: Optional[float] = None
        seen_work = False
        service_seen = False
        try:
            while True:
                try:
                    index = load_campaign_index(self.store)
                    active = self._refresh_contexts(contexts, index)
                except OSError as error:
                    # store outage: the worker outlives it — back off and
                    # rediscover once the store answers again
                    METRICS.inc("fabric.store_outages")
                    log.warning("worker %s: store unavailable (%s); backing off",
                                self.worker_id, error)
                    time.sleep(self.poll_interval)
                    continue
                service_seen = service_seen or any(not c.standalone for c in active)
                if active:
                    seen_work = True
                elif not seen_work:
                    if index and all(
                        r.get("standalone")
                        and r.get("status") not in ACTIVE_CAMPAIGN_STATES
                        for r in index.values()
                    ):
                        log.info("worker %s: campaign already over; exiting",
                                 self.worker_id)
                        return self.stats
                    if deadline is not None and time.monotonic() > deadline:
                        log.info("worker %s: no running campaign manifest; "
                                 "exiting", self.worker_id)
                        return self.stats
                    time.sleep(self.poll_interval)
                    continue
                elif not service_seen:
                    return self.stats  # every standalone campaign ended; drain out
                served = False
                for ctx in self._rotate(active):
                    try:
                        if self._quota_blocked(ctx, active):
                            continue
                        served = self.run_one(ctx, ctx.pool())
                    except OSError as error:
                        # store outage mid-unit: drop the attempt — the
                        # lease expires and any participant reclaims it;
                        # commits already made stay committed
                        METRICS.inc("fabric.store_outages")
                        log.warning("worker %s: unit serve hit a store fault "
                                    "(%s); lease will be reclaimed",
                                    self.worker_id, error)
                        continue
                    if served:
                        self.served_campaigns.add(ctx.campaign_id)
                        break
                if once:
                    return self.stats
                if served:
                    idle_since = None
                    continue
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if idle_exit is not None and now - idle_since > idle_exit:
                    log.info("worker %s: idle for %.1fs; exiting",
                             self.worker_id, idle_exit)
                    return self.stats
                for ctx in active:
                    self.publish(ctx, PHASE_IDLE)
                time.sleep(self.poll_interval)
        finally:
            for ctx in contexts.values():
                self._retire(ctx)


__all__ = [
    "KEY_MANIFEST",
    "NS_CAMPAIGN",
    "CampaignContext",
    "FabricWorker",
    "decode_strategy",
    "default_worker_id",
    "encode_strategy",
    "manifest_fabric",
]
