"""The campaign service: multiplex N concurrent campaigns on one store.

:class:`CampaignService` is the transport-free core — the HTTP layer
(:mod:`repro.service.http`) is a thin codec over it, and tests drive it
directly.  Each submitted spec becomes a campaign-index record plus a
:class:`~repro.fabric.coordinator.CampaignHandle` driving the campaign on
its own daemon thread against the ``campaigns/<id>/...`` scope of the
shared store; any ``repro worker`` pointed at the store picks the units
up through the index.

Admission control, in rejection order:

1. malformed spec, or one naming ``obs.profile_dir`` or ``obs.trace_dir``
   → 422-style
2. spec fingerprint quarantined (kept failing) → 423-style
3. service saturated (``max_total_campaigns`` running) → 503-style
4. tenant at ``max_concurrent_campaigns`` → 429-style

Poison-campaign quarantine: a spec fingerprint whose campaigns *fail*
(not cancel) ``quarantine_after`` times in a row is refused until the
service restarts — a bad testbed config cannot grind the fleet forever.
Completion resets the streak.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.api import CampaignSpec
from repro.fabric.config import FabricConfig
from repro.fabric.coordinator import (
    CampaignCancelled,
    CampaignHandle,
    coordinator_alive,
)
from repro.fabric.store import (
    ACTIVE_CAMPAIGN_STATES,
    CAMPAIGN_RUNNING,
    ArtifactStore,
    CampaignScopedStore,
    load_campaign_index,
    register_campaign,
    store_for,
)
from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN, manifest_fabric
from repro.obs.metrics import METRICS
from repro.service.quota import TenantQuota

log = logging.getLogger("repro.service")

DEFAULT_QUARANTINE_AFTER = 3
DEFAULT_MAX_TOTAL_CAMPAIGNS = 8


class ServiceError(Exception):
    """Base for admission rejections; ``http_status`` maps to the wire."""

    http_status = 500


class QuotaExceeded(ServiceError):
    """The tenant is at its concurrent-campaign quota."""

    http_status = 429


class ServiceSaturated(ServiceError):
    """The service is at its global concurrent-campaign ceiling."""

    http_status = 503


class QuarantinedError(ServiceError):
    """This spec fingerprint kept failing and is quarantined."""

    http_status = 423


class InvalidSpec(ServiceError):
    """The submitted document is not a valid campaign spec."""

    http_status = 422


class UnknownCampaign(ServiceError):
    """No campaign with that id on this store."""

    http_status = 404


class ConflictError(ServiceError):
    """The campaign is not in a state that allows the request."""

    http_status = 409


class CampaignService:
    """N concurrent campaigns over one shared artifact store.

    ``store`` may be an open :class:`ArtifactStore` or a ``store_for``
    URL.  ``quotas`` maps tenant → :class:`TenantQuota`; unknown tenants
    get ``default_quota``.
    """

    def __init__(
        self,
        store: ArtifactStore | str,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        max_total_campaigns: int = DEFAULT_MAX_TOTAL_CAMPAIGNS,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ):
        self.store = store_for(store) if isinstance(store, str) else store
        self.store_url = store if isinstance(store, str) else None
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self.max_total_campaigns = max_total_campaigns
        self.quarantine_after = quarantine_after
        self._lock = threading.Lock()
        self._handles: Dict[str, CampaignHandle] = {}
        #: consecutive-failure streaks per spec fingerprint
        self._failures: Dict[str, int] = {}
        self._quarantined: Dict[str, str] = {}  # fingerprint -> last error

    # ------------------------------------------------------------ quota
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _running_handles(self) -> List[CampaignHandle]:
        return [h for h in self._handles.values() if not h.done()]

    # --------------------------------------------------------- reattach
    def _detached_running(
        self, campaign_id: str, record: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The scoped manifest iff this index record is an adoptable orphan.

        Adoptable means: a service campaign (a ``standalone`` one belongs
        to its ``run_campaign`` caller, whose rerun adopts it), the index
        says running, no live handle in this process, the scoped manifest
        says running, and its coordinator heartbeat is verifiably stale —
        a fresh heartbeat belongs to a coordinator in some other process,
        which we must not double-drive.
        """
        if record.get("standalone") or record.get("status") not in ACTIVE_CAMPAIGN_STATES:
            return None
        handle = self._handles.get(campaign_id)
        if handle is not None and not handle.done():
            return None
        try:
            manifest = CampaignScopedStore(self.store, campaign_id).get(
                NS_CAMPAIGN, KEY_MANIFEST
            )
        except Exception:  # noqa: BLE001 - torn or unreachable manifest
            return None
        if manifest is None or manifest.get("status") != CAMPAIGN_RUNNING:
            return None
        if coordinator_alive(manifest):
            return None
        return manifest

    def _reattach_locked(
        self, campaign_id: str, manifest: Dict[str, Any]
    ) -> Optional[CampaignHandle]:
        """Build (don't start) a handle that resumes ``campaign_id``.

        The spec is rebuilt from the manifest — the exact computation the
        dead coordinator was driving — with the fabric settings it
        recorded, so units keep their ids and a non-participating
        campaign stays one; only the store address is this service's own.
        Fabric is fingerprint-neutral, so the fingerprint must still match
        the manifest's; a mismatch means a corrupt or incompatible
        manifest and the campaign is left alone.
        """
        try:
            spec = CampaignSpec.from_dict(manifest["spec"])
            fabric = dataclasses.replace(
                manifest_fabric(manifest), store=self.store_url or "memory://service"
            )
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            log.warning("service: campaign %s manifest spec unreadable (%s); "
                        "not re-attaching", campaign_id, error)
            return None
        spec = spec.with_overrides(fabric=fabric)
        fingerprint = spec.fingerprint()
        if fingerprint != manifest.get("spec_fingerprint"):
            log.warning("service: campaign %s spec fingerprint drifted "
                        "(%s != %s); not re-attaching", campaign_id,
                        fingerprint[:12], str(manifest.get("spec_fingerprint"))[:12])
            return None
        handle = CampaignHandle(spec, campaign_id, store=self.store)
        self._handles[campaign_id] = handle
        return handle

    def reattach_detached(self) -> List[Dict[str, Any]]:
        """Re-attach drive loops for campaigns orphaned by a dead coordinator.

        Called on service startup (``repro serve``): every index campaign
        still marked running whose scoped manifest carries a stale
        coordinator heartbeat gets a fresh :class:`CampaignHandle` in
        this process — leases, committed results and the warm cache are
        all on the store, so the campaign finishes instead of hanging
        detached forever.  Returns one record per campaign re-attached.
        """
        started: List[CampaignHandle] = []
        reattached: List[Dict[str, Any]] = []
        with self._lock:
            for campaign_id, record in sorted(load_campaign_index(self.store).items()):
                manifest = self._detached_running(campaign_id, record)
                if manifest is None:
                    continue
                handle = self._reattach_locked(campaign_id, manifest)
                if handle is None:
                    continue
                started.append(handle)
                reattached.append({
                    "campaign_id": campaign_id,
                    "tenant": handle.tenant,
                    "spec_fingerprint": handle.spec_fingerprint,
                    "reattached": True,
                })
        for handle in started:
            handle.start()
            METRICS.inc("service.campaigns.reattached")
            log.info("service: re-attached campaign %s (tenant %s)",
                     handle.campaign_id, handle.tenant)
        return reattached

    # ----------------------------------------------------------- submit
    def submit(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Admit one campaign; returns ``{campaign_id, tenant, status}``.

        ``document`` is a ``CampaignSpec.to_dict`` JSON (any supported
        spec version).  The spec's ``fabric.store`` is overridden to the
        service's store — campaigns run where the service runs.  A spec
        naming ``obs.profile_dir`` or ``obs.trace_dir`` is refused: a
        profiled campaign prunes every other ``*.pstats`` file in that
        directory when it finishes, and the event bus is process-wide, so a
        trace directory would record every campaign the service runs.
        """
        try:
            spec = CampaignSpec.from_dict(document)
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            raise InvalidSpec(f"bad campaign spec: {error}") from error
        for name, why in (
            ("profile_dir", "profiling prunes *.pstats files on the service's host"),
            ("trace_dir", "it would record every service campaign's events, "
                          "on the service's host"),
        ):
            if spec.obs is not None and getattr(spec.obs, name):
                raise InvalidSpec(
                    f"bad campaign spec: obs.{name} is not accepted by the service ({why})"
                )
        # the service decides where campaigns run; a submitted store
        # path is ignored in favor of the service's own
        store_url = self.store_url or "memory://service"
        fabric = spec.fabric or FabricConfig(store=store_url)
        fabric = dataclasses.replace(fabric, store=store_url)
        spec = spec.with_overrides(fabric=fabric)
        tenant = spec.tenant
        fingerprint = spec.fingerprint()
        quota = self.quota_for(tenant)

        with self._lock:
            self._reap_locked()
            if fingerprint in self._quarantined:
                METRICS.inc("service.rejects.quarantined")
                raise QuarantinedError(
                    f"spec {fingerprint[:12]} is quarantined after "
                    f"{self.quarantine_after} consecutive failures "
                    f"(last: {self._quarantined[fingerprint]})"
                )
            running = self._running_handles()
            if len(running) >= self.max_total_campaigns:
                METRICS.inc("service.rejects.saturated")
                raise ServiceSaturated(
                    f"{len(running)} campaigns already running "
                    f"(ceiling {self.max_total_campaigns})"
                )
            mine = [h for h in running if h.tenant == tenant]
            if len(mine) >= quota.max_concurrent_campaigns:
                METRICS.inc("service.rejects.quota")
                raise QuotaExceeded(
                    f"tenant {tenant!r} already has {len(mine)} running "
                    f"campaign(s) (quota {quota.max_concurrent_campaigns})"
                )
            # a resubmit of a campaign this store already hosts — running
            # in the index but orphaned by a dead coordinator — attaches
            # to the existing campaign instead of forking a duplicate
            for existing_id, record in sorted(load_campaign_index(self.store).items()):
                if record.get("spec_fingerprint") != fingerprint:
                    continue
                if str(record.get("tenant", "default")) != tenant:
                    continue
                manifest = self._detached_running(existing_id, record)
                if manifest is None:
                    continue
                handle = self._reattach_locked(existing_id, manifest)
                if handle is None:
                    continue
                handle.start()
                METRICS.inc("service.campaigns.reattached")
                log.info("service: resubmit of campaign %s re-attached "
                         "(tenant %s, spec %s)", existing_id, tenant,
                         fingerprint[:12])
                return {
                    "campaign_id": existing_id,
                    "tenant": tenant,
                    "spec_fingerprint": fingerprint,
                    "status": CAMPAIGN_RUNNING,
                    "reattached": True,
                }
            campaign_id = uuid.uuid4().hex[:12]
            register_campaign(self.store, campaign_id, {
                "campaign_id": campaign_id,
                "tenant": tenant,
                "spec_fingerprint": fingerprint,
                "status": CAMPAIGN_RUNNING,
                "max_leased_units": quota.max_leased_units,
                "created_at": time.time(),
                "updated_at": time.time(),
            })
            handle = CampaignHandle(spec, campaign_id, store=self.store)
            self._handles[campaign_id] = handle
        handle.start()
        METRICS.inc("service.campaigns.submitted")
        log.info("service: campaign %s submitted by tenant %s (spec %s)",
                 campaign_id, tenant, fingerprint[:12])
        return {
            "campaign_id": campaign_id,
            "tenant": tenant,
            "spec_fingerprint": fingerprint,
            "status": CAMPAIGN_RUNNING,
        }

    def _reap_locked(self) -> None:
        """Fold finished handles into the quarantine bookkeeping."""
        for campaign_id, handle in list(self._handles.items()):
            if not handle.done():
                continue
            fingerprint = handle.spec_fingerprint
            try:
                handle.result(timeout=0)
            except CampaignCancelled:
                self._failures.pop(fingerprint, None)  # cancels are not poison
            except BaseException as error:  # noqa: BLE001 - any failure counts
                streak = self._failures.get(fingerprint, 0) + 1
                self._failures[fingerprint] = streak
                if streak >= self.quarantine_after:
                    self._quarantined[fingerprint] = f"{type(error).__name__}: {error}"
                    METRICS.inc("service.quarantines")
                    log.warning("service: quarantining spec %s after %d failures",
                                fingerprint[:12], streak)
            else:
                self._failures.pop(fingerprint, None)

    # ----------------------------------------------------------- status
    def _handle_for(self, campaign_id: str) -> Optional[CampaignHandle]:
        with self._lock:
            return self._handles.get(campaign_id)

    def status(self, campaign_id: str) -> Dict[str, Any]:
        """Live status + fleet health for one campaign.

        Works with or without an in-process handle (the index record and
        the campaign scope are on the store), so a restarted service can
        still report on campaigns an earlier process drove.
        """
        handle = self._handle_for(campaign_id)
        if handle is not None:
            return handle.poll()
        record = load_campaign_index(self.store).get(campaign_id)
        if record is None:
            raise UnknownCampaign(f"no campaign {campaign_id!r}")
        return {
            "campaign_id": campaign_id,
            "tenant": record.get("tenant"),
            "status": record.get("status"),
            "spec_fingerprint": record.get("spec_fingerprint"),
            "detached": True,  # no live coordinator in this process
        }

    def list_campaigns(self) -> List[Dict[str, Any]]:
        """Every index record, newest first, with liveness folded in."""
        with self._lock:
            self._reap_locked()
        records = sorted(
            load_campaign_index(self.store).values(),
            key=lambda r: r.get("created_at", 0.0),
            reverse=True,
        )
        return records

    # ----------------------------------------------------------- cancel
    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        handle = self._handle_for(campaign_id)
        if handle is None:
            if load_campaign_index(self.store).get(campaign_id) is None:
                raise UnknownCampaign(f"no campaign {campaign_id!r}")
            raise UnknownCampaign(
                f"campaign {campaign_id!r} has no live coordinator in this "
                "service process; nothing to cancel"
            )
        accepted = handle.cancel()
        METRICS.inc("service.campaigns.cancelled" if accepted
                    else "service.cancel_noops")
        return {
            "campaign_id": campaign_id,
            "cancelled": accepted,
            "status": handle.status,
        }

    # ----------------------------------------------------------- report
    def report(self, campaign_id: str) -> Dict[str, Any]:
        """The finished campaign's result document; 409-style if running."""
        handle = self._handle_for(campaign_id)
        if handle is None:
            if load_campaign_index(self.store).get(campaign_id) is None:
                raise UnknownCampaign(f"no campaign {campaign_id!r}")
            raise ConflictError(
                f"campaign {campaign_id!r} has no live coordinator in this "
                "service process; re-submit the spec to recompute its report "
                "(the warm cache makes that free)"
            )
        if not handle.done():
            raise ConflictError(f"campaign {campaign_id!r} is still running")
        try:
            result = handle.result(timeout=0)
        except BaseException as error:  # noqa: BLE001 - surfaced, not raised
            return {
                "campaign_id": campaign_id,
                "status": handle.status,
                "error": f"{type(error).__name__}: {error}",
            }
        # cache_hits/runs_completed come from the result's own run
        # outcomes, NOT from the metrics registry: metric counters are
        # process-cumulative, so in a long-lived service they fold in
        # every earlier campaign this process drove
        return {
            "campaign_id": campaign_id,
            "status": handle.status,
            "tenant": handle.tenant,
            "spec_fingerprint": handle.spec_fingerprint,
            "table1_row": result.table1_row(),
            "health_row": result.health_row(),
            "fabric": result.fabric or {},
            "cache_hits": result.cache_hits,
            "runs_completed": result.runs_executed,
        }

    # ------------------------------------------------------------ admin
    def overview(self) -> Dict[str, Any]:
        """Service-wide rollup for ``GET /`` and the CLI banner."""
        with self._lock:
            self._reap_locked()
            running = self._running_handles()
            return {
                "running": len(running),
                "tracked": len(self._handles),
                "quarantined_specs": len(self._quarantined),
                "max_total_campaigns": self.max_total_campaigns,
                "tenants": sorted({h.tenant for h in self._handles.values()}),
            }

    def close(self, cancel_running: bool = True, timeout: float = 30.0) -> None:
        """Stop every campaign this process drives."""
        with self._lock:
            handles = list(self._handles.values())
        if cancel_running:
            for handle in handles:
                handle.cancel()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.join(max(0.0, deadline - time.monotonic()))


__all__ = [
    "CampaignService",
    "ConflictError",
    "InvalidSpec",
    "QuarantinedError",
    "QuotaExceeded",
    "ServiceError",
    "ServiceSaturated",
    "UnknownCampaign",
]
