"""The multi-tenant campaign service: an HTTP control plane over the fabric.

``repro serve`` runs :class:`~repro.service.http.ServiceServer`, a
stdlib ``http.server.ThreadingHTTPServer`` front end over
:class:`~repro.service.app.CampaignService`, which multiplexes N
concurrent campaigns on one shared artifact store through
:class:`~repro.fabric.coordinator.CampaignHandle` objects — one
coordinator thread per running campaign, every campaign's manifest,
leases, ledger and telemetry keyed under ``campaigns/<id>/...``, and the
run cache shared across all of them at the store root.

Endpoints (see ``docs/service.md`` for the full contract):

- ``POST /campaigns``              — submit a ``CampaignSpec`` JSON
- ``GET  /campaigns``              — list campaigns (index records)
- ``GET  /campaigns/{id}``         — status + fleet health counters
- ``POST /campaigns/{id}/cancel``  — stop a running campaign
- ``GET  /campaigns/{id}/report``  — the finished campaign's report
- ``GET  /healthz``                — liveness probe

Per-tenant quotas (max concurrent campaigns, max leased units) are
enforced at submit and claim time respectively; campaigns whose spec
keeps failing are quarantined so a poison spec cannot grind the fleet.
"""

from repro.service.app import (
    CampaignService,
    QuarantinedError,
    QuotaExceeded,
    ServiceSaturated,
    UnknownCampaign,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceServer, serve
from repro.service.quota import TenantQuota, parse_quota_flag

__all__ = [
    "CampaignService",
    "QuarantinedError",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceSaturated",
    "ServiceServer",
    "TenantQuota",
    "UnknownCampaign",
    "parse_quota_flag",
    "serve",
]
