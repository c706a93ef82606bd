"""Crash-safe distributed campaign fabric.

Shards a campaign's sweep into fingerprint-addressed work units on a
shared :class:`~repro.fabric.store.ArtifactStore`, leases them to
``repro worker`` processes with TTL + heartbeat renewal, and accounts
results exactly once through an idempotent ledger keyed by run
fingerprint.  Submodules:

- ``store``       — pluggable artifact store (local-dir and in-memory
  backends; ``dir://`` / ``memory://`` URLs) plus the store layout
  (campaign index + campaign-scoped views)
- ``config``      — :class:`FabricConfig` spec fragment
- ``leases``      — TTL work-lease queue with reclaim of crashed owners
- ``ledger``      — exactly-once result commits keyed by run fingerprint
- ``worker``      — the per-host agent behind ``repro worker``; serves
  every running campaign on the store round-robin under tenant quotas
- ``coordinator`` — :class:`~repro.fabric.coordinator.CampaignHandle`,
  the resumable driver shared by the CLI and the HTTP service
"""

from repro.fabric.config import FabricConfig
from repro.fabric.ledger import ResultLedger
from repro.fabric.leases import LeaseQueue, unit_fingerprint
from repro.fabric.store import (
    NS_CAMPAIGN_INDEX,
    NS_TELEMETRY,
    ArtifactStore,
    CampaignScopedStore,
    LocalDirStore,
    MemoryStore,
    StoreCorrupt,
    clear_statuses,
    load_campaign_index,
    load_statuses,
    publish_status,
    register_campaign,
    store_for,
    update_campaign,
)

__all__ = [
    "NS_CAMPAIGN_INDEX",
    "NS_TELEMETRY",
    "ArtifactStore",
    "CampaignScopedStore",
    "FabricConfig",
    "LeaseQueue",
    "LocalDirStore",
    "MemoryStore",
    "ResultLedger",
    "StoreCorrupt",
    "clear_statuses",
    "load_campaign_index",
    "load_statuses",
    "publish_status",
    "register_campaign",
    "store_for",
    "unit_fingerprint",
    "update_campaign",
]
