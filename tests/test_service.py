"""The multi-tenant campaign service: admission control (quota /
saturation / quarantine), the resumable CampaignHandle lifecycle, fair
multi-campaign workers, and the threading HTTP control plane.

The expensive end-to-end checks pin the service's contract: two
concurrent campaigns from distinct tenants on one shared store, served
by shared workers, each accounted exactly once.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import CampaignSpec
from repro.core.controller import Controller
from repro.core.executor import TestbedConfig
from repro.fabric import MemoryStore
from repro.fabric.config import FabricConfig
from repro.fabric.store import campaign_namespace
from repro.fabric.worker import FabricWorker
from repro.service import (
    CampaignService,
    QuarantinedError,
    QuotaExceeded,
    ServiceClient,
    ServiceSaturated,
    ServiceServer,
    TenantQuota,
    UnknownCampaign,
    parse_quota_flag,
)
from repro.service.app import ConflictError, InvalidSpec
from repro.service.client import ServiceHTTPError
from repro.service.http import MAX_BODY_BYTES

FAST = dict(duration=0.5, file_size=200_000)


def _spec_doc(tenant="default", participate=True, checkpoint=None,
              file_size=200_000, sample_every=500):
    """A fast, valid campaign-spec document for submission."""
    spec = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13",
                              duration=0.5, file_size=file_size),
        workers=1,
        sample_every=sample_every,
        tenant=tenant,
        checkpoint=checkpoint,
        fabric=FabricConfig(
            store="memory://overridden-by-service",
            lease_ttl=5.0, lease_size=2, poll_interval=0.05,
            participate=participate, telemetry_interval=0.2,
        ),
    )
    return spec.to_dict()


def _wait_done(service, campaign_id, timeout=120.0):
    """Poll the service until the campaign reaches a terminal status."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.status(campaign_id)["status"]
        if status not in ("pending", "running"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} still running after {timeout}s")


@pytest.fixture
def service():
    MemoryStore.reset_registry()
    svc = CampaignService(
        "memory://service-test",
        quotas={"small": TenantQuota(max_concurrent_campaigns=1,
                                     max_leased_units=4)},
    )
    yield svc
    svc.close()
    MemoryStore.reset_registry()


class TestTenantQuota:
    def test_parse_quota_flag(self):
        quotas = parse_quota_flag("alice=3:16,bob=1:4")
        assert quotas["alice"] == TenantQuota(3, 16)
        assert quotas["bob"] == TenantQuota(1, 4)

    def test_parse_rejects_nonsense(self):
        for flag in ("alice", "alice=3", "alice=0:4", "alice=3:0", "=3:4"):
            with pytest.raises(ValueError):
                parse_quota_flag(flag)

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent_campaigns=0)
        with pytest.raises(ValueError):
            TenantQuota(max_leased_units=0)


class TestAdmission:
    def test_malformed_spec_rejected(self, service):
        with pytest.raises(InvalidSpec):
            service.submit({"version": 99, "nonsense": True})
        with pytest.raises(InvalidSpec):
            service.submit({"testbed": ["not", "a", "mapping"]})
        with pytest.raises(InvalidSpec):
            service.submit({"fabric": {"store": "s", "lease_ttl": -1}})

    def test_unknown_campaign_everywhere(self, service):
        with pytest.raises(UnknownCampaign):
            service.status("nope")
        with pytest.raises(UnknownCampaign):
            service.cancel("nope")
        with pytest.raises(UnknownCampaign):
            service.report("nope")

    def test_over_quota_tenant_is_rejected(self, service):
        # tenant "small" may run one campaign; participate=False with no
        # workers means the first never finishes on its own
        first = service.submit(_spec_doc(tenant="small", participate=False))
        try:
            with pytest.raises(QuotaExceeded):
                service.submit(_spec_doc(tenant="small", participate=False,
                                         sample_every=400))
            # an unrelated tenant is not affected by small's quota
            other = service.submit(_spec_doc(tenant="big", participate=False))
            service.cancel(other["campaign_id"])
        finally:
            service.cancel(first["campaign_id"])
        assert _wait_done(service, first["campaign_id"]) == "cancelled"

    def test_saturated_service_rejects_any_tenant(self):
        MemoryStore.reset_registry()
        svc = CampaignService("memory://saturated", max_total_campaigns=1)
        try:
            first = svc.submit(_spec_doc(tenant="a", participate=False))
            with pytest.raises(ServiceSaturated):
                svc.submit(_spec_doc(tenant="b", participate=False))
            svc.cancel(first["campaign_id"])
            _wait_done(svc, first["campaign_id"])
        finally:
            svc.close()
            MemoryStore.reset_registry()

    def test_quarantine_after_consecutive_failures(self, monkeypatch):
        def boom(self, progress=None):
            raise RuntimeError("poison testbed")

        monkeypatch.setattr(Controller, "run_campaign", boom)
        MemoryStore.reset_registry()
        svc = CampaignService("memory://quarantine", quarantine_after=2)
        try:
            doc = _spec_doc()
            for _ in range(2):
                out = svc.submit(doc)
                assert _wait_done(svc, out["campaign_id"]) == "failed"
            with pytest.raises(QuarantinedError, match="quarantined"):
                svc.submit(doc)
            # a different spec fingerprint is not tarred by the same brush
            other = svc.submit(_spec_doc(sample_every=123))
            assert _wait_done(svc, other["campaign_id"]) == "failed"
        finally:
            svc.close()
            MemoryStore.reset_registry()

    def test_cancellations_are_not_poison(self, service):
        doc = _spec_doc(tenant="small", participate=False)
        for _ in range(4):  # > quarantine_after: cancels must not accumulate
            out = service.submit(doc)
            service.cancel(out["campaign_id"])
            assert _wait_done(service, out["campaign_id"]) == "cancelled"


class TestCampaignLifecycle:
    def test_submit_runs_to_completion_with_report(self, service):
        out = service.submit(_spec_doc(tenant="alice"))
        campaign_id = out["campaign_id"]
        with pytest.raises(ConflictError):
            service.report(campaign_id)  # not finished yet
        assert _wait_done(service, campaign_id) == "complete"
        report = service.report(campaign_id)
        assert report["status"] == "complete"
        assert report["tenant"] == "alice"
        assert report["table1_row"]["strategies_tried"] > 0
        assert report["fabric"]["commits"] > 0
        status = service.status(campaign_id)
        assert status["results_committed"] > 0
        assert campaign_id in [r["campaign_id"] for r in service.list_campaigns()]

    def test_warm_resubmit_reuses_the_shared_cache(self, service):
        first = service.submit(_spec_doc(tenant="alice"))
        assert _wait_done(service, first["campaign_id"]) == "complete"
        # same computation, different tenant: the run cache is shared at
        # the store root, so nothing is re-enqueued or re-executed
        again = service.submit(_spec_doc(tenant="bob"))
        assert _wait_done(service, again["campaign_id"]) == "complete"
        report = service.report(again["campaign_id"])
        assert report["fabric"]["leases_enqueued"] == 0
        assert report["fabric"]["worker_units"] == 0
        # runs_completed is per-campaign exact (counted from the run
        # outcomes, not the process-cumulative metrics registry): the
        # first campaign's executions must not leak into this one
        assert report["runs_completed"] == 0
        assert report["cache_hits"] > 0
        assert report["table1_row"] == service.report(
            first["campaign_id"])["table1_row"]

    def test_snapshots_never_leave_the_worker(self, service, tmp_path):
        # a submitted spec cannot point the snapshot engine at a path:
        # a leftover ``snapshots.store`` key is ignored
        snaps = tmp_path / "snaps"
        doc = {**_spec_doc(), "snapshots": {"enabled": True, "min_events": 0,
                                             "store": f"dir://{snaps}"}}
        out = service.submit(doc)
        assert _wait_done(service, out["campaign_id"]) == "complete"
        assert not snaps.exists()

    def test_profile_dir_is_refused(self, service, tmp_path):
        # a profiled campaign prunes every other *.pstats file in its
        # profile directory, which would be on the service's host
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        bystander = profiles / "someone-elses.pstats"
        bystander.write_bytes(b"not ours")
        doc = {**_spec_doc(), "obs": {"profile_dir": str(profiles), "profile_keep": 1}}
        with pytest.raises(InvalidSpec, match="obs.profile_dir"):
            service.submit(doc)
        assert service.list_campaigns() == []
        assert service.overview()["running"] == 0
        assert [p.name for p in profiles.iterdir()] == ["someone-elses.pstats"]
        assert bystander.read_bytes() == b"not ours"

    def test_trace_dir_is_refused(self, service, tmp_path):
        # the event bus is process-wide: one tenant's trace directory would
        # record every service campaign's events, on the service's host
        traces = tmp_path / "traces"
        with pytest.raises(InvalidSpec, match="obs.trace_dir"):
            service.submit({**_spec_doc(), "obs": {"trace_dir": str(traces)}})
        assert service.list_campaigns() == []
        assert not traces.exists()

    def test_cancel_mid_sweep(self, service):
        out = service.submit(_spec_doc(tenant="small", participate=False))
        campaign_id = out["campaign_id"]
        cancelled = service.cancel(campaign_id)
        assert cancelled["cancelled"] is True
        assert _wait_done(service, campaign_id) == "cancelled"
        # a finished campaign cannot be re-cancelled
        assert service.cancel(campaign_id)["cancelled"] is False
        report = service.report(campaign_id)
        assert report["status"] == "cancelled" and "error" in report

    def test_overview_rolls_up(self, service):
        out = service.submit(_spec_doc(tenant="alice"))
        overview = service.overview()
        assert overview["running"] >= 1
        assert "alice" in overview["tenants"]
        _wait_done(service, out["campaign_id"])


class TestSharedWorkers:
    def test_worker_serves_across_campaigns_until_idle_exit(self, service):
        worker = FabricWorker(service.store, workers=1, poll_interval=0.05)
        ended = {}

        def serve():
            worker.run(idle_exit=2.0, manifest_timeout=60.0)
            ended["worker"] = time.monotonic()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            first = service.submit(_spec_doc(participate=False))
            assert _wait_done(service, first["campaign_id"]) == "complete"
            time.sleep(0.5)  # ten poll intervals with nothing running
            assert thread.is_alive(), "a service worker left with its campaign"
            # the same worker serves the next campaign that arrives
            second = service.submit(_spec_doc(participate=False, sample_every=700))
            assert _wait_done(service, second["campaign_id"]) == "complete"
            done = time.monotonic()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert ended["worker"] - done >= 1.5  # left at idle_exit, not before
        assert worker.served_campaigns == {first["campaign_id"], second["campaign_id"]}

    def test_one_worker_serves_two_tenants_campaigns(self, service, tmp_path):
        journals = {
            "alice": str(tmp_path / "alice.jsonl"),
            "bob": str(tmp_path / "bob.jsonl"),
        }
        # different file_size => disjoint run fingerprints, so neither
        # campaign can be served from the other's cache entries
        submitted = {
            "alice": service.submit(_spec_doc(
                tenant="alice", participate=False, file_size=200_000,
                checkpoint=journals["alice"])),
            "bob": service.submit(_spec_doc(
                tenant="bob", participate=False, file_size=150_000,
                checkpoint=journals["bob"])),
        }
        worker = FabricWorker(service.store, workers=1, poll_interval=0.05)
        thread = threading.Thread(
            target=lambda: worker.run(idle_exit=5.0, manifest_timeout=60.0),
            daemon=True,
        )
        thread.start()
        try:
            for tenant, out in submitted.items():
                assert _wait_done(service, out["campaign_id"]) == "complete", tenant
        finally:
            thread.join(timeout=30)
        # fairness: the single worker executed units for both campaigns
        assert worker.served_campaigns >= {
            out["campaign_id"] for out in submitted.values()
        }
        for tenant, out in submitted.items():
            campaign_id = out["campaign_id"]
            report = service.report(campaign_id)
            assert report["status"] == "complete"
            # exactly-once, per campaign: every journal entry unique, and
            # the scoped ledger holds one record per journalled outcome
            lines = [json.loads(line) for line in open(journals[tenant])][1:]
            entries = [(rec["stage"], rec["outcome"]["strategy_id"])
                       for rec in lines]
            assert len(entries) == len(set(entries))
            assert len(entries) >= report["table1_row"]["strategies_tried"] > 0
            ledger_count = len(service.store.keys(
                campaign_namespace(campaign_id, "results")))
            assert ledger_count == len(entries)


@pytest.fixture
def http_endpoint():
    MemoryStore.reset_registry()
    service = CampaignService("memory://http-test")
    server = ServiceServer(service, host="127.0.0.1", port=0)
    server.start()
    client = ServiceClient(server.host, server.port, timeout=30.0)
    yield service, client
    server.stop()
    service.close()
    MemoryStore.reset_registry()


class TestHTTPControlPlane:
    def test_healthz_and_overview(self, http_endpoint):
        _, client = http_endpoint
        assert client.healthz() == {"ok": True}
        overview = client.request("GET", "/")
        assert overview["running"] == 0

    def test_unknown_route_is_404(self, http_endpoint):
        _, client = http_endpoint
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.request("GET", "/not-a-route")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, http_endpoint):
        _, client = http_endpoint
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.request("DELETE", "/campaigns")
        assert excinfo.value.status == 405

    def test_submit_without_body_is_400(self, http_endpoint):
        _, client = http_endpoint
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.request("POST", "/campaigns")
        assert excinfo.value.status == 400

    def test_bad_spec_is_422_with_kind(self, http_endpoint):
        _, client = http_endpoint
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"version": 99})
        assert excinfo.value.status == 422
        assert excinfo.value.payload["kind"] == "InvalidSpec"

    def test_unknown_campaign_is_404_everywhere(self, http_endpoint):
        _, client = http_endpoint
        for call in (lambda: client.status("nope"),
                     lambda: client.cancel("nope"),
                     lambda: client.report("nope")):
            with pytest.raises(ServiceHTTPError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_report_before_done_is_409(self, http_endpoint):
        _, client = http_endpoint
        out = client.submit(_spec_doc(participate=False))
        try:
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.report(out["campaign_id"])
            assert excinfo.value.status == 409
        finally:
            client.cancel(out["campaign_id"])
            client.wait(out["campaign_id"], timeout=60)

    def test_full_round_trip_over_http(self, http_endpoint):
        _, client = http_endpoint
        out = client.submit(_spec_doc(tenant="alice"))
        assert out["tenant"] == "alice" and out["campaign_id"]
        final = client.wait(out["campaign_id"], timeout=120)
        assert final["status"] == "complete"
        report = client.report(out["campaign_id"])
        assert report["table1_row"]["strategies_tried"] > 0
        listed = client.list_campaigns()["campaigns"]
        assert out["campaign_id"] in [r["campaign_id"] for r in listed]

    @pytest.mark.parametrize("changes", [
        {"confirmation": {"noise_sigmas": float("nan")}},
        {"sample_every": 0},
        {"sample_every": 500.5},
        {"obs": {"profile_dir": "profiles", "profile_keep": 1}},
        {"obs": {"trace_dir": "traces"}},
    ], ids=["nan", "zero-sample-every", "fractional-sample-every", "profile-dir", "trace-dir"])
    def test_invalid_spec_is_422(self, http_endpoint, changes):
        _, client = http_endpoint
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({**_spec_doc(), **changes})
        assert excinfo.value.status == 422
        assert excinfo.value.payload["kind"] == "InvalidSpec"
        # refused at admission: nothing ran, so nothing can fail later
        assert client.list_campaigns()["campaigns"] == []


def _raw_exchange(client, request):
    """Send raw request bytes; return (status line, headers, JSON body)."""
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status_line, headers, json.loads(body)


class TestHTTPEdge:
    """The wire contract below the client: raw requests, exact answers."""

    @pytest.mark.parametrize("request_bytes, status, error", [
        (b"GARBAGE\r\n\r\n", 400, None),
        (b"GET /healthz\r\n\r\n", 400, None),
        (b"POST /campaigns HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (MAX_BODY_BYTES + 1), 400, "body too large"),
        (b"POST /campaigns HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, None),
        (b"POST /campaigns HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]", 400, None),
        (b"DELETE /campaigns HTTP/1.1\r\n\r\n", 405, None),
        (b"OPTIONS / HTTP/1.1\r\n\r\n", 404, None),
        (b"PATCH /x HTTP/1.1\r\n\r\n", 404, None),
    ])
    def test_rejections_are_json_on_an_http11_status_line(
        self, http_endpoint, request_bytes, status, error
    ):
        _, client = http_endpoint
        status_line, headers, payload = _raw_exchange(client, request_bytes)
        assert status_line.split(" ")[:2] == ["HTTP/1.1", str(status)]
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert isinstance(payload, dict) and "error" in payload
        if error is not None:
            assert payload["error"] == error

    def test_http09_request_line_is_400(self, http_endpoint):
        # answered as HTTP/0.9 it would carry no status line at all
        _, client = http_endpoint
        status_line, _, payload = _raw_exchange(client, b"GET /healthz HTTP/0.9\r\n\r\n")
        assert status_line.split(" ")[:2] == ["HTTP/1.1", "400"]
        assert "error" in payload

    def test_query_string_is_ignored_by_the_router(self, http_endpoint):
        _, client = http_endpoint
        status_line, headers, payload = _raw_exchange(
            client, b"GET /healthz?x=1 HTTP/1.1\r\n\r\n"
        )
        assert status_line.split(" ")[:2] == ["HTTP/1.1", "200"]
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert payload == {"ok": True}


class TestServiceCli:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--store", "memory://x", "--port", "0",
            "--quota", "alice=3:16", "--max-campaigns", "4",
            "--quarantine-after", "2",
        ])
        assert args.store == "memory://x" and args.port == 0
        assert args.quota == "alice=3:16"
        assert args.max_campaigns == 4 and args.quarantine_after == 2

    def test_serve_requires_store(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_serve_rejects_bad_quota(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--store", "memory://x", "--quota", "garbage"])
        assert rc == 2
        assert "quota" in capsys.readouterr().err.lower()

    def test_submit_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "submit", "--protocol", "tcp", "--tenant", "alice",
            "--port", "1234", "--wait", "--timeout", "30",
        ])
        assert args.protocol == "tcp" and args.tenant == "alice"
        assert args.port == 1234 and args.wait and args.timeout == 30.0


# ----------------------------------------------------------------------
# Service HA: a restarted service re-attaches drive loops for campaigns
# a previous (killed) coordinator left running on the store.

class TestServiceHA:
    def _orphan(self, store, campaign_id, tenant="default", beat_age=10000.0,
                fabric=None, **extra):
        """Plant a running index record + scoped manifest whose coordinator
        heartbeat stopped ``beat_age`` seconds ago — exactly what a killed
        ``repro serve`` (or, with ``standalone=True``, a killed
        ``repro campaign --fabric``) leaves behind.  ``fabric`` is the
        config the manifest records."""
        from repro.fabric.store import CampaignScopedStore, register_campaign
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        spec = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13", **FAST),
            workers=1, sample_every=500, tenant=tenant,
        )
        fingerprint = spec.fingerprint()
        register_campaign(store, campaign_id, {
            "campaign_id": campaign_id, "tenant": tenant,
            "spec_fingerprint": fingerprint, "status": "running",
            "max_leased_units": None,
            "created_at": time.time() - beat_age,
            "updated_at": time.time() - beat_age,
            **extra,
        })
        CampaignScopedStore(store, campaign_id).put(NS_CAMPAIGN, KEY_MANIFEST, {
            "spec": spec.to_dict(), "spec_fingerprint": fingerprint,
            "status": "running",
            "fabric": (fabric or FabricConfig(
                store="memory://service-ha", lease_ttl=2.0,
                telemetry_interval=0.2, stall_window=15.0)).to_dict(),
            "created_at": time.time() - beat_age,
            "coordinator_heartbeat_at": time.time() - beat_age,
            "campaign_id": campaign_id, "tenant": tenant,
        })
        return spec

    @pytest.fixture
    def ha_store(self):
        from repro.fabric.store import store_for

        MemoryStore.reset_registry()
        store = store_for("memory://service-ha")
        yield store
        MemoryStore.reset_registry()

    def test_restart_reattaches_orphaned_campaign(self, ha_store):
        self._orphan(ha_store, "orphan0000001")
        svc = CampaignService("memory://service-ha")
        try:
            out = svc.reattach_detached()
            assert [r["campaign_id"] for r in out] == ["orphan0000001"]
            assert out[0]["reattached"] is True
            assert _wait_done(svc, "orphan0000001") == "complete"
            report = svc.report("orphan0000001")
            assert report["status"] == "complete"
            assert report["runs_completed"] > 0
        finally:
            svc.close()

    @staticmethod
    def _record_store_retries(store, campaign_id):
        """Give the orphan's manifest the store-retry keys a manifest
        written while they were fabric settings still carries."""
        from repro.fabric.store import CampaignScopedStore
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        def add(manifest):
            fabric = {**manifest["fabric"], "store_retries": 2, "store_backoff": 0.5}
            return {**manifest, "fabric": fabric}

        CampaignScopedStore(store, campaign_id).update(NS_CAMPAIGN, KEY_MANIFEST, add)

    def test_reattach_keeps_the_recorded_fabric_settings(self, ha_store):
        # units keep their ids and a non-participating campaign stays one;
        # only the store address is the new service's own
        import dataclasses

        submitted = FabricConfig(
            store="dir://where-the-old-service-ran", lease_ttl=3.0, lease_size=2,
            poll_interval=0.1, participate=False, telemetry_interval=0.2,
            stall_window=5.0)
        self._orphan(ha_store, "orphan0000005", fabric=submitted)
        self._record_store_retries(ha_store, "orphan0000005")
        svc = CampaignService("memory://service-ha")
        try:
            out = svc.reattach_detached()
            assert [r["campaign_id"] for r in out] == ["orphan0000005"]
            handle = svc._handle_for("orphan0000005")
            assert handle.spec.fabric == dataclasses.replace(
                submitted, store="memory://service-ha")
        finally:
            svc.close()

    def test_manifest_with_store_retries_reattaches_with_the_same_units(self, ha_store):
        # the same orphan on two stores, one manifest carrying the removed
        # store-retry keys: both finish, and enqueue the same unit ids
        from repro.fabric.leases import NS_UNITS
        from repro.fabric.store import CampaignScopedStore, store_for

        fabric = FabricConfig(store="memory://old", lease_ttl=2.0, lease_size=2,
                              telemetry_interval=0.2)
        reference = store_for("memory://service-ha-ref")
        units = {}
        for store, url in ((ha_store, "memory://service-ha"),
                           (reference, "memory://service-ha-ref")):
            self._orphan(store, "orphan0000006", fabric=fabric)
            if store is ha_store:
                self._record_store_retries(store, "orphan0000006")
            svc = CampaignService(url)
            try:
                assert [r["campaign_id"] for r in svc.reattach_detached()] == ["orphan0000006"]
                assert _wait_done(svc, "orphan0000006") == "complete"
            finally:
                svc.close()
            units[url] = CampaignScopedStore(store, "orphan0000006").keys(NS_UNITS)
        assert units["memory://service-ha"] == units["memory://service-ha-ref"] != []

    def test_stale_standalone_campaign_is_left_alone(self, ha_store):
        # its coordinator was a `repro campaign --fabric` caller: rerunning
        # the spec adopts it, the service never does
        from repro.fabric.store import load_campaign_index

        self._orphan(ha_store, "standalone01", standalone=True)
        svc = CampaignService("memory://service-ha")
        try:
            assert svc.reattach_detached() == []
            assert load_campaign_index(ha_store)["standalone01"]["status"] == "running"
        finally:
            svc.close()

    def test_live_coordinator_is_not_reattached(self, ha_store):
        self._orphan(ha_store, "orphan0000002", beat_age=0.0)
        svc = CampaignService("memory://service-ha")
        try:
            assert svc.reattach_detached() == []
            # the status endpoint still answers, flagged detached
            assert svc.status("orphan0000002")["detached"] is True
        finally:
            svc.close()

    def test_resubmit_of_detached_campaign_attaches(self, ha_store):
        spec = self._orphan(ha_store, "orphan0000003")
        svc = CampaignService("memory://service-ha")
        try:
            out = svc.submit(spec.to_dict())
            assert out["campaign_id"] == "orphan0000003"
            assert out["reattached"] is True
            assert _wait_done(svc, "orphan0000003") == "complete"
        finally:
            svc.close()

    def test_resubmit_of_live_campaign_starts_a_fresh_one(self, ha_store):
        spec = self._orphan(ha_store, "orphan0000004", beat_age=0.0)
        svc = CampaignService("memory://service-ha")
        try:
            out = svc.submit(spec.to_dict())
            assert out["campaign_id"] != "orphan0000004"
            assert "reattached" not in out
            assert _wait_done(svc, out["campaign_id"]) == "complete"
        finally:
            svc.close()


class TestClientRetries:
    def test_transient_connection_errors_are_retried(self):
        client = ServiceClient("127.0.0.1", 1, retries=3, retry_backoff=0.0)
        attempts = []

        def flaky(method, path, body=None):
            attempts.append(path)
            if len(attempts) < 3:
                raise ConnectionRefusedError("service restarting")
            return {"ok": True}

        client._single_request = flaky
        assert client.request("GET", "/healthz") == {"ok": True}
        assert client.retried == 2

    def test_http_errors_are_never_retried(self):
        client = ServiceClient("127.0.0.1", 1, retries=3, retry_backoff=0.0)
        calls = []

        def reject(method, path, body=None):
            calls.append(1)
            raise ServiceHTTPError(422, {"error": "bad spec"})

        client._single_request = reject
        with pytest.raises(ServiceHTTPError):
            client.request("POST", "/campaigns", body={})
        assert len(calls) == 1 and client.retried == 0

    def test_exhausted_retries_raise_the_last_error(self):
        client = ServiceClient("127.0.0.1", 1, retries=1, retry_backoff=0.0)

        def dead(method, path, body=None):
            raise ConnectionResetError("gone")

        client._single_request = dead
        with pytest.raises(ConnectionResetError):
            client.request("GET", "/")
        assert client.retried == 1

    def test_wait_outlives_a_service_restart_window(self):
        client = ServiceClient("127.0.0.1", 1, retries=0)
        responses = [ConnectionRefusedError("restarting"),
                     ConnectionRefusedError("restarting"),
                     {"status": "complete"}]

        def status(campaign_id):
            item = responses.pop(0)
            if isinstance(item, Exception):
                raise item
            return item

        client.status = status
        final = client.wait("abc", timeout=5.0, poll_interval=0.01)
        assert final == {"status": "complete"}
