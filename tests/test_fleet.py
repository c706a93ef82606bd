"""The fleet telemetry plane: status records, straggler detection, the
merged cross-host registry, ``repro top``, and the Prometheus exporter.

Aggregator tests inject ``now`` instead of sleeping, so straggler windows
are tested deterministically; the end-to-end test runs a real
coordinator + a real subprocess worker against a shared store and checks
the campaign metrics carry every participant's contribution.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.executor import TestbedConfig
from repro.fabric import CampaignScopedStore, FabricConfig, LocalDirStore, store_for
from repro.fabric.leases import NS_UNITS
from repro.fabric.store import (
    NS_TELEMETRY,
    clear_statuses,
    load_statuses,
    publish_status,
    register_campaign,
)
from repro.obs.bus import BUS, MemorySink
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.fleet import (
    PHASE_EXECUTING,
    PHASE_EXITED,
    PHASE_IDLE,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    FleetAggregator,
    FleetPublisher,
    fleet_overview,
    prometheus_text,
)
from repro.obs.metrics import METRICS

FAST = dict(duration=0.5, file_size=200_000)


@pytest.fixture(autouse=True)
def clean_obs():
    yield
    configure_observability(None)
    METRICS.reset()


@pytest.fixture
def store(tmp_path):
    return LocalDirStore(str(tmp_path / "store"))


def _record(worker_id, updated_at, phase=PHASE_EXECUTING, role=ROLE_WORKER,
            units=0, commits=0, duplicates=0, sim_events=0, metrics=None,
            interval=1.0, rate=0.0):
    return {
        "worker_id": worker_id, "host": "h-" + worker_id, "pid": 1,
        "role": role, "spec_fingerprint": None,
        "started_at": updated_at - 5.0, "updated_at": updated_at,
        "interval": interval, "phase": phase, "unit": "u" if phase == PHASE_EXECUTING else None,
        "stage": "sweep", "leases_held": 1 if phase == PHASE_EXECUTING else 0,
        "units_done": units, "runs_done": units, "commits": commits,
        "duplicates": duplicates, "sim_events": sim_events,
        "events_per_sec": rate, "metrics": metrics or {},
    }


class TestStoreTelemetryHelpers:
    def test_publish_load_clear_roundtrip(self, store):
        publish_status(store, "w1", _record("w1", 1.0))
        publish_status(store, "w2", _record("w2", 2.0))
        statuses = load_statuses(store)
        assert sorted(statuses) == ["w1", "w2"]
        assert statuses["w1"]["host"] == "h-w1"
        assert clear_statuses(store) == 2
        assert load_statuses(store) == {}
        assert store.keys(NS_TELEMETRY) == []

    def test_torn_record_skipped_not_fatal(self, tmp_path):
        backend = LocalDirStore(str(tmp_path / "s"))
        publish_status(backend, "good", _record("good", 1.0))
        publish_status(backend, "torn", _record("torn", 1.0))
        # corrupt the torn record in place, mid-JSON
        (path,) = [p for p in Path(tmp_path, "s", NS_TELEMETRY).rglob("torn.json")]
        path.write_text('{"worker_id": "to')
        assert sorted(load_statuses(backend)) == ["good"]


class TestFleetPublisher:
    def test_rate_limited_and_forced(self, store):
        publisher = FleetPublisher(store, "w1", interval=5.0)
        assert publisher.publish(PHASE_IDLE, force=True) is True
        assert publisher.publish(PHASE_IDLE) is False  # inside the interval
        assert publisher.publish(PHASE_EXECUTING, unit="u1", force=True) is True
        assert publisher.published == 2

    def test_record_schema_and_stats(self, store):
        publisher = FleetPublisher(store, "w1", interval=0.05,
                                   spec_fingerprint="deadbeef")
        stats = {"units": 3, "runs": 12, "commits": 11, "duplicates": 1}
        assert publisher.publish(PHASE_EXECUTING, unit="u9", stage="sweep",
                                 stats=stats, force=True)
        record = load_statuses(store)["w1"]
        for key in ("worker_id", "host", "pid", "role", "spec_fingerprint",
                    "started_at", "updated_at", "interval", "phase", "unit",
                    "stage", "leases_held", "units_done", "runs_done",
                    "commits", "duplicates", "sim_events", "events_per_sec",
                    "metrics"):
            assert key in record, key
        assert record["role"] == ROLE_WORKER
        assert record["phase"] == PHASE_EXECUTING
        assert record["unit"] == "u9" and record["stage"] == "sweep"
        assert record["leases_held"] == 1
        assert record["units_done"] == 3 and record["commits"] == 11
        assert record["duplicates"] == 1
        assert record["spec_fingerprint"] == "deadbeef"
        assert record["pid"] == os.getpid()

    def test_metrics_snapshot_included_when_enabled(self, store):
        configure_observability(ObsConfig(metrics=True))
        METRICS.reset()
        METRICS.inc("sim.events", 4321)
        publisher = FleetPublisher(store, "w1", interval=0.05)
        assert publisher.publish(PHASE_IDLE, force=True)
        record = load_statuses(store)["w1"]
        assert record["sim_events"] == 4321
        assert record["metrics"]["counters"]["sim.events"] == 4321

    def test_publish_never_raises_on_broken_store(self, store):
        class Exploding(LocalDirStore):
            def put(self, ns, key, doc):
                raise OSError("disk on fire")

        publisher = FleetPublisher(Exploding(str(store.root) + "-x"), "w1",
                                   interval=0.05)
        assert publisher.publish(PHASE_IDLE, force=True) is False
        assert publisher.published == 0


class TestFleetAggregator:
    def test_dead_worker_flagged_once_then_recovers(self, store):
        configure_observability(ObsConfig(metrics=True))
        METRICS.reset()
        sink = MemorySink()
        BUS.configure(sink)
        aggregator = FleetAggregator(store, stall_window=10.0)
        publish_status(store, "w1", _record("w1", updated_at=100.0))
        # heartbeat 5s old: healthy
        out = aggregator.poll(now=105.0)
        assert out["stragglers"] == []
        # heartbeat 15s old: straggler, flagged exactly once
        out = aggregator.poll(now=115.0)
        assert out["stragglers"] == ["w1"]
        assert out["workers"][0]["straggler_reason"] == "no-heartbeat"
        aggregator.poll(now=116.0)
        assert aggregator.stragglers_flagged == 1
        assert METRICS.snapshot()["counters"]["fleet.stragglers"] == 1
        events = [r for r in sink.records if r["name"] == "fleet.straggler"]
        assert len(events) == 1
        assert events[0]["fields"]["worker"] == "w1"
        assert events[0]["fields"]["reason"] == "no-heartbeat"
        # fresh heartbeat with fresh progress: recovered; a later stall is
        # a new episode
        publish_status(store, "w1", _record("w1", updated_at=120.0, units=1))
        out = aggregator.poll(now=121.0)
        assert out["stragglers"] == []
        aggregator.poll(now=140.0)
        assert aggregator.stragglers_flagged == 2

    def test_no_progress_while_executing_is_a_stall(self, store):
        aggregator = FleetAggregator(store, stall_window=10.0)
        base = _record("w1", updated_at=100.0, units=2, commits=8, sim_events=500)
        publish_status(store, "w1", base)
        assert aggregator.poll(now=101.0)["stragglers"] == []
        # keeps heartbeating (updated_at fresh) but no counter moves
        publish_status(store, "w1", dict(base, updated_at=112.0))
        out = aggregator.poll(now=112.5)
        assert out["workers"][0]["straggler_reason"] == "no-progress"
        # any progress re-anchors the stall clock
        publish_status(store, "w1", dict(base, updated_at=120.0, sim_events=501))
        assert aggregator.poll(now=120.5)["stragglers"] == []

    def test_exited_worker_is_never_a_straggler(self, store):
        aggregator = FleetAggregator(store, stall_window=1.0)
        publish_status(store, "w1", _record("w1", updated_at=0.0, phase=PHASE_EXITED))
        out = aggregator.poll(now=1000.0)
        assert out["stragglers"] == []
        assert out["workers"][0]["phase"] == PHASE_EXITED

    def test_idle_worker_is_not_a_progress_stall(self, store):
        aggregator = FleetAggregator(store, stall_window=5.0)
        record = _record("w1", updated_at=100.0, phase=PHASE_IDLE)
        publish_status(store, "w1", record)
        aggregator.poll(now=100.5)
        publish_status(store, "w1", dict(record, updated_at=110.0))
        assert aggregator.poll(now=110.5)["stragglers"] == []

    def test_merged_metrics_adds_across_workers_excludes_coordinator(self, store):
        worker_metrics = lambda n: {"counters": {"sim.events": n, "runs.completed": 1}}
        publish_status(store, "w1", _record("w1", 1.0, metrics=worker_metrics(100)))
        publish_status(store, "w2", _record("w2", 1.0, metrics=worker_metrics(50)))
        publish_status(store, "c", _record("c", 1.0, role=ROLE_COORDINATOR,
                                           metrics=worker_metrics(7)))
        merged = FleetAggregator(store).merged_metrics()
        assert merged["counters"]["sim.events"] == 150
        assert merged["counters"]["runs.completed"] == 2
        both = FleetAggregator(store).merged_metrics(
            include_roles=(ROLE_WORKER, ROLE_COORDINATOR))
        assert both["counters"]["sim.events"] == 157

    def test_stale_rate_excluded_from_fleet_total(self, store):
        now = time.time()
        publish_status(store, "live", _record("live", now, rate=1000.0))
        publish_status(store, "dead", _record("dead", now - 60.0, rate=5000.0,
                                              interval=1.0))
        out = FleetAggregator(store, stall_window=120.0).poll(now=now + 0.5)
        assert out["events_per_sec"] == 1000.0


class TestFleetOverview:
    def test_leases_stages_and_eta(self, store):
        from repro.fabric.leases import LeaseQueue
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        now = time.time()
        store.put(NS_CAMPAIGN, KEY_MANIFEST, {
            "status": "running", "spec_fingerprint": "abc",
            "fabric": FabricConfig(store="memory://fleet", lease_ttl=30.0).to_dict(),
            "created_at": now - 10.0,
        })
        queue = LeaseQueue(store, ttl=30.0)
        for i, stage in enumerate(["sweep", "sweep", "sweep", "confirm"]):
            queue.enqueue({"unit_id": f"unit{i}", "stage": stage, "slots": []})
        unit = queue.claim("w1")
        queue.complete(unit["unit_id"], "w1")
        queue.claim("w1")  # leased, in flight
        publish_status(store, "w1", _record("w1", now))
        overview = fleet_overview(store, now=now + 0.1)
        leases = overview["leases"]
        assert leases["total"] == 4
        assert leases["done"] == 1 and leases["leased"] == 1 and leases["pending"] == 2
        done_by_stage = {s: b["done"] for s, b in leases["stages"].items()}
        total_by_stage = {s: b["total"] for s, b in leases["stages"].items()}
        assert total_by_stage == {"sweep": 3, "confirm": 1}
        assert sum(done_by_stage.values()) == 1
        assert overview["eta_seconds"] is not None and overview["eta_seconds"] > 0
        assert overview["manifest"]["status"] == "running"
        assert [w["worker_id"] for w in overview["workers"]] == ["w1"]

    def test_single_shot_detects_dead_worker(self, store):
        publish_status(store, "w1", _record("w1", updated_at=time.time() - 300.0))
        overview = fleet_overview(store)  # no manifest: the default window
        assert overview["stragglers"] == ["w1"]

    def test_stall_window_is_the_manifests(self, store):
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        now = time.time()
        publish_status(store, "w1", _record("w1", updated_at=now - 6.0))
        assert fleet_overview(store, now=now)["stragglers"] == []  # 15 s default
        store.put(NS_CAMPAIGN, KEY_MANIFEST, {
            "status": "running",
            "fabric": FabricConfig(store="memory://fleet", stall_window=5.0).to_dict(),
        })
        assert fleet_overview(store, now=now)["stragglers"] == ["w1"]
        # a long-lived aggregator follows the manifest too
        aggregator = FleetAggregator(store)
        assert fleet_overview(store, aggregator=aggregator, now=now)["stragglers"] == ["w1"]
        assert aggregator.stall_window == 5.0


class TestPrometheusExport:
    def test_text_format(self):
        snapshot = {
            "counters": {"sim.events": 42, "9weird name!": 1},
            "gauges": {"fleet.workers": 3.0},
            "histograms": {
                "run.wall_seconds": {
                    "bounds": [0.1, 1.0], "counts": [2, 1, 1],
                    "count": 4, "sum": 2.5, "min": 0.05, "max": 2.0,
                }
            },
        }
        text = prometheus_text(snapshot)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_sim_events counter" in lines
        assert "repro_sim_events 42" in lines
        assert "repro__9weird_name_ 1" in lines  # sanitized, no leading digit
        assert "# TYPE repro_fleet_workers gauge" in lines
        assert "repro_fleet_workers 3" in lines
        # histogram buckets are cumulative and end with +Inf == count
        assert 'repro_run_wall_seconds_bucket{le="0.1"} 2' in lines
        assert 'repro_run_wall_seconds_bucket{le="1"} 3' in lines
        assert 'repro_run_wall_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_run_wall_seconds_sum 2.5" in lines
        assert "repro_run_wall_seconds_count 4" in lines

    def test_empty_snapshot_is_just_a_newline(self):
        assert prometheus_text({}) == "\n"


class TestTopCli:
    def _seed(self, tmp_path, campaign_id="abc123", worker="w1", age=5.0,
              status="complete", stall_window=15.0, silent=0.0):
        """One campaign: index record, scoped manifest, one worker's
        status record (last published ``silent`` seconds ago)."""
        store_path = f"dir://{tmp_path / 'store'}"
        backend = store_for(store_path)
        created_at = time.time() - age
        register_campaign(backend, campaign_id, {
            "campaign_id": campaign_id, "status": status,
            "spec_fingerprint": campaign_id, "created_at": created_at,
        })
        view = CampaignScopedStore(backend, campaign_id)
        view.put("campaign", "manifest", {
            "status": status, "spec_fingerprint": campaign_id,
            "fabric": FabricConfig(store=store_path, lease_ttl=30.0,
                                   stall_window=stall_window).to_dict(),
            "created_at": created_at,
        })
        publish_status(view, worker, _record(
            worker, time.time() - silent, units=2, commits=8,
            metrics={"counters": {"sim.events": 999}}))
        return store_path

    def test_top_once_json(self, tmp_path, capsys):
        store_path = self._seed(tmp_path)
        assert main(["top", "--store", store_path, "--once", "--json"]) == 0
        overview = json.loads(capsys.readouterr().out)
        (worker,) = overview["workers"]
        assert worker["worker_id"] == "w1"
        assert worker["commits"] == 8
        assert "heartbeat_age" in worker and "events_per_sec" in worker
        assert overview["manifest"]["status"] == "complete"
        assert set(overview["leases"]) >= {"pending", "leased", "done", "reclaims"}

    def test_top_judges_stragglers_by_the_campaign_stall_window(self, tmp_path, capsys):
        # the campaign ran with --stall-window 5: a worker silent for 6 s
        # is a straggler to top as it is to the coordinator
        store_path = self._seed(tmp_path, status="running", stall_window=5.0, silent=6.0)
        assert main(["top", "--store", store_path, "--once", "--json"]) == 0
        overview = json.loads(capsys.readouterr().out)
        assert overview["stragglers"] == ["w1"]
        (worker,) = overview["workers"]
        assert worker["straggler_reason"] == "no-heartbeat"

    def test_top_once_human(self, tmp_path, capsys):
        store_path = self._seed(tmp_path)
        assert main(["top", "--store", store_path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "Campaign abc123" in out
        assert "w1" in out and "fleet events/sec" in out

    def test_top_loop_exits_on_complete_manifest(self, tmp_path, capsys):
        store_path = self._seed(tmp_path)
        # not --once: the refresh loop must exit on its own (status=complete)
        assert main(["top", "--store", store_path, "--json",
                     "--interval", "0.05"]) == 0

    def test_report_store_renders_fleet_and_merged_metrics(self, tmp_path, capsys):
        store_path = self._seed(tmp_path)
        assert main(["report", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "Fleet" in out and "w1" in out
        # the merged cross-host registry stood in for the metrics snapshot
        assert "sim.events" in out

    def test_report_export_prom(self, tmp_path, capsys):
        store_path = self._seed(tmp_path)
        prom_path = str(tmp_path / "metrics.prom")
        assert main(["report", "--store", store_path,
                     "--export-prom", prom_path]) == 0
        text = open(prom_path).read()
        assert "# TYPE repro_sim_events counter" in text
        assert "repro_sim_events 999" in text

    def test_report_without_sources_is_an_error(self, capsys):
        assert main(["report"]) == 2

    def test_newest_campaign_is_the_default(self, tmp_path, capsys):
        self._seed(tmp_path, campaign_id="old000000000", worker="w-old", age=60.0)
        store_path = self._seed(tmp_path, campaign_id="new000000000", worker="w-new")
        self._seed(tmp_path, campaign_id="mid000000000", worker="w-mid", age=30.0)
        assert main(["top", "--store", store_path, "--once", "--json"]) == 0
        overview = json.loads(capsys.readouterr().out)
        assert overview["manifest"]["spec_fingerprint"] == "new000000000"
        assert [w["worker_id"] for w in overview["workers"]] == ["w-new"]
        assert main(["report", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "w-new" in out and "w-old" not in out
        # --campaign still picks any one of them
        assert main(["top", "--store", store_path, "--once", "--json",
                     "--campaign", "old000000000"]) == 0
        overview = json.loads(capsys.readouterr().out)
        assert [w["worker_id"] for w in overview["workers"]] == ["w-old"]

    def test_store_without_campaigns(self, tmp_path, capsys):
        store_path = f"dir://{tmp_path / 'store'}"
        assert main(["top", "--store", store_path, "--once", "--json"]) == 1
        assert "no campaign" in capsys.readouterr().err
        assert main(["report", "--store", store_path]) == 2
        assert "no campaign" in capsys.readouterr().err

    def test_top_loop_waits_for_a_campaign(self, tmp_path, capsys):
        store_path = f"dir://{tmp_path / 'store'}"
        timer = threading.Timer(0.3, self._seed, args=(tmp_path,))
        timer.start()
        try:
            # without --once the loop waits, then exits on the complete manifest
            assert main(["top", "--store", store_path, "--json",
                         "--interval", "0.05"]) == 0
        finally:
            timer.join(timeout=10)
        overview = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert overview["manifest"]["spec_fingerprint"] == "abc123"

    def test_telemetry_flags_require_fabric(self, tmp_path):
        for flag, value in (("--telemetry-interval", "2"), ("--stall-window", "5")):
            with pytest.raises(SystemExit) as excinfo:
                main(["campaign", flag, value])
            assert excinfo.value.code == 2


class TestFabricConfigTelemetry:
    def test_validation(self):
        with pytest.raises(ValueError):
            FabricConfig(store="s", telemetry_interval=-1.0)
        with pytest.raises(ValueError):
            FabricConfig(store="s", stall_window=0.0)
        config = FabricConfig(store="s", telemetry_interval=0.0)  # 0 = disabled
        assert config.telemetry_interval == 0.0

    def test_round_trip_and_fingerprint_neutral(self, tmp_path):
        spec = _fast_spec(fabric=FabricConfig(
            store=str(tmp_path / "s"), telemetry_interval=0.25, stall_window=3.0))
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.fabric.telemetry_interval == 0.25
        assert clone.fabric.stall_window == 3.0
        assert spec.fingerprint() == _fast_spec().fingerprint()


def _fast_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13", **FAST),
        workers=1, sample_every=500,
    )
    return base.with_overrides(**overrides) if overrides else base


def _scope(backend):
    """The campaign scope ``run_campaign`` drives ``_fast_spec()`` in
    (fabric settings leave the fingerprint unchanged)."""
    return CampaignScopedStore(backend, _fast_spec().fingerprint()[:12])


class TestFleetCampaign:
    def test_single_process_fabric_has_fleet_counters(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        result = run_campaign(_fast_spec(fabric=FabricConfig(
            store=store_path, telemetry_interval=0.05, stall_window=30.0)))
        assert result.fabric["telemetry_workers"] == 0  # coordinator only
        assert result.fabric["stragglers"] == 0
        counters = result.metrics["counters"]
        assert counters["fabric.telemetry_workers"] == 0
        # the coordinator's own record was published and marked exited
        backend = store_for(store_path)
        statuses = load_statuses(_scope(backend))
        (record,) = statuses.values()
        assert record["role"] == ROLE_COORDINATOR
        assert record["phase"] == PHASE_EXITED

    def test_participating_coordinator_accounts_every_unit(self, tmp_path):
        # a cold campaign and no external worker: the coordinator runs every
        # unit it enqueued and commits every fresh slot, and its exited
        # status record reports the same totals
        store_path = f"dir://{tmp_path / 'store'}"
        result = run_campaign(_fast_spec(fabric=FabricConfig(
            store=store_path, lease_size=2, telemetry_interval=0.05)))
        view = _scope(store_for(store_path))
        fresh = sum(len(view.get(NS_UNITS, key)["slots"]) for key in view.keys(NS_UNITS))
        assert result.fabric["worker_units"] == result.fabric["leases_enqueued"] > 0
        assert result.fabric["commits"] == fresh > 0
        (record,) = load_statuses(view).values()
        assert (record["role"], record["phase"]) == (ROLE_COORDINATOR, PHASE_EXITED)
        assert record["units_done"] == result.fabric["worker_units"]
        assert record["commits"] == result.fabric["commits"]

    def test_telemetry_disabled_publishes_nothing(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        run_campaign(_fast_spec(fabric=FabricConfig(
            store=store_path, telemetry_interval=0.0)))
        backend = store_for(store_path)
        assert load_statuses(_scope(backend)) == {}

    def test_fresh_campaign_clears_stale_telemetry(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        backend = store_for(store_path)
        publish_status(_scope(backend), "ghost", _record("ghost", updated_at=1.0))
        run_campaign(_fast_spec(fabric=FabricConfig(
            store=store_path, telemetry_interval=0.05)))
        backend = store_for(store_path)
        assert "ghost" not in load_statuses(_scope(backend))


# ----------------------------------------------------------------------
# End-to-end: a real subprocess worker next to a participate=False
# coordinator; the final campaign metrics must carry the worker's host
# contribution, read purely through the store.

class TestFleetEndToEnd:
    def _spawn_worker(self, store_path):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TEST_FAULT", None)
        argv = [sys.executable, "-m", "repro", "worker", "--store", store_path,
                "--workers", "1", "--manifest-timeout", "60", "--idle-exit", "10",
                "--poll", "0.05"]
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def test_worker_host_metrics_reach_campaign_result(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        spec = _fast_spec(fabric=FabricConfig(
            store=store_path, lease_ttl=5.0, lease_size=2, poll_interval=0.1,
            participate=False, telemetry_interval=0.1, stall_window=30.0))
        holder = {}
        coordinator = threading.Thread(
            target=lambda: holder.update(result=run_campaign(spec)), daemon=True)
        coordinator.start()
        worker = self._spawn_worker(store_path)
        try:
            coordinator.join(timeout=240)
            assert not coordinator.is_alive(), "coordinator never finished"
            worker.wait(timeout=60)
            assert worker.returncode == 0
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup
                worker.send_signal(signal.SIGKILL)
                worker.wait()
        result = holder["result"]
        assert result.fabric["telemetry_workers"] >= 1
        counters = result.metrics["counters"]
        # per-participant marker counters prove which hosts contributed
        per_worker = [k for k in counters if k.startswith("fleet.worker.")]
        assert per_worker, sorted(counters)
        assert sum(counters[k] for k in per_worker) > 0
        assert result.strategies_tried > 0
        # the worker self-enabled metrics (the coordinator stripped obs
        # from the worker spec), so its registry reached the merged fold
        assert counters.get("sim.events", 0) > 0
        assert counters.get("runs.completed", 0) > 0
        # telemetry survives campaign completion for post-hoc `repro top`
        backend = store_for(store_path)
        statuses = load_statuses(_scope(backend))
        roles = {r["role"] for r in statuses.values()}
        assert roles >= {ROLE_WORKER, ROLE_COORDINATOR}
        assert all(r["phase"] == PHASE_EXITED for r in statuses.values()
                   if r["role"] == ROLE_WORKER)
