"""The stable campaign API: CampaignSpec round-trip, spec-fingerprint
journal guarding, and the spec-file CLI surface."""

import json

import pytest

from repro.api import SPEC_VERSION, CampaignSpec, run_campaign
from repro.cli import main
from repro.core.checkpoint import JournalMismatch
from repro.core.executor import TestbedConfig
from repro.core.generation import GenerationConfig
from repro.core.parallel import RetryPolicy
from repro.core.supervisor import SupervisionConfig
from repro.fabric.config import FabricConfig
from repro.obs.config import ObsConfig


#: a spec document as written while ``batch_size`` was still a spec field
#: (spec files, service submissions and fabric manifests all carry it)
BATCH_SIZE_ERA_SPEC = {
    "batch_size": 8, "cache_dir": None, "checkpoint": None, "confirm": True,
    "confirmation": {"baseline_runs": 2, "noise_sigmas": 3.0}, "fabric": None,
    "generation": None, "obs": None, "resume": False,
    "retry": {"backoff": 0.0, "retries": 0}, "sample_every": 500, "service": None,
    "snapshots": {"enabled": False, "max_cached": 8, "min_events": 1000,
                  "store": None, "verify_fraction": 0.05},
    "supervision": {"max_tasks_per_child": None, "quarantine_after": 3,
                    "slot_budget": None},
    "tenant": "default",
    "testbed": {"chaos": None, "client_stop_at": 3.0, "dccp_client_stop_at": 6.0,
                "dccp_server_port": 5001, "duration": 10.0, "file_size": 100000000,
                "iss_space": 16777216, "max_events": None, "protocol": "tcp",
                "run_budget": None, "seed": 7, "server_port": 80,
                "variant": "linux-3.13"},
    "version": 2, "workers": None,
}


def _custom_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", seed=9),
        generation=GenerationConfig(drop_percents=(25, 75), inject_counts=(1,)),
        workers=3,
        confirm=False,
        sample_every=7,
        retry=RetryPolicy(retries=2),
        checkpoint="journal.jsonl",
        resume=True,
        cache_dir="runcache",
        obs=ObsConfig(metrics=True),
    )
    return base.with_overrides(**overrides) if overrides else base


class TestSpecRoundTrip:
    def test_default_spec_round_trips_through_json(self):
        spec = CampaignSpec()
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_customized_spec_round_trips_exactly(self):
        spec = _custom_spec()
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # tuples (not lists) must come back for generation sequences
        assert restored.generation.drop_percents == (25, 75)

    def test_to_dict_records_the_spec_version(self):
        assert CampaignSpec().to_dict()["version"] == SPEC_VERSION

    def test_incompatible_version_rejected(self):
        data = CampaignSpec().to_dict()
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match=f"version {SPEC_VERSION + 1}"):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("section, key, value", [
        ("confirmation", "noise_sigmas", float("nan")),
        ("fabric", "lease_ttl", float("inf")),
    ])
    def test_non_finite_numbers_rejected(self, section, key, value):
        data = _custom_spec(fabric=FabricConfig(store="memory://x")).to_dict()
        data[section][key] = value
        # through JSON, as a spec file or a service submission arrives
        with pytest.raises(ValueError, match=f"{section}.{key} is {value}"):
            CampaignSpec.from_dict(json.loads(json.dumps(data)))

    def test_unknown_nested_keys_ignored(self):
        data = _custom_spec().to_dict()
        data["testbed"]["future_knob"] = 1
        data["generation"]["future_knob"] = 2
        data["retry"]["future_knob"] = 3
        data["obs"]["future_knob"] = 4
        assert CampaignSpec.from_dict(data) == _custom_spec()

    def test_v1_documents_upgrade_to_v2(self):
        # a spec written before tenant existed loads with the default
        # tenant, and the round-trip is exact
        data = _custom_spec().to_dict()
        data["version"] = 1
        del data["tenant"]
        restored = CampaignSpec.from_dict(data)
        assert restored == _custom_spec()
        assert restored.tenant == "default"

    def test_removed_supervision_keys_still_load(self):
        # spec files from before the single worker pool carry supervision
        # keys that no longer exist; they load as the default config
        data = _custom_spec().to_dict()
        data["supervision"].update(enabled=False, wall_grace=9.0, poll_interval=0.5)
        restored = CampaignSpec.from_dict(data)
        assert restored.supervision == SupervisionConfig()
        assert restored == _custom_spec()
        assert restored.fingerprint() == _custom_spec().fingerprint()

    def test_dropped_batch_size_key_still_loads(self):
        restored = CampaignSpec.from_dict(json.loads(json.dumps(BATCH_SIZE_ERA_SPEC)))
        expected = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"), sample_every=500
        )
        assert restored == expected
        assert restored.fingerprint() == expected.fingerprint()
        rewritten = restored.to_dict()
        assert "batch_size" not in rewritten
        dropped = {"snapshots": "store", "retry": "backoff", "supervision": "max_tasks_per_child"}
        assert rewritten == {
            **{k: v for k, v in BATCH_SIZE_ERA_SPEC.items() if k not in ("batch_size", "service")},
            **{section: {k: v for k, v in BATCH_SIZE_ERA_SPEC[section].items() if k != key}
               for section, key in dropped.items()},
        }

    def test_dropped_snapshot_store_key_is_ignored(self):
        # spec documents written while snapshots could name a store
        data = _custom_spec().to_dict()
        data["snapshots"]["store"] = "dir://snaps"
        restored = CampaignSpec.from_dict(data)
        assert restored == _custom_spec()
        assert restored.fingerprint() == _custom_spec().fingerprint()
        assert "store" not in restored.to_dict()["snapshots"]

    def test_removed_runtime_settings_are_ignored(self):
        # spec documents written while run retries could sleep, workers
        # could be recycled and the store's retries were a setting
        spec = _custom_spec(fabric=FabricConfig(store="memory://x", lease_size=2))
        data = json.loads(json.dumps(spec.to_dict()))
        data["retry"]["backoff"] = 0.5
        data["supervision"]["max_tasks_per_child"] = 10
        data["fabric"].update(store_retries=6, store_backoff=0.01)
        restored = CampaignSpec.from_dict(data)
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        rewritten = restored.to_dict()
        assert "backoff" not in rewritten["retry"]
        assert "max_tasks_per_child" not in rewritten["supervision"]
        assert not {"store_retries", "store_backoff"} & set(rewritten["fabric"])

    @pytest.mark.parametrize("document, fingerprint", [
        ({}, "315bca9c28a081787049af6dc93325a1"),
        ({"testbed": {"protocol": "dccp", "variant": "linux-3.13-dccp", "seed": 9},
          "sample_every": 320}, "7c941453c5bff040f5dc190c5f9d0089"),
    ], ids=["default", "dccp-seed9"])
    def test_removed_keys_keep_the_pinned_identity(self, document, fingerprint):
        removed = {
            "retry": {"backoff": 2.0},
            "supervision": {"max_tasks_per_child": 1},
            "fabric": {"store": "dir://s", "store_retries": 6, "store_backoff": 0.5},
        }
        assert CampaignSpec.from_dict({**document, **removed}).fingerprint() == fingerprint

    def test_leftover_service_key_is_ignored(self):
        # spec v2 documents written while ``service`` was a field
        data = _custom_spec().to_dict()
        restored = CampaignSpec.from_dict({**data, "service": {"note": "nightly"}})
        assert restored == _custom_spec()
        assert restored.fingerprint() == CampaignSpec.from_dict(data).fingerprint()
        assert "service" not in restored.to_dict()

    def test_tenant_round_trips_and_stays_neutral(self):
        spec = _custom_spec(tenant="alice")
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # multi-tenancy is accounting, not computation: identity unchanged
        assert spec.fingerprint() == _custom_spec().fingerprint()

    def test_with_overrides_returns_modified_copy(self):
        spec = _custom_spec()
        other = spec.with_overrides(cache_dir=None, workers=16)
        assert other.cache_dir is None and other.workers == 16
        assert spec.cache_dir == "runcache"  # original untouched


class TestFingerprint:
    def test_execution_knobs_do_not_change_identity(self):
        spec = _custom_spec()
        same = spec.with_overrides(workers=1, cache_dir=None,
                                   checkpoint=None, resume=False, obs=None)
        assert same.fingerprint() == spec.fingerprint()

    def test_outcome_knobs_do(self):
        spec = _custom_spec()
        assert spec.with_overrides(sample_every=8).fingerprint() != spec.fingerprint()
        assert spec.with_overrides(confirm=True).fingerprint() != spec.fingerprint()
        assert spec.with_overrides(
            retry=RetryPolicy(retries=0)).fingerprint() != spec.fingerprint()
        assert spec.with_overrides(
            testbed=TestbedConfig(protocol="tcp")).fingerprint() != spec.fingerprint()

    # a drift in these values orphans every journal header, fabric
    # campaign id and service quarantine key built from a fingerprint
    def test_default_identity_is_pinned(self):
        assert CampaignSpec().fingerprint() == "315bca9c28a081787049af6dc93325a1"

    def test_custom_identity_is_pinned(self):
        spec = CampaignSpec(
            testbed=TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", seed=9),
            sample_every=320,
        )
        assert spec.fingerprint() == "7c941453c5bff040f5dc190c5f9d0089"


class TestResumeFingerprintGuard:
    """The bugfix satellite: ``--resume`` must refuse a journal written
    under a different campaign spec."""

    def _spec(self, path, **overrides):
        base = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=1, sample_every=500, checkpoint=path,
        )
        return base.with_overrides(**overrides)

    def test_resume_under_same_spec_is_accepted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_campaign(self._spec(path))
        resumed = run_campaign(self._spec(path, resume=True))
        assert resumed.resumed_count > 0

    def test_resume_under_different_spec_is_refused(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_campaign(self._spec(path))
        with pytest.raises(JournalMismatch):
            run_campaign(self._spec(path, resume=True, sample_every=400))

    def test_journal_without_fingerprint_is_refused(self, tmp_path):
        # a journal from before spec fingerprints existed: same config
        # otherwise, but its header cannot vouch for the spec
        path = str(tmp_path / "journal.jsonl")
        run_campaign(self._spec(path))
        lines = open(path).read().splitlines(True)
        header = json.loads(lines[0])
        del header["spec_fingerprint"]
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(lines[1:])
        with pytest.raises(JournalMismatch):
            run_campaign(self._spec(path, resume=True))


class TestSpecCLI:
    ARGS = ["campaign", "--protocol", "tcp", "--sample-every", "500"]

    def test_dry_run_prints_the_spec(self, capsys):
        assert main([*self.ARGS, "--dry-run"]) == 0
        out = capsys.readouterr()
        spec = CampaignSpec.from_dict(json.loads(out.out))
        assert spec.testbed.protocol == "tcp"
        assert spec.sample_every == 500
        assert "spec fingerprint:" in out.err

    def test_unset_flags_leave_the_config_defaults(self, tmp_path, capsys):
        from repro.fabric.config import FabricConfig

        store = f"dir://{tmp_path / 'store'}"
        assert main([*self.ARGS, "--fabric", "--store", store, "--dry-run"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["fabric"] == FabricConfig(store=store).to_dict()
        spec = CampaignSpec.from_dict(document)
        assert spec.supervision == SupervisionConfig()

    def test_spec_out_then_spec_in_round_trips(self, tmp_path, capsys):
        path = str(tmp_path / "spec.json")
        assert main([*self.ARGS, "--cache-dir", str(tmp_path / "c"),
                     "--spec-out", path, "--dry-run"]) == 0
        written = capsys.readouterr().out
        assert main(["campaign", "--spec", path, "--dry-run"]) == 0
        assert capsys.readouterr().out == written

    def test_no_cache_overrides_spec_file(self, tmp_path, capsys):
        path = str(tmp_path / "spec.json")
        assert main([*self.ARGS, "--cache-dir", str(tmp_path / "c"),
                     "--spec-out", path, "--dry-run"]) == 0
        capsys.readouterr()
        assert main(["campaign", "--spec", path, "--no-cache", "--dry-run"]) == 0
        spec = CampaignSpec.from_dict(json.loads(capsys.readouterr().out))
        assert spec.cache_dir is None

    def test_spec_file_with_dropped_batch_size_runs(self, tmp_path, capsys):
        path = str(tmp_path / "old-spec.json")
        with open(path, "w") as fh:
            json.dump(BATCH_SIZE_ERA_SPEC, fh)
        assert main(["campaign", "--spec", path, "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "batch_size" not in printed
        assert printed["sample_every"] == 500

    def test_batch_size_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--batch-size", "4", "--dry-run"])
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_snap_store_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--snapshots", "--snap-store", "dir://x", "--dry-run"])
        assert excinfo.value.code == 2
        assert "--snap-store" in capsys.readouterr().err

    def test_unreadable_spec_file_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert main(["campaign", "--spec", path]) == 2
        assert "cannot build campaign spec" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ({"confirmation": {"noise_sigmas": float("nan")}}, "spec.confirmation.noise_sigmas is nan"),
        ([SPEC_VERSION], "spec must be a JSON object"),
        ({"version": SPEC_VERSION, "testbed": [1]}, "spec.testbed must be an object"),
        ({"sample_every": 0}, "sample_every must be >= 1"),
        ({"retry": {"retries": -1}}, "retries must be >= 0"),
        ({"sample_every": 400.5}, "spec.sample_every must be an integer, got 400.5"),
        ({"sample_every": True}, "spec.sample_every must be an integer, got True"),
        ({"workers": "two"}, "spec.workers must be an integer, got 'two'"),
        ({"confirm": "no"}, "spec.confirm must be a boolean, got 'no'"),
        ({"checkpoint": 5}, "spec.checkpoint must be a string, got 5"),
        ({"tenant": 7}, "spec.tenant must be a string, got 7"),
        ({"testbed": {"seed": "x"}}, "spec.testbed.seed must be an integer, got 'x'"),
        ({"retry": {"retries": 1.5}}, "spec.retry.retries must be an integer, got 1.5"),
    ], ids=["nan", "array", "non-object-section", "zero-sample-every", "negative-retries",
            "fractional-sample-every", "bool-sample-every", "string-workers",
            "string-confirm", "number-checkpoint", "number-tenant", "string-seed",
            "fractional-retries"])
    def test_invalid_spec_file_is_an_error(self, tmp_path, capsys, document, message):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        assert main(["campaign", "--spec", path, "--dry-run"]) == 2
        assert f"error: cannot build campaign spec: {message}" in capsys.readouterr().err

    def test_mismatched_resume_exits_with_error(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main([*self.ARGS, "--checkpoint", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "--protocol", "tcp", "--sample-every", "400",
                     "--resume", journal]) == 2
        assert "error" in capsys.readouterr().err

    def test_damaged_journal_resume_exits_with_error(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main([*self.ARGS, "--checkpoint", journal]) == 0
        capsys.readouterr()
        with open(journal) as fh:
            lines = fh.readlines()
        lines.insert(2, "garbage\n")  # mid-file, so not a torn tail
        with open(journal, "w") as fh:
            fh.writelines(lines)
        assert main([*self.ARGS, "--resume", journal]) == 2
        assert "line 3 is not valid JSON" in capsys.readouterr().err
