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
from repro.obs.config import ObsConfig


def _custom_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", seed=9),
        generation=GenerationConfig(drop_percents=(25, 75), inject_counts=(1,)),
        workers=3,
        confirm=False,
        sample_every=7,
        retry=RetryPolicy(retries=2, backoff=0.5),
        checkpoint="journal.jsonl",
        resume=True,
        cache_dir="runcache",
        batch_size=4,
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
        with pytest.raises(ValueError, match="version"):
            CampaignSpec.from_dict(data)

    def test_unknown_nested_keys_ignored(self):
        data = _custom_spec().to_dict()
        data["testbed"]["future_knob"] = 1
        data["generation"]["future_knob"] = 2
        data["retry"]["future_knob"] = 3
        data["obs"]["future_knob"] = 4
        assert CampaignSpec.from_dict(data) == _custom_spec()

    def test_v1_documents_upgrade_to_v2(self):
        # a spec written before tenant/service existed: the upgrade hook
        # chain fills in the v2 defaults and the round-trip is exact
        data = _custom_spec().to_dict()
        data["version"] = 1
        del data["tenant"]
        del data["service"]
        restored = CampaignSpec.from_dict(data)
        assert restored == _custom_spec()
        assert restored.tenant == "default" and restored.service is None

    def test_removed_supervision_keys_still_load(self):
        # spec files from before the single worker pool carry supervision
        # keys that no longer exist; they load as the default config
        data = _custom_spec().to_dict()
        data["supervision"].update(enabled=False, wall_grace=9.0, poll_interval=0.5)
        restored = CampaignSpec.from_dict(data)
        assert restored.supervision == SupervisionConfig()
        assert restored == _custom_spec()
        assert restored.fingerprint() == _custom_spec().fingerprint()

    def test_tenant_and_service_round_trip_and_stay_neutral(self):
        spec = _custom_spec(tenant="alice", service={"note": "nightly"})
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # multi-tenancy is accounting, not computation: identity unchanged
        assert spec.fingerprint() == _custom_spec().fingerprint()

    def test_with_overrides_returns_modified_copy(self):
        spec = _custom_spec()
        other = spec.with_overrides(cache_dir=None, batch_size=16)
        assert other.cache_dir is None and other.batch_size == 16
        assert spec.cache_dir == "runcache"  # original untouched


class TestFingerprint:
    def test_execution_knobs_do_not_change_identity(self):
        spec = _custom_spec()
        same = spec.with_overrides(workers=1, batch_size=64, cache_dir=None,
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

    def test_controller_agrees_with_spec(self):
        spec = CampaignSpec(testbed=TestbedConfig(), sample_every=500)
        assert spec.build_controller().spec_fingerprint() == spec.fingerprint()


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

    def test_spec_out_then_spec_in_round_trips(self, tmp_path, capsys):
        path = str(tmp_path / "spec.json")
        assert main([*self.ARGS, "--cache-dir", str(tmp_path / "c"),
                     "--batch-size", "4", "--spec-out", path, "--dry-run"]) == 0
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

    def test_unreadable_spec_file_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert main(["campaign", "--spec", path]) == 2
        assert "cannot build campaign spec" in capsys.readouterr().err

    def test_mismatched_resume_exits_with_error(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main([*self.ARGS, "--checkpoint", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "--protocol", "tcp", "--sample-every", "400",
                     "--resume", journal]) == 2
        assert "error" in capsys.readouterr().err
