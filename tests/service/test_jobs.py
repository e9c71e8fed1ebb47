"""The job API: JSON round-trips, fingerprints, version gating."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import SynthesisQuery, table1_spaces
from repro.runtime import RuntimeOptions
from repro.runtime.serialize import decode_config
from repro.service import (
    JOBSPEC_VERSION,
    JobRecord,
    JobSpec,
    JobSpecError,
    decode_synthesis_result,
    execute_job,
    falsify_spec,
    synthesis_spec,
    verify_spec,
)
from repro.service.jobs import _decode_options, _encode_options

pytestmark = pytest.mark.service


def _exact_cfg() -> ModelConfig:
    # thresholds that do not survive a float round-trip
    return ModelConfig(
        T=5, util_thresh=Fraction(1, 3), delay_thresh=Fraction(13, 7)
    )


class TestJobSpec:
    def test_roundtrip_preserves_exact_fractions(self):
        spec = verify_spec("rocc", _exact_cfg(), worst_case=True)
        wire = json.loads(json.dumps(spec.to_json()))
        back = JobSpec.from_json(wire)
        assert back == spec
        cfg = decode_config(back.params["cfg"])
        assert cfg.util_thresh == Fraction(1, 3)
        assert cfg.delay_thresh == Fraction(13, 7)

    def test_options_roundtrip_exact(self):
        options = RuntimeOptions(
            isolate=True,
            solver_timeout=12.5,
            wce_precision=Fraction(1, 1024),
            falsify=250,
            certify=True,
        )
        back = _decode_options(json.loads(json.dumps(_encode_options(options))))
        assert back.wce_precision == Fraction(1, 1024)
        assert back.isolate is True
        assert back.solver_timeout == 12.5
        assert back.falsify == 250
        assert back.certify is True

    @pytest.mark.parametrize("retired", [
        {"validate": False}, {"incremental": True},
    ])
    def test_retired_option_keys_are_ignored(self, retired):
        """A synthesize spec written before the ``validate`` and
        ``incremental`` switches were removed still decodes (same
        ``JOBSPEC_VERSION``); the retired keys are ignored."""
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"], cfg=ModelConfig(T=5)
        )
        wire = synthesis_spec(query, RuntimeOptions(isolate=True)).to_json()
        wire["params"]["options"].update(retired)
        spec = JobSpec.from_json(json.loads(json.dumps(wire)))
        assert spec.version == JOBSPEC_VERSION
        options = _decode_options(spec.params["options"])
        assert options == RuntimeOptions(isolate=True)
        assert not hasattr(options, next(iter(retired)))

    def test_checkpoint_path_is_not_part_of_a_spec(self):
        options = RuntimeOptions(checkpoint_path="/tmp/run.ckpt")
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"], cfg=ModelConfig(T=5)
        )
        spec = synthesis_spec(query, options)
        assert "checkpoint" not in json.dumps(spec.to_json())

    def test_fingerprint_ignores_dict_ordering(self):
        spec = falsify_spec("aimd:8", _exact_cfg(), budget=100, seed=7)
        wire = spec.to_json()
        scrambled = json.loads(
            json.dumps(wire, sort_keys=True)
        )
        scrambled["params"] = dict(reversed(list(scrambled["params"].items())))
        assert JobSpec.from_json(scrambled).fingerprint() == spec.fingerprint()

    def test_fingerprint_stable_across_processes(self):
        spec = verify_spec("rocc", _exact_cfg(), worst_case=True, falsify=50)
        code = (
            "from fractions import Fraction\n"
            "from repro.ccac import ModelConfig\n"
            "from repro.service import verify_spec\n"
            "cfg = ModelConfig(T=5, util_thresh=Fraction(1, 3),"
            " delay_thresh=Fraction(13, 7))\n"
            "print(verify_spec('rocc', cfg, worst_case=True,"
            " falsify=50).fingerprint())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == spec.fingerprint()

    def test_different_specs_different_fingerprints(self):
        cfg = _exact_cfg()
        assert verify_spec("rocc", cfg).fingerprint() != \
            verify_spec("eq3", cfg).fingerprint()

    def test_unsupported_version_rejected_with_clear_error(self):
        wire = verify_spec("rocc", ModelConfig(T=5)).to_json()
        wire["version"] = JOBSPEC_VERSION + 1
        with pytest.raises(JobSpecError, match="unsupported JobSpec version"):
            JobSpec.from_json(wire)

    def test_non_object_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_json([1, 2, 3])
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"version": JOBSPEC_VERSION, "kind": "verify",
                               "params": "nope"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            JobSpec(kind="frobnicate", params={})


class TestEnvironmentJobs:
    """v2 of the wire format: jobs carry their environment matrix."""

    def test_default_matches_explicit_lossless(self):
        from repro.ccac import lossless_environment

        cfg = _exact_cfg()
        implicit = verify_spec("rocc", cfg)
        explicit = verify_spec(
            "rocc", cfg, environments=[lossless_environment()]
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_environment_fingerprint_stable_across_processes(self):
        from repro.ccac import lossless_environment, lossy_environment

        envs = [lossless_environment(),
                lossy_environment(buffer=Fraction(13, 7))]
        spec = verify_spec("rocc", _exact_cfg(), environments=envs)
        code = (
            "from fractions import Fraction\n"
            "from repro.ccac import ModelConfig, lossless_environment,"
            " lossy_environment\n"
            "from repro.service import verify_spec\n"
            "cfg = ModelConfig(T=5, util_thresh=Fraction(1, 3),"
            " delay_thresh=Fraction(13, 7))\n"
            "envs = [lossless_environment(),"
            " lossy_environment(buffer=Fraction(13, 7))]\n"
            "print(verify_spec('rocc', cfg, environments=envs)"
            ".fingerprint())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == spec.fingerprint()

    def test_v2_specs_round_trip_environments(self):
        from repro.ccac import lossy_environment
        from repro.runtime.serialize import decode_environments

        envs = [lossy_environment(buffer=2)]
        spec = verify_spec("rocc", ModelConfig(T=5), environments=envs)
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert decode_environments(again.params["environments"]) == envs

    def test_verify_job_reports_origin_environment(self):
        from repro.ccac import lossy_environment

        spec = verify_spec("rocc", ModelConfig(T=5),
                           environments=[lossy_environment(buffer=1)])
        payload = execute_job(spec)
        assert payload["verified"] is False
        assert payload["environment"] == "lossy:buffer=1,loss_thresh=1"
        assert payload["counterexample"]["kind"] == "lossy"


class TestResultPayload:
    @pytest.fixture(scope="class")
    def tiny_payload(self):
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            generator="enum",
            worst_case_cex=False,
        )
        return execute_job(synthesis_spec(query))

    def test_decode_rebuilds_result(self, tiny_payload):
        result = decode_synthesis_result(tiny_payload)
        assert result.iterations == tiny_payload["iterations"]
        assert len(result.solutions) == len(tiny_payload["solutions"])
        assert result.stop_reason is not None

    def test_payload_fingerprint_excludes_timings(self, tiny_payload):
        from repro.service.jobs import _payload_fingerprint

        warped = dict(tiny_payload)
        warped["wall_time"] = tiny_payload["wall_time"] + 1000.0
        assert _payload_fingerprint(warped) == tiny_payload["fingerprint"]

    def test_tampered_payload_refused(self, tiny_payload):
        tampered = dict(tiny_payload)
        tampered["iterations"] = tiny_payload["iterations"] + 1
        with pytest.raises(JobSpecError, match="fingerprint"):
            decode_synthesis_result(tampered)


class TestExecute:
    def test_verify_job(self):
        payload = execute_job(verify_spec("rocc", ModelConfig(T=5)))
        assert payload["verified"] is True
        assert payload["counterexample"] is None
        assert payload["pretty"]

    def test_verify_counterexample_job(self):
        payload = execute_job(verify_spec("const:1", ModelConfig(T=5)))
        assert payload["verified"] is False
        assert payload["counterexample"] is not None
        assert "utilization" in payload["counterexample_text"]

    def test_unknown_cca_is_a_job_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown CCA"):
            execute_job(verify_spec("bbr", ModelConfig(T=5)))

    def test_progress_callback_sees_records(self):
        records = []
        execute_job(
            verify_spec("rocc", ModelConfig(T=5)),
            progress=records.append,
        )
        assert any(r.get("type") == "span" for r in records)


class TestJobRecord:
    def test_roundtrip(self):
        record = JobRecord(spec=verify_spec("rocc", ModelConfig(T=5)))
        record.state = "done"
        record.result = {"verified": True}
        back = JobRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back.job_id == record.job_id
        assert back.state == "done"
        assert back.result == {"verified": True}
        assert back.spec == record.spec

    def test_unknown_state_rejected(self):
        wire = JobRecord(spec=verify_spec("rocc", ModelConfig(T=5))).to_json()
        wire["state"] = "exploded"
        with pytest.raises(JobSpecError, match="unknown job state"):
            JobRecord.from_json(wire)
