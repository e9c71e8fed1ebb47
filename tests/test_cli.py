"""CLI smoke tests (fast configurations only)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        import argparse

        parser = build_parser()
        subactions = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ][0]
        assert set(subactions.choices) == {
            "synthesize", "verify", "certify", "sweep", "simulate",
            "assumption", "report", "resume", "bench-diff", "falsify",
            "serve", "submit", "status", "result",
        }

    def test_unknown_cca_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "bbr", "--T", "5"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag,value", [
        ("--time-budget", "-1"),
        ("--time-budget", "0"),
        ("--time-budget", "soon"),
        ("--max-iterations", "0"),
        ("--max-iterations", "-5"),
        ("--max-iterations", "many"),
        ("--solver-timeout", "-2"),
        ("--solver-mem-mb", "0"),
    ])
    def test_invalid_synthesize_inputs_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", flag, value])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert flag in err

    def test_resume_missing_checkpoint_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resume", "/nonexistent/run.ckpt"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err


class TestCommands:
    def test_verify_rocc(self, capsys):
        rc = main(["verify", "rocc", "--T", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFIED" in out

    def test_verify_const1_refuted(self, capsys):
        rc = main(["verify", "const:1", "--T", "5"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "COUNTEREXAMPLE" in out
        assert "utilization" in out

    def test_certify_rocc_and_const1(self, capsys):
        """``certify`` prints the checked proof of a verified CCA and
        exits 0; a refuted CCA prints its counterexample line (there is
        nothing to certify, so that is not a failure)."""
        rc = main(["certify", "rocc", "--T", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("rocc: ")
        assert "CERTIFIED in" in out
        assert "proof checked:" in out and "Farkas lemmas" in out
        rc = main(["certify", "const:1", "--T", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "COUNTEREXAMPLE" in out
        assert "CERTIFIED" not in out

    def test_certify_unknown_cca_rejected(self):
        with pytest.raises(SystemExit, match="unknown CCA"):
            main(["certify", "bbr", "--T", "5"])

    def test_simulate(self, capsys):
        rc = main(["simulate", "--ticks", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rocc" in out and "max_waste" in out

    def test_synthesize_tiny(self, capsys):
        rc = main([
            "synthesize", "--space", "no_cwnd_small", "--wce",
            "--T", "5", "--time-budget", "300",
        ])
        out = capsys.readouterr().out
        assert "iterations=" in out
        if rc == 0:
            assert "cwnd(t) =" in out

    def test_assumption_const1(self, capsys):
        rc = main(["assumption", "const:1", "--T", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wastes at most" in out


class TestCrossCheck:
    def test_synthesize_cross_check_prints_sim_verdicts(self, capsys):
        rc = main([
            "synthesize", "--space", "no_cwnd_small", "--wce",
            "--T", "5", "--time-budget", "300", "--cross-check",
        ])
        out = capsys.readouterr().out
        if rc == 0:
            assert "sim[" in out

    def test_cross_check_without_solutions_says_so(self, capsys):
        """One iteration of the bare small space cannot verify a
        solution; --cross-check must announce the skip, not stay mute."""
        rc = main([
            "synthesize", "--space", "no_cwnd_small", "--T", "5",
            "--max-iterations", "1", "--cross-check",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "no solution found" in out
        assert "cross-check: requested but no solutions to check" in out


@pytest.mark.falsify
class TestFalsifyCommand:
    def test_weakened_aimd_falsified(self, capsys):
        rc = main([
            "falsify", "aimd:8", "--T", "7", "--budget", "400",
            "--no-corpus",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FALSIFIED" in out
        assert "minimized" in out

    def test_verified_rocc_survives(self, capsys):
        rc = main([
            "falsify", "rocc", "--no-verify", "--T", "5",
            "--budget", "80", "--ticks", "60",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SURVIVED" in out

    def test_corpus_case_written(self, capsys, tmp_path):
        corpus = tmp_path / "cases"
        rc = main([
            "falsify", "aimd:8", "--T", "7", "--budget", "400",
            "--corpus-dir", str(corpus),
        ])
        capsys.readouterr()
        assert rc == 1
        assert list(corpus.glob("*.json"))

    def test_grid_manifest_written(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        rc = main([
            "falsify", "rocc", "--no-verify", "--T", "5",
            "--budget", "40", "--ticks", "40",
            "--grid", "--grid-jobs", "2", "--manifest", str(manifest),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "grid:" in out
        assert manifest.exists()
        doc = json.loads(manifest.read_text())
        assert doc["records"]

    def test_unknown_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["falsify", "bbr", "--no-verify", "--budget", "10"])


class TestObservability:
    def test_synthesize_trace_round_trip(self, capsys, tmp_path):
        """synthesize --trace writes parseable JSONL; report reads it back
        with generator/verifier span totals matching CegisStats closely."""
        trace = tmp_path / "out.jsonl"
        rc = main([
            "synthesize", "--space", "no_cwnd_small", "--wce",
            "--T", "5", "--time-budget", "300", "--trace", str(trace),
        ])
        capsys.readouterr()
        assert trace.exists()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {r["type"] for r in records}
        assert {"meta", "span", "event", "metrics"} <= kinds
        done = [r for r in records
                if r["type"] == "event" and r["name"] == "cegis.done"]
        assert len(done) == 1
        gen_total = sum(r["dur"] for r in records
                        if r["type"] == "span" and r["name"] == "cegis.generate")
        ver_total = sum(r["dur"] for r in records
                        if r["type"] == "span" and r["name"] == "cegis.verify")
        attrs = done[0]["attrs"]
        assert abs(gen_total - attrs["generator_time"]) \
            <= 0.05 * max(attrs["generator_time"], 1e-9)
        assert abs(ver_total - attrs["verifier_time"]) \
            <= 0.05 * max(attrs["verifier_time"], 1e-9)

        rc = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cegis.verify" in out
        assert "smt.checks" in out

    def test_global_flag_position_before_subcommand(self, capsys, tmp_path):
        trace = tmp_path / "before.jsonl"
        rc = main(["--trace", str(trace), "verify", "rocc", "--T", "5"])
        capsys.readouterr()
        assert rc == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["type"] == "span" and r["name"] == "smt.check"
                   for r in records)

    def test_log_level_info_renders_events(self, capsys):
        rc = main([
            "synthesize", "--space", "no_cwnd_small", "--T", "5",
            "--time-budget", "300", "--log-level", "info",
        ])
        out = capsys.readouterr().out
        assert "[cegis] iter" in out

    def test_report_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/trace.jsonl"])

    def test_report_perfetto_export(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        rc = main(["verify", "rocc", "--T", "5", "--trace", str(trace)])
        capsys.readouterr()
        assert rc == 0
        out_json = tmp_path / "perfetto.json"
        rc = main(["report", str(trace), "--perfetto", str(out_json)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "perfetto export:" in out
        doc = json.loads(out_json.read_text())
        assert any(e["ph"] == "X" and e["name"] == "smt.check"
                   for e in doc["traceEvents"])


class TestBenchDiff:
    REPORT = {
        "bench": "engine", "quick": True, "ok": True,
        "compile": {"pipeline_s": 2.0, "raw_s": 4.0, "speedup": 2.0},
        "cache": {"cold_s": 3.0, "warm_s": 0.5, "speedup": 6.0},
        "portfolio": {"jobs_1": {"wall_s": 10.0}, "jobs_4": {"wall_s": 4.0}},
    }

    def write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def baseline(self, tmp_path):
        from repro.obs.trajectory import append_entry

        history = str(tmp_path / "BENCH_engine.json")
        append_entry(history, self.REPORT, git_sha="base123")
        return history

    def test_within_gate_exits_zero(self, capsys, tmp_path):
        current = self.write(tmp_path, "current.json", self.REPORT)
        rc = main(["bench-diff", current, "--baseline", self.baseline(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within the regression gate" in out
        assert "base123" in out

    def test_thirty_percent_regression_exits_nonzero(self, capsys, tmp_path):
        slow = json.loads(json.dumps(self.REPORT))
        slow["portfolio"]["jobs_4"]["wall_s"] = 4.0 * 1.35
        current = self.write(tmp_path, "current.json", slow)
        rc = main(["bench-diff", current, "--baseline", self.baseline(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out
        assert "portfolio.jobs_4.wall_s" in out

    def test_max_regress_flag_widens_gate(self, capsys, tmp_path):
        slow = json.loads(json.dumps(self.REPORT))
        slow["portfolio"]["jobs_4"]["wall_s"] = 4.0 * 1.35
        current = self.write(tmp_path, "current.json", slow)
        rc = main(["bench-diff", current,
                   "--baseline", self.baseline(tmp_path),
                   "--max-regress", "50"])
        capsys.readouterr()
        assert rc == 0

    def test_empty_baseline_passes_with_notice(self, capsys, tmp_path):
        current = self.write(tmp_path, "current.json", self.REPORT)
        rc = main(["bench-diff", current,
                   "--baseline", str(tmp_path / "missing.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no baseline" in out.lower()

    def test_committed_baseline_is_a_trajectory(self):
        """The repo ships a real BENCH_engine.json history (satellite of
        the trajectory work): bench-diff must be able to gate against it."""
        import os

        from repro.obs.trajectory import is_trajectory, load_history

        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")
        assert is_trajectory(path)
        trajectory = load_history(path)
        entry = trajectory["history"][-1]
        assert entry["git_sha"] and entry["metrics"]
