"""Isolated verifier calls (``PortfolioVerifier`` with ``jobs=1`` on a
single-worker pool): watchdog kills, retry policy, flight recorder.

The pool mechanics underneath (wall-clock kills, memory caps, error
reports, telemetry relay) are tested in ``tests/service/test_pool.py``.

Marked ``runtime``: each test forks real processes, so the module is
slower than the rest of the suite (`-m "not runtime"` skips it).
"""

import time
from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import constant_cwnd, rocc
from repro.engine import PortfolioVerifier
from repro.runtime import (
    SoundnessError,
    WorkerError,
    WorkerLimits,
)
from repro.service import WorkerPool

pytestmark = pytest.mark.runtime


# accept arbitrary args so these can stand in for _verify_candidate_task
def _sleep_forever(*args):
    time.sleep(3600)
    return "never"


def _raise_soundness(*args):
    raise SoundnessError("injected: model refuted in worker")


def _raise_value_error(*args):
    raise ValueError("deterministic bug")


def _traced_task(*args):
    from repro.obs import metrics, tracer

    with tracer().span("child.solve"):
        metrics().counter("test.relay.checks").inc(5)
    return "traced"


@pytest.fixture
def pool():
    with WorkerPool(size=1) as pool:
        yield pool


class TestWorkerLimits:
    def test_budget_escalates_per_attempt(self):
        limits = WorkerLimits(wall_time=10.0, escalation=2.0)
        assert limits.budget(0) == 10.0
        assert limits.budget(1) == 20.0
        assert limits.budget(2) == 40.0


class TestIsolatedCalls:
    def test_verdicts_match_inline_verifier(self, pool):
        cfg = ModelConfig(T=5)
        iv = PortfolioVerifier(
            cfg, jobs=1, limits=WorkerLimits(wall_time=300, retries=0),
            pool=pool,
        )
        assert iv.find_counterexample(rocc()).verified
        refuted = iv.find_counterexample(constant_cwnd(Fraction(1)))
        assert not refuted.verified
        assert refuted.counterexample is not None
        assert refuted.counterexample.check_environment() == []
        assert iv.kills == 0

    def test_killed_worker_degrades_to_unknown(
        self, recording_sink, monkeypatch, pool
    ):
        """A worker that never returns is killed, retried, and finally
        reported as an honest (degraded) unknown with runtime.degrade
        events — never a crash, never a verdict."""
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _sleep_forever
        )
        cfg = ModelConfig(T=5)
        iv = PortfolioVerifier(
            cfg,
            jobs=1,
            limits=WorkerLimits(
                wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
            ),
            pool=pool,
        )
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        result = iv.find_counterexample(rocc())
        assert result.unknown
        assert result.degraded
        assert not result.verified
        assert iv.kills == 2  # first attempt + one retry
        events = recording_sink.events("runtime.degrade")
        assert len(events) == 2
        assert all(e["attrs"]["kind"] == "worker_killed" for e in events)

    def test_deterministic_child_error_raises_worker_error(
        self, monkeypatch, pool
    ):
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _raise_value_error
        )
        iv = PortfolioVerifier(ModelConfig(T=5), jobs=1, pool=pool)
        with pytest.raises(WorkerError, match="ValueError"):
            iv.find_counterexample(rocc())

    def test_soundness_error_in_worker_propagates(self, monkeypatch, pool):
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _raise_soundness
        )
        iv = PortfolioVerifier(ModelConfig(T=5), jobs=1, pool=pool)
        with pytest.raises(SoundnessError):
            iv.find_counterexample(rocc())


class TestTelemetryRelay:
    """Parent-side lane spans of isolated attempts reach the trace."""

    def test_child_spans_relayed_with_worker_tag(
        self, recording_sink, monkeypatch, pool
    ):
        """An isolated attempt's child spans and metric deltas reach the
        parent, tagged with the attempt's lane and nested inside its
        parent-side ``runtime.worker`` span."""
        import repro.engine.portfolio as portfolio_mod
        from repro.obs import metrics

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _traced_task
        )
        before = metrics().counter("test.relay.checks").value
        iv = PortfolioVerifier(
            ModelConfig(T=5), jobs=1,
            limits=WorkerLimits(wall_time=30, retries=0), pool=pool,
        )
        assert iv.find_counterexample(rocc()) == "traced"
        assert iv.kills == 0
        # the child's counter delta merged into the parent registry
        assert metrics().counter("test.relay.checks").value == before + 5
        spans = {
            r["name"]: r for r in recording_sink.records
            if r.get("type") == "span"
        }
        # parent-side lane span, the pool batch, and the relayed child spans
        assert {"runtime.worker", "service.pool.batch", "worker.run",
                "child.solve"} <= set(spans)
        lane = spans["runtime.worker"]
        assert lane["attrs"]["worker"] == "p0"
        assert lane["attrs"]["status"] == "ok"
        assert spans["service.pool.batch"]["parent"] == lane["id"]
        run = spans["worker.run"]
        assert run["attrs"]["worker"] == "p0"
        assert run["parent"] == spans["service.pool.batch"]["id"]
        assert spans["child.solve"]["parent"] == run["id"]

    def test_killed_worker_dumps_flight_recorder(
        self, recording_sink, monkeypatch, tmp_path, pool
    ):
        """Exhausting retries on a hung worker leaves a parseable black
        box (the worker-escalation dump)."""
        import repro.engine.portfolio as portfolio_mod
        import repro.obs.flight as flight
        from repro.obs import tracer
        from repro.obs.report import load_trace

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _sleep_forever
        )
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        saved = flight._RECORDER, flight._DUMP_DIR
        flight._RECORDER, flight._DUMP_DIR = None, None
        try:
            flight.ensure_flight_recorder()
            flight.set_dump_dir(str(tmp_path))
            iv = PortfolioVerifier(
                ModelConfig(T=5),
                jobs=1,
                limits=WorkerLimits(
                    wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
                ),
                pool=pool,
            )
            result = iv.find_counterexample(rocc())
            assert result.unknown and result.degraded
            dumps = list(tmp_path.glob("flightrec-worker-escalation-*.jsonl"))
            assert len(dumps) == 1
            summary = load_trace(str(dumps[0]))
            assert summary.malformed == 0
            assert summary.meta and summary.meta.get("flight_recorder")
            # the lane spans of the killed attempts made it into the ring
            assert summary.spans["runtime.worker"].count == 2
        finally:
            if flight._RECORDER is not None:
                tracer().remove_sink(flight._RECORDER)
            flight._RECORDER, flight._DUMP_DIR = saved


class TestPortfolioEscalation:
    def test_all_hung_round_retried_then_degraded(
        self, recording_sink, monkeypatch, tmp_path
    ):
        """A ``jobs=2`` round whose tasks all hang is retried
        ``limits.retries`` times with escalated budgets, then comes back
        as a degraded unknown with one ``worker-escalation`` dump."""
        import repro.engine.portfolio as portfolio_mod
        import repro.obs.flight as flight
        from repro.obs import tracer

        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _sleep_forever
        )
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        saved = flight._RECORDER, flight._DUMP_DIR
        flight._RECORDER, flight._DUMP_DIR = None, None
        try:
            flight.ensure_flight_recorder()
            flight.set_dump_dir(str(tmp_path))
            with WorkerPool(size=2) as pool:
                pv = PortfolioVerifier(
                    ModelConfig(T=5),
                    jobs=2,
                    limits=WorkerLimits(
                        wall_time=0.2, retries=2, escalation=2.0,
                        kill_grace=0.3, backoff_cap=0.05,
                    ),
                    pool=pool,
                    retry_seed=7,
                )
                verdict = pv.verify_batch([rocc(), constant_cwnd(Fraction(1))])
            assert verdict.winner is None
            assert verdict.result.unknown and verdict.result.degraded
            assert not verdict.result.verified
            assert pv.kills == 6  # two tasks x (first attempt + 2 retries)
            events = recording_sink.events("runtime.degrade")
            assert [e["attrs"]["kind"] for e in events] == ["worker_killed"] * 6
            budgets = [e["attrs"]["budget"] for e in events]
            assert budgets == [0.2, 0.2, 0.4, 0.4, 0.8, 0.8]
            assert [d["kind"] for d in pv.degradations] == ["worker_killed"] * 6
            dumps = list(tmp_path.glob("flightrec-*.jsonl"))
            assert [d.name.startswith("flightrec-worker-escalation-")
                    for d in dumps] == [True]
            rounds = [
                r for r in recording_sink.records
                if r.get("type") == "span" and r["name"] == "runtime.worker"
            ]
            assert [r["attrs"]["attempt"] for r in rounds] == [0, 1, 2]
            assert all(r["attrs"]["status"] == "timeout" for r in rounds)
        finally:
            if flight._RECORDER is not None:
                tracer().remove_sink(flight._RECORDER)
            flight._RECORDER, flight._DUMP_DIR = saved


class TestIsolatedRun:
    def test_isolated_run_starts_one_pool(self, tiny_query, monkeypatch):
        """``--isolate`` runs every verifier call of a run on one
        single-worker pool: one spawn, however many calls."""
        from repro.runtime import RuntimeOptions, run_synthesis

        started = []
        original = WorkerPool.start

        def start(self):
            started.append(self)
            return original(self)

        monkeypatch.setattr(WorkerPool, "start", start)
        result = run_synthesis(tiny_query, RuntimeOptions(isolate=True))
        assert result.found
        assert result.iterations >= 3
        assert not result.degradations  # no kills
        assert len(started) == 1
        assert started[0].size == 1
        assert started[0].stats.spawns == 1
        assert started[0].stats.tasks_done == result.iterations

    def test_isolated_serial_query_matches_known_answer(self):
        """The benchmark's ``serial`` query run with ``--isolate`` gives
        the recorded answer: 36 iterations, the same certified
        solution."""
        import json
        from pathlib import Path

        from repro.cegis import PruningMode
        from repro.core import SynthesisQuery, table1_spaces
        from repro.runtime import RuntimeOptions, run_synthesis
        from repro.runtime.serialize import decode_candidate

        answers = Path(__file__).resolve().parents[2] / "perfbench" / "answers.json"
        expected = json.loads(answers.read_text())["serial"]
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            pruning=PruningMode.RANGE,
            worst_case_cex=False,
            generator="enum",
        )
        result = run_synthesis(
            query, RuntimeOptions(degrade=False, certify=True, isolate=True)
        )
        assert result.stop_reason.value == expected["stop_reason"]
        assert result.iterations == expected["iterations"]
        assert result.certified_verdicts == expected["certified_verdicts"]
        assert result.solutions == [
            decode_candidate(s) for s in expected["solutions"]
        ]
