"""Isolated verifier: watchdog kills, retry policy, flight recorder.

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
from repro.runtime import (
    IsolatedVerifier,
    SoundnessError,
    WorkerError,
    WorkerLimits,
)

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


class TestWorkerLimits:
    def test_budget_escalates_per_attempt(self):
        limits = WorkerLimits(wall_time=10.0, escalation=2.0)
        assert limits.budget(0) == 10.0
        assert limits.budget(1) == 20.0
        assert limits.budget(2) == 40.0


class TestIsolatedVerifier:
    def test_verdicts_match_inline_verifier(self):
        cfg = ModelConfig(T=5)
        iv = IsolatedVerifier(cfg, limits=WorkerLimits(wall_time=300, retries=0))
        assert iv.find_counterexample(rocc()).verified
        refuted = iv.find_counterexample(constant_cwnd(Fraction(1)))
        assert not refuted.verified
        assert refuted.counterexample is not None
        assert refuted.counterexample.check_environment() == []
        assert iv.kills == 0

    def test_killed_worker_degrades_to_unknown(self, recording_sink, monkeypatch):
        """A worker that never returns is killed, retried, and finally
        reported as an honest (degraded) unknown with runtime.degrade
        events — never a crash, never a verdict."""
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _sleep_forever
        )
        cfg = ModelConfig(T=5)
        iv = IsolatedVerifier(
            cfg,
            limits=WorkerLimits(
                wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
            ),
        )
        monkeypatch.setattr(IsolatedVerifier, "WATCHDOG_SLACK", 1.0)
        result = iv.find_counterexample(rocc())
        assert result.unknown
        assert result.degraded
        assert not result.verified
        assert iv.kills == 2  # first attempt + one retry
        events = recording_sink.events("runtime.degrade")
        assert len(events) == 2
        assert all(e["attrs"]["kind"] == "worker_killed" for e in events)

    def test_deterministic_child_error_raises_worker_error(self, monkeypatch):
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _raise_value_error
        )
        iv = IsolatedVerifier(ModelConfig(T=5))
        with pytest.raises(WorkerError, match="ValueError"):
            iv.find_counterexample(rocc())

    def test_soundness_error_in_worker_propagates(self, monkeypatch):
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(
            portfolio_mod, "_verify_candidate_task", _raise_soundness
        )
        iv = IsolatedVerifier(ModelConfig(T=5))
        with pytest.raises(SoundnessError):
            iv.find_counterexample(rocc())


class TestTelemetryRelay:
    """Parent-side lane spans of isolated attempts reach the trace."""

    def test_child_spans_relayed_with_worker_tag(
        self, recording_sink, monkeypatch
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
        iv = IsolatedVerifier(
            ModelConfig(T=5), limits=WorkerLimits(wall_time=30, retries=0)
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
        self, recording_sink, monkeypatch, tmp_path
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
        monkeypatch.setattr(IsolatedVerifier, "WATCHDOG_SLACK", 1.0)
        saved = flight._RECORDER, flight._DUMP_DIR
        flight._RECORDER, flight._DUMP_DIR = None, None
        try:
            flight.ensure_flight_recorder()
            flight.set_dump_dir(str(tmp_path))
            iv = IsolatedVerifier(
                ModelConfig(T=5),
                limits=WorkerLimits(
                    wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
                ),
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
