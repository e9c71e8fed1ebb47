"""Portfolio verification: first conclusive verdict wins, no zombies.

The race mechanics (winners, cancellation, timeouts) belong to the pool
and are tested in ``tests/service/test_pool.py``; the telemetry merge of
a first-accept race is checked here.
"""

import multiprocessing
import time

import pytest

from repro.engine import PortfolioVerifier
from repro.service import WorkerPool

pytestmark = [pytest.mark.engine, pytest.mark.runtime]


def _no_zombies():
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


def _traced(value):
    from repro.obs import metrics, tracer

    with tracer().span("child.solve"):
        metrics().counter("test.portfolio.relay").inc(1)
    return value


def test_race_merges_worker_telemetry():
    """The winning worker's spans come back tagged with its lane and
    anchored under the race's batch span, even though the loser is
    cancelled."""
    from repro.obs import Sink, metrics, tracer

    class Rec(Sink):
        def __init__(self):
            self.records = []

        def emit(self, record):
            self.records.append(record)

    tr = tracer()
    sink = tr.add_sink(Rec())
    before = metrics().counter("test.portfolio.relay").value
    try:
        with WorkerPool(size=2) as pool:
            outcome = pool.run_batch(
                [(_traced, ("a",)), (_traced, ("b",))], wall_time=25.0
            )
    finally:
        tr.remove_sink(sink)
    assert outcome.winner is not None
    assert outcome.result == ("a", "b")[outcome.winner]
    # the winner's frame always merges; a loser that finished before the
    # cancel may add its own
    assert metrics().counter("test.portfolio.relay").value > before
    spans = [r for r in sink.records if r.get("type") == "span"]
    race = [r for r in spans if r["name"] == "service.pool.batch"]
    assert len(race) == 1 and race[0]["attrs"]["relayed"] >= 1
    runs = [r for r in spans if r["name"] == "worker.run"]
    assert runs and all(r["parent"] == race[0]["id"] for r in runs)
    assert all(r["attrs"]["worker"] in ("p0", "p1") for r in runs)
    solves = [r for r in spans if r["name"] == "child.solve"]
    assert {s["parent"] for s in solves} <= {r["id"] for r in runs}
    assert _no_zombies()


def test_verifier_batch_verdicts_match_sequential(fast_cfg):
    """The portfolio verifier's winning verdict agrees with a plain
    in-process verification of the same candidate."""
    from repro.core import constant_cwnd, rocc
    from repro.core.verifier import CcacVerifier

    candidates = [constant_cwnd(1, 3), rocc(3)]
    with WorkerPool(size=2) as pool:
        portfolio = PortfolioVerifier(fast_cfg, jobs=2, pool=pool)
        verdict = portfolio.verify_batch(candidates)
    assert verdict.winner is not None
    assert verdict.launched == 2

    sequential = CcacVerifier(fast_cfg).find_counterexample(
        candidates[verdict.winner]
    )
    assert verdict.result.verified == sequential.verified
    assert (verdict.result.counterexample is None) == (
        sequential.counterexample is None
    )
    assert _no_zombies()


def test_single_candidate_path(fast_cfg):
    from repro.core import rocc

    with WorkerPool(size=2) as pool:
        portfolio = PortfolioVerifier(fast_cfg, jobs=2, pool=pool)
        result = portfolio.find_counterexample(rocc(3))
    assert result.verified
    assert _no_zombies()


def test_jobs_validation(fast_cfg):
    with pytest.raises(ValueError):
        PortfolioVerifier(fast_cfg, jobs=0, pool=WorkerPool(size=1))
    with pytest.raises(ValueError, match="pool"):
        PortfolioVerifier(fast_cfg, jobs=2)


def test_environment_grid_requires_every_cell_unsat(fast_cfg):
    """In matrix mode a candidate only wins as verified when every
    environment answered UNSAT; any cell's counterexample wins outright,
    tagged with its origin."""
    from repro.ccac import lossless_environment, lossy_environment
    from repro.core import rocc

    envs = [lossless_environment(), lossy_environment(buffer=8)]
    tiny = [lossless_environment(), lossy_environment(buffer=1)]
    with WorkerPool(size=2) as pool:
        portfolio = PortfolioVerifier(
            fast_cfg, jobs=2, environments=envs, pool=pool
        )
        verdict = portfolio.verify_batch([rocc(3)])
        assert verdict.winner == 0
        assert verdict.result.verified
        assert verdict.result.counterexample is None

        portfolio = PortfolioVerifier(
            fast_cfg, jobs=2, environments=tiny, pool=pool
        )
        verdict = portfolio.verify_batch([rocc(3)])
    assert _no_zombies()
    assert verdict.winner == 0
    assert not verdict.result.verified
    cex = verdict.result.counterexample
    assert cex is not None
    assert cex.environment is not None
    assert cex.environment.kind == "lossy"
    assert _no_zombies()


def test_synthesis_verdict_identical_across_jobs(fast_cfg):
    """jobs=1 and jobs=3 reach the same verdict on the same query (the
    winning solutions are independently proven, so verdict-level equality
    is the right equivalence)."""
    from repro.core import SynthesisQuery, synthesize, table1_spaces
    from repro.ccac import ModelConfig

    cfg = ModelConfig(T=5)
    spec = table1_spaces()["no_cwnd_small"]
    results = {}
    for jobs in (1, 3):
        query = SynthesisQuery(
            spec=spec, cfg=cfg, generator="enum",
            worst_case_cex=False, jobs=jobs,
        )
        results[jobs] = synthesize(query)
    assert results[1].found == results[3].found
    assert results[1].exhausted == results[3].exhausted
    assert _no_zombies()
