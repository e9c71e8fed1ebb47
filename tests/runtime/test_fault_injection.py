"""End-to-end fault injection: SIGKILL a synthesis mid-run, then resume.

The child process runs a real checkpointed synthesis and SIGKILLs itself
from inside ``CheckpointStore.save`` after a few iterations — the worst
possible instant, mid-write — so these tests cover the atomic-replace
protocol, not just a polite shutdown.  Marked ``runtime`` (forks real
processes).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cegis import CegisLoop, CegisOptions, StopReason
from repro.core import synthesize
from repro.core.synthesizer import make_generator
from repro.engine import PortfolioVerifier
from repro.runtime import RuntimeOptions, WorkerLimits, run_synthesis
from repro.service import WorkerPool

pytestmark = pytest.mark.runtime


def _hang(*args):
    """Stands in for the verifier task (module level: pool tasks pickle)."""
    time.sleep(3600)

# the tiny query, spelled out so the child script builds the exact same one
_QUERY_SRC = """
from fractions import Fraction
from repro.ccac import ModelConfig
from repro.core import SynthesisQuery
from repro.core.template import TemplateSpec

cfg = ModelConfig(T=5, history=3)
spec = TemplateSpec(
    history=cfg.history,
    use_cwnd_history=False,
    coeff_domain=(-1, 0, 1),
    const_domain=(0, 1),
)
query = SynthesisQuery(
    spec=spec, cfg=cfg, generator="enum", worst_case_cex=False, time_budget=300,
)
"""

_CHILD_SRC = _QUERY_SRC + """
import os, signal
from repro.runtime import RuntimeOptions, run_synthesis
from repro.runtime.checkpoint import CheckpointStore

KILL_AFTER = 3
orig_save = CheckpointStore.save

def killing_save(self, **kwargs):
    orig_save(self, **kwargs)
    if self.saves >= KILL_AFTER:
        os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no atexit

CheckpointStore.save = killing_save
run_synthesis(query, RuntimeOptions(checkpoint_path={ckpt_path!r}))
raise SystemExit("unreachable: the run should have been killed")
"""


def _run_child(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=300
    )


@pytest.fixture
def killed_checkpoint(tmp_path):
    """Path of a checkpoint left behind by a SIGKILL'd synthesis."""
    ckpt = str(tmp_path / "killed.ckpt")
    proc = _run_child(_CHILD_SRC.format(ckpt_path=ckpt))
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    assert os.path.exists(ckpt)
    return ckpt


class TestSigkillResume:
    def test_killed_run_resumes_to_identical_answer(
        self, killed_checkpoint, tiny_query
    ):
        # the checkpoint is valid JSON mid-flight state
        with open(killed_checkpoint) as f:
            raw = json.load(f)
        assert raw["stop_reason"] is None
        assert raw["stats"]["iterations"] == 3

        full = synthesize(tiny_query)
        resumed = run_synthesis(
            tiny_query, RuntimeOptions(checkpoint_path=killed_checkpoint)
        )
        assert resumed.resumed
        assert resumed.solutions == full.solutions
        assert resumed.iterations == full.iterations
        assert resumed.counterexamples == full.counterexamples
        assert resumed.stop_reason is full.stop_reason is StopReason.SOLUTION

    def test_cli_resume_completes_killed_run(self, killed_checkpoint, capsys):
        from repro.cli import main

        rc = main(["resume", killed_checkpoint])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stop=solution" in out
        assert "(resumed)" in out
        assert "cwnd(t) =" in out

    def test_cli_resume_is_idempotent(self, killed_checkpoint, capsys):
        from repro.cli import main

        assert main(["resume", killed_checkpoint]) == 0
        capsys.readouterr()
        assert main(["resume", killed_checkpoint]) == 0  # verdict replayed
        assert "stop=solution" in capsys.readouterr().out


class TestKilledWorkerStillTerminates:
    def test_loop_survives_killed_verifier_and_reports_verdict(
        self, tiny_query, recording_sink, monkeypatch
    ):
        """Acceptance: a verifier worker that is killed mid-call yields
        unknown, emits runtime.degrade, and the CEGIS run still
        terminates with an explicit verdict."""
        import repro.engine.portfolio as portfolio_mod

        monkeypatch.setattr(portfolio_mod, "_verify_candidate_task", _hang)
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        with WorkerPool(size=1) as pool:
            verifier = PortfolioVerifier(
                tiny_query.cfg,
                jobs=1,
                limits=WorkerLimits(
                    wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
                ),
                pool=pool,
            )
            generator = make_generator(tiny_query)
            outcome = CegisLoop(
                generator, verifier, CegisOptions(time_budget=60)
            ).run()
        assert outcome.stop_reason is StopReason.DEGRADED
        assert not outcome.found
        kills = recording_sink.events("runtime.degrade")
        assert kills and all(
            e["attrs"]["kind"] == "worker_killed" for e in kills
        )
