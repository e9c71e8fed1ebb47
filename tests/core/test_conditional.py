"""Tests for the conditional (if-then-else) template extension (§4.1)."""

import dataclasses
import time
from fractions import Fraction

import pytest

from repro.ccac import parse_environment
from repro.cegis import CegisLoop, PruningMode
from repro.core.conditional import (
    ConditionalCCA,
    ConditionalGenerator,
    ConditionalSpec,
    aimd_candidate,
    conditional_satisfies_spec,
    rocc_conditional,
    simulate_conditional,
    synthesize_conditional,
)
from repro.core.verifier import CcacVerifier
from repro.runtime.errors import SoundnessError
from repro.runtime.validate import _template_violations

#: the environment cells a conditional counterexample is replayed on
REPLAY_ENVIRONMENTS = [None, "lossy:buffer=1", "multiflow:min_share=0,phi=1/2"]


def _environments(text):
    return None if text is None else [parse_environment(text)]


class TestCandidates:
    def test_aimd_is_aimd_shaped(self):
        assert aimd_candidate().is_aimd_shaped()
        assert not rocc_conditional().is_aimd_shaped()

    def test_pretty_renders_both_branches(self):
        s = aimd_candidate().pretty()
        assert "if queue_est" in s and "else" in s

    def test_next_cwnd_branch_selection(self):
        cand = aimd_candidate(threshold=Fraction(2))
        # clear: queue_est = 4 - (10-8) = 2 <= 2 -> additive increase
        w = cand.next_cwnd(Fraction(4), Fraction(10), Fraction(8), Fraction(6), Fraction(0))
        assert w == 5
        # congested: queue_est = 4 - (10-9) = 3 > 2 -> halve
        w = cand.next_cwnd(Fraction(4), Fraction(10), Fraction(9), Fraction(8), Fraction(0))
        assert w == 2

    def test_rocc_conditional_equals_linear_rocc_on_ideal_history(self):
        cand = rocc_conditional()
        # ack history at rate 1: acked over 2 RTTs = 2, +1 -> 3
        w = cand.next_cwnd(Fraction(3), Fraction(10), Fraction(9), Fraction(8), Fraction(0))
        assert w == 3

    def test_spec_contains_and_iterates(self):
        spec = ConditionalSpec()
        cands = list(spec.iterate_candidates())
        assert len(cands) == spec.search_space_size
        assert spec.contains(aimd_candidate(threshold=Fraction(2)))
        assert spec.contains(rocc_conditional())


class TestVerifier:
    def test_rocc_conditional_verified(self, fast_cfg):
        assert CcacVerifier(fast_cfg).verify(rocc_conditional())

    def test_aimd_refuted(self, fast_cfg):
        """The adversary can hide the queue signal (jitter the acks), so
        the self-clocked AIMD guard misfires — the analogue of CCAC's
        findings for delay-signal CCAs like Copa/BBR."""
        res = CcacVerifier(fast_cfg).find_counterexample(aimd_candidate())
        assert not res.verified
        assert res.counterexample.check_environment() == []

    def test_pure_md_refuted(self, fast_cfg):
        shrink = ConditionalCCA(
            Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)
        )
        assert not CcacVerifier(fast_cfg).verify(shrink)

    def test_rocc_conditional_certified(self, fast_cfg):
        res = CcacVerifier(fast_cfg, certify=True).find_counterexample(
            rocc_conditional()
        )
        assert res.verified
        assert res.certified

    @pytest.mark.parametrize("worst_case", [False, True])
    @pytest.mark.parametrize("env", REPLAY_ENVIRONMENTS)
    def test_counterexamples_replay_the_guarded_rule(self, fast_cfg, env, worst_case):
        """The validator re-derives the guarded rule from the raw fields
        on lossless, lossy and two-flow traces (per flow)."""
        cand = aimd_candidate()
        res = CcacVerifier(fast_cfg, environments=_environments(env)).find_counterexample(
            cand, worst_case=worst_case
        )
        assert not res.verified
        assert _template_violations(res.counterexample, cand) == []
        other = dataclasses.replace(cand, delta_clear=cand.delta_clear + 1)
        assert _template_violations(res.counterexample, other) != []

    @pytest.mark.parametrize("env", REPLAY_ENVIRONMENTS)
    def test_encoding_bug_raises_soundness_error(self, fast_cfg, env, monkeypatch):
        """An encoding that differs from the rule (+1 on both deltas, so
        above the cwnd floor) must not prune silently: the default
        verifier replays the counterexample against the candidate."""
        encode = ConditionalCCA.constraints_for

        def shifted(self, model):
            bumped = dataclasses.replace(
                self,
                delta_congested=self.delta_congested + 1,
                delta_clear=self.delta_clear + 1,
            )
            return encode(bumped, model)

        monkeypatch.setattr(ConditionalCCA, "constraints_for", shifted)
        with pytest.raises(SoundnessError, match="candidate's rule"):
            CcacVerifier(fast_cfg, environments=_environments(env)).find_counterexample(
                aimd_candidate()
            )

    def test_expired_deadline_is_unknown(self, fast_cfg):
        res = CcacVerifier(fast_cfg).find_counterexample(
            aimd_candidate(), deadline=time.perf_counter() - 1
        )
        assert res.unknown
        assert not res.verified
        assert res.counterexample is None


class TestGenerator:
    def test_counterexample_filters(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg)
        trace = verifier.find_counterexample(aimd_candidate()).counterexample
        spec = ConditionalSpec(threshold_domain=(Fraction(2),))
        gen = ConditionalGenerator(spec, fast_cfg)
        before = gen.survivor_count
        gen.add_counterexample(trace)
        assert gen.survivor_count < before
        # the refuted candidate must be gone (it reproduced this trace)
        assert all(
            c.key() != aimd_candidate().key() for c in gen._survivors
        ) or conditional_satisfies_spec(
            aimd_candidate(), trace, fast_cfg, PruningMode.RANGE
        )

    def test_simulation_consistency_with_verifier_trace(self, fast_cfg):
        """Simulating the refuted candidate on its own counterexample
        reproduces the trace's cwnd trajectory (the verifier and the
        numeric semantics agree)."""
        cand = aimd_candidate()
        trace = CcacVerifier(fast_cfg).find_counterexample(cand).counterexample
        cwnd, A = simulate_conditional(cand, trace, fast_cfg)
        assert tuple(cwnd) == trace.cwnd
        assert tuple(A) == trace.A


class TestSynthesis:
    def test_synthesizes_verified_conditional(self, fast_cfg):
        """The enriched space contains RoCC, so synthesis must find a
        provably correct rule."""
        spec = ConditionalSpec(
            threshold_domain=(Fraction(2),),
            mu_domain=(Fraction(0), Fraction(1)),
            delta_domain=(Fraction(0), Fraction(1)),
        )
        outcome = synthesize_conditional(fast_cfg, spec=spec, time_budget=600)
        assert outcome.solutions
        assert CcacVerifier(fast_cfg).verify(outcome.solutions[0])

    def test_synthesize_conditional_forwards_deadline(self, fast_cfg, monkeypatch):
        """The loop hands its time budget's deadline to every verifier
        call, so one call cannot overrun ``time_budget``."""
        monkeypatch.setattr(CegisLoop, "run", lambda loop: loop)
        loop = synthesize_conditional(fast_cfg, time_budget=1)
        assert loop._verifier_takes_deadline
