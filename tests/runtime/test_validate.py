"""Independent result validation: the compensating check for the
from-scratch SMT solver (SAT models, counterexample traces)."""

from fractions import Fraction

import pytest

from repro.ccac import CexTrace, ModelConfig
from repro.core import CcacVerifier, constant_cwnd, rocc
from repro.runtime import (
    SoundnessError,
    evaluate_term,
    validate_assignment,
    validate_counterexample,
    validate_model,
)
from repro.smt import And, Bool, Implies, Not, Or, Real, RealVal, Solver, sat


class TestEvaluateTerm:
    def test_arithmetic_and_comparison(self):
        x, y = Real("x"), Real("y")
        reals = {x: Fraction(3, 2), y: Fraction(-1, 2)}
        assert evaluate_term(x + y, {}, reals) == Fraction(1)
        assert evaluate_term(x - y, {}, reals) == Fraction(2)
        assert evaluate_term(2 * x, {}, reals) == Fraction(3)
        assert evaluate_term(x <= y, {}, reals) is False
        assert evaluate_term(y < x, {}, reals) is True
        assert evaluate_term(x.eq(RealVal(Fraction(3, 2))), {}, reals) is True

    def test_boolean_structure(self):
        p, q = Bool("p"), Bool("q")
        bools = {p: True, q: False}
        assert evaluate_term(And(p, Not(q)), bools, {}) is True
        assert evaluate_term(Or(q, q), bools, {}) is False
        assert evaluate_term(Implies(p, q), bools, {}) is False
        assert evaluate_term(Implies(q, p), bools, {}) is True

    def test_unassigned_variables_default_to_zero_false(self):
        x, p = Real("unseen_x"), Bool("unseen_p")
        assert evaluate_term(x.eq(RealVal(0)), {}, {}) is True
        assert evaluate_term(p, {}, {}) is False

    def test_deep_term_no_recursion_limit(self):
        x = Real("x")
        term = x
        for _ in range(5000):
            term = term + 1
        assert evaluate_term(term, {}, {x: Fraction(0)}) == 5000


class TestValidateAssignment:
    def test_satisfying_assignment_passes(self):
        x = Real("x")
        n = validate_assignment([x >= 1, x <= 2], {}, {x: Fraction(3, 2)})
        assert n == 2

    def test_violating_assignment_raises(self):
        x = Real("x")
        with pytest.raises(SoundnessError, match="assertion #2"):
            validate_assignment([x >= 1, x <= 2], {}, {x: Fraction(5)})


class TestValidateModel:
    def test_real_solver_model_passes(self):
        x, y = Real("vx"), Real("vy")
        s = Solver()
        s.add(x + y <= 4, x >= 1, y >= 2)
        assert s.check() is sat
        assert validate_model(s.assertions(), s.model()) == 3

    def test_corrupted_model_raises(self):
        x, y = Real("cx"), Real("cy")
        s = Solver()
        s.add(x + y <= 4, x >= 1, y >= 2)
        assert s.check() is sat
        model = s.model()

        class Corrupted:
            def assignment(self):
                bools, reals = model.assignment()
                reals[x] = Fraction(100)
                return bools, reals

        with pytest.raises(SoundnessError):
            validate_model(s.assertions(), Corrupted())

    def test_injected_solver_bug_caught_by_verifier(self, fast_cfg, monkeypatch):
        """A solver that returns a perturbed model must be refuted by the
        verifier's built-in validation, not silently accepted."""
        from repro.smt.solver import Model

        orig = Model.assignment

        def perturbed(self):
            bools, reals = orig(self)
            for var in reals:
                reals[var] += Fraction(1, 7)
                break
            return bools, reals

        monkeypatch.setattr(Model, "assignment", perturbed)
        cfg = ModelConfig(T=5)
        verifier = CcacVerifier(cfg)
        with pytest.raises(SoundnessError):
            verifier.find_counterexample(constant_cwnd(Fraction(1)))


def _good_trace(cfg: ModelConfig) -> CexTrace:
    """A hand-built trace that satisfies the environment AND the desired
    property (full utilization, empty queue)."""
    ts = range(cfg.T + 1)
    return CexTrace(
        cfg=cfg,
        A=tuple(Fraction(t) for t in ts),
        S=tuple(Fraction(t) for t in ts),
        W=tuple(Fraction(0) for _ in ts),
        cwnd=tuple(Fraction(1) for _ in ts),
        S_pre=tuple(Fraction(0) for _ in range(cfg.history)),
        cwnd_pre=tuple(Fraction(1) for _ in range(cfg.history)),
        ack_offset=Fraction(0),
    )


class TestValidateCounterexample:
    def test_real_counterexample_passes(self, fast_cfg):
        cand = constant_cwnd(Fraction(1))
        cfg = ModelConfig(T=5)
        res = CcacVerifier(cfg).find_counterexample(cand)
        assert res.counterexample is not None
        validate_counterexample(res.counterexample, candidate=None)

    def test_property_satisfying_trace_rejected(self):
        cfg = ModelConfig(T=5, history=3)
        trace = _good_trace(cfg)
        assert trace.check_environment() == []  # environment is consistent
        with pytest.raises(SoundnessError, match="satisfies the desired"):
            validate_counterexample(trace)

    def test_environment_violation_rejected(self):
        cfg = ModelConfig(T=5, history=3)
        good = _good_trace(cfg)
        bad = CexTrace(
            cfg=cfg,
            A=good.A,
            S=good.S[:-1] + (good.S[-1] + 100,),  # S_T > A_T: causality broken
            W=good.W,
            cwnd=good.cwnd,
            S_pre=good.S_pre,
            cwnd_pre=good.cwnd_pre,
        )
        with pytest.raises(SoundnessError, match="environment"):
            validate_counterexample(bad)

    def test_template_mismatch_rejected(self, fast_cfg):
        cand = constant_cwnd(Fraction(1))
        cfg = ModelConfig(T=5)
        res = CcacVerifier(cfg).find_counterexample(cand)
        trace = res.counterexample
        assert trace is not None
        wrong = constant_cwnd(Fraction(2))
        with pytest.raises(SoundnessError, match="candidate's rule"):
            validate_counterexample(trace, candidate=wrong)

    def test_cross_validate_consistent_for_verified_cca(self):
        from repro.runtime import cross_validate

        cfg = ModelConfig(T=5)
        report = cross_validate(rocc(), cfg, ticks=60)
        assert report.ok
        assert report.utilization > 0
        assert "consistent" in report.describe()

    def test_cross_check_option_attaches_reports(self, tiny_query):
        from repro.runtime import RuntimeOptions, run_synthesis

        result = run_synthesis(tiny_query, RuntimeOptions(cross_check=True))
        assert result.found
        assert len(result.cross_checks) == len(result.solutions)
        assert all(c.ok for c in result.cross_checks)

    def test_tier1_paths_validated_by_default(self, monkeypatch):
        """Validation always runs in the verifier: both the refuted and
        the verified path run under it without raising, and a refutation
        re-checks both its SAT model and its trace."""
        import repro.core.verifier as verifier_mod

        seen = []
        for name in ("validate_model", "validate_counterexample"):
            original = getattr(verifier_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(verifier_mod, name, counted)
        cfg = ModelConfig(T=5)
        verifier = CcacVerifier(cfg)
        assert verifier.find_counterexample(rocc()).verified
        refuted = verifier.find_counterexample(constant_cwnd(Fraction(1)))
        assert refuted.counterexample is not None
        assert seen == ["validate_model", "validate_counterexample"]
