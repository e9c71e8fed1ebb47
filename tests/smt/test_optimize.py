"""Tests for binary-search optimization."""

from fractions import Fraction

from hypothesis import given, strategies as st

from repro.smt import Or, Real, Solver
from repro.smt.optimize import bisect_monotone, maximize, minimize

x, y = Real("x"), Real("y")


class TestMaximize:
    def test_simple_box(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        res = maximize(s, x, Fraction(0), Fraction(100), Fraction(1, 64))
        assert res.feasible
        assert Fraction(7) - res.best_value <= Fraction(1, 64)

    def test_disjoint_ranges_picks_higher(self):
        s = Solver()
        s.add(Or(x <= 3, x >= 7), x >= 0, x <= 8)
        res = maximize(s, x, Fraction(0), Fraction(20), Fraction(1, 64))
        assert res.best_value > 6

    def test_objective_expression(self):
        s = Solver()
        s.add(x >= 0, x <= 3, y >= 0, y <= 4)
        res = maximize(s, x + y, Fraction(0), Fraction(10), Fraction(1, 32))
        assert Fraction(7) - res.best_value <= Fraction(1, 32)

    def test_infeasible_at_lo(self):
        s = Solver()
        s.add(x <= -1)
        res = maximize(s, x, Fraction(0), Fraction(10))
        assert not res.feasible
        assert res.model is None

    def test_solver_state_restored(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        before = len(s.assertions())
        maximize(s, x, Fraction(0), Fraction(10))
        assert len(s.assertions()) == before

    def test_model_attains_best(self):
        s = Solver()
        s.add(x >= 0, x <= 5)
        res = maximize(s, x, Fraction(0), Fraction(10), Fraction(1, 16))
        assert res.model is not None
        assert res.model.value(x) == res.best_value


class TestMinimize:
    def test_simple(self):
        s = Solver()
        s.add(x >= 3, x <= 10)
        res = minimize(s, x, Fraction(0), Fraction(20), Fraction(1, 64))
        assert res.feasible
        assert res.best_value - Fraction(3) <= Fraction(1, 64)

    def test_infeasible(self):
        s = Solver()
        s.add(x >= 100)
        res = minimize(s, x, Fraction(0), Fraction(10))
        assert not res.feasible


def _ceil_log2(q: Fraction) -> int:
    k = 0
    while 2**k < q:
        k += 1
    return k


fracs = st.fractions(min_value=-8, max_value=8, max_denominator=16)
positive = st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64)


class TestBisectMonotone:
    @given(
        lo=fracs,
        width=positive,
        precision=positive,
        offset=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2)),
        largest=st.booleans(),
    )
    def test_step_predicate_boundary(self, lo, width, precision, offset, largest):
        """A monotone step at a random threshold (inside or just outside
        the bracket): the answer holds, lies within ``precision`` of the
        threshold, and costs at most ``2 + ceil(log2(width/precision))``
        probes."""
        hi = lo + width
        threshold = lo + offset * width
        probes = []

        def holds(x):
            probes.append(x)
            return x <= threshold if largest else x >= threshold

        got = bisect_monotone(holds, lo, hi, precision, largest=largest)
        assert len(probes) <= 2 + _ceil_log2(width / precision)
        assert all(lo <= p <= hi for p in probes)
        if (largest and threshold < lo) or (not largest and threshold > hi):
            assert got is None
            return
        assert got is not None and holds(got)
        if largest:
            assert got <= threshold
            assert got == hi or threshold - got <= precision
        else:
            assert got >= threshold
            assert got == lo or got - threshold <= precision

    def test_probes_required_end_first(self):
        seen = []
        bisect_monotone(lambda x: seen.append(x) or False, 0, 4, Fraction(1))
        assert seen == [0]
        seen.clear()
        bisect_monotone(
            lambda x: seen.append(x) or True, 0, 4, Fraction(1), largest=False
        )
        assert seen == [4, 0]
