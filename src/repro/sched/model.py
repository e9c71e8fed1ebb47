"""Formal analysis of a scheduling heuristic (paper §5, "Scheduling").

The paper's generalization discussion singles out scheduling: heuristics
are specialized per workload, "it is unclear if existing schedulers meet
performance bounds", and work stealing is "a rare exception where we have
practically relevant theoretical guarantees".  This module shows the
CCmatic methodology applied there, using the most classical guarantee of
all — Graham's bound for greedy list scheduling:

    makespan(greedy)  <=  (2 - 1/m) * OPT

We encode the *exact* greedy semantics over symbolic job sizes (each job
goes to a currently-least-loaded machine, adversarial tie-breaking) and
ask the ∃-query "does there exist a workload where greedy exceeds
``rho * LB``", where ``LB = max(max_j p_j, sum_j p_j / m)`` is the
standard lower bound on OPT.  UNSAT proves the bound for all workloads
of that shape; SAT returns a concrete adversarial workload (for
``rho < 2 - 1/m`` the solver rediscovers the classic tight instances).

This is the same ∃/∀ split as CCA synthesis — the scheduling heuristic
is the fixed algorithm, the workload is the adversarial environment —
demonstrating that the framework ports beyond congestion control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..smt import (
    And,
    Bool,
    Implies,
    Not,
    Or,
    Real,
    RealVal,
    Solver,
    Sum,
    Term,
    bisect_monotone,
    encode_max,
    exactly_one,
    sat,
)


@dataclass(frozen=True)
class SchedulingConfig:
    """Shape of the workload universe."""

    n_jobs: int = 3
    n_machines: int = 2
    max_job: Fraction = Fraction(4)

    def __post_init__(self):
        if self.n_jobs < 1 or self.n_machines < 1:
            raise ValueError("need at least one job and one machine")

    @property
    def graham_ratio(self) -> Fraction:
        """Graham's guarantee ``2 - 1/m``."""
        return 2 - Fraction(1, self.n_machines)


class GreedySchedulingModel:
    """Symbolic encoding of greedy list scheduling.

    Variables: job sizes ``p_j`` in ``[0, max_job]``, per-step machine
    loads, and one-hot choice booleans ``c[j][i]`` ("job j goes to
    machine i").  The greedy rule is the argmin constraint: a machine may
    be chosen only if its pre-assignment load is minimal (ties broken
    adversarially — the bound must hold for every tie-break).
    """

    def __init__(self, cfg: SchedulingConfig, prefix: str = "sched"):
        self.cfg = cfg
        n, m = cfg.n_jobs, cfg.n_machines
        self.p = [Real(f"{prefix}_p_{j}") for j in range(n)]
        # loads[j][i]: load of machine i before job j is placed
        self.loads = [
            [Real(f"{prefix}_load_{j}_{i}") for i in range(m)] for j in range(n + 1)
        ]
        self.choice = [
            [Bool(f"{prefix}_c_{j}_{i}") for i in range(m)] for j in range(n)
        ]
        self.makespan = Real(f"{prefix}_makespan")
        self.lower_bound = Real(f"{prefix}_lb")

    def constraints(self) -> list[Term]:
        cfg = self.cfg
        n, m = cfg.n_jobs, cfg.n_machines
        cons: list[Term] = []
        for j in range(n):
            cons.append(self.p[j] >= 0)
            cons.append(self.p[j] <= RealVal(cfg.max_job))
        for i in range(m):
            cons.append(self.loads[0][i].eq(0))
        for j in range(n):
            cons.append(exactly_one(self.choice[j]))
            for i in range(m):
                picked = self.choice[j][i]
                # greedy: the chosen machine is a least-loaded one
                for k in range(m):
                    if k != i:
                        cons.append(
                            Implies(picked, self.loads[j][i] <= self.loads[j][k])
                        )
                # load update
                cons.append(
                    Implies(
                        picked,
                        self.loads[j + 1][i].eq(self.loads[j][i] + self.p[j]),
                    )
                )
                cons.append(
                    Implies(
                        Not(picked),
                        self.loads[j + 1][i].eq(self.loads[j][i]),
                    )
                )
        cons.append(encode_max(self.makespan, list(self.loads[n])))
        # LB = max(largest job, average load) — the standard OPT bounds
        average = Sum(self.p) / m
        cons.append(encode_max(self.lower_bound, list(self.p) + [average]))
        return cons


@dataclass
class ScheduleWitness:
    """A concrete workload breaking a claimed ratio."""

    job_sizes: tuple[Fraction, ...]
    assignment: tuple[int, ...]
    makespan: Fraction
    lower_bound: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.makespan / self.lower_bound if self.lower_bound else Fraction(0)


@dataclass
class RatioResult:
    """Outcome of a bound-verification query."""

    rho: Fraction
    verified: bool
    witness: Optional[ScheduleWitness]
    wall_time: float


class SchedulingVerifier:
    """Prove or refute ``makespan <= rho * LB`` over all workloads."""

    def __init__(self, cfg: SchedulingConfig):
        self.cfg = cfg

    def verify_ratio(self, rho: Fraction) -> RatioResult:
        start = time.perf_counter()
        model = GreedySchedulingModel(self.cfg)
        solver = Solver()
        solver.add(*model.constraints())
        # avoid the degenerate all-zero workload where LB = 0
        solver.add(model.lower_bound > 0)
        solver.add(model.makespan > RealVal(Fraction(rho)) * model.lower_bound)
        outcome = solver.check()
        if outcome is not sat:
            return RatioResult(Fraction(rho), True, None, time.perf_counter() - start)
        m = solver.model()
        sizes = tuple(m.value(p) for p in model.p)
        assignment = []
        for j in range(self.cfg.n_jobs):
            for i in range(self.cfg.n_machines):
                if m.value(model.choice[j][i]):
                    assignment.append(i)
                    break
        witness = ScheduleWitness(
            job_sizes=sizes,
            assignment=tuple(assignment),
            makespan=m.value(model.makespan),
            lower_bound=m.value(model.lower_bound),
        )
        return RatioResult(Fraction(rho), False, witness, time.perf_counter() - start)

    def tight_ratio(
        self,
        lo: Fraction = Fraction(1),
        hi: Optional[Fraction] = None,
        precision: Fraction = Fraction(1, 32),
    ) -> Fraction:
        """Smallest provable ratio (to ``precision``) by binary search —
        for small job counts this is *below* Graham's asymptotic bound,
        and the search recovers the exact finite-n constant."""
        hi = hi if hi is not None else self.cfg.graham_ratio
        rho = bisect_monotone(
            lambda r: self.verify_ratio(r).verified,
            lo, hi, precision, largest=False,
        )
        if rho is None:
            raise ValueError(f"upper bracket {hi} is not verified")
        return rho
