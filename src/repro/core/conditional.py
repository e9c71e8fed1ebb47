"""Conditional CCA templates (paper §4.1, "Environment and objectives").

The linear template suffices for lossless networks; the paper's proposed
extension is a guarded template

    if cond then cwnd <- expr1 else cwnd <- expr2

"where cond, expr1, and expr2 are decided by the generator (similar to
Equation ii).  This template expresses traditional CCAs, e.g., for AIMD,
cond is loss detected, expr1 is multiplicative decrease, and expr2 is
additive increments."

Our network is lossless, so the guard observes the *delay signal* instead
of loss: ``cond(t) = [queue-estimate(t) > threshold]`` where the queue
estimate is the window's excess over bytes acked in the last RTT
(``cwnd(t-1) - (ack(t-1) - ack(t-2))``, i.e. data in flight not being
cleared at link rate).  Each branch is a small linear rule over the same
observations:

    branch(t) = mu * cwnd(t-1) + nu * (ack(t-1) - ack(t-3)) + delta

so AIMD is ``cond -> mu=1/2, nu=0, delta=0``, ``!cond -> mu=1, nu=0,
delta=gamma`` and RoCC is both branches ``mu=0, nu=1, delta=1``.

The synthesis query is identical in shape to the linear one, so
:class:`~repro.core.verifier.CcacVerifier` checks conditional candidates
directly (its counterexamples are replayed against the guarded rule by
:mod:`repro.runtime.validate`); an exact numeric simulation drives
generator pruning, and a :class:`ConditionalGenerator` plugs into the
same CEGIS loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from ..ccac import CcacModel, CexTrace, ModelConfig
from ..cegis import PruningMode
from ..smt import Ite, RealVal, Term, encode_max
from .verifier import CcacVerifier

#: domains used by the conditional search spaces
MU_DOMAIN: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2),
)
DELTA_DOMAIN: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
NU_DOMAIN: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
THRESHOLD_DOMAIN: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1), Fraction(2), Fraction(4),
)


@dataclass(frozen=True)
class ConditionalCCA:
    """A filled conditional template.

    ``cwnd(t) = branch_hi(t)`` when the delay signal exceeds
    ``threshold`` (congestion), else ``branch_lo(t)``; each branch is
    ``mu * cwnd(t-1) + nu * acked-in-2-RTTs + delta``.
    """

    threshold: Fraction
    mu_congested: Fraction
    delta_congested: Fraction
    mu_clear: Fraction
    delta_clear: Fraction
    nu_congested: Fraction = Fraction(0)
    nu_clear: Fraction = Fraction(0)

    def key(self) -> tuple:
        return (
            self.threshold,
            self.mu_congested,
            self.delta_congested,
            self.mu_clear,
            self.delta_clear,
            self.nu_congested,
            self.nu_clear,
        )

    def pretty(self) -> str:
        def branch(mu, nu, delta):
            parts = []
            if mu:
                parts.append(f"{mu}*cwnd(t-1)")
            if nu:
                parts.append(f"{nu}*acked2rtt(t)")
            parts.append(str(delta))
            return " + ".join(parts)

        return (
            f"if queue_est(t) > {self.threshold}: "
            f"cwnd = {branch(self.mu_congested, self.nu_congested, self.delta_congested)} "
            f"else: cwnd = {branch(self.mu_clear, self.nu_clear, self.delta_clear)}"
        )

    def is_aimd_shaped(self) -> bool:
        """Multiplicative decrease under congestion, additive increase
        otherwise — the classic AIMD stability recipe."""
        return (
            self.mu_congested < 1
            and self.delta_congested <= 0
            and self.mu_clear == 1
            and self.delta_clear > 0
        )

    # -- numeric semantics ---------------------------------------------------

    def queue_estimate(
        self, cwnd_prev: Fraction, ack_prev: Fraction, ack_prev2: Fraction
    ) -> Fraction:
        """Delay signal: window not cleared by last RTT's acks."""
        return Fraction(cwnd_prev) - (Fraction(ack_prev) - Fraction(ack_prev2))

    def next_cwnd(
        self,
        cwnd_prev: Fraction,
        ack_prev: Fraction,
        ack_prev2: Fraction,
        ack_prev3: Fraction,
        cwnd_min: Fraction,
    ) -> Fraction:
        congested = self.queue_estimate(cwnd_prev, ack_prev, ack_prev2) > self.threshold
        acked2 = Fraction(ack_prev) - Fraction(ack_prev3)
        if congested:
            raw = (
                self.mu_congested * cwnd_prev
                + self.nu_congested * acked2
                + self.delta_congested
            )
        else:
            raw = self.mu_clear * cwnd_prev + self.nu_clear * acked2 + self.delta_clear
        return max(raw, Fraction(cwnd_min))

    # -- SMT semantics ---------------------------------------------------------

    def constraints_for(self, model: CcacModel) -> list[Term]:
        """Template equalities over a network model (concrete candidate,
        so everything is linear)."""
        cfg = model.cfg
        floor = RealVal(cfg.cwnd_min)
        cons: list[Term] = []
        for t in range(0, cfg.T + 1):
            qe = model.cwnd_at(t - 1) - (model.ack_at(t - 1) - model.ack_at(t - 2))
            congested = qe > RealVal(self.threshold)
            acked2 = model.ack_at(t - 1) - model.ack_at(t - 3)
            hi = (
                RealVal(self.mu_congested) * model.cwnd_at(t - 1)
                + RealVal(self.nu_congested) * acked2
                + RealVal(self.delta_congested)
            )
            lo = (
                RealVal(self.mu_clear) * model.cwnd_at(t - 1)
                + RealVal(self.nu_clear) * acked2
                + RealVal(self.delta_clear)
            )
            rule = Ite(congested, hi, lo)
            cons.append(encode_max(model.cwnd[t], [rule, floor]))
        return cons


def aimd_candidate(
    threshold: Fraction = Fraction(2),
    beta: Fraction = Fraction(1, 2),
    alpha: Fraction = Fraction(1),
) -> ConditionalCCA:
    """The classic AIMD point of the space."""
    return ConditionalCCA(
        threshold=Fraction(threshold),
        mu_congested=Fraction(beta),
        delta_congested=Fraction(0),
        mu_clear=Fraction(1),
        delta_clear=Fraction(alpha),
    )


def rocc_conditional(increment: Fraction = Fraction(1)) -> ConditionalCCA:
    """RoCC expressed in the conditional template: both branches are the
    ack-difference rule (the guard is irrelevant)."""
    return ConditionalCCA(
        threshold=Fraction(0),
        mu_congested=Fraction(0),
        delta_congested=Fraction(increment),
        mu_clear=Fraction(0),
        delta_clear=Fraction(increment),
        nu_congested=Fraction(1),
        nu_clear=Fraction(1),
    )


@dataclass(frozen=True)
class ConditionalSpec:
    """Search space over :class:`ConditionalCCA` (paper §4.1's template)."""

    threshold_domain: tuple[Fraction, ...] = THRESHOLD_DOMAIN
    mu_domain: tuple[Fraction, ...] = MU_DOMAIN
    delta_domain: tuple[Fraction, ...] = DELTA_DOMAIN
    nu_domain: tuple[Fraction, ...] = NU_DOMAIN

    @property
    def search_space_size(self) -> int:
        return (
            len(self.threshold_domain)
            * (len(self.mu_domain) * len(self.delta_domain) * len(self.nu_domain)) ** 2
        )

    def iterate_candidates(self) -> Iterator[ConditionalCCA]:
        for thr, mu_c, d_c, nu_c, mu_o, d_o, nu_o in itertools.product(
            self.threshold_domain,
            self.mu_domain,
            self.delta_domain,
            self.nu_domain,
            self.mu_domain,
            self.delta_domain,
            self.nu_domain,
        ):
            yield ConditionalCCA(thr, mu_c, d_c, mu_o, d_o, nu_c, nu_o)

    def contains(self, cand: ConditionalCCA) -> bool:
        return (
            cand.threshold in self.threshold_domain
            and cand.mu_congested in self.mu_domain
            and cand.mu_clear in self.mu_domain
            and cand.delta_congested in self.delta_domain
            and cand.delta_clear in self.delta_domain
            and cand.nu_congested in self.nu_domain
            and cand.nu_clear in self.nu_domain
        )


def simulate_conditional(
    candidate: ConditionalCCA, trace: CexTrace, cfg: ModelConfig
) -> tuple[list[Fraction], list[Fraction]]:
    """Candidate's (cwnd, A) trajectories on a trace's observations
    (mirrors :func:`repro.core.generator_enum.simulate_on_trace`)."""
    T = cfg.T
    cwnd: list[Fraction] = []
    for t in range(T + 1):
        prev_cwnd = cwnd[t - 1] if t >= 1 else trace.cwnd_at(t - 1)
        value = candidate.next_cwnd(
            prev_cwnd,
            trace.ack_at(t - 1),
            trace.ack_at(t - 2),
            trace.ack_at(t - 3),
            cfg.cwnd_min,
        )
        cwnd.append(value)
    A: list[Fraction] = [trace.A[0]]
    for t in range(1, T + 1):
        A.append(max(A[t - 1], trace.S[t - 1] + cwnd[t]))
    return cwnd, A


def conditional_satisfies_spec(
    candidate: ConditionalCCA,
    trace: CexTrace,
    cfg: ModelConfig,
    pruning: PruningMode,
) -> bool:
    """``feasible => desired`` for a conditional candidate on a trace."""
    cwnd, A = simulate_conditional(candidate, trace, cfg)
    T = cfg.T
    feasible = trace.A[0] <= trace.S_pre[0] + cwnd[0]
    if feasible:
        if pruning is PruningMode.EXACT:
            feasible = all(A[t] == trace.A[t] for t in range(1, T + 1))
        else:
            for t, bound in enumerate(trace.range_bounds()):
                if t == 0:
                    continue
                if A[t] < bound.lower or (
                    bound.upper is not None and A[t] > bound.upper
                ):
                    feasible = False
                    break
    if not feasible:
        return True
    util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * cfg.T
    limit = cfg.delay_thresh * cfg.C * cfg.D
    queue_ok = all(A[t] - trace.S[t] <= limit for t in range(T + 1))
    return (util_ok or cwnd[T] > cwnd[0]) and (queue_ok or cwnd[T] < cwnd[0])


class ConditionalGenerator:
    """Enumerative generator over the conditional space (plugs into the
    same :class:`repro.cegis.CegisLoop`)."""

    def __init__(
        self,
        spec: ConditionalSpec,
        cfg: ModelConfig,
        pruning: PruningMode = PruningMode.RANGE,
    ):
        self.spec = spec
        self.cfg = cfg
        self.pruning = pruning
        self._survivors = list(spec.iterate_candidates())

    @property
    def survivor_count(self) -> int:
        return len(self._survivors)

    def propose(self) -> Optional[ConditionalCCA]:
        return self._survivors[0] if self._survivors else None

    def add_counterexample(self, trace: CexTrace) -> None:
        self._survivors = [
            c
            for c in self._survivors
            if conditional_satisfies_spec(c, trace, self.cfg, self.pruning)
        ]

    def block(self, candidate: ConditionalCCA) -> None:
        key = candidate.key()
        self._survivors = [c for c in self._survivors if c.key() != key]


def synthesize_conditional(
    cfg: ModelConfig,
    spec: Optional[ConditionalSpec] = None,
    worst_case_cex: bool = True,
    find_all: bool = False,
    time_budget: Optional[float] = None,
):
    """CEGIS over the conditional template; returns a CegisOutcome."""
    from ..cegis import CegisLoop, CegisOptions

    spec = spec or ConditionalSpec()
    generator = ConditionalGenerator(spec, cfg)
    verifier = CcacVerifier(cfg)
    options = CegisOptions(
        worst_case_cex=worst_case_cex,
        find_all=find_all,
        time_budget=time_budget,
    )
    return CegisLoop(generator, verifier, options).run()
