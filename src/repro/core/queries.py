"""Assumption synthesis, verifier tuning, buffer sizing and differential
comparison (paper §2, §4.1 and §5).

The paper's second and third query types ask for *environment assumptions*
— human-interpretable logical constraints on network behaviour — instead
of concrete counterexamples:

* **Identifying assumptions**: "does there exist an assumption such that
  for all traces, the trace ensures the desired property iff it satisfies
  the assumption".  §4.1 notes that the practical target is the *weakest
  sufficient* assumption.
* **Differential comparison**: given CCAs A and B, what additional
  constraints does B need on top of the environments where A works.

We implement the parameterized-inequality template §4.1 suggests ("a set
of parameterized inequalities, similar to [40]").  Each
:class:`AssumptionTemplate` is a family of constraints monotone in one
rational parameter theta (larger theta = weaker assumption = more network
behaviours allowed); the weakest sufficient theta is found by binary
search, each probe being one verifier call with the assumption conjoined
to the environment.  Verifier tuning (§5) is the same search over a
panel of known-good heuristics, and buffer sizing searches the ``lossy``
environment's buffer; every such search is one
:func:`~repro.smt.optimize.bisect_monotone`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ..ccac import CcacModel, ModelConfig
from ..ccac.environments import EnvironmentSpec, lossy_environment
from ..obs import DEBUG, tracer
from ..smt import And, CheckOptions, RealVal, Term, bisect_monotone
from .template import CandidateCCA
from .verifier import CcacVerifier


@dataclass(frozen=True)
class AssumptionTemplate:
    """A one-parameter family of environment assumptions.

    ``build(model, theta)`` returns the assumption constraint for a given
    parameter value.  The family must be monotone: any trace satisfying
    the assumption at theta also satisfies it at any theta' >= theta.
    ``lo``/``hi`` bracket the search; ``describe`` renders the synthesized
    assumption as the human-readable constraint the paper advertises.
    """

    name: str
    build: Callable[[CcacModel, Fraction], Term]
    lo: Fraction
    hi: Fraction
    describe: Callable[[Fraction], str]


def total_waste_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "the network wastes at most theta tokens over
    the trace" — i.e. bounds ACK aggregation / link stalls."""
    return AssumptionTemplate(
        name="total_waste",
        build=lambda net, theta: net.W[cfg.T] <= RealVal(theta),
        lo=Fraction(0),
        hi=Fraction(cfg.C * cfg.T),
        describe=lambda theta: f"network wastes at most {theta} * C*D tokens per {cfg.T} RTTs",
    )


def per_step_waste_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "waste grows at most theta per RTT" — a bound on
    instantaneous jitter."""

    def build(net: CcacModel, theta: Fraction) -> Term:
        limit = RealVal(theta)
        return And(
            *[net.W[t] - net.W[t - 1] <= limit for t in range(1, cfg.T + 1)]
        )

    return AssumptionTemplate(
        name="per_step_waste",
        build=build,
        lo=Fraction(0),
        hi=Fraction(cfg.C * cfg.T),
        describe=lambda theta: f"network wastes at most {theta} * C*D tokens per RTT",
    )


def initial_queue_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "the flow starts with at most theta queued"."""
    return AssumptionTemplate(
        name="initial_queue",
        build=lambda net, theta: net.A[0] <= RealVal(theta),
        lo=Fraction(0),
        hi=Fraction(cfg.initial_queue_max),
        describe=lambda theta: f"initial queue is at most {theta} * C*D bytes",
    )


@dataclass
class AssumptionResult:
    """Outcome of a weakest-sufficient-assumption query."""

    #: the queried candidate; for :func:`tune_verifier`, the panel tuple
    candidate: Union[CandidateCCA, tuple[CandidateCCA, ...]]
    template: AssumptionTemplate
    theta: Optional[Fraction]  # None: no theta in [lo, hi] suffices
    assumption: Optional[str]
    #: verifier calls (per probed theta, panel members up to the first
    #: that fails)
    probes: int
    wall_time: float
    #: probes the solver could not decide within the given
    #: :class:`~repro.smt.CheckOptions` budget (counted as insufficient)
    unknown_probes: int = 0

    @property
    def found(self) -> bool:
        return self.theta is not None

    def describe(self) -> str:
        if self.assumption is None:
            return "no environment in the family admits the candidate(s)"
        return self.assumption


def _probe_verifier(cfg, environment, cache=None) -> CcacVerifier:
    """One incremental verifier shared by all binary-search probes: the
    environment encoding, CNF conversion, and learned clauses are
    amortized across probes (each probe is a push/pop of the assumption
    plus the candidate's template constraints)."""
    return CcacVerifier(
        cfg,
        incremental=True,
        cache=cache,
        environments=[environment] if environment is not None else None,
    )


def _holds_under(
    candidate: CandidateCCA,
    cfg: ModelConfig,
    template: AssumptionTemplate,
    theta: Fraction,
    verifier: Optional[CcacVerifier] = None,
    options: Optional[CheckOptions] = None,
) -> Optional[bool]:
    """Does the candidate provably meet the property on every trace
    satisfying the assumption at theta?

    The assumption rides in as an extra constraint of the verifier's
    candidate frame, so probes share the environment encoding, the
    query cache, the ``deadline`` and model validation.  Returns True
    (proved), False (counterexample) or None (budget exhausted), which
    callers treat as *not* sufficient — never a false "holds".
    """
    if verifier is None:
        verifier = _probe_verifier(cfg, None)
    opts = options or CheckOptions()
    result = verifier.find_counterexample(
        candidate,
        max_conflicts=opts.max_conflicts,
        deadline=opts.deadline,
        extra_constraints=[template.build(verifier.network(), theta)],
    )
    return None if result.unknown else result.verified


def _weakest(
    subject,
    panel: Sequence[CandidateCCA],
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction,
    environment: Optional[EnvironmentSpec] = None,
    options: Optional[CheckOptions] = None,
    cache=None,
) -> AssumptionResult:
    """Largest theta under which every panel member is verified.

    Monotonicity makes the conjunction over the panel monotone too, so
    one bisection suffices; each probe short-circuits on the first
    member that fails.
    """
    start = time.perf_counter()
    probes = 0
    unknown_probes = 0
    verifier = _probe_verifier(cfg, environment, cache=cache)
    tr = tracer()

    def sufficient(theta: Fraction) -> bool:
        nonlocal probes, unknown_probes
        for cand in panel:
            probes += 1
            holds = _holds_under(
                cand, cfg, template, theta, verifier=verifier, options=options
            )
            tr.event("queries.probe", level=DEBUG, probe=probes,
                     theta=str(theta), candidate=str(cand), holds=holds)
            if holds is None:
                unknown_probes += 1
            if not holds:
                return False
        return True

    with tr.span("queries.weakest", panel=len(panel)):
        theta = bisect_monotone(sufficient, template.lo, template.hi, precision)
    return AssumptionResult(
        subject,
        template,
        theta,
        None if theta is None else template.describe(theta),
        probes,
        time.perf_counter() - start,
        unknown_probes,
    )


def weakest_sufficient_assumption(
    candidate: CandidateCCA,
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
    environment: Optional[EnvironmentSpec] = None,
    options: Optional[CheckOptions] = None,
    cache=None,
) -> AssumptionResult:
    """Binary-search the weakest (largest-theta) sufficient assumption.

    Querying only for *sufficiency* would trivially return the assumption
    "False" (paper §4.1); restricting to a monotone family and maximizing
    theta is the paper's "weakest sufficient assumption" resolution.

    ``environment`` runs the query in another cell of the CCAC matrix
    (the assumption template must build over that cell's model
    variables); ``options`` carries the per-probe solver budget
    (``deadline`` bounds each probe's wall clock).
    """
    return _weakest(
        candidate, (candidate,), cfg, template, precision,
        environment=environment, options=options, cache=cache,
    )


def tune_verifier(
    panel: Sequence[CandidateCCA],
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
) -> AssumptionResult:
    """Verifier tuning (paper §5): the weakest theta under which *every*
    heuristic of a known-good panel is verified — the weakest sufficient
    assumption of the panel (a single candidate is a panel of one).  The
    result is the tuned verifier environment: adversarial enough to
    exercise real behaviours, tame enough that known heuristics survive.
    """
    panel = tuple(panel)
    return _weakest(panel, panel, cfg, template, precision)


def minimum_buffer(
    candidate: CandidateCCA,
    cfg: ModelConfig,
    lo: Fraction = Fraction(1, 4),
    hi: Fraction = Fraction(16),
    precision: Fraction = Fraction(1, 4),
) -> Optional[Fraction]:
    """Smallest drop-tail buffer (to ``precision``, in ``C*D`` units) at
    which the candidate still verifies in the ``lossy`` environment;
    None if even ``hi`` is insufficient.  Buffer sizing — the classic
    network-provisioning question — answered formally."""

    def verified_with(buffer: Fraction) -> bool:
        verifier = CcacVerifier(cfg, environments=[lossy_environment(buffer)])
        return verifier.find_counterexample(candidate).verified

    return bisect_monotone(verified_with, lo, hi, precision, largest=False)


@dataclass
class DifferentialResult:
    """Outcome of a differential comparison between two CCAs."""

    template: AssumptionTemplate
    theta_a: Optional[Fraction]
    theta_b: Optional[Fraction]
    verdict: str

    def gap(self) -> Optional[Fraction]:
        if self.theta_a is None or self.theta_b is None:
            return None
        return self.theta_a - self.theta_b


def differential_comparison(
    cand_a: CandidateCCA,
    cand_b: CandidateCCA,
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
    environment: Optional[EnvironmentSpec] = None,
    options: Optional[CheckOptions] = None,
) -> DifferentialResult:
    """Compare two CCAs through the lens of one assumption family:
    which tolerates a weaker (larger-theta) environment assumption?

    This answers the paper's operator question "what heuristic should I
    deploy in my custom system" with an interpretable constraint rather
    than individual traces.
    """
    ra = weakest_sufficient_assumption(
        cand_a, cfg, template, precision,
        environment=environment, options=options,
    )
    rb = weakest_sufficient_assumption(
        cand_b, cfg, template, precision,
        environment=environment, options=options,
    )
    if ra.theta is None and rb.theta is None:
        verdict = "neither CCA meets the property under any assumption in the family"
    elif rb.theta is None:
        verdict = "A works under some assumption; B under none in the family"
    elif ra.theta is None:
        verdict = "B works under some assumption; A under none in the family"
    elif ra.theta > rb.theta:
        verdict = (
            f"A tolerates strictly more network behaviours "
            f"({template.describe(ra.theta)} vs {template.describe(rb.theta)})"
        )
    elif ra.theta < rb.theta:
        verdict = (
            f"B tolerates strictly more network behaviours "
            f"({template.describe(rb.theta)} vs {template.describe(ra.theta)})"
        )
    else:
        verdict = f"A and B tolerate the same assumption ({template.describe(ra.theta)})"
    return DifferentialResult(template, ra.theta, rb.theta, verdict)
