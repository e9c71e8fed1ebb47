"""Parallel portfolio verification: many candidates, first verdict wins.

The CEGIS loop spends nearly all wall-clock time inside verifier SMT
checks, and a single check pins one core.  A *portfolio* round evaluates
several candidate CCAs concurrently on the workers of a
:class:`repro.service.pool.WorkerPool` — the one fan-out layer behind
every worker process — and cancels the losers the moment one worker
returns a *conclusive* result: a counterexample to feed the generator,
or a verified candidate.  This is the CC-Fuzz observation (Ray & Seshan
2022) applied to synthesis: stress-search over CCA behaviours scales
near-linearly with workers because any one discovered trace advances
the loop.

Each pool worker keeps a warm incremental verifier across rounds
(:func:`_pooled_verify_candidate_task`): the base CCAC encoding is
asserted once per worker and learned clauses carry over.  A run that is
not handed a pool (``ccmatic synthesize --jobs N``) gets one of size
``jobs`` for its lifetime; the job service injects its shared pool.

Cancellation is safe for soundness: a cancelled worker's verdict is
simply never used, and candidates whose verification was cancelled stay
in the generator's space to be re-proposed later.  A
:class:`SoundnessError` raised in *any* worker — even one about to be
cancelled — aborts the whole round and propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from ..obs import DEBUG, metrics, tracer
from ..obs.flight import dump_flight
from ..runtime.workers import WorkerLimits, WorkerReport

__all__ = ["PortfolioOutcome", "PortfolioVerifier"]


@dataclass
class PortfolioOutcome:
    """Result of one portfolio race."""

    #: index of the task whose result won the race (None: nobody accepted)
    winner: Optional[int]
    #: the winning result (None when winner is None)
    result: Any
    #: indices of tasks cancelled while still running
    cancelled: list[int]
    #: per-index reports for tasks that finished on their own
    reports: dict[int, WorkerReport] = field(default_factory=dict)
    wall_time: float = 0.0
    #: telemetry frames received per task index (merged by
    #: ``WorkerPool.run_batch``; kept for per-worker attribution)
    telemetry: dict[int, list] = field(default_factory=dict)


# -- the portfolio CCAC verifier ---------------------------------------------


def _verify_candidate_task(
    cfg, precision, candidate, worst_case, time_limit, validate, cache_dir,
    certify=False, environments=None,
):
    """Runs inside a worker: one fresh verifier, one candidate — the
    task of every :class:`~repro.runtime.workers.IsolatedVerifier`
    attempt.

    ``cache_dir`` (when set) plugs a shared on-disk
    :class:`~repro.engine.cache.QueryCache` into the verifier, so
    concurrent workers pool their conclusive subquery verdicts.
    ``certify`` makes the worker's verifier proof-producing; the result
    carries a picklable certificate summary back across the pipe.
    ``environments`` is the environment set the verdict covers (the
    portfolio hands each task one cell of the candidates × environments
    grid and aggregates per-environment verdicts in the parent).
    """
    from ..core.verifier import CcacVerifier
    from .cache import QueryCache

    cache = QueryCache(cache_dir) if cache_dir else None
    verifier = CcacVerifier(
        cfg, wce_precision=precision, validate=validate, cache=cache,
        certify=certify, environments=environments,
    )
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    return verifier.find_counterexample(
        candidate, worst_case=worst_case, deadline=deadline
    )


#: per-process warm state for pooled workers: one incremental verifier,
#: keyed by its full configuration.  Lives in the *pool child* process
#: (the task fn is pickled by reference, so this global is the child's
#: own copy) and is what amortizes base-network encoding, compile work
#: and learned clauses across the batches a persistent worker serves.
_WORKER_STATE: dict = {}


def _pooled_verify_candidate_task(
    cfg, precision, candidate, worst_case, time_limit, validate, cache_dir,
    certify=False, environments=None,
):
    """Runs inside a *persistent* pool worker: warm verifier, one candidate.

    Unlike :func:`_verify_candidate_task` (fresh verifier per task)
    this keeps one incremental :class:`~repro.core.verifier.CcacVerifier`
    alive in ``_WORKER_STATE`` across tasks — the base CCAC encoding is
    asserted once and candidates come and go in push/pop scopes, learned
    clauses carrying over.  Soundness: any abnormal exit (cancellation
    via ``TaskCancelled``, solver crash, ``SoundnessError``) drops the
    warm verifier before re-raising, so a session that might be stuck
    mid-scope is never reused; the independent model validator checks
    each verdict regardless.
    """
    import json as _json

    from ..core.verifier import CcacVerifier
    from ..runtime.serialize import encode_config
    from .cache import QueryCache

    key = (
        _json.dumps(encode_config(cfg), sort_keys=True),
        str(precision),
        bool(validate),
        str(cache_dir or ""),
        bool(certify),
        tuple(env.key() for env in environments) if environments else None,
    )
    verifier = _WORKER_STATE.get(key)
    if verifier is None:
        cache = QueryCache(cache_dir) if cache_dir else None
        verifier = CcacVerifier(
            cfg, wce_precision=precision, validate=validate, cache=cache,
            certify=certify, incremental=True, environments=environments,
        )
        # bounded: at most one warm verifier per environment cell (the
        # grid dispatch hands each worker a single-environment task, so
        # a worker serving mixed cells keeps one session per cell warm
        # instead of rebuilding the base encoding on every alternation)
        if len(_WORKER_STATE) >= 8:
            _WORKER_STATE.clear()
        _WORKER_STATE[key] = verifier
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    try:
        return verifier.find_counterexample(
            candidate, worst_case=worst_case, deadline=deadline
        )
    except BaseException:
        _WORKER_STATE.pop(key, None)
        raise


def _conclusive(result) -> bool:
    """Does this verification result advance the CEGIS loop?"""
    return bool(
        getattr(result, "verified", False)
        or getattr(result, "counterexample", None) is not None
    )


class PortfolioVerifier:
    """Batch-capable verifier racing candidates across worker processes.

    Implements both :class:`repro.cegis.interfaces.Verifier` (single
    candidate, a batch of one) and
    :class:`repro.cegis.interfaces.BatchVerifier`
    (:meth:`verify_batch`: race a batch, first conclusive verdict wins,
    losers cancelled).  ``cache_dir`` gives every worker a shared
    on-disk query cache.

    ``pool`` is the :class:`repro.service.pool.WorkerPool` (duck-typed:
    anything with ``run_batch(tasks, accept=, wall_time=)`` returning a
    :class:`PortfolioOutcome`) every batch dispatches to.  Tasks run
    :func:`_pooled_verify_candidate_task`, whose warm incremental
    verifier amortizes encoding/compile/learned-clause work across
    batches.  The pool's lifecycle belongs to the caller — this class
    never starts or shuts it down.
    """

    def __init__(
        self,
        cfg,
        jobs: int = 2,
        wce_precision: Fraction = Fraction(1, 8),
        limits: WorkerLimits = WorkerLimits(),
        validate: bool = True,
        cache_dir: Optional[str] = None,
        certify: bool = False,
        pool=None,
        environments=None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {jobs})")
        if pool is None:
            raise ValueError("PortfolioVerifier needs a worker pool")
        self.cfg = cfg
        self.jobs = jobs
        self.wce_precision = Fraction(wce_precision)
        self.limits = limits
        self.validate = validate
        self.cache_dir = cache_dir
        self.certify = certify
        self.pool = pool
        self.environments = (
            tuple(environments) if environments is not None else None
        )
        self.calls = 0
        self.rounds = 0
        self.cancelled = 0
        self.total_time = 0.0
        self.degradations: list[dict] = []

    def _task(
        self, candidate, worst_case: bool, budget: Optional[float], env=None
    ):
        return (
            _pooled_verify_candidate_task,
            (
                self.cfg,
                self.wce_precision,
                candidate,
                worst_case,
                budget,
                self.validate,
                self.cache_dir,
                self.certify,
                [env] if env is not None else None,
            ),
        )

    def _budget(self, deadline: Optional[float]) -> tuple[Optional[float], Optional[float]]:
        """(soft in-worker budget, hard watchdog) for one round."""
        budget = self.limits.wall_time
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None, None
            budget = min(budget, remaining)
        watchdog = budget * 1.25 + self.limits.kill_grace
        return budget, watchdog

    def verify_batch(self, candidates, worst_case: bool = False, deadline=None):
        """Race ``candidates``; returns a
        :class:`repro.cegis.interfaces.BatchVerdict`.

        The verdict's winner is the first worker to return a conclusive
        result (counterexample found or candidate verified); the rest
        are cancelled and their candidates stay un-judged.  When no
        worker is conclusive (all unknown / killed / expired) the
        verdict has ``winner=None`` and a degraded unknown result.

        With an environment matrix the race runs over the
        candidates × environments grid (one single-environment worker
        per cell, candidate-major).  Any cell's *counterexample* wins
        immediately — it prunes the shared generator under its own
        environment's semantics.  A *verified* cell only counts toward
        its candidate: the race ends on the first candidate whose every
        environment returned UNSAT, and the verdict aggregates the
        per-environment results (a candidate is never declared verified
        on a subset of the matrix).
        """
        from ..cegis.interfaces import BatchVerdict
        from ..core.verifier import VerificationResult

        start = time.perf_counter()
        candidates = list(candidates)
        self.rounds += 1
        self.calls += len(candidates)
        budget, watchdog = self._budget(deadline)
        tr = tracer()
        envs = self.environments
        n_envs = len(envs) if envs else 1
        if envs:
            tasks = [
                self._task(c, worst_case, budget, env)
                for c in candidates
                for env in envs
            ]
            # aggregation state lives in the parent (accept runs there):
            # candidate key -> per-environment verified results seen so far
            verified_runs: dict = {}

            def accept(result):
                if getattr(result, "counterexample", None) is not None:
                    return True
                if getattr(result, "verified", False):
                    bucket = verified_runs.setdefault(
                        result.candidate.key(), []
                    )
                    bucket.append(result)
                    return len(bucket) == n_envs
                return False
        else:
            tasks = [self._task(c, worst_case, budget) for c in candidates]
            accept = _conclusive
        if budget is None:
            outcome = PortfolioOutcome(winner=None, result=None, cancelled=[])
        else:
            outcome = self.pool.run_batch(
                tasks, accept=accept, wall_time=watchdog,
            )
        self.cancelled += len(outcome.cancelled)
        self.total_time += time.perf_counter() - start
        reg = metrics()
        reg.counter("engine.portfolio.rounds").inc()
        reg.counter("engine.portfolio.launched").inc(len(candidates))
        reg.counter("engine.portfolio.cancelled").inc(len(outcome.cancelled))
        for report in outcome.reports.values():
            if report.status not in ("ok",):
                self.degradations.append(
                    {
                        "kind": "portfolio_worker_lost",
                        "status": report.status,
                        "detail": report.detail,
                    }
                )
                reg.counter("runtime.worker_kills").inc()
        if tr.enabled:
            tr.event(
                "engine.portfolio.round",
                level=DEBUG,
                size=len(candidates),
                winner=outcome.winner,
                cancelled=len(outcome.cancelled),
                wall_time=round(outcome.wall_time, 4),
            )
        if outcome.winner is not None:
            result = outcome.result
            winner = outcome.winner
            if envs:
                # grid indices are candidate-major; translate back to the
                # batch index the CEGIS loop addresses candidates by
                winner = outcome.winner // n_envs
                if getattr(result, "verified", False):
                    runs = verified_runs.get(
                        result.candidate.key(), [result]
                    )
                    certified = len(runs) == n_envs and all(
                        r.certified for r in runs
                    )
                    result = VerificationResult(
                        candidate=result.candidate,
                        verified=True,
                        counterexample=None,
                        wall_time=max(r.wall_time for r in runs),
                        solver_checks=sum(r.solver_checks for r in runs),
                        certified=certified,
                        certificate=(
                            tuple(r.certificate for r in runs)
                            if certified else None
                        ),
                    )
            return BatchVerdict(
                winner=winner,
                result=result,
                launched=len(candidates),
                cancelled=len(outcome.cancelled),
            )
        # nobody conclusive: honest degraded unknown for the first candidate
        if outcome.reports and all(
            r.status in ("timeout", "oom", "crash")
            for r in outcome.reports.values()
        ):
            # the entire round was killed — preserve the black box
            dump_flight("portfolio-lost")
        result = VerificationResult(
            candidate=candidates[0],
            verified=False,
            counterexample=None,
            wall_time=outcome.wall_time,
            solver_checks=0,
            unknown=True,
            degraded=True,
        )
        return BatchVerdict(
            winner=None,
            result=result,
            launched=len(candidates),
            cancelled=len(outcome.cancelled),
        )

    def find_counterexample(self, candidate, worst_case: bool = False, deadline=None):
        """Single-candidate path (a batch of one, same isolation)."""
        verdict = self.verify_batch([candidate], worst_case=worst_case, deadline=deadline)
        return verdict.result

    def verify(self, candidate) -> bool:
        """Convenience wrapper mirroring :meth:`CcacVerifier.verify`."""
        return self.find_counterexample(candidate).verified
