"""Pooled verification: every verifier call that leaves the process.

The CEGIS loop spends nearly all wall-clock time inside verifier SMT
checks, and a single check pins one core.  :class:`PortfolioVerifier`
runs those checks on the workers of a
:class:`repro.service.pool.WorkerPool` — the one fan-out layer behind
every worker process — for both ``--jobs N`` and ``--isolate``:

* **portfolio** (``jobs > 1``): a round evaluates several candidate
  CCAs concurrently and cancels the losers the moment one worker
  returns a *conclusive* result — a counterexample to feed the
  generator, or a verified candidate.  This is the CC-Fuzz observation
  (Ray & Seshan 2022) applied to synthesis: any one discovered trace
  advances the loop.  Each worker keeps a warm incremental verifier
  across rounds (:func:`_pooled_verify_candidate_task`).
* **isolation** (``jobs == 1``): each call is a one-task round on a
  single worker, so the pool's watchdog (SIGUSR1, then a kill after
  ``kill_grace``) and memory cap (``RLIMIT_AS``) bound a pathological
  query.  The task builds a fresh verifier
  (:func:`_verify_candidate_task`): one worker serving one candidate at
  a time gains nothing from a warm session, whose tableau keeps every
  popped candidate's rows.

A run that is not handed a pool (``ccmatic synthesize --jobs N`` or
``--isolate``) gets one of size ``jobs`` for its lifetime; the job
service injects its shared pool.

A round whose workers were all killed (``timeout`` / ``oom`` /
``crash``) is retried up to ``limits.retries`` times with an escalated
budget and full-jitter backoff; when the ladder is exhausted the call is
an honest degraded ``unknown`` — never a crash of the run and never a
silent "verified" — and the flight recorder is dumped.

Cancellation is safe for soundness: a cancelled worker's verdict is
simply never used, and candidates whose verification was cancelled stay
in the generator's space to be re-proposed later.  A
:class:`SoundnessError` raised in *any* worker — even one about to be
cancelled — aborts the whole round and propagates verbatim.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from ..chaos.supervisor import full_jitter_backoff
from ..obs import DEBUG, WARN, metrics, tracer
from ..obs.flight import dump_flight
from ..runtime.errors import SoundnessError
from ..runtime.workers import WorkerLimits, WorkerReport

__all__ = ["PortfolioOutcome", "PortfolioVerifier", "worker_pool"]

#: report statuses that mean the worker was killed, not that it answered
_KILLED = ("timeout", "oom", "crash")


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


@contextmanager
def worker_pool(pool=None, size: int = 1, memory_mb: Optional[int] = None):
    """The pool a run's verifier dispatches to.

    Yields ``pool`` when one was injected (its owner keeps its
    lifecycle); otherwise a :class:`~repro.service.pool.WorkerPool` of
    ``size`` workers capped at ``memory_mb`` that lives exactly as long
    as the ``with`` block.  Workers spawn on the first batch.
    """
    if pool is not None:
        yield pool
        return
    from ..service.pool import WorkerPool

    owned = WorkerPool(size=size, memory_mb=memory_mb)
    try:
        yield owned
    finally:
        owned.shutdown()


# -- the pool tasks -----------------------------------------------------------


def _verify_candidate_task(
    cfg, precision, candidate, worst_case, time_limit, cache_dir,
    certify=False, environments=None,
):
    """Runs inside a worker: one fresh verifier, one candidate — the
    task of ``jobs == 1`` (isolated) calls.

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
        cfg, wce_precision=precision, cache=cache,
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
    cfg, precision, candidate, worst_case, time_limit, cache_dir,
    certify=False, environments=None,
):
    """Runs inside a *persistent* pool worker: warm verifier, one
    candidate — the task of ``jobs > 1`` portfolio rounds.

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
        str(cache_dir or ""),
        bool(certify),
        tuple(env.key() for env in environments) if environments else None,
    )
    verifier = _WORKER_STATE.get(key)
    if verifier is None:
        cache = QueryCache(cache_dir) if cache_dir else None
        verifier = CcacVerifier(
            cfg, wce_precision=precision, cache=cache,
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


# -- the pooled CCAC verifier -------------------------------------------------


class PortfolioVerifier:
    """Batch-capable verifier running candidates on worker processes.

    Implements both :class:`repro.cegis.interfaces.Verifier` (single
    candidate, a batch of one) and
    :class:`repro.cegis.interfaces.BatchVerifier`
    (:meth:`verify_batch`: race a batch, first conclusive verdict wins,
    losers cancelled).  ``cache_dir`` gives every worker a shared
    on-disk query cache.

    ``pool`` is the :class:`repro.service.pool.WorkerPool` (duck-typed:
    anything with ``run_batch(tasks, accept=, wall_time=)`` returning a
    :class:`PortfolioOutcome`) every batch dispatches to; its lifecycle
    belongs to the caller.  ``jobs`` picks the task (:meth:`_task`).
    ``limits`` sets the per-round budget, watchdog and kill-retry
    ladder; ``retry_seed`` seeds the ladder's backoff jitter so chaos
    experiments replay the same schedule.
    """

    #: hard watchdog headroom over the in-worker soft deadline
    WATCHDOG_SLACK = 1.25

    def __init__(
        self,
        cfg,
        jobs: int = 2,
        wce_precision: Fraction = Fraction(1, 8),
        limits: WorkerLimits = WorkerLimits(),
        cache_dir: Optional[str] = None,
        certify: bool = False,
        pool=None,
        environments=None,
        retry_seed: Optional[int] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {jobs})")
        if pool is None:
            raise ValueError("PortfolioVerifier needs a worker pool")
        self.cfg = cfg
        self.jobs = jobs
        self.wce_precision = Fraction(wce_precision)
        self.limits = limits
        self.cache_dir = cache_dir
        self.certify = certify
        self.pool = pool
        self.environments = (
            tuple(environments) if environments is not None else None
        )
        self.calls = 0
        self.rounds = 0
        self.cancelled = 0
        self.kills = 0
        self.total_time = 0.0
        self.degradations: list[dict] = []
        self._retry_rng = random.Random(retry_seed)

    def _task(self, candidate, worst_case: bool, budget: float, env=None):
        # warm sessions pay off only when several workers each serve a
        # stream of candidates; one worker verifying one candidate at a
        # time runs fastest on a fresh verifier
        fn = (
            _pooled_verify_candidate_task if self.jobs > 1
            else _verify_candidate_task
        )
        return (fn, (
            self.cfg, self.wce_precision, candidate, worst_case, budget,
            self.cache_dir, self.certify, [env] if env is not None else None,
        ))

    def _round(self, candidates, worst_case: bool, budget: float, attempt: int):
        """One pool batch; returns ``(outcome, n_tasks, verified_runs)``.

        With an environment matrix the batch is the candidates ×
        environments grid (candidate-major, one cell per task): any
        cell's counterexample wins, a verified cell only counts toward
        its candidate (``verified_runs``), which wins once every
        environment answered UNSAT.  The parent-side ``runtime.worker``
        span records the round's ``status`` (``ccmatic report`` counts
        kills from it) and, on a one-task round, its lane ``p0``.
        """
        envs = self.environments or (None,)
        verified_runs: dict = {}  # candidate key -> verified cell results

        def accept(result):
            if getattr(result, "counterexample", None) is not None:
                return True
            if not getattr(result, "verified", False):
                return False
            if not self.environments:
                return True
            runs = verified_runs.setdefault(result.candidate.key(), [])
            runs.append(result)
            return len(runs) == len(envs)

        tasks = [
            self._task(c, worst_case, budget, env)
            for c in candidates for env in envs
        ]
        lane = {"worker": "p0"} if len(tasks) == 1 else {}
        status = "error"  # unless the batch returns or raises soundness
        with tracer().span(
            "runtime.worker", attempt=attempt, tasks=len(tasks), **lane
        ) as span:
            try:
                outcome = self.pool.run_batch(
                    tasks, accept=accept,
                    wall_time=budget * self.WATCHDOG_SLACK + self.limits.kill_grace,
                )
                statuses = {r.status for r in outcome.reports.values()}
                status = (
                    "ok" if outcome.winner is not None or not statuses
                    else statuses.pop() if len(statuses) == 1 else "mixed"
                )
            except SoundnessError:
                status = "soundness"
                raise
            finally:
                span.set(status=status)
        return outcome, len(tasks), verified_runs

    def _record_kills(self, outcome, attempt: int, attempts: int,
                      budget: float, then: str) -> None:
        """Count and announce every killed task of one round."""
        tr = tracer()
        for report in outcome.reports.values():
            if report.status not in _KILLED:
                continue
            self.kills += 1
            event = {
                "kind": "worker_killed",
                "status": report.status,
                "attempt": attempt + 1,
                "attempts": attempts,
                "budget": round(budget, 3),
                "detail": report.detail,
            }
            self.degradations.append(event)
            metrics().counter("runtime.worker_kills").inc()
            if tr.enabled:
                tr.event(
                    "runtime.degrade", level=WARN,
                    msg=f"[runtime] solver worker {report.status} (attempt "
                        f"{attempt + 1}/{attempts}, budget {budget:.1f}s) "
                        f"-> {then}",
                    **event,
                )

    def verify_batch(self, candidates, worst_case: bool = False, deadline=None):
        """Race ``candidates``; returns a
        :class:`repro.cegis.interfaces.BatchVerdict`.

        The winner is the first worker to return a conclusive result
        (counterexample found or candidate verified); the rest are
        cancelled and their candidates stay un-judged.  A round whose
        finished tasks were all killed is retried with the next rung of
        ``limits`` (``budget(attempt)``, capped by ``deadline``) after a
        full-jitter backoff.  With no conclusive worker the verdict has
        ``winner=None``: a one-task round returns its task's own answer
        (an in-worker deadline expiry is a plain ``unknown``); otherwise,
        and always once the kill ladder is exhausted, a degraded unknown.
        A candidate is never declared verified on a subset of the
        environment matrix (see :meth:`_round`).
        """
        from ..cegis.interfaces import BatchVerdict

        start = time.perf_counter()
        candidates = list(candidates)
        self.rounds += 1
        self.calls += len(candidates)
        limits = self.limits
        attempts = max(0, limits.retries) + 1
        outcome, n_tasks, verified_runs, all_killed = None, 0, {}, False
        for attempt in range(attempts):
            budget = limits.budget(attempt)
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                budget = min(budget, remaining)
            outcome, n_tasks, verified_runs = self._round(
                candidates, worst_case, budget, attempt
            )
            all_killed = outcome.winner is None and bool(outcome.reports) and all(
                r.status in _KILLED for r in outcome.reports.values()
            )
            retry = all_killed and attempt + 1 < attempts
            self._record_kills(
                outcome, attempt, attempts, budget,
                "retrying" if retry
                else "unknown" if outcome.winner is None else "another worker won",
            )
            if not retry:
                break
            # full-jitter backoff: a fanned-out bad query must not
            # stampede back in lockstep, nor sleep past the deadline
            delay = full_jitter_backoff(
                limits.backoff_base, attempt, cap=limits.backoff_cap,
                rng=self._retry_rng,
            )
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.perf_counter()))
            time.sleep(delay)
        elapsed = time.perf_counter() - start
        self.total_time += elapsed
        winner = outcome.winner if outcome is not None else None
        cancelled = len(outcome.cancelled) if outcome is not None else 0
        self.cancelled += cancelled
        reg = metrics()
        reg.counter("engine.portfolio.rounds").inc()
        reg.counter("engine.portfolio.launched").inc(len(candidates))
        reg.counter("engine.portfolio.cancelled").inc(cancelled)
        tr = tracer()
        if tr.enabled:
            tr.event(
                "engine.portfolio.round", level=DEBUG, size=len(candidates),
                winner=winner, cancelled=cancelled,
                wall_time=round(elapsed, 4),
            )
        lone = outcome.reports.get(0) if n_tasks == 1 else None
        if winner is not None:
            winner, result = self._aggregate(outcome, verified_runs)
        elif lone is not None and lone.ok:
            result = lone.result
        else:
            if all_killed:
                # the escalation ladder is exhausted and the run
                # degrades — preserve the black box
                dump_flight("worker-escalation")
            from ..core.verifier import VerificationResult

            result = VerificationResult(
                candidate=candidates[0], verified=False, counterexample=None,
                wall_time=elapsed, solver_checks=0, unknown=True,
                degraded=True,
            )
        return BatchVerdict(
            winner=winner, result=result, launched=len(candidates),
            cancelled=cancelled,
        )

    def _aggregate(self, outcome: PortfolioOutcome, verified_runs: dict):
        """``(batch index, result)`` of a round's winner: grid indices
        are candidate-major, and a verified matrix winner carries every
        environment's run."""
        result = outcome.result
        if not self.environments:
            return outcome.winner, result
        n_envs = len(self.environments)
        if getattr(result, "verified", False):
            from ..core.verifier import VerificationResult

            runs = verified_runs.get(result.candidate.key(), [result])
            certified = len(runs) == n_envs and all(r.certified for r in runs)
            result = VerificationResult(
                candidate=result.candidate,
                verified=True,
                counterexample=None,
                wall_time=max(r.wall_time for r in runs),
                solver_checks=sum(r.solver_checks for r in runs),
                certified=certified,
                certificate=(
                    tuple(r.certificate for r in runs) if certified else None
                ),
            )
        return outcome.winner // n_envs, result

    def find_counterexample(self, candidate, worst_case: bool = False, deadline=None):
        """Single-candidate path (a batch of one, same isolation)."""
        verdict = self.verify_batch([candidate], worst_case=worst_case, deadline=deadline)
        return verdict.result

    def verify(self, candidate) -> bool:
        """Convenience wrapper mirroring :meth:`CcacVerifier.verify`."""
        return self.find_counterexample(candidate).verified
