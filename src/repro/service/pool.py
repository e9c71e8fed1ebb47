"""Persistent worker pool: the one fan-out layer for worker processes.

Every worker process under ``src/`` belongs to a :class:`WorkerPool`:
the verifier calls of a local ``--jobs N`` or ``--isolate`` run (one
pool of size ``jobs`` per run, dispatched to by
:class:`~repro.engine.portfolio.PortfolioVerifier`), falsification grid
chunks (a pool per grid) and the job service (one shared pool).
A pool keeps ``size`` long-lived workers
(:func:`repro.runtime.workers.spawn_pool_worker`) that boot once, run an
optional *prime* call (warm the intern table, import the heavy modules),
and then serve ``("task", ...)`` messages over their duplex pipes — so
per-candidate state like an incremental verifier session survives from
one batch to the next.

:meth:`WorkerPool.run_batch` races a batch: the first accepted result
wins and the rest are cancelled (``accept=lambda r: False`` waits for
every task instead).  A :class:`SoundnessError` from any worker aborts
the batch, an all-error batch raises :class:`WorkerError`, and a batch
``wall_time`` reports every unfinished task as ``timeout``.  On top of
that:

* **keep vs respawn** — a worker that dies mid-task (OOM-killed,
  SIGKILLed by an operator, crashed) is detected by its broken pipe,
  its in-flight task is *re-queued* onto a respawned worker (bounded by
  ``retries`` per task), and the batch continues.  Idle-worker health
  uses :func:`repro.runtime.workers.probe_worker` — the heartbeat that
  distinguishes "idle, keep" from "dead, respawn" — never
  ``reap_worker``, which always destroys.
* **cooperative cancellation** — losers get ``SIGUSR1`` (the child
  raises ``TaskCancelled`` between bytecodes; pure-Python solver code
  has no uninterruptible C loops), and only a worker that fails to
  acknowledge within ``kill_grace`` is killed and respawned.
* **recycling** — after ``max_tasks_per_worker`` tasks a worker is
  retired and replaced, bounding the memory growth that keeping the
  intern table warm otherwise permits.

Concurrency (PR 10): the pool is shared by N server executor threads,
so batches *lease* lanes.  ``run_batch`` takes as many idle lanes as it
can use (blocking until at least one is free), works exclusively on
that leased set, and releases the lanes at the end — two concurrent
batches never touch the same worker, and the only synchronisation is
the lease hand-off under one condition variable.  Slow operations
(spawn, prime, reap, pipe waits) all happen on exclusively-held lanes,
outside the lock.

Cancellation from *outside* the batch rides the same path: a
:class:`~repro.service.resilience.CancelScope` — passed as
``run_batch(..., cancel=...)`` or bound to the calling thread via
:meth:`bind_cancel` so callers deep inside the synthesis stack inherit
it — is polled every ``_POLL_TICK``; once fired, in-flight tasks get
the SIGUSR1 treatment and the batch raises
:class:`~repro.service.resilience.JobCancelled` with the scope's
reason.

Chaos experiments reach every worker: each task carries the parent's
fault injector as armed at dispatch, so a lane spawned during a fault
storm stops failing once the parent disarms.

Soundness note (see DESIGN "The control plane"): pooled tasks
deliberately run without a per-task ``interned_scope`` reset, because
warm state *is* the speedup.  A task that is
cancelled or errors clears its process-global verifier cache before the
worker serves the next task, so a half-popped solver session is never
reused — and the independent model validator still checks every verdict
regardless of which process produced it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..chaos.faults import current_injector
from ..engine.portfolio import PortfolioOutcome
from ..obs import DEBUG, metrics, tracer
from ..obs.flight import dump_flight
from ..obs.relay import TraceContext, merge_frame
from ..runtime.errors import SoundnessError, WorkerError
from ..runtime.workers import (
    WorkerReport,
    probe_worker,
    reap_worker,
    spawn_pool_worker,
)
from .resilience import CANCEL_DRAIN, CancelScope, JobCancelled

__all__ = ["PoolStats", "WorkerPool"]

try:
    from multiprocessing.connection import wait as _wait_connections
except ImportError:  # pragma: no cover
    _wait_connections = None

#: cancel/close re-check cadence while waiting on worker pipes, seconds
_POLL_TICK = 0.25


@dataclass
class PoolStats:
    """Cumulative pool counters (exposed at the service ``/stats``)."""

    size: int = 0
    spawns: int = 0
    respawns: int = 0
    recycles: int = 0
    tasks_done: int = 0
    retries: int = 0
    cancelled: int = 0
    batches: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Lane:
    """One pool slot: a worker process plus its bookkeeping."""

    lane: int
    proc: Any
    conn: Any
    tasks_served: int = 0
    #: task token currently executing (None when idle)
    busy: Optional[str] = None
    #: held exclusively by one batch/probe (guarded by the pool condition)
    leased: bool = False
    epoch: int = field(default=0)


class WorkerPool:
    """``size`` persistent workers serving verification task batches."""

    def __init__(
        self,
        size: int = 2,
        memory_mb: Optional[int] = None,
        kill_grace: float = 1.0,
        max_tasks_per_worker: int = 64,
        retries: int = 1,
        prime: Optional[tuple] = None,
        probe_timeout: float = 1.0,
        prime_timeout: float = 60.0,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1 (got {size})")
        self.size = size
        self.memory_mb = memory_mb
        self.kill_grace = kill_grace
        self.max_tasks_per_worker = max_tasks_per_worker
        self.retries = retries
        self.probe_timeout = probe_timeout
        self.prime_timeout = prime_timeout
        self.stats = PoolStats(size=size)
        self._lanes: list[_Lane] = []
        self._prime = prime  # (fn, args, kwargs) run on every new worker
        self._batch_seq = 0
        self._started = False
        self._closing = False
        self._cond = threading.Condition()
        #: thread ident -> CancelScope bound via bind_cancel()
        self._bound: dict[int, CancelScope] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._closing = False
        lanes = [self._spawn(lane) for lane in range(self.size)]
        with self._cond:
            self._lanes = lanes
            self._cond.notify_all()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def set_prime(self, fn, args=(), kwargs=None) -> None:
        """Warm-up call executed once on each (re)spawned worker."""
        self._prime = (fn, tuple(args), dict(kwargs or {}))
        if not self._started:
            return
        mine: list[_Lane] = []
        with self._cond:
            for lane in self._lanes:
                if not lane.leased:
                    lane.leased = True
                    mine.append(lane)
        try:
            for lane in mine:
                self._prime_lane(lane)
        finally:
            self._release(mine)

    def bind_cancel(self, scope: CancelScope) -> None:
        """Attach ``scope`` to the calling thread: every ``run_batch``
        issued from this thread (however deep in the call stack) polls it.
        """
        self._bound[threading.get_ident()] = scope

    def unbind_cancel(self) -> None:
        self._bound.pop(threading.get_ident(), None)

    def shutdown(self) -> None:
        """Stop every worker: polite shutdown for idle, cancel for busy.

        Concurrent batches abort on their next poll tick (they observe
        ``_closing`` and raise ``JobCancelled("drain")``).
        """
        with self._cond:
            if not self._started:
                return
            self._closing = True
            lanes = list(self._lanes)
            self._cond.notify_all()
        for lane in lanes:
            if lane.busy is not None:
                self._signal_cancel(lane)
            try:
                lane.conn.send(("shutdown",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + max(self.kill_grace, 0.1)
        for lane in lanes:
            lane.proc.join(max(0.0, deadline - time.monotonic()))
        for lane in lanes:
            reap_worker(lane.proc, lane.conn, self.kill_grace)
        with self._cond:
            self._lanes = []
            self._started = False
            self._closing = False
            self._cond.notify_all()

    def probe(self, timeout: Optional[float] = None) -> dict[int, str]:
        """Heartbeat every idle lane; respawn the dead, keep the idle.

        Lanes leased to a running batch are judged by ``proc.is_alive()``
        only — a worker deep in an exact-arithmetic pivot legitimately
        ignores its pipe.  ``timeout`` defaults to the pool's
        ``probe_timeout`` (threaded from ``ServiceConfig`` by the server).
        """
        if timeout is None:
            timeout = self.probe_timeout
        verdicts: dict[int, str] = {}
        mine: list[_Lane] = []
        with self._cond:
            for lane in self._lanes:
                if lane.leased:
                    verdicts[lane.lane] = (
                        "busy" if lane.proc.is_alive() else "dead"
                    )
                else:
                    lane.leased = True
                    mine.append(lane)
        try:
            for i, lane in enumerate(list(mine)):
                verdict = probe_worker(lane.proc, lane.conn, timeout)
                verdicts[lane.lane] = verdict
                if verdict in ("dead", "stuck"):
                    metrics().counter("service.pool.probe_respawns").inc()
                    mine[i] = self._replace_lane(lane)
        finally:
            self._release(mine)
        return verdicts

    # -- batch execution -----------------------------------------------------

    def run_batch(
        self,
        tasks: Sequence[tuple],
        *,
        accept: Optional[Callable[[Any], bool]] = None,
        wall_time: Optional[float] = None,
        cancel: Optional[CancelScope] = None,
    ) -> PortfolioOutcome:
        """Run ``tasks`` (``(fn, args)`` / ``(fn, args, kwargs)``) across
        the pool; first accepted result wins.

        Pass ``accept=lambda r: False`` to wait for *every* task (no
        winner, all results in ``outcome.reports``).  Raises
        :class:`SoundnessError` from any worker immediately and
        :class:`WorkerError` when every task errored.

        ``cancel`` (explicit, or bound to this thread via
        :meth:`bind_cancel`) is polled while the batch runs; once fired,
        in-flight tasks are SIGUSR1-cancelled and the batch raises
        :class:`JobCancelled` with the scope's reason.
        """
        if not self._started:
            self.start()
        if cancel is None:
            cancel = self._bound.get(threading.get_ident())
        accept_fn = accept or (lambda _result: True)
        tr = tracer()
        start = time.perf_counter()
        deadline = None if wall_time is None else start + wall_time
        with self._cond:
            self._batch_seq += 1
            batch_no = self._batch_seq
            self.stats.batches += 1
        outcome = PortfolioOutcome(winner=None, result=None, cancelled=[])
        queue: deque[int] = deque(range(len(tasks)))
        attempts = {i: 0 for i in range(len(tasks))}
        tokens: dict[str, int] = {}  # live token -> task index

        def _token(i: int) -> str:
            t = f"b{batch_no}:{i}:a{attempts[i]}"
            tokens[t] = i
            return t

        leased = self._lease(min(self.size, len(tasks)), cancel)
        timed_out = False
        with tr.span(
            "service.pool.batch", size=len(tasks), pool=self.size
        ) as span:
            anchor = getattr(span, "span_id", None)
            anchor_depth = getattr(span, "depth", 0)
            try:
                while outcome.winner is None:
                    if self._closing:
                        self._cancel_busy(leased, outcome, tokens)
                        raise JobCancelled(CANCEL_DRAIN)
                    if cancel is not None and cancel.cancelled:
                        self._cancel_busy(leased, outcome, tokens)
                        raise JobCancelled(cancel.reason or "user")
                    self._dispatch(leased, queue, tasks, _token)
                    busy = [ln for ln in leased if ln.busy is not None]
                    if not busy and not queue:
                        break  # everything judged
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            timed_out = True
                            break
                    if not busy:
                        continue  # dispatch again (fresh respawns)
                    tick = (
                        _POLL_TICK if remaining is None
                        else min(_POLL_TICK, remaining)
                    )
                    ready = _wait_connections(
                        [ln.conn for ln in busy], timeout=tick
                    )
                    if not ready:
                        continue  # poll tick: re-check cancel/deadline
                    by_conn = {ln.conn: ln for ln in busy}
                    for conn in ready:
                        lane = by_conn[conn]
                        if self._consume(
                            lane, leased, tokens, queue, attempts, outcome,
                            accept_fn, anchor, anchor_depth,
                        ):
                            break  # winner accepted
                # losers: anything queued or in flight when the race ended
                if outcome.winner is not None:
                    self._cancel_busy(leased, outcome, tokens)
                    for i in queue:
                        outcome.cancelled.append(i)
                elif timed_out:
                    self._cancel_busy(
                        leased, outcome, tokens, as_timeout=wall_time
                    )
                    for i in queue:
                        outcome.reports[i] = WorkerReport(
                            status="timeout",
                            detail=(
                                f"pool batch exceeded {wall_time:.1f}s"
                                if wall_time else "timeout"
                            ),
                        )
            finally:
                self._recycle_leased(leased)
                self._release(leased)
            for i, frames in sorted(outcome.telemetry.items()):
                for frame in frames:
                    merge_frame(
                        frame, anchor_span=anchor, anchor_depth=anchor_depth
                    )
            span.set(
                winner=outcome.winner,
                relayed=sum(len(f) for f in outcome.telemetry.values()),
            )
        outcome.cancelled = sorted(set(outcome.cancelled))
        outcome.wall_time = time.perf_counter() - start
        self.stats.cancelled += len(outcome.cancelled)
        metrics().counter("service.pool.batches").inc()
        if outcome.winner is None and outcome.reports and all(
            r.status == "error" for r in outcome.reports.values()
        ):
            raise WorkerError(
                "; ".join(r.detail for r in outcome.reports.values())
            )
        return outcome

    # -- lane leasing --------------------------------------------------------

    def _lease(self, want: int, cancel: Optional[CancelScope]) -> list[_Lane]:
        """Take up to ``want`` idle lanes (at least one; blocks for it)."""
        want = max(1, want)
        with self._cond:
            while True:
                if self._closing:
                    raise JobCancelled(CANCEL_DRAIN)
                if cancel is not None:
                    cancel.raise_if_cancelled()
                free = [ln for ln in self._lanes if not ln.leased]
                if free:
                    take = free[:want]
                    for ln in take:
                        ln.leased = True
                    return take
                self._cond.wait(_POLL_TICK)

    def _release(self, leased: list[_Lane]) -> None:
        with self._cond:
            for ln in leased:
                ln.leased = False
            self._cond.notify_all()

    def _replace_lane(self, lane: _Lane, respawn: bool = True) -> _Lane:
        """Reap an exclusively-held dead/condemned lane, spawn its successor
        (still leased), and swap it into the pool's lane table."""
        reap_worker(lane.proc, lane.conn, self.kill_grace)
        if self._closing:
            raise JobCancelled(CANCEL_DRAIN)
        fresh = self._spawn(lane.lane, respawn=respawn)
        fresh.leased = True
        with self._cond:
            try:
                self._lanes[self._lanes.index(lane)] = fresh
            except ValueError:  # pool shut down underneath us
                pass
        return fresh

    # -- internals -----------------------------------------------------------

    def _spawn(self, lane_no: int, respawn: bool = False) -> _Lane:
        proc, conn = spawn_pool_worker(
            self.memory_mb,
            trace_ctx=TraceContext.current(worker_id=f"p{lane_no}"),
        )
        self.stats.spawns += 1
        if respawn:
            self.stats.respawns += 1
            metrics().counter("service.pool.respawns").inc()
        lane = _Lane(lane=lane_no, proc=proc, conn=conn)
        self._prime_lane(lane)
        return lane

    def _prime_lane(self, lane: _Lane, timeout: Optional[float] = None) -> None:
        if self._prime is None:
            return
        if timeout is None:
            timeout = self.prime_timeout
        fn, args, kwargs = self._prime
        try:
            lane.conn.send(("prime", fn, args, kwargs))
        except (OSError, ValueError, BrokenPipeError):
            return
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if not lane.conn.poll(deadline - time.monotonic()):
                    break
                msg = lane.conn.recv()
            except (EOFError, OSError):
                break
            if isinstance(msg, tuple) and msg and msg[0] == "primed":
                if msg[1]:
                    tracer().event(
                        "service.pool.prime_failed", level=DEBUG,
                        lane=lane.lane, detail=msg[1],
                    )
                return
            # stale telemetry/pong from a previous life: drop it

    def _dispatch(self, leased, queue, tasks, make_token) -> None:
        """Hand queued tasks to idle leased lanes (respawning dead idles)."""
        for i, lane in enumerate(leased):
            if not queue:
                return
            if lane.busy is not None:
                continue
            if not lane.proc.is_alive():
                lane = leased[i] = self._replace_lane(lane)
            idx = queue.popleft()
            task = tasks[idx]
            fn, args = task[0], task[1]
            kwargs = task[2] if len(task) > 2 else None
            token = make_token(idx)
            try:
                lane.conn.send(
                    ("task", token, fn, args, kwargs, current_injector())
                )
            except (OSError, ValueError, BrokenPipeError):
                # died between the liveness check and the send; retry the
                # task on a fresh worker next dispatch round
                queue.appendleft(idx)
                leased[i] = self._replace_lane(lane)
                continue
            lane.busy = token

    def _consume(
        self, lane, leased, tokens, queue, attempts, outcome,
        accept_fn, anchor, anchor_depth,
    ) -> bool:
        """Read one message from a busy lane.  True = winner accepted."""
        try:
            msg = lane.conn.recv()
        except (EOFError, OSError):
            self._lane_died(lane, leased, tokens, queue, attempts, outcome)
            return False
        if not isinstance(msg, tuple) or not msg:
            return False
        if msg[0] == "telemetry" and len(msg) == 2:
            idx = tokens.get(lane.busy)
            if idx is not None:
                outcome.telemetry.setdefault(idx, []).append(msg[1])
            return False
        if msg[0] == "pong" or len(msg) != 3:
            return False  # stale heartbeat / late prime ack
        status, token, payload = msg
        idx = tokens.pop(token, None)
        lane.busy = None
        lane.tasks_served += 1
        self.stats.tasks_done += 1
        if idx is None:
            return False  # stale result from a cancelled epoch
        if status == "soundness":
            for frames in outcome.telemetry.values():
                for frame in frames:
                    merge_frame(
                        frame, anchor_span=anchor, anchor_depth=anchor_depth
                    )
            outcome.telemetry.clear()
            dump_flight("soundness")
            self._cancel_busy(leased, outcome, tokens)
            raise SoundnessError(payload)
        if status == "ok":
            outcome.reports[idx] = WorkerReport(status="ok", result=payload)
            if outcome.winner is None and accept_fn(payload):
                outcome.winner = idx
                outcome.result = payload
                return True
            return False
        if status == "oom":
            # the worker survived (MemoryError caught in-child) but its
            # warm state is suspect: retire it
            outcome.reports[idx] = WorkerReport(status="oom", detail=str(payload))
            self._retire(lane, leased)
            return False
        outcome.reports[idx] = WorkerReport(
            status="cancelled" if status == "cancelled" else "error",
            detail=str(payload),
        )
        return False

    def _lane_died(self, lane, leased, tokens, queue, attempts, outcome) -> None:
        """Broken pipe mid-task: respawn the lane, re-queue its task."""
        token = lane.busy
        idx = tokens.pop(token, None) if token else None
        exitcode = lane.proc.exitcode
        leased[leased.index(lane)] = self._replace_lane(lane)
        if idx is None:
            return
        attempts[idx] += 1
        if attempts[idx] <= self.retries:
            self.stats.retries += 1
            metrics().counter("service.pool.task_retries").inc()
            queue.append(idx)
        else:
            outcome.reports[idx] = WorkerReport(
                status="crash",
                detail=(
                    f"worker died {attempts[idx]} times on this task "
                    f"(last exit code {exitcode})"
                ),
            )

    def _signal_cancel(self, lane) -> None:
        try:
            os.kill(lane.proc.pid, signal.SIGUSR1)
        except (ProcessLookupError, OSError):
            pass

    def _cancel_busy(self, leased, outcome, tokens, as_timeout=None) -> None:
        """Cancel in-flight tasks; keep workers that acknowledge."""
        busy = [ln for ln in leased if ln.busy is not None]
        for lane in busy:
            self._signal_cancel(lane)
        deadline = time.monotonic() + max(self.kill_grace, 0.1)
        for lane in busy:
            idx = tokens.pop(lane.busy, None)
            acked = self._await_ack(lane, outcome, idx, deadline)
            if idx is not None:
                if as_timeout is not None:
                    outcome.reports[idx] = WorkerReport(
                        status="timeout",
                        detail=f"pool batch exceeded {as_timeout:.1f}s"
                        if as_timeout else "timeout",
                    )
                else:
                    outcome.cancelled.append(idx)
            if not acked:
                leased[leased.index(lane)] = self._replace_lane(lane)
            else:
                lane.busy = None
                lane.tasks_served += 1

    def _await_ack(self, lane, outcome, idx, deadline) -> bool:
        """Wait for the cancelled task's final message (telemetry kept)."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                if not lane.conn.poll(remaining):
                    return False
                msg = lane.conn.recv()
            except (EOFError, OSError):
                return False
            if not isinstance(msg, tuple) or not msg:
                continue
            if msg[0] == "telemetry" and len(msg) == 2:
                if idx is not None:
                    outcome.telemetry.setdefault(idx, []).append(msg[1])
                continue
            if msg[0] == "pong":
                continue
            if len(msg) == 3 and msg[1] == lane.busy:
                return True  # final status (cancelled/ok/error), discarded
            # anything else: stale, keep draining

    def _retire(self, lane, leased) -> None:
        leased[leased.index(lane)] = self._replace_lane(lane)
        self.stats.recycles += 1

    def _recycle_leased(self, leased) -> None:
        """Replace leased-idle lanes that served their max task quota."""
        for i, lane in enumerate(leased):
            if lane.busy is None and lane.tasks_served >= self.max_tasks_per_worker:
                try:
                    leased[i] = self._replace_lane(lane, respawn=False)
                except JobCancelled:
                    return  # closing: shutdown() owns the cleanup now
                self.stats.recycles += 1
                metrics().counter("service.pool.recycles").inc()
