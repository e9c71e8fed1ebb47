"""Solver worker processes: the pool child and its primitives.

Every worker process under ``src/`` is started by
:func:`spawn_pool_worker` and driven by
:class:`repro.service.pool.WorkerPool` — the one fan-out layer behind
local ``--jobs`` portfolios, ``--isolate`` runs, falsification grids and
the job service.  This module holds the process side of that layer: the
long-lived child loop (:func:`_pool_child`), its spawn, heartbeat and
disposal primitives, and the :class:`WorkerLimits` /
:class:`WorkerReport` records the verifier side reads.

The from-scratch DPLL(T) solver runs exact-Fraction arithmetic in pure
Python: a single pathological query can pin a core for hours or swallow
all RAM, and the in-band ``deadline`` check only fires *between*
conflicts.  The pool provides the out-of-band guarantee: its batch
watchdog cancels a task (SIGUSR1, then a kill after ``kill_grace``) and
each child self-limits memory via ``resource.setrlimit(RLIMIT_AS, ...)``.
:class:`repro.engine.portfolio.PortfolioVerifier` turns a killed worker
into an honest ``unknown`` after a bounded, escalating retry ladder set
by :class:`WorkerLimits`.

The one exception: a :class:`SoundnessError` raised inside the worker
(independent validation refuting a solver result) is re-raised in the
parent verbatim.  Soundness failures must never be degraded to
``unknown``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..chaos.faults import chaos_point, maybe_install_from_env, set_injector
from ..obs import tracer
from ..obs.relay import TraceContext

__all__ = [
    "WorkerLimits",
    "WorkerReport",
    "probe_worker",
    "spawn_pool_worker",
    "reap_worker",
]


@dataclass(frozen=True)
class WorkerLimits:
    """Per-call budget of a pooled verifier call, and its kill-retry
    ladder (the memory cap is the pool's own ``memory_mb``)."""

    wall_time: float = 60.0          # soft in-child deadline, seconds
    retries: int = 1                 # extra attempts after an all-killed round
    escalation: float = 2.0          # wall-time multiplier per retry
    kill_grace: float = 1.0          # SIGTERM -> SIGKILL grace, seconds
    backoff_base: float = 0.25       # full-jitter retry backoff base, seconds
    backoff_cap: float = 5.0         # full-jitter retry backoff ceiling

    def budget(self, attempt: int) -> float:
        """Wall-clock budget of the given (0-based) attempt."""
        return self.wall_time * (self.escalation ** attempt)


@dataclass
class WorkerReport:
    """Outcome of one pool task."""

    status: str  # ok | timeout | oom | crash | error | cancelled
    result: Any = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def reap_worker(proc, conn, kill_grace: float = 1.0) -> None:
    """Terminate (if needed) and join one worker, closing its pipe.

    This is the *disposal* primitive — it always ends the process.  A
    pooled worker that should survive the call must not come here;
    :func:`probe_worker` is the keep-or-respawn decision
    ("idle, keep" vs "dead, respawn") and the pool only disposes of
    workers the probe condemned (or at shutdown).
    """
    if proc.is_alive():
        proc.terminate()
        proc.join(kill_grace)
        if proc.is_alive():
            proc.kill()
    proc.join(5.0)
    conn.close()


# -- persistent pool workers --------------------------------------------------


class TaskCancelled(BaseException):
    """Raised inside a pool child by the SIGUSR1 cancel handler.

    Derives from ``BaseException`` so task code that catches ``Exception``
    (retry loops, advisory telemetry) cannot swallow a cancellation.
    """


def _pool_child(conn, memory_mb: Optional[int], trace_ctx: Optional[TraceContext]) -> None:
    """Long-lived pool worker: boot once, then serve tasks over ``conn``.

    Protocol (all messages are tuples; first element is the kind):

    * parent -> child: ``("task", task_id, fn, args, kwargs, injector)``,
      ``("prime", fn, args, kwargs)``, ``("ping", nonce)``,
      ``("shutdown",)``
    * child -> parent: per task one ``("telemetry", frame)`` followed by
      ``(status, task_id, payload)`` with status in
      ``ok | cancelled | soundness | oom | error``; ``("pong", nonce)``
      answers a ping; ``("primed", detail)`` acknowledges a prime.

    Cancellation: the parent sends ``SIGUSR1``; the handler raises
    :class:`TaskCancelled` *only while a task is executing*, so a signal
    that lands between tasks is ignored.  Tasks run *without* an
    ``interned_scope`` — keeping interned terms (and any process-global
    state the tasks build, e.g. incremental verifier sessions) warm
    across tasks is the point of pooling; the pool bounds the resulting
    memory growth by recycling workers after ``max_tasks_per_worker``.

    Chaos: each task carries the parent's fault injector as of dispatch
    (``None`` when disarmed) and runs under it, so arming or disarming
    in the parent reaches workers spawned before the change.  The
    injector inherited across the fork is dropped at boot; with the
    parent disarmed, a ``REPRO_CHAOS`` experiment armed here applies.
    """
    import signal

    from .errors import SoundnessError as _SoundnessError

    from ..obs.relay import TelemetryCapture, reset_child_tracing

    reset_child_tracing(trace_ctx)
    if memory_mb is not None:
        try:
            import resource

            limit = memory_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass
    set_injector(None)
    env_injector = maybe_install_from_env()

    busy = [False]

    def _on_cancel(signum, frame):
        if busy[0]:
            raise TaskCancelled()

    try:
        signal.signal(signal.SIGUSR1, _on_cancel)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    def _safe_send(msg) -> bool:
        try:
            conn.send(msg)
            return True
        except Exception:  # noqa: BLE001 - parent gone or unpicklable
            return False

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        if kind == "ping":
            _safe_send(("pong", msg[1]))
            continue
        if kind == "prime":
            _, fn, args, kwargs = msg
            try:
                fn(*args, **(kwargs or {}))
                _safe_send(("primed", ""))
            except Exception as exc:  # noqa: BLE001 - priming is advisory
                _safe_send(("primed", f"{type(exc).__name__}: {exc}"))
            continue
        _, task_id, fn, args, kwargs, injector = msg
        set_injector(injector if injector is not None else env_injector)
        capture = TelemetryCapture(trace_ctx, task=str(task_id))
        busy[0] = True
        try:
            chaos_point("worker.child")
            with tracer().span(
                "worker.run", task=getattr(fn, "__name__", "?"),
            ):
                result = fn(*args, **(kwargs or {}))
            status, payload = "ok", result
        except TaskCancelled:
            status, payload = "cancelled", ""
        except _SoundnessError as exc:
            status, payload = "soundness", str(exc)
        except MemoryError:
            status, payload = "oom", f"worker exceeded {memory_mb} MiB"
        except BaseException as exc:  # noqa: BLE001 - report, parent decides
            status, payload = "error", f"{type(exc).__name__}: {exc}"
        finally:
            busy[0] = False
        _safe_send(("telemetry", capture.finish()))
        if not _safe_send((status, task_id, payload)):
            # the result itself may be the unpicklable part; degrade to
            # an error message so the parent is never left hanging
            if not _safe_send(
                ("error", task_id, "worker result could not be sent")
            ):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


def spawn_pool_worker(
    memory_mb: Optional[int] = None,
    trace_ctx: Optional[TraceContext] = None,
):
    """Start one persistent pool worker; returns ``(process, connection)``.

    The connection is *duplex*: the parent sends task/prime/ping messages
    and receives telemetry frames and results (see :func:`_pool_child`).
    The caller owns the lifecycle — :mod:`repro.service.pool` wraps this
    in a :class:`~repro.service.pool.WorkerPool` with heartbeats,
    respawn-on-death, and in-flight task retry.
    """
    if trace_ctx is None:
        trace_ctx = TraceContext.current()
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=_pool_child,
        args=(child_conn, memory_mb, trace_ctx),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def probe_worker(proc, conn, timeout: float = 1.0) -> str:
    """Heartbeat check of an *idle* pooled worker: keep it or condemn it.

    Returns ``"idle"`` (alive and answering pings — keep), ``"dead"``
    (process gone or pipe broken — respawn), or ``"stuck"`` (alive but
    not answering within ``timeout`` — condemn and respawn; an idle
    worker has no legitimate reason to be silent).  Telemetry frames or
    stale results sitting in the pipe are drained, never mistaken for
    the pong.
    """
    if not proc.is_alive():
        return "dead"
    nonce = f"hb-{time.monotonic_ns()}"
    try:
        conn.send(("ping", nonce))
    except (OSError, ValueError, BrokenPipeError):
        return "dead"
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "stuck"
        try:
            if not conn.poll(remaining):
                return "stuck"
            msg = conn.recv()
        except (EOFError, OSError):
            return "dead"
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "pong":
            if msg[1] == nonce:
                return "idle"
            continue  # stale pong from an earlier probe
        # stale telemetry/result from a cancelled task: drop and keep
        # waiting for the pong
        continue
