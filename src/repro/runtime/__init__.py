"""Fault-tolerant synthesis runtime.

Long synthesis runs fail in boring ways — the process is killed, a solver
query blows the memory budget, the worst-case search times out — and in
one scary way: the from-scratch SMT solver silently returns a wrong
answer.  This package handles both classes explicitly:

- :mod:`~repro.runtime.checkpoint` — atomic JSON checkpoints of CEGIS
  state; a SIGKILL'd run resumes deterministically (``ccmatic resume``).
- :mod:`~repro.runtime.workers` — the pool worker process with its
  memory cap, and the per-call limits (wall-clock budget, kill-retry
  ladder) that :class:`repro.engine.PortfolioVerifier` applies to every
  pooled verifier call; a killed worker is an honest ``unknown``,
  retried with escalated budgets.
- :mod:`~repro.runtime.degrade` — the degradation ladder: recorded,
  structured weakenings (worst-case fallback, precision step-down) so a
  stuck run still terminates with a verdict.
- :mod:`~repro.runtime.validate` — independent result validation: an
  exact-arithmetic evaluator re-checks every SAT model against the
  asserted constraints, and every counterexample trace is replayed
  against the CCAC environment.  Failures raise
  :class:`~repro.runtime.errors.SoundnessError` and are *never* degraded
  away.
- :mod:`~repro.runtime.runner` — the policy layer tying it together:
  :func:`~repro.runtime.runner.run_synthesis` /
  :func:`~repro.runtime.runner.resume_synthesis`.

Import discipline: :mod:`repro.core` imports :mod:`repro.runtime.validate`,
so this ``__init__`` must not (transitively) import :mod:`repro.core` at
module load — the runner is exposed lazily via PEP 562.
"""

from .checkpoint import SCHEMA_VERSION, CheckpointState, CheckpointStore
from .degrade import ResilientVerifier, default_precision_ladder
from .errors import (
    CheckpointError,
    CheckpointMismatchError,
    RuntimeFault,
    SoundnessError,
    WorkerError,
)
from .serialize import (
    decode_candidate,
    decode_query,
    decode_trace,
    encode_candidate,
    encode_query,
    encode_trace,
    query_fingerprint,
)
from .validate import (
    CrossValidation,
    cross_validate,
    evaluate_term,
    validate_assignment,
    validate_counterexample,
    validate_model,
)
from .workers import WorkerLimits, WorkerReport

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointState",
    "CheckpointStore",
    "CrossValidation",
    "ResilientVerifier",
    "RuntimeFault",
    "RuntimeOptions",
    "SoundnessError",
    "WorkerError",
    "WorkerLimits",
    "WorkerReport",
    "cross_validate",
    "decode_candidate",
    "decode_query",
    "decode_trace",
    "default_precision_ladder",
    "encode_candidate",
    "encode_query",
    "encode_trace",
    "evaluate_term",
    "query_fingerprint",
    "resume_synthesis",
    "run_synthesis",
    "validate_assignment",
    "validate_counterexample",
    "validate_model",
]

_LAZY = {"RuntimeOptions", "run_synthesis", "resume_synthesis"}


def __getattr__(name: str):
    # runner imports repro.core (which imports runtime.validate); loading
    # it eagerly here would close an import cycle mid-initialization
    if name in _LAZY:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
