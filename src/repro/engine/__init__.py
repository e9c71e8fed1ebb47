"""The performance engine: parallelism, incrementality, and caching.

This package is the "runs as fast as the hardware allows" layer on top
of the CEGIS + SMT stack.  Three independent multipliers compose:

* **Portfolio parallelism** (:mod:`~repro.engine.portfolio`) — a batch
  of candidate CCAs is verified concurrently on the workers of a
  :class:`repro.service.pool.WorkerPool`; the first conclusive verdict
  (counterexample or proof) wins the round and the losers are
  cancelled.  Enabled with
  ``SynthesisQuery(jobs=N)`` / ``ccmatic synthesize --jobs N``.  The
  same :class:`PortfolioVerifier` on a pool of size 1 runs
  ``--isolate`` calls, and climbs one kill-retry ladder for both.
* **Incremental sessions** (:class:`repro.smt.SolverSession`) — a
  verifier keeps one long-lived session holding the candidate-
  independent CCAC encoding and push/pops only the per-candidate
  assertions; CNF conversion, theory atoms, and learned clauses are all
  amortized across candidates (``CcacVerifier(incremental=True)``).
  ``jobs > 1`` pool workers run warm sessions; a ``jobs == 1`` verifier
  builds a fresh session per call, which measured faster there.
* **Query caching** (:mod:`~repro.engine.cache`) — conclusive verdicts
  are content-addressed by the canonical hash of the assertion set, so
  repeated subqueries (common under range pruning and binary-search
  optimization) are answered without a solve; an on-disk layer
  (``--cache-dir``) is shared across runs and worker processes.

Observability: cache traffic is exported as ``engine.cache.*`` counters,
portfolio activity as ``engine.portfolio.*`` counters and
``engine.portfolio.round`` trace events.
"""

from ..smt.session import SessionStats, SolverSession
from .cache import CACHE_VERSION, QueryCache
from .portfolio import PortfolioOutcome, PortfolioVerifier

__all__ = [
    "CACHE_VERSION",
    "PortfolioOutcome",
    "PortfolioVerifier",
    "QueryCache",
    "SessionStats",
    "SolverSession",
]
