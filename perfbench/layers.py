"""Per-layer tracing for the traced benchmark run, from outside ``src/``.

The traced run wraps each layer's public entry points where their
callers look them up (a class attribute, or a module global imported by
name), measures every call's *self time* — its duration minus the time
spent in nested wrapped calls on the same thread — and records it in the
program's own :mod:`repro.obs` metrics registry.  Pool workers are
forked after the wrappers are installed, so work done in a worker is
measured there too and reaches the parent through the registry deltas
the telemetry relay already ships with every task's result.

Untraced runs install none of this; the difference between a traced
and an untraced run of the same workload is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from statistics import median

#: (layer, metric prefix, module, attribute path) — one row per wrapped
#: entry point.  The layer is the module the entry point belongs to; the
#: module column is where the callers look the name up.
TARGETS = (
    ("core.generator_enum", "generator_enum", "repro.core.generator_enum",
     "EnumerativeGenerator.propose"),
    ("core.generator_enum", "generator_enum", "repro.core.generator_enum",
     "EnumerativeGenerator.propose_batch"),
    ("core.generator_enum", "generator_enum", "repro.core.generator_enum",
     "EnumerativeGenerator.add_counterexample"),
    ("core.verifier", "verifier", "repro.core.verifier",
     "CcacVerifier.find_counterexample"),
    ("smt.compile", "compile", "repro.smt.solver", "compile_query"),
    ("smt.solver", "solver", "repro.smt.solver", "Solver.check"),
    ("smt.sat", "sat", "repro.smt.sat", "SatSolver.solve"),
    ("smt.simplex", "simplex", "repro.smt.simplex", "Simplex.check"),
    ("smt.session", "session", "repro.smt.session", "SolverSession.check"),
    ("runtime.validate", "validate", "repro.core.verifier", "validate_model"),
    ("runtime.validate", "validate", "repro.core.verifier",
     "validate_counterexample"),
    # the environment layer imports it lazily from its home module
    ("runtime.validate", "validate", "repro.runtime.validate",
     "validate_counterexample"),
    ("trust", "trust", "repro.trust.certify", "check_certificate"),
    ("engine.cache", "cache", "repro.engine.cache", "QueryCache.lookup"),
    ("engine.cache", "cache_store", "repro.engine.cache", "QueryCache.store"),
    ("engine.portfolio", "portfolio", "repro.engine.portfolio",
     "PortfolioVerifier.verify_batch"),
    ("service.pool", "pool", "repro.service.pool", "WorkerPool.run_batch"),
    ("service.jobs", "execute_job", "repro.service.jobs", "execute_job"),
)

#: registry names the wrappers record under
HIST = "perfbench.{}.self_s"
TOTAL = "perfbench.{}.total_s"
PIVOTS = "perfbench.simplex.pivots"
ZERO_PIVOT_CHECKS = "perfbench.simplex.zero_pivot_checks"

#: prefixes whose self times add up to the time the wrappers attribute
#: (``trace.attributed_frac`` is that sum over wall time; busy pool
#: workers each add their own time, so on ``service`` it exceeds 1)
SELF_TIME_PREFIXES = tuple(dict.fromkeys(t[1] for t in TARGETS))


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for name in parts[:-1]:
        owner = getattr(owner, name)
    name = parts[-1]
    if name not in vars(owner):
        raise AttributeError(f"{module}.{path} is not defined where it is looked up")
    return owner, name


class Patches:
    """A stack of attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def replace(self, module: str, path: str, make_wrapper) -> None:
        owner, name = _resolve(module, path)
        original = vars(owner)[name]
        setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


_local = threading.local()
_lock = threading.Lock()


def _fresh_lock() -> None:
    # a pool worker forked while another thread held the lock must not
    # inherit it locked
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _timed(fn, hist, total):
    """Wrap ``fn`` to record its self time in ``hist`` and its duration
    in ``total``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            with _lock:
                hist.observe(dt - child)
                total.observe(dt)

    return wrapper


def _counting_pivots(check, pivots, zero):
    """Wrap a (timed) ``Simplex.check`` to count the pivots it makes."""

    @functools.wraps(check)
    def wrapper(self):
        base = self.pivots
        try:
            return check(self)
        finally:
            delta = self.pivots - base
            with _lock:
                pivots.inc(delta)
                if delta == 0:
                    zero.inc()

    return wrapper


def install(patches: Patches) -> None:
    """Wrap every entry point in :data:`TARGETS` (call before any fork)."""
    from repro.obs import metrics

    reg = metrics()
    pivots = reg.counter(PIVOTS)
    zero = reg.counter(ZERO_PIVOT_CHECKS)
    for _layer, prefix, module, path in TARGETS:
        hist = reg.histogram(HIST.format(prefix))
        total = reg.histogram(TOTAL.format(prefix))
        if path == "Simplex.check":
            patches.replace(module, path, lambda fn, h=hist, t=total: (
                _counting_pivots(_timed(fn, h, t), pivots, zero)))
        else:
            patches.replace(module, path, lambda fn, h=hist, t=total: (
                _timed(fn, h, t)))


# -- derived per-layer metrics -------------------------------------------------

def deltas(before: dict, after: dict) -> dict:
    """Registry growth between two :meth:`MetricsRegistry.snapshot` calls:
    ``{"counters": {name: n}, "histograms": {name: (count, total)}}``."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    hists = {}
    for name, h in after["histograms"].items():
        b = before["histograms"].get(name, {})
        hists[name] = (
            h.get("count", 0) - b.get("count", 0),
            h.get("total", 0.0) - b.get("total", 0.0),
        )
    return {"counters": counters, "histograms": hists}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (p100) when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    return xs[n - 11], int(100 * (n - 10) / n)


def layer_metrics(d: dict, run: dict) -> dict:
    """Every per-layer metric, from registry deltas ``d`` (see
    :func:`deltas`) and the workload's own counts ``run`` (CEGIS result
    fields, pool and server statistics, wall times).  Layers a workload
    bypasses report 0."""
    c = d["counters"].get
    h = d["histograms"]

    def calls(prefix):
        return h.get(HIST.format(prefix), (0, 0.0))[0]

    def self_s(prefix):
        return h.get(HIST.format(prefix), (0, 0.0))[1]

    checks = calls("simplex")
    hits = c("engine.cache.hits", 0)
    misses = c("engine.cache.misses", 0)
    launched = c("engine.portfolio.launched", 0)
    cancelled = c("engine.portfolio.cancelled", 0)
    attributed = sum(self_s(p) for p in SELF_TIME_PREFIXES)
    out = {
        "cegis.iterations": sum(run.get("iterations", ())),
        "cegis.counterexamples": run.get("counterexamples", 0),
        "cegis.verify_s": run.get("verify_s", 0.0),
        "cegis.generate_s": run.get("generate_s", 0.0),
        "generator_enum.calls": calls("generator_enum"),
        "generator_enum.self_s": self_s("generator_enum"),
        "verifier.calls": calls("verifier"),
        "verifier.self_s": self_s("verifier"),
        "solver.checks": calls("solver"),
        "solver.self_s": self_s("solver"),
        "compile.queries": c("compile.queries", 0),
        "compile.s": self_s("compile"),
        "compile.atoms_after": c("compile.atoms_after", 0),
        "sat.calls": calls("sat"),
        "sat.self_s": self_s("sat"),
        "sat.conflicts": c("smt.conflicts", 0),
        "sat.decisions": c("smt.decisions", 0),
        "sat.propagations": c("smt.propagations", 0),
        "simplex.checks": checks,
        "simplex.check_s": self_s("simplex"),
        "simplex.pivots": c(PIVOTS, 0),
        "simplex.zero_pivot_frac": _ratio(c(ZERO_PIVOT_CHECKS, 0), checks),
        "session.checks": calls("session"),
        "session.check_s": self_s("session"),
        "validate.calls": calls("validate"),
        "validate.s": self_s("validate"),
        "trust.proofs": c("trust.proofs.checked", 0),
        "trust.proof_steps": c("trust.proofs.steps", 0),
        "trust.check_s": self_s("trust"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_frac": _ratio(hits, hits + misses),
        "cache.lookup_s": self_s("cache"),
        "cache.store_s": self_s("cache_store"),
        "portfolio.rounds": c("engine.portfolio.rounds", 0),
        "portfolio.launched": launched,
        "portfolio.cancelled": cancelled,
        "portfolio.useful_frac": _ratio(launched - cancelled, launched),
        "portfolio.round_s": h.get(TOTAL.format("portfolio"), (0, 0.0))[1],
        "portfolio.worker_s": run.get("portfolio_worker_s", 0.0),
        "pool.batches": calls("pool"),
        "pool.tasks": run.get("pool_tasks", 0),
        "pool.spawns": run.get("pool_spawns", 0),
        "pool.respawns": run.get("pool_respawns", 0),
        "pool.cancelled": run.get("pool_cancelled", 0),
        "pool.batch_s": self_s("pool"),
        "execute_job.calls": calls("execute_job"),
        "execute_job.self_s": self_s("execute_job"),
        "server.queue_wait_p50_s": _median(run.get("queue_wait", ())),
        "server.run_p50_s": _median(run.get("run", ())),
        "server.overhead_p50_s": _median(run.get("overhead", ())),
        "server.shed": run.get("shed", 0),
        "trace.wall_s": run.get("wall_s", 0.0),
        "trace.synth_job_s": run.get("synth_job_s", 0.0),
        "trace.attributed_frac": _ratio(attributed, run.get("wall_s", 0.0)),
    }
    return out


def _median(xs) -> float:
    xs = list(xs)
    return median(xs) if xs else 0.0
