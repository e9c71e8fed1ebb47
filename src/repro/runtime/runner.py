"""The fault-tolerant runtime's policy layer: one entry point per run mode.

:func:`run_synthesis` composes the runtime pieces around
:func:`repro.core.synthesize` according to :class:`RuntimeOptions`:

    CcacVerifier                    (jobs == 1, in-process)
      or PortfolioVerifier          (jobs > 1 or --isolate: one pool per run)
        -> ResilientVerifier        (optional: degradation ladder)
          -> CegisLoop + CheckpointStore (optional: crash-safe state)

Every SAT answer is independently validated inside ``CcacVerifier``,
whichever process runs it.

:func:`resume_synthesis` rebuilds the original query from the checkpoint's
embedded metadata, verifies the fingerprint, and continues the run —
``ccmatic resume <ckpt>`` is a thin shell over it.  Volatile knobs
(time budget, iteration cap) may be overridden on resume; semantic fields
cannot be (the fingerprint would refuse the state).
"""

from __future__ import annotations

import os
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from ..obs import tracer
from .checkpoint import CheckpointStore
from .degrade import ResilientVerifier
from .errors import CheckpointError
from .serialize import (
    decode_candidate,
    decode_query,
    decode_trace,
    encode_candidate,
    encode_query,
    encode_trace,
    query_fingerprint,
)
from .workers import WorkerLimits

__all__ = [
    "RuntimeOptions",
    "make_checkpoint_store",
    "resume_synthesis",
    "run_synthesis",
]


@dataclass
class RuntimeOptions:
    """Fault-tolerance configuration of one synthesis run."""

    #: checkpoint file; None disables crash-safe persistence
    checkpoint_path: Optional[str] = None
    #: run verifier calls in resource-capped pool workers even at
    #: ``jobs == 1`` (``jobs > 1`` always does)
    isolate: bool = False
    #: per-call wall-clock cap for pool workers, seconds
    solver_timeout: float = 60.0
    #: per-worker address-space cap in MiB (None = unlimited)
    solver_mem_mb: Optional[int] = None
    #: extra attempts after a round whose workers were all killed
    retries: int = 1
    #: apply the degradation ladder (wce fallback / precision step-down)
    degrade: bool = True
    #: precision of the worst-case counterexample binary search
    wce_precision: Fraction = Fraction(1, 8)
    #: advisory: run every solution through the discrete simulator and
    #: attach the reports to ``SynthesisResult.cross_checks``
    cross_check: bool = False
    #: adversarial falsification budget (trace evaluations) to spend on
    #: every solution after synthesis; 0 disables.  An in-fragment
    #: violation of a verified solution raises
    #: :class:`~repro.runtime.errors.SoundnessError`
    falsify: int = 0
    #: seed of the falsification search (replayable)
    falsify_seed: int = 0
    #: directory of the shared on-disk query cache (None disables it);
    #: portfolio workers and successive runs pool conclusive verdicts
    cache_dir: Optional[str] = None
    #: produce and independently check an UNSAT proof for every verified
    #: verdict (see :mod:`repro.trust`); a proof that fails to check
    #: raises :class:`~repro.runtime.errors.SoundnessError`
    certify: bool = False
    #: runtime-injected persistent worker pool
    #: (:class:`repro.service.pool.WorkerPool`) for the verifier calls of
    #: ``jobs > 1`` or isolated runs.  When None, :func:`run_synthesis`
    #: starts a pool of size ``jobs`` for the run and shuts it down
    #: afterwards.
    #: Never serialized — a pool belongs to the process that started it,
    #: and an injected pool's lifecycle stays with its owner
    worker_pool: Optional[object] = None


def make_checkpoint_store(query, path: str) -> CheckpointStore:
    """A :class:`CheckpointStore` wired with the CCmatic codecs for
    ``query`` (exact-Fraction candidates/traces, query fingerprint, and
    the encoded query embedded as metadata for ``resume``)."""
    cfg = query.cfg
    return CheckpointStore(
        path,
        fingerprint=query_fingerprint(query),
        meta={"query": encode_query(query)},
        encode_candidate=encode_candidate,
        decode_candidate=decode_candidate,
        encode_cex=encode_trace,
        decode_cex=lambda data: decode_trace(data, cfg),
    )


def _build_verifier(query, options: RuntimeOptions):
    """The verifier stack for a run; returns (verifier, parts) where
    ``parts`` are the layers whose ``degradations`` should be merged."""
    jobs = int(getattr(query, "jobs", 1))
    environments = getattr(query, "environments", None)
    if jobs > 1 or options.isolate:
        from ..engine import PortfolioVerifier

        base = PortfolioVerifier(
            query.cfg,
            jobs=jobs,
            wce_precision=options.wce_precision,
            limits=WorkerLimits(
                wall_time=options.solver_timeout, retries=options.retries,
            ),
            cache_dir=options.cache_dir,
            certify=options.certify,
            pool=options.worker_pool,
            environments=environments,
        )
    else:
        from ..core.verifier import CcacVerifier

        cache = None
        if options.cache_dir:
            from ..engine import QueryCache

            cache = QueryCache(options.cache_dir)
        base = CcacVerifier(
            query.cfg,
            wce_precision=options.wce_precision,
            cache=cache,
            certify=options.certify,
            environments=environments,
        )
    parts = [base]
    verifier = base
    if options.degrade:
        verifier = ResilientVerifier(base)
        parts.append(verifier)
    return verifier, parts


def run_synthesis(query, options: Optional[RuntimeOptions] = None):
    """Run a synthesis query under the fault-tolerant runtime.

    Returns a :class:`repro.core.synthesizer.SynthesisResult` whose
    ``degradations`` aggregates every recorded weakening (worker kills,
    worst-case fallbacks, precision step-downs) across the verifier
    stack.
    """
    from ..core.synthesizer import synthesize
    from ..obs import ensure_flight_recorder, set_dump_dir

    options = options or RuntimeOptions()
    # arm the flight recorder next to the checkpoint so a soundness
    # error or worker escalation leaves a black box beside the run state
    if options.checkpoint_path:
        set_dump_dir(
            os.path.dirname(os.path.abspath(options.checkpoint_path)) or "."
        )
    ensure_flight_recorder()
    jobs = int(getattr(query, "jobs", 1))
    with ExitStack() as stack:
        if jobs > 1 or options.isolate:
            # one pool for the whole run (an injected one is kept as is)
            from ..engine.portfolio import worker_pool

            pool = stack.enter_context(
                worker_pool(options.worker_pool, jobs, options.solver_mem_mb)
            )
            options = replace(options, worker_pool=pool)
        verifier, parts = _build_verifier(query, options)
        checkpoint = (
            make_checkpoint_store(query, options.checkpoint_path)
            if options.checkpoint_path
            else None
        )
        result = synthesize(query, verifier=verifier, checkpoint=checkpoint)
    merged: list = []
    for part in parts:
        merged.extend(getattr(part, "degradations", ()))
    result.degradations = merged
    if options.cross_check:
        if result.solutions:
            from .validate import cross_validate

            result.cross_checks = [
                cross_validate(cand, query.cfg) for cand in result.solutions
            ]
        else:
            # requested but nothing to check: record the skip loudly
            # (an empty list, NOT None — reports distinguish "ran, no
            # solutions" from "never requested")
            result.cross_checks = []
            tracer().event(
                "runtime.cross_check_skipped",
                solutions=0,
                msg="[runtime] cross-check requested but the run found "
                    "no solutions to check",
            )
    if options.falsify > 0 and result.solutions:
        from ..ccas import TemplateCCA
        from ..falsify import FalsifyBudget, falsify_cca

        budget = FalsifyBudget(evaluations=options.falsify, stop_after=1)
        for cand in result.solutions:
            falsify_cca(
                lambda cand=cand: TemplateCCA(
                    cand, cwnd_min=query.cfg.cwnd_min
                ),
                query.cfg,
                spec=cand.pretty(),
                budget=budget,
                seed=options.falsify_seed,
                verified=True,
                stats=result,
            )
    return result


def _promote_backup(path: str) -> None:
    """Set the damaged checkpoint aside and promote ``<path>.bak``."""
    bak = path + ".bak"
    if not os.path.exists(bak):
        raise CheckpointError(
            f"no backup checkpoint {bak!r} to resume from (backups are "
            f"kept from the second save onward)"
        )
    if os.path.exists(path):
        os.replace(path, path + ".corrupt")
    # copy, not move: the backup stays available if this resume also dies
    shutil.copyfile(bak, path)
    tracer().event(
        "runtime.resume_from_backup",
        path=path,
        msg=f"[runtime] promoted backup checkpoint {bak} -> {path}",
    )


def resume_synthesis(
    path: str,
    options: Optional[RuntimeOptions] = None,
    time_budget: Optional[float] = None,
    max_iterations: Optional[int] = None,
    jobs: Optional[int] = None,
    from_backup: bool = False,
):
    """Continue a checkpointed run (``ccmatic resume``).

    The original query is reconstructed from the checkpoint's embedded
    metadata; ``time_budget`` / ``max_iterations`` / ``jobs`` optionally
    override the stored volatile knobs (they are excluded from the
    fingerprint, so extending a budget or changing the portfolio width
    on resume is legal).  Raises
    :class:`CheckpointError` when the file carries no query metadata and
    :class:`CheckpointMismatchError` when the state belongs to a
    different query than its metadata claims.

    ``from_backup=True`` recovers from a corrupt latest checkpoint: the
    damaged file is set aside as ``<path>.corrupt`` and the previous
    generation (``<path>.bak``, kept on every save) is promoted before
    resuming — at most one save interval of work is lost.
    """
    if from_backup:
        _promote_backup(path)
    fingerprint, meta = CheckpointStore.read_meta(path)
    encoded = meta.get("query")
    if not encoded:
        raise CheckpointError(
            f"checkpoint {path!r} carries no query metadata; it was not "
            f"written by run_synthesis and cannot be resumed standalone"
        )
    query = decode_query(encoded)
    if query_fingerprint(query) != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} metadata does not match its fingerprint; "
            f"refusing to resume from inconsistent state"
        )
    overrides = {}
    if time_budget is not None:
        overrides["time_budget"] = time_budget
    if max_iterations is not None:
        overrides["max_iterations"] = max_iterations
    if jobs is not None:
        overrides["jobs"] = jobs
    if overrides:
        query = replace(query, **overrides)
    options = options or RuntimeOptions()
    options = replace(options, checkpoint_path=path)
    tracer().event(
        "runtime.resume",
        path=path,
        fingerprint=fingerprint[:12],
        msg=f"[runtime] resuming checkpoint {path}",
    )
    return run_synthesis(query, options)
