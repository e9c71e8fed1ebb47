"""Command-line interface: ``ccmatic <command>``.

Commands:

* ``synthesize`` — run the CEGIS loop on one of the paper's search spaces;
* ``verify``     — verify a named CCA (rocc, eq3, const:<gamma>);
* ``sweep``      — count solutions across utilization/delay thresholds;
* ``simulate``   — run CCAs on the discrete-time simulator;
* ``assumption`` — synthesize the weakest sufficient environment
  assumption for a CCA;
* ``report``     — per-phase breakdown of a JSONL trace (worker lanes,
  cache and certify attribution; ``--perfetto out.json`` additionally
  exports a Chrome/Perfetto ``trace_event`` file with one lane per
  worker);
* ``bench-diff`` — gate a fresh ``engine_bench`` report against the
  committed ``BENCH_engine.json`` trajectory (nonzero exit beyond
  ``--max-regress``);
* ``resume``     — continue a synthesis run from its ``--checkpoint``
  file after a crash or kill (``--from-backup`` recovers from a
  corrupt latest checkpoint);
* ``certify``    — verify named CCAs with proof production on: every
  UNSAT verdict carries a DRAT+Farkas certificate replayed by the
  independent checker (:mod:`repro.trust`);
* ``serve``      — run the synthesis-as-a-service control plane
  (:mod:`repro.service`): an HTTP/JSON endpoint with a durable job
  queue, a persistent worker pool and a service-wide query cache;
* ``submit``     — build the same :class:`~repro.service.jobs.JobSpec`
  the local commands execute and send it to a running control plane
  (``submit synthesize|verify|falsify ...``);
* ``status``     — one job's lifecycle record; ``--watch`` streams its
  NDJSON progress until it finishes;
* ``result``     — fetch a finished job's payload and render it exactly
  as the local command would (same printers, same exit codes).

``synthesize``, ``verify`` and ``falsify`` all build a serializable
:class:`~repro.service.jobs.JobSpec` and run it through
:func:`~repro.service.jobs.execute_job` — the same path the server
takes — so a local run and a submitted run are the same computation
with a different transport.

``synthesize`` runs under the fault-tolerant runtime
(:mod:`repro.runtime`): ``--checkpoint`` persists crash-safe state every
iteration, ``--isolate`` runs solver calls in resource-capped workers
(``--solver-timeout``, ``--solver-mem-mb``), and degradations are
reported at the end of the run.

Global observability flags (accepted before or after the subcommand):

* ``--trace PATH``  — write a structured JSONL trace of the run
  (spans, events, and a final metrics snapshot);
* ``--log-level {quiet,info,debug}`` — live console rendering of events
  (``info``) and span timings (``debug``).

A flight recorder (bounded ring buffer of the most recent trace
records) is always on: a :class:`SoundnessError`, an exhausted worker
escalation, or an unhandled crash dumps ``flightrec-*.jsonl`` next to
the checkpoint (or into the working directory) for post-mortem
``ccmatic report``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .ccac import ModelConfig
from .cegis import PruningMode
from .obs import DEBUG, INFO, ConsoleSink, JsonlSink, metrics, tracer
from .obs.report import report as render_trace_report
from .core import (
    SynthesisQuery,
    classify,
    synthesize,
    table1_spaces,
    total_waste_budget,
    weakest_sufficient_assumption,
)


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer, friendly error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: strictly positive float, friendly error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {value})")
    return value


def _readable_file(text: str) -> str:
    """argparse type: an existing, readable file, friendly error."""
    import os

    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    if not os.access(text, os.R_OK):
        raise argparse.ArgumentTypeError(f"file is not readable: {text}")
    return text


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("fault tolerance")
    g.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="persist crash-safe state to PATH every iteration "
             "(continue later with `ccmatic resume PATH`)",
    )
    g.add_argument(
        "--isolate", action="store_true",
        help="run each solver call in a resource-capped worker of a "
             "single-worker pool that lives as long as the run",
    )
    g.add_argument(
        "--solver-timeout", type=_positive_float, default=60.0,
        metavar="SECONDS",
        help="per-call wall-clock cap for pool workers (--isolate, --jobs)",
    )
    g.add_argument(
        "--solver-mem-mb", type=_positive_int, default=None,
        metavar="MIB",
        help="per-worker memory cap for pool workers (--isolate, --jobs)",
    )
    g.add_argument(
        "--cross-check", action="store_true",
        help="advisory: replay each solution on the discrete simulator",
    )
    g.add_argument(
        "--falsify", type=_positive_int, default=0, metavar="BUDGET",
        help="adversarially falsify every solution with a genetic trace "
             "search of BUDGET evaluations; an in-fragment violation of "
             "a verified solution is a soundness error",
    )
    g.add_argument(
        "--falsify-seed", type=int, default=0, metavar="SEED",
        help="seed of the --falsify search (runs are replayable)",
    )
    g.add_argument(
        "--certify", action="store_true",
        help="produce and independently check an UNSAT proof for every "
             "verified verdict (DRAT + Farkas certificates; see "
             "`ccmatic certify` for the standalone workload)",
    )
    g = p.add_argument_group("performance")
    g.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="portfolio width: verify N candidates concurrently on a "
             "pool of N workers with warm solver sessions; the first "
             "conclusive verdict wins the round (default: 1, sequential)",
    )
    g.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="content-addressed query cache shared across runs and "
             "portfolio workers (conclusive verdicts only)",
    )
    _add_pipeline_arg(g)


def _environment_arg(text: str):
    """argparse type: one cell of the CCAC environment matrix."""
    from .ccac.environments import parse_environment

    try:
        return parse_environment(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_env_arg(p) -> None:
    p.add_argument(
        "--env", action="append", type=_environment_arg, default=None,
        dest="environments", metavar="NAME[:k=v,...]",
        help="a cell of the CCAC environment matrix to verify against "
             "(repeatable): lossless | lossy:buffer=<frac> | "
             "multiflow:min_share=<frac> | jitter:jitter=<int> | "
             "thresholds:util_thresh=<frac>.  With several, a candidate "
             "counts as verified only when every environment agrees "
             "(default: lossless)",
    )


def _add_pipeline_arg(p) -> None:
    p.add_argument(
        "--no-compile-pipeline", action="store_true",
        help="escape hatch: skip the staged compile pipeline and encode "
             "raw preprocessed terms (slower; for debugging/benchmarks)",
    )


def _add_cfg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=int, default=7, help="trace length (timesteps)")
    p.add_argument("--util", type=Fraction, default=Fraction(1, 2), help="utilization threshold")
    p.add_argument("--delay", type=Fraction, default=Fraction(4), help="delay threshold (RTTs)")


def _add_synthesize_args(p: argparse.ArgumentParser) -> None:
    """The synthesize job surface — shared verbatim by ``synthesize``
    (local) and ``submit synthesize`` (remote), so both build the exact
    same :class:`~repro.service.jobs.JobSpec`."""
    p.add_argument("--space", choices=list(table1_spaces()), default="no_cwnd_small")
    p.add_argument("--pruning", choices=["exact", "range"], default="range")
    p.add_argument("--wce", action="store_true", help="worst-case counterexamples")
    p.add_argument("--generator", choices=["smt", "enum"], default="enum")
    p.add_argument("--all", action="store_true", help="enumerate all solutions")
    p.add_argument("--max-iterations", type=_positive_int, default=100000)
    p.add_argument("--time-budget", type=_positive_float, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_cfg_args(p)
    _add_env_arg(p)
    _add_runtime_args(p)


def _add_verify_args(p: argparse.ArgumentParser) -> None:
    """The verify job surface — shared by ``verify`` and
    ``submit verify``."""
    p.add_argument("cca", help="rocc | eq3 | const:<gamma>")
    p.add_argument("--wce", action="store_true")
    p.add_argument("--certify", action="store_true",
                   help="independently check an UNSAT proof of the verdict")
    p.add_argument("--falsify", type=_positive_int, default=0,
                   metavar="BUDGET",
                   help="after a VERIFIED verdict, hunt it with a genetic "
                        "trace search of BUDGET evaluations; an "
                        "in-fragment violation is a soundness error")
    p.add_argument("--falsify-seed", type=int, default=0, metavar="SEED")
    _add_cfg_args(p)
    _add_env_arg(p)
    _add_pipeline_arg(p)


def _add_falsify_job_args(p: argparse.ArgumentParser) -> None:
    """The falsify *job* surface (one CCA, no repo-local corpus/grid
    flags) — ``submit falsify``'s arguments."""
    p.add_argument("cca",
                   help="CCA to attack: rocc | eq3 | const:<cwnd> | "
                        "aimd[:<delay-thresh>] | cubic[:<delay-thresh>] | "
                        "vegas | copa | rocc-native")
    p.add_argument("--seed", type=int, default=0,
                   help="search seed; identical seeds replay bit-for-bit")
    p.add_argument("--budget", type=_positive_int, default=600,
                   metavar="EVALS",
                   help="trace evaluations to spend (default: %(default)s)")
    p.add_argument("--population", type=_positive_int, default=16,
                   help="genetic population size (default: %(default)s)")
    p.add_argument("--ticks", type=_positive_int, default=120,
                   help="target schedule length in RTTs (default: %(default)s)")
    p.add_argument("--beyond", action="store_true",
                   help="search beyond the SMT model fragment")
    p.add_argument("--exhaustive", action="store_true",
                   help="spend the whole budget instead of stopping at the "
                        "first violation")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the SMT verdict lookup before the hunt")
    _add_cfg_args(p)


def _add_service_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("control plane")
    g.add_argument("--host", default="127.0.0.1",
                   help="control plane host (default: %(default)s)")
    g.add_argument("--port", type=int, default=8736,
                   help="control plane port (default: %(default)s)")


def _cfg(args) -> ModelConfig:
    return ModelConfig(T=args.T, util_thresh=args.util, delay_thresh=args.delay)


def _runtime_options(args):
    from .runtime import RuntimeOptions

    return RuntimeOptions(
        checkpoint_path=getattr(args, "checkpoint", None),
        isolate=getattr(args, "isolate", False),
        solver_timeout=getattr(args, "solver_timeout", 60.0),
        solver_mem_mb=getattr(args, "solver_mem_mb", None),
        cross_check=getattr(args, "cross_check", False),
        cache_dir=getattr(args, "cache_dir", None),
        certify=getattr(args, "certify", False),
        falsify=getattr(args, "falsify", 0),
        falsify_seed=getattr(args, "falsify_seed", 0),
    )


def _print_synthesis_result(result, cfg) -> int:
    reason = result.stop_reason.value if result.stop_reason else "?"
    print(
        f"iterations={result.iterations} counterexamples={result.counterexamples} "
        f"wall={result.wall_time:.1f}s exhausted={result.exhausted} "
        f"stop={reason}{' (resumed)' if result.resumed else ''}"
    )
    if result.degradations:
        kinds = ", ".join(sorted({d.get("kind", "?") for d in result.degradations}))
        print(f"degraded: {len(result.degradations)} event(s) [{kinds}]")
    if result.certified_verdicts:
        print(f"certified: {result.certified_verdicts} verified verdict(s) "
              f"carry independently checked UNSAT proofs")
    if not result.solutions:
        print("no solution found")
        # None = cross-checking never requested; [] = requested but the
        # run had no solutions to check — say so rather than staying mute
        if result.cross_checks == []:
            print("cross-check: requested but no solutions to check")
        return 1
    for cand in result.solutions:
        report = classify(cand, cfg)
        tag = "RoCC-family" if report.rocc_family else "other"
        print(f"  {report.rule}   [{tag}, {report.history_used} RTTs of history]")
    for check in result.cross_checks or ():
        print(f"  {check.describe()}")
    if result.falsification_attempts:
        print(
            f"falsified: {result.falsification_survivals}/"
            f"{len(result.solutions)} solution(s) survived "
            f"{result.falsification_attempts} adversarial trace "
            f"evaluation(s)"
        )
    return 0


def _synthesis_query(args) -> SynthesisQuery:
    spaces = table1_spaces()
    spec = spaces[args.space]
    return SynthesisQuery(
        spec=spec,
        cfg=_cfg(args),
        pruning=PruningMode.EXACT if args.pruning == "exact" else PruningMode.RANGE,
        worst_case_cex=args.wce,
        generator=args.generator,
        find_all=args.all,
        max_iterations=args.max_iterations,
        time_budget=args.time_budget,
        verbose=args.verbose,
        jobs=args.jobs or 1,
        environments=getattr(args, "environments", None),
    )


def cmd_synthesize(args) -> int:
    from .service.jobs import (
        decode_synthesis_result,
        execute_job,
        synthesis_spec,
    )

    query = _synthesis_query(args)
    spec = synthesis_spec(query, _runtime_options(args))
    payload = execute_job(
        spec, checkpoint_path=getattr(args, "checkpoint", None)
    )
    return _print_synthesis_result(decode_synthesis_result(payload), query.cfg)


def cmd_resume(args) -> int:
    import os

    from .runtime import CheckpointError, resume_synthesis

    try:
        result = resume_synthesis(
            args.checkpoint_file,
            _runtime_options(args),
            time_budget=args.time_budget,
            max_iterations=args.max_iterations,
            jobs=args.jobs,
            from_backup=args.from_backup,
        )
    except CheckpointError as exc:
        msg = f"cannot resume: {exc}"
        if not args.from_backup and os.path.exists(args.checkpoint_file + ".bak"):
            msg += "\na backup checkpoint exists; retry with --from-backup"
        raise SystemExit(msg)
    return _print_synthesis_result(result, result.query.cfg)


def _describe_certificate(summary: dict) -> str:
    """Renders a verify payload's certificate summary."""
    return (
        f"proof checked: {summary['steps']} steps "
        f"({summary['inputs']} inputs, "
        f"{summary['rup_additions']} RUP additions, "
        f"{summary['theory_lemmas']} Farkas lemmas) "
        f"in {summary['check_time']:.2f}s"
    )


def _render_verify_payload(payload: dict, certify: bool = False) -> int:
    """Print a verify job's result payload; local and remote runs share
    this renderer (and therefore the exact same output and exit codes)."""
    print(payload["pretty"])
    if payload["verified"]:
        print(f"VERIFIED in {payload['wall_time']:.2f}s "
              f"(no admissible trace violates the property)")
        if payload.get("certified") and payload.get("certificate"):
            print(_describe_certificate(payload["certificate"]))
        elif certify:
            print("NOT CERTIFIED (verdict inconclusive in proof mode)")
            return 2
        if payload.get("falsify"):
            print(f"falsify: {payload['falsify']}")
        return 0
    env = payload.get("environment")
    where = f" [environment: {env}]" if env else ""
    print(f"COUNTEREXAMPLE in {payload['wall_time']:.2f}s{where}:")
    print(payload["counterexample_text"])
    return 1


def cmd_verify(args) -> int:
    from .service.jobs import JobSpecError, execute_job, verify_spec

    certify = getattr(args, "certify", False)
    spec = verify_spec(
        args.cca,
        _cfg(args),
        worst_case=args.wce,
        certify=certify,
        falsify=getattr(args, "falsify", 0),
        falsify_seed=getattr(args, "falsify_seed", 0),
        environments=getattr(args, "environments", None),
    )
    try:
        payload = execute_job(spec)
    except JobSpecError as exc:
        raise SystemExit(str(exc))
    return _render_verify_payload(payload, certify=certify)


def cmd_certify(args) -> int:
    """The standard certification workload: verify named CCAs with proof
    production on; every UNSAT verdict must survive the independent
    checker.  Exit 0 only when each CCA reached a conclusive verdict and
    every verified one carries a checked certificate."""
    from .service.jobs import JobSpecError, execute_job, verify_spec

    failures = 0
    for name in args.ccas:
        spec = verify_spec(name, _cfg(args), worst_case=args.wce, certify=True)
        try:
            payload = execute_job(spec)
        except JobSpecError as exc:
            raise SystemExit(str(exc))
        wall = payload["wall_time"]
        print(f"{name}: {payload['pretty']}")
        if payload["verified"]:
            if payload["certified"]:
                print(f"  CERTIFIED in {wall:.2f}s; "
                      f"{_describe_certificate(payload['certificate'])}")
            else:
                print(f"  VERIFIED but NOT CERTIFIED in {wall:.2f}s")
                failures += 1
        elif payload["counterexample"] is not None:
            print(f"  COUNTEREXAMPLE in {wall:.2f}s "
                  f"(nothing to certify; trace independently validated)")
        else:
            print(f"  UNKNOWN in {wall:.2f}s")
            failures += 1
    return 0 if failures == 0 else 1


def _render_falsify_payload(payload: dict) -> int:
    """Print a falsify job's result payload (shared local/remote);
    returns 0 when the CCA survived, 1 when it was falsified."""
    name = payload["cca"]
    verdict = payload.get("smt_verdict")
    if verdict == "verified":
        print(f"{name}: SMT-verified — an in-fragment violation "
              f"now counts as a soundness error")
    elif verdict == "counterexample":
        print(f"{name}: SMT found a counterexample; falsification "
              f"is corroboration, not contradiction")
    elif verdict == "unknown":
        print(f"{name}: SMT verdict unknown")
    print(payload["description"])
    return 0 if payload["survived"] else 1


def cmd_falsify(args) -> int:
    """Adversarial falsification: hunt a CCA's property with a seeded
    genetic trace search (and optionally a cross-validation grid).

    Exit 0 when every CCA survived its budget, 1 when any was falsified.
    A sim-vs-SMT disagreement (in-fragment violation of a verified CCA)
    raises :class:`~repro.runtime.errors.SoundnessError` after dumping
    flight state and committing the minimized corpus case.
    """
    from .falsify import GridSpec, run_grid
    from .service.jobs import execute_job, falsify_spec

    cfg = _cfg(args)
    falsified = 0
    for spec in args.ccas:
        job = falsify_spec(
            spec,
            cfg,
            budget=args.budget,
            seed=args.seed,
            ticks=args.ticks,
            population=args.population,
            beyond=args.beyond,
            exhaustive=args.exhaustive,
            no_verify=args.no_verify,
        )
        try:
            payload = execute_job(
                job,
                corpus_dir=args.corpus_dir,
                write_corpus=not args.no_corpus,
            )
        except ValueError as exc:
            # unknown CCA spec (resolve_cca) or a malformed job
            raise SystemExit(str(exc))
        if _render_falsify_payload(payload):
            falsified += 1
        if args.grid:
            manifest_path = None
            if args.manifest:
                manifest_path = args.manifest
                if len(args.ccas) > 1:
                    import os
                    import re

                    root, ext = os.path.splitext(args.manifest)
                    slug = re.sub(r"[^a-z0-9]+", "-", spec.lower()).strip("-")
                    manifest_path = f"{root}-{slug}{ext or '.json'}"
            buffers = ()
            if args.grid_buffers:
                from fractions import Fraction

                try:
                    buffers = tuple(
                        Fraction(b) for b in args.grid_buffers.split(",")
                    )
                except (ValueError, ZeroDivisionError):
                    raise SystemExit(
                        f"--grid-buffers: cannot parse {args.grid_buffers!r}"
                    )
            manifest = run_grid(
                spec, cfg,
                GridSpec.from_model(cfg, ticks=args.ticks, buffers=buffers),
                jobs=args.grid_jobs, manifest_path=manifest_path,
            )
            print(f"{spec} grid: {manifest.describe()}"
                  + (f" -> {manifest_path}" if manifest_path else ""))
    return 1 if falsified else 0


def cmd_serve(args) -> int:
    """Run the control plane until shutdown (POST /shutdown or Ctrl-C)."""
    from .service import ServiceConfig, run_server

    run_server(ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        pool_size=args.pool_size,
        memory_mb=args.solver_mem_mb,
        max_cache_mb=args.max_cache_mb,
        max_tasks_per_worker=args.max_tasks_per_worker,
        executors=args.executors,
        max_queue=args.max_queue,
        drain_grace=args.drain_grace,
        probe_timeout=args.probe_timeout,
        prime_timeout=args.prime_timeout,
    ))
    return 0


def _service_client(args, stream: bool = False):
    from .service import ServiceClient

    # watch/stream paths block on a quiet NDJSON socket between events,
    # so they must not carry the short control-call timeout
    return ServiceClient(
        args.host, args.port, timeout=None if stream else 30.0
    )


def _spec_from_args(args):
    """The submit half of the shared job API: build exactly the spec the
    local command would execute."""
    from .service.jobs import falsify_spec, synthesis_spec, verify_spec

    kind = args.job_kind
    limits = {
        "max_attempts": getattr(args, "max_attempts", None),
        "deadline_s": getattr(args, "deadline_s", None),
    }
    if kind == "synthesize":
        return synthesis_spec(
            _synthesis_query(args), _runtime_options(args), **limits
        )
    if kind == "verify":
        return verify_spec(
            args.cca,
            _cfg(args),
            worst_case=args.wce,
            certify=args.certify,
            falsify=args.falsify,
            falsify_seed=args.falsify_seed,
            environments=getattr(args, "environments", None),
            **limits,
        )
    return falsify_spec(
        args.cca,
        _cfg(args),
        budget=args.budget,
        seed=args.seed,
        ticks=args.ticks,
        population=args.population,
        beyond=args.beyond,
        exhaustive=args.exhaustive,
        no_verify=args.no_verify,
        **limits,
    )


def _render_stream_record(record: dict) -> None:
    """One line per NDJSON progress record (``status --watch``)."""
    rtype = record.get("type")
    if rtype == "job":
        line = f"[job] state={record.get('state')}"
        if record.get("error"):
            line += f"  error={record['error']}"
        print(line, flush=True)
    elif rtype == "event":
        msg = record.get("msg") or record.get("name", "?")
        print(f"  {msg}", flush=True)
    elif rtype == "span":
        print(f"  {record.get('name')} {float(record.get('dur') or 0):.3f}s",
              flush=True)
    # metrics/meta records are noise in a live stream


_TERMINAL_STATES = ("done", "failed", "cancelled")


def _watch_job(client, job_id: str) -> None:
    for record in client.events(job_id):
        _render_stream_record(record)
        if record.get("type") == "job" and \
                record.get("state") in _TERMINAL_STATES:
            return


def _render_result(client, job_id: str) -> int:
    """Fetch a finished job and render it with the *local* printers —
    ``ccmatic result`` and the local command produce identical output
    and exit codes for the same spec."""
    from .service import ServiceError
    from .service.jobs import JobSpecError, decode_synthesis_result

    try:
        record = client.status(job_id)
        payload = client.result(job_id)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot reach {client.host}:{client.port}: {exc}")
    kind = record.get("kind")
    if kind == "synthesize":
        try:
            result = decode_synthesis_result(payload)
        except JobSpecError as exc:
            raise SystemExit(str(exc))
        return _print_synthesis_result(result, result.query.cfg)
    if kind == "verify":
        certify = bool(
            record.get("spec", {}).get("params", {}).get("certify")
        )
        return _render_verify_payload(payload, certify=certify)
    return _render_falsify_payload(payload)


def cmd_submit(args) -> int:
    from .service import ServiceError

    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        raise SystemExit(str(exc))
    client = _service_client(args)
    try:
        accepted = client.submit(spec)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(
            f"cannot reach a control plane at {args.host}:{args.port} "
            f"({exc}); start one with `ccmatic serve`"
        )
    job_id = accepted["job_id"]
    print(f"submitted {job_id} ({spec.kind}) "
          f"spec={accepted.get('spec_fingerprint', '?')[:16]}")
    if not args.watch:
        print(f"follow with: ccmatic status {job_id} --watch; "
              f"fetch with: ccmatic result {job_id}")
        return 0
    watcher = _service_client(args, stream=True)
    _watch_job(watcher, job_id)
    return _render_result(client, job_id)


def cmd_status(args) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        if args.job_id is None:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return 0
            for record in sorted(
                jobs, key=lambda r: r.get("submitted_at") or 0
            ):
                print(f"{record['job_id']}  {record['kind']:10s} "
                      f"{record['state']}")
            return 0
        record = client.status(args.job_id)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
    print(f"{record['job_id']}  {record['kind']}  state={record['state']}  "
          f"spec={record.get('spec_fingerprint', '?')[:16]}")
    if record.get("error"):
        print(f"  error: {record['error']}")
    if args.watch and record["state"] not in _TERMINAL_STATES:
        watcher = _service_client(args, stream=True)
        _watch_job(watcher, args.job_id)
        record = client.status(args.job_id)
        print(f"[job] final state={record['state']}")
    return 1 if record["state"] == "failed" else 0


def cmd_result(args) -> int:
    return _render_result(_service_client(args), args.job_id)


def cmd_sweep(args) -> int:
    from .core import enumerate_all

    spec = table1_spaces()[args.space]
    values = [Fraction(v) for v in args.values.split(",")]
    for v in values:
        if args.kind == "util":
            cfg = ModelConfig(T=args.T, util_thresh=v)
        else:
            cfg = ModelConfig(T=args.T, delay_thresh=v)
        query = SynthesisQuery(
            spec=spec, cfg=cfg, generator="enum", find_all=True,
            time_budget=args.time_budget,
        )
        result = enumerate_all(query)
        print(f"{args.kind}={v}: {len(result.solutions)} solutions"
              f"{' (budget hit)' if result.timed_out else ''}")
    return 0


def cmd_simulate(args) -> int:
    from .ccas import AIMD, ConstantCwnd, CubicLike, RoCC, TemplateCCA
    from .sim import run_simulation

    ccas = {
        "rocc": RoCC(),
        "aimd": AIMD(),
        "cubic": CubicLike(),
        "const1": ConstantCwnd(Fraction(1)),
    }
    for name, cca in ccas.items():
        for policy in ("ideal", "lazy", "max_waste"):
            r = run_simulation(cca, ticks=args.ticks, policy=policy)
            print(
                f"{name:8s} {policy:10s} util={float(r.utilization(10)):.3f} "
                f"max_queue={float(r.max_queue(10)):.2f}"
            )
    return 0


def cmd_assumption(args) -> int:
    from .service.jobs import JobSpecError, _named_cca

    try:
        cand = _named_cca(args.cca)
    except JobSpecError as exc:
        raise SystemExit(str(exc))
    cfg = _cfg(args)
    result = weakest_sufficient_assumption(cand, cfg, total_waste_budget(cfg))
    print(f"{cand.pretty()}")
    if not result.found:
        print("no sufficient assumption in the family")
        return 1
    print(f"weakest sufficient assumption ({result.probes} probes, "
          f"{result.wall_time:.1f}s):")
    print(f"  {result.assumption}")
    return 0


def cmd_report(args) -> int:
    try:
        print(render_trace_report(args.trace_file))
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.trace_file!r}: {exc}")
    cache_dir = getattr(args, "report_cache_dir", None)
    if cache_dir:
        from .obs.report import render_cache_stats

        print()
        print(render_cache_stats(cache_dir))
    perfetto = getattr(args, "perfetto", None)
    if perfetto:
        from .obs.export import export_perfetto

        try:
            info = export_perfetto(args.trace_file, perfetto)
        except OSError as exc:
            raise SystemExit(f"cannot write perfetto export: {exc}")
        print(
            f"\nperfetto export: {perfetto} ({info['spans']} spans, "
            f"{info['lanes']} lanes; open at https://ui.perfetto.dev)"
        )
    return 0


def cmd_bench_diff(args) -> int:
    """Diff a fresh engine_bench report against the committed trajectory."""
    import json

    from .obs.trajectory import latest_comparable, load_history, regressions

    try:
        with open(args.current, "r", encoding="utf-8") as f:
            report = json.load(f)
    except ValueError as exc:
        raise SystemExit(f"cannot parse bench report {args.current!r}: {exc}")
    try:
        trajectory = load_history(args.baseline)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load baseline {args.baseline!r}: {exc}")
    baseline = latest_comparable(trajectory, report.get("quick"))
    if baseline is None:
        print(f"no baseline history in {args.baseline}; nothing to diff")
        return 0
    failures, rows = regressions(report, baseline, args.max_regress)
    print(
        f"bench-diff: {args.current} vs {args.baseline} "
        f"(baseline sha {baseline.get('git_sha', '?')}, "
        f"gate {args.max_regress:.0f}%)"
    )
    for row in rows:
        if row["kind"] == "timing":
            print(
                f"  {row['metric']:28s} {row['baseline']:9.3f}s -> "
                f"{row['current']:9.3f}s  {row['delta_pct']:+7.1f}%"
            )
        else:
            base = f"{row['baseline']:.2f}x" if row["baseline"] else "?"
            print(
                f"  {row['metric']:28s} {base:>10s} -> "
                f"{row['current']:9.2f}x"
            )
    if failures:
        names = ", ".join(f["metric"] for f in failures)
        print(f"REGRESSION: {len(failures)} gate(s) breached [{names}]")
        return 1
    print("ok: within the regression gate")
    return 0


def _obs_parent() -> argparse.ArgumentParser:
    """Global observability flags, shared by the root parser and every
    subcommand so they work in either position (``ccmatic --trace f sub``
    and ``ccmatic sub --trace f``).  SUPPRESS defaults keep the
    subparser from clobbering a value parsed at the root."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("observability")
    g.add_argument(
        "--trace", metavar="PATH", default=argparse.SUPPRESS,
        help="write a JSONL trace of the run to PATH",
    )
    g.add_argument(
        "--log-level", choices=["quiet", "info", "debug"],
        default=argparse.SUPPRESS,
        help="live console event rendering (default: quiet)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    obs = _obs_parent()
    parser = argparse.ArgumentParser(
        prog="ccmatic", description=__doc__, parents=[obs]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="run CEGIS synthesis", parents=[obs])
    _add_synthesize_args(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="verify a named CCA", parents=[obs])
    _add_verify_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "falsify",
        help="adversarial falsification: genetic trace search + grids",
        parents=[obs],
    )
    p.add_argument("ccas", nargs="+",
                   help="CCAs to attack: rocc | eq3 | const:<cwnd> | "
                        "aimd[:<delay-thresh>] | cubic[:<delay-thresh>] | "
                        "vegas | copa | rocc-native (aimd:8 is the "
                        "deliberately weakened demo)")
    p.add_argument("--seed", type=int, default=0,
                   help="search seed; identical seeds replay bit-for-bit")
    p.add_argument("--budget", type=_positive_int, default=600,
                   metavar="EVALS",
                   help="trace evaluations to spend (default: %(default)s)")
    p.add_argument("--population", type=_positive_int, default=16,
                   help="genetic population size (default: %(default)s)")
    p.add_argument("--ticks", type=_positive_int, default=120,
                   help="target schedule length in RTTs (default: %(default)s)")
    p.add_argument("--beyond", action="store_true",
                   help="search beyond the SMT model fragment (rate steps, "
                        "outages, jitter bursts); violations are model-gap "
                        "findings, never soundness errors")
    p.add_argument("--exhaustive", action="store_true",
                   help="spend the whole budget instead of stopping at the "
                        "first violation")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the SMT verdict lookup before the hunt")
    p.add_argument("--no-corpus", action="store_true",
                   help="do not write minimized violations into the corpus")
    p.add_argument("--corpus-dir", metavar="PATH", default=None,
                   help="corpus directory (default: tests/corpus/cases)")
    p.add_argument("--grid", action="store_true",
                   help="additionally sweep a link-condition grid across "
                        "worker processes")
    p.add_argument("--grid-jobs", type=_positive_int, default=2, metavar="N",
                   help="grid worker processes (default: %(default)s)")
    p.add_argument("--grid-buffers", metavar="B1,B2,...", default=None,
                   help="also sweep lossy drop-tail cells at these buffer "
                        "sizes (fractions, e.g. 2,8); lossless cells always "
                        "run")
    p.add_argument("--manifest", metavar="PATH", default=None,
                   help="write the grid's experiment manifest JSON to PATH")
    _add_cfg_args(p)
    _add_pipeline_arg(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser(
        "certify",
        help="verify named CCAs with independently checked UNSAT proofs",
        parents=[obs],
    )
    p.add_argument("ccas", nargs="*", default=["rocc", "eq3"],
                   help="CCAs to certify (default: rocc eq3); "
                        "rocc | eq3 | const:<gamma>")
    p.add_argument("--wce", action="store_true",
                   help="certify under worst-case counterexample search")
    _add_cfg_args(p)
    _add_pipeline_arg(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="solution counts vs thresholds", parents=[obs])
    p.add_argument("kind", choices=["util", "delay"])
    p.add_argument("--values", default="1/2,13/20,7/10")
    p.add_argument("--space", choices=list(table1_spaces()), default="no_cwnd_small")
    p.add_argument("--T", type=int, default=7)
    p.add_argument("--time-budget", type=float, default=None)
    _add_pipeline_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run CCAs on the simulator", parents=[obs])
    p.add_argument("--ticks", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assumption", help="weakest sufficient assumption", parents=[obs])
    p.add_argument("cca", help="rocc | eq3 | const:<gamma>")
    _add_cfg_args(p)
    _add_pipeline_arg(p)
    p.set_defaults(func=cmd_assumption)

    p = sub.add_parser("report", help="per-phase breakdown of a JSONL trace")
    p.add_argument("trace_file", type=_readable_file,
                   help="trace captured with --trace (or a flight-recorder "
                        "dump)")
    p.add_argument("--perfetto", metavar="PATH", default=None,
                   help="additionally export a Chrome/Perfetto trace_event "
                        "JSON with one lane per worker")
    p.add_argument("--cache-dir", dest="report_cache_dir", metavar="PATH",
                   default=None,
                   help="also show the persisted counters of a shared "
                        "query-cache directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench-diff",
        help="gate an engine_bench report against the committed trajectory",
    )
    p.add_argument("current", type=_readable_file,
                   help="fresh engine_bench report JSON")
    p.add_argument("--baseline", default="BENCH_engine.json", metavar="PATH",
                   help="committed trajectory to diff against "
                        "(default: %(default)s)")
    p.add_argument("--max-regress", type=_positive_float, default=25.0,
                   metavar="PCT",
                   help="fail when a tracked timing regresses more than "
                        "PCT%% (default: %(default)s)")
    p.set_defaults(func=cmd_bench_diff)

    p = sub.add_parser(
        "resume", help="continue a checkpointed synthesis run", parents=[obs]
    )
    p.add_argument("checkpoint_file", type=_readable_file,
                   help="checkpoint written by `synthesize --checkpoint`")
    p.add_argument("--max-iterations", type=_positive_int, default=None,
                   help="override the stored iteration cap")
    p.add_argument("--time-budget", type=_positive_float, default=None,
                   help="fresh time budget for the resumed run")
    p.add_argument("--from-backup", action="store_true",
                   help="recover from a corrupt checkpoint: set it aside "
                        "and resume from the kept previous generation "
                        "(<file>.bak)")
    _add_runtime_args(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "serve",
        help="run the synthesis-as-a-service control plane",
        parents=[obs],
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=8736,
                   help="bind port; 0 picks an ephemeral port "
                        "(default: %(default)s)")
    p.add_argument("--state-dir", default=".ccmatic-service", metavar="DIR",
                   help="durable state root: job records, the shared "
                        "query cache, checkpoints (default: %(default)s)")
    p.add_argument("--pool-size", type=_positive_int, default=2, metavar="N",
                   help="persistent pooled workers (default: %(default)s)")
    p.add_argument("--solver-mem-mb", type=_positive_int, default=None,
                   metavar="MIB", help="per-worker memory cap")
    p.add_argument("--max-cache-mb", type=_positive_float, default=None,
                   metavar="MIB",
                   help="LRU-evict the shared query cache beyond this size")
    p.add_argument("--max-tasks-per-worker", type=_positive_int, default=64,
                   metavar="N",
                   help="recycle a pooled worker after N tasks "
                        "(default: %(default)s)")
    p.add_argument("--executors", type=_positive_int, default=2, metavar="N",
                   help="concurrent job executors over the shared pool "
                        "(default: %(default)s)")
    p.add_argument("--max-queue", type=_positive_int, default=64, metavar="N",
                   help="shed submits (429 + Retry-After) beyond this many "
                        "queued jobs (default: %(default)s)")
    p.add_argument("--drain-grace", type=_positive_float, default=30.0,
                   metavar="SECONDS",
                   help="on shutdown, let in-flight jobs finish this long "
                        "before re-queueing them (default: %(default)s)")
    p.add_argument("--probe-timeout", type=_positive_float, default=1.0,
                   metavar="SECONDS",
                   help="idle-worker heartbeat timeout; raise on slow CI "
                        "machines (default: %(default)s)")
    p.add_argument("--prime-timeout", type=_positive_float, default=60.0,
                   metavar="SECONDS",
                   help="worker warm-up call timeout (default: %(default)s)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running control plane",
        parents=[obs],
    )
    submit_sub = p.add_subparsers(dest="job_kind", required=True)
    for kind, add_args in (
        ("synthesize", _add_synthesize_args),
        ("verify", _add_verify_args),
        ("falsify", _add_falsify_job_args),
    ):
        ps = submit_sub.add_parser(
            kind, help=f"submit a {kind} job", parents=[obs]
        )
        add_args(ps)
        _add_service_args(ps)
        ps.add_argument("--watch", action="store_true",
                        help="stream progress and render the result "
                             "(exit code matches the local command)")
        ps.add_argument("--max-attempts", type=_positive_int, default=None,
                        metavar="N",
                        help="execution attempts before the server marks "
                             "the job failed (default: server policy)")
        ps.add_argument("--deadline-s", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="per-attempt wall-clock bound enforced by the "
                             "server watchdog (default: unbounded)")
        ps.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="job lifecycle on a control plane", parents=[obs]
    )
    p.add_argument("job_id", nargs="?", default=None,
                   help="job to inspect (omit to list every job)")
    p.add_argument("--watch", action="store_true",
                   help="stream NDJSON progress until the job finishes")
    _add_service_args(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "result",
        help="fetch a finished job and render it like the local command",
        parents=[obs],
    )
    p.add_argument("job_id", help="a job in state done")
    _add_service_args(p)
    p.set_defaults(func=cmd_result)

    return parser


def _configure_observability(args, argv) -> list:
    """Attach the sinks requested by the global flags; returns them for
    teardown.  Also stamps the trace with run metadata."""
    tr = tracer()
    sinks = []
    trace_path = getattr(args, "trace", None)
    log_level = getattr(args, "log_level", "quiet")
    if trace_path:
        try:
            sinks.append(tr.add_sink(JsonlSink(trace_path)))
        except OSError as exc:
            print(f"cannot open trace file '{trace_path}': {exc}",
                  file=sys.stderr)
            raise SystemExit(1)
    if log_level != "quiet":
        level = INFO if log_level == "info" else DEBUG
        sinks.append(tr.add_sink(ConsoleSink(level=level)))
    if sinks:
        tr.meta(argv=list(argv) if argv is not None else sys.argv[1:],
                version=__version__)
    return sinks


def _configure_flight_recorder(args) -> None:
    """Arm the always-on flight recorder; dumps land next to the
    checkpoint when the run has one, else in the working directory."""
    import os

    from .obs import ensure_flight_recorder, set_dump_dir

    checkpoint = getattr(args, "checkpoint", None) or getattr(
        args, "checkpoint_file", None
    )
    dump_dir = os.path.dirname(os.path.abspath(checkpoint)) if checkpoint else "."
    set_dump_dir(dump_dir)
    ensure_flight_recorder()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "no_compile_pipeline", False):
        # set both the process override and the environment flag, so
        # forked/spawned portfolio workers inherit the escape hatch
        import os

        from .smt.compile import ENV_FLAG, set_pipeline_enabled

        os.environ[ENV_FLAG] = "1"
        set_pipeline_enabled(False)
    tr = tracer()
    _configure_flight_recorder(args)
    sinks = _configure_observability(args, argv)
    try:
        return args.func(args)
    except (SystemExit, KeyboardInterrupt, BrokenPipeError):
        # intentional exits are not crashes; a broken pipe just means
        # the consumer (e.g. `| head`) went away
        raise
    except BaseException:
        # the black box: an unhandled crash (including a SoundnessError
        # that escaped the runtime) dumps the last trace records before
        # the traceback reaches the user
        from .obs import dump_flight

        path = dump_flight("crash")
        if path:
            print(f"flight recorder dumped to {path}", file=sys.stderr)
        raise
    finally:
        if sinks:
            tr.emit_metrics(metrics().snapshot())
        for sink in sinks:
            tr.remove_sink(sink)
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
