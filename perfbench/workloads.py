"""The benchmark's workloads: ``serial`` and ``service``.

Both synthesize over space ``no_cwnd_small`` at ``ModelConfig(T=5)``
with the enumerative generator, range pruning, no worst-case
counterexamples, and ``RuntimeOptions(degrade=False, certify=True)``.

* ``serial`` — one local ``run_synthesis`` with ``jobs=1`` that stops at
  the first solution.  Deterministic: the ROADMAP's canonical run.
* ``service`` — in-process ``JobServer``s at their defaults, each on a
  fresh state dir, serving two phases one after the other (interleaving
  them makes the synthesize job's time swing).  Phase A submits the
  *exhaust query* — ``jobs=2``, ``find_all=True`` — as one synthesize
  job: portfolio rounds on the pooled workers with warm incremental
  sessions.  Exhausting the space keeps the job steadier than a
  first-solution run, but the first-conclusive-wins race still differs
  between runs, so phase A runs ``SYNTH_REPS`` times, each on its own
  server.  Phase B, on one more server, is a closed loop of two client
  threads over the seeded verify-job stream of :mod:`stream`.

A workload returns a dict of measurements (see ``run_*``); every answer
it gets is compared with the known answers in ``answers.json``, and
each mismatch is recorded in ``errors`` as a failed operation.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from statistics import median

from layers import tail
from stream import make_stream, verified_pairs, verify_job_spec

SPACE = "no_cwnd_small"
HORIZON = 5
EXHAUST_JOBS = 2
CLIENT_THREADS = 2
#: phase A jobs per ``service`` run: one job's iteration count varies
#: with its portfolio race (44-70 seen), so a run reports the median
SYNTH_REPS = 2
#: per-request and per-job client timeouts, seconds
CLIENT_TIMEOUT = 120.0
JOB_TIMEOUT = 170.0

#: modules each workload imports (timed in fresh interpreters as setup)
IMPORTS = {
    "serial": ("repro.runtime", "repro.core", "repro.cegis"),
    "service": ("repro.runtime", "repro.core", "repro.cegis", "repro.service"),
}

#: the most workers, executors or client threads a workload runs at once
CONCURRENCY = {"serial": 1, "service": max(EXHAUST_JOBS, CLIENT_THREADS)}


def synthesis_query(jobs: int, find_all: bool):
    from repro.ccac import ModelConfig
    from repro.cegis import PruningMode
    from repro.core import SynthesisQuery, table1_spaces

    return SynthesisQuery(
        spec=table1_spaces()[SPACE],
        cfg=ModelConfig(T=HORIZON),
        pruning=PruningMode.RANGE,
        worst_case_cex=False,
        generator="enum",
        find_all=find_all,
        jobs=jobs,
    )


def runtime_options():
    from repro.runtime import RuntimeOptions

    return RuntimeOptions(degrade=False, certify=True)


# -- known answers -------------------------------------------------------------

def _canonical(solutions) -> list[tuple]:
    """Solutions as sorted tuples of exact fractions (accepts ints,
    fraction strings, or :class:`Fraction` values)."""
    return sorted(
        (
            tuple(Fraction(a) for a in s["alphas"]),
            tuple(Fraction(b) for b in s["betas"]),
            Fraction(s["gamma"]),
        )
        for s in solutions
    )


def check_synthesis(expected: dict, got: dict) -> list[str]:
    """Mismatches between a synthesis outcome ``got`` (``stop_reason``,
    ``iterations``, ``certified_verdicts``, ``solutions`` as dicts) and
    its known answer; keys absent from ``expected`` are not checked."""
    errors = []
    for key in ("stop_reason", "iterations", "certified_verdicts"):
        if key in expected and got.get(key) != expected[key]:
            errors.append(f"{key}: expected {expected[key]}, got {got.get(key)}")
    if _canonical(got.get("solutions", ())) != _canonical(expected["solutions"]):
        errors.append(f"solutions: expected {expected['solutions']}, "
                      f"got {got.get('solutions')}")
    return errors


def _outcome(result) -> dict:
    from repro.runtime.serialize import encode_candidate

    return {
        "stop_reason": result.stop_reason.value if result.stop_reason else None,
        "iterations": result.iterations,
        "certified_verdicts": result.certified_verdicts,
        "solutions": [encode_candidate(c) for c in result.solutions],
    }


# -- local workloads -----------------------------------------------------------

def run_serial(answers: dict) -> dict:
    """``serial``: one local synthesis — the workload's one job — timed
    by its caller."""
    from repro.runtime import run_synthesis

    t0 = time.perf_counter()
    result = run_synthesis(synthesis_query(1, find_all=False), runtime_options())
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "synth_job_s": wall,
        "jobs_per_s": 1 / wall,
        "job_p50_s": wall,
        "job_tail_s": wall,
        "job_tail_pct": 100,
        "job_samples": 1,
        "iterations": [result.iterations],
        "counterexamples": result.counterexamples,
        "verify_s": result.verifier_time,
        "generate_s": result.generator_time,
        "boots": [],
        "attempted": 1,
        "errors": check_synthesis(answers["serial"], _outcome(result)),
    }


# -- the service workload ------------------------------------------------------

class Service:
    """A :class:`repro.service.JobServer` on an ephemeral port, serving
    from a background thread of this process."""

    def __init__(self, state_dir: str):
        from repro.service import JobServer, ServiceConfig

        self.server = JobServer(ServiceConfig(port=0, state_dir=state_dir))
        self.boot_s = 0.0
        self.client = None
        self._thread = None

    def start(self) -> "Service":
        """Boot the server, pool spawn and prime included; ``boot_s``
        is that time."""
        from repro.service import ServiceClient

        started = threading.Event()
        failure: list[BaseException] = []

        def _serve():
            async def _main():
                t0 = time.perf_counter()
                try:
                    await self.server.start()
                except BaseException as exc:  # reported by start()
                    failure.append(exc)
                    started.set()
                    raise
                self.boot_s = time.perf_counter() - t0
                started.set()
                await self.server.serve_until_shutdown()

            asyncio.run(_main())

        self._thread = threading.Thread(target=_serve, daemon=True)
        self._thread.start()
        if not started.wait(CLIENT_TIMEOUT) or failure:
            raise RuntimeError(f"service did not start: {failure}")
        self.client = ServiceClient(port=self.server.port, timeout=CLIENT_TIMEOUT)
        return self

    def stop(self) -> None:
        self.client.shutdown()
        self._thread.join(timeout=CLIENT_TIMEOUT)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop")

    def run_job(self, spec) -> tuple[float, dict]:
        """Submit ``spec`` and wait for its terminal state; returns the
        client-seen latency and the job's record."""
        t0 = time.perf_counter()
        submitted = self.client.submit(spec)
        if submitted.get("deduped"):
            raise RuntimeError(f"spec deduplicated into job {submitted['job_id']}")
        record = self.client.wait(submitted["job_id"], timeout=JOB_TIMEOUT)
        return time.perf_counter() - t0, record


def _server_times(record: dict, latency: float) -> tuple[float, float, float]:
    """(queue wait, run time, client-seen overhead) of a finished job."""
    submitted = record["submitted_at"]
    started = record["started_at"] or submitted
    finished = record["finished_at"] or started
    return started - submitted, finished - started, latency - (finished - submitted)


def _phase_a(service: Service, answers: dict) -> dict:
    """One submitted synthesize job of the exhaust query."""
    from repro.service import synthesis_spec

    spec = synthesis_spec(synthesis_query(EXHAUST_JOBS, find_all=True),
                          runtime_options())
    latency, record = service.run_job(spec)
    if record["state"] != "done":
        return {"latency": latency, "payload": {},
                "errors": [f"synthesize job {record['state']}: "
                           f"{record.get('error')}"]}
    payload = service.client.result(record["job_id"])
    return {"latency": latency, "payload": payload,
            "errors": check_synthesis(answers["exhaust"], payload)}


def _phase_b(service: Service, seed: int, answers: dict) -> dict:
    """The seeded verify stream, closed loop from ``CLIENT_THREADS``."""
    from repro.ccac import ModelConfig

    cfg = ModelConfig(T=HORIZON)
    verdicts = answers["verdicts"]
    stream = make_stream(seed, verified_pairs(verdicts))
    first_done = {(j.cca, j.env): threading.Event() for j in stream}
    lock = threading.Lock()
    pending = iter(stream)
    latencies, queue_wait, run, overhead = [], [], [], []

    def _one(job) -> None:
        if job.recheck:
            first_done[(job.cca, job.env)].wait(JOB_TIMEOUT)
        try:
            latency, rec = service.run_job(verify_job_spec(job, cfg))
            if rec["state"] != "done":
                raise RuntimeError(f"{rec['state']}: {rec.get('error')}")
            result = service.client.result(rec["job_id"])
        finally:
            if not job.recheck:
                first_done[(job.cca, job.env)].set()
        want = verdicts[job.cca][job.env]
        if result.get("unknown") or result.get("verified") is not want:
            raise RuntimeError(f"verified={result.get('verified')}, expected {want}")
        if job.recheck and want and result.get("survived") is not True:
            raise RuntimeError("verified CCA did not survive falsification")
        wait_s, run_s, over_s = _server_times(rec, latency)
        with lock:
            latencies.append(latency)
            queue_wait.append(wait_s)
            run.append(run_s)
            overhead.append(over_s)

    def _client() -> list[str]:
        failures = []
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return failures
            try:
                _one(job)
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                failures.append(f"job {job.index} ({job.cca} @ {job.env}): {exc}")

    errors: list[str] = []
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as clients:
        futures = [clients.submit(_client) for _ in range(CLIENT_THREADS)]
        for f in futures:
            errors += f.result()
    return {
        "makespan": time.perf_counter() - t0,
        "latencies": latencies,
        "queue_wait": queue_wait,
        "run": run,
        "overhead": overhead,
        "jobs": len(stream),
        "errors": errors,
    }


def _served(state_dir: str, boots: list, pools: list, work):
    """Boot a server on ``state_dir``, run ``work(service)`` on it, and
    stop it; records the boot time and the pool's counter growth."""
    service = Service(state_dir).start()
    boots.append(service.boot_s)
    try:
        before = service.client.stats()["pool"]
        out = work(service)
        stats = service.client.stats()
    finally:
        service.stop()
    after = stats["pool"]
    pools.append({k: after[k] - before[k] for k in
                  ("tasks_done", "cancelled", "spawns", "respawns")}
                 | {"shed": stats["shed"]})
    return out


def run_service(state_root: str, seed: int, answers: dict,
                synth_reps: int = SYNTH_REPS) -> dict:
    """``synth_reps`` phase A jobs, then phase B, each on a fresh server."""
    from repro.obs import metrics

    boots: list[float] = []
    pools: list[dict] = []
    reg0 = metrics().snapshot()["histograms"]
    synth = [
        _served(f"{state_root}/synth{i}", boots, pools,
                lambda svc: _phase_a(svc, answers))
        for i in range(synth_reps)
    ]
    reg_a = metrics().snapshot()["histograms"]
    stream = _served(f"{state_root}/stream", boots, pools,
                     lambda svc: _phase_b(svc, seed, answers))
    payloads = [a["payload"] for a in synth]
    latencies = stream["latencies"]
    job_tail, pct = tail(latencies) if latencies else (0.0, 100)
    return {
        "wall_s": sum(a["latency"] for a in synth) + stream["makespan"],
        "synth_job_s": median(a["latency"] for a in synth),
        "jobs_per_s": len(latencies) / stream["makespan"],
        "job_p50_s": median(latencies) if latencies else 0.0,
        "job_tail_s": job_tail,
        "job_tail_pct": pct,
        "job_samples": len(latencies),
        "synth_reps_s": [a["latency"] for a in synth],
        "iterations": [p.get("iterations", 0) for p in payloads],
        "counterexamples": sum(p.get("counterexamples", 0) for p in payloads),
        "verify_s": sum(p.get("verifier_time", 0.0) for p in payloads),
        "generate_s": sum(p.get("generator_time", 0.0) for p in payloads),
        # SMT and compile time the pooled workers relayed for phase A
        "portfolio_worker_s": sum(
            reg_a.get(name, {}).get("total", 0.0)
            - reg0.get(name, {}).get("total", 0.0)
            for name in ("smt.check_time", "compile.time")
        ),
        "phase_a_pool_tasks": [p["tasks_done"] for p in pools[:-1]],
        "phase_a_pool_cancelled": [p["cancelled"] for p in pools[:-1]],
        "pool_tasks": sum(p["tasks_done"] for p in pools),
        "pool_cancelled": sum(p["cancelled"] for p in pools),
        "pool_spawns": sum(p["spawns"] for p in pools),
        "pool_respawns": sum(p["respawns"] for p in pools),
        "queue_wait": stream["queue_wait"],
        "run": stream["run"],
        "overhead": stream["overhead"],
        "shed": sum(p["shed"] for p in pools),
        "boots": boots,
        "attempted": synth_reps + stream["jobs"],
        "errors": [e for a in synth for e in a["errors"]] + stream["errors"],
    }
