"""Benchmark of the CCmatic reproduction, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serial|service \\
        --seed N --seconds S --trace 0|1

The workloads are described in ``workloads.py``; ``BENCHMARK.json`` at
the checkout root lists them with the metrics.  A run executes a fixed
amount of work — ``serial`` one synthesis, ``service`` ``SYNTH_REPS``
phase A jobs (one when traced) and one phase B — that takes longer than
the ``run_seconds`` of ``BENCHMARK.json``, so ``--seconds`` is a floor
the run always meets (a run that finishes sooner says so in its
details).

With ``--trace 0`` a run reports the end-to-end metrics, measured with
no tracing installed:

* ``setup_s`` — median over three fresh interpreters of importing the
  workload's modules, plus (``service``) the median boot time of the
  run's servers, each including pool spawn and prime.
* ``wall_s`` — the time the workload's jobs took as their client saw
  it: the ``run_synthesis`` call for ``serial``; the phase A jobs plus
  phase B's makespan for ``service``.
* ``synth_job_s`` — the synthesize job as its caller sees it: the local
  call (equal to ``wall_s``) or, median over the phase A jobs, submit to
  ``done``.
* ``jobs_per_s``, ``job_p50_s``, ``job_tail_s`` — over phase B's verify
  jobs (submit to ``done``) for ``service``.  The tail is the highest
  percentile with at least ten samples beyond it; the details line
  names it.  ``serial`` runs one job, the synthesis, so for it these
  are ``1 / wall_s``, ``wall_s`` and ``wall_s`` (p100 of one sample).
* ``peak_rss_mb`` — the larger peak RSS of this process and its
  (reaped) children.

With ``--trace 1`` the same workload runs with the per-layer wrappers of
``layers.py`` installed and reports the per-layer metrics instead,
including ``trace.wall_s``/``trace.synth_job_s``: subtracting the
untraced medians gives the tracing overhead.

Every run checks its answers against ``answers.json`` and prints, before
the result line, one details line with the host fingerprint (cores, CPU
model, Python, git sha), a flag for workloads running more workers or
client threads than there are cores, and the race accounting (CEGIS
iterations; for each ``service`` phase A job, pool tasks run and
cancelled).  The last line is
the result; the exit status is non-zero when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 3

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t0)\n"
)


def import_seconds(modules) -> float:
    """Time importing ``modules`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), *modules],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.IMPORTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def measure(args, spec: dict) -> tuple[dict, dict, dict]:
    """Run the workload; returns (metrics, counts, details)."""
    import_s = median(
        import_seconds(workloads.IMPORTS[args.workload]) for _ in range(SETUP_REPS)
    )
    from repro.obs import metrics

    answers = json.loads((HERE / "answers.json").read_text())
    patches = layers.Patches()
    try:
        if args.trace:
            layers.install(patches)  # before any fork: workers inherit it
        before = metrics().snapshot()
        if args.workload == "service":
            # per-layer counts describe one synthesize job and the stream
            reps = 1 if args.trace else workloads.SYNTH_REPS
            run = workloads.run_service(str(WORK), args.seed, answers, reps)
        else:
            run = workloads.run_serial(answers)
        d = layers.deltas(before, metrics().snapshot())
    finally:
        patches.restore()

    boots = run["boots"]
    setup_s = import_s + (median(boots) if boots else 0.0)
    if args.trace:
        values = layers.layer_metrics(d, run)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": run["wall_s"],
            "synth_job_s": run["synth_job_s"],
            "jobs_per_s": run["jobs_per_s"],
            "job_p50_s": run["job_p50_s"],
            "job_tail_s": run["job_tail_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec["end_to_end"]
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in declared}

    race = {"cegis.iterations": run["iterations"]}
    if args.workload == "service":
        race["synth_job_s"] = run["synth_reps_s"]
        race["pool.tasks"] = run["phase_a_pool_tasks"]
        race["pool.cancelled"] = run["phase_a_pool_cancelled"]
    details = {
        "setup": {"import_s": import_s, "boot_s": boots},
        "race": race,
        "job_tail_percentile": f"p{run['job_tail_pct']}",
        "job_samples": run["job_samples"],
        "errors": run["errors"],
    }
    counts = {
        "attempted": run["attempted"],
        "failed": len(run["errors"]) + run.get("shed", 0),
    }
    return result, counts, details


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_fingerprint()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    t0 = time.perf_counter()
    try:
        result, counts, details = measure(args, spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    concurrency = workloads.CONCURRENCY[args.workload]
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "concurrency": concurrency,
        "oversubscribed": concurrency > host["nproc"],
        "elapsed_s": elapsed,
        "shorter_than_seconds": elapsed < args.seconds,
    })
    print(json.dumps({"perfbench": details}))
    correct = not details["errors"]
    print(json.dumps({"correct": correct, **counts, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
