"""The seeded verify-job stream of the ``service`` workload's phase B.

The stream is a pure function of the seed (and of the known verdicts).
It holds one *first-time query* per (CCA, environment) pair — a cache
write plus SMT work — and then *re-checks* that repeat an earlier pair
with a falsification budget and a fresh falsification seed — a cache
read, plus a falsification search of a couple of seconds when the pair
verifies.  Each verified pair is re-checked ``VERIFIED_RECHECKS`` times
and the refuted pairs, in turn, fill the rest of the stream, so cache
reads are most of the jobs and the median latency falls well inside
them rather than at the edge between two kinds of job.

The composition is the same for every seed, so latency percentiles
compare across seeds, and so is the shape of the stream: the first-time
queries go in a fixed order (the SMT-heavy part packs onto the workers
the same way every run) and the falsification re-checks sit at evenly
spaced positions (each overlaps cache reads the same way every run).
The seed orders the pairs within each kind of re-check and picks the
falsification seeds.  No two jobs
share a spec, so the server's fingerprint dedup never answers in place
of running the job.
"""

from __future__ import annotations

import random
from typing import NamedTuple

CCAS = ("rocc", "eq3", "const:0", "const:1", "const:2", "const:3")
ENVIRONMENTS = ("lossless", "lossy:buffer=8", "lossy:buffer=2", "multiflow")
PAIRS = tuple((cca, env) for cca in CCAS for env in ENVIRONMENTS)

STREAM_SIZE = 100
VERIFIED_RECHECKS = 1
#: falsification evaluations a re-check spends on a verified CCA
RECHECK_FALSIFY = 100


class StreamJob(NamedTuple):
    index: int
    cca: str
    env: str
    #: 0 for a first-time query
    falsify: int
    #: distinct across re-checks, so every spec fingerprint is distinct
    falsify_seed: int

    @property
    def recheck(self) -> bool:
        return self.falsify > 0


def verified_pairs(verdicts: dict) -> frozenset:
    """The (CCA, environment) pairs a verdict table marks verified."""
    return frozenset(p for p in PAIRS if verdicts[p[0]][p[1]])


def make_stream(seed: int, verified: frozenset,
                size: int = STREAM_SIZE) -> list[StreamJob]:
    """Phase B's jobs in submission order: every first-time query, then
    the re-checks (so each re-check follows its pair's first query)."""
    refuted = [p for p in PAIRS if p not in verified]
    fill = size - len(PAIRS) - VERIFIED_RECHECKS * len(verified)
    if fill < 0 or not refuted or not verified:
        raise ValueError(f"stream size {size} does not fit {len(PAIRS)} pairs")
    rng = random.Random(seed)
    slow = [p for p in PAIRS if p in verified] * VERIFIED_RECHECKS
    fast = [refuted[i % len(refuted)] for i in range(fill)]
    rng.shuffle(slow)
    rng.shuffle(fast)
    # the slow re-checks sit at evenly spaced, seed-independent positions
    n = len(slow) + len(fast)
    at = {(2 * k + 1) * n // (2 * len(slow)): pair for k, pair in enumerate(slow)}
    rechecks = [at[i] if i in at else fast.pop() for i in range(n)]
    seeds = rng.sample(range(1, 2**31), n)
    jobs = [StreamJob(i, cca, env, 0, 0) for i, (cca, env) in enumerate(PAIRS)]
    for (cca, env), fseed in zip(rechecks, seeds):
        jobs.append(StreamJob(len(jobs), cca, env, RECHECK_FALSIFY, fseed))
    return jobs


def verify_job_spec(job: StreamJob, cfg):
    """The :class:`repro.service.JobSpec` a stream job submits
    (``certify`` left at the spec default)."""
    from repro.ccac.environments import parse_environment
    from repro.service import verify_spec

    return verify_spec(
        job.cca,
        cfg,
        falsify=job.falsify,
        falsify_seed=job.falsify_seed,
        environments=[parse_environment(job.env)],
    )
