"""Mass sim cross-validation grids: batched sweeps over link conditions.

Where the genetic search hunts for a single damning trace, the grid
runner maps the whole terrain: the Cartesian product of link rates,
jitter bounds, adversary policies, initial standing queues, and
environment cells (lossless plus lossy drop-tail buffers), each cell
simulated as a constant :class:`TraceSchedule` and judged by the
:class:`PropertyOracle` of its environment.  Cells are chunked across
the workers of a :class:`repro.service.pool.WorkerPool` — the same
fan-out layer the solver portfolio uses — as one wait-all batch, with
each worker's spans and metric deltas relayed back through
:mod:`repro.obs.relay` and merged under the grid span, so
``ccmatic report`` attributes grid cost exactly like in-process cost.

Every run emits an :class:`ExperimentManifest`: the full axes, seed,
CCA spec, per-cell records, and a stable JSON encoding — re-running
``ccmatic falsify --grid`` with the same manifest inputs reproduces the
records bit-for-bit (exact Fractions, deterministic seeds, no wall-clock
dependence in any recorded field).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from ..obs import metrics, tracer
from ..runtime.errors import WorkerError
from ..runtime.serialize import decode_config, encode_config
from .oracle import PropertyOracle
from .schedule import SEGMENT_POLICIES, constant_schedule, run_schedule

__all__ = ["ExperimentManifest", "GridPoint", "GridSpec", "run_grid"]

MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep: a constant link condition, judged against
    one environment of the CCAC matrix (``buffer=None`` is the lossless
    cell; a Fraction adds a lossy drop-tail cell at that buffer)."""

    rate: Fraction
    jitter: int
    policy: str
    initial_queue: Fraction
    buffer: Optional[Fraction] = None

    def environment_key(self) -> str:
        """The environment this cell's verdict speaks about."""
        if self.buffer is None:
            return "lossless"
        from ..ccac.environments import lossy_environment

        return lossy_environment(buffer=self.buffer).key()

    def to_dict(self) -> dict:
        data = {
            "rate": str(self.rate),
            "jitter": self.jitter,
            "policy": self.policy,
            "initial_queue": str(self.initial_queue),
        }
        if self.buffer is not None:
            data["buffer"] = str(self.buffer)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GridPoint":
        buffer = data.get("buffer")
        return cls(
            rate=Fraction(data["rate"]),
            jitter=int(data["jitter"]),
            policy=str(data["policy"]),
            initial_queue=Fraction(data["initial_queue"]),
            buffer=Fraction(buffer) if buffer is not None else None,
        )


@dataclass(frozen=True)
class GridSpec:
    """Axes of a cross-validation sweep."""

    rates: tuple[Fraction, ...]
    jitters: tuple[int, ...] = (0, 1)
    policies: tuple[str, ...] = SEGMENT_POLICIES
    initial_queues: tuple[Fraction, ...] = (Fraction(0),)
    #: environment axis: ``None`` is the lossless cell, a Fraction adds
    #: a lossy cell judged at that drop-tail buffer
    buffers: tuple[Optional[Fraction], ...] = (None,)
    ticks: int = 80
    seed: int = 0

    @classmethod
    def from_model(cls, cfg, ticks: int = 80, buffers=()) -> "GridSpec":
        """A default sweep bracketing the model's operating point:
        rates around ``C`` (half, nominal, double), jitter up to the
        model bound plus one beyond, queues up to the initial box.
        ``buffers`` adds lossy cells on top of the always-present
        lossless one."""
        C = Fraction(cfg.C)
        return cls(
            rates=(C / 2, C, 2 * C),
            jitters=tuple(range(0, cfg.jitter + 2)),
            initial_queues=(Fraction(0), Fraction(cfg.initial_queue_max)),
            buffers=(None,) + tuple(Fraction(b) for b in buffers),
            ticks=ticks,
        )

    def points(self) -> list[GridPoint]:
        """All cells, in a deterministic axis-major order."""
        return [
            GridPoint(rate=r, jitter=j, policy=p, initial_queue=q, buffer=b)
            for r, j, p, q, b in itertools.product(
                self.rates, self.jitters, self.policies,
                self.initial_queues, self.buffers,
            )
        ]

    def to_dict(self) -> dict:
        return {
            "rates": [str(r) for r in self.rates],
            "jitters": list(self.jitters),
            "policies": list(self.policies),
            "initial_queues": [str(q) for q in self.initial_queues],
            "buffers": [
                str(b) if b is not None else None for b in self.buffers
            ],
            "ticks": self.ticks,
            "seed": self.seed,
        }


@dataclass
class ExperimentManifest:
    """The repeatable record of one grid run."""

    cca: str
    cfg: dict
    grid: dict
    jobs: int
    records: list = field(default_factory=list)
    schema: int = MANIFEST_SCHEMA
    #: wall-clock of the run, informational only (NOT part of the
    #: reproducible payload)
    wall_time: float = 0.0

    @property
    def violations(self) -> list[dict]:
        return [r for r in self.records if r["violated"]]

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: Path) -> "ExperimentManifest":
        data = json.loads(Path(path).read_text())
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"{path}: unsupported manifest schema {data.get('schema')!r}"
            )
        return cls(**data)

    def describe(self) -> str:
        bad = len(self.violations)
        # only cells with at least one covered window carry a judged
        # margin; the rest store an advisory fallback
        judged = [
            Fraction(r["margin"]) for r in self.records
            if r.get("covered_windows")
        ]
        worst = min(judged, default=Fraction(1))
        return (
            f"{len(self.records)} configs, {bad} violating "
            f"(worst judged margin {float(worst):+.3f} "
            f"over {len(judged)} judged cells)"
        )


def _grid_task(
    cca_spec: str, cfg_data: dict, point_dicts: list, ticks: int, seed: int
) -> list:
    """Worker body: simulate and judge one chunk of grid cells.

    Module-level so it pickles under the spawn start method too; records
    are plain JSON-ready dicts (Fractions as strings) because worker
    results cross a pipe.
    """
    from . import resolve_cca

    from ..ccac.environments import lossy_environment

    cfg = decode_config(cfg_data)
    # covered windows only: a "violated" cell means a *model-admissible*
    # window failed the property — boot transients and states the model
    # cannot reach (e.g. a huge queue under a tiny window) are terrain,
    # not findings.  Lossy cells get their own oracle: coverage narrows
    # to windows whose queue stays within the buffer (see PropertyOracle).
    oracles = {None: PropertyOracle(cfg, covered_only=True)}
    factory, _ = resolve_cca(cca_spec)
    records = []
    for data in point_dicts:
        point = GridPoint.from_dict(data)
        oracle = oracles.get(point.buffer)
        if oracle is None:
            oracle = oracles[point.buffer] = PropertyOracle(
                cfg, covered_only=True,
                environment=lossy_environment(buffer=point.buffer),
            )
        schedule = constant_schedule(
            ticks,
            rate=point.rate,
            policy=point.policy,
            jitter=point.jitter,
            initial_queue=point.initial_queue,
        )
        result = run_schedule(factory(), schedule, seed=seed)
        verdict = oracle.evaluate_result(result)
        records.append({
            **point.to_dict(),
            "environment": point.environment_key(),
            "in_fragment": schedule.in_fragment(cfg),
            "violated": verdict.violated,
            "margin": str(verdict.margin),
            "utilization": str(result.utilization(warmup=min(10, ticks // 4))),
            "max_queue": str(result.max_queue()),
            "windows": verdict.windows,
            "covered_windows": verdict.covered_windows,
        })
    return records


def run_grid(
    cca_spec: str,
    cfg,
    grid: GridSpec,
    jobs: int = 2,
    manifest_path: Optional[Path] = None,
    wall_time: Optional[float] = 600.0,
) -> ExperimentManifest:
    """Sweep the grid for ``cca_spec``; returns the manifest.

    ``jobs <= 0`` runs in-process (no fork) — handy under debuggers;
    otherwise cells are split into ``jobs`` contiguous chunks, one task
    each on a pool of ``jobs`` workers, results re-assembled in cell
    order.  A chunk that errors, dies or times out fails the run loudly
    (:class:`WorkerError`) — a silently missing chunk would make the
    manifest lie about coverage.
    """
    points = grid.points()
    tr = tracer()
    reg = metrics()
    start = time.perf_counter()
    manifest = ExperimentManifest(
        cca=cca_spec, cfg=encode_config(cfg), grid=grid.to_dict(), jobs=jobs
    )
    if jobs <= 0:
        manifest.records = _grid_task(
            cca_spec, manifest.cfg, [p.to_dict() for p in points],
            grid.ticks, grid.seed,
        )
    else:
        from ..service.pool import WorkerPool

        jobs = min(jobs, len(points)) or 1
        chunks = [
            points[len(points) * k // jobs:len(points) * (k + 1) // jobs]
            for k in range(jobs)
        ]
        tasks = [
            (
                _grid_task,
                (
                    cca_spec, manifest.cfg, [p.to_dict() for p in chunk],
                    grid.ticks, grid.seed,
                ),
            )
            for chunk in chunks
        ]
        with tr.span("falsify.grid", cca=cca_spec, cells=len(points),
                     jobs=jobs) as gspan:
            with WorkerPool(size=jobs) as pool:
                outcome = pool.run_batch(
                    tasks, accept=lambda _r: False, wall_time=wall_time
                )
            reports = [outcome.reports[k] for k in range(len(tasks))]
            for k, report in enumerate(reports):
                if not report.ok:
                    raise WorkerError(
                        f"grid chunk {k} failed ({report.status}): "
                        f"{report.detail}"
                    )
            manifest.records = [
                record for report in reports for record in report.result
            ]
            gspan.set(violations=len(manifest.violations))
    reg.counter("falsify.grid.cells").inc(len(manifest.records))
    manifest.wall_time = time.perf_counter() - start
    if manifest_path is not None:
        manifest.write(manifest_path)
    return manifest
