"""Turn a JSONL trace back into a per-phase breakdown (``ccmatic report``).

The report aggregates span records by name (count, total, mean), counts
events, and — when the trace contains a ``cegis.done`` event — checks
that the span-derived generator/verifier totals agree with the loop's
own ``CegisStats`` bookkeeping (they measure the same code regions, so
disagreement beyond a few percent indicates instrumentation drift).

Worker telemetry relayed across process boundaries (see
:mod:`repro.obs.relay`) renders as per-worker *lanes*: records tagged
with a ``worker`` attribute are additionally aggregated per lane, so a
``--jobs N`` portfolio run attributes the time spent inside each forked
worker, not just the parent's wait.

Parsing is deliberately forgiving: traces are written line-buffered by
long runs that may be SIGKILLed mid-write (the flight recorder dumps
under exactly such circumstances), so truncated, interleaved, or
otherwise torn lines are *skipped and counted* (``malformed``), never
raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO, Union

#: worker statuses that mean the lane's process was killed
_KILL_STATUSES = ("timeout", "oom", "crash")


@dataclass
class SpanAgg:
    """Aggregate of all spans sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0
    depth: int = 0  # minimum nesting depth seen (for display indentation)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class WorkerLane:
    """Aggregate of all records tagged with one worker id."""

    worker: str
    records: int = 0        # spans+events carrying this worker tag
    runs: int = 0           # completed child executions (worker.run spans)
    busy: float = 0.0       # total seconds inside worker.run spans
    wall: float = 0.0       # parent-side runtime.worker span total
    kills: int = 0          # parent-side worker spans that ended killed


@dataclass
class TraceSummary:
    """Everything the report renderer needs, parsed from one trace."""

    records: int = 0
    spans: dict[str, SpanAgg] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    meta: Optional[dict] = None
    cegis_done: Optional[dict] = None
    metrics: Optional[dict] = None  # last metrics snapshot wins
    malformed: int = 0
    degradations: list[dict] = field(default_factory=list)
    workers: dict[str, WorkerLane] = field(default_factory=dict)
    #: counterexamples per origin environment (``cegis.counterexample``
    #: events carrying an ``environment`` key); untagged events count
    #: under "lossless" once any tagged one is present
    cex_environments: dict[str, int] = field(default_factory=dict)

    def span_total(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg.total if agg else 0.0

    def counter(self, name: str, default: int = 0):
        """Convenience accessor into the metrics snapshot's counters."""
        if not self.metrics:
            return default
        return self.metrics.get("counters", {}).get(name, default)


def iter_records(lines: Iterable[str]) -> Iterator[Optional[dict]]:
    """Yield one parsed record dict per trace line; ``None`` for a line
    that is empty of meaning but malformed (torn/interleaved/non-object
    JSON).  Blank lines are skipped silently.  Shared by the report
    parser and the Perfetto exporter so both tolerate the same damage."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            yield None  # truncated or interleaved write
            continue
        if not isinstance(rec, dict):
            yield None  # valid JSON, but not a record
            continue
        yield rec


def _lane(summary: TraceSummary, worker) -> WorkerLane:
    worker = str(worker)
    lane = summary.workers.get(worker)
    if lane is None:
        lane = summary.workers[worker] = WorkerLane(worker)
    return lane


def _aggregate(summary: TraceSummary, rec: dict) -> None:
    """Fold one record into the summary; raises on malformed fields
    (the caller converts that into a malformed-line count)."""
    kind = rec.get("type")
    attrs = rec.get("attrs")
    worker = attrs.get("worker") if isinstance(attrs, dict) else None
    if kind == "span":
        name = rec.get("name", "?")
        agg = summary.spans.get(name)
        if agg is None:
            agg = summary.spans[name] = SpanAgg(name, depth=rec.get("depth", 0))
        dur = float(rec.get("dur", 0.0))
        agg.count += 1
        agg.total += dur
        agg.max = max(agg.max, dur)
        agg.depth = min(agg.depth, int(rec.get("depth", 0)))
        if worker is not None:
            lane = _lane(summary, worker)
            lane.records += 1
            if name == "worker.run":
                lane.runs += 1
                lane.busy += dur
            elif name == "runtime.worker":
                # parent-side span of a one-task pooled round (--isolate)
                lane.wall += dur
                if attrs.get("status") in _KILL_STATUSES:
                    lane.kills += 1
    elif kind == "event":
        name = rec.get("name", "?")
        summary.events[name] = summary.events.get(name, 0) + 1
        if worker is not None:
            _lane(summary, worker).records += 1
        if name == "cegis.done":
            summary.cegis_done = rec.get("attrs", {})
        elif name == "runtime.degrade":
            summary.degradations.append(rec.get("attrs", {}))
        elif name == "cegis.counterexample":
            env = (attrs or {}).get("environment") or "lossless"
            summary.cex_environments[env] = (
                summary.cex_environments.get(env, 0) + 1
            )
    elif kind == "metrics":
        summary.metrics = rec.get("snapshot")
    elif kind == "meta":
        # a flight-recorder dump opens with its own meta header; the
        # run's meta (argv/version) should win for display if both exist
        if summary.meta is None or "argv" in rec:
            summary.meta = rec


def parse_trace(lines: Iterable[str]) -> TraceSummary:
    """Parse JSONL lines into a :class:`TraceSummary`.

    Torn lines — truncated mid-record, two records interleaved onto one
    line, or structurally wrong records (non-object JSON, non-numeric
    durations) — are skipped and counted in ``malformed``; this function
    never raises on damaged input.
    """
    summary = TraceSummary()
    for rec in iter_records(lines):
        if rec is None:
            summary.malformed += 1
            continue
        try:
            _aggregate(summary, rec)
        except (TypeError, ValueError, AttributeError, KeyError):
            summary.malformed += 1
            continue
        summary.records += 1
    return summary


def load_trace(path_or_file: Union[str, TextIO]) -> TraceSummary:
    """Read and parse a JSONL trace file."""
    if hasattr(path_or_file, "read"):
        return parse_trace(path_or_file)
    with open(path_or_file, "r", encoding="utf-8", errors="replace") as f:
        return parse_trace(f)


def render_report(summary: TraceSummary) -> str:
    """Format a :class:`TraceSummary` as the human-readable report."""
    out: list[str] = []
    if summary.meta is not None:
        argv = summary.meta.get("argv")
        if argv:
            out.append(f"run: {' '.join(str(a) for a in argv)}")
        if summary.meta.get("flight_recorder"):
            out.append(
                f"flight recorder dump (reason: "
                f"{summary.meta.get('reason', '?')}; last "
                f"{summary.meta.get('captured', '?')} of "
                f"{summary.meta.get('seen', '?')} records)"
            )
    out.append(
        f"records: {summary.records}"
        + (f" ({summary.malformed} malformed lines skipped)" if summary.malformed else "")
    )

    if summary.spans:
        out.append("")
        out.append(f"{'phase':32s} {'calls':>7s} {'total_s':>10s} {'mean_ms':>10s} {'max_ms':>10s}")
        for agg in sorted(summary.spans.values(), key=lambda a: (a.depth, -a.total)):
            indent = "  " * agg.depth
            out.append(
                f"{indent + agg.name:32s} {agg.count:7d} {agg.total:10.3f} "
                f"{agg.mean * 1000:10.2f} {agg.max * 1000:10.2f}"
            )

    if summary.workers:
        out.append("")
        out.append(
            f"workers ({len(summary.workers)} lanes, relayed telemetry):"
        )
        out.append(
            f"  {'lane':8s} {'runs':>5s} {'busy_s':>9s} {'records':>8s} "
            f"{'kills':>6s}"
        )
        for lane in sorted(summary.workers.values(), key=lambda l: l.worker):
            out.append(
                f"  {lane.worker:8s} {lane.runs:5d} {lane.busy:9.3f} "
                f"{lane.records:8d} {lane.kills:6d}"
            )
        busy = sum(l.busy for l in summary.workers.values())
        verify = summary.span_total("cegis.verify")
        if busy > 0 and verify > 0:
            out.append(
                f"  worker-side busy total {busy:.3f}s inside "
                f"cegis.verify {verify:.3f}s "
                f"({100.0 * min(busy / verify, 9.99):.1f}% parallel occupancy)"
            )

    if summary.events:
        out.append("")
        out.append("events:")
        for name, n in sorted(summary.events.items(), key=lambda kv: -kv[1]):
            out.append(f"  {name:30s} {n:7d}")

    if any(env != "lossless" for env in summary.cex_environments):
        out.append("")
        out.append("counterexamples by environment:")
        for env, n in sorted(
            summary.cex_environments.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            out.append(f"  {env:30s} {n:7d}")

    done = summary.cegis_done
    if done is not None:
        out.append("")
        out.append(
            "cegis: iterations={} counterexamples={} solutions={} "
            "generator_time={:.3f}s verifier_time={:.3f}s".format(
                done.get("iterations", "?"),
                done.get("counterexamples", "?"),
                done.get("solutions", "?"),
                float(done.get("generator_time", 0.0)),
                float(done.get("verifier_time", 0.0)),
            )
        )
        reason = done.get("stop_reason")
        if reason:
            out.append(
                f"  stop_reason: {reason}"
                + (" (resumed from checkpoint)" if done.get("resumed") else "")
            )
        for phase, key in (("cegis.generate", "generator_time"),
                           ("cegis.verify", "verifier_time")):
            recorded = float(done.get(key, 0.0))
            spanned = summary.span_total(phase)
            if recorded > 0:
                pct = 100.0 * spanned / recorded
                out.append(
                    f"  {phase}: span total {spanned:.3f}s vs recorded "
                    f"{key} {recorded:.3f}s ({pct:.1f}% agreement)"
                )
        run_total = summary.span_total("cegis.run")
        attributed = (
            summary.span_total("cegis.generate")
            + summary.span_total("cegis.verify")
        )
        if run_total > 0:
            out.append(
                f"  wall-clock attribution: {attributed:.3f}s of "
                f"{run_total:.3f}s inside generate/verify "
                f"({100.0 * attributed / run_total:.1f}%)"
            )

    cache_counters = {
        name: value
        for name, value in (summary.metrics or {}).get("counters", {}).items()
        if name.startswith("engine.cache.")
    }
    if cache_counters:
        hits = cache_counters.get("engine.cache.hits", 0)
        misses = cache_counters.get("engine.cache.misses", 0)
        lookups = hits + misses
        out.append("")
        out.append("cache:")
        out.append(
            f"  hits={hits} misses={misses} "
            f"disk_hits={cache_counters.get('engine.cache.disk_hits', 0)} "
            f"quarantined={cache_counters.get('engine.cache.quarantined', 0)}"
            + (f" (hit rate {100.0 * hits / lookups:.1f}%)" if lookups else "")
        )
        evictions = cache_counters.get("engine.cache.evictions", 0)
        if evictions:
            out.append(f"  evictions={evictions}")

    proofs = summary.counter("trust.proofs.checked")
    if proofs:
        check = (summary.metrics or {}).get("histograms", {}).get(
            "trust.check_time", {}
        )
        check_s = float(check.get("total", 0.0) or 0.0)
        verify_s = summary.span_total("cegis.verify") or summary.span_total(
            "verifier.find_cex"
        )
        line = (
            f"certify: {proofs} proof(s) independently checked, "
            f"{check_s:.3f}s checking"
        )
        if verify_s > 0:
            line += f" ({100.0 * check_s / verify_s:.1f}% of verify time)"
        out.append("")
        out.append(line)

    relayed = summary.counter("obs.relay.frames")
    dropped = summary.counter("obs.relay.dropped_frames")
    if relayed or dropped:
        out.append("")
        out.append(
            f"telemetry relay: {relayed} frame(s) merged, {dropped} dropped"
        )

    if summary.degradations:
        out.append("")
        out.append(f"degradations: {len(summary.degradations)}")
        by_kind: dict[str, int] = {}
        for d in summary.degradations:
            kind = d.get("kind", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
        for kind, n in sorted(by_kind.items(), key=lambda kv: -kv[1]):
            out.append(f"  {kind:30s} {n:7d}")

    if summary.metrics:
        out.append("")
        out.append("metrics:")
        for name, value in summary.metrics.get("counters", {}).items():
            out.append(f"  {name:30s} {value}")
        for name, h in summary.metrics.get("histograms", {}).items():
            if h.get("count"):
                out.append(
                    f"  {name:30s} count={h['count']} mean={h['mean']:.6f} "
                    f"max={h['max']:.6f}"
                )
    return "\n".join(out)


def report(path_or_file: Union[str, TextIO]) -> str:
    """Load a trace and render its report (the ``ccmatic report`` body)."""
    return render_report(load_trace(path_or_file))


def render_cache_stats(cache_dir: str) -> str:
    """Render the persisted counters of a shared cache directory.

    Reads the cheap counter file (plus one directory walk for the true
    byte total) — the ``ccmatic report --cache-dir`` section for a
    service-wide store that many runs have written to.
    """
    # imported here: engine.cache pulls in repro.obs at module load
    from ..engine.cache import QueryCache, read_persisted_stats

    totals = read_persisted_stats(cache_dir)
    usage = QueryCache(cache_dir).disk_usage()
    hits = int(totals.get("hits", 0))
    misses = int(totals.get("misses", 0))
    lookups = hits + misses
    out = [f"cache store: {cache_dir}"]
    out.append(
        f"  hits={hits} misses={misses} "
        f"disk_hits={int(totals.get('disk_hits', 0))} "
        f"stores={int(totals.get('stores', 0))} "
        f"evictions={int(totals.get('evictions', 0))}"
        + (f" (hit rate {100.0 * hits / lookups:.1f}%)" if lookups else "")
    )
    out.append(
        f"  entries={usage['disk_entries']} "
        f"bytes={usage['disk_bytes']}"
    )
    return "\n".join(out)
