"""Cross-process telemetry relay: worker spans and metric deltas, merged.

Pool workers (:mod:`repro.service.pool`) run the portfolio, isolation
and grid tasks in forked processes whose tracer records and metric
increments would otherwise die with the child: the parent would see only
the verdict, so ``ccmatic report`` on a ``--jobs N`` run could not
attribute most of the wall clock.  This module closes the gap:

* **Child side** — at boot, :func:`reset_child_tracing` detaches every
  sink inherited across ``fork`` (see :func:`detach_inherited_sinks` —
  a forked child shares the parent's open trace *file description*, so
  writing or even exit-flushing from both interleaves records
  mid-line).  Each task then runs under a :class:`TelemetryCapture`: an
  in-memory :class:`BufferSink` plus a snapshot of the metrics
  registry.  When the task finishes, :meth:`TelemetryCapture.finish`
  produces one structured *telemetry frame*: the buffered span/event
  records plus the counter and histogram *deltas* accrued while the
  task ran.  The worker ships the frame over its pipe as a
  ``("telemetry", frame)`` message just before the task's status
  message.

* **Parent side** — :func:`merge_frame` folds a received frame back into
  the parent's tracer and registry: span ids are re-numbered through
  :meth:`~repro.obs.events.Tracer.allocate_ids` (child ids are from a
  forked copy of the parent's counter and would collide), parentage is
  re-anchored under the span that launched the worker, every record is
  tagged with the worker id, and metric deltas are added to the global
  instruments so ``--jobs N`` cost aggregates exactly like in-process
  cost.

Telemetry frames are **advisory**: a malformed frame is dropped with the
``obs.relay.dropped_frames`` counter, never an exception — the relay
must not be able to turn a good verdict into a crashed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import DEBUG, Sink, Tracer, tracer
from .metrics import MetricsRegistry, metrics

__all__ = [
    "FRAME_VERSION",
    "BufferSink",
    "TelemetryCapture",
    "TraceContext",
    "detach_inherited_sinks",
    "merge_frame",
    "reset_child_tracing",
]

#: bump when the frame layout changes; a frame with an unknown version
#: is dropped (advisory data, never a hard error)
FRAME_VERSION = 1

#: child-side buffer bound: a runaway worker must not OOM itself (or the
#: pipe) with telemetry; overflow is counted and reported in the frame
MAX_BUFFERED_RECORDS = 20_000


@dataclass(frozen=True)
class TraceContext:
    """What a worker needs to stitch its telemetry into the parent trace."""

    #: the parent tracer's stream id (``Tracer.trace_id``)
    trace_id: str
    #: span id in the parent under which this worker's spans nest
    #: (None when the parent has no open span / tracing is off)
    parent_span: Optional[int] = None
    #: stable lane tag for this worker, e.g. ``"w0"``
    worker_id: str = "w0"

    @classmethod
    def current(cls, worker_id: str = "w0") -> "TraceContext":
        """Context anchored at the calling thread's innermost open span."""
        tr = tracer()
        return cls(
            trace_id=tr.trace_id,
            parent_span=tr.current_span_id(),
            worker_id=worker_id,
        )


class BufferSink(Sink):
    """Collects records in memory (bounded); the child side of the relay."""

    level = DEBUG

    def __init__(self, max_records: int = MAX_BUFFERED_RECORDS):
        self.max_records = max_records
        self.records: list[dict] = []
        self.dropped = 0

    def emit(self, record: dict) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)


def detach_inherited_sinks(tr: Optional[Tracer] = None) -> None:
    """Neutralize sinks inherited across ``fork`` in a worker child.

    Two hazards: (1) live writes from the child would interleave with the
    parent's on the same file description; (2) records buffered in the
    file object *before* the fork are duplicated into the child and would
    be flushed again at child interpreter exit.  Removing the sink fixes
    (1); for (2) the underlying fd is re-pointed at ``/dev/null`` with
    ``dup2`` (the parent's own fd-table entry is untouched), so any
    stray flush in the child lands nowhere.
    """
    import os

    tr = tr or tracer()
    for sink in list(tr.sinks):
        tr.remove_sink(sink)
        f = getattr(sink, "_file", None)
        if f is None:
            continue
        try:
            fd = f.fileno()
        except (AttributeError, OSError, ValueError):
            continue  # in-memory file-likes have no fd to leak through
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        except OSError:
            pass


class TelemetryCapture:
    """Child-side recording session producing one telemetry frame."""

    def __init__(
        self,
        ctx: Optional[TraceContext],
        tr: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        task: Optional[str] = None,
    ):
        self.ctx = ctx or TraceContext(trace_id="", worker_id="w?")
        self.task = task
        self._tracer = tr or tracer()
        self._registry = registry or metrics()
        self._sink = BufferSink()
        self._base = self._registry.snapshot()
        self._tracer.add_sink(self._sink)
        self._finished = False

    def finish(self) -> dict:
        """Detach the buffer and build the frame (idempotent)."""
        if not self._finished:
            self._finished = True
            self._tracer.remove_sink(self._sink)
        import os

        frame = {
            "v": FRAME_VERSION,
            "trace_id": self.ctx.trace_id,
            "worker_id": self.ctx.worker_id,
            "pid": os.getpid(),
            "records": self._sink.records,
            "dropped": self._sink.dropped,
            "metrics": _metric_deltas(self._base, self._registry.snapshot()),
        }
        if self.task is not None:
            frame["task"] = self.task
        return frame


def reset_child_tracing(ctx: Optional[TraceContext] = None) -> None:
    """Pool-worker boot: detach inherited sinks, drop the open-span stack.

    A persistent pool child (see ``runtime.workers._pool_child``) serves
    many tasks and builds one :class:`TelemetryCapture` *per task*.  The
    fork duplicated the parent's open-span stack into the child; it is
    dropped so the worker's own spans start at depth 0 (the relay
    re-anchors them under the launching span when it merges the frame).
    """
    tr = tracer()
    detach_inherited_sinks(tr)
    try:
        tr._local.stack = []
    except AttributeError:
        pass


def _metric_deltas(base: dict, now: dict) -> dict:
    """What the worker added on top of the forked-in parent values."""
    counters = {}
    base_counters = base.get("counters", {})
    for name, value in now.get("counters", {}).items():
        delta = value - base_counters.get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    base_hists = base.get("histograms", {})
    for name, h in now.get("histograms", {}).items():
        b = base_hists.get(name, {})
        count = h.get("count", 0) - b.get("count", 0)
        if count <= 0:
            continue
        # min/max of the delta window are unknowable from two snapshots;
        # the child's end-state extremes are a safe over-approximation
        histograms[name] = {
            "count": count,
            "total": h.get("total", 0.0) - b.get("total", 0.0),
            "min": h.get("min"),
            "max": h.get("max"),
        }
    return {"counters": counters, "histograms": histograms}


# -- parent side --------------------------------------------------------------


def _valid_frame(frame) -> bool:
    return (
        isinstance(frame, dict)
        and frame.get("v") == FRAME_VERSION
        and isinstance(frame.get("records"), list)
        and isinstance(frame.get("metrics"), dict)
        and isinstance(frame.get("worker_id"), str)
    )


def merge_frame(
    frame,
    anchor_span: Optional[int] = None,
    anchor_depth: int = 0,
    tr: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> bool:
    """Fold one worker telemetry frame into the parent's tracer/registry.

    ``anchor_span``/``anchor_depth`` locate the parent-side span that
    owns the worker (its re-emitted root spans become children of it).
    Returns True when the frame was merged; a malformed frame (or one
    that blows up mid-merge) is dropped with the
    ``obs.relay.dropped_frames`` counter and False — never an exception.
    """
    tr = tr or tracer()
    registry = registry or metrics()
    if not _valid_frame(frame):
        registry.counter("obs.relay.dropped_frames").inc()
        return False
    try:
        _merge_metrics(frame["metrics"], registry)
        if tr.enabled and frame["records"]:
            _reemit_records(
                frame["records"], frame["worker_id"], anchor_span,
                anchor_depth, tr, task=frame.get("task"),
            )
        registry.counter("obs.relay.frames").inc()
        if frame.get("dropped"):
            registry.counter("obs.relay.child_dropped_records").inc(
                int(frame["dropped"])
            )
        return True
    except Exception:
        registry.counter("obs.relay.dropped_frames").inc()
        return False


def _merge_metrics(deltas: dict, registry: MetricsRegistry) -> None:
    for name, delta in deltas.get("counters", {}).items():
        registry.counter(str(name)).inc(delta)
    for name, d in deltas.get("histograms", {}).items():
        h = registry.histogram(str(name))
        count = int(d.get("count", 0))
        if count <= 0:
            continue
        h.count += count
        h.total += float(d.get("total", 0.0))
        for bound, better in (("min", min), ("max", max)):
            v = d.get(bound)
            if v is None:
                continue
            cur = getattr(h, bound)
            setattr(h, bound, v if cur is None else better(cur, v))


def _reemit_records(
    records: list,
    worker_id: str,
    anchor_span: Optional[int],
    anchor_depth: int,
    tr: Tracer,
    task: Optional[str] = None,
) -> None:
    """Re-number and re-emit child records through the parent tracer."""
    span_ids = [
        r["id"] for r in records
        if isinstance(r, dict) and r.get("type") == "span" and "id" in r
    ]
    first = tr.allocate_ids(len(span_ids)) if span_ids else 0
    remap = {old: first + i for i, old in enumerate(span_ids)}
    base_depth = anchor_depth + 1 if anchor_span is not None else 0
    for rec in records:
        if not isinstance(rec, dict):
            continue
        rec = dict(rec)
        kind = rec.get("type")
        attrs = rec.get("attrs")
        rec["attrs"] = dict(attrs) if isinstance(attrs, dict) else {}
        rec["attrs"]["worker"] = worker_id
        if task is not None:
            rec["attrs"]["task"] = task
        if kind == "span":
            rec["id"] = remap.get(rec.get("id"), rec.get("id"))
            parent = rec.get("parent")
            rec["parent"] = remap.get(parent, anchor_span)
            rec["depth"] = int(rec.get("depth", 0)) + base_depth
        elif kind == "event":
            rec["span"] = remap.get(rec.get("span"), anchor_span)
        tr._emit(rec)
