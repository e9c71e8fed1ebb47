"""Cross-process telemetry relay: capture, frame, merge (in-process).

These tests exercise the relay machinery without forking; the real
fork-path integration lives in ``tests/service/test_pool.py``
(runtime-marked).
"""

from repro.obs import MetricsRegistry, Sink, Tracer
from repro.obs.relay import (
    FRAME_VERSION,
    BufferSink,
    TelemetryCapture,
    TraceContext,
    merge_frame,
)


class RecordingSink(Sink):
    def __init__(self):
        self.records = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


def make_frame(tr=None, registry=None, worker_id="w1"):
    """Run a tiny traced workload through a capture, return its frame."""
    tr = tr or Tracer()
    registry = registry or MetricsRegistry()
    ctx = TraceContext(trace_id=tr.trace_id, worker_id=worker_id)
    cap = TelemetryCapture(ctx, tr=tr, registry=registry)
    with tr.span("worker.run", task="t"):
        with tr.span("verifier.find_cex"):
            registry.counter("smt.checks").inc(3)
            registry.histogram("smt.check_time").observe(0.5)
        tr.event("smt.check_done", verdict="unsat")
    return cap.finish()


class TestCapture:
    def test_frame_shape(self):
        frame = make_frame()
        assert frame["v"] == FRAME_VERSION
        assert frame["worker_id"] == "w1"
        assert frame["dropped"] == 0
        kinds = [r["type"] for r in frame["records"]]
        assert kinds.count("span") == 2 and kinds.count("event") == 1

    def test_metric_deltas_exclude_preexisting_values(self):
        registry = MetricsRegistry()
        registry.counter("smt.checks").inc(100)  # forked-in parent value
        frame = make_frame(registry=registry)
        assert frame["metrics"]["counters"]["smt.checks"] == 3
        hist = frame["metrics"]["histograms"]["smt.check_time"]
        assert hist["count"] == 1 and abs(hist["total"] - 0.5) < 1e-9

    def test_finish_is_idempotent(self):
        tr = Tracer()
        cap = TelemetryCapture(
            TraceContext(trace_id=tr.trace_id), tr=tr,
            registry=MetricsRegistry(),
        )
        a, b = cap.finish(), cap.finish()
        assert a["records"] == b["records"]

    def test_buffer_bound_counts_overflow(self):
        sink = BufferSink(max_records=2)
        for i in range(5):
            sink.emit({"type": "event", "name": str(i)})
        assert len(sink.records) == 2 and sink.dropped == 3


class TestMerge:
    def test_records_remapped_and_tagged(self):
        frame = make_frame()
        tr = Tracer()
        registry = MetricsRegistry()
        sink = tr.add_sink(RecordingSink())
        with tr.span("runtime.worker", worker="w1") as ws:
            anchor, depth = ws.span_id, ws.depth
        assert merge_frame(frame, anchor_span=anchor, anchor_depth=depth,
                           tr=tr, registry=registry)
        merged = [r for r in sink.records
                  if r.get("attrs", {}).get("worker") == "w1"
                  and r["type"] == "span" and r["name"] != "runtime.worker"]
        assert len(merged) == 2
        roots = [r for r in merged if r["name"] == "worker.run"]
        assert roots[0]["parent"] == anchor
        assert roots[0]["depth"] == depth + 1
        # child span ids were re-allocated from the parent tracer, so
        # they cannot collide with the parent-side worker span
        assert all(r["id"] != anchor for r in merged)

    def test_metrics_merged_into_global_instruments(self):
        frame = make_frame()
        registry = MetricsRegistry()
        registry.counter("smt.checks").inc(10)
        assert merge_frame(frame, tr=Tracer(), registry=registry)
        assert registry.counter("smt.checks").value == 13
        h = registry.histogram("smt.check_time")
        assert h.count == 1 and abs(h.total - 0.5) < 1e-9

    def test_malformed_frames_dropped_with_counter_never_raise(self):
        tr, registry = Tracer(), MetricsRegistry()
        bad = [
            None,
            "not a frame",
            {},
            {"v": 99, "records": [], "metrics": {}, "worker_id": "w0"},
            {"v": FRAME_VERSION, "records": "nope", "metrics": {},
             "worker_id": "w0"},
            {"v": FRAME_VERSION, "records": [], "metrics": {},
             "worker_id": 7},
            # well-formed envelope, poisoned payload: must not raise
            {"v": FRAME_VERSION, "records": [],
             "metrics": {"counters": {"x": "NaN-ish"}}, "worker_id": "w0"},
        ]
        for frame in bad:
            assert merge_frame(frame, tr=tr, registry=registry) is False
        assert registry.counter("obs.relay.dropped_frames").value == len(bad)

    def test_merge_counts_frames_and_child_drops(self):
        frame = make_frame()
        frame["dropped"] = 4
        registry = MetricsRegistry()
        assert merge_frame(frame, tr=Tracer(), registry=registry)
        assert registry.counter("obs.relay.frames").value == 1
        assert registry.counter("obs.relay.child_dropped_records").value == 4

    def test_disabled_tracer_still_merges_metrics(self):
        frame = make_frame()
        tr, registry = Tracer(), MetricsRegistry()
        assert not tr.enabled
        assert merge_frame(frame, tr=tr, registry=registry)
        assert registry.counter("smt.checks").value == 3
