"""Trace records on the span recorder: point and timed events, timed
blocks, the shared ring, JSON-lines export, and capture() scoping.

Every trace item is a ``Span`` in the one ``SpanRecorder`` ring; an event is
a span that is finished when it is recorded.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.obs as obs
from repro.obs.spans import SpanRecorder


class TestTracer:
    def test_record_sequencing(self):
        rec = SpanRecorder()
        rec.event("a", x=1)
        rec.event("b", y="z")
        a, b = rec.completed()
        assert [a.kind, b.kind] == ["a", "b"]
        assert (a.span_id, b.span_id) == (0, 1)
        assert a.t0 <= b.t0
        assert b.fields == {"y": "z"}
        assert a.dur_s == 0.0 and a.status == "ok"

    def test_timed_event_starts_dur_s_before_now(self):
        rec = SpanRecorder()
        before = rec.event("point").t0
        ev = rec.event("build", 2.5, network="K")
        assert ev.dur_s == 2.5 and ev.fields == {"network": "K"}
        assert ev.t0 + 2.5 >= before
        assert ev.t0 < before

    def test_kind_filter(self):
        rec = SpanRecorder()
        rec.event("token_hop")
        rec.event("token_exit")
        rec.event("token_hop")
        assert len(rec.completed("token_hop")) == 2
        assert len(rec.completed("token_exit")) == 1

    def test_ring_buffer_evicts_oldest(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            if i % 2:
                rec.event("e", i=i)
            else:
                rec.finish(rec.start("e", i=i))
        assert len(rec) == 4
        # Events and finished spans share the ring: only the newest four
        # survive, oldest first.
        assert [s.fields["i"] for s in rec.completed()] == [6, 7, 8, 9]
        assert rec.dropped == 6

    def test_clear(self):
        rec = SpanRecorder(capacity=2)
        for _ in range(5):
            rec.event("e")
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=-1)
        rec = SpanRecorder(capacity=1)
        rec.event("old")
        rec.event("new")
        assert [s.kind for s in rec.completed()] == ["new"]

    def test_span_records_duration_and_extras(self):
        rec = SpanRecorder()
        with rec.span("plan_lower", network="K") as s:
            s.fields["segments"] = 5
            assert not s.finished
        (done,) = rec.completed("plan_lower")
        assert done is s
        assert done.fields == {"network": "K", "segments": 5}
        assert done.status == "ok" and done.dur_s >= 0

    def test_span_records_on_exception(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("x")
        (s,) = rec.completed("boom")
        assert s.status == "error" and s.finished

    def test_cancellation_leaves_span_out_of_ring(self):
        rec = SpanRecorder()
        with pytest.raises(asyncio.CancelledError):
            with rec.span("request"):
                raise asyncio.CancelledError
        assert len(rec) == 0 and rec.started == 1

    def test_jsonl_roundtrip(self, tmp_path):
        rec = SpanRecorder()
        rec.event("a", n=1)
        with rec.span("b", s="t") as s:
            s.mark("half")
        path = obs.write_jsonl(tmp_path / "trace.jsonl", rec.to_dicts())
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [o["kind"] for o in objs] == ["a", "b"]
        assert objs[0]["n"] == 1 and objs[1]["s"] == "t"
        for o in objs:
            assert {"span_id", "parent_id", "kind", "t0", "status", "dur_s", "marks"} <= set(o)
        assert set(objs[1]["marks"]) == {"half"}

    def test_empty_jsonl(self, tmp_path):
        path = obs.write_jsonl(tmp_path / "empty.jsonl", SpanRecorder().to_dicts())
        assert path.read_text() == ""


class TestCapture:
    def test_capture_swaps_and_restores(self):
        before_reg, before = obs.default_registry(), obs.default_span_recorder()
        assert not obs.enabled()
        with obs.capture() as (reg, spans):
            assert obs.enabled()
            assert obs.default_registry() is reg
            assert obs.default_span_recorder() is spans
            obs.default_span_recorder().event("inside")
            reg.counter("c").inc()
        assert not obs.enabled()
        assert obs.default_registry() is before_reg
        assert obs.default_span_recorder() is before
        assert len(spans.completed("inside")) == 1

    def test_capture_restores_on_exception(self):
        before_reg, before = obs.default_registry(), obs.default_span_recorder()
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("x")
        assert obs.default_registry() is before_reg
        assert obs.default_span_recorder() is before
        assert not obs.enabled()

    def test_nested_capture(self):
        with obs.capture() as (_, outer):
            obs.default_span_recorder().event("outer")
            with obs.capture() as (_, inner):
                obs.default_span_recorder().event("inner")
            obs.default_span_recorder().event("outer")
            assert obs.enabled()
        assert [s.kind for s in outer.completed()] == ["outer", "outer"]
        assert [s.kind for s in inner.completed()] == ["inner"]
