"""SpanRecorder: ring wraparound, linkage fields, and capture() scoping."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanRecorder


class TestSpan:
    def test_marks_are_monotone_offsets(self):
        s = Span(0, "request", verb="inc")
        a = s.mark("parsed")
        b = s.mark("enqueued")
        assert 0 <= a <= b
        assert s.marks["parsed"] == a and s.marks["enqueued"] == b

    def test_to_dict_carries_linkage_and_fields(self):
        rec = SpanRecorder()
        parent = rec.start("batch", size=3)
        child = rec.start("executor", parent_id=parent.span_id, plan="K(2,3)")
        rec.finish(child)
        d = child.to_dict()
        assert d["parent_id"] == parent.span_id
        assert d["kind"] == "executor"
        assert d["plan"] == "K(2,3)"
        assert d["status"] == "ok"
        assert d["dur_s"] >= 0
        assert d["t0"] == round(child.t0, 9)

    def test_finished_property(self):
        rec = SpanRecorder()
        s = rec.start("request")
        assert not s.finished
        rec.finish(s)
        assert s.finished


class TestRingWraparound:
    def test_ring_keeps_newest_and_counts_dropped(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            s = rec.start("request", i=i)
            rec.finish(s)
        assert len(rec) == 4
        assert rec.dropped == 6
        assert rec.started == 10
        # Oldest-first, and only the newest four survive.
        assert [s.fields["i"] for s in rec.completed()] == [6, 7, 8, 9]

    def test_ids_keep_advancing_across_wraparound(self):
        rec = SpanRecorder(capacity=2)
        spans = [rec.start("request") for _ in range(5)]
        for s in spans:
            rec.finish(s)
        assert [s.span_id for s in rec.completed()] == [3, 4]

    def test_clear_resets_ring_and_dropped(self):
        rec = SpanRecorder(capacity=2)
        for _ in range(5):
            rec.finish(rec.start("request"))
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0
        # id minting is not reset — ids stay unique per recorder lifetime
        assert rec.started == 5

    def test_kind_filter(self):
        rec = SpanRecorder()
        rec.finish(rec.start("request"))
        rec.finish(rec.start("batch"))
        rec.finish(rec.start("request"))
        assert len(rec.completed("request")) == 2
        assert len(rec.completed("batch")) == 1
        assert len(rec.completed()) == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_default_capacity_bounds_memory(self):
        assert SpanRecorder().capacity == DEFAULT_SPAN_CAPACITY


class TestCaptureScoping:
    def test_capture_swaps_in_a_fresh_recorder(self):
        before = obs.default_span_recorder()
        with obs.capture():
            inside = obs.default_span_recorder()
            assert inside is not before
            inside.finish(inside.start("request"))
            assert len(inside) == 1
        after = obs.default_span_recorder()
        assert after is before
        assert len(before) == 0 or before is not inside

    def test_capture_accepts_explicit_recorder(self):
        mine = SpanRecorder(capacity=8)
        with obs.capture(spans=mine) as (_, spans):
            assert spans is mine
            assert obs.default_span_recorder() is mine

    def test_current_batch_slot_starts_empty(self):
        with obs.capture():
            assert obs.default_span_recorder().current_batch is None
