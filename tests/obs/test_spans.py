"""Unit tests for the causal span collector."""

import pytest

from repro.obs.spans import NULL_SPANS, SpanCollector


class TestRecording:
    def test_ids_are_sequential_from_one(self):
        spans = SpanCollector()
        assert spans.point("event") == 1
        assert spans.point("report", parent=1) == 2
        assert spans.point("radio.transmit", parent=2) == 3
        assert spans.emitted == 3

    def test_parents_and_args_round_trip(self):
        spans = SpanCollector()
        root = spans.point("event", event_id=4, x=1.5, y=2.5)
        child = spans.point("report", parent=root, node=7)
        records = list(spans.to_records())
        assert records[0] == {
            "id": root,
            "parent": 0,
            "category": "event",
            "time": 0.0,
            "args": {"event_id": 4, "x": 1.5, "y": 2.5},
        }
        assert records[1]["parent"] == root
        assert records[1]["id"] == child

    def test_attached_clock_stamps_points(self):
        spans = SpanCollector()
        now = [3.25]
        spans.attach_clock(lambda: now[0])
        spans.point("event")
        now[0] = 7.5
        spans.point("event")
        assert [s.time for s in spans] == [3.25, 7.5]

    def test_args_serialise_tuples_and_objects(self):
        spans = SpanCollector()
        spans.point("trust.vote", reporters=(3, 1), obj={"not": "plain"})
        record = next(spans.to_records())
        assert record["args"]["reporters"] == [3, 1]
        assert isinstance(record["args"]["obj"], str)  # repr fallback


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_lost(self):
        spans = SpanCollector(max_spans=3)
        for _ in range(5):
            spans.point("event")
        assert len(spans) == 3
        assert spans.emitted == 5
        assert spans.evicted == 2
        assert [s.span_id for s in spans] == [3, 4, 5]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_spans"):
            SpanCollector(max_spans=0)


class TestBindings:
    def test_bound_survives_reads(self):
        # A chaos duplicate delivers the same message twice; both
        # deliveries must resolve to the same origin span.
        spans = SpanCollector()
        spans.bind("msg-9", 41)
        assert spans.bound("msg-9") == 41
        assert spans.bound("msg-9") == 41

    def test_unbound_key_is_no_context(self):
        assert SpanCollector().bound("nope") == 0


class TestFiltering:
    def test_category_prefix_matches_dotted_tree(self):
        spans = SpanCollector()
        spans.point("radio.transmit")
        spans.point("radio.deliver")
        spans.point("radiometer")  # prefix match must be dotted
        spans.point("window.open")
        assert [s.category for s in spans.spans("radio")] == [
            "radio.transmit",
            "radio.deliver",
        ]
        assert len(spans.spans()) == 4


class TestDisabledPath:
    def test_null_spans_is_inert(self):
        assert not NULL_SPANS.enabled
        assert NULL_SPANS.point("event", event_id=1) == 0
        NULL_SPANS.bind("k", 3)
        assert NULL_SPANS.bound("k") == 0
        assert NULL_SPANS.current == 0
        assert NULL_SPANS.emitted == 0
        assert list(NULL_SPANS.to_records()) == []
        assert len(NULL_SPANS) == 0

    def test_emit_site_convention_is_one_attribute_check(self):
        spans = NULL_SPANS
        touched = []
        if spans.enabled:  # pragma: no cover - must not run
            touched.append(True)
        assert touched == []

    def test_null_current_reads_zero_for_unconditional_stamps(self):
        # A site that stamps event.ctx = spans.current without a guard
        # must always read 0 from the disabled collector.
        assert NULL_SPANS.current == 0
