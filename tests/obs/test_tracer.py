"""Unit tests for the span tracer: clocks, nesting, export,
validation, and the charge audit."""

import threading

import pytest

from repro.obs import tracer as tracer_mod
from repro.obs.clock import ManualClock, MonotonicClock
from repro.obs.tracer import (MalformedSpanError, Span, Tracer,
                              activate, active_tracer,
                              audit_statement_span, render_tree,
                              spans_from_jsonl, spans_to_jsonl,
                              validate_span_tree)


class TestManualClock:
    def test_ticks_advance_by_step(self):
        clock = ManualClock(start=1.0, step=0.5)
        assert clock.now() == 1.0
        assert clock.now() == 1.5
        assert clock.now() == 2.0

    def test_explicit_advance(self):
        clock = ManualClock(step=0.0)
        assert clock.now() == 0.0
        clock.advance(3.0)
        assert clock.now() == 3.0

    def test_monotonic_clock_moves_forward(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("tick")
        assert tracer.roots() == [outer]
        assert outer.children == [inner]
        assert inner.children[0].name == "tick"

    def test_sibling_order_is_open_order(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with tracer.span("parent") as parent:
            for i in range(3):
                with tracer.span(f"child{i}"):
                    pass
        assert [c.name for c in parent.children] == \
            ["child0", "child1", "child2"]

    def test_durations_from_clock(self):
        tracer = Tracer(clock=ManualClock(step=0.001), enabled=True)
        with tracer.span("a") as span:
            pass
        assert span.duration == pytest.approx(0.001)

    def test_events_are_zero_duration(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with tracer.span("a"):
            event = tracer.event("e", kind="charge", rows=3)
        assert event.is_event
        assert event.attrs == {"rows": 3}

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tracer = Tracer(clock=ManualClock(), enabled=False)
        with tracer.span("a") as span:
            assert span is None
        assert tracer.event("e") is None
        assert tracer.roots() == []

    def test_exception_marks_error_and_closes(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed") as span:
                raise ValueError("boom")
        assert span.attrs["error"] == "ValueError"
        assert span.end is not None
        validate_span_tree(span)

    def test_reset_drops_roots(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots() == []

    def test_find_filters_by_name_and_kind(self):
        tracer = Tracer(clock=ManualClock(), enabled=True)
        with tracer.span("s", kind="statement") as root:
            tracer.event("scan", kind="charge")
            tracer.event("scan", kind="charge")
            tracer.event("other", kind="governor")
        assert len(root.find(name="scan")) == 2
        assert len(root.find(kind="charge")) == 2
        assert len(root.find(kind="governor")) == 1


class TestAmbientTracer:
    def test_activate_is_scoped_and_nested(self):
        tracer = Tracer(enabled=True)
        assert active_tracer() is None
        with activate(tracer):
            assert active_tracer() is tracer
            inner = Tracer(enabled=True)
            with activate(inner):
                assert active_tracer() is inner
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_activation_is_thread_local(self):
        tracer = Tracer(enabled=True)
        seen = []
        with tracer_mod.activate(tracer):
            thread = threading.Thread(
                target=lambda: seen.append(active_tracer()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestExportAndRender:
    def _sample_tree(self) -> list:
        tracer = Tracer(clock=ManualClock(step=0.001), enabled=True)
        with tracer.span("statement", kind="statement",
                         sql="SELECT 1") as root:
            with tracer.span("join", kind="operator", rows=5):
                tracer.event("scan", kind="charge", rows_scanned=5)
        return [root]

    def test_jsonl_round_trip(self):
        roots = self._sample_tree()
        restored = spans_from_jsonl(spans_to_jsonl(roots))
        assert render_tree(restored[0]) == render_tree(roots[0])

    def test_render_tree_shape(self):
        (root,) = self._sample_tree()
        lines = render_tree(root).splitlines()
        assert lines[0] == "statement 4.000ms sql=SELECT 1"
        assert lines[1] == "  join 2.000ms rows=5"
        assert lines[2] == "    scan rows_scanned=5"

    def test_render_normalize_applies_to_string_attrs_only(self):
        (root,) = self._sample_tree()
        text = render_tree(root, normalize=lambda s: s.upper())
        assert "sql=SELECT 1" in text
        assert "rows=5" in text  # ints untouched


class TestValidation:
    def test_unclosed_span_rejected(self):
        span = Span("open", "span", 0.0)
        with pytest.raises(MalformedSpanError, match="never closed"):
            validate_span_tree(span)

    def test_child_escaping_parent_rejected(self):
        parent = Span("p", "span", 0.0)
        parent.end = 1.0
        child = Span("c", "span", 0.5)
        child.end = 2.0
        parent.children.append(child)
        with pytest.raises(MalformedSpanError, match="escapes"):
            validate_span_tree(parent)

    def test_negative_duration_rejected(self):
        span = Span("s", "span", 2.0)
        span.end = 1.0
        with pytest.raises(MalformedSpanError, match="ends before"):
            validate_span_tree(span)


class TestChargeAudit:
    def _statement(self, charged: int, recorded: int) -> Span:
        root = Span("statement", "statement", 0.0,
                    {"rows_scanned": recorded})
        root.end = 1.0
        event = Span("scan", "charge", 0.5,
                     {"rows_scanned": charged})
        event.end = 0.5
        root.children.append(event)
        return root

    def test_matching_charges_pass(self):
        audit_statement_span(self._statement(7, 7))

    def test_mismatch_raises(self):
        with pytest.raises(MalformedSpanError, match="charge audit"):
            audit_statement_span(self._statement(7, 8))
