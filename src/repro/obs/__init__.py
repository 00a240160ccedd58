"""Observability: structured tracing, a metrics registry, and the
clocks that make both deterministically testable.

Three pieces, zero dependencies beyond the standard library:

* :mod:`repro.obs.clock` -- injectable time sources.  Production code
  uses :class:`~repro.obs.clock.MonotonicClock`; tests inject a
  :class:`~repro.obs.clock.ManualClock` whose every reading advances
  by a fixed step, so span durations (and therefore rendered trees and
  EXPLAIN ANALYZE output) are bit-identical run over run.
* :mod:`repro.obs.tracer` -- nested spans (statement -> plan-step ->
  operator) with thread-local stacks, JSON-lines export, a rendered
  tree, and the well-formedness / row-accounting validators the fuzz
  harness and the property tests share.
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms under one registry lock, with a Prometheus text exporter
  (and a parser for round-trip tests).  ``engine/stats.py`` keeps its
  public face but stores its counters here.
"""

from repro.obs.clock import Clock, ManualClock, MonotonicClock
from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                               global_registry, parse_prometheus)
from repro.obs.tracer import (MalformedSpanError, Span, Tracer,
                              activate, active_tracer,
                              audit_statement_span, render_tree,
                              validate_span_tree)

__all__ = [
    "Clock", "ManualClock", "MonotonicClock",
    "DEFAULT_BUCKETS", "MetricsRegistry", "global_registry",
    "parse_prometheus",
    "MalformedSpanError", "Span", "Tracer", "activate",
    "active_tracer", "audit_statement_span", "render_tree",
    "validate_span_tree",
]
