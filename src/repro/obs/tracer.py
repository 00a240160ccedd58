"""Structured tracing: nested spans with an injectable clock.

Span model
----------

A :class:`Span` is a named interval with attributes and children.  The
engine emits three levels of nesting::

    plan                      (core/execute.py: one generated plan)
      plan-step               (one generated SQL statement boundary)
        statement             (api/database.py: one executed statement)
          join / group-by / pivot          (operator spans)
          scan / write / update / ...      (zero-duration "charge"
                                            events carrying counter
                                            deltas)
          governor / encoding-cache / savepoint / rollback (events)

Ad-hoc statements (``db.execute``) produce bare ``statement`` roots.

Charge events are the accounting backbone: every event with
``kind="charge"`` carries the same counter names as
:mod:`repro.engine.stats`, and :func:`audit_statement_span` asserts
that the charges below a statement span sum exactly to the counter
deltas the statement recorded.  The fuzz harness and the Hypothesis
property tests both run that audit.

Threading
---------

Each thread keeps its own span stack, so concurrent sessions sharing
one tracer interleave without corrupting each other's nesting.
Deep modules with no executor reference (the governor, the column
encoder) reach the ambient tracer through
:func:`activate` / :func:`active_tracer`, which is also thread-local.

When the tracer is disabled, :meth:`Tracer.span` returns a shared
null context manager -- the off-path cost is one property read and
one branch (``obs.tracing_overhead_ratio`` in ``benchmarks/e2e`` is
the measured cost of turning it on).

Forced capture (EXPLAIN ANALYZE on a tracing-off database) is
*thread-scoped*: :meth:`Tracer.forced` makes the calling thread record
for a ``with`` block without flipping the shared switch, so no other
thread starts recording, and the root it opens is handed to whoever
forced it rather than appended to :meth:`Tracer.roots`.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.obs.clock import Clock, MonotonicClock

#: Counters audited by :func:`audit_statement_span`: every engine site
#: that charges one of these to StatsCollector also emits a
#: ``kind="charge"`` event with the same name=delta attribute, so the
#: span tree and the stats ledger must agree exactly.
#: (``case_evaluations`` is charged per-row deep inside expression
#: evaluation, with no span-event mirror, so it is not audited.)
AUDITED_COUNTERS = (
    "rows_scanned", "rows_written", "rows_updated", "rows_joined",
    "encode_cache_hits", "encode_cache_misses",
    "storage_page_fetches", "storage_pool_hits", "storage_page_reads",
)


class MalformedSpanError(Exception):
    """A span tree violated a structural invariant."""


class Span:
    """One named interval.  ``end`` is ``None`` until the span closes;
    an *event* is a span whose ``end == start``."""

    __slots__ = ("name", "kind", "start", "end", "attrs", "children")

    def __init__(self, name: str, kind: str, start: float,
                 attrs: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_event(self) -> bool:
        return self.end == self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: Optional[str] = None,
             kind: Optional[str] = None) -> list["Span"]:
        return [span for span in self.walk()
                if (name is None or span.name == name)
                and (kind is None or span.kind == kind)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"children={len(self.children)})")


class _NullContext:
    """Returned by ``span()`` when tracing is off: enter yields None."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanHandle:
    """Context manager for one enabled span.  The span is created and
    attached to its parent at ``__enter__`` (so sibling order is open
    order, deterministic under serial execution) and closed at exit."""

    __slots__ = ("_tracer", "_name", "_kind", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, kind: str,
                 attrs: dict):
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = Span(self._name, self._kind, tracer.clock.now(),
                    self._attrs)
        stack = tracer._stack()
        tracer._attach(span, stack[-1] if stack else None)
        stack.append(span)
        self.span = span
        return span

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> bool:
        span = self.span
        if span is not None:
            if exc_type is not None:
                span.attrs.setdefault("error",
                                      getattr(exc_type, "__name__",
                                              str(exc_type)))
            span.end = self._tracer.clock.now()
            stack = self._tracer._stack()
            if stack and stack[-1] is span:
                stack.pop()
            else:  # pragma: no cover - unbalanced exit, keep sane
                try:
                    stack.remove(span)
                except ValueError:
                    pass
        return False


class _ThreadState(threading.local):
    """One thread's view of a tracer: its span stack, and whether a
    :meth:`Tracer.forced` capture is open on it."""

    forced = False

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Span collector with per-thread stacks and a shared root list."""

    def __init__(self, clock: Optional[Clock] = None,
                 enabled: bool = False):
        self.clock = clock if clock is not None else MonotonicClock()
        self._shared = enabled
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._local = _ThreadState()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether the calling thread records: the shared switch, or a
        :meth:`forced` capture open on this thread."""
        return self._shared or self._local.forced

    def enable(self) -> None:
        self._shared = True

    def disable(self) -> None:
        self._shared = False

    @contextmanager
    def forced(self) -> Iterator[None]:
        """Record this thread's spans for the duration, whatever the
        shared switch says.  Other threads are unaffected, and a root
        opened while only the force is on stays out of :meth:`roots`
        (its opener holds it)."""
        previous = self._local.forced
        self._local.forced = True
        try:
            yield
        finally:
            self._local.forced = previous

    def _stack(self) -> list[Span]:
        return self._local.stack

    def _attach(self, span: Span, parent: Optional[Span]) -> None:
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        elif self._shared:
            with self._lock:
                self._roots.append(span)

    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "span", **attrs: Any):
        """Open a child of this thread's current span (``with`` it)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanHandle(self, name, kind, attrs)

    def event(self, name: str, kind: str = "event",
              **attrs: Any) -> Optional[Span]:
        """Record a zero-duration span under the current span."""
        if not self.enabled:
            return None
        span = Span(name, kind, self.clock.now(), attrs)
        span.end = span.start
        stack = self._stack()
        self._attach(span, stack[-1] if stack else None)
        return span

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        """Drop collected roots (this thread's stack too)."""
        with self._lock:
            self._roots.clear()
        self._local.stack = []

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize every root tree, one JSON object per span."""
        return spans_to_jsonl(self.roots())


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------
def spans_to_jsonl(roots: list[Span]) -> str:
    lines: list[str] = []
    counter = [0]

    def emit(span: Span, parent_id: Optional[int]) -> None:
        span_id = counter[0]
        counter[0] += 1
        lines.append(json.dumps({
            "id": span_id, "parent": parent_id, "name": span.name,
            "kind": span.kind, "start": span.start, "end": span.end,
            "attrs": span.attrs,
        }, sort_keys=True, default=str))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[Span]:
    """Rebuild root spans from :func:`spans_to_jsonl` output."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        span = Span(record["name"], record["kind"], record["start"],
                    record["attrs"])
        span.end = record["end"]
        by_id[record["id"]] = span
        parent = record["parent"]
        if parent is None:
            roots.append(span)
        else:
            by_id[parent].children.append(span)
    return roots


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_tree(root: Span,
                normalize: Optional[Callable[[str], str]] = None,
                indent: int = 0) -> str:
    """Render a span tree as indented text.

    Durations print in milliseconds with microsecond precision --
    deterministic under a :class:`~repro.obs.clock.ManualClock`.
    Events (zero duration) print without one.  ``normalize`` is
    applied to every string attribute value (the golden tests use it
    to canonicalize generated temp-table names).
    """
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        parts = [span.name]
        if span.end is not None and span.end > span.start:
            parts.append(f"{(span.end - span.start) * 1000:.3f}ms")
        for key in sorted(span.attrs):
            value = span.attrs[key]
            text = _format_value(value)
            if normalize is not None and isinstance(value, str):
                text = normalize(text)
            parts.append(f"{key}={text}")
        lines.append("  " * depth + " ".join(parts))
        for child in span.children:
            emit(child, depth + 1)

    emit(root, indent)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_span_tree(root: Span) -> None:
    """Raise :class:`MalformedSpanError` unless the tree is well
    formed: every span closed, non-negative durations, every child
    interval contained within its parent's."""
    for span in root.walk():
        if span.end is None:
            raise MalformedSpanError(
                f"span {span.name!r} was never closed")
        if span.end < span.start:
            raise MalformedSpanError(
                f"span {span.name!r} ends before it starts "
                f"({span.start} -> {span.end})")
        for child in span.children:
            if child.end is None:
                raise MalformedSpanError(
                    f"span {child.name!r} (child of {span.name!r}) "
                    f"was never closed")
            if child.start < span.start or child.end > span.end:
                raise MalformedSpanError(
                    f"child {child.name!r} interval "
                    f"[{child.start}, {child.end}] escapes parent "
                    f"{span.name!r} [{span.start}, {span.end}]")


def audit_statement_span(statement: Span) -> None:
    """Check the row accounting of one ``kind="statement"`` span: the
    ``kind="charge"`` events beneath it must sum, counter by counter,
    to the statement's own recorded counter attributes.

    This ties the trace to the stats ledger -- a site that charges
    StatsCollector without emitting the mirror event (or vice versa)
    fails here.  Only meaningful for serially-executed statements: a
    concurrent statement's counter attributes are a diff over shared
    counters and may include other sessions' work.
    """
    sums: dict[str, int] = {name: 0 for name in AUDITED_COUNTERS}
    for span in statement.walk():
        if span is statement or span.kind != "charge":
            continue
        for name in AUDITED_COUNTERS:
            value = span.attrs.get(name)
            if value is not None:
                sums[name] += int(value)
    mismatches = []
    for name in AUDITED_COUNTERS:
        recorded = int(statement.attrs.get(name, 0))
        if sums[name] != recorded:
            mismatches.append(
                f"{name}: events sum to {sums[name]}, statement "
                f"recorded {recorded}")
    if mismatches:
        raise MalformedSpanError(
            "statement span "
            f"{statement.attrs.get('sql', statement.name)!r} fails "
            "the charge audit: " + "; ".join(mismatches))


# ----------------------------------------------------------------------
# Ambient (thread-local) tracer
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def active_tracer() -> Optional[Tracer]:
    """The tracer activated on this thread, or ``None``."""
    return getattr(_ACTIVE, "tracer", None)


class _Activation:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc: object) -> bool:
        _ACTIVE.tracer = self._previous
        return False


def activate(tracer: Optional[Tracer]) -> _Activation:
    """Make ``tracer`` this thread's ambient tracer for a ``with``
    block, so modules without an executor reference (governor, column
    encoder) can emit events into the right tree."""
    return _Activation(tracer)
