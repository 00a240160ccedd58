"""The benchmark's own in-memory span recorder.

One request (op) is one tree: a root span named ``op`` and, below it,
one span per call the benchmark makes into a layer.  A span is a dict
``{id, op, parent, name, start, end, attrs}``; every span of a tree
carries the tree's op id.  Spans stay in memory and are written as
JSON lines when the run ends.

The engine's existing tracer (``Database(tracing=True)``) records its
operator spans on the same ``time.perf_counter`` clock, so
:meth:`Recorder.fold` can hang them under the benchmark span that
caused them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional

#: Slack for interval containment: spans opened back to back can read
#: the same clock tick.
_EPS = 1e-9


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._next_op = 0

    # ------------------------------------------------------------------
    def add(self, name: str, start: float, end: float,
            parent: Optional[dict] = None, **attrs: Any) -> dict:
        """Record a span with known bounds under ``parent`` (default:
        the innermost open span)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent["op"]
        span = {"id": len(self.spans), "op": op,
                "parent": parent["id"] if parent else None,
                "name": name, "start": start, "end": end,
                "attrs": attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Time the ``with`` body as a child of the innermost open
        span; with none open it starts a new tree (a new op id)."""
        span = self.add(name, time.perf_counter(), 0.0, **attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def fold(self, tracer_spans: Iterable[Any], parent: dict,
             rename) -> int:
        """Copy engine tracer spans (and their subtrees) under
        ``parent``.  ``rename(span)`` gives the recorded name, or None
        to splice the span out and attach its children to ``parent``
        directly.  Zero-duration events are counted, not copied.
        Returns the number of tracer spans seen."""
        seen = 0
        for source in tracer_spans:
            seen += 1
            if source.is_event:
                continue
            name = rename(source)
            target = parent
            if name is not None:
                attrs = {k: v for k, v in source.attrs.items()
                         if isinstance(v, (int, float)) or k == "purpose"}
                target = self.add(name, source.start, source.end,
                                  parent=parent, **attrs)
            seen += self.fold(source.children, target, rename)
        return seen

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans: list[dict]) -> dict[int, list[dict]]:
    by_parent: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            by_parent[span["parent"]].append(span)
    return by_parent


def self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the part of the interval the children cover
    (overlapping children count once)."""
    covered = 0.0
    edge = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], edge)
        if child["end"] > start:
            covered += child["end"] - start
            edge = child["end"]
    return duration(span) - covered


def check_well_formed(spans: list[dict]) -> list[str]:
    """Structural defects of a span list, as messages (empty when
    sound): every span closes after it opens, every non-root span has
    a recorded parent of the same op whose interval contains it, and
    no two roots share an op id."""
    problems: list[str] = []
    by_id = {span["id"]: span for span in spans}
    root_ops: set[int] = set()
    for span in spans:
        label = f"span {span['id']} ({span['name']})"
        if span["end"] < span["start"]:
            problems.append(f"{label} ends before it starts")
        if span["parent"] is None:
            if span["op"] in root_ops:
                problems.append(f"{label} reuses op id {span['op']}")
            root_ops.add(span["op"])
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"{label} has no recorded parent")
            continue
        if parent["op"] != span["op"]:
            problems.append(f"{label} is in another op than its parent")
        if span["start"] < parent["start"] - _EPS \
                or span["end"] > parent["end"] + _EPS:
            problems.append(f"{label} lies outside its parent")
    return problems
