"""How one op runs: untraced through the real entry point, and traced
stage by stage from out here.

The untraced forms call exactly what a user calls --
``run_percentage_query``, ``Database.execute``, ``Session.execute`` --
and consume the rows.  The staged forms make the same calls into the
same public functions one stage at a time, each under a benchmark
span, so a layer's time is measured without a line of ``src/repro``
knowing about it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.api.database import Database
from repro.core import plan as plan_mod
from repro.core.execute import (cleanup_plan, generate_plan,
                                run_percentage_query)
from repro.core.model import parse_percentage_query
from repro.core.optimizer import (choose_horizontal_strategy,
                                  choose_vertical_strategy)
from repro.core.validate import validate
from repro.engine.table import Table
from repro.olap.windowgen import generate_olap_percentage_query
from repro.sql.parser import parse_script, parse_statement
from repro.sql.tokens import tokenize

from .spans import Recorder

#: Plan steps the generator already ran while generating.
_GENERATION_TIME = (plan_mod.DISCOVER, plan_mod.MATERIALIZE)


@dataclass(frozen=True)
class Op:
    """One request of a workload's cycle."""

    name: str   # the op type: latencies are summarised per name
    kind: str   # "read", "write" or "maint" (a checkpoint)
    mode: str   # "pct", "olap", "svc" or "checkpoint"
    sql: str    # for "olap": the Vpct text the window query is built from
    adds: int = 0   # rows a write must report and add to its table


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def shape_of(value: Any) -> tuple:
    """``(rows, columns)`` of a result table, ``(count,)`` of a DML
    row count."""
    if isinstance(value, Table):
        return (value.n_rows, value.schema.width())
    return (value,)


def digest_of(value: Any) -> str:
    """A bit-exact fingerprint of a result: column names, types, null
    masks, row order and the raw bytes of the live values."""
    if not isinstance(value, Table):
        return repr(value)
    h = hashlib.blake2b(digest_size=16)
    for name in value.column_names():
        column = value.column(name)
        nulls = np.asarray(column.nulls, dtype=bool)
        live = np.asarray(column.values)[~nulls]
        h.update(f"{name}:{column.sql_type.name}:{len(nulls)}".encode())
        h.update(nulls.tobytes())
        h.update(repr(live.tolist()).encode() if live.dtype == object
                 else live.tobytes())
    return h.hexdigest()


def statement_class(sql: str) -> str:
    """The engine statement class a SQL text belongs to, by its
    leading keywords."""
    words = sql.lstrip().split(None, 3)[:3]
    head = " ".join(words).upper()
    if head.startswith("SELECT"):
        return "select"
    if head.startswith("INSERT"):
        return "insert_select"
    if head.startswith("UPDATE"):
        return "update"
    if head.startswith("CREATE TABLE"):
        return "create_table"
    if head.startswith(("CREATE INDEX", "CREATE UNIQUE INDEX")):
        return "create_index"
    if head.startswith("DROP"):
        return "drop"
    return "other"


# ----------------------------------------------------------------------
# Untraced: the real entry points
# ----------------------------------------------------------------------
def run_op(ctx, op: Op) -> Any:
    """Run ``op`` as a user would and consume its rows.  Returns the
    result: a table, or a row count."""
    if op.mode == "checkpoint":
        ctx.db.checkpoint()
        return 0
    if op.mode == "pct":
        value = run_percentage_query(ctx.db, op.sql)
    elif op.mode == "olap":
        value = ctx.db.execute(generate_olap_percentage_query(op.sql))
    else:
        value = ctx.session.execute(op.sql).result
    if isinstance(value, Table):
        value.to_rows()
    return value


# ----------------------------------------------------------------------
# Traced: the same calls, one stage at a time
# ----------------------------------------------------------------------
def _engine_name(span) -> Optional[str]:
    """Benchmark names for the engine tracer's spans."""
    if span.kind == "statement":
        return "engine.statement." + statement_class(
            str(span.attrs.get("sql", "")))
    if span.kind == "operator":
        return "engine.op." + span.name
    if span.kind == "script":
        return "service.script"
    if span.kind in ("plan", "plan-step"):
        return "core." + span.kind
    return "engine." + span.name


def _operator_name(span) -> Optional[str]:
    """As :func:`_engine_name`, but the tracer's statement span is
    spliced out: ``StagedDatabase`` records its own around the same
    call and keeps only the operator spans below it."""
    return None if span.kind == "statement" else _engine_name(span)


class StagedDatabase(Database):
    """A traced ``Database`` whose textual entry point is split into
    its stages -- tokenize, parse, execute -- each under a span of
    ``recorder``.  Feedback statements the optimizer and the code
    generator send through ``db.query`` land here too, under whichever
    core span is open."""

    def __init__(self, recorder: Recorder, **options: Any):
        super().__init__(tracing=True, **options)
        self.recorder = recorder

    def execute(self, sql: str, **options: Any):
        rec = self.recorder
        # ``parse_statement`` tokenizes internally; this extra pass is
        # there only to time tokenizing on its own.
        with rec.span("sql.tokenize", bytes=len(sql)):
            tokenize(sql)
        with rec.span("sql.parse"):
            statement = parse_statement(sql)
        with rec.span("engine.statement." + statement_class(sql)) as span:
            result = self.execute_statement(statement, sql, **options)
        roots = self.tracer.roots()
        self.tracer.reset()
        span["attrs"]["tracer_spans"] = rec.fold(roots, span,
                                                 _operator_name)
        return result


def _staged_percentage(db: StagedDatabase, rec: Recorder,
                       sql: str) -> Table:
    with rec.span("core.parse_query"):
        query = parse_percentage_query(sql)
        validate(query)
    with rec.span("core.optimize"):
        strategy = (choose_vertical_strategy(db, query)
                    if query.has_vertical_pct
                    else choose_horizontal_strategy(db, query))
    with rec.span("core.codegen"):
        plan = generate_plan(db, query, strategy)
    try:
        for step in plan.steps:
            if step.purpose not in _GENERATION_TIME:
                db.execute(step.sql)
        table = db.execute(plan.result_select)
    finally:
        with rec.span("core.cleanup"):
            cleanup_plan(db, plan)
    return table


def _replay_sql(rec: Recorder, op_span: dict, script_sql: str,
                trace) -> None:
    """The service parses inside its own threads, out of reach of a
    span from here.  Re-run the lexer and parser over the very texts
    it handled -- the submitted script and each statement the engine
    tracer saw -- in a tree of its own, after the op, so the op's
    latency is not touched."""
    texts = [script_sql] + [str(s.attrs["sql"])
                            for s in trace.find(kind="statement")
                            if s.attrs.get("sql")]
    with rec.span("sql.replay", of=op_span["op"],
                  type=op_span["attrs"]["type"],
                  cycle=op_span["attrs"]["cycle"]):
        for text in texts:
            with rec.span("sql.tokenize", bytes=len(text)):
                tokenize(text)
            with rec.span("sql.parse"):
                parse_script(text)


def run_op_staged(ctx, op: Op, rec: Recorder, cycle: int) -> Any:
    """Run ``op`` stage by stage under one ``op`` tree of ``rec``."""
    report = None
    with rec.span("op", type=op.name, kind=op.kind,
                  cycle=cycle) as op_span:
        if op.mode == "pct":
            value = _staged_percentage(ctx.db, rec, op.sql)
        elif op.mode == "olap":
            with rec.span("olap.windowgen"):
                sql = generate_olap_percentage_query(op.sql)
            value = ctx.db.execute(sql)
        elif op.mode == "checkpoint":
            with rec.span("storage.checkpoint"):
                ctx.db.checkpoint()
            value = 0
        else:
            started = time.perf_counter()
            report = ctx.session.execute(op.sql)
            returned = time.perf_counter()
            value = report.result
            trace = report.trace
            ctx.db.tracer.reset()
            # The scheduler stamps the wait right before it opens the
            # script span, so the wait ends where the script starts.
            rec.add("service.queue_wait",
                    max(started, trace.start - report.queue_wait_seconds),
                    trace.start)
            op_span["attrs"]["tracer_spans"] = rec.fold(
                [trace], op_span, _engine_name)
            op_span["attrs"]["service_overhead"] = \
                (returned - started) - report.elapsed_seconds
            op_span["attrs"]["brownout"] = int(report.brownout)
        if isinstance(value, Table):
            with rec.span("api.materialize",
                          cells=value.n_rows * value.schema.width()):
                value.to_rows()
    if report is not None:
        _replay_sql(rec, op_span, op.sql, report.trace)
    return value
