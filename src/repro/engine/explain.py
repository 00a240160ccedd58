"""EXPLAIN: render the evaluation plan of a statement as text rows.

EXPLAIN renders the very :class:`~repro.engine.planner.SelectPlan`
the executor would run -- scan order, join keys, residual filters,
grouping, and the post-processing steps -- without executing
anything, so what it prints is what runs.  The output is a one-column
table so it flows through the same result channels as any query
(cursor, CLI...).
"""

from __future__ import annotations

from typing import Optional

from repro.engine import cancel
from repro.engine.column import ColumnData
from repro.engine.planner import plan_update_join
from repro.engine.scope import render_explain_analyze
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.sql import ast
from repro.sql.formatter import format_expr, format_statement


def explain_statement(executor, statement: ast.Statement,
                      use_views: bool = True) -> Table:
    """One plan line per row (column ``plan``)."""
    return _plan_table(_plan_lines(executor, statement, use_views))


def explain_analyze_statement(executor, statement: ast.Statement,
                              use_views: bool = True) -> Table:
    """EXPLAIN ANALYZE: the static plan, then the actuals span tree.

    The statement **executes for real** (DML mutates, temps persist)
    as a nested query scope with tracing forced, so EXPLAIN ANALYZE
    works on databases opened with tracing off.  The force is
    thread-scoped and the trace renders from the scope's own
    statement span, so concurrent statements on other threads neither
    leak into the output nor start recording themselves.
    """
    lines = _plan_lines(executor, statement, use_views)
    _, record = executor.run_statement(
        statement, use_views, sql=format_statement(statement),
        force_trace=True)
    return _plan_table(render_explain_analyze(
        lines + ["-- actual --"], record.trace).splitlines())


def _plan_table(lines: list[str]) -> Table:
    data = ColumnData.from_values(SQLType.VARCHAR, lines)
    return Table.from_columns("explain", [("plan", data)])


def _plan_lines(executor, statement: ast.Statement,
                use_views: bool) -> list[str]:
    lines: list[str] = []
    if isinstance(statement, ast.Select):
        _explain_select(executor, statement, lines, 0, use_views)
    elif isinstance(statement, ast.InsertSelect):
        lines.append(f"insert into {statement.table}")
        _explain_select(executor, statement.select, lines, 1, use_views)
    elif isinstance(statement, ast.CreateTableAs):
        lines.append(f"create table {statement.name} as")
        _explain_select(executor, statement.select, lines, 1, use_views)
    elif isinstance(statement, ast.Update):
        lines.append(f"update {statement.table.name}"
                     + (" (join update)" if statement.from_tables
                        else ""))
        if statement.from_tables:
            _explain_joins(plan_update_join(statement, executor.catalog),
                           lines, indent=1)
    elif isinstance(statement, ast.Delete):
        lines.append(f"delete from {statement.table.name}")
    else:
        lines.append(type(statement).__name__.lower())
    lines.append(_governor_line(executor))
    deadline = _deadline_line()
    if deadline is not None:
        lines.append(deadline)
    storage = _storage_line(executor)
    if storage is not None:
        lines.append(storage)
    return lines


def _governor_line(executor) -> str:
    """The resource budgets this statement will run under."""
    return f"governor: {executor.governor.budget.describe()}"


def _deadline_line() -> Optional[str]:
    """The ambient cancel token's deadline, if one is active; omitted
    entirely otherwise so deadline-free plans are unchanged."""
    token = cancel.active_token()
    if token is None:
        return None
    remaining = token.remaining()
    if remaining is None:
        return "deadline: none (cancellable)"
    return f"deadline: {remaining:.3f}s remaining"


def _storage_line(executor) -> Optional[str]:
    """The table substrate plus buffer-pool occupancy; omitted when
    the catalog is memory-resident (no storage engine behind it) so
    those plans are unchanged."""
    engine = executor.catalog.storage
    if engine is None:
        return None
    pool = engine.pool.info()
    return (f"storage: disk page_size={engine.page_size} "
            f"pool={pool['pages']}/{pool['capacity']} pages "
            f"hits={pool['hits']} misses={pool['misses']} "
            f"evictions={pool['evictions']}")


def _explain_select(executor, select: ast.Select, lines: list[str],
                    indent: int, use_views: bool) -> None:
    """Render the SelectPlan the executor would run, top step first."""
    plan = executor.plan_select(select, use_views)
    pad = "  " * indent

    def emit(text: str, extra: int = 0) -> None:
        lines.append(pad + "  " * extra + text)

    if plan.matview is not None:
        emit(_matview_line(executor, plan.matview))
        return
    if select.limit is not None:
        emit(f"limit {select.limit}")
    if select.order_by:
        keys = ", ".join(format_expr(o.expr)
                         + ("" if o.ascending else " DESC")
                         for o in select.order_by)
        emit(f"sort by {keys}")
    if select.distinct:
        emit("distinct")
    if plan.mode != "projection":
        group = ", ".join(format_expr(e) for e in select.group_by)
        emit("aggregate" + (f" group by {group}" if group
                            else " (global)"))
        if ast.has_grouping_sets(select):
            emit(f"grouping-sets: {len(plan.grouping_sets)} sets, "
                 f"shared-scan", 1)
        if select.having is not None:
            emit(f"having {format_expr(select.having)}", 1)

    if plan.from_plan is None:
        emit("single-row source")
        return
    _explain_joins(plan.from_plan, lines, indent)
    emit(_scan_line(executor, plan.from_plan.first))


def _explain_joins(from_plan, lines: list[str], indent: int) -> None:
    """The residual filter, then one line per join, last join first."""
    pad = "  " * indent
    if from_plan.residual_where is not None:
        lines.append(
            f"{pad}filter {format_expr(from_plan.residual_where)}")
    for join in reversed(from_plan.joins):
        if not join.left_keys:
            lines.append(f"{pad}cartesian join {join.source.binding}")
        else:
            keys = ", ".join(
                f"{format_expr(l)} = {format_expr(r)}"
                for l, r in zip(join.left_keys, join.right_keys))
            kind = "left outer join" if join.kind == "left" \
                else "hash join"
            lines.append(f"{pad}{kind} {join.source.binding} on {keys}")
        if join.residual is not None:
            lines.append(f"{pad}  filter {format_expr(join.residual)}")


def _matview_line(executor, mv) -> str:
    """The answered-from-a-materialized-view plan row; freshness is
    relative to the base table's current version."""
    base = executor.catalog.table(mv.definition.base_table)
    freshness = "fresh" if mv.fresh(base) else "stale"
    return f"view: {mv.definition.name} ({freshness}@v{mv.base_version})"


def _scan_line(executor, source) -> str:
    if source.kind == "derived":
        return f"derived table {source.binding}"
    name = source.source.name
    if source.kind == "matview":
        return _matview_line(executor, executor.catalog.matview(name)) \
            .replace("view: ", "materialized view scan ", 1)
    if source.kind == "view":
        return f"view scan {name}"
    return f"scan {name} ({executor.catalog.table(name).n_rows} rows)"
