"""EXPLAIN: render the evaluation plan of a statement as text rows.

The explanation mirrors what the interpreting executor will actually
do -- scan order, join keys and whether a covering index serves the
build side, residual filters, grouping, and the post-processing steps
-- without executing anything.  The output is a one-column table so it
flows through the same result channels as any query (cursor, CLI...).
"""

from __future__ import annotations

from typing import Optional

from repro.engine import cancel
from repro.engine.column import ColumnData
from repro.engine.planner import plan_from
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.obs import tracer as tracer_mod
from repro.obs.tracer import render_tree
from repro.sql import ast
from repro.sql.formatter import format_expr, format_statement


def explain_statement(executor, statement: ast.Statement) -> Table:
    """One plan line per row (column ``plan``)."""
    return _plan_table(_plan_lines(executor, statement))


def explain_analyze_statement(executor, statement: ast.Statement,
                              normalize=None) -> Table:
    """EXPLAIN ANALYZE: the static plan, then the actuals span tree.

    The statement **executes for real** (DML mutates, temps persist)
    under the executor's own tracer, force-enabled for the duration so
    EXPLAIN ANALYZE works on databases opened with tracing off.  The
    trace renders from a private statement span, so concurrent
    statements on other threads never leak into the output.
    """
    lines = _plan_lines(executor, statement)
    tracer = executor.tracer
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        before = executor.stats.snapshot()
        with tracer_mod.activate(tracer), \
                tracer.span("statement", kind="statement",
                            sql=format_statement(statement)) as span:
            result = executor.execute(statement)
            if span is not None:
                span.attrs["result_rows"] = (
                    result.n_rows if isinstance(result, Table)
                    else int(result))
                # Counter deltas, mirroring Database._run_locked, so
                # this statement span passes the charge audit too.
                span.attrs.update(
                    executor.stats.diff_since(before).counters())
    finally:
        if not was_enabled:
            tracer.disable()
    lines.append("-- actual --")
    lines.extend(render_tree(span, normalize=normalize).splitlines())
    return _plan_table(lines)


def _plan_table(lines: list[str]) -> Table:
    data = ColumnData.from_values(SQLType.VARCHAR, lines)
    return Table.from_columns("explain", [("plan", data)])


def _plan_lines(executor, statement: ast.Statement) -> list[str]:
    lines: list[str] = []
    if isinstance(statement, ast.Select):
        mv = executor.matview_for_select(statement)
        if mv is not None:
            lines.append(_matview_line(executor, mv))
        else:
            _explain_select(executor, statement, lines, indent=0)
    elif isinstance(statement, ast.InsertSelect):
        lines.append(f"insert into {statement.table}")
        _explain_select(executor, statement.select, lines, indent=1)
    elif isinstance(statement, ast.CreateTableAs):
        lines.append(f"create table {statement.name} as")
        _explain_select(executor, statement.select, lines, indent=1)
    elif isinstance(statement, ast.Update):
        lines.append(f"update {statement.table.name}"
                     + (" (join update)" if statement.from_tables
                        else ""))
    elif isinstance(statement, ast.Delete):
        lines.append(f"delete from {statement.table.name}")
    else:
        lines.append(type(statement).__name__.lower())
    parallel = _parallel_line(executor)
    if parallel is not None:
        lines.append(parallel)
    lines.append(_governor_line(executor))
    deadline = _deadline_line()
    if deadline is not None:
        lines.append(deadline)
    storage = _storage_line(executor)
    if storage is not None:
        lines.append(storage)
    lines.append(_cache_line(executor))
    return lines


def _parallel_line(executor) -> Optional[str]:
    """The intra-query parallelism this statement may use; omitted
    entirely when the engine is serial, so serial plans are unchanged
    (the governor line stays second-to-last either way)."""
    opts = executor.options
    if opts.parallel_degree <= 1 or opts.parallel_backend == "serial":
        return None
    return (f"parallel: degree={opts.parallel_degree} "
            f"backend={opts.parallel_backend} "
            f"(morsel rows {opts.morsel_rows})")


def _governor_line(executor) -> str:
    """The resource budgets this statement will run under (the cache
    line stays last; consumers assert on the leading rows)."""
    return f"governor: {executor.governor.budget.describe()}"


def _deadline_line() -> Optional[str]:
    """The ambient cancel token's deadline, if one is active; omitted
    entirely otherwise so deadline-free plans are unchanged (the cache
    line stays last either way)."""
    token = cancel.active_token()
    if token is None:
        return None
    remaining = token.remaining()
    if remaining is None:
        return "deadline: none (cancellable)"
    return f"deadline: {remaining:.3f}s remaining"


def _storage_line(executor) -> Optional[str]:
    """The table substrate plus buffer-pool occupancy; omitted on the
    memory backend so existing plans are unchanged (the cache line
    stays last either way)."""
    if executor.options.storage != "disk":
        return None
    engine = getattr(executor.catalog, "storage", None)
    if engine is None:
        return "storage: disk"
    pool = engine.pool.info()
    return (f"storage: disk page_size={engine.page_size} "
            f"pool={pool['pages']}/{pool['capacity']} pages "
            f"hits={pool['hits']} misses={pool['misses']} "
            f"evictions={pool['evictions']}")


def _cache_line(executor) -> str:
    """Encoding-cache occupancy/traffic, appended as the last plan row
    (existing consumers assert on the leading rows)."""
    if not executor.options.use_encoding_cache:
        return "encoding cache: off"
    info = executor.catalog.encoding_cache.info()
    return (f"encoding cache: {info['entries']} entries, "
            f"{info['bytes']} bytes, hits={info['hits']} "
            f"misses={info['misses']} evictions={info['evictions']}")


def _explain_select(executor, select: ast.Select, lines: list[str],
                    indent: int) -> None:
    pad = "  " * indent

    def emit(text: str, extra: int = 0) -> None:
        lines.append(pad + "  " * extra + text)

    if select.limit is not None:
        emit(f"limit {select.limit}")
    if select.order_by:
        keys = ", ".join(format_expr(o.expr)
                         + ("" if o.ascending else " DESC")
                         for o in select.order_by)
        emit(f"sort by {keys}")
    if select.distinct:
        emit("distinct")
    if _is_aggregate(select):
        group = ", ".join(format_expr(e) for e in select.group_by)
        emit("aggregate" + (f" group by {group}" if group
                            else " (global)"))
        if ast.has_grouping_sets(select):
            emit(f"grouping-sets: {_count_grouping_sets(select)} sets, "
                 f"shared-scan", 1)
        if select.having is not None:
            emit(f"having {format_expr(select.having)}", 1)

    if select.from_ is None:
        emit("single-row source")
        return

    schemas = {}
    for source in select.from_.sources():
        binding = source.binding.lower()
        schemas[binding] = _source_schema(executor, source)

    def resolve_binding(ref: ast.ColumnRef,
                        candidates: list[str]) -> Optional[str]:
        if ref.table:
            key = ref.table.lower()
            if key in candidates and schemas.get(key) is not None \
                    and schemas[key].has_column(ref.name):
                return key
            return None
        owners = [b for b in candidates
                  if schemas.get(b) is not None
                  and schemas[b].has_column(ref.name)]
        return owners[0] if len(owners) == 1 else None

    plan = plan_from(select.from_, select.where, resolve_binding)
    if plan.residual_where is not None:
        emit(f"filter {format_expr(plan.residual_where)}")
    for join in reversed(plan.joins):
        if not join.left_keys:
            emit(f"cartesian join {join.source.binding}")
        else:
            keys = ", ".join(
                f"{format_expr(l)} = {format_expr(r)}"
                for l, r in zip(join.left_keys, join.right_keys))
            index_note = _index_note(executor, join)
            kind = "left outer join" if join.kind == "left" \
                else "hash join"
            emit(f"{kind} {join.source.binding} on {keys}{index_note}")
        if join.residual is not None:
            emit(f"filter {format_expr(join.residual)}", 1)
    emit(_scan_line(executor, plan.first.source))


def _count_grouping_sets(select: ast.Select) -> int:
    """How many grouping sets the GROUP BY clause requests (the cross
    product of its elements' expansions)."""
    total = 1
    for element in select.group_by:
        if isinstance(element, ast.Cube):
            total *= 2 ** len(element.exprs)
        elif isinstance(element, ast.Rollup):
            total *= len(element.exprs) + 1
        elif isinstance(element, ast.GroupingSets):
            total *= len(element.sets)
    return total


def _is_aggregate(select: ast.Select) -> bool:
    if select.group_by or select.having is not None:
        return True
    return any(not isinstance(item.expr, ast.Star)
               and ast.contains_aggregate(item.expr)
               for item in select.items)


def _source_schema(executor, source: ast.FromSource):
    if isinstance(source, ast.TableRef):
        if executor.catalog.has_table(source.name):
            return executor.catalog.table(source.name).schema
        return None  # view or missing: columns resolved at run time
    return None      # derived table


def _matview_line(executor, mv) -> str:
    """The answered-from-a-materialized-view plan row; freshness is
    relative to the base table's current version."""
    base = executor.catalog.table(mv.definition.base_table)
    freshness = "fresh" if mv.fresh(base) else "stale"
    return f"view: {mv.definition.name} ({freshness}@v{mv.base_version})"


def _scan_line(executor, source: ast.FromSource) -> str:
    if isinstance(source, ast.TableRef):
        if executor.catalog.has_matview(source.name):
            return _matview_line(
                executor, executor.catalog.matview(source.name)) \
                .replace("view: ", "materialized view scan ", 1)
        if executor.catalog.has_view(source.name):
            return f"view scan {source.name}"
        if executor.catalog.has_table(source.name):
            rows = executor.catalog.table(source.name).n_rows
            return f"scan {source.name} ({rows} rows)"
        return f"scan {source.name}"
    return f"derived table {source.alias}"


def _index_note(executor, join) -> str:
    source = join.source.source
    if not isinstance(source, ast.TableRef) \
            or not executor.options.use_indexes \
            or not executor.catalog.has_table(source.name):
        return ""
    key_names = [ref.name for ref in join.right_keys]
    index = executor.catalog.find_index(source.name, key_names)
    if index is not None:
        return f" [index {index.name}]"
    return ""
