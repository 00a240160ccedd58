"""Statement execution: the interpreter that runs parsed SQL against a
catalog.

The executor is deliberately an *interpreting* engine (no compiled
plans): each SELECT is evaluated as

    FROM/WHERE join planning  ->  Dataset (aligned tables)
    -> residual filter
    -> aggregation (factorize + vectorized aggregates) or projection
    -> window functions
    -> DISTINCT -> HAVING -> ORDER BY -> LIMIT

DML statements (CREATE/INSERT/UPDATE/DELETE) mutate the catalog and
charge the statistics counters that the paper's cost arguments rely on
(rows scanned/written/updated, CASE term evaluations, index lookups).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import cancel, morsels
from repro.engine import pivot as pivot_mod
from repro.engine.catalog import Catalog
from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, evaluate, untyped_null
from repro.engine.governor import ResourceGovernor
from repro.engine import groupingsets as gs_mod
from repro.engine.groupby import (distinct_indices, encode_column,
                                  factorize)
from repro.engine.join import join_indices, prepare_side
from repro.engine.planner import (FromPlan, PlannedJoin,
                                  null_safe_equality, plan_from)
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType, coerce_scalar, type_from_name
from repro.engine.window import evaluate_window
from repro.errors import (ExecutionError, GroupingSetError,
                          PlanningError, TypeMismatchError)
from repro.obs.tracer import Tracer
from repro.sql import ast


@dataclass
class ExecutorOptions:
    """Tunable evaluation behavior.

    ``case_dispatch``:
        ``"linear"`` (default) evaluates every CASE term for every row,
        which is what the paper says real optimizers do; ``"hash"``
        enables the O(1)-per-row dispatch the paper proposes for
        disjoint pivot-style CASE aggregations (Section 3.2 /
        DMKD Section 3.5) -- the ablation benchmark toggles this.
    ``use_indexes``:
        when True, joins reuse a covering index's pre-built hash side.
    ``use_encoding_cache``:
        when True (default), base-table dictionary encodings are served
        from the catalog's table-versioned cache instead of being
        recomputed per plan step.  Disabling it (the
        ``--no-encoding-cache`` ablation) changes wall-clock time only;
        results and logical-I/O counters are identical either way.
    ``parallel_degree``:
        intra-query parallelism: with a degree above 1 a grouped
        aggregation whose grouping splits into at least two morsels
        fans out (the thread backend runs at most this many morsels at
        once).  Results are bit-identical to serial execution on every
        backend, so this is a wall-clock knob only.
    ``parallel_backend``:
        which dispatcher runs the morsels: ``"thread"`` (default) the
        shared operator thread pool over the in-process arrays;
        ``"process"`` the worker *process* pool over shared-memory
        column blocks (GIL-free -- see docs/parallelism.md);
        ``"serial"`` disables parallel aggregation regardless of
        ``parallel_degree``.
    ``morsel_rows``:
        target rows per morsel.  Smaller morsels improve load
        balancing on skewed groups; larger morsels amortize per-task
        dispatch overhead.
    ``storage``:
        which table substrate the owning Database runs on --
        ``"memory"`` (heap tables) or ``"disk"`` (page-backed tables
        behind a buffer pool).  Informational at the executor level
        (tables arrive already bound to their backend); EXPLAIN
        reports it.
    ``matview_rewrite``:
        when True (default), a SELECT that matches a registered
        materialized view's canonical definition is answered from the
        view (refreshing it first when stale), and percentage queries
        short-circuit through :func:`repro.core.execute.generate_plan`
        the same way.  ``Database.execute(..., use_views=False)``
        disables it per statement for recompute baselines.
    """

    case_dispatch: str = "linear"
    use_indexes: bool = True
    use_encoding_cache: bool = True
    parallel_degree: int = 1
    parallel_backend: str = "thread"
    morsel_rows: int = 8192
    storage: str = "memory"
    matview_rewrite: bool = True


#: Parallel execution substrates (``ExecutorOptions.parallel_backend``).
PARALLEL_BACKENDS = ("serial", "thread", "process")

#: Default target rows per morsel (mirrors
#: ``ExecutorOptions.morsel_rows``).
DEFAULT_MORSEL_ROWS = 8192


@dataclass
class Dataset:
    """Aligned tables produced by FROM/JOIN evaluation.

    Every table has the same row count; ``pristine`` maps a binding to
    its base-table name while the binding is still an unfiltered scan
    of that table (which is when an index on it is usable).
    """

    bindings: list[str] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    pristine: dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        if not self.bindings:
            return 1  # the FROM-less dummy row
        return self.tables[self.bindings[0]].n_rows

    def add(self, binding: str, table: Table,
            base_name: Optional[str]) -> None:
        key = binding.lower()
        if key in self.tables:
            raise PlanningError(f"duplicate table binding {binding!r}")
        self.bindings.append(key)
        self.tables[key] = table
        self.pristine[key] = base_name

    def frame(self) -> Frame:
        frame = Frame(self.n_rows)
        for binding in self.bindings:
            frame.add_table(binding, self.tables[binding])
        return frame

    def gather(self, indices: np.ndarray,
               which: Optional[list[str]] = None) -> None:
        """Gather rows (with -1 meaning an all-NULL row) in place for
        the chosen bindings (default: all)."""
        mask = indices < 0
        safe = np.where(mask, 0, indices)
        for binding in (which if which is not None else self.bindings):
            table = self.tables[binding]
            if table.n_rows == 0 and mask.any():
                gathered = _all_null_like(table, len(indices))
            else:
                gathered = table.take(safe) if table.n_rows else \
                    _all_null_like(table, len(indices))
                if mask.any():
                    gathered = _null_out(gathered, mask)
            self.tables[binding] = gathered
            self.pristine[binding] = None


def _all_null_like(table: Table, length: int) -> Table:
    columns = {c.name: ColumnData.all_null(c.sql_type, length)
               for c in table.schema.columns}
    return Table(table.schema, columns)


def _null_out(table: Table, mask: np.ndarray) -> Table:
    columns = {}
    for col_def in table.schema.columns:
        data = table.column(col_def.name)
        columns[col_def.name] = ColumnData(
            data.sql_type, data.values, data.nulls | mask)
    return Table(table.schema, columns)


class Executor:
    """Executes statements against a catalog, charging ``stats``."""

    def __init__(self, catalog: Catalog, stats: StatsCollector,
                 options: Optional[ExecutorOptions] = None,
                 governor: Optional[ResourceGovernor] = None,
                 tracer: Optional[Tracer] = None):
        self.catalog = catalog
        self.stats = stats
        self.options = options or ExecutorOptions()
        # Budget checks are no-ops outside an open governor window, so
        # a standalone Executor (unit tests) runs ungoverned.
        self.governor = governor or ResourceGovernor()
        # A standalone Executor traces nothing; the Database hands in
        # its (possibly enabled) tracer.
        self.tracer = tracer if tracer is not None \
            else Tracer(enabled=False)
        self.catalog.encoding_cache.bind_stats(stats)
        # Per-thread parallel-degree observation: one executor serves
        # every scheduler worker, so the record of "what degree did my
        # statements run at" must not leak across concurrent queries.
        self._parallel_local = threading.local()

    @property
    def encoding_cache(self):
        """The catalog's dictionary-encoding cache, or None when the
        ablation toggle disables it."""
        if not self.options.use_encoding_cache:
            return None
        return self.catalog.encoding_cache

    # ------------------------------------------------------------------
    # Parallel-degree observation (per thread, i.e. per in-flight query)
    # ------------------------------------------------------------------
    def reset_parallel_observation(self) -> None:
        """Start a fresh observation window on this thread (the plan
        runner calls this before a plan's first statement)."""
        self._parallel_local.observed = 1

    def note_parallel_degree(self, degree: int) -> None:
        current = getattr(self._parallel_local, "observed", 1)
        self._parallel_local.observed = max(current, int(degree))

    def parallel_degree_observed(self) -> int:
        """The widest fan-out any operator on this thread used since
        the last :meth:`reset_parallel_observation` (1 = all serial)."""
        return getattr(self._parallel_local, "observed", 1)

    # ------------------------------------------------------------------
    # Instrumented stats charging
    # ------------------------------------------------------------------
    def _charge(self, op: str, **counts: int) -> None:
        """Charge stats counters and mirror them as a ``charge`` trace
        event, so the span tree accounts for exactly what the ledger
        recorded (:func:`repro.obs.tracer.audit_statement_span`)."""
        self.stats.add(**counts)
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(op, kind="charge", **counts)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, statement: ast.Statement) -> Table | int:
        """Run one statement; SELECT returns a Table, DML a row count."""
        cancel.checkpoint("statement")
        self.governor.check_time("statement start")
        if isinstance(statement, ast.Select):
            return self.run_select(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._create_table_as(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, statement.if_exists)
            return 0
        if isinstance(statement, ast.CreateIndex):
            self.catalog.create_index(statement.name, statement.table,
                                      statement.columns)
            return 0
        if isinstance(statement, ast.DropIndex):
            self.catalog.drop_index(statement.name, statement.if_exists)
            return 0
        if isinstance(statement, ast.InsertValues):
            return self._insert_values(statement)
        if isinstance(statement, ast.InsertSelect):
            return self._insert_select(statement)
        if isinstance(statement, ast.Update):
            return self._update(statement)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.CreateView):
            self.catalog.create_view(statement.name, statement.select)
            return 0
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name, statement.if_exists)
            return 0
        if isinstance(statement, ast.CreateMaterializedView):
            return self._create_matview(statement)
        if isinstance(statement, ast.DropMaterializedView):
            self.catalog.drop_matview(statement.name,
                                      statement.if_exists)
            return 0
        if isinstance(statement, ast.RefreshMaterializedView):
            return self._refresh_matview(statement)
        if isinstance(statement, ast.Explain):
            from repro.engine.explain import (explain_analyze_statement,
                                              explain_statement)
            if statement.analyze:
                return explain_analyze_statement(self,
                                                 statement.statement)
            return explain_statement(self, statement.statement)
        raise PlanningError(f"cannot execute statement {statement!r}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def run_select(self, select: ast.Select,
                   result_name: str = "result") -> Table:
        mv = self.matview_for_select(select)
        if mv is not None:
            return self._serve_matview(mv).renamed(result_name)
        self._reject_extended(select)
        dataset = self._build_dataset(select)
        frame = dataset.frame()

        order_fallback: Optional[Frame] = None
        if ast.has_grouping_sets(select):
            result = self._run_grouping_sets(select, frame, result_name)
        elif _is_aggregate_query(select):
            self._reject_grouping_funcs(select)
            result = self._run_aggregate(select, frame, result_name)
        else:
            self._reject_grouping_funcs(select)
            if select.having is not None:
                raise PlanningError("HAVING requires GROUP BY or "
                                    "aggregates")
            result = self._run_projection(select, dataset, frame,
                                          result_name)
            if not select.distinct:
                # Rows are still aligned 1:1 with the source frame, so
                # ORDER BY may reference non-projected source columns.
                order_fallback = frame

        if select.distinct:
            columns = [result.column(c) for c in result.column_names()]
            keep = distinct_indices(columns, result.n_rows,
                                    self.encoding_cache)
            result = result.take(keep)
        if select.order_by:
            result = self._apply_order(select, result, order_fallback)
        if select.limit is not None:
            result = result.take(
                np.arange(min(select.limit, result.n_rows)))
        cancel.checkpoint("projection")
        self.governor.check_width(result.schema.width(), "projection")
        self.governor.charge_rows(result.n_rows, "projection")
        return result

    def _reject_extended(self, select: ast.Select) -> None:
        for item in select.items:
            if not isinstance(item.expr, ast.Star) \
                    and ast.contains_extended(item.expr):
                raise PlanningError(
                    "Vpct()/Hpct()/BY-extended aggregates are not "
                    "executable directly; rewrite the query with "
                    "repro.core first (this engine plays the role of "
                    "the standard-SQL DBMS in the paper's architecture)")

    # -- FROM -------------------------------------------------------------
    def _build_dataset(self, select: ast.Select) -> Dataset:
        dataset = Dataset()
        if select.from_ is None:
            return dataset

        schemas: dict[str, TableSchema] = {}
        materialized: dict[str, tuple[Table, Optional[str]]] = {}
        for source in select.from_.sources():
            binding = source.binding.lower()
            table, base = self._materialize_source(source)
            if binding in materialized:
                raise PlanningError(f"duplicate table binding "
                                    f"{source.binding!r}")
            materialized[binding] = (table, base)
            schemas[binding] = table.schema

        def resolve_binding(ref: ast.ColumnRef,
                            candidates: list[str]) -> Optional[str]:
            if ref.table:
                key = ref.table.lower()
                if key in candidates and key in schemas \
                        and schemas[key].has_column(ref.name):
                    return key
                return None
            owners = [b for b in candidates
                      if b in schemas and schemas[b].has_column(ref.name)]
            if len(owners) == 1:
                return owners[0]
            return None

        plan = plan_from(select.from_, select.where, resolve_binding)

        first_table, first_base = materialized[plan.first.binding.lower()]
        cancel.checkpoint("scan")
        self._charge("scan", rows_scanned=first_table.n_rows)
        self.governor.charge_rows(first_table.n_rows, "scan")
        dataset.add(plan.first.binding, first_table, first_base)

        for join in plan.joins:
            right_table, right_base = \
                materialized[join.source.binding.lower()]
            cancel.checkpoint("scan")
            self._charge("scan", rows_scanned=right_table.n_rows)
            self.governor.charge_rows(right_table.n_rows, "scan")
            self._apply_join(dataset, join, right_table, right_base)

        if plan.residual_where is not None:
            frame = dataset.frame()
            mask_col = evaluate(plan.residual_where, frame, self.stats)
            mask = np.asarray(mask_col.values, dtype=bool) & \
                ~mask_col.nulls
            indices = np.nonzero(mask)[0]
            dataset.gather(indices)
        return dataset

    def _materialize_source(self, source: ast.FromSource
                            ) -> tuple[Table, Optional[str]]:
        if isinstance(source, ast.TableRef):
            if self.catalog.has_matview(source.name):
                mv = self.catalog.matview(source.name)
                served = self._serve_matview(mv)
                return served.renamed(source.binding), None
            if self.catalog.has_view(source.name):
                view = self.run_select(self.catalog.view(source.name),
                                       result_name=source.binding)
                return view.renamed(source.binding), None
            table = self.catalog.table(source.name)
            return table.renamed(source.binding), source.name
        result = self.run_select(source.select, result_name=source.alias)
        return result.renamed(source.alias), None

    def _apply_join(self, dataset: Dataset, join: PlannedJoin,
                    right_table: Table,
                    right_base: Optional[str]) -> None:
        with self.tracer.span("join", kind="operator",
                              table=join.source.binding,
                              join_kind=join.kind) as span:
            self._apply_join_inner(dataset, join, right_table,
                                   right_base, span)

    def _apply_join_inner(self, dataset: Dataset, join: PlannedJoin,
                          right_table: Table,
                          right_base: Optional[str], span) -> None:
        binding = join.source.binding
        if not join.left_keys:
            self._cartesian(dataset, binding, right_table, span)
        else:
            frame = dataset.frame()
            left_cols = [evaluate(k, frame, self.stats)
                         for k in join.left_keys]
            right_frame = Frame(right_table.n_rows)
            right_frame.add_table(binding, right_table)
            right_cols = [evaluate(k, right_frame, self.stats)
                          for k in join.right_keys]

            outer = join.kind == "left"
            swap = (not outer) and dataset.n_rows < right_table.n_rows
            if swap:
                build_cols, probe_cols = left_cols, right_cols
                build_binding, build_base = None, None
            else:
                build_cols, probe_cols = right_cols, left_cols
                build_binding, build_base = binding, right_base

            null_safe = list(join.null_safe) \
                or [False] * len(join.left_keys)
            prepared = None
            if self.options.use_indexes and build_base is not None \
                    and not any(null_safe) \
                    and dataset_pristine(dataset, build_binding,
                                         right_base, right_table):
                key_names = _plain_key_names(join.right_keys)
                if key_names is not None:
                    index = self.catalog.find_index(build_base, key_names)
                    if index is not None and index.prepared is not None:
                        order = [key_names.index(c)
                                 for c in index.column_names]
                        build_cols = [build_cols[i] for i in order]
                        probe_cols = [probe_cols[i] for i in order]
                        prepared = index.prepared
                        self._charge("index-probe", index_lookups=(
                            len(probe_cols[0]) if probe_cols else 0))

            probe_idx, build_idx, _ = join_indices(
                probe_cols, build_cols, outer, prepared_right=prepared,
                cache=self.encoding_cache, null_safe=null_safe)

            if swap:
                left_indices, right_indices = build_idx, probe_idx
            else:
                left_indices, right_indices = probe_idx, build_idx
            self._charge("join-output", rows_joined=len(left_indices))
            self.governor.charge_rows(len(left_indices), "join")
            if span is not None:
                span.attrs["rows"] = len(left_indices)
                span.attrs["indexed"] = prepared is not None

            dataset.gather(left_indices)
            dataset.add(binding, right_table, None)
            dataset.gather(right_indices, which=[binding.lower()])

        if join.residual is not None:
            frame = dataset.frame()
            mask_col = evaluate(join.residual, frame, self.stats)
            mask = np.asarray(mask_col.values, dtype=bool) & \
                ~mask_col.nulls
            dataset.gather(np.nonzero(mask)[0])

    def _cartesian(self, dataset: Dataset, binding: str,
                   right_table: Table, span=None) -> None:
        n_left, n_right = dataset.n_rows, right_table.n_rows
        left_indices = np.repeat(np.arange(n_left, dtype=np.int64),
                                 n_right)
        right_indices = np.tile(np.arange(n_right, dtype=np.int64),
                                n_left)
        self._charge("join-output", rows_joined=n_left * n_right)
        self.governor.charge_rows(n_left * n_right, "cartesian join")
        if span is not None:
            span.attrs["rows"] = n_left * n_right
            span.attrs["cartesian"] = True
        dataset.gather(left_indices)
        dataset.add(binding, right_table, None)
        dataset.gather(right_indices, which=[binding.lower()])

    # -- projection (no aggregation) ---------------------------------------
    def _run_projection(self, select: ast.Select, dataset: Dataset,
                        frame: Frame, result_name: str) -> Table:
        named: list[tuple[str, ColumnData]] = []
        for i, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                named.extend(self._expand_star(item.expr, dataset))
                continue
            expr = self._bind_windows(item.expr, frame)
            data = evaluate(expr, frame, self.stats)
            named.append((_output_name(item, i), _concrete(data)))
        return Table.from_columns(result_name, _dedupe_names(named))

    def _expand_star(self, star: ast.Star, dataset: Dataset
                     ) -> list[tuple[str, ColumnData]]:
        if not dataset.bindings:
            raise PlanningError("'*' requires a FROM clause")
        bindings = dataset.bindings
        if star.table:
            key = star.table.lower()
            if key not in dataset.tables:
                raise PlanningError(f"unknown table {star.table!r} in "
                                    f"'{star.table}.*'")
            bindings = [key]
        named = []
        for binding in bindings:
            table = dataset.tables[binding]
            for col in table.schema.columns:
                named.append((col.name, table.column(col.name)))
        return named

    def _bind_windows(self, expr: ast.Expr, frame: Frame) -> ast.Expr:
        """Evaluate window function calls and splice their results into
        the frame, returning an expression free of OVER clauses."""
        counter = [0]

        def rewrite(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.FuncCall) and node.over is not None:
                partition = [evaluate(p, frame, self.stats)
                             for p in node.over.partition_by]
                if node.args and isinstance(node.args[0], ast.Star):
                    arg = None
                elif node.args:
                    arg = evaluate(node.args[0], frame, self.stats)
                else:
                    raise PlanningError(
                        f"window function {node.name}() needs an "
                        f"argument")
                result = evaluate_window(node.name, arg, partition,
                                         frame.n_rows, self.stats,
                                         self.encoding_cache)
                name = f"__win{counter[0]}"
                counter[0] += 1
                frame.add_column(name, result)
                return ast.ColumnRef(name)
            return _rebuild(node, rewrite)

        return rewrite(expr)

    # -- aggregation --------------------------------------------------------
    def _run_aggregate(self, select: ast.Select, frame: Frame,
                       result_name: str) -> Table:
        group_exprs = self._resolve_group_by(select)
        key_columns = [evaluate(e, frame, self.stats)
                       for e in group_exprs]
        with self.tracer.span("group-by-build", kind="operator",
                              input_rows=frame.n_rows) as build_span:
            grouping = factorize(key_columns, frame.n_rows,
                                 self.encoding_cache)
            self.governor.charge_rows(grouping.n_groups, "group-by")
            if build_span is not None:
                build_span.attrs["groups"] = grouping.n_groups
        firsts = _first_positions(grouping.group_ids, grouping.n_groups)

        group_frame = Frame(grouping.n_groups)
        group_map: dict[Any, str] = {}
        for j, (expr, column) in enumerate(zip(group_exprs, key_columns)):
            name = f"__key{j}"
            group_frame.add_column(name, column.take(firsts))
            group_map[_normalize(expr, frame)] = name

        agg_specs: list[ast.FuncCall] = []
        agg_map: dict[Any, str] = {}

        def rewrite(node: ast.Expr) -> ast.Expr:
            norm = _normalize(node, frame)
            if norm in group_map:
                return ast.ColumnRef(group_map[norm])
            if isinstance(node, ast.FuncCall) and node.over is not None:
                new_args = tuple(rewrite(a) if not isinstance(a, ast.Star)
                                 else a for a in node.args)
                new_partition = tuple(rewrite(p)
                                      for p in node.over.partition_by)
                return ast.FuncCall(node.name, new_args, node.distinct,
                                    over=ast.WindowSpec(new_partition))
            if isinstance(node, ast.FuncCall) \
                    and node.name in ast.AGGREGATE_NAMES:
                if norm in agg_map:
                    return ast.ColumnRef(agg_map[norm])
                name = f"__agg{len(agg_specs)}"
                agg_specs.append(node)
                agg_map[norm] = name
                return ast.ColumnRef(name)
            if isinstance(node, ast.ColumnRef):
                raise PlanningError(
                    f"column {node.name!r} must appear in GROUP BY or "
                    f"inside an aggregate")
            return _rebuild(node, rewrite)

        rewritten_items: list[tuple[ast.SelectItem, ast.Expr]] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                raise PlanningError("'*' cannot appear in an aggregate "
                                    "select list")
            rewritten_items.append((item, rewrite(item.expr)))
        rewritten_having = rewrite(select.having) \
            if select.having is not None else None

        with self.tracer.span("group-by-aggregate", kind="operator",
                              groups=grouping.n_groups,
                              aggregates=len(agg_specs)):
            self._compute_aggregates(agg_specs, frame, grouping,
                                     group_frame)

        named: list[tuple[str, ColumnData]] = []
        for i, (item, expr) in enumerate(rewritten_items):
            expr = self._bind_windows(expr, group_frame)
            data = evaluate(expr, group_frame, self.stats)
            named.append((_output_name(item, i), _concrete(data)))
        result = Table.from_columns(result_name, _dedupe_names(named))

        if rewritten_having is not None:
            having = self._bind_windows(rewritten_having, group_frame)
            mask_col = evaluate(having, group_frame, self.stats)
            mask = np.asarray(mask_col.values, dtype=bool) & \
                ~mask_col.nulls
            result = result.take(np.nonzero(mask)[0])
        return result

    def _reject_grouping_funcs(self, select: ast.Select) -> None:
        """grouping()/pct() only mean something against a grouping-sets
        lattice; anywhere else they get a typed error, not an unknown-
        function failure."""
        exprs = [item.expr for item in select.items
                 if not isinstance(item.expr, ast.Star)]
        if select.having is not None:
            exprs.append(select.having)
        for expr in exprs:
            if ast.contains_grouping_func(expr):
                raise GroupingSetError(
                    "grouping() and pct() require GROUP BY "
                    "CUBE/ROLLUP/GROUPING SETS")

    def _run_grouping_sets(self, select: ast.Select, frame: Frame,
                           result_name: str) -> Table:
        """Shared-scan evaluation of a CUBE/ROLLUP/GROUPING SETS query.

        One factorize over the union of all grouping dims; every set's
        grouping is derived from it at group level (bit-identical to a
        standalone GROUP BY of that set, see repro.engine.groupingsets).
        Exact aggregates fold from the fold source's partials along
        lattice edges; order-sensitive ones recompute from base rows.
        Output rows carry NULL placeholders for absent dims and are
        emitted set by set in request order.
        """
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                raise PlanningError("'*' cannot appear in an aggregate "
                                    "select list")
            if ast.contains_window(item.expr):
                raise PlanningError(
                    "window functions are not supported with "
                    "CUBE/ROLLUP/GROUPING SETS")
        raw_sets = gs_mod.expand_group_by(
            select.group_by,
            lambda e: self._resolve_group_expr(e, select))
        plan = gs_mod.build_plan(raw_sets,
                                 key_of=lambda e: _normalize(e, frame))
        key_columns = [evaluate(e, frame, self.stats)
                       for e in plan.dims]
        dim_map = {_normalize(e, frame): i
                   for i, e in enumerate(plan.dims)}

        with self.tracer.span("grouping-sets-build", kind="operator",
                              input_rows=frame.n_rows, sets=plan.n_sets,
                              dims=len(plan.dims)) as build_span:
            union = factorize(key_columns, frame.n_rows,
                              self.encoding_cache)
            if build_span is not None:
                build_span.attrs["union_groups"] = union.n_groups

        # -- per-set item rewriting (masks differ per set; aggregate
        # and pct specs are shared across sets via the maps) ----------
        agg_specs: list[ast.FuncCall] = []
        agg_map: dict[Any, str] = {}
        pct_specs: list[ast.FuncCall] = []
        pct_map: dict[Any, str] = {}

        def make_rewrite(set_dims: tuple[int, ...]):
            def rewrite(node: ast.Expr) -> ast.Expr:
                norm = _normalize(node, frame)
                if norm in dim_map:
                    return ast.ColumnRef(f"__dim{dim_map[norm]}")
                if isinstance(node, ast.FuncCall) \
                        and node.name == "grouping":
                    if not node.args:
                        raise GroupingSetError(
                            "grouping() requires at least one argument")
                    arg_dims = []
                    for arg in node.args:
                        key = _normalize(arg, frame)
                        if key not in dim_map:
                            raise GroupingSetError(
                                "grouping() arguments must be grouping "
                                "columns of the query",
                                gs_mod.render_set(node.args))
                        arg_dims.append(dim_map[key])
                    return ast.Literal(
                        gs_mod.grouping_mask(arg_dims, set_dims))
                if isinstance(node, ast.FuncCall) and node.name == "pct":
                    if (len(node.args) != 1 or node.distinct
                            or node.by_columns or node.default is not None
                            or node.over is not None):
                        raise GroupingSetError(
                            "pct() takes exactly one plain argument")
                    if norm in pct_map:
                        return ast.ColumnRef(pct_map[norm])
                    name = f"__pct{len(pct_specs)}"
                    pct_specs.append(node)
                    pct_map[norm] = name
                    return ast.ColumnRef(name)
                if isinstance(node, ast.FuncCall) \
                        and node.name in ast.AGGREGATE_NAMES \
                        and node.over is None:
                    if norm in agg_map:
                        return ast.ColumnRef(agg_map[norm])
                    name = f"__agg{len(agg_specs)}"
                    agg_specs.append(node)
                    agg_map[norm] = name
                    return ast.ColumnRef(name)
                if isinstance(node, ast.ColumnRef):
                    raise PlanningError(
                        f"column {node.name!r} must appear in GROUP BY "
                        f"or inside an aggregate")
                return _rebuild(node, rewrite)
            return rewrite

        per_set_items: list[list[tuple[ast.SelectItem, ast.Expr]]] = []
        per_set_having: list[Optional[ast.Expr]] = []
        for spec in plan.sets:
            rewrite = make_rewrite(spec.dims)
            per_set_items.append([(item, rewrite(item.expr))
                                  for item in select.items])
            per_set_having.append(rewrite(select.having)
                                  if select.having is not None else None)

        # -- evaluate aggregate arguments once (the shared scan) -------
        arg_cols: list[Optional[ColumnData]] = []
        for spec in agg_specs:
            if spec.args and isinstance(spec.args[0], ast.Star):
                if spec.name != "count":
                    raise PlanningError(
                        f"{spec.name}(*) is not valid; only count(*)")
                arg_cols.append(None)
            else:
                if len(spec.args) != 1:
                    raise PlanningError(
                        f"{spec.name}() takes exactly one argument")
                arg_cols.append(_concrete(
                    evaluate(spec.args[0], frame, self.stats)))
        pct_args = [_concrete(evaluate(spec.args[0], frame, self.stats))
                    for spec in pct_specs]

        # The internal compute list: aggregate specs first, then one
        # sum per pct measure (the shared partials percentages read).
        compute: list[tuple[str, str, Optional[ColumnData], bool]] = []
        for i, spec in enumerate(agg_specs):
            compute.append((f"__agg{i}", spec.name, arg_cols[i],
                            spec.distinct))
        for j in range(len(pct_specs)):
            compute.append((f"__pctsum{j}", "sum", pct_args[j], False))

        # -- compute each distinct set once, finest first, so fold
        # sources exist before their dependants ------------------------
        by_dims: dict[tuple[int, ...], gs_mod.SetGrouping] = {}
        partials: dict[tuple[int, ...], dict[str, ColumnData]] = {}
        fold_source_of: dict[tuple[int, ...], Optional[tuple[int, ...]]] \
            = {}
        for spec in plan.sets:
            if spec.dims not in fold_source_of:
                fold_source_of[spec.dims] = (
                    plan.sets[spec.fold_source].dims
                    if spec.fold_source is not None else None)
        order = sorted(fold_source_of, key=lambda d: (-len(d), d))
        for dims in order:
            cancel.checkpoint("group-by")
            label = gs_mod.render_set(
                tuple(plan.dims[i] for i in dims))
            with self.tracer.span("grouping-set", kind="operator",
                                  set=label) as set_span:
                sg = gs_mod.derive_set_grouping(union, dims,
                                                frame.n_rows)
                self.governor.charge_rows(sg.grouping.n_groups,
                                          "group-by")
                by_dims[dims] = sg
                source = fold_source_of[dims]
                folded = 0
                local: dict[str, ColumnData] = {}
                recompute: list[tuple[str, str, Optional[ColumnData],
                                      bool]] = []
                for name, func, arg, distinct in compute:
                    can_fold = (
                        source is not None
                        and by_dims[source].grouping.n_groups > 0
                        and gs_mod.fold_eligible(func, arg, distinct))
                    if can_fold:
                        mapping = gs_mod.fine_to_coarse(by_dims[source],
                                                        sg)
                        local[name] = gs_mod.fold_aggregate(
                            func, partials[source][name], mapping,
                            sg.grouping.n_groups)
                        folded += 1
                    else:
                        recompute.append((name, func, arg, distinct))
                if recompute:
                    local.update(self._aggregate_batch(
                        recompute, sg.grouping.group_ids,
                        sg.grouping.n_groups))
                partials[dims] = local
                if set_span is not None:
                    set_span.attrs["groups"] = sg.grouping.n_groups
                    set_span.attrs["folded"] = folded
                    set_span.attrs["recomputed"] = len(recompute)

        # -- emit per requested set, in request order ------------------
        result: Optional[Table] = None
        for spec in plan.sets:
            sg = by_dims[spec.dims]
            n_groups = sg.grouping.n_groups
            group_frame = Frame(n_groups)
            dim_positions = {dim: pos
                             for pos, dim in enumerate(spec.dims)}
            for i, key_col in enumerate(key_columns):
                if i in dim_positions:
                    data = sg.grouping.key_column(dim_positions[i])
                else:
                    data = ColumnData.all_null(key_col.sql_type,
                                               n_groups)
                group_frame.add_column(f"__dim{i}", data)
            for name, data in partials[spec.dims].items():
                if not name.startswith("__pctsum"):
                    group_frame.add_column(name, data)
            for j in range(len(pct_specs)):
                own = partials[spec.dims][f"__pctsum{j}"]
                if spec.pct_parent is None:
                    parent_sums = own
                    parent_ids = np.arange(n_groups, dtype=np.int64)
                else:
                    parent_dims = plan.sets[spec.pct_parent].dims
                    parent_sums = partials[parent_dims][f"__pctsum{j}"]
                    parent_ids = gs_mod.fine_to_coarse(
                        sg, by_dims[parent_dims])
                group_frame.add_column(
                    f"__pct{j}", gs_mod.percentage_column(
                        own, parent_sums, parent_ids))

            named: list[tuple[str, ColumnData]] = []
            for i, (item, expr) in enumerate(per_set_items[spec.position]):
                data = evaluate(expr, group_frame, self.stats)
                named.append((_output_name(item, i), _concrete(data)))
            piece = Table.from_columns(result_name, _dedupe_names(named))
            having = per_set_having[spec.position]
            if having is not None:
                mask_col = evaluate(having, group_frame, self.stats)
                mask = np.asarray(mask_col.values, dtype=bool) & \
                    ~mask_col.nulls
                piece = piece.take(np.nonzero(mask)[0])
            result = piece if result is None else result.append(piece)
        assert result is not None  # expansion yields >= 1 set
        return result

    def _aggregate_batch(self, items, group_ids: np.ndarray,
                         n_groups: int) -> dict[Any, ColumnData]:
        """Every grouped aggregate of every operator goes through here:
        ``(key, func, arg, distinct)`` items over one grouping in,
        ``{key: ColumnData}`` out, on whichever dispatcher the options
        select (see repro.engine.morsels)."""
        opts = self.options
        return morsels.run_grouped_aggregates(
            items, group_ids, n_groups, self.encoding_cache,
            backend=opts.parallel_backend, workers=opts.parallel_degree,
            morsel_rows=opts.morsel_rows, metrics=self.stats.registry,
            tracer=self.tracer, on_parallel=self.note_parallel_degree)

    def _compute_aggregates(self, agg_specs: list[ast.FuncCall],
                            frame: Frame, grouping,
                            group_frame: Frame) -> None:
        """Evaluate each distinct aggregate over the base frame, binding
        ``__aggI`` columns into the group frame.  When hash dispatch is
        enabled, disjoint pivot-style CASE aggregations are computed in
        one factorize pass instead of N masked passes."""
        handled: set[int] = set()
        if self.options.case_dispatch == "hash":
            with self.tracer.span("pivot", kind="operator") as span:
                handled = pivot_mod.compute_pivot_aggregates(
                    agg_specs, frame, grouping, group_frame, self.stats,
                    self._aggregate_batch, self.encoding_cache)
                if span is not None:
                    span.attrs["aggregates"] = len(handled)
                    span.attrs["groups"] = grouping.n_groups

        def items():
            # Lazy: the inline dispatcher pulls one item at a time, so
            # argument expressions are evaluated (and released) per
            # aggregate exactly as a plain loop would.
            for i, spec in enumerate(agg_specs):
                if i in handled:
                    continue
                if spec.args and isinstance(spec.args[0], ast.Star):
                    if spec.name != "count":
                        raise PlanningError(
                            f"{spec.name}(*) is not valid; only count(*)")
                    yield i, "count", None, False
                else:
                    if len(spec.args) != 1:
                        raise PlanningError(
                            f"{spec.name}() takes exactly one argument")
                    arg = evaluate(spec.args[0], frame, self.stats)
                    yield i, spec.name, _concrete(arg), spec.distinct

        results = self._aggregate_batch(items(), grouping.group_ids,
                                        grouping.n_groups)
        for i, data in results.items():
            group_frame.add_column(f"__agg{i}", data)

    def _resolve_group_by(self, select: ast.Select) -> list[ast.Expr]:
        return [self._resolve_group_expr(e, select)
                for e in select.group_by]

    @staticmethod
    def _resolve_group_expr(expr: ast.Expr,
                            select: ast.Select) -> ast.Expr:
        """Positional GROUP BY resolution for one expression (also
        applied inside CUBE/ROLLUP/GROUPING SETS elements)."""
        if isinstance(expr, ast.Literal) \
                and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(select.items):
                raise PlanningError(
                    f"GROUP BY position {position} is out of range")
            target = select.items[position - 1].expr
            if ast.contains_aggregate(target):
                raise PlanningError(
                    f"GROUP BY position {position} refers to an "
                    f"aggregate expression")
            return target
        return expr

    # -- ORDER BY -----------------------------------------------------------
    def _apply_order(self, select: ast.Select, result: Table,
                     fallback: Optional[Frame] = None) -> Table:
        """Sort the result.  Keys resolve against the output columns
        first; for plain (non-DISTINCT) projections they may also
        reference source columns via ``fallback``."""
        frame = Frame(result.n_rows)
        frame.add_table(result.name, result)
        keys = []
        directions = []
        for item in select.order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value,
                                                            int):
                position = expr.value
                if not 1 <= position <= result.schema.width():
                    raise PlanningError(
                        f"ORDER BY position {position} is out of range")
                column = result.column(result.column_names()[position - 1])
            else:
                try:
                    column = evaluate(expr, frame, self.stats)
                except PlanningError:
                    if fallback is None:
                        raise
                    column = evaluate(expr, fallback, self.stats)
            keys.append(encode_column(_concrete(column),
                                      self.encoding_cache).codes)
            directions.append(item.ascending)
        sort_keys = []
        for codes, ascending in zip(keys, directions):
            sort_keys.append(codes if ascending else -codes)
        order = np.lexsort(tuple(reversed(sort_keys)))
        return result.take(order)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Materialized views (repro.views)
    # ------------------------------------------------------------------
    def matview_for_select(self, select: ast.Select):
        """The materialized view answering ``select`` whole, if any.

        Matching is by canonical statement text (the whole-SELECT
        structural rewrite); gated by ``options.matview_rewrite`` so
        recompute baselines can bypass views.  No side effects --
        EXPLAIN uses this too."""
        if not self.options.matview_rewrite \
                or not self.catalog.matviews():
            return None
        from repro.views.rewrite import match_view
        return match_view(self.catalog, select)

    def _serve_matview(self, mv) -> Table:
        """The view's result, refreshed first when stale.

        A fresh hit costs O(1); a stale view (its base was replaced
        without maintenance, e.g. by CREATE TABLE ... REPLACE or a raw
        catalog swap) is fully rebuilt and the replacement published
        before serving, so no reader ever sees stale rows."""
        base = self.catalog.table(mv.definition.base_table)
        registry = self.stats.registry
        lag = base.version - mv.base_version
        registry.gauge(
            "view_staleness_lag",
            help="base-table versions ahead of the served view",
            view=mv.name).set(max(0, lag))
        if mv.fresh(base):
            registry.counter(
                "view_hits_total",
                help="reads answered from a materialized view",
                view=mv.name).inc()
            return mv.result
        refreshed, elapsed = self._timed_refresh(mv.definition, base)
        self.catalog.publish_matviews({refreshed.key: refreshed})
        self._observe_refresh(mv.name, "full", elapsed)
        registry.gauge("view_staleness_lag",
                       help="base-table versions ahead of the served "
                            "view",
                       view=mv.name).set(0)
        return refreshed.result

    def _timed_refresh(self, definition, table):
        import time

        from repro.views import maintenance
        start = time.perf_counter()
        refreshed = maintenance.refresh(definition, table, self.stats)
        return refreshed, time.perf_counter() - start

    def _observe_refresh(self, view_name: str, mode: str,
                         elapsed: float) -> None:
        registry = self.stats.registry
        registry.counter(
            "view_refreshes_total",
            help="materialized-view refreshes by maintenance mode",
            view=view_name, mode=mode).inc()
        registry.gauge(
            "view_maintenance_seconds",
            help="seconds spent in the last refresh of this view",
            view=view_name, mode=mode).set(elapsed)

    def _maintain_matviews(self, old_table: Table, new_table: Table,
                           change) -> Optional[dict]:
        """Delta-maintain every view on ``old_table`` for one DML.

        Returns replacement view objects for
        :meth:`Catalog.replace_table` to publish atomically with the
        new table, or None when the table has no dependent views."""
        dependents = self.catalog.matviews_on(old_table.name)
        if not dependents:
            return None
        import time

        from repro.views import maintenance
        replacements: dict[str, object] = {}
        for mv in dependents:
            start = time.perf_counter()
            refreshed, mode = maintenance.maintain(
                mv, old_table, new_table, change, self.stats)
            elapsed = time.perf_counter() - start
            replacements[refreshed.key] = refreshed
            self._observe_refresh(mv.name, mode, elapsed)
        return replacements

    def _create_matview(self, statement: ast.CreateMaterializedView
                        ) -> int:
        from repro.views.maintenance import build_matview
        if self.catalog.has_matview(statement.name):
            from repro.errors import CatalogError
            raise CatalogError(f"materialized view {statement.name!r} "
                               f"already exists")
        mv = build_matview(self.catalog, statement.name,
                           statement.select, self.stats)
        self.catalog.create_matview(mv)
        self._charge("write", rows_written=mv.result.n_rows)
        return mv.result.n_rows

    def _refresh_matview(self, statement: ast.RefreshMaterializedView
                         ) -> int:
        mv = self.catalog.matview(statement.name)
        base = self.catalog.table(mv.definition.base_table)
        refreshed, elapsed = self._timed_refresh(mv.definition, base)
        self.catalog.publish_matviews({refreshed.key: refreshed})
        self._observe_refresh(mv.name, "full", elapsed)
        return refreshed.result.n_rows

    def _create_table(self, statement: ast.CreateTable) -> int:
        if statement.if_not_exists \
                and self.catalog.has_table(statement.name):
            return 0
        columns = [ColumnDef(c.name, type_from_name(c.type_name))
                   for c in statement.columns]
        schema = TableSchema(statement.name, columns,
                             tuple(statement.primary_key))
        self.governor.check_width(schema.width(), "create table")
        self.catalog.create_table(Table(schema))
        return 0

    def _create_table_as(self, statement: ast.CreateTableAs) -> int:
        result = self.run_select(statement.select,
                                 result_name=statement.name)
        self.catalog.create_table(result)
        self._charge("write", rows_written=result.n_rows)
        return result.n_rows

    def _insert_values(self, statement: ast.InsertValues) -> int:
        cancel.checkpoint("dml")
        table = self.catalog.table(statement.table)
        schema = table.schema
        column_order = list(statement.columns) or schema.column_names()
        if len(column_order) != schema.width() and statement.columns:
            raise PlanningError(
                "INSERT with a column list must cover every column "
                "(partial inserts are not supported)")
        rows = []
        for row in statement.rows:
            if len(row) != len(column_order):
                raise PlanningError(
                    f"INSERT row has {len(row)} values, expected "
                    f"{len(column_order)}")
            values = {}
            for name, expr in zip(column_order, row):
                target = schema.column_type(name)
                raw = _constant_value(expr)
                values[name.lower()] = coerce_scalar(raw, target) \
                    if raw is not None else None
            rows.append(tuple(values[c.name.lower()]
                              for c in schema.columns))
        appended = table.append(Table.from_rows(schema, rows))
        self.catalog.replace_table(
            appended,
            matviews=self._maintain_matviews(
                table, appended, ("insert", table.n_rows)))
        self._charge("write", rows_written=len(rows))
        self.governor.charge_rows(len(rows), "insert")
        return len(rows)

    def _insert_select(self, statement: ast.InsertSelect) -> int:
        cancel.checkpoint("dml")
        table = self.catalog.table(statement.table)
        schema = table.schema
        result = self.run_select(statement.select)
        column_order = list(statement.columns) or schema.column_names()
        if len(column_order) != result.schema.width():
            raise PlanningError(
                f"INSERT ... SELECT produces {result.schema.width()} "
                f"columns; target list has {len(column_order)}")
        named = []
        for target_name, source_name in zip(column_order,
                                            result.column_names()):
            target_type = schema.column_type(target_name)
            data = result.column(source_name)
            named.append((schema.column(target_name).name,
                          _coerce_column(data, target_type)))
        block = Table(TableSchema(schema.name,
                                  [schema.column(c) for c in column_order]),
                      dict(named))
        # Reorder block columns into schema order before appending.
        ordered = {c.name: block.column(c.name) for c in schema.columns}
        appended = table.append(Table(schema, ordered))
        self.catalog.replace_table(
            appended,
            matviews=self._maintain_matviews(
                table, appended, ("insert", table.n_rows)))
        self._charge("write", rows_written=result.n_rows)
        self.governor.charge_rows(result.n_rows, "insert-select")
        return result.n_rows

    def _update(self, statement: ast.Update) -> int:
        cancel.checkpoint("dml")
        table = self.catalog.table(statement.table.name)
        binding = statement.table.binding
        n = table.n_rows

        if statement.from_tables:
            frame, matched, where_mask = self._update_join_frame(
                statement, table, binding)
        else:
            frame = Frame(n)
            frame.add_table(binding, table)
            if statement.table.alias:
                pass  # alias already covers qualified references
            matched = np.ones(n, dtype=bool)
            where_mask = np.ones(n, dtype=bool)
            if statement.where is not None:
                mask_col = evaluate(statement.where, frame, self.stats)
                where_mask = np.asarray(mask_col.values, dtype=bool) & \
                    ~mask_col.nulls
            self._charge("scan", rows_scanned=n)

        to_update = matched & where_mask
        updated = table
        for assignment in statement.assignments:
            target_type = table.schema.column_type(assignment.column)
            new_col = evaluate(assignment.value, frame, self.stats)
            new_col = _coerce_column(_concrete(new_col), target_type)
            old = updated.column(assignment.column)
            values = np.where(to_update, new_col.values, old.values)
            if target_type == SQLType.VARCHAR:
                values = values.astype(object)
            nulls = np.where(to_update, new_col.nulls, old.nulls)
            updated = updated.replace_column(
                assignment.column,
                ColumnData(target_type, values, nulls))
        # Row-store semantics (the substrate stands in for Teradata):
        # an UPDATE rewrites whole rows, not just the assigned column.
        assigned = {a.column.lower() for a in statement.assignments}
        for col_def in table.schema.columns:
            if col_def.name.lower() not in assigned:
                updated = updated.replace_column(
                    col_def.name, updated.column(col_def.name).copy())
        self.catalog.replace_table(
            updated,
            matviews=self._maintain_matviews(
                table, updated, ("update", to_update)))
        count = int(to_update.sum())
        self._charge("update", rows_updated=count)
        self.governor.charge_rows(n, "update")
        return count

    def _update_join_frame(self, statement: ast.Update, table: Table,
                           binding: str):
        """Frame for a join update: target columns plus the (at most
        one) matching row of the FROM table per target row."""
        if len(statement.from_tables) != 1:
            raise PlanningError(
                "UPDATE ... FROM supports exactly one joined table")
        from_ref = statement.from_tables[0]
        from_table = self.catalog.table(from_ref.name) \
            .renamed(from_ref.binding)
        self._charge("scan",
                     rows_scanned=table.n_rows + from_table.n_rows)

        target_frame = Frame(table.n_rows)
        target_frame.add_table(binding, table)
        from_frame = Frame(from_table.n_rows)
        from_frame.add_table(from_ref.binding, from_table)

        join_left: list[ColumnData] = []
        join_right: list[ColumnData] = []
        right_key_names: list[str] = []
        null_safe: list[bool] = []
        residual: list[ast.Expr] = []
        for conjunct in _split_and(statement.where):
            pair = _update_key_pair(conjunct, target_frame, from_frame)
            if pair is not None:
                left_col, right_col, right_name, ns = pair
                join_left.append(left_col)
                join_right.append(right_col)
                right_key_names.append(right_name)
                null_safe.append(ns)
            else:
                residual.append(conjunct)
        if not join_left:
            raise PlanningError(
                "UPDATE ... FROM requires equality predicates joining "
                "the target and the FROM table")

        prepared = None
        if self.options.use_indexes and not any(null_safe):
            index = self.catalog.find_index(from_ref.name,
                                            right_key_names)
            if index is not None and index.prepared is not None:
                order = [right_key_names.index(c)
                         for c in index.column_names]
                join_left = [join_left[i] for i in order]
                join_right = [join_right[i] for i in order]
                prepared = index.prepared
                self._charge("index-probe", index_lookups=table.n_rows)

        probe_idx, build_idx, _ = join_indices(join_left, join_right,
                                               outer=True,
                                               prepared_right=prepared,
                                               cache=self.encoding_cache,
                                               null_safe=null_safe)
        if len(probe_idx) != table.n_rows:
            raise ExecutionError(
                "UPDATE ... FROM matched a target row against more "
                "than one source row")
        order = np.argsort(probe_idx, kind="stable")
        build_for_target = build_idx[order]
        matched = build_for_target >= 0
        self._charge("join-output", rows_joined=int(matched.sum()))

        frame = Frame(table.n_rows)
        frame.add_table(binding, table)
        safe = np.where(matched, build_for_target, 0)
        for col_def in from_table.schema.columns:
            data = from_table.column(col_def.name)
            gathered = ColumnData(data.sql_type, data.values[safe],
                                  data.nulls[safe] | ~matched)
            frame.add_column(col_def.name, gathered,
                             binding=from_ref.binding)

        where_mask = np.ones(table.n_rows, dtype=bool)
        for conjunct in residual:
            mask_col = evaluate(conjunct, frame, self.stats)
            where_mask &= np.asarray(mask_col.values, dtype=bool) & \
                ~mask_col.nulls
        return frame, matched, where_mask

    def _delete(self, statement: ast.Delete) -> int:
        cancel.checkpoint("dml")
        table = self.catalog.table(statement.table.name)
        n = table.n_rows
        self._charge("scan", rows_scanned=n)
        if statement.where is None:
            keep = np.zeros(n, dtype=bool)
        else:
            frame = Frame(n)
            frame.add_table(statement.table.binding, table)
            mask_col = evaluate(statement.where, frame, self.stats)
            hit = np.asarray(mask_col.values, dtype=bool) & ~mask_col.nulls
            keep = ~hit
        deleted = n - int(keep.sum())
        kept = table.filter(keep)
        self.catalog.replace_table(
            kept,
            matviews=self._maintain_matviews(
                table, kept, ("delete", keep)))
        self._charge("update", rows_updated=deleted)
        self.governor.charge_rows(n, "delete")
        return deleted


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _is_aggregate_query(select: ast.Select) -> bool:
    if select.group_by or select.having is not None:
        return True
    return any(not isinstance(item.expr, ast.Star)
               and ast.contains_aggregate(item.expr)
               for item in select.items)


def _first_positions(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the first row of each group, ordered by group id."""
    if n_groups == 0:
        return np.empty(0, dtype=np.int64)
    if len(group_ids) == 0:
        # The single global group over an empty input: no representative
        # row exists; callers only use firsts with key columns, which
        # are absent in this case.
        return np.zeros(n_groups, dtype=np.int64)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return order[starts]


def _output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return f"col{position + 1}"


def _dedupe_names(named: list[tuple[str, ColumnData]]
                  ) -> list[tuple[str, ColumnData]]:
    seen: dict[str, int] = {}
    out = []
    for name, data in named:
        key = name.lower()
        if key in seen:
            seen[key] += 1
            name = f"{name}_{seen[key]}"
        else:
            seen[key] = 0
        out.append((name, data))
    return out


def _concrete(data: ColumnData) -> ColumnData:
    """Commit untyped NULL columns to REAL for output."""
    if data.sql_type is None:
        return ColumnData.all_null(SQLType.REAL, len(data))
    return data


def _coerce_column(data: ColumnData, target: SQLType) -> ColumnData:
    if data.sql_type is None or (data.sql_type != target
                                 and bool(data.nulls.all())):
        return ColumnData.all_null(target, len(data))
    if data.sql_type == target:
        return data
    if data.sql_type == SQLType.INTEGER and target == SQLType.REAL:
        return data.cast(SQLType.REAL)
    if data.sql_type == SQLType.BOOLEAN and target in (SQLType.INTEGER,
                                                       SQLType.REAL):
        return data.cast(target)
    raise TypeMismatchError(
        f"cannot store {data.sql_type} values into a {target} column")


def _constant_value(expr: ast.Expr) -> Any:
    from repro.engine.expressions import evaluate_scalar
    return evaluate_scalar(expr)


def _split_and(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _update_key_pair(conjunct: ast.Expr, target_frame: Frame,
                     from_frame: Frame):
    """Resolve ``a.x = b.y`` (or its null-safe OR form) into (target
    key column, from key column, from-side column name, null_safe), in
    either order."""
    null_safe = False
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ast.ColumnRef)
                and isinstance(right, ast.ColumnRef)):
            return None
    else:
        pair = null_safe_equality(conjunct)
        if pair is None:
            return None
        left, right = pair
        null_safe = True
    left_in_target = target_frame.has(left)
    right_in_target = target_frame.has(right)
    left_in_from = from_frame.has(left)
    right_in_from = from_frame.has(right)
    if left_in_target and right_in_from and not right_in_target:
        return (target_frame.resolve(left), from_frame.resolve(right),
                right.name.lower(), null_safe)
    if right_in_target and left_in_from and not left_in_target:
        return (target_frame.resolve(right), from_frame.resolve(left),
                left.name.lower(), null_safe)
    return None


def _rebuild(expr: ast.Expr, rewrite: Callable[[ast.Expr], ast.Expr]
             ) -> ast.Expr:
    """Rebuild a node with rewritten children (leaves returned as-is)."""
    if isinstance(expr, (ast.Literal, ast.ColumnRef, ast.Star)):
        return expr
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, rewrite(expr.operand))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, rewrite(expr.left),
                            rewrite(expr.right))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(rewrite(expr.operand), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(rewrite(expr.operand),
                          tuple(rewrite(i) for i in expr.items),
                          expr.negated)
    if isinstance(expr, ast.CaseWhen):
        whens = tuple((rewrite(c), rewrite(r)) for c, r in expr.whens)
        else_ = rewrite(expr.else_) if expr.else_ is not None else None
        return ast.CaseWhen(whens, else_)
    if isinstance(expr, ast.Cast):
        return ast.Cast(rewrite(expr.operand), expr.type_name)
    if isinstance(expr, ast.FuncCall):
        args = tuple(a if isinstance(a, ast.Star) else rewrite(a)
                     for a in expr.args)
        over = expr.over
        if over is not None:
            over = ast.WindowSpec(tuple(rewrite(p)
                                        for p in over.partition_by))
        default = rewrite(expr.default) if expr.default is not None \
            else None
        return ast.FuncCall(expr.name, args, expr.distinct,
                            expr.by_columns, default, over)
    raise PlanningError(f"cannot rewrite expression node {expr!r}")


def _normalize(expr: ast.Expr, frame: Frame):
    """A hashable structural key for an expression, with column
    references resolved to the identity of their backing arrays so that
    ``D1``, ``F.D1`` and an aliased spelling all normalize equally."""
    if isinstance(expr, ast.Literal):
        return ("lit", expr.value)
    if isinstance(expr, ast.ColumnRef):
        return ("col", id(frame.resolve(expr)))
    if isinstance(expr, ast.Star):
        return ("star", expr.table and expr.table.lower())
    if isinstance(expr, ast.UnaryOp):
        return ("un", expr.op, _normalize(expr.operand, frame))
    if isinstance(expr, ast.BinaryOp):
        return ("bin", expr.op, _normalize(expr.left, frame),
                _normalize(expr.right, frame))
    if isinstance(expr, ast.IsNull):
        return ("isnull", expr.negated, _normalize(expr.operand, frame))
    if isinstance(expr, ast.InList):
        return ("in", expr.negated, _normalize(expr.operand, frame),
                tuple(_normalize(i, frame) for i in expr.items))
    if isinstance(expr, ast.CaseWhen):
        whens = tuple((_normalize(c, frame), _normalize(r, frame))
                      for c, r in expr.whens)
        else_ = _normalize(expr.else_, frame) \
            if expr.else_ is not None else None
        return ("case", whens, else_)
    if isinstance(expr, ast.Cast):
        return ("cast", expr.type_name.upper(),
                _normalize(expr.operand, frame))
    if isinstance(expr, ast.FuncCall):
        over = None
        if expr.over is not None:
            over = tuple(_normalize(p, frame)
                         for p in expr.over.partition_by)
        return ("func", expr.name, expr.distinct,
                tuple(_normalize(a, frame) for a in expr.args), over)
    raise PlanningError(f"cannot normalize expression {expr!r}")


def dataset_pristine(dataset: Dataset, build_binding: Optional[str],
                     right_base: Optional[str],
                     right_table: Table) -> bool:
    """True when the chosen build side is still an untouched base-table
    scan (its index digests are valid)."""
    return build_binding is not None and right_base is not None


def _plain_key_names(keys: list[ast.ColumnRef]) -> Optional[list[str]]:
    """Lower-case column names of the build keys (they are always plain
    column references by planner construction)."""
    return [ref.name.lower() for ref in keys]
