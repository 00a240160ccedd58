"""Statement execution: the interpreter that runs parsed SQL against a
catalog.

The executor is deliberately an *interpreting* engine (no compiled
plans, no operator classes).  A SELECT is planned once into a
:class:`~repro.engine.planner.SelectPlan` -- the value ``EXPLAIN``
renders -- and :meth:`Executor._run_plan` walks it:

    scan each source (a view or derived table runs its own plan)
    -> join (hash / cartesian) -> residual filter
    -> group-by build + aggregate, or grouping sets, or nothing
    -> projection (window functions, HAVING)
       -> DISTINCT -> ORDER BY -> LIMIT

Every step runs inside :meth:`Executor._operator`, the one boundary
that crosses the cancel safepoint, opens the operator span and charges
the stats ledger and the governor.  DML statements
(CREATE/INSERT/UPDATE/DELETE) mutate the catalog through the same
boundary and charge the statistics counters that the paper's cost
arguments rely on (rows scanned/written/updated, CASE term
evaluations).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.engine import cancel
from repro.engine import pivot as pivot_mod
from repro.engine.aggregates import compute_aggregate
from repro.engine.catalog import Catalog
from repro.engine.column import ColumnData
from repro.engine.expressions import (Frame, evaluate, evaluate_scalar,
                                      truth_mask)
from repro.engine.governor import ResourceGovernor
from repro.engine import groupingsets as gs_mod
from repro.engine.groupby import (distinct_indices, encode_column,
                                  factorize, first_positions)
from repro.engine.join import join_indices
from repro.engine.planner import (PlannedJoin, PlannedSource, SelectPlan,
                                  plan_select, plan_update_join)
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.scope import QueryRecord, ScopeLocal, query_scope
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType, coerce_scalar, type_from_name
from repro.engine.window import evaluate_window
from repro.errors import (CatalogError, ExecutionError,
                          GroupingSetError, PlanningError,
                          TypeMismatchError)
from repro.obs.tracer import Tracer
from repro.sql import ast


@dataclass(frozen=True)
class ExecutorOptions:
    """The execution knobs -- names, defaults and legal values -- stated
    once.  ``Database(**execution)``, ``Database.configure``,
    ``SessionDefaults``, ``QueryService`` and ``dbapi.connect`` all
    build or ``dataclasses.replace`` this value, so every surface
    accepts the same names and rejects an illegal value with the same
    ``ValueError`` from ``__post_init__``.  What each knob costs or
    buys, and which of the paper's levers it is:
    docs/engine_internals.md, "Execution options".

    ``case_dispatch``:
        what the ledger *charges* for a family of disjoint pivot-style
        CASE aggregations, not how it is computed (the pivot kernel
        computes it either way, :mod:`repro.engine.pivot`):
        ``"linear"`` books one WHEN test per term per row, which is
        what the paper says real optimizers do; ``"hash"`` books the
        one probe per row of the dispatch the paper proposes
        (Section 3.2 / DMKD Section 3.5).  Ledger only: results and
        wall-clock are identical either way.
    ``use_encoding_cache``:
        base-table dictionary encodings are served from the catalog's
        table-versioned cache instead of recomputed per plan step.
        Wall-clock only: results and logical-I/O counters are identical
        either way.
    """

    case_dispatch: str = "linear"
    use_encoding_cache: bool = True

    def __post_init__(self) -> None:
        if self.case_dispatch not in ("linear", "hash"):
            raise ValueError("case_dispatch must be 'linear' or 'hash'")
        # Not truthiness: a None meant as "unset" must not silently
        # read as "off".
        if not isinstance(self.use_encoding_cache, bool):
            raise ValueError("use_encoding_cache must be True or False")


@dataclass
class Dataset:
    """Aligned tables produced by FROM/JOIN evaluation; every table
    has the same row count."""

    bindings: list[str] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        if not self.bindings:
            return 1  # the FROM-less dummy row
        return self.tables[self.bindings[0]].n_rows

    def add(self, binding: str, table: Table) -> None:
        self.bindings.append(binding.lower())
        self.tables[binding.lower()] = table

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


class _Op:
    """What :meth:`Executor._operator` hands an operator body."""

    __slots__ = ("_executor", "_name", "_event", "_span")

    def __init__(self, executor: "Executor", name: str, event: str,
                 span) -> None:
        self._executor, self._name = executor, name
        self._event, self._span = event, span

    def charge(self, rows: Optional[int] = None,
               context: Optional[str] = None, **counts: int) -> None:
        """Book the operator's output the moment its size is known --
        before it is materialized, so a row budget stops a runaway
        join first: ``counts`` to the stats ledger (mirrored as the
        charge event), ``rows`` to the governor."""
        if counts:
            self._executor._charge(self._event, **counts)
        if rows is not None:
            self._executor.governor.charge_rows(rows,
                                                context or self._name)

    def stamp(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.attrs.update(attrs)


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
        #: This thread's query scopes (repro.engine.scope):
        #: ``scopes.current`` is the innermost open one's record,
        #: ``scopes.last`` the record of the last outermost one that
        #: finished -- what a plain ``db.execute`` cost.
        self.scopes = ScopeLocal()

    @property
    def encoding_cache(self):
        """The catalog's dictionary-encoding cache, or None when the
        ablation toggle disables it."""
        if not self.options.use_encoding_cache:
            return None
        return self.catalog.encoding_cache

    # ------------------------------------------------------------------
    # The query boundary (repro.engine.scope)
    # ------------------------------------------------------------------
    def run_statement(self, statement: ast.Statement,
                      use_views: bool = True, sql: str = "",
                      token=None, force_trace: bool = False
                      ) -> tuple[Table | int, QueryRecord]:
        """One statement as one query scope: its result and its
        record, the ``statement`` span stamped with result size and
        counter deltas."""
        with query_scope(self, "statement", token=token,
                         force_trace=force_trace,
                         sql=sql or type(statement).__name__) as record:
            result = self.execute(statement, use_views)
        if record.trace is not None:
            # What audit_statement_span checks the charge events
            # against.
            record.trace.attrs.update(
                record.counters.counters(),
                result_rows=result.n_rows if isinstance(result, Table)
                else int(result))
        return result, record

    # ------------------------------------------------------------------
    # The operator boundary
    # ------------------------------------------------------------------
    def _charge(self, op: str, **counts: int) -> None:
        """Charge stats counters and mirror them as a ``charge`` trace
        event, so the span tree accounts for exactly what the ledger
        recorded (:func:`repro.obs.tracer.audit_statement_span`)."""
        self.stats.add(**counts)
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(op, kind="charge", **counts)

    @contextmanager
    def _operator(self, name: str, site: Optional[str] = None,
                  charge: Optional[str] = None,
                  **attrs: Any) -> Iterator[_Op]:
        """Every operator runs inside this: cross the cancel safepoint
        ``site`` (when the operator owns one), open the
        ``kind="operator"`` span, and hand the body an :class:`_Op`
        through which it charges the ledger (as event ``charge``,
        default ``name``) and the governor and stamps the span.  Fault
        sites and the safepoints of kernels several operators share
        (``join-build``, ``group-by``, ``pivot``) stay inside those
        kernels, where their crossing counts are."""
        if site is not None:
            cancel.checkpoint(site)
        with self.tracer.span(name, kind="operator", **attrs) as span:
            yield _Op(self, name, charge or name, span)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, statement: ast.Statement,
                use_views: bool = True) -> Table | int:
        """Run one statement; SELECT returns a Table, DML a row count.
        ``use_views=False`` keeps every SELECT in the statement off the
        materialized views (the recompute baseline)."""
        cancel.checkpoint("statement")
        self.governor.check_time("statement start")
        if isinstance(statement, ast.Select):
            return self.run_select(statement, use_views=use_views)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._create_table_as(statement, use_views)
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
            return self._insert_select(statement, use_views)
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
            explain = explain_analyze_statement if statement.analyze \
                else explain_statement
            return explain(self, statement.statement, use_views)
        raise PlanningError(f"cannot execute statement {statement!r}")

    # ------------------------------------------------------------------
    # SELECT: plan, then run the plan (EXPLAIN renders the same value)
    # ------------------------------------------------------------------
    def plan_select(self, select: ast.Select,
                    use_views: bool = True) -> SelectPlan:
        return plan_select(select, self.catalog, use_views)

    def run_select(self, select: ast.Select,
                   result_name: str = "result",
                   use_views: bool = True) -> Table:
        return self._run_plan(self.plan_select(select, use_views),
                              result_name)

    def _run_plan(self, plan: SelectPlan, result_name: str) -> Table:
        if plan.matview is not None:
            return self._serve_matview(plan.matview).renamed(result_name)
        select = plan.select
        dataset = self._build_dataset(plan)
        frame = dataset.frame()
        # Each output is (frame, select items over it, HAVING): one for
        # a projection or GROUP BY, one per set for grouping sets.
        if plan.mode == "grouping-sets":
            outputs = self._run_grouping_sets(plan, frame)
        elif plan.mode == "aggregate":
            outputs = [self._run_aggregate(plan, frame)]
        else:
            outputs = [(frame, plan.items, None)]

        with self._operator("projection", site="projection") as op:
            result: Optional[Table] = None
            for out_frame, items, having in outputs:
                piece = self._project(out_frame, items, having,
                                      result_name)
                result = piece if result is None \
                    else result.append(piece)
            if select.distinct:
                with self._operator("distinct",
                                    input_rows=result.n_rows) as distinct:
                    columns = [result.column(c)
                               for c in result.column_names()]
                    result = result.take(distinct_indices(
                        columns, result.n_rows, self.encoding_cache))
                    distinct.stamp(rows=result.n_rows)
            if select.order_by:
                # A plain projection's rows are still aligned 1:1 with
                # the source frame, so ORDER BY may reference
                # non-projected source columns.
                aligned = plan.mode == "projection" \
                    and not select.distinct
                with self._operator("sort", input_rows=result.n_rows):
                    result = self._apply_order(
                        select, result, frame if aligned else None)
            if select.limit is not None:
                result = result.take(
                    np.arange(min(select.limit, result.n_rows)))
            self.governor.check_width(result.schema.width(),
                                      "projection")
            op.charge(rows=result.n_rows)
        return result

    # -- FROM -------------------------------------------------------------
    def _build_dataset(self, plan: SelectPlan) -> Dataset:
        dataset = Dataset()
        from_plan = plan.from_plan
        if from_plan is None:
            return dataset
        dataset.add(from_plan.first.binding, self._scan(from_plan.first))
        for join in from_plan.joins:
            self._join(dataset, join, self._scan(join.source))
        if from_plan.residual_where is not None:
            self._filter(dataset, from_plan.residual_where)
        return dataset

    def _scan(self, source: PlannedSource) -> Table:
        with self._operator("scan", site="scan",
                            table=source.binding) as op:
            if source.kind == "table":
                table = self.catalog.table(source.source.name)
            elif source.kind == "matview":
                table = self._serve_matview(
                    self.catalog.matview(source.source.name))
            else:
                table = self._run_plan(source.plan, source.binding)
            op.charge(rows=table.n_rows, rows_scanned=table.n_rows)
            return table.renamed(source.binding)

    def _filter(self, dataset: Dataset, predicate: ast.Expr) -> None:
        with self._operator("filter", input_rows=dataset.n_rows) as op:
            mask = truth_mask(predicate, dataset.frame(), self.stats)
            dataset.gather(np.nonzero(mask)[0])
            op.stamp(rows=dataset.n_rows)

    def _join(self, dataset: Dataset, join: PlannedJoin,
              right_table: Table) -> None:
        binding = join.source.binding
        with self._operator("join", charge="join-output", table=binding,
                            join_kind=join.kind) as op:
            if not join.left_keys:
                n_left, n_right = dataset.n_rows, right_table.n_rows
                left_indices = np.repeat(
                    np.arange(n_left, dtype=np.int64), n_right)
                right_indices = np.tile(
                    np.arange(n_right, dtype=np.int64), n_left)
                op.stamp(cartesian=True)
            else:
                frame = dataset.frame()
                left_cols = [evaluate(k, frame, self.stats)
                             for k in join.left_keys]
                right_frame = Frame(right_table.n_rows)
                right_frame.add_table(binding, right_table)
                right_cols = [evaluate(k, right_frame, self.stats)
                              for k in join.right_keys]
                # The smaller side builds; a left join's right side
                # always does.
                if join.kind != "left" \
                        and dataset.n_rows < right_table.n_rows:
                    right_indices, left_indices = self._join_rows(
                        right_cols, left_cols, join, outer=False)
                else:
                    left_indices, right_indices = self._join_rows(
                        left_cols, right_cols, join,
                        outer=join.kind == "left")
            op.charge(rows=len(left_indices),
                      context="join" if join.left_keys
                      else "cartesian join",
                      rows_joined=len(left_indices))
            op.stamp(rows=len(left_indices))
            dataset.gather(left_indices)
            dataset.add(binding, right_table)
            dataset.gather(right_indices, which=[binding.lower()])
        if join.residual is not None:
            self._filter(dataset, join.residual)

    def _join_rows(self, probe_cols: list[ColumnData],
                   build_cols: list[ColumnData], join: PlannedJoin,
                   outer: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(probe, build)`` row-index pairs."""
        return join_indices(probe_cols, build_cols, outer,
                            cache=self.encoding_cache,
                            null_safe=join.null_safe)

    # -- select-list evaluation ---------------------------------------------
    def _project(self, frame: Frame, items: list[tuple[str, ast.Expr]],
                 having: Optional[ast.Expr], result_name: str) -> Table:
        """Evaluate named select items over ``frame``, keeping the rows
        HAVING accepts."""
        named = [(name, _concrete(evaluate(
            self._bind_windows(expr, frame), frame, self.stats)))
            for name, expr in items]
        result = Table.from_columns(result_name, named)
        if having is not None:
            mask = truth_mask(self._bind_windows(having, frame), frame,
                              self.stats)
            result = result.take(np.nonzero(mask)[0])
        return result

    def _bind_windows(self, expr: ast.Expr, frame: Frame) -> ast.Expr:
        """Evaluate window function calls and splice their results into
        the frame, returning an expression free of OVER clauses."""
        if not ast.contains_window(expr):
            return expr
        counter = [0]

        def rewrite(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.FuncCall) and node.over is not None:
                with self._operator("window", func=node.name):
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
    def _run_aggregate(self, plan: SelectPlan, frame: Frame):
        key_columns = [evaluate(e, frame, self.stats)
                       for e in plan.group_by]
        with self._operator("group-by-build",
                            input_rows=frame.n_rows) as op:
            grouping = factorize(key_columns, frame.n_rows,
                                 self.encoding_cache)
            op.charge(rows=grouping.n_groups, context="group-by")
            op.stamp(groups=grouping.n_groups)
            firsts = first_positions(grouping.group_ids,
                                     grouping.n_groups)

        group_frame = Frame(grouping.n_groups)
        keys: dict[Any, int] = {}
        for j, (expr, column) in enumerate(zip(plan.group_by,
                                               key_columns)):
            group_frame.add_column(f"__key{j}", column.take(firsts))
            keys[_normalize(expr, frame)] = j

        aggs = _Bound("__agg")
        rewrite = _group_rewriter(frame, keys, aggs)
        items = [(name, rewrite(expr)) for name, expr in plan.items]
        having = plan.select.having
        if having is not None:
            having = rewrite(having)

        with self._operator("group-by-aggregate",
                            groups=grouping.n_groups,
                            aggregates=len(aggs.calls)):
            self._compute_aggregates(aggs.calls, frame, grouping,
                                     group_frame)
        return group_frame, items, having

    def _run_grouping_sets(self, plan: SelectPlan, frame: Frame):
        """Shared-scan evaluation of a CUBE/ROLLUP/GROUPING SETS query.

        One factorize over the union of all grouping dims; every set's
        grouping is derived from it at group level (bit-identical to a
        standalone GROUP BY of that set, see repro.engine.groupingsets).
        Exact aggregates fold from the fold source's partials along
        lattice edges; order-sensitive ones recompute from base rows.
        Output rows carry NULL placeholders for absent dims and are
        emitted set by set in request order.
        """
        lattice = gs_mod.build_plan(plan.grouping_sets,
                                    key_of=lambda e: _normalize(e, frame))
        key_columns = [evaluate(e, frame, self.stats)
                       for e in lattice.dims]
        keys = {_normalize(e, frame): i
                for i, e in enumerate(lattice.dims)}

        with self._operator("grouping-sets-build",
                            input_rows=frame.n_rows, sets=lattice.n_sets,
                            dims=len(lattice.dims)) as op:
            union = factorize(key_columns, frame.n_rows,
                              self.encoding_cache)
            op.stamp(union_groups=union.n_groups)

        # Masks differ per set; aggregate and pct calls are shared
        # across sets through the bound registries.
        aggs, pcts = _Bound("__agg"), _Bound("__pct")
        having = plan.select.having
        per_set = []
        for spec in lattice.sets:
            rewrite = _group_rewriter(frame, keys, aggs, pcts, spec.dims)
            per_set.append((
                [(name, rewrite(expr)) for name, expr in plan.items],
                rewrite(having) if having is not None else None))

        # The internal compute list: aggregate calls first (arguments
        # evaluated once -- the shared scan), then one sum per pct
        # measure (the shared partials percentages read).
        compute = list(self._aggregate_items(aggs.calls, frame))
        compute += [(f"__pctsum{j}", "sum", _concrete(evaluate(
            call.args[0], frame, self.stats)), False)
            for j, call in enumerate(pcts.calls)]

        # -- compute each distinct set once, finest first, so fold
        # sources exist before their dependants ------------------------
        by_dims: dict[tuple[int, ...], gs_mod.SetGrouping] = {}
        partials: dict[tuple[int, ...], dict[str, ColumnData]] = {}
        fold_source_of: dict[tuple[int, ...], Optional[tuple[int, ...]]] \
            = {}
        for spec in lattice.sets:
            if spec.dims not in fold_source_of:
                fold_source_of[spec.dims] = (
                    lattice.sets[spec.fold_source].dims
                    if spec.fold_source is not None else None)
        order = sorted(fold_source_of, key=lambda d: (-len(d), d))
        for dims in order:
            label = gs_mod.render_set(
                tuple(lattice.dims[i] for i in dims))
            with self._operator("grouping-set", site="group-by",
                                set=label) as op:
                sg = gs_mod.derive_set_grouping(union, dims,
                                                frame.n_rows)
                op.charge(rows=sg.grouping.n_groups, context="group-by")
                by_dims[dims] = sg
                source = fold_source_of[dims]
                local: dict[str, ColumnData] = {}
                recompute = []
                for name, func, arg, distinct in compute:
                    if source is not None \
                            and by_dims[source].grouping.n_groups > 0 \
                            and gs_mod.fold_eligible(func, arg, distinct):
                        local[name] = gs_mod.fold_aggregate(
                            func, partials[source][name],
                            gs_mod.fine_to_coarse(by_dims[source], sg),
                            sg.grouping.n_groups)
                    else:
                        recompute.append((name, func, arg, distinct))
                op.stamp(groups=sg.grouping.n_groups, folded=len(local),
                         recomputed=len(recompute))
                if recompute:
                    local.update(self._aggregate_batch(
                        recompute, sg.grouping.group_ids,
                        sg.grouping.n_groups))
                partials[dims] = local

        # -- one output per requested set, in request order ------------
        outputs = []
        for spec, (items, set_having) in zip(lattice.sets, per_set):
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
                group_frame.add_column(f"__key{i}", data)
            for name, data in partials[spec.dims].items():
                if not name.startswith("__pctsum"):
                    group_frame.add_column(name, data)
            for j in range(len(pcts.calls)):
                own = partials[spec.dims][f"__pctsum{j}"]
                if spec.pct_parent is None:
                    parent_sums = own
                    parent_ids = np.arange(n_groups, dtype=np.int64)
                else:
                    parent_dims = lattice.sets[spec.pct_parent].dims
                    parent_sums = partials[parent_dims][f"__pctsum{j}"]
                    parent_ids = gs_mod.fine_to_coarse(
                        sg, by_dims[parent_dims])
                group_frame.add_column(
                    f"__pct{j}", gs_mod.percentage_column(
                        own, parent_sums, parent_ids))
            outputs.append((group_frame, items, set_having))
        return outputs

    def _aggregate_batch(self, items, group_ids: np.ndarray,
                         n_groups: int) -> dict[Any, ColumnData]:
        """Every grouped aggregate of every operator goes through here:
        ``(key, func, arg, distinct)`` items over one grouping in,
        ``{key: ColumnData}`` out, in item order.  ``items`` may be a
        generator and is consumed one aggregate at a time, so a caller
        that evaluates argument expressions lazily never holds more
        than one argument column (the 1,000-column Hpct statements
        depend on this)."""
        cache = self.encoding_cache
        return {key: compute_aggregate(func, arg, distinct, group_ids,
                                       n_groups, cache)
                for key, func, arg, distinct in items}

    def _aggregate_items(self, calls: list[ast.FuncCall], frame: Frame,
                         skip: frozenset = frozenset()):
        """``(__aggI, func, argument column, distinct)`` per aggregate
        call, validated; ``None`` is ``count(*)``'s argument.  Lazy:
        :meth:`_aggregate_batch` pulls one item at a time, so argument
        expressions are evaluated (and released) per aggregate exactly
        as a plain loop would."""
        for i, call in enumerate(calls):
            if i in skip:
                continue
            if call.args and isinstance(call.args[0], ast.Star):
                if call.name != "count":
                    raise PlanningError(
                        f"{call.name}(*) is not valid; only count(*)")
                yield f"__agg{i}", "count", None, False
            else:
                if len(call.args) != 1:
                    raise PlanningError(
                        f"{call.name}() takes exactly one argument")
                arg = evaluate(call.args[0], frame, self.stats)
                yield f"__agg{i}", call.name, _concrete(arg), \
                    call.distinct

    def _compute_aggregates(self, calls: list[ast.FuncCall],
                            frame: Frame, grouping,
                            group_frame: Frame) -> None:
        """Evaluate each distinct aggregate over the base frame, binding
        ``__aggI`` columns into the group frame.  Families of disjoint
        pivot-style CASE aggregations go through the pivot kernel (one
        factorize pass instead of N masked passes; the ``pivot``
        operator opens only for a statement that has one), everything
        else through the generic evaluator."""
        handled: set[int] = set()
        families = pivot_mod.detect_families(calls, frame)
        if families:
            with self._operator("pivot") as op:
                handled = pivot_mod.compute_families(
                    families, frame, grouping.group_ids,
                    grouping.n_groups, group_frame, self.stats,
                    self._aggregate_batch, self.encoding_cache,
                    self.options.case_dispatch)
                op.stamp(aggregates=len(handled),
                         groups=grouping.n_groups)
        results = self._aggregate_batch(
            self._aggregate_items(calls, frame, frozenset(handled)),
            grouping.group_ids, grouping.n_groups)
        for name, data in results.items():
            group_frame.add_column(name, data)

    # -- ORDER BY -----------------------------------------------------------
    def _apply_order(self, select: ast.Select, result: Table,
                     fallback: Optional[Frame] = None) -> Table:
        """Sort the result.  Keys resolve against the output columns
        first; for plain (non-DISTINCT) projections they may also
        reference source columns via ``fallback``."""
        frame = Frame(result.n_rows)
        frame.add_table(result.name, result)
        sort_keys = []
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
            codes = encode_column(_concrete(column),
                                  self.encoding_cache).codes
            sort_keys.append(codes if item.ascending else -codes)
        order = np.lexsort(tuple(reversed(sort_keys)))
        return result.take(order)

    # ------------------------------------------------------------------
    # Materialized views (repro.views)
    # ------------------------------------------------------------------
    def _serve_matview(self, mv) -> Table:
        """The view's result, refreshed first when stale.

        A fresh hit costs O(1); a stale view (its base was replaced
        without maintenance, e.g. by CREATE TABLE ... REPLACE or a raw
        catalog swap) is fully rebuilt and the replacement published
        before serving, so no reader ever sees stale rows."""
        base = self.catalog.table(mv.definition.base_table)
        registry = self.stats.registry
        staleness = registry.gauge(
            "view_staleness_lag",
            help="base-table versions ahead of the served view",
            view=mv.name)
        staleness.set(max(0, base.version - mv.base_version))
        if mv.fresh(base):
            registry.counter(
                "view_hits_total",
                help="reads answered from a materialized view",
                view=mv.name).inc()
            return mv.result
        refreshed = self._refresh_full(mv, base)
        staleness.set(0)
        return refreshed.result

    def _refresh_full(self, mv, base: Table):
        """Rebuild ``mv`` from ``base`` and publish the replacement."""
        from repro.views import maintenance
        refreshed = self._maintained(mv, lambda: (maintenance.refresh(
            mv.definition, base, self.stats), "full"))
        self.catalog.publish_matviews({refreshed.key: refreshed})
        return refreshed

    def _maintained(self, mv, refresh):
        """Run ``refresh() -> (replacement view, mode)`` as one
        ``view-maintenance`` operator, timed by the injected clock into
        the per-view refresh metrics."""
        clock, registry = self.tracer.clock, self.stats.registry
        with self._operator("view-maintenance", view=mv.name) as op:
            started = clock.now()
            refreshed, mode = refresh()
            elapsed = clock.now() - started
            op.stamp(mode=mode)
        registry.counter(
            "view_refreshes_total",
            help="materialized-view refreshes by maintenance mode",
            view=mv.name, mode=mode).inc()
        registry.gauge(
            "view_maintenance_seconds",
            help="seconds spent in the last refresh of this view",
            view=mv.name, mode=mode).set(elapsed)
        return refreshed

    def _create_matview(self, statement: ast.CreateMaterializedView
                        ) -> int:
        from repro.views.maintenance import build_matview
        if self.catalog.has_matview(statement.name):
            raise CatalogError(f"materialized view {statement.name!r} "
                               f"already exists")
        with self._operator("dml-write", charge="write",
                            table=statement.name) as op:
            mv = build_matview(self.catalog, statement.name,
                               statement.select, self.stats)
            self.catalog.create_matview(mv)
            op.charge(rows_written=mv.result.n_rows)
        return mv.result.n_rows

    def _refresh_matview(self, statement: ast.RefreshMaterializedView
                         ) -> int:
        mv = self.catalog.matview(statement.name)
        base = self.catalog.table(mv.definition.base_table)
        return self._refresh_full(mv, base).result.n_rows

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
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

    def _create_table_as(self, statement: ast.CreateTableAs,
                         use_views: bool) -> int:
        result = self.run_select(statement.select, statement.name,
                                 use_views)
        with self._operator("dml-write", charge="write",
                            table=statement.name) as op:
            self.catalog.create_table(result)
            op.charge(rows_written=result.n_rows)
        return result.n_rows

    def _publish(self, op: _Op, old: Table, new: Table, change,
                 rows: int, context: str, **counts: int) -> None:
        """The one DML tail: delta-maintain every materialized view on
        the table, publish the replacements atomically with the new
        table, then charge the write."""
        from repro.views import maintenance
        replacements = {}
        for mv in self.catalog.matviews_on(old.name):
            refreshed = self._maintained(mv, lambda: maintenance.maintain(
                mv, old, new, change, self.stats))
            replacements[refreshed.key] = refreshed
        self.catalog.replace_table(new, matviews=replacements)
        op.charge(rows=rows, context=context, **counts)

    def _insert_values(self, statement: ast.InsertValues) -> int:
        with self._operator("dml-write", site="dml", charge="write",
                            table=statement.table) as op:
            table = self.catalog.table(statement.table)
            schema = table.schema
            column_order = list(statement.columns) \
                or schema.column_names()
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
                    raw = evaluate_scalar(expr)
                    values[name.lower()] = coerce_scalar(raw, target) \
                        if raw is not None else None
                rows.append(tuple(values[c.name.lower()]
                                  for c in schema.columns))
            appended = table.append(Table.from_rows(schema, rows))
            self._publish(op, table, appended, ("insert", table.n_rows),
                          len(rows), "insert", rows_written=len(rows))
        return len(rows)

    def _insert_select(self, statement: ast.InsertSelect,
                       use_views: bool) -> int:
        table = self.catalog.table(statement.table)
        schema = table.schema
        result = self.run_select(statement.select, use_views=use_views)
        with self._operator("dml-write", site="dml", charge="write",
                            table=statement.table) as op:
            column_order = list(statement.columns) \
                or schema.column_names()
            if len(column_order) != result.schema.width():
                raise PlanningError(
                    f"INSERT ... SELECT produces "
                    f"{result.schema.width()} columns; target list has "
                    f"{len(column_order)}")
            block = {schema.column(target).name: _coerce_column(
                result.column(source), schema.column_type(target))
                for target, source in zip(column_order,
                                          result.column_names())}
            appended = table.append(Table(schema, block))
            self._publish(op, table, appended, ("insert", table.n_rows),
                          result.n_rows, "insert-select",
                          rows_written=result.n_rows)
        return result.n_rows

    def _scan_target(self, ref: ast.TableRef, where: Optional[ast.Expr],
                     extra_rows: int = 0
                     ) -> tuple[Table, Frame, np.ndarray]:
        """An UPDATE/DELETE target: the table, a frame over it and the
        rows WHERE accepts."""
        table = self.catalog.table(ref.name)
        frame = Frame(table.n_rows)
        with self._operator("scan", table=ref.binding) as op:
            frame.add_table(ref.binding, table)
            op.charge(rows_scanned=table.n_rows + extra_rows)
        mask = np.ones(table.n_rows, dtype=bool)
        if where is not None:
            with self._operator("filter", input_rows=table.n_rows):
                mask = truth_mask(where, frame, self.stats)
        return table, frame, mask

    def _update(self, statement: ast.Update) -> int:
        if statement.from_tables:
            table, frame, to_update = self._update_join_frame(statement)
        else:
            table, frame, to_update = self._scan_target(
                statement.table, statement.where)
        with self._operator("dml-write", site="dml", charge="update",
                            table=table.name) as op:
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
            # Row-store semantics (the substrate stands in for
            # Teradata): an UPDATE rewrites whole rows, not just the
            # assigned column.
            assigned = {a.column.lower() for a in statement.assignments}
            for col_def in table.schema.columns:
                if col_def.name.lower() not in assigned:
                    updated = updated.replace_column(
                        col_def.name,
                        updated.column(col_def.name).copy())
            count = int(to_update.sum())
            self._publish(op, table, updated, ("update", to_update),
                          table.n_rows, "update", rows_updated=count)
        return count

    def _update_join_frame(self, statement: ast.Update):
        """A join update's target table, the frame its assignments see
        (target columns plus the at most one matching row of the FROM
        table per target row) and the rows to update."""
        join = plan_update_join(statement, self.catalog).joins[0]
        binding, from_binding = statement.table.binding, \
            join.source.binding
        from_table = self.catalog.table(join.source.source.name) \
            .renamed(from_binding)
        table, target_frame, _ = self._scan_target(
            statement.table, None, extra_rows=from_table.n_rows)
        from_frame = Frame(from_table.n_rows)
        from_frame.add_table(from_binding, from_table)

        with self._operator("join", charge="join-output",
                            table=from_binding, join_kind="left") as op:
            probe_idx, build_idx = self._join_rows(
                [target_frame.resolve(k) for k in join.left_keys],
                [from_frame.resolve(k) for k in join.right_keys],
                join, outer=True)
            if len(probe_idx) != table.n_rows:
                raise ExecutionError(
                    "UPDATE ... FROM matched a target row against more "
                    "than one source row")
            build_for_target = build_idx[np.argsort(probe_idx,
                                                    kind="stable")]
            matched = build_for_target >= 0
            op.charge(rows_joined=int(matched.sum()))
            op.stamp(rows=int(matched.sum()))

            frame = Frame(table.n_rows)
            frame.add_table(binding, table)
            safe = np.where(matched, build_for_target, 0)
            for col_def in from_table.schema.columns:
                data = from_table.column(col_def.name)
                frame.add_column(
                    col_def.name,
                    ColumnData(data.sql_type, data.values[safe],
                               data.nulls[safe] | ~matched),
                    binding=from_binding)
        if join.residual is not None:
            with self._operator("filter", input_rows=table.n_rows):
                matched &= truth_mask(join.residual, frame, self.stats)
        return table, frame, matched

    def _delete(self, statement: ast.Delete) -> int:
        table, _, hit = self._scan_target(statement.table,
                                          statement.where)
        with self._operator("dml-write", site="dml", charge="update",
                            table=table.name) as op:
            kept = table.filter(~hit)
            deleted = int(hit.sum())
            self._publish(op, table, kept, ("delete", ~hit),
                          table.n_rows, "delete", rows_updated=deleted)
        return deleted


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class _Bound:
    """Distinct calls of one kind (aggregates, ``pct()``), each bound
    to a ``<prefix>N`` column of the group frame."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.calls: list[ast.FuncCall] = []
        self._names: dict[Any, str] = {}

    def bind(self, norm, call: ast.FuncCall) -> ast.ColumnRef:
        if norm not in self._names:
            self._names[norm] = f"{self.prefix}{len(self.calls)}"
            self.calls.append(call)
        return ast.ColumnRef(self._names[norm])


def _group_rewriter(frame: Frame, keys: dict[Any, int], aggs: _Bound,
                    pcts: Optional[_Bound] = None,
                    set_dims: Optional[tuple[int, ...]] = None
                    ) -> Callable[[ast.Expr], ast.Expr]:
    """The rewrite of select items / HAVING onto a group frame: a
    grouping key becomes its ``__keyI`` column and each distinct
    aggregate call its ``aggs`` column.  Under grouping sets
    (``set_dims`` = the set's dims) ``grouping()`` folds to its mask
    literal and ``pct()`` binds like an aggregate."""
    # Keys of every node under the expression being rewritten: the
    # first visit normalizes the whole tree once (raising what it
    # always raised, in the same order), the descent only looks up.
    # Emptied per expression -- a 1,201-item select list would
    # otherwise hold every key until the statement ends.
    norms: dict[int, Any] = {}

    def rewrite(node: ast.Expr) -> ast.Expr:
        norm = norms.get(id(node))
        if norm is None:
            norm = _normalize(node, frame, norms)
        if norm in keys:
            return ast.ColumnRef(f"__key{keys[norm]}")
        if isinstance(node, ast.FuncCall) and node.over is None:
            if set_dims is not None and node.name == "grouping":
                if not node.args:
                    raise GroupingSetError(
                        "grouping() requires at least one argument")
                arg_dims = [keys.get(_normalize(arg, frame))
                            for arg in node.args]
                if None in arg_dims:
                    raise GroupingSetError(
                        "grouping() arguments must be grouping "
                        "columns of the query",
                        gs_mod.render_set(node.args))
                return ast.Literal(
                    gs_mod.grouping_mask(arg_dims, set_dims))
            if set_dims is not None and node.name == "pct":
                if (len(node.args) != 1 or node.distinct
                        or node.by_columns or node.default is not None):
                    raise GroupingSetError(
                        "pct() takes exactly one plain argument")
                return pcts.bind(norm, node)
            if node.name in ast.AGGREGATE_NAMES:
                return aggs.bind(norm, node)
        if isinstance(node, ast.ColumnRef):
            raise PlanningError(
                f"column {node.name!r} must appear in GROUP BY or "
                f"inside an aggregate")
        return _rebuild(node, rewrite)

    def rewrite_expression(expr: ast.Expr) -> ast.Expr:
        norms.clear()
        return rewrite(expr)
    return rewrite_expression


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


def _normalize(expr: ast.Expr, frame: Frame,
               memo: Optional[dict[int, Any]] = None):
    """A hashable structural key for an expression, with column
    references resolved to the identity of their backing arrays so that
    ``D1``, ``F.D1`` and an aliased spelling all normalize equally.
    ``memo``, when given, collects every sub-expression's key under
    ``id(node)`` on the way, so a caller that needs the keys of a whole
    tree pays for one traversal."""
    if isinstance(expr, ast.Literal):
        # Typed: ``0``, ``0.0`` and ``FALSE`` are equal Python values
        # but different SQL literals (``ELSE 0.0`` widens an INTEGER
        # CASE).
        key = ("lit", type(expr.value), expr.value)
    elif isinstance(expr, ast.ColumnRef):
        key = ("col", id(frame.resolve(expr)))
    elif isinstance(expr, ast.Star):
        key = ("star", expr.table and expr.table.lower())
    elif isinstance(expr, ast.UnaryOp):
        key = ("un", expr.op, _normalize(expr.operand, frame, memo))
    elif isinstance(expr, ast.BinaryOp):
        key = ("bin", expr.op, _normalize(expr.left, frame, memo),
               _normalize(expr.right, frame, memo))
    elif isinstance(expr, ast.IsNull):
        key = ("isnull", expr.negated,
               _normalize(expr.operand, frame, memo))
    elif isinstance(expr, ast.InList):
        key = ("in", expr.negated,
               _normalize(expr.operand, frame, memo),
               tuple(_normalize(i, frame, memo) for i in expr.items))
    elif isinstance(expr, ast.CaseWhen):
        whens = tuple((_normalize(c, frame, memo),
                       _normalize(r, frame, memo))
                      for c, r in expr.whens)
        else_ = _normalize(expr.else_, frame, memo) \
            if expr.else_ is not None else None
        key = ("case", whens, else_)
    elif isinstance(expr, ast.Cast):
        key = ("cast", expr.type_name.upper(),
               _normalize(expr.operand, frame, memo))
    elif isinstance(expr, ast.FuncCall):
        over = None
        if expr.over is not None:
            over = tuple(_normalize(p, frame, memo)
                         for p in expr.over.partition_by)
        key = ("func", expr.name, expr.distinct,
               tuple(_normalize(a, frame, memo) for a in expr.args),
               over)
    else:
        raise PlanningError(f"cannot normalize expression {expr!r}")
    if memo is not None:
        memo[id(expr)] = key
    return key
