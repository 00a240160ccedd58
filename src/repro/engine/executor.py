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
that crosses the named site, opens the operator span and charges
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

from repro.engine import binder, faults
from repro.engine import pivot as pivot_mod
from repro.engine.aggregates import compute_aggregate
from repro.engine.catalog import Catalog
from repro.engine.column import ColumnData
from repro.engine.expressions import (Frame, evaluate, evaluate_scalar,
                                      truth_mask)
from repro.engine.governor import ResourceGovernor
from repro.engine import groupingsets as gs_mod
from repro.engine.groupby import (distinct_indices, encode_column,
                                  factorize, first_positions,
                                  in_code_order)
from repro.engine.join import join_indices
from repro.engine.planner import (PlannedJoin, PlannedSource, SelectPlan,
                                  plan_select, plan_update_join)
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.scope import QueryRecord, ScopeLocal, query_scope
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType, coerce_scalar, type_from_name
from repro.engine.window import evaluate_window
from repro.errors import (CatalogError, ExecutionError, PlanningError,
                          ReproError, TypeMismatchError)
from repro.obs.tracer import Tracer
from repro.sql import ast


@dataclass
class Dataset:
    """Aligned tables produced by FROM/JOIN evaluation; every table
    has the same row count."""

    bindings: list[str] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    #: The bindings whose tables a gather already made (intermediates).
    gathered: set[str] = field(default_factory=set)

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
        # A join that keeps the rows where they stand (1:1, in key order:
        # the partitions of a wide Hpct result) moves nothing, and a
        # table a gather already made can stay as it is.
        kept = not mask.any() and np.array_equal(
            indices, np.arange(len(indices)))
        for binding in (which if which is not None else self.bindings):
            table = self.tables[binding]
            if kept and binding in self.gathered \
                    and table.n_rows == len(indices):
                continue
            self.gathered.add(binding)
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
            executor = self._executor
            executor.governor.charge_rows(executor.scopes.root, rows,
                                          context or self._name)

    def stamp(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.attrs.update(attrs)


class Executor:
    """Executes statements against a catalog, charging ``stats``."""

    def __init__(self, catalog: Catalog, stats: StatsCollector,
                 governor: Optional[ResourceGovernor] = None,
                 tracer: Optional[Tracer] = None):
        self.catalog = catalog
        self.stats = stats
        # Budget checks are no-ops outside an open query scope, so a
        # standalone Executor (unit tests) runs ungoverned.
        self.governor = governor or ResourceGovernor()
        # A standalone Executor traces nothing; the Database hands in
        # its (possibly enabled) tracer.
        self.tracer = tracer if tracer is not None \
            else Tracer(enabled=False)
        #: This thread's query scopes (repro.engine.scope):
        #: ``scopes.root`` is the outermost open one's record,
        #: ``scopes.last`` the record of the last outermost one that
        #: finished -- what a plain ``db.execute`` cost.
        self.scopes = ScopeLocal()

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
        """Every operator runs inside this: cross the named site
        ``site`` (when the operator owns one), open the
        ``kind="operator"`` span, and hand the body an :class:`_Op`
        through which it charges the ledger (as event ``charge``,
        default ``name``) and the governor and stamps the span.  The
        sites of kernels several operators share (``join-build``,
        ``group-by``, ``pivot``) stay inside those kernels, where their
        crossing counts are."""
        if site is not None:
            faults.cross(site)
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
        faults.cross("statement")
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
        # Each output is (frame, select items over it, HAVING, slots,
        # cells): one for a projection or GROUP BY, one per set for
        # grouping sets.  A projection's items are ``(name,
        # expression)``; a grouped statement's are ``(name, Rewritten)``
        # over the group frame columns ``slots`` names and -- for a
        # cell family, ``(names, Rewritten)`` -- the cell aggregates
        # ``cells`` holds (repro.engine.binder, repro.engine.pivot).
        if plan.mode == "grouping-sets":
            outputs = self._run_grouping_sets(plan, frame)
        elif plan.mode == "aggregate":
            outputs = [self._run_aggregate(plan, frame)]
        else:
            outputs = [(frame, plan.items, None, None, None)]

        with self._operator("projection", site="projection") as op:
            result: Optional[Table] = None
            for out_frame, items, having, slots, cells in outputs:
                piece = self._project(out_frame, items, having, slots,
                                      cells, plan, result_name)
                result = piece if result is None \
                    else result.append(piece)
            if select.distinct:
                with self._operator("distinct",
                                    input_rows=result.n_rows) as distinct:
                    columns = [result.column(c)
                               for c in result.column_names()]
                    result = result.take(distinct_indices(
                        columns, result.n_rows, self.stats))
                    distinct.stamp(rows=result.n_rows)
            if select.order_by:
                # A plain projection's rows are still aligned 1:1 with
                # the source frame, so ORDER BY may reference
                # non-projected source columns.
                aligned = plan.mode == "projection" \
                    and not select.distinct
                result = self._apply_order(
                    select, result, frame if aligned else None)
            if select.limit is not None:
                result = result.take(
                    np.arange(min(select.limit, result.n_rows)))
            self.governor.check_width(self.scopes.root,
                                      result.schema.width(), "projection")
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
                            stats=self.stats,
                            null_safe=join.null_safe)

    # -- select-list evaluation ---------------------------------------------
    def _project(self, frame: Frame, items: list[tuple[Any, Any]],
                 having: Optional[binder.Rewritten],
                 slots: Optional[list[str]],
                 cells: Optional[pivot_mod.CellStore], plan: SelectPlan,
                 result_name: str) -> Table:
        """Evaluate named select items over ``frame``, keeping the rows
        HAVING accepts.

        Items that share a shape are evaluated together, once, over
        their leaf columns stacked end to end, when the first of them
        comes up; every other item -- and every item of a stack that
        raises -- by its own :func:`evaluate`, in order, so a failing
        statement raises its first failing item's error
        (docs/engine_internals.md, "Select-list evaluation").  A stack
        books its charge item by item as each one's turn comes, so the
        ledger reads as if every item had run alone, up to any
        error.  A cell family is a stack known in advance: its
        template is evaluated once over its leaves stacked -- the cell
        aggregates straight from their groups x cells block -- and its
        cells are sliced out."""
        grouped = slots is not None
        stacks, slot_data = _stacks(frame, items, slots) if grouped \
            else ({}, None)
        ready: dict[int, ColumnData] = {}
        share: dict[int, int] = {}   # each stacked item's ledger charge
        unbooked = 0
        named = []
        for i, (name, item) in enumerate(items):
            if grouped and item.family is not None:
                columns, charge = self._project_family(
                    frame.n_rows, slot_data, cells, item, unbooked)
                unbooked += charge
                named.extend(zip(name, columns))
                continue
            stack = stacks.get(i)
            if stack is not None:
                for member in stack:
                    del stacks[member]
                try:
                    columns, charge = _evaluate_stack(
                        frame.n_rows, slot_data,
                        [items[member][1] for member in stack])
                except ReproError:
                    pass   # each item, evaluated alone, says why
                else:
                    ready.update(zip(stack, columns))
                    share.update(dict.fromkeys(stack, charge))
            column = ready.pop(i, None)
            if column is not None:
                unbooked += share[i]
            else:
                if unbooked:
                    self.stats.add(case_evaluations=unbooked)
                    unbooked = 0
                windows = self._window_binder(frame) \
                    if i in plan.windowed else None
                if grouped:
                    expr = item.tree(slots, windows)
                elif windows is not None:
                    expr = plan.windowed[i].tree(windows)
                else:
                    expr = item
                column = _concrete(evaluate(expr, frame, self.stats))
            named.append((name, column))
        if unbooked:
            self.stats.add(case_evaluations=unbooked)
        result = Table.from_columns(result_name, named)
        if having is not None:
            mask = truth_mask(having.tree(slots, self._window_binder(
                frame) if plan.having_windowed else None), frame,
                self.stats)
            result = result.take(np.nonzero(mask)[0])
        return result

    def _project_family(self, n: int, slot_data: list[ColumnData],
                        cells: pivot_mod.CellStore,
                        item: binder.Rewritten, unbooked: int
                        ) -> tuple[list[ColumnData], int]:
        """A cell family's columns over ``n`` groups, and what its
        cells charge the ledger.  Should the family raise, the ledger
        is booked up to its first cell, which is evaluated alone: every
        cell is the same tree over leaves of the same types, so the
        first raises what the family did, charging what it would have
        charged alone."""
        k = len(item.family)
        if not k:
            return [], 0
        tally = _Tally()
        try:
            columns = _evaluate_stacked(
                n, k, item, _family_leaves(slot_data, cells, item, k),
                tally)
        except ReproError:
            if unbooked:
                self.stats.add(case_evaluations=unbooked)
            _evaluate_stacked(n, 1, item,
                              _family_leaves(slot_data, cells, item, 1),
                              self.stats)
            raise
        return columns, tally.case_evaluations

    def _window_binder(self, frame: Frame
                       ) -> Callable[[ast.FuncCall], ast.Expr]:
        """What :func:`binder.build` calls on each window function call
        of one expression: evaluate it, splice its result into the
        frame, and stand a column reference in for it."""
        counter = [0]

        def bind(node: ast.FuncCall) -> ast.Expr:
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
                                         frame.n_rows, self.stats)
            name = f"__win{counter[0]}"
            counter[0] += 1
            frame.add_column(name, result)
            return ast.ColumnRef(name)
        return bind

    # -- aggregation --------------------------------------------------------
    def _run_aggregate(self, plan: SelectPlan, frame: Frame):
        key_columns = [evaluate(e, frame, self.stats)
                       for e in plan.group_by]
        with self._operator("group-by-build",
                            input_rows=frame.n_rows) as op:
            grouping = factorize(key_columns, frame.n_rows, self.stats)
            op.charge(rows=grouping.n_groups, context="group-by")
            op.stamp(groups=grouping.n_groups)
            firsts = first_positions(grouping.group_ids,
                                     grouping.n_groups)

        group_frame = Frame(grouping.n_groups)
        group_frame.add_columns((f"__key{j}", column.take(firsts))
                                for j, column in enumerate(key_columns))

        rewrite = binder.GroupRewrite(frame, plan.group_by)
        items = [(name, rewrite.rewrite(bound))
                 for (name, _), bound in zip(plan.items, plan.bound)]
        having = rewrite.rewrite(plan.having_bound) \
            if plan.having_bound is not None else None
        cells = pivot_mod.CellStore(rewrite.aggs.n_cells)

        with self._operator("group-by-aggregate",
                            groups=grouping.n_groups,
                            aggregates=len(rewrite.aggs),
                            items=len(plan.columns),
                            shapes=rewrite.shapes) as op:
            op.stamp(families=self._compute_aggregates(
                rewrite.aggs, frame, grouping, group_frame, cells))
        return group_frame, items, having, rewrite.slots, cells

    def _run_grouping_sets(self, plan: SelectPlan, frame: Frame):
        """Shared-scan evaluation of a CUBE/ROLLUP/GROUPING SETS query.

        One factorize over the union of all grouping dims; every set's
        grouping is derived from it at group level (bit-identical to a
        standalone GROUP BY of that set, see repro.engine.groupingsets),
        and its aggregates are computed over base rows through
        :meth:`_aggregate_batch`.  Output rows carry NULL placeholders
        for absent dims and are emitted set by set in request order.
        """
        lattice = gs_mod.build_plan(
            plan.grouping_sets,
            key_of=lambda e: binder.expression_key(e, frame))
        key_columns = [evaluate(e, frame, self.stats)
                       for e in lattice.dims]

        with self._operator("grouping-sets-build",
                            input_rows=frame.n_rows, sets=lattice.n_sets,
                            dims=len(lattice.dims)) as op:
            union = factorize(key_columns, frame.n_rows, self.stats)
            op.stamp(union_groups=union.n_groups)

        # One rewrite serves every set: only the grouping() masks
        # differ per set (Rewritten.for_set), and the aggregate and
        # pct calls are shared.
        rewrite = binder.GroupRewrite(frame, lattice.dims,
                                      grouping_sets=True)
        items = [(name, rewrite.rewrite(bound))
                 for (name, _), bound in zip(plan.items, plan.bound)]
        having = rewrite.rewrite(plan.having_bound) \
            if plan.having_bound is not None else None
        aggs, pcts = rewrite.aggs.calls, rewrite.pcts.calls

        # The internal compute list: aggregate calls first (arguments
        # evaluated once -- the shared scan), then one sum per pct
        # measure (the sums percentages read).
        compute = list(self._aggregate_items(
            ((f"__agg{i}", call) for i, call in enumerate(aggs)), frame))
        compute += [(f"__pctsum{j}", "sum", _concrete(evaluate(
            call.args[0], frame, self.stats)), False)
            for j, call in enumerate(pcts)]

        # -- compute each distinct set once ---------------------------
        by_dims: dict[tuple[int, ...], gs_mod.SetGrouping] = {}
        aggregated: dict[tuple[int, ...], dict[str, ColumnData]] = {}
        for spec in lattice.sets:
            dims = spec.dims
            if dims in by_dims:
                continue
            label = gs_mod.render_set(
                tuple(lattice.dims[i] for i in dims))
            with self._operator("grouping-set", site="group-by",
                                set=label) as op:
                sg = gs_mod.derive_set_grouping(union, dims,
                                                frame.n_rows)
                op.charge(rows=sg.grouping.n_groups, context="group-by")
                op.stamp(groups=sg.grouping.n_groups)
                by_dims[dims] = sg
                aggregated[dims] = self._aggregate_batch(
                    compute, sg.grouping.group_ids, sg.grouping.n_groups)

        # -- one output per requested set, in request order ------------
        outputs = []
        for spec in lattice.sets:
            sg = by_dims[spec.dims]
            n_groups = sg.grouping.n_groups
            group_frame = Frame(n_groups)
            dim_positions = {dim: pos
                             for pos, dim in enumerate(spec.dims)}
            group_frame.add_columns(
                (f"__key{i}", sg.grouping.key_column(dim_positions[i])
                 if i in dim_positions
                 else ColumnData.all_null(key_col.sql_type, n_groups))
                for i, key_col in enumerate(key_columns))
            group_frame.add_columns(
                (name, data) for name, data in aggregated[spec.dims].items()
                if not name.startswith("__pctsum"))
            for j in range(len(pcts)):
                own = aggregated[spec.dims][f"__pctsum{j}"]
                if spec.pct_parent is None:
                    parent_sums = own
                    parent_ids = np.arange(n_groups, dtype=np.int64)
                else:
                    parent_dims = lattice.sets[spec.pct_parent].dims
                    parent_sums = aggregated[parent_dims][f"__pctsum{j}"]
                    parent_ids = gs_mod.fine_to_coarse(
                        sg, by_dims[parent_dims])
                group_frame.add_column(
                    f"__pct{j}", gs_mod.percentage_column(
                        own, parent_sums, parent_ids))
            outputs.append((
                group_frame,
                [(name, item.for_set(spec.dims)) for name, item in items],
                having.for_set(spec.dims) if having is not None else None,
                rewrite.slots, None))
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
        return {key: compute_aggregate(func, arg, distinct, group_ids,
                                       n_groups, self.stats)
                for key, func, arg, distinct in items}

    def _aggregate_items(self, calls, frame: Frame):
        """``(key, func, argument column, distinct)`` per ``(key,
        aggregate call)``, validated; ``None`` is ``count(*)``'s
        argument.  Lazy: :meth:`_aggregate_batch` pulls one item at a
        time, so argument expressions are evaluated (and released) per
        aggregate exactly as a plain loop would."""
        for key, call in calls:
            if call.args and isinstance(call.args[0], ast.Star):
                if call.name != "count":
                    raise PlanningError(
                        f"{call.name}(*) is not valid; only count(*)")
                yield key, "count", None, False
            else:
                if len(call.args) != 1:
                    raise PlanningError(
                        f"{call.name}() takes exactly one argument")
                arg = evaluate(call.args[0], frame, self.stats)
                yield key, call.name, _concrete(arg), call.distinct

    def _compute_aggregates(self, aggs: binder.CallSlots, frame: Frame,
                            grouping, group_frame: Frame,
                            cells: pivot_mod.CellStore) -> int:
        """Evaluate each distinct aggregate over the base frame, binding
        ``__aggI`` columns into the group frame and filing cell family
        aggregates in ``cells``; the number of pivot families.
        Families of disjoint pivot-style CASE aggregations go through
        the pivot kernel (one factorize pass instead of N masked
        passes; the ``pivot`` operator opens only for a statement that
        has one), everything else through the generic evaluator, in
        the order the calls were bound -- a cell block's cells one by
        one."""
        handled: set[int] = set()
        blocks: set[binder.CellBlock] = set()
        families = pivot_mod.detect_families(aggs)
        if families:
            with self._operator("pivot") as op:
                handled, blocks = pivot_mod.compute_families(
                    families, frame, grouping.group_ids,
                    grouping.n_groups, group_frame, cells, self.stats,
                    self._aggregate_batch)
                op.stamp(aggregates=len(handled) + sum(
                    len(block.own) for block in blocks),
                    groups=grouping.n_groups)

        def generic():
            for entry in aggs.order:
                if type(entry) is int:
                    if entry not in handled:
                        yield f"__agg{entry}", aggs.calls[entry]
                elif entry not in blocks:
                    for i in entry.own.tolist():
                        yield (entry, i), ast.with_match(
                            entry.call, entry.family.match(i))

        computed = self._aggregate_batch(
            self._aggregate_items(generic(), frame),
            grouping.group_ids, grouping.n_groups)
        group_frame.add_columns((key, column)
                                for key, column in computed.items()
                                if type(key) is str)
        by_block: dict[binder.CellBlock, list[ColumnData]] = {}
        for key, column in computed.items():
            if type(key) is tuple:
                by_block.setdefault(key[0], []).append(column)
        for block, columns in by_block.items():
            cells.put(block.numbers[block.own], (
                columns[0].sql_type,
                np.stack([column.values for column in columns]),
                np.stack([column.nulls for column in columns])),
                np.arange(len(columns)))
        return len(families)

    # -- ORDER BY -----------------------------------------------------------
    def _apply_order(self, select: ast.Select, result: Table,
                     fallback: Optional[Frame] = None) -> Table:
        """Sort the result.  Keys resolve against the output columns
        first; for plain (non-DISTINCT) projections they may also
        reference source columns via ``fallback``.  Rows already in
        order are returned as they are: a stable sort of sorted input
        is the identity, so only disorder pays for encoding and
        ``np.lexsort`` (the ``sort`` span's ``presorted`` says which)."""
        with self._operator("sort", input_rows=result.n_rows) as op:
            frame = Frame(result.n_rows)
            frame.add_table(result.name, result)
            keys = []
            for item in select.order_by:
                expr = item.expr
                # Only an INTEGER literal is a position: TRUE/FALSE are
                # constant keys (bool is an int subclass in Python).
                if isinstance(expr, ast.Literal) and type(expr.value) is int:
                    position = expr.value
                    if not 1 <= position <= result.schema.width():
                        raise PlanningError(
                            f"ORDER BY position {position} is out of range")
                    column = result.column(
                        result.column_names()[position - 1])
                else:
                    try:
                        column = evaluate(expr, frame, self.stats)
                    except PlanningError:
                        if fallback is None:
                            raise
                        column = evaluate(expr, fallback, self.stats)
                keys.append((_concrete(column), item.ascending))
            presorted = in_code_order(keys)
            op.stamp(presorted=presorted)
            if presorted:
                return result
            sort_keys = []
            for column, ascending in keys:
                codes = encode_column(column, self.stats).codes
                sort_keys.append(codes if ascending else -codes)
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
        the per-view refresh metrics.  The span says how many groups
        the view holds and how many result rows the refresh wrote."""
        clock, registry = self.tracer.clock, self.stats.registry
        with self._operator("view-maintenance", view=mv.name) as op:
            started = clock.now()
            refreshed, mode = refresh()
            elapsed = clock.now() - started
            state = refreshed.state
            op.stamp(mode=mode, groups=len(state.levels[0].live()),
                     rederived=state.rederived)
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
        self.governor.check_width(self.scopes.root, schema.width(),
                                  "create table")
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
def _stacks(frame: Frame, items: list[tuple[str, binder.Rewritten]],
            slots: list[str]
            ) -> tuple[dict[int, list[int]], list[ColumnData]]:
    """The positions of the items that share a shape -- rewritten
    template, literals and the SQL types of the columns their
    placeholders bind -- with another item, each mapped to the
    positions of all of them; and the group frame's column for every
    slot."""
    slot_data = [frame.named(name) for name in slots]
    types = [data.sql_type for data in slot_data]
    by_shape: dict[Any, list[int]] = {}
    for i, (_, item) in enumerate(items):
        program, literals = item.program, item.literals
        if program.stackable and item.family is None:
            by_shape.setdefault(
                (id(program.template), literals,
                 tuple(map(type, literals)),
                 tuple([types[s] for s in item.leaves])), []).append(i)
    return ({i: stack for stack in by_shape.values() if len(stack) > 1
             for i in stack}, slot_data)


class _Tally:
    """The ledger a stacked evaluation charges, held back for
    :meth:`Executor._project` to book item by item."""

    def __init__(self) -> None:
        self.case_evaluations = 0

    def add(self, case_evaluations: int = 0) -> None:
        self.case_evaluations += case_evaluations


def _evaluate_stacked(n: int, k: int, item: binder.Rewritten,
                      leaves: list[ColumnData], ledger
                      ) -> list[ColumnData]:
    """``k`` items of ``item``'s shape evaluated as one: its template
    with placeholder columns, over a frame of ``k * n`` rows whose
    placeholder columns are ``leaves`` -- each the items' leaf columns
    end to end.  Each item's column.  The same :func:`evaluate` runs,
    lane for lane, on the same values and SQL types, so each slice is
    bit for bit what the item evaluated alone returns."""
    placeholders = [ast.ColumnRef(f"__s{slot}")
                    for slot in range(len(leaves))]
    stacked = Frame(n * k)
    stacked.add_columns(
        (placeholder.name, data)
        for placeholder, data in zip(placeholders, leaves))
    result = evaluate(binder.build(item.program.template, placeholders,
                                   item.literals), stacked, ledger)
    values = result.values.reshape(k, n)
    nulls = result.nulls.reshape(k, n)
    return [_concrete(ColumnData(result.sql_type, values[j], nulls[j]))
            for j in range(k)]


def _evaluate_stack(n: int, slot_data: list[ColumnData],
                    items: list[binder.Rewritten]
                    ) -> tuple[list[ColumnData], int]:
    """Items of one shape evaluated as one (:func:`_evaluate_stacked`
    over each slot's group columns end to end): each item's column,
    and what one item charges the ledger."""
    k, first = len(items), items[0]
    tally = _Tally()
    columns = _evaluate_stacked(
        n, k, first,
        [ColumnData.concat([slot_data[item.leaves[slot]]
                            for item in items])
         for slot in range(len(first.leaves))], tally)
    return columns, tally.case_evaluations // k


def _family_leaves(slot_data: list[ColumnData],
                   cells: pivot_mod.CellStore, item: binder.Rewritten,
                   k: int) -> list[ColumnData]:
    """The leaf columns of a family item's first ``k`` cells, each
    end to end as :func:`_evaluate_stacked` takes them: a slot
    repeated, a cell aggregate read off its block."""
    return [cells.take(leaf.numbers[:k]) if type(leaf) is binder.CellBlock
            else ColumnData.concat([slot_data[leaf]] * k)
            for leaf in item.leaves]


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
