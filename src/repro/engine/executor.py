"""Statement execution: the interpreter that runs parsed SQL against a
catalog.

The executor is deliberately an *interpreting* engine (no compiled
plans, no operator classes).  A SELECT is planned once into a
:class:`~repro.engine.planner.SelectPlan` -- the value ``EXPLAIN``
renders -- and :meth:`Executor._run_plan` walks it:

    scan each source (a view or derived table runs its own plan)
    -> join (hash / cartesian) -> residual filter
    -> the grouping sets (a plain GROUP BY is one), or nothing
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

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import binder, faults
from repro.engine import pivot as pivot_mod
from repro.engine.aggregates import compute_aggregate
from repro.engine.catalog import Catalog
from repro.engine.column import Block, ColumnData
from repro.engine.expressions import (Frame, evaluate, evaluate_scalar,
                                      truth_mask)
from repro.engine.governor import ResourceGovernor
from repro.engine import groupingsets as gs_mod
from repro.engine.groupby import (distinct_indices, encode_column,
                                  factorize, in_code_order)
from repro.engine.join import match, prepare_side
from repro.engine.planner import (ColumnRun, PlannedJoin, PlannedSource,
                                  SelectPlan, plan_select, plan_update_join)
from repro.engine.schema import TableSchema
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
        # A join that keeps the rows where they stand (1:1 in key
        # order, as the partitions of a wide Hpct result join, or N:1
        # with every probe row once and in order, as the Vpct join)
        # moves nothing: a table a gather already made stays as it is,
        # and a scanned one keeps its arrays without their memos, as a
        # copy would have none.
        kept = not mask.any() and np.array_equal(
            indices, np.arange(len(indices)))
        for binding in (which if which is not None else self.bindings):
            table = self.tables[binding]
            if kept and table.n_rows == len(indices):
                if binding not in self.gathered:
                    self.gathered.add(binding)
                    self.tables[binding] = _without_memos(table)
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


def _without_memos(table: Table) -> Table:
    return Table.from_blocks(table.schema, table.blocks())


def _all_null_like(table: Table, length: int) -> Table:
    return Table.all_null(table.schema, length)


def _null_out(table: Table, mask: np.ndarray) -> Table:
    return Table.from_blocks(table.schema, [
        block.null_out(mask) for block in table.blocks()])


class _Op:
    """One operator's boundary (:meth:`Executor._operator`): ``with``
    it to cross its site and open its span; the body charges and
    stamps through it."""

    __slots__ = ("_executor", "_name", "_event", "_site", "_attrs",
                 "_handle", "_span")

    def __init__(self, executor: "Executor", name: str,
                 site: Optional[str], event: str,
                 attrs: dict[str, Any]) -> None:
        self._executor, self._name = executor, name
        self._site, self._event, self._attrs = site, event, attrs
        self._handle = self._span = None

    def __enter__(self) -> "_Op":
        if self._site is not None:
            faults.cross(self._site)
        tracer = self._executor.tracer
        if tracer.enabled:
            self._handle = tracer.span(self._name, kind="operator",
                                       **self._attrs)
            self._span = self._handle.__enter__()
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._handle is not None:
            self._handle.__exit__(*exc)
        return False

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

    def _operator(self, name: str, site: Optional[str] = None,
                  charge: Optional[str] = None, **attrs: Any) -> _Op:
        """Every operator runs inside this: entering it crosses the
        named site ``site`` (when the operator owns one), opens the
        ``kind="operator"`` span (when tracing) and hands the body the
        :class:`_Op` through which it charges the ledger (as event
        ``charge``, default ``name``) and the governor and stamps the
        span.  The sites of kernels several operators share
        (``join-build``, ``group-by``, ``pivot``) stay inside those
        kernels, where their crossing counts are."""
        return _Op(self, name, site, charge or name, attrs)

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
        # Each output is (frame, select items over it, HAVING, cells):
        # one for a projection, one per grouping set for a grouped
        # statement.  A projection's items are ``(name, expression)``;
        # a grouped statement's are ``(name, Rewritten)`` over the
        # group frame and -- for a cell family, ``(names, Rewritten)``
        # -- the cell aggregates ``cells`` holds (repro.engine.binder,
        # repro.engine.pivot).
        if plan.mode == "aggregate":
            outputs = self._run_grouped(plan, frame)
        else:
            outputs = [(frame, plan.items, None, None)]

        with self._operator("projection", site="projection") as op:
            result: Optional[Table] = None
            for out_frame, items, having, cells in outputs:
                piece = self._project(out_frame, items, having, cells,
                                      plan, result_name)
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
                        op, right_cols, left_cols, join, outer=False)
                else:
                    left_indices, right_indices = self._join_rows(
                        op, left_cols, right_cols, join,
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

    def _join_rows(self, op: _Op, probe_cols: list[ColumnData],
                   build_cols: list[ColumnData], join: PlannedJoin,
                   outer: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(probe, build)`` row-index pairs; the span's
        ``probe_runs`` is the number of probe keys looked up (the run
        heads of a probe side in runs, else every row)."""
        prepared = prepare_side(build_cols, self.stats, join.null_safe)
        probe_idx, build_idx, probed = match(prepared, probe_cols, outer)
        op.stamp(probe_runs=probed)
        return probe_idx, build_idx

    # -- select-list evaluation ---------------------------------------------
    def _project(self, frame: Frame, items: list[tuple[Any, Any]],
                 having: Optional[binder.Rewritten],
                 cells: Optional[pivot_mod.CellStore], plan: SelectPlan,
                 result_name: str) -> Table:
        """Evaluate named select items over ``frame`` in order, keeping
        the rows HAVING accepts; a failing statement raises its first
        failing item's error (docs/engine_internals.md, "Select-list
        evaluation").  A :class:`ColumnRun` is a slice of its table,
        and a cell family is evaluated once, by
        :meth:`_project_family`; every other item by its own
        :func:`evaluate`."""
        grouped = cells is not None
        named: list[tuple[list[str], Any]] = []
        for i, (name, item) in enumerate(items):
            if type(item) is ColumnRun:
                # A slice of its table's blocks, views and memos.
                named.append((name, (frame.table(item.binding),
                                     item.start, item.stop)))
                continue
            if grouped and item.family is not None:
                if item.family:
                    named.append((name, self._project_family(
                        frame, cells, item)))
                continue
            windows = self._window_binder(frame) \
                if i in plan.windowed else None
            if grouped:
                expr = item.tree(windows)
            elif windows is not None:
                expr = binder.with_windows(item, windows)
            else:
                expr = item
            named.append(([name], _concrete(
                evaluate(expr, frame, self.stats))))
        result = Table.assemble(result_name, named)
        if having is not None:
            mask = truth_mask(having.tree(self._window_binder(frame)
                                          if plan.having_windowed
                                          else None), frame, self.stats)
            result = result.take(np.nonzero(mask)[0])
        return result

    def _project_family(self, frame: Frame, cells: pivot_mod.CellStore,
                        item: binder.Rewritten) -> Block:
        """A cell family's groups x cells block, its rewritten template
        evaluated once over all its cells (:func:`_evaluate_cells`).
        Its charge is booked once it succeeds.  Should the family
        raise, its first cell is evaluated alone: every cell is the
        same tree over leaves of the same types, so the first raises
        what the family did, charging what it would have charged
        alone."""
        tally = _Tally()
        try:
            block = _evaluate_cells(frame, cells, item,
                                    len(item.family), tally)
        except ReproError:
            _evaluate_cells(frame, cells, item, 1, self.stats)
            raise
        self.stats.add(case_evaluations=tally.case_evaluations)
        return block

    def _window_binder(self, frame: Frame
                       ) -> Callable[[ast.FuncCall], ast.Expr]:
        """What :func:`binder.with_windows` calls on each window
        function call of one expression: evaluate it, splice its result
        into the frame, and stand a column reference in for it."""
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
    def _run_grouped(self, plan: SelectPlan, frame: Frame):
        """Every grouped SELECT as the lattice of its grouping sets (a
        plain GROUP BY is the one set of its keys, a global aggregate
        ``()``): one factorize over the union dims; per distinct set a
        grouping derived at group level (the set of every dim is the
        union's own), keys at its groups' first rows (NULL for absent
        dims) and aggregates over base rows; outputs in request order.
        A CUBE/ROLLUP/GROUPING SETS clause names the spans and keeps
        the pivot kernel out: it would book a CASE fan-out per set."""
        n_rows = frame.n_rows
        clause = ast.has_grouping_sets(plan.select)
        lattice = gs_mod.build_plan(
            plan.grouping_sets,
            key_of=lambda e: binder.value_key(e, frame.resolve))
        key_columns = [evaluate(e, frame, self.stats)
                       for e in lattice.dims]

        build = self._operator(
            "grouping-sets-build", input_rows=n_rows, sets=len(lattice.sets),
            dims=len(lattice.dims)) if clause \
            else self._operator("group-by-build", input_rows=n_rows)
        with build as op:
            union = factorize(key_columns, n_rows, self.stats)
            if clause:
                op.stamp(union_groups=union.n_groups)
            else:
                op.charge(rows=union.n_groups, context="group-by")
                op.stamp(groups=union.n_groups)
            union_firsts = union.first_rows()

        # One rewrite serves every set: only the grouping() masks
        # differ per set (Rewritten.for_set).
        rewrite = binder.GroupRewrite(frame, lattice.dims)
        items = [(name, rewrite.rewrite(bound))
                 for (name, _), bound in zip(plan.items, plan.bound)]
        having = rewrite.rewrite(plan.having_bound) \
            if plan.having_bound is not None else None
        cells = pivot_mod.CellStore(rewrite.aggs.n_cells)
        families = [] if clause \
            else pivot_mod.detect_families(rewrite.aggs, frame.resolve)
        # The distinct sets, in request order.
        distinct = {spec.dims: spec for spec in lattice.sets}
        # The shared scan: a lattice evaluates each argument once for
        # all its sets; one set pulls them one at a time.
        batch = list(self._aggregate_items(rewrite, frame)) \
            if len(distinct) > 1 else None

        # -- compute each distinct set once ---------------------------
        by_dims: dict[tuple[int, ...], tuple] = {}
        for dims in distinct:
            span = self._operator(
                "grouping-set", site="group-by", set=gs_mod.render_set(
                    tuple(lattice.dims[i] for i in dims))) if clause \
                else self._operator(
                    "group-by-aggregate", groups=union.n_groups,
                    aggregates=len(rewrite.aggs),
                    items=len(plan.columns), families=len(families))
            with span as op:
                sg = gs_mod.derive_set_grouping(union, dims, n_rows)
                grouping = sg.grouping
                if clause:
                    op.charge(rows=grouping.n_groups, context="group-by")
                    op.stamp(groups=grouping.n_groups)
                if sg.to_set is None:
                    firsts = union_firsts
                else:   # the earliest of its union groups' first rows
                    firsts = np.full(grouping.n_groups, n_rows)
                    np.minimum.at(firsts, sg.to_set, union_firsts)
                group_frame = Frame(grouping.n_groups)
                group_frame.add_columns(
                    (f"__key{i}", column.take(firsts) if i in dims
                     else ColumnData.all_null(_concrete(column).sql_type,
                                              grouping.n_groups))
                    for i, column in enumerate(key_columns))
                self._compute_aggregates(rewrite, families, frame,
                                         grouping, group_frame, cells,
                                         batch)
            by_dims[dims] = sg, group_frame

        # -- pct(): each group's sum over its parent level's -----------
        for dims, spec in distinct.items() if rewrite.pcts.calls else ():
            sg, group_frame = by_dims[dims]
            parent, parent_frame = by_dims[spec.pct_parent]
            parent_ids = gs_mod.fine_to_coarse(sg, parent)
            group_frame.add_columns(
                (f"__pct{j}", gs_mod.percentage_column(
                    group_frame.named(f"__pctsum{j}"),
                    parent_frame.named(f"__pctsum{j}"), parent_ids))
                for j in range(len(rewrite.pcts.calls)))

        # -- one output per requested set, in request order ------------
        return [(by_dims[spec.dims][1],
                 [(name, item.for_set(spec.dims)) for name, item in items],
                 having.for_set(spec.dims) if having is not None else None,
                 cells)
                for spec in lattice.sets]

    def _aggregate_items(self, rewrite: binder.GroupRewrite,
                         frame: Frame, handled: set[int] = frozenset(),
                         blocks: set = frozenset()):
        """``(key, func, argument column, distinct)`` per aggregate the
        pivot kernel left -- the calls not ``handled`` and the cells of
        the cell blocks not in ``blocks``, validated, in the order they
        were bound, then one sum per ``pct()`` measure (the sums
        percentages read); ``None`` is ``count(*)``'s argument.  Lazy:
        :meth:`_compute_aggregates` pulls one item at a time, so argument
        expressions are evaluated (and released) per aggregate exactly
        as a plain loop would."""
        aggs = rewrite.aggs

        def calls():
            for entry in aggs.order:
                if type(entry) is int:
                    if entry not in handled:
                        yield f"__agg{entry}", aggs.calls[entry]
                elif entry not in blocks:
                    for i in entry.own.tolist():
                        yield (entry, i), ast.with_match(
                            entry.call, entry.family.match(i))

        for key, call in calls():
            if call.args and isinstance(call.args[0], ast.Star):
                if call.name != "count":
                    raise PlanningError(
                        f"{call.name}(*) is not valid; only count(*)")
                yield key, "count", None, False
            else:
                if len(call.args) != 1:
                    raise PlanningError(
                        f"{call.name}() takes exactly one argument")
                yield key, call.name, _concrete(evaluate(
                    call.args[0], frame, self.stats)), call.distinct
        for j, call in enumerate(rewrite.pcts.calls):
            yield f"__pctsum{j}", "sum", _concrete(evaluate(
                call.args[0], frame, self.stats)), False

    def _compute_aggregates(self, rewrite: binder.GroupRewrite,
                            families: list, frame: Frame, grouping,
                            group_frame: Frame,
                            cells: pivot_mod.CellStore,
                            batch: Optional[list] = None) -> None:
        """Evaluate each distinct aggregate over the base frame, binding
        ``__aggI`` (and ``__pctsumJ``) columns into the group frame and
        filing cell family aggregates in ``cells``.  ``families`` of
        disjoint pivot-style CASE aggregations go through the pivot
        kernel (one factorize pass instead of N masked passes; the
        ``pivot`` operator opens only for a statement that has one),
        everything else through the generic evaluator, in the order the
        calls were bound -- a cell block's cells one by one -- from
        ``batch`` when a lattice evaluated the items once for all its
        sets."""
        handled: set[int] = set()
        blocks: set[binder.CellBlock] = set()
        if families:
            with self._operator("pivot") as op:
                handled, blocks = pivot_mod.compute_families(
                    families, frame, grouping.group_ids,
                    grouping.n_groups, group_frame, cells, self.stats)
                op.stamp(aggregates=len(handled) + sum(
                    len(block.own) for block in blocks),
                    groups=grouping.n_groups)

        # One aggregate at a time: a lazy item source holds one argument
        # column, not a thousand (the wide Hpct statements).
        computed = {key: compute_aggregate(func, arg, distinct,
                                           grouping.group_ids,
                                           grouping.n_groups, self.stats)
                    for key, func, arg, distinct in (
                        batch if batch is not None else
                        self._aggregate_items(rewrite, frame, handled,
                                              blocks))}
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
        schema = TableSchema(
            statement.name,
            [name for spec in statement.columns for name in spec.names],
            [(type_from_name(spec.type_name), len(spec.names))
             for spec in statement.columns], statement.primary_key)
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
            keys = [name.lower() for name in schema.names]
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
                rows.append(tuple(values[key] for key in keys))
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
            if statement.columns:
                result = _in_target_order(result, schema, column_order)
            rows = result.conformed(schema, _coerce_block)
            appended = table.append(rows)
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
            updated = updated.with_rows_rewritten(
                {a.column.lower() for a in statement.assignments})
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
                op, [target_frame.resolve(k) for k in join.left_keys],
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
            for name in from_table.schema.names:
                data = from_table.column(name)
                frame.add_column(
                    name,
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
class _Tally:
    """The ledger a cell family's evaluation charges, held back for
    :meth:`Executor._project_family` to book once the family has
    succeeded."""

    def __init__(self) -> None:
        self.case_evaluations = 0

    def add(self, case_evaluations: int = 0) -> None:
        self.case_evaluations += case_evaluations


def _evaluate_cells(frame: Frame, cells: pivot_mod.CellStore,
                    item: binder.Rewritten, k: int, ledger) -> Block:
    """The first ``k`` cells of family item ``item`` evaluated as one:
    its rewritten template over a frame of ``k * n`` rows (``n``
    groups) whose columns are its leaves, each the cells' leaf columns
    end to end -- a group frame column repeated, a cell aggregate read
    off its block.  The cells' columns, as one ``k x n`` block.  The
    same :func:`evaluate` runs, lane for lane, on the same values and
    SQL types, so each row of the block is bit for bit what the cell
    evaluated alone returns."""
    n = frame.n_rows
    stacked = Frame(n * k)
    stacked.add_columns(
        (name, ColumnData.concat([frame.named(name)] * k) if block is None
         else cells.take(block.numbers[:k]))
        for name, block in item.leaves.items())
    result = evaluate(item.expr, stacked, ledger)
    if result.sql_type is None:
        return Block.all_null(SQLType.REAL, k, n)
    return Block(result.sql_type, result.values.reshape(k, n),
                 result.nulls.reshape(k, n))


def _concrete(data: ColumnData) -> ColumnData:
    """Commit untyped NULL columns to REAL for output."""
    if data.sql_type is None:
        return ColumnData.all_null(SQLType.REAL, len(data))
    return data


def _in_target_order(result: Table, schema: TableSchema,
                     column_order: list[str]) -> Table:
    """``result``'s columns, named by an INSERT's column list, moved
    into the target's column order: the list must name every column of
    the target once."""
    source_of = {schema.column_index(target): source
                 for source, target in enumerate(column_order)}
    for position, name in enumerate(schema.names):
        if position not in source_of:
            raise ExecutionError(f"missing data for column {name!r}")
    return Table.assemble(schema.name, [
        ([name], (result, source_of[position], source_of[position] + 1))
        for position, name in enumerate(schema.names)])


def _coerce_column(data: ColumnData, target: SQLType) -> ColumnData:
    return _coerce_block(Block.of(data), target).column(0)


def _coerce_block(block: Block, target: SQLType) -> Block:
    """``block`` stored into columns of type ``target``, column by
    column: an untyped or all-NULL column of another type is all NULL,
    INTEGER widens to REAL and BOOLEAN to INTEGER or REAL (a column
    that is all NULL keeps zero fillers); anything else raises."""
    if block.sql_type == target:
        return block
    width, length = block.values.shape
    empty = block.nulls.all(axis=1)
    if block.sql_type is None or empty.all():
        return Block.all_null(target, width, length)
    if not (block.sql_type == SQLType.INTEGER and target == SQLType.REAL
            or block.sql_type == SQLType.BOOLEAN
            and target in (SQLType.INTEGER, SQLType.REAL)):
        raise TypeMismatchError(
            f"cannot store {block.sql_type} values into a {target} column")
    values = block.values.astype(target.numpy_dtype)
    values[empty] = 0
    return Block(target, values, block.nulls.copy())
