"""End-to-end percentage query evaluation.

``run_percentage_query(db, sql)`` is the one-call entry point: it
parses the extended syntax, validates the paper's usage rules, picks
(or accepts) an evaluation strategy, generates the standard-SQL plan,
executes it, and returns the result table -- dropping the temporary
tables afterwards unless asked to keep them.

Execution is *resilient*:

* both generation and execution are guarded by catalog savepoints, so
  a failure anywhere in a multi-statement plan restores the pre-plan
  catalog (no half-built temp tables, base tables untouched);
* :class:`~repro.errors.TransientError` faults are retried with
  exponential backoff under a :class:`RetryPolicy` -- the whole plan
  re-runs from the savepoint, which is exactly the recovery a DBA
  performs on a deadlock-victim script;
* cleanup/rollback failures never mask the execution error that was
  already in flight (the original propagates with the secondary
  failure chained via ``__cause__``);
* :func:`run_resilient` adds automatic strategy fallback: when a plan
  dies with a fallback-eligible resource error, the query is re-planned
  through the paper's alternate evaluation route (direct-from-F versus
  indirect-via-FV, Table 5) and the report records what happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.api.database import Database
from repro.core import model, plan as plan_mod, validate as validate_mod
from repro.core.hagg import HorizontalAggStrategy, generate_spj
from repro.core.horizontal import HorizontalStrategy, generate_horizontal
from repro.core.model import PercentageQuery, parse_percentage_query
from repro.core.optimizer import (alternate_strategy,
                                  choose_horizontal_strategy,
                                  choose_vertical_strategy)
from repro.core.plan import GeneratedPlan, GeneratedStep
from repro.core.vertical import VerticalStrategy, generate_vertical
from repro.engine import faults
from repro.engine.catalog import CatalogSnapshot
from repro.engine.scope import QueryRecord, render_explain_analyze
from repro.engine.table import Table
from repro.errors import (PercentageQueryError, ReproError,
                          TransientError)

Strategy = Union[VerticalStrategy, HorizontalStrategy,
                 HorizontalAggStrategy]

#: Step purposes the runner never re-executes: they already ran during
#: generation (schema/combination feedback).
_GENERATION_TIME = frozenset({plan_mod.DISCOVER, plan_mod.MATERIALIZE})


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`execute_plan` reacts to transient faults.

    Attributes:
        max_attempts: total tries for the plan (1 = no retry).
        backoff_seconds: sleep before the second attempt.
        multiplier: backoff growth factor per further attempt.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.005
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0 or self.multiplier < 0:
            raise ValueError("backoff must be non-negative")

    def delay(self, failed_attempts: int) -> float:
        """Seconds to sleep after the ``failed_attempts``-th failure."""
        return self.backoff_seconds * self.multiplier ** (failed_attempts - 1)


DEFAULT_RETRY = RetryPolicy()


def generate_plan(db: Database, query: Union[str, PercentageQuery],
                  strategy: Optional[Strategy] = None,
                  use_views: bool = True) -> GeneratedPlan:
    """Parse/validate a percentage query and generate its plan.

    With no explicit strategy the optimizer's recommendation is used.
    The strategy type selects the generator: a
    :class:`HorizontalAggStrategy` forces the SPJ form.

    When a materialized view's definition matches the whole query (and
    no strategy was forced), the plan collapses to a zero-step read of
    the view; ``use_views=False`` opts out, which is how the
    differential oracle obtains its recompute baseline.

    Generation may itself execute statements (MATERIALIZE/DISCOVER
    steps feed combination discovery); if it fails midway the catalog
    is rolled back so no half-built temp table leaks.
    """
    if isinstance(query, str):
        query = parse_percentage_query(query)
    validate_mod.validate(query)
    if strategy is None and use_views:
        view_plan = _view_plan(db, query)
        if view_plan is not None:
            return view_plan
    savepoint = db.catalog.savepoint()
    try:
        return _generate(db, query, strategy)
    except BaseException as exc:
        rollback_or_chain(db, savepoint, exc)
        raise


def _view_plan(db: Database,
               query: PercentageQuery) -> Optional[GeneratedPlan]:
    """A zero-step plan reading a matching materialized view, or None.

    The plan's result statement is the user's own SELECT: the
    executor's whole-statement view rewrite serves it straight from
    the view (refreshing first when stale), so the answer is the
    maintained result itself -- no re-projection layer that could
    perturb bit-identity."""
    if query.select is None or not db.catalog.matviews():
        return None
    from repro.views.rewrite import match_view
    mv = match_view(db.catalog, query.select)
    if mv is None:
        return None
    base = db.catalog.table(mv.definition.base_table)
    freshness = "fresh" if mv.fresh(base) else "stale"
    return GeneratedPlan(
        result_statement=query.select,
        description=f"view: {mv.definition.name} "
                    f"({freshness}@v{mv.base_version})")


def _generate(db: Database, query: PercentageQuery,
              strategy: Optional[Strategy]) -> GeneratedPlan:
    if isinstance(strategy, HorizontalAggStrategy):
        return generate_spj(db, query, strategy)
    if query.has_vertical_pct:
        if strategy is None:
            strategy = choose_vertical_strategy(db, query)
        if not isinstance(strategy, VerticalStrategy):
            raise PercentageQueryError(
                "a Vpct query needs a VerticalStrategy")
        return generate_vertical(db, query, strategy)
    if query.has_horizontal:
        if strategy is None:
            strategy = choose_horizontal_strategy(db, query)
        if not isinstance(strategy, HorizontalStrategy):
            raise PercentageQueryError(
                "a horizontal query needs a HorizontalStrategy (or a "
                "HorizontalAggStrategy for the SPJ form)")
        return generate_horizontal(db, query, strategy)
    raise PercentageQueryError(
        "the query has neither Vpct/Hpct nor BY-extended aggregates; "
        "run it directly with db.execute()")


@dataclass(kw_only=True)
class ExecutionReport(QueryRecord):
    """What executing a plan cost -- the plan scope's
    :class:`~repro.engine.scope.QueryRecord` -- and what it took to
    succeed.  ``elapsed_seconds`` is the plan's governed execution;
    dropping the temps afterwards is outside it."""

    result: Table
    plan: GeneratedPlan
    #: Statements the successful attempt ran (plan steps + result
    #: SELECT); generation-time steps are not counted.
    statements_run: int
    #: Attempts made, counting the successful one (>1 means transient
    #: faults were retried).
    attempts: int = 1
    #: ``describe()`` of the strategy that failed before the fallback
    #: re-plan, or None when the first plan succeeded.
    fallback_from: Optional[str] = None
    #: ``"ErrorType: message"`` of the error that triggered fallback.
    fallback_error: Optional[str] = None

    def explain_analyze(self, normalize=None) -> str:
        """EXPLAIN ANALYZE text: the plan header plus the actuals
        span tree (per-statement and per-operator rows and time).

        Requires a trace: run under ``Database(tracing=True)`` or via
        :func:`run_explain_analyze`.  ``normalize`` is passed through
        to :func:`repro.obs.tracer.render_tree`.
        """
        if self.trace is None:
            raise PercentageQueryError(
                "no trace recorded; enable tracing "
                "(Database(tracing=True) or run_explain_analyze) "
                "before executing the plan")
        return render_explain_analyze([
            f"plan: {self.plan.description}",
            f"statements: {self.statements_run}  "
            f"attempts: {self.attempts}",
        ], self.trace, normalize)


def execute_plan(db: Database, plan: GeneratedPlan,
                 keep_temps: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 force_trace: bool = False) -> ExecutionReport:
    """Run a generated plan and fetch its result.

    The whole plan runs inside one savepoint and one query scope --
    one governor window, one cancel token (so the database's default
    deadline covers the plan, not each statement afresh), one ``plan``
    span: on any failure the catalog is rolled back to its
    pre-execution state; :class:`~repro.errors.TransientError`
    additionally re-runs the plan per ``retry`` (default
    :data:`DEFAULT_RETRY`).  When the final attempt fails,
    generation-time temp tables are dropped too, so the caller
    observes the catalog exactly as it was before the plan -- and a
    cleanup/rollback failure never masks the execution error (it is
    chained via ``__cause__`` instead).  ``force_trace`` is
    :func:`run_explain_analyze`'s: the report carries a trace even on
    a tracing-off database.
    """
    policy = retry if retry is not None else DEFAULT_RETRY
    savepoint = db.catalog.savepoint()
    attempts = 0
    with db.scope("plan", force_trace=force_trace,
                  strategy=plan.description) as record:
        db.tracer.event("savepoint", kind="catalog")
        while True:
            attempts += 1
            try:
                result, statements = _run_steps(db, plan)
                break
            except TransientError as exc:
                rollback_or_chain(db, savepoint, exc)
                if attempts >= policy.max_attempts:
                    _cleanup_or_chain(db, plan, exc)
                    raise
                time.sleep(policy.delay(attempts))
            except BaseException as exc:
                rollback_or_chain(db, savepoint, exc)
                _cleanup_or_chain(db, plan, exc)
                raise
        if record.trace is not None:
            record.trace.attrs["attempts"] = attempts
            record.trace.attrs["statements"] = statements
    if not isinstance(result, Table):
        error = PercentageQueryError(
            "the plan's result statement did not return rows")
        _cleanup_or_chain(db, plan, error)
        raise error
    if not keep_temps:
        try:
            cleanup_plan(db, plan)
        except BaseException as exc:
            # A faulted cleanup DROP can leave a temp half-dropped --
            # on a durable catalog, the WAL and the in-memory name
            # space disagreeing about it.  Rolling back to the
            # pre-plan savepoint heals both sides atomically (its WAL
            # record drops whatever temp is still durable), and the
            # failure surfaces as the plan's error rather than a leak.
            rollback_or_chain(db, savepoint, exc)
            raise
    return ExecutionReport(result=result, plan=plan,
                           statements_run=statements, attempts=attempts,
                           **vars(record))


def _run_steps(db: Database, plan: GeneratedPlan) -> tuple[Any, int]:
    """One execution attempt.  The ``plan-step`` site is crossed at
    every statement boundary (index i = before the i-th executable
    statement; the last index is the result SELECT), which is what the
    crash-consistency sweep iterates over."""
    statements = 0
    for step in plan.steps:
        if step.purpose in _GENERATION_TIME:
            continue
        _run_step(db, step)
        statements += 1
    result = _run_step(db, GeneratedStep(plan.result_statement,
                                         plan_mod.RESULT))
    statements += 1
    return result, statements


def _run_step(db: Database, step: GeneratedStep) -> Any:
    """Hand one statement tree to the engine under its ``plan-step``
    span.  Its text is printed only when that span records it."""
    faults.cross("plan-step")
    tracer = db.tracer
    if not tracer.enabled:
        return db.execute_statement(step.statement)
    sql = step.sql
    with tracer.span("plan-step", kind="plan-step",
                     purpose=step.purpose, sql=sql):
        return db.execute_statement(step.statement, sql)


def rollback_or_chain(db: Database, savepoint: CatalogSnapshot,
                      exc: BaseException) -> None:
    """Roll the catalog back (a plan's, or a service write script's);
    if rollback itself fails, re-raise the *original* error with the
    rollback failure chained (never mask the root cause)."""
    try:
        db.catalog.rollback(savepoint)
        db.tracer.event("rollback", kind="catalog",
                        error=type(exc).__name__)
    except Exception as rollback_exc:
        raise exc from rollback_exc


def _cleanup_or_chain(db: Database, plan: GeneratedPlan,
                      exc: BaseException) -> None:
    """Drop the plan's temps (including generation-time
    materializations); failures chain onto ``exc`` instead of masking
    it."""
    try:
        cleanup_plan(db, plan)
    except Exception as cleanup_exc:
        raise exc from cleanup_exc


def cleanup_plan(db: Database, plan: GeneratedPlan) -> None:
    """Drop every temp table the plan created.

    Idempotent by construction: ``if_exists=True`` makes a second
    call -- or a cleanup after a plan that faulted before creating a
    recorded name -- a no-op rather than an error.
    """
    for table in reversed(plan.temp_tables):
        db.drop_table(table, if_exists=True)


def run_resilient(db: Database, query: Union[str, PercentageQuery],
                  strategy: Optional[Strategy] = None,
                  keep_temps: bool = False,
                  retry: Optional[RetryPolicy] = None,
                  use_views: bool = True) -> ExecutionReport:
    """Plan and execute with automatic strategy fallback.

    When the plan fails with a fallback-eligible error (resource
    exhaustion other than a wall-clock timeout), the query is
    re-planned through :func:`~repro.core.optimizer.alternate_strategy`
    -- the paper's other evaluation route -- and the report records
    ``fallback_from``/``fallback_error``.  Errors that re-planning
    cannot help (syntax, catalog, timeout, simulated crash) propagate
    unchanged, as does the original error when no alternate route
    exists.
    """
    if isinstance(query, str):
        query = parse_percentage_query(query)
    try:
        plan = generate_plan(db, query, strategy, use_views=use_views)
        return execute_plan(db, plan, keep_temps=keep_temps, retry=retry)
    except ReproError as exc:
        if not exc.fallback_eligible:
            raise
        chosen = _resolved_strategy(db, query, strategy)
        fallback = (alternate_strategy(db, query, chosen)
                    if chosen is not None else None)
        if fallback is None:
            raise
        plan = generate_plan(db, query, fallback)
        report = execute_plan(db, plan, keep_temps=keep_temps,
                              retry=retry)
        report.fallback_from = chosen.describe()
        report.fallback_error = f"{type(exc).__name__}: {exc}"
        return report


def _resolved_strategy(db: Database, query: PercentageQuery,
                       strategy: Optional[Strategy]
                       ) -> Optional[Strategy]:
    """The strategy the first plan ran under (mirrors the dispatch in
    :func:`generate_plan` when none was given explicitly)."""
    if strategy is not None:
        return strategy
    if query.has_vertical_pct:
        return choose_vertical_strategy(db, query)
    if query.has_horizontal:
        return choose_horizontal_strategy(db, query)
    return None


def run_percentage_query(db: Database,
                         query: Union[str, PercentageQuery],
                         strategy: Optional[Strategy] = None,
                         keep_temps: bool = False,
                         retry: Optional[RetryPolicy] = None,
                         use_views: bool = True) -> Table:
    """Parse, plan, execute; return the result table.

    It never falls back, so an explicitly requested strategy is the
    one that runs (the fuzz harness compares strategies against each
    other); :func:`run_resilient` is the self-healing form.
    """
    plan = generate_plan(db, query, strategy, use_views=use_views)
    return execute_plan(db, plan, keep_temps=keep_temps,
                        retry=retry).result


def run_explain_analyze(db: Database,
                        query: Union[str, PercentageQuery],
                        strategy: Optional[Strategy] = None,
                        keep_temps: bool = False,
                        retry: Optional[RetryPolicy] = None
                        ) -> ExecutionReport:
    """Plan and execute ``query`` with tracing forced for the plan's
    scope, so the returned report always carries a trace and
    :meth:`ExecutionReport.explain_analyze` works even on databases
    opened with tracing off (whose shared tracer is left untouched:
    the force is this thread's, for this plan).

    The query runs for real (EXPLAIN ANALYZE semantics): temp tables
    are created and dropped, statements execute, the governor meters
    rows.
    """
    plan = generate_plan(db, query, strategy)
    return execute_plan(db, plan, keep_temps=keep_temps, retry=retry,
                        force_trace=True)
