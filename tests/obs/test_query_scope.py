"""The query boundary (``repro.engine.scope``): a statement, a
generated plan and a service script open the same scope, fill the same
record, and mean the same thing to every limit.

The first class holds one regression test per defect the boundary
closed (each fails at the commit before it); the rest is the parity
the three surfaces now share by construction.
"""

import dataclasses
import sys
import threading

import pytest

from repro import Database
from repro.core.execute import (ExecutionReport, run_explain_analyze,
                                run_percentage_query, run_resilient)
from repro.engine import cancel
from repro.engine.governor import ResourceBudget
from repro.engine.scope import QueryRecord
from repro.errors import QueryCancelledError, RowBudgetExceeded
from repro.obs.clock import ManualClock
from repro.service import QueryService
from repro.service.scheduler import ServiceReport

VPCT = "SELECT d, Vpct(a) FROM f GROUP BY d"
GROUP_BY = "SELECT d, sum(a) FROM f GROUP BY d"
RECORD_FIELDS = {f.name for f in dataclasses.fields(QueryRecord)}


def _load(db: Database, rows: int = 12) -> Database:
    db.load_table("f", [("d", "int"), ("a", "real")],
                  [(i % 3, float(i)) for i in range(rows)])
    return db


# ----------------------------------------------------------------------
# The three defects
# ----------------------------------------------------------------------
class TestOneQueryToEveryLimit:
    SCRIPT = "SELECT count(*) FROM f; SELECT count(*) FROM f"

    @pytest.mark.parametrize("max_rows, fits", [(1500, False),
                                                (2500, True)])
    def test_script_and_service_agree_on_a_row_budget(self, max_rows,
                                                      fits):
        """One 1,000-row scan fits 1,500 rows, two do not: the script
        is the governed unit on both surfaces."""
        db = _load(Database(budget=ResourceBudget(max_rows=max_rows)),
                   rows=1000)
        with QueryService(db, workers=1) as service:
            if fits:
                assert len(db.execute_script(self.SCRIPT)) == 2
                assert len(service.execute(self.SCRIPT).results) == 2
            else:
                with pytest.raises(RowBudgetExceeded):
                    db.execute_script(self.SCRIPT)
                with pytest.raises(RowBudgetExceeded):
                    service.execute(self.SCRIPT)

    def test_execute_script_is_one_script_root(self):
        db = _load(Database(tracing=True))
        db.execute_script(self.SCRIPT)
        (root,) = db.tracer.roots()
        assert root.kind == "script"
        assert len(root.find(kind="statement")) == 2

    def test_default_deadline_covers_a_whole_plan(self):
        """Every statement of the plan is far inside the deadline; the
        plan as a whole is not.  One token covers it."""
        def database(**options):
            return _load(Database(clock=ManualClock(step=0.02),
                                  keep_history=True, **options))

        roomy = database(default_deadline_seconds=100.0)
        report = run_resilient(roomy, VPCT)
        longest = max(s.elapsed_seconds for s in roomy.stats.history)
        assert longest < 0.5 and report.elapsed_seconds > 1.0

        db = database(default_deadline_seconds=1.0)
        with pytest.raises(QueryCancelledError) as caught:
            run_percentage_query(db, VPCT)
        assert caught.value.reason == "deadline"
        assert db.table_names() == ["f"]  # rolled back, temps dropped

    def test_explain_analyze_leaves_a_tracing_off_tracer_alone(self):
        db = _load(Database())
        for _ in range(3):
            db.execute(f"EXPLAIN ANALYZE {GROUP_BY}")
            assert run_explain_analyze(db, VPCT).trace is not None
        assert not db.tracer.enabled
        assert db.tracer.roots() == []

    def test_explain_analyze_does_not_bleed_across_sessions(self):
        """One session's forced trace is its thread's: concurrent
        sessions neither record into the shared tracer nor show up in
        the EXPLAIN ANALYZE output.  More workers than cores and a
        short switch interval, so a shared flag would be caught."""
        db = _load(Database())
        analyze = f"EXPLAIN ANALYZE {GROUP_BY}"
        plain = "SELECT count(*) FROM f WHERE a > 1"
        analyzed, reads, errors = [], [], []

        def client(session, sql, sink):
            try:
                for _ in range(25):
                    sink.append(session.execute(sql))
            except Exception as exc:  # asserted on below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(db, workers=4) as service:
                threads = [
                    threading.Thread(target=client, args=(
                        service.create_session(), sql, sink))
                    for sql, sink in [(analyze, analyzed), (plain, reads),
                                      (analyze, analyzed), (plain, reads)]]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(analyzed) == len(reads) == 50
        assert db.tracer.roots() == [] and not db.tracer.enabled
        assert all(report.trace is None for report in analyzed + reads)
        for report in analyzed:
            text = "\n".join(line for (line,) in report.rows())
            actual = text.split("-- actual --\n")[1]
            assert actual.startswith("statement ")
            assert actual.count("sql=") == 1 and "a > 1" not in actual


# ----------------------------------------------------------------------
# One record
# ----------------------------------------------------------------------
def _statement(db):
    db.execute(GROUP_BY)
    return db.executor.scopes.last, "statement"


def _plan(db):
    return run_resilient(db, VPCT), "plan"


def _service_script(db):
    with QueryService(db, workers=1) as service:
        return service.execute(f"{GROUP_BY}; {VPCT}"), "script"


@pytest.mark.parametrize("run", [_statement, _plan, _service_script])
@pytest.mark.parametrize("tracing", [False, True])
def test_every_surface_fills_the_same_record(run, tracing):
    db = _load(Database(tracing=tracing))
    record, kind = run(db)
    assert isinstance(record, QueryRecord)
    assert RECORD_FIELDS <= {f.name for f in dataclasses.fields(record)}
    assert record.elapsed_seconds > 0.0
    assert record.counters.rows_scanned >= 12
    assert record.queue_wait_seconds >= 0.0
    assert record.rows_charged >= 12
    if tracing:
        assert record.trace.kind == kind
        assert record.trace.end is not None
    else:
        assert record.trace is None


def test_reports_declare_none_of_the_records_fields():
    for report in (ExecutionReport, ServiceReport):
        own = set(report.__annotations__)
        assert issubclass(report, QueryRecord)
        assert not own & RECORD_FIELDS, own & RECORD_FIELDS


# ----------------------------------------------------------------------
# Nesting
# ----------------------------------------------------------------------
class TestNestedScopesJoinTheirParent:
    def test_shared_window_and_inherited_token(self):
        db = _load(Database())
        with db.scope("script", deadline_seconds=60.0) as outer:
            token = cancel.active_token()
            assert token is not None and token.deadline is not None
            with db.scope("plan") as inner:
                assert cancel.active_token() is token
                db.execute(GROUP_BY)
            db.execute(GROUP_BY)
        assert cancel.active_token() is None
        assert db.executor.scopes.root is None
        # One row meter: the outer count includes what the inner charged.
        assert inner.rows_charged >= 12
        assert outer.rows_charged == 2 * inner.rows_charged
        # Only the outermost scope is "the last query".
        assert db.executor.scopes.last is outer

    def test_queue_wait_is_the_records_not_the_governors(self):
        db = _load(Database())
        with db.scope("script", queue_wait=1.5) as outer:
            with db.scope("plan") as inner:
                pass
        for record in (outer, inner):
            assert record.queue_wait_seconds == 1.5
