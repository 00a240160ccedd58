"""Cooperative cancellation: tokens, deadlines and the checks at the
cancellable sites."""

import pytest

from repro.api.database import Database
from repro.engine import cancel, faults
from repro.engine.cancel import REASONS, CancelToken
from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.scope import QueryRecord
from repro.errors import ExecutionError, QueryCancelledError
from repro.obs.clock import ManualClock
from repro.obs.metrics import MetricsRegistry


class TestToken:
    def test_live_token_passes_checkpoints(self):
        token = CancelToken()
        with cancel.activate(token):
            for site in faults.SITES:
                faults.cross(site)
        assert not token.cancelled

    def test_cancel_fires_at_next_checkpoint(self):
        token = CancelToken()
        token.poll("statement")
        token.cancel()
        with pytest.raises(QueryCancelledError) as info:
            token.poll("scan")
        assert info.value.reason == "client"
        assert "scan" in str(info.value)

    def test_first_cancel_reason_wins(self):
        token = CancelToken()
        token.cancel("client")
        token.cancel("shed")
        assert token.reason() == "client"

    def test_raises_once_then_unwinds_quietly(self):
        """After the first raise, safepoints on the rollback/cleanup
        path must pass so the unwind itself cannot leak."""
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            token.poll("statement")
        token.poll("dml")        # cleanup DROP crosses a site
        token.poll("governor")   # and a governor checkpoint

    def test_deadline_fires_with_manual_clock(self):
        clock = ManualClock(step=0.5)
        token = CancelToken.with_timeout(1.0, clock=clock)
        token.poll("statement")  # t=0.5: inside the deadline
        with pytest.raises(QueryCancelledError) as info:
            token.poll("scan")   # t=1.0: expired
        assert info.value.reason == "deadline"

    def test_with_timeout_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CancelToken.with_timeout(0.0)

    def test_parent_cancellation_propagates(self):
        parent = CancelToken()
        child = CancelToken(parent=parent)
        parent.cancel("client")
        assert child.cancelled
        with pytest.raises(QueryCancelledError):
            child.poll("statement")

    def test_remaining_reports_tightest_deadline(self):
        clock = ManualClock(step=0.0)
        script = CancelToken.with_timeout(10.0, clock=clock)
        statement = CancelToken.with_timeout(60.0, clock=clock,
                                             parent=script)
        assert statement.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert statement.remaining() == pytest.approx(6.0)
        assert CancelToken().remaining() is None

    def test_fired_token_charges_reason_metric(self):
        registry = MetricsRegistry()
        token = CancelToken(registry=registry)
        token.cancel("shed")
        with pytest.raises(QueryCancelledError):
            token.poll()
        assert registry.value("query_cancelled_total",
                              reason="shed") == 1

    def test_reasons_cover_error_contract(self):
        for reason in REASONS:
            error = QueryCancelledError("x", reason=reason)
            assert isinstance(error, ExecutionError)
            assert not error.retryable
            assert not error.fallback_eligible


class TestAmbient:
    def test_checkpoint_is_noop_without_token(self):
        assert cancel.active_token() is None
        faults.cross("statement")
        cancel.poll()

    def test_activate_installs_and_restores(self):
        token = CancelToken()
        with cancel.activate(token):
            assert cancel.active_token() is token
            inner = CancelToken()
            with cancel.activate(inner):
                assert cancel.active_token() is inner
            assert cancel.active_token() is token
        assert cancel.active_token() is None

    def test_activate_none_shields_cleanup(self):
        token = CancelToken()
        token.cancel()
        with cancel.activate(token):
            with cancel.activate(None):
                faults.cross("statement")  # shielded: no raise


class TestDatabaseDeadlines:
    def _db(self, **kwargs):
        db = Database(clock=ManualClock(step=0.001), **kwargs)
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        return db

    def test_expired_deadline_cancels_statement(self):
        db = self._db()
        with pytest.raises(QueryCancelledError) as info:
            db.execute("SELECT a FROM t", deadline_seconds=1e-9)
        assert info.value.reason == "deadline"

    def test_generous_deadline_does_not_interfere(self):
        db = self._db()
        result = db.execute("SELECT a FROM t ORDER BY a",
                            deadline_seconds=1e9)
        assert result.to_rows() == [(1,), (2,)]

    def test_default_deadline_applies_to_every_statement(self):
        db = self._db()
        db.default_deadline_seconds = 1e-9
        with pytest.raises(QueryCancelledError):
            db.execute("SELECT a FROM t")
        # an explicit per-statement deadline overrides the default
        assert db.execute("SELECT count(*) FROM t",
                          deadline_seconds=1e9).to_rows() == [(2,)]

    def test_explicit_cancel_token_wins(self):
        db = self._db()
        token = CancelToken(clock=db.clock)
        token.cancel()
        with pytest.raises(QueryCancelledError) as info:
            db.execute("SELECT a FROM t", cancel_token=token)
        assert info.value.reason == "client"

    def test_cancelled_dml_rolls_back(self):
        db = self._db()
        token = CancelToken(clock=db.clock)
        armed = FaultInjector([FaultSpec("dml", error="cancel")])
        with faults.active(armed), pytest.raises(QueryCancelledError):
            db.execute("INSERT INTO t VALUES (3, 30)",
                       cancel_token=token)
        assert db.query("SELECT count(*) FROM t") == [(2,)]

    def test_script_shares_one_deadline(self):
        """The script token is created once, so later statements run
        on the *remaining* budget and an expired budget stops the
        script midway (with rollback-per-statement semantics)."""
        db = self._db()
        clock = db.clock
        token = CancelToken.with_timeout(1e9, clock=clock)
        with faults.active(FaultInjector()) as counter:
            db.execute_script(
                "INSERT INTO t VALUES (3, 30); "
                "INSERT INTO t VALUES (4, 40)", cancel_token=token)
        assert db.query("SELECT count(*) FROM t") == [(4,)]
        assert counter.hits["statement"] == 2

    def test_governor_checkpoints_enforce_ambient_deadline(self):
        """A row charge polls the token, so a deadline fires at
        governor checkpoints even between named sites."""
        db = self._db()
        token = CancelToken(clock=db.clock)
        token.cancel("deadline")
        with cancel.activate(token):
            with pytest.raises(QueryCancelledError) as info:
                db.governor.charge_rows(QueryRecord(), 1, "mid-operator")
        assert info.value.reason == "deadline"

    def test_explain_shows_deadline_line_only_when_active(self):
        db = self._db()
        plain = [r[0] for r in db.execute("EXPLAIN SELECT a FROM t")
                 .to_rows()]
        assert not any(r.startswith("deadline:") for r in plain)
        lines = [r[0] for r in
                 db.execute("EXPLAIN SELECT a FROM t",
                            deadline_seconds=100.0).to_rows()]
        deadline = [r for r in lines if r.startswith("deadline:")]
        assert len(deadline) == 1
        assert "remaining" in deadline[0]
        # the deadline line is last, after the governor line
        assert lines[-1] == deadline[0]
        assert lines[-2].startswith("governor:")

    def test_cancelled_metric_reason_deadline(self):
        db = self._db()
        with pytest.raises(QueryCancelledError):
            db.execute("SELECT a FROM t", deadline_seconds=1e-9)
        assert db.metrics.value("query_cancelled_total",
                                reason="deadline") == 1


class TestDbapiDeadline:
    def test_set_deadline_maps_overrun_to_operational_error(self):
        from repro.api import dbapi

        conn = dbapi.connect(database=Database(
            clock=ManualClock(step=0.001)))
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (a INT)")
        cur.execute("INSERT INTO t VALUES (1)")
        conn.set_deadline(1e-9)
        with pytest.raises(dbapi.OperationalError) as info:
            cur.execute("SELECT a FROM t")
        assert "cancelled" in str(info.value)
        conn.set_deadline(None)
        cur.execute("SELECT a FROM t")
        assert cur.fetchall() == [(1,)]

    def test_set_deadline_rejects_non_positive(self):
        from repro.api import dbapi

        conn = dbapi.connect()
        with pytest.raises(dbapi.InterfaceError):
            conn.set_deadline(0)
