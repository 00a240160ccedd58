"""Sessions: defaults, lifecycle, DB-API state, admission accounting."""

from __future__ import annotations

import threading

import pytest

from repro.api.database import Database
from repro.errors import (AdmissionRejected, CrossThreadError,
                          QueryCancelledError, SessionClosed)
from repro.obs.clock import ManualClock
from repro.service import QueryService, SessionDefaults


class TestSessionDefaults:
    """A session's one default is its deadline; a snapshot reader has
    no options of its own."""

    SQL = "SELECT d1, sum(a) FROM f GROUP BY d1"

    def test_none_means_inherit(self):
        db = Database(default_deadline_seconds=60.0)
        with QueryService(db, workers=1) as service:
            with service.create_session(SessionDefaults()) as session:
                assert session.execute("SELECT 1").deadline_seconds \
                    == 60.0

    def test_overrides_apply(self):
        db = Database(default_deadline_seconds=60.0)
        defaults = SessionDefaults(deadline_seconds=5.0)
        with QueryService(db, workers=1) as service:
            with service.create_session(defaults) as session:
                assert session.execute("SELECT 1").deadline_seconds \
                    == 5.0

    def test_defaults_steer_read_execution(self):
        # Every clock reading advances a second: a read under a
        # half-second session deadline is cancelled, the same read in
        # a session without one answers.
        db = Database(clock=ManualClock(step=1.0))
        db.execute("CREATE TABLE f (d1 INT, a REAL)")
        db.execute("INSERT INTO f VALUES (1, 10.0), (2, 0.25)")
        with QueryService(db, workers=2) as service:
            defaults = SessionDefaults(deadline_seconds=0.5)
            with service.create_session(defaults) as session:
                with pytest.raises(QueryCancelledError) as info:
                    session.execute(self.SQL)
                assert info.value.reason == "deadline"
            with service.create_session() as session:
                assert session.execute(self.SQL).rows() == \
                    [(1, 10.0), (2, 0.25)]


class TestSessionLifecycle:
    def test_ids_are_unique(self, service):
        first, second = (service.create_session(),
                         service.create_session())
        assert first.id != second.id
        first.close()
        second.close()

    def test_closed_session_rejects_submissions(self, service):
        session = service.create_session()
        session.close()
        with pytest.raises(SessionClosed):
            session.submit("SELECT 1")
        with pytest.raises(SessionClosed):
            session.cursor()

    def test_close_is_idempotent(self, service):
        session = service.create_session()
        session.close()
        session.close()

    def test_manager_forgets_closed_sessions(self, service):
        session = service.create_session()
        assert session in service.sessions.active()
        session.close()
        assert session not in service.sessions.active()

    def test_context_manager_closes(self, service):
        with service.create_session() as session:
            pass
        assert session.closed


class TestInFlightAccounting:
    def test_in_flight_cap_rejects(self, db):
        with QueryService(db, workers=1,
                          session_inflight_cap=1) as service:
            release = threading.Event()
            session = service.create_session()
            # Occupy the single worker so the next submit stays
            # admitted-but-queued... except the cap of 1 refuses it.
            blocker = service.scheduler._pool.submit(release.wait, 5)
            try:
                session.submit("SELECT 1")
                with pytest.raises(AdmissionRejected):
                    session.submit("SELECT 1")
            finally:
                release.set()
                blocker.result()

    def test_in_flight_drains(self, service):
        with service.create_session() as session:
            session.execute("SELECT count(*) FROM f")
            assert session.in_flight == 0

    def test_rejection_is_retryable(self):
        assert AdmissionRejected("full").retryable


class TestSessionCursorState:
    def test_cursor_state_is_private(self, service):
        first = service.create_session()
        second = service.create_session()
        c1 = first.cursor()
        c2 = second.cursor()
        c1.execute("SELECT d1 FROM f WHERE d2 = 'x' ORDER BY d1")
        c2.execute("SELECT count(*) FROM f")
        assert c1.fetchone() == (1,)
        assert c2.fetchone() == (4,)
        assert c1.fetchone() == (2,)
        first.close()
        second.close()

    def test_cursor_bound_to_creating_thread(self, service):
        with service.create_session() as session:
            cursor = session.cursor()
            caught: list = []

            def use_elsewhere():
                try:
                    cursor.execute("SELECT 1")
                except CrossThreadError as exc:
                    caught.append(exc)

            worker = threading.Thread(target=use_elsewhere)
            worker.start()
            worker.join()
            assert len(caught) == 1

    def test_connection_reused(self, service):
        with service.create_session() as session:
            assert session.connection() is session.connection()

    def test_cursor_write_waits_out_a_write_script(self, service, db,
                                                    monkeypatch):
        """A cursor runs on the base database.  Its INSERT, sent while
        a write script holds its savepoint, must wait for the script:
        inside it, the script's rollback would delete a row the cursor
        saw committed."""
        from repro.errors import ReproError
        from repro.service.scheduler import Scheduler

        db.execute("CREATE TABLE u (a INT)")
        db.execute("INSERT INTO u VALUES (1), (2)")
        rowcounts: list = []

        def cursor_insert():
            with service.create_session() as session:
                cursor = session.cursor()
                cursor.execute("INSERT INTO u VALUES (3)")
                rowcounts.append(cursor.rowcount)

        client = threading.Thread(target=cursor_insert)
        run_statements = Scheduler._run_statements

        def after_the_cursor(db, statements, sql):
            client.start()
            client.join(timeout=0.5)
            return run_statements(db, statements, sql)

        monkeypatch.setattr(Scheduler, "_run_statements",
                            staticmethod(after_the_cursor))
        with pytest.raises(ReproError):
            service.execute("INSERT INTO u VALUES (10); "
                            "SELECT nope FROM missing_table")
        client.join(timeout=30)
        assert not client.is_alive()
        assert rowcounts == [1]
        assert db.query("SELECT a FROM u ORDER BY a") == \
            [(1,), (2,), (3,)]
