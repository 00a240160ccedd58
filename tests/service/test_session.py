"""Sessions: defaults, lifecycle, DB-API state, admission accounting."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (AdmissionRejected, CrossThreadError,
                          SessionClosed)
from repro.service import QueryService, SessionDefaults


class TestSessionDefaults:
    def test_none_means_inherit(self, db):
        assert SessionDefaults().resolve(db.options) == db.options

    def test_overrides_apply(self, db):
        resolved = SessionDefaults(case_dispatch="hash").resolve(
            db.options)
        assert resolved.case_dispatch == "hash"

    def test_defaults_steer_read_execution(self, db):
        # Two pivot terms over f's four rows: "linear" charges a WHEN
        # test per term per row, "hash" one probe per row.
        sql = ("SELECT d1, sum(CASE WHEN d2 = 'x' THEN a END), "
               "sum(CASE WHEN d2 = 'y' THEN a END) FROM f GROUP BY d1")

        def charged(session) -> int:
            before = db.stats.case_evaluations
            session.execute(sql).rows()
            return db.stats.case_evaluations - before

        with QueryService(db, workers=2) as service:
            defaults = SessionDefaults(case_dispatch="hash")
            with service.create_session(defaults) as session:
                assert charged(session) == 4
            with service.create_session() as session:
                assert charged(session) == 8


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
