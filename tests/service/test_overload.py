"""Overload protection: load shedding, circuit breaker, and the
typed/metered admission rejections."""

import threading

import pytest

from repro.api.database import Database
from repro.errors import (AdmissionRejected, CircuitBreakerOpen,
                          OverloadError, QueryCancelledError)
from repro.service import QueryService, SessionDefaults


def _rejections(db, reason):
    return db.metrics.value("service_rejections_total", reason=reason)


class _Gate:
    """Blocks read workers at snapshot acquisition (the first thing
    every read script does on its worker thread) so tests can hold
    worker slots and fill the queue deterministically."""

    def __init__(self, service):
        self.service = service
        self.event = threading.Event()
        #: Set when a worker reaches the gate (before blocking).
        self.entered = threading.Event()
        self._real = service.snapshots.acquire

    def install(self, monkeypatch):
        def gated():
            self.entered.set()
            self.event.wait(timeout=10.0)
            return self._real()
        monkeypatch.setattr(self.service.snapshots, "acquire", gated)


class TestAdmissionMetrics:
    def test_queue_full_rejection_is_typed_and_metered(
            self, db, monkeypatch):
        with QueryService(db, workers=1, max_queue_depth=0,
                          session_inflight_cap=8) as service:
            gate = _Gate(service)
            gate.install(monkeypatch)
            with service.create_session() as session:
                blocked = session.submit("SELECT d1 FROM f")
                with pytest.raises(AdmissionRejected) as info:
                    session.submit("SELECT d1 FROM f")
                assert "queue is full" in str(info.value)
                assert _rejections(db, "queue-full") == 1
                gate.event.set()
                blocked.result()

    def test_session_cap_rejection_is_typed_and_metered(
            self, db, monkeypatch):
        with QueryService(db, workers=2, max_queue_depth=8,
                          session_inflight_cap=1) as service:
            gate = _Gate(service)
            gate.install(monkeypatch)
            with service.create_session() as session:
                blocked = session.submit("SELECT d1 FROM f")
                with pytest.raises(AdmissionRejected) as info:
                    session.submit("SELECT d1 FROM f")
                assert "in flight" in str(info.value)
                assert _rejections(db, "session-cap") == 1
                gate.event.set()
                blocked.result()


class TestLoadShedding:
    def test_sheds_when_predicted_wait_exceeds_deadline(
            self, db, monkeypatch):
        with QueryService(db, workers=1, max_queue_depth=8) as service:
            gate = _Gate(service)
            defaults = SessionDefaults(deadline_seconds=30.0)
            with service.create_session(defaults) as session:
                # Seed the runtime estimate with one completed script.
                session.execute("SELECT d1 FROM f")
                service.scheduler._ewma_run_seconds = 100.0
                gate.install(monkeypatch)
                blocked = session.submit("SELECT d1 FROM f")
                with pytest.raises(OverloadError) as info:
                    session.submit("SELECT d2 FROM f")
                assert info.value.retryable
                assert info.value.retry_after_seconds > 0
                assert _rejections(db, "shed") == 1
                assert db.metrics.value("query_cancelled_total",
                                        reason="shed") == 1
                gate.event.set()
                blocked.result()

    def test_no_shedding_without_deadline(self, db, monkeypatch):
        with QueryService(db, workers=1, max_queue_depth=8) as service:
            gate = _Gate(service)
            with service.create_session() as session:
                session.execute("SELECT d1 FROM f")
                service.scheduler._ewma_run_seconds = 100.0
                gate.install(monkeypatch)
                blocked = session.submit("SELECT d1 FROM f")
                queued = session.submit("SELECT d2 FROM f")
                gate.event.set()
                blocked.result()
                queued.result()

    def test_deadline_covers_queue_wait(self, db, monkeypatch):
        """The script token starts at submission, so a query stuck
        behind a long-running one cancels on deadline once it runs."""
        import time

        with QueryService(db, workers=1, max_queue_depth=8) as service:
            gate = _Gate(service)
            gate.install(monkeypatch)
            doomed_defaults = SessionDefaults(deadline_seconds=0.05)
            with service.create_session() as blocker, \
                    service.create_session(doomed_defaults) as victim:
                blocked = blocker.submit("SELECT d1 FROM f")
                doomed = victim.submit("SELECT d2 FROM f")
                time.sleep(0.2)  # let the deadline lapse in queue
                gate.event.set()
                blocked.result()
                with pytest.raises(QueryCancelledError) as info:
                    doomed.result()
                assert info.value.reason == "deadline"


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self, db):
        with QueryService(db, workers=2, breaker_threshold=3,
                          breaker_cooldown_seconds=1e9) as service:
            with service.create_session() as session:
                for _ in range(3):
                    with pytest.raises(Exception):
                        session.execute("SELECT nope FROM f")
                assert session.breaker_state == "open"
                with pytest.raises(CircuitBreakerOpen) as info:
                    session.submit("SELECT d1 FROM f")
                assert info.value.retryable
                assert info.value.retry_after_seconds > 0
                assert _rejections(db, "breaker") == 1
                # Cooldown elapses -> half-open trial; a success closes.
                session._breaker_open_until = 0.0
                session.execute("SELECT d1 FROM f")
                assert session.breaker_state == "closed"

    def test_half_open_failure_reopens(self, db):
        with QueryService(db, workers=2, breaker_threshold=1,
                          breaker_cooldown_seconds=1e9) as service:
            with service.create_session() as session:
                with pytest.raises(Exception):
                    session.execute("SELECT nope FROM f")
                assert session.breaker_state == "open"
                session._breaker_open_until = 0.0
                with pytest.raises(Exception):
                    session.execute("SELECT nope FROM f")
                assert session.breaker_state == "open"

    def test_breaker_is_per_session(self, db):
        with QueryService(db, workers=2, breaker_threshold=1,
                          breaker_cooldown_seconds=1e9) as service:
            with service.create_session() as bad, \
                    service.create_session() as good:
                with pytest.raises(Exception):
                    bad.execute("SELECT nope FROM f")
                assert bad.breaker_state == "open"
                assert good.breaker_state == "closed"
                assert good.execute("SELECT count(*) FROM f"
                                    ).rows() == [(4,)]


class TestReportFields:
    def test_report_carries_deadline(self, db):
        with QueryService(db, workers=2) as service:
            defaults = SessionDefaults(deadline_seconds=60.0)
            with service.create_session(defaults) as session:
                report = session.execute("SELECT d1 FROM f")
                assert report.deadline_seconds == 60.0

    def test_db_default_deadline_flows_through_service(self):
        db = Database(default_deadline_seconds=60.0)
        db.execute("CREATE TABLE g (x INT)")
        with QueryService(db, workers=1) as service:
            with service.create_session() as session:
                report = session.execute("SELECT x FROM g")
                assert report.deadline_seconds == 60.0

    def test_invalid_knobs_rejected(self, db):
        with pytest.raises(ValueError):
            QueryService(db, breaker_threshold=0)
        with pytest.raises(ValueError):
            QueryService(db, breaker_cooldown_seconds=-1.0)
        with pytest.raises(ValueError):
            SessionDefaults(deadline_seconds=0.0)
