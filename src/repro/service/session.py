"""Client sessions for the concurrent query service.

A :class:`Session` is one client's handle on the service: it carries
per-session defaults (the deadline its scripts run under), its own DB-API
connection/cursor state, and the in-flight accounting the scheduler's
admission control charges against.

Sessions are thread-safe handles but *logically* single-client: the
in-flight cap assumes one client pipelining its own queries, which is
exactly the DB-API picture (one connection per client).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.engine.cancel import check_deadline
from repro.errors import (AdmissionRejected, CircuitBreakerOpen,
                          SessionClosed)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from concurrent.futures import Future

    from repro.api.dbapi import Connection, Cursor
    from repro.service.scheduler import ServiceReport


class SessionDefaults:
    """Per-session defaults: ``SessionDefaults(deadline_seconds=2.0)``."""

    def __init__(self, deadline_seconds: Optional[float] = None):
        check_deadline(deadline_seconds, "deadline_seconds")
        #: Wall-clock deadline (seconds) every script submitted through
        #: this session runs under.  The clock starts at *submission*,
        #: so queue wait counts against it -- that is what lets the
        #: scheduler shed a query whose predicted wait already exceeds
        #: it.  ``None`` falls back to the database's
        #: ``default_deadline_seconds``.
        self.deadline_seconds = deadline_seconds


class Session:
    """One client's handle on a :class:`~repro.service.QueryService`.

    Obtained from :meth:`QueryService.create_session`; usable as a
    context manager (closing on exit).  ``submit`` returns a
    :class:`~concurrent.futures.Future` resolving to a
    :class:`~repro.service.scheduler.ServiceReport`; ``execute`` is the
    blocking convenience.
    """

    def __init__(self, service, session_id: int,
                 defaults: Optional[SessionDefaults] = None):
        self.id = session_id
        self.defaults = defaults or SessionDefaults()
        self._service = service
        self._lock = threading.Lock()
        self._closed = False
        self._in_flight = 0
        self._connection: Optional["Connection"] = None
        # Circuit-breaker state (driven by the scheduler): "closed"
        # admits freely, "open" refuses until the cooldown instant,
        # "half-open" lets trial queries through -- one success closes
        # the breaker, one failure re-opens it.
        self._breaker_state = "closed"
        self._breaker_failures = 0
        self._breaker_open_until = 0.0

    # ------------------------------------------------------------------
    # Query submission
    # ------------------------------------------------------------------
    def submit(self, sql: str) -> "Future[ServiceReport]":
        """Enqueue ``sql`` (one statement or a ';'-script) for
        asynchronous execution.  Raises
        :class:`~repro.errors.AdmissionRejected` when the scheduler's
        queue or this session's in-flight cap is full, and
        :class:`~repro.errors.SessionClosed` after :meth:`close`."""
        return self._service.scheduler.submit(self, sql)

    def execute(self, sql: str) -> "ServiceReport":
        """Submit and wait; returns the report (or raises the query's
        error)."""
        return self.submit(sql).result()

    # ------------------------------------------------------------------
    # DB-API state
    # ------------------------------------------------------------------
    def connection(self) -> "Connection":
        """This session's private DB-API connection (lazily created,
        bound to the creating thread -- see ``check_same_thread``)."""
        from repro.api import dbapi
        with self._lock:
            if self._closed:
                raise SessionClosed(f"session {self.id} is closed")
            if self._connection is None:
                self._connection = dbapi.connect(
                    database=self._service.db, check_same_thread=True)
            return self._connection

    def cursor(self) -> "Cursor":
        """A cursor on this session's DB-API connection: private
        rowcount/description/fetch state per client."""
        return self.connection().cursor()

    # ------------------------------------------------------------------
    # Scheduler accounting (called by the service's scheduler)
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        """Queries submitted through this session and not yet done."""
        return self._in_flight

    def _reserve(self, cap: int) -> None:
        with self._lock:
            if self._closed:
                raise SessionClosed(f"session {self.id} is closed")
            if self._in_flight >= cap:
                raise AdmissionRejected(
                    f"session {self.id} already has {self._in_flight} "
                    f"queries in flight (cap {cap})")
            self._in_flight += 1

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # ------------------------------------------------------------------
    # Circuit breaker (driven by the scheduler)
    # ------------------------------------------------------------------
    @property
    def breaker_state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` (observability;
        the scheduler drives the transitions)."""
        return self._breaker_state

    def _breaker_allow(self, now: float) -> None:
        """Gate a submission on the breaker; raises
        :class:`~repro.errors.CircuitBreakerOpen` while open."""
        with self._lock:
            if self._breaker_state != "open":
                return
            if now < self._breaker_open_until:
                remaining = self._breaker_open_until - now
                raise CircuitBreakerOpen(
                    f"session {self.id}'s circuit breaker is open for "
                    f"another {remaining:.3f}s after repeated failures",
                    retry_after_seconds=remaining)
            self._breaker_state = "half-open"

    def _breaker_note(self, ok: bool, now: float, threshold: int,
                      cooldown: float) -> None:
        """Record a finished query's outcome: success closes the
        breaker; ``threshold`` consecutive failures (or one failure of
        a half-open trial) open it for ``cooldown`` seconds."""
        with self._lock:
            if ok:
                self._breaker_state = "closed"
                self._breaker_failures = 0
                return
            self._breaker_failures += 1
            if self._breaker_state == "half-open" \
                    or self._breaker_failures >= threshold:
                self._breaker_state = "open"
                self._breaker_open_until = now + cooldown
                self._breaker_failures = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further submissions; queries already admitted run to
        completion.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()
        self._service.sessions.forget(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"<Session {self.id} {state} "
                f"in_flight={self._in_flight}>")


class SessionManager:
    """Creates, tracks and closes sessions for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._next_id = 1

    def create(self, service,
               defaults: Optional[SessionDefaults] = None) -> Session:
        with self._lock:
            session_id = self._next_id
            self._next_id += 1
            session = Session(service, session_id, defaults)
            self._sessions[session_id] = session
        return session

    def forget(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.id, None)

    def active(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def close_all(self) -> None:
        for session in self.active():
            session.close()
