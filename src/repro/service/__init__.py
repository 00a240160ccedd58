"""The concurrent query service: sessions, snapshot isolation and a
query worker pool.

The paper closes by observing that percentage queries are interactive,
OLAP-style workloads: many analysts submitting Vpct/Hpct queries over
shared fact tables while batch loads refresh them.  This package is
that deployment story for the repro engine:

* :class:`~repro.service.session.Session` -- per-client handles with
  their own DB-API cursor state and a per-session deadline;
* :class:`~repro.service.snapshots.SnapshotDatabase` -- snapshot
  isolation built on the copy-on-write catalog: readers run whole
  multi-statement percentage plans against a pinned, immutable view,
  never blocking and never seeing a torn script;
* :class:`~repro.service.scheduler.Scheduler` -- a bounded worker pool
  with admission control (global queue depth, per-session in-flight
  caps) layered on the per-query resource governor; every query
  resolves to a typed :class:`~repro.service.scheduler.ServiceReport`.

Typical use::

    from repro.service import QueryService

    with QueryService(db, workers=4) as service:
        with service.create_session() as session:
            future = session.submit("SELECT d1, Vpct(a) FROM f")
            report = future.result()
            rows = report.rows()

Writes serialize through one writer lock with all-or-nothing script
semantics; reads scale out across the pool, one query per worker.
"""

from __future__ import annotations

from typing import Optional

from repro.api.database import Database
from repro.service.scheduler import Scheduler, ServiceReport
from repro.service.session import Session, SessionDefaults, SessionManager
from repro.service.snapshots import (Snapshot, SnapshotDatabase,
                                     SnapshotManager)

__all__ = [
    "QueryService",
    "ServiceReport",
    "Session",
    "SessionDefaults",
    "Snapshot",
    "SnapshotDatabase",
]


class QueryService:
    """The façade wiring sessions, snapshots and the scheduler over one
    :class:`~repro.api.database.Database`.

    Args:
        db: the shared database (a fresh one is built when omitted;
            extra keyword arguments are passed to its constructor).
        workers: query worker-pool size.
        max_queue_depth: admitted-but-waiting queries allowed beyond
            the pool before submissions raise
            :class:`~repro.errors.AdmissionRejected`.
        session_inflight_cap: per-session concurrent-query ceiling.
        breaker_threshold / breaker_cooldown_seconds: the per-session
            circuit breaker's knobs, forwarded to the
            :class:`~repro.service.scheduler.Scheduler` (which also
            sheds load).

    Usable as a context manager; :meth:`shutdown` closes every session
    and drains the pool.
    """

    def __init__(self, db: Optional[Database] = None, workers: int = 4,
                 max_queue_depth: int = 16,
                 session_inflight_cap: int = 4,
                 breaker_threshold: int = 5,
                 breaker_cooldown_seconds: float = 1.0, **db_options):
        if db is not None and db_options:
            raise ValueError(
                "pass database options or an existing database, not both")
        self.db = db if db is not None else Database(**db_options)
        #: The single writer lock: write scripts hold it end to end;
        #: snapshot acquisition takes it for an instant, so reads
        #: serialize only against whole scripts, never statements.  It
        #: is the database's statement lock, so a statement sent to the
        #: database directly -- a session cursor's INSERT -- waits out
        #: a write script instead of landing inside its savepoint.
        self.write_lock = self.db.statement_lock
        self.snapshots = SnapshotManager(self.db)
        self.sessions = SessionManager()
        self.scheduler = Scheduler(
            self, workers=workers, max_queue_depth=max_queue_depth,
            session_inflight_cap=session_inflight_cap,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_seconds=breaker_cooldown_seconds)

    # ------------------------------------------------------------------
    def create_session(self,
                       defaults: Optional[SessionDefaults] = None
                       ) -> Session:
        """A new client session (close it, or use it as a context
        manager)."""
        return self.sessions.create(self, defaults)

    def execute(self, sql: str,
                defaults: Optional[SessionDefaults] = None
                ) -> ServiceReport:
        """One-shot convenience: run ``sql`` in a throwaway session and
        wait for its report."""
        with self.create_session(defaults) as session:
            return session.execute(sql)

    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The current committed state (see
        :meth:`~repro.service.snapshots.SnapshotManager.acquire`)."""
        return self.snapshots.acquire()

    def fingerprint(self) -> tuple:
        """The base catalog's structural fingerprint, captured between
        write scripts (the stress suite's integrity probe)."""
        with self.write_lock:
            return self.db.catalog.fingerprint()

    def quiesce(self) -> None:
        """Block until every admitted query has finished (new
        submissions remain allowed; useful for integrity checks)."""
        import time as _time
        while self.scheduler.admitted:
            _time.sleep(0.001)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Close all sessions and shut the scheduler down.  Queries
        already admitted complete when ``wait`` is true."""
        self.sessions.close_all()
        self.scheduler.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
