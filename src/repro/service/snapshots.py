"""Snapshot isolation for the concurrent query service.

The copy-on-write catalog (:mod:`repro.engine.catalog`) publishes a
fresh generation of its dicts on every mutation and never touches a
published object again.  That makes a *snapshot* an O(1) capture of
references -- no copying, no locking beyond the catalog's publish
lock -- and makes the isolation guarantee structural rather than
scheduled: a reader holding :class:`Snapshot` cannot observe later
writes because the objects it holds are frozen by discipline, not by
blocking writers.

Two pieces live here:

* :class:`Snapshot` -- an immutable capture of the base catalog
  (version, fingerprint, pinned table/view/index objects).
* :class:`SnapshotDatabase` -- a :class:`~repro.api.database.Database`
  whose catalog is a *private overlay* seeded from a snapshot.  It has
  full engine semantics (multi-statement percentage plans create and
  drop temp tables in the overlay) but none of it is visible outside,
  so many readers evaluate concurrently against different -- or the
  same -- versions of the data while writers proceed.

The :class:`SnapshotManager` ties acquisition to the service's writer
lock: snapshots are taken only *between* write scripts, so a reader can
never see the torn middle of a multi-statement plan even though the
statements commit to the catalog one at a time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.api.database import Database
from repro.engine.catalog import CatalogSnapshot
from repro.engine.executor import ExecutorOptions


@dataclass(frozen=True)
class Snapshot:
    """One immutable, internally consistent view of the database.

    Cheap to hold (references only) and safe to share across threads.
    """

    catalog: CatalogSnapshot

    @property
    def version(self) -> int:
        """The catalog mutation counter at capture time.  Two snapshots
        with equal versions saw byte-identical catalogs."""
        return self.catalog.version

    @property
    def fingerprint(self) -> tuple:
        """Structural fingerprint of the captured catalog (object
        identities); equal fingerprints imply identical content."""
        return self.catalog.fingerprint

    def table_identities(self) -> dict[str, tuple]:
        """``name -> Table.identity()`` for every captured table (the
        stress harness keys its shadow model on these)."""
        return {name: table.identity()
                for name, table in self.catalog.tables.items()}


class SnapshotDatabase(Database):
    """A Database facade over a private overlay of one snapshot.

    Assembled by the same :meth:`Database._assemble` as its base, from
    the base's shared parts -- everything that is thread-safe and
    global by design -- plus what carries per-query state:

    * shared: the statistics collector, the resource governor, the
      clock, and the tracer and metrics registry -- overlay statements trace under whatever script span
      the scheduler opened and meter into the base registry, so the
      telemetry view stays whole-service;
    * private: the overlay catalog, the executor options (where
      per-session defaults land), the executor and the statement lock.

    DML against this object mutates only the overlay; the base catalog
    and every published object stay untouched.  That is what lets a
    snapshot reader run the paper's multi-statement Vpct/Hpct plans
    (CREATE temp / INSERT / result SELECT / DROP) with zero
    coordination.  The page store, on a disk base, is read through but
    never written: :meth:`storage_info` reports it, while
    :meth:`checkpoint` and :meth:`close` leave it to the base.
    """

    def __init__(self, base: Database, snapshot: Snapshot,
                 options: Optional[ExecutorOptions] = None):
        self._assemble(base.catalog.overlay(snapshot.catalog),
                       base.stats, options or base.options,
                       base.governor, base.tracer, base.clock,
                       base.metrics, base.storage_engine,
                       base.default_deadline_seconds)
        self.snapshot = snapshot
        self.base = base

    def checkpoint(self) -> None:
        """A reader has nothing durable to persist."""

    def close(self) -> None:
        """The store is the base's to close; a reader holds no
        resources of its own."""


class SnapshotManager:
    """Hands out snapshots and snapshot-isolated readers.

    ``write_lock`` is the service's single writer lock; taking it for
    the (instant) duration of a capture serializes acquisition against
    whole write *scripts*, which is the multi-statement consistency
    guarantee -- the catalog itself would happily hand out a snapshot
    between two statements of one script.
    """

    def __init__(self, db: Database, write_lock: threading.RLock):
        self._db = db
        self._write_lock = write_lock

    def acquire(self) -> Snapshot:
        """Capture the current committed state (waits out any write
        script in flight; never blocks on readers)."""
        with self._write_lock:
            return Snapshot(catalog=self._db.catalog.snapshot())

    def reader(self, snapshot: Optional[Snapshot] = None,
               options: Optional[ExecutorOptions] = None
               ) -> SnapshotDatabase:
        """A private overlay database over ``snapshot`` (a fresh
        capture when none is given), with ``options`` as its executor
        defaults."""
        if snapshot is None:
            snapshot = self.acquire()
        return SnapshotDatabase(self._db, snapshot, options)
