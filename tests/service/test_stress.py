"""Concurrency stress: 8 readers x 2 writers against one service.

The shadow model exploits write serialization: every write script
commits atomically and records the catalog version it published, so a
read pinned at snapshot version ``v`` must observe exactly the rows of
every insert script whose post-commit version is <= ``v``, and their
sum.  The model runs on the memory backend and on a disk store with a
four-page pool and a thread checkpointing every few writes, so
readers hold versions across checkpoints.  Scale the op count with
``REPRO_STRESS_OPS`` (default 500).
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import pytest

from repro.api.database import Database
from repro.errors import AdmissionRejected
from repro.service import QueryService
from tests.service.conftest import F_SCRIPT

N_READERS = 8
N_WRITERS = 2
BASE_ROWS = 4
BASE_SUM = 100.25
ROWS_PER_SCRIPT = 2
SUM_PER_SCRIPT = 3.0

TOTAL_OPS = max(int(os.environ.get("REPRO_STRESS_OPS", "500")),
                N_READERS + N_WRITERS)
READER_OPS = max((TOTAL_OPS * 4 // 5) // N_READERS, 1)
WRITER_OPS = max((TOTAL_OPS - READER_OPS * N_READERS) // N_WRITERS, 1)


def _execute_with_retry(session, sql):
    while True:
        try:
            return session.execute(sql)
        except AdmissionRejected:
            time.sleep(0.002)


def test_stress_snapshot_consistency(service, db):
    _check_snapshot_consistency(service, db)


def test_stress_snapshot_consistency_on_disk(tmp_path):
    with Database(storage="disk", storage_path=str(tmp_path),
                  pool_pages=4, page_size=256) as db:
        db.execute_script(F_SCRIPT)
        with QueryService(db, workers=4) as service:
            _check_snapshot_consistency(service, db, checkpoint_every=3)


def _check_snapshot_consistency(service, db, checkpoint_every=None):
    """The shadow model; with ``checkpoint_every``, a thread
    checkpoints each time that many more insert scripts committed."""
    # version -> rows committed, recorded by writers as they go.
    insert_versions: list[int] = []
    versions_lock = threading.Lock()
    # (snapshot_version, count seen, sum seen)
    reads: list[tuple[int, int, float]] = []
    errors: list[BaseException] = []
    checkpoints: list[int] = []
    writers_done = threading.Event()
    tracked_readers: list = []
    original_reader = service.snapshots.reader

    def tracking_reader(*args, **kwargs):
        overlay = original_reader(*args, **kwargs)
        tracked_readers.append(overlay)
        return overlay

    service.snapshots.reader = tracking_reader
    try:
        def writer(tid: int) -> None:
            try:
                with service.create_session() as session:
                    for i in range(WRITER_OPS):
                        if i % 5 == 4:
                            # Scratch DDL churns the catalog version
                            # without touching f's count; the script
                            # also cleans up after itself.
                            name = f"scratch_{tid}_{i}"
                            _execute_with_retry(
                                session,
                                f"CREATE TABLE {name} (x INT); "
                                f"INSERT INTO {name} VALUES (1); "
                                f"DROP TABLE {name}")
                            continue
                        key = tid * 100_000 + i
                        report = _execute_with_retry(
                            session,
                            f"INSERT INTO f VALUES ({key}, 's', 1.0); "
                            f"INSERT INTO f VALUES ({key}, 't', 2.0)")
                        with versions_lock:
                            bisect.insort(insert_versions,
                                          report.snapshot_version)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader(tid: int) -> None:
            # A reader of its own, pinned for ten ops at a time, asks
            # again after every op: its version outlives writes (and,
            # on disk, checkpoints) while the service's readers come
            # and go.
            pinned = None
            try:
                with service.create_session() as session:
                    for i in range(READER_OPS):
                        if i % 10 == 0:
                            snapshot = service.snapshot()
                            pinned = (snapshot.version,
                                      service.snapshots.reader(snapshot))
                        if i % 7 == 6:
                            report = _execute_with_retry(
                                session,
                                "SELECT d2, Vpct(a) FROM f GROUP BY d2")
                            assert report.result.n_rows >= 2
                        else:
                            report = _execute_with_retry(
                                session, "SELECT count(*), sum(a) FROM f")
                            reads.append((report.snapshot_version,
                                          *report.rows()[0]))
                        version, overlay = pinned
                        reads.append((version, *overlay.query(
                            "SELECT count(*), sum(a) FROM f")[0]))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def checkpointer() -> None:
            try:
                seen = 0
                while not writers_done.is_set():
                    with versions_lock:
                        committed = len(insert_versions)
                    if committed - seen >= checkpoint_every:
                        seen = committed
                        db.checkpoint()
                        checkpoints.append(committed)
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(t,))
                   for t in range(N_WRITERS)]
        others = [threading.Thread(target=reader, args=(t,))
                  for t in range(N_READERS)]
        if checkpoint_every:
            others.append(threading.Thread(target=checkpointer))
        for thread in writers + others:
            thread.start()
        _join(writers)
        writers_done.set()
        _join(others)
    finally:
        service.snapshots.reader = original_reader

    assert errors == []
    service.quiesce()

    # Shadow-model check: each read saw exactly the scripts committed
    # at or before its snapshot version -- no torn or lost writes.
    assert reads, "stress run produced no recorded reads"
    for version, count, total in reads:
        committed = bisect.bisect_right(insert_versions, version)
        assert (count, total) == (
            BASE_ROWS + ROWS_PER_SCRIPT * committed,
            BASE_SUM + SUM_PER_SCRIPT * committed), (
            f"snapshot v{version} saw {count} rows summing to {total}, "
            f"expected {committed} insert scripts")
    if checkpoint_every:
        assert checkpoints, "no checkpoint ran during the stress"

    # Final state: every insert script applied exactly once.
    expected_final = BASE_ROWS + ROWS_PER_SCRIPT * len(insert_versions)
    assert db.query("SELECT count(*) FROM f") == [(expected_final,)]

    # Fingerprint integrity: stable across repeated capture, and the
    # catalog holds only user tables -- no leaked temps anywhere.
    assert service.fingerprint() == service.fingerprint()
    assert db.catalog.fingerprint() == db.catalog.fingerprint()
    assert [n for n in db.table_names() if n.startswith("_")] == []
    for overlay in tracked_readers:
        leaked = [n for n in overlay.table_names()
                  if n.startswith("_")]
        assert leaked == [], f"overlay leaked temps: {leaked}"
    assert [n for n in db.table_names()
            if n.startswith("scratch_")] == []


def _join(threads) -> None:
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "stress thread hung"


def test_stress_parallel_readers_match_serial(service, db):
    """Concurrent readers under session defaults agree with the base
    database's own answer."""
    from repro.service import SessionDefaults

    sql = ("SELECT d1, d2, sum(a), count(*) FROM f "
           "GROUP BY d1, d2 ORDER BY d1, d2")
    expected = db.query(sql)
    defaults = SessionDefaults(deadline_seconds=60.0)
    results: list = []
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            with service.create_session(defaults) as session:
                for _ in range(10):
                    report = _execute_with_retry(session, sql)
                    results.append(report.rows())
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()

    assert errors == []
    assert len(results) == 40
    assert all(rows == expected for rows in results)
