"""Property-based tests for the disk storage backend.

Three invariants over random data and DML sequences:

* a disk-backed database with a tiny buffer pool (so every query
  forces evictions) answers every query identically to the memory
  backend -- paging is invisible to query semantics;
* the per-statement stats ledger accounts for exactly the buffer
  pool's fetch traffic: ``storage_pool_hits + storage_page_reads ==
  storage_page_fetches`` and both sides match the pool's own counters;
* a new table version shares its predecessor's unchanged pages and
  replaces the rest, so after every statement each column's pages
  hold exactly the serialization of its content.

The inputs reach every page edge a write crosses at ``page_size=64``:
INTEGER, REAL, BOOLEAN and VARCHAR columns (empty and NULL strings
among them), tables long enough that the null bitmap and the VARCHAR
heap span several pages, and appends of one row and of more than a
page of rows -- so the page-granular gathers of INSERT ... SELECT,
UPDATE and DELETE, and the appends that rewrite only a chunk's tail,
are held to the memory backend, the data file and the pool.
"""

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.storage.pages import serialize_column

MEASURES = st.one_of(st.none(), st.integers(min_value=-100,
                                            max_value=100))
STATES = st.sampled_from(["CA", "TX", "AZ", "WA", "", None])
REALS = st.one_of(st.none(), st.sampled_from([0.5, -0.0, 1e300]),
                  st.floats(-1e3, 1e3, allow_nan=False))
FLAGS = st.one_of(st.none(), st.booleans())

ROW = st.tuples(STATES, MEASURES, REALS, FLAGS)
#: Short tables, and long ones -- a drawn run of rows repeated 40 to
#: 80 times, 400 to 1,600 rows -- whose null bitmap and VARCHAR heap
#: span several 64-byte pages.
ROWS = st.one_of(
    st.lists(ROW, min_size=0, max_size=20),
    st.tuples(st.lists(ROW, min_size=10, max_size=20),
              st.integers(40, 80)).map(lambda drawn: drawn[0] * drawn[1]))

#: Statement sequences applied identically to both backends.  Each
#: replaces the whole table version on the disk backend, exercising
#: shadow paging + WAL commit + garbage accumulation.
DML = st.lists(st.sampled_from([
    "UPDATE t SET m = m + 1 WHERE state = 'CA'",
    "UPDATE t SET m = 0 WHERE m IS NULL",
    "UPDATE t SET r = r * 2, b = NOT b WHERE state = 'AZ'",
    "DELETE FROM t WHERE state = 'TX'",
    "INSERT INTO t VALUES (99, 'NV', 7, 2.5, TRUE)",
    "INSERT INTO t SELECT rid + 5000, state, m, r, b FROM t "
    "WHERE rid >= 3 AND rid < 15",
]), max_size=4)

QUERIES = (
    "SELECT * FROM t ORDER BY rid",
    "SELECT state, SUM(m), COUNT(m), COUNT(*) FROM t "
    "GROUP BY state ORDER BY state",
    "SELECT MIN(m), MAX(m) FROM t",
    "SELECT b, SUM(r), COUNT(r) FROM t GROUP BY b ORDER BY b",
)


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value).upper() if isinstance(value, bool) else repr(value)


def _load(db, rows):
    db.execute("CREATE TABLE t (rid INT, state VARCHAR, m INT, r REAL, "
               "b BOOLEAN)")
    if rows:
        values = ", ".join(
            f"({', '.join(map(_literal, (rid, *row)))})"
            for rid, row in enumerate(rows))
        db.execute(f"INSERT INTO t VALUES {values}")


@given(ROWS, DML)
@settings(max_examples=25, deadline=None)
def test_evictions_never_change_answers(rows, statements):
    mem = Database()
    _load(mem, rows)
    tmp = tempfile.mkdtemp(prefix="repro-prop-store-")
    disk = Database(storage="disk", storage_path=tmp,
                    pool_pages=1, page_size=64)
    try:
        _load(disk, rows)
        for statement in statements:
            assert mem.execute(statement) == disk.execute(statement)
        for query in QUERIES:
            assert mem.query(query) == disk.query(query)
    finally:
        disk.close()
        shutil.rmtree(tmp, ignore_errors=True)


@given(ROWS, DML)
@settings(max_examples=25, deadline=None)
def test_ledger_matches_pool_traffic(rows, statements):
    tmp = tempfile.mkdtemp(prefix="repro-prop-ledger-")
    db = Database(storage="disk", storage_path=tmp,
                  pool_pages=2, page_size=64)
    try:
        _load(db, rows)
        for statement in statements:
            db.execute(statement)
        for query in QUERIES:
            db.query(query)
        pool = db.storage_engine.pool
        stats = db.stats
        # Every page fetch the pool served was charged to the ledger
        # (and nothing else was): the split by hit/read agrees too.
        assert stats.storage_page_fetches == pool.hits + pool.misses
        assert stats.storage_pool_hits == pool.hits
        assert stats.storage_page_reads == pool.misses
    finally:
        db.close()
        shutil.rmtree(tmp, ignore_errors=True)


@given(ROWS)
@settings(max_examples=15, deadline=None)
def test_reopen_is_bit_identical(rows):
    """Committed state round-trips through close + reopen exactly."""
    tmp = tempfile.mkdtemp(prefix="repro-prop-reopen-")
    try:
        db = Database(storage="disk", storage_path=tmp,
                      pool_pages=2, page_size=64)
        _load(db, rows)
        expected = db.query("SELECT * FROM t ORDER BY rid")
        db.close()
        db = Database(storage="disk", storage_path=tmp,
                      pool_pages=2, page_size=64)
        try:
            assert db.query("SELECT * FROM t ORDER BY rid") == expected
        finally:
            db.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: DML that shares and replaces pages in every way a version can: a
#: VARCHAR made longer, a multi-row INSERT ... SELECT, an UPDATE that
#: changes nothing, a DELETE in the middle of the table.
SHARING_DML = st.lists(st.sampled_from([
    "UPDATE t SET m = m + 1 WHERE state = 'CA'",
    "UPDATE t SET state = 'CALIFORNIA' WHERE state = 'CA'",
    "INSERT INTO t SELECT rid + 100, state, m, r, b FROM t WHERE rid < 6",
    "UPDATE t SET m = m WHERE state = 'AZ'",
    "DELETE FROM t WHERE rid = 2",
    "UPDATE t SET m = NULL WHERE state = 'WA'",
    "UPDATE t SET state = '' WHERE state IS NULL",
    "UPDATE t SET r = -r, b = NOT b WHERE m > 0",
    "INSERT INTO t VALUES (99, 'NV', 7, NULL, FALSE)",
    # One row; then more rows than a page holds of any column, BOOLEAN
    # bits included.
    "INSERT INTO t SELECT rid + 2000, state, m, r, b FROM t WHERE rid = 3",
    "INSERT INTO t SELECT rid + 3000, state, m, r, b FROM t "
    "WHERE rid < 400",
]), max_size=5)


def _open_store(path):
    return Database(storage="disk", storage_path=path, pool_pages=1,
                    page_size=64)


def _assert_pages_hold(disk, mem):
    """Each column's page run of ``disk``'s t, read straight off the
    data file, is the serialization of ``mem``'s t's column."""
    engine = disk.storage_engine
    table = mem.table("t")
    for name, page_ids in disk.table("t").page_map().items():
        on_disk = b"".join(engine.disk.read_page(page_id)
                           for page_id in page_ids)
        assert on_disk == serialize_column(table.column(name)), name


@given(ROWS, SHARING_DML)
@settings(max_examples=25, deadline=None)
def test_versions_share_only_unchanged_pages(rows, statements):
    """The statements run twice: then a clean close and a reopen, then
    a simulated kill (``abandon``) and a reopen that replays the WAL."""
    mem = Database()
    _load(mem, rows)
    tmp = tempfile.mkdtemp(prefix="repro-prop-sharing-")
    disk = _open_store(tmp)
    try:
        _load(disk, rows)
        _assert_pages_hold(disk, mem)
        for kill in (False, True):
            for statement in statements:
                assert mem.execute(statement) == disk.execute(statement)
                _assert_pages_hold(disk, mem)
            if kill:
                disk.storage_engine.abandon()
            else:
                disk.close()
            disk = _open_store(tmp)
            _assert_pages_hold(disk, mem)
            for query in QUERIES:
                assert mem.query(query) == disk.query(query)
    finally:
        disk.close()
        shutil.rmtree(tmp, ignore_errors=True)


#: One step of an interleaving: pin a snapshot reader, run a DML,
#: checkpoint, query a pinned reader, take a savepoint, or roll back
#: to the latest one.
STEPS = st.lists(st.one_of(
    st.just(("snapshot",)),
    st.tuples(st.just("dml"), st.sampled_from([
        "UPDATE t SET m = m + 1 WHERE state = 'CA'",
        "UPDATE t SET state = 'CALIFORNIA' WHERE state = 'CA'",
        "INSERT INTO t SELECT rid + 100, state, m, r, b FROM t "
        "WHERE rid < 6",
        "DELETE FROM t WHERE state = 'TX'",
    ])),
    st.just(("checkpoint",)),
    st.tuples(st.just("read"), st.integers(0, 7),
              st.sampled_from(QUERIES)),
    st.just(("savepoint",)),
    st.just(("rollback",)),
), min_size=4, max_size=12)


@given(ROWS, STEPS)
@settings(max_examples=25, deadline=None)
def test_pinned_versions_answer_as_at_their_snapshot(rows, steps):
    """Snapshot readers and savepoints pin table versions across DML
    and checkpoints: each answer on disk equals the memory backend's
    at the same point, so a checkpoint never frees a pinned page."""
    from repro.service.snapshots import SnapshotManager

    mem = Database()
    _load(mem, rows)
    tmp = tempfile.mkdtemp(prefix="repro-prop-pinned-")
    disk = _open_store(tmp)
    try:
        _load(disk, rows)
        both = (mem, disk)
        managers = [SnapshotManager(db) for db in both]
        # The loaded state's reader stays pinned throughout.
        readers = [[manager.reader() for manager in managers]]
        savepoints = []
        for step in steps:
            if step[0] == "snapshot":
                readers.append([manager.reader() for manager in managers])
            elif step[0] == "dml":
                assert mem.execute(step[1]) == disk.execute(step[1])
            elif step[0] == "checkpoint":
                disk.checkpoint()
            elif step[0] == "read" and readers:
                on_mem, on_disk = readers[step[1] % len(readers)]
                assert on_mem.query(step[2]) == on_disk.query(step[2])
            elif step[0] == "savepoint":
                savepoints.append([db.catalog.savepoint() for db in both])
            elif step[0] == "rollback" and savepoints:
                for db, savepoint in zip(both, savepoints.pop()):
                    db.catalog.rollback(savepoint)
        # Rewrite every page, three times over, after a checkpoint:
        # a page it freed under a pinned reader is reused before the
        # readers answer once more.
        disk.checkpoint()
        for state in ("NV", "OR", "UT"):
            churn = f"UPDATE t SET rid = rid + 1, state = '{state}'"
            assert mem.execute(churn) == disk.execute(churn)
        for on_mem, on_disk in readers:
            for query in QUERIES:
                assert on_mem.query(query) == on_disk.query(query)
        disk.close()
        disk = _open_store(tmp)
        for query in QUERIES:
            assert mem.query(query) == disk.query(query)
    finally:
        disk.close()
        shutil.rmtree(tmp, ignore_errors=True)
