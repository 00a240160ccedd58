"""A statement's working Frame is freed by refcount when the statement
ends.  The select-list rewriters used to be nested functions that
referred to themselves; each such reference cycle kept the Frame --
and every array reachable from it -- alive until the cyclic collector
happened to run."""

import gc

import pytest

from repro import Database
from repro.engine.executor import Frame


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE f (k VARCHAR, d INTEGER, a INTEGER)")
    db.execute("INSERT INTO f VALUES ('x', 1, 1), (NULL, 2, 2), "
               "('x', 1, 3), ('y', 2, 4)")
    return db


@pytest.mark.parametrize("sql", [
    "SELECT k, sum(a), count(*) FROM f GROUP BY k HAVING sum(a) > 0",
    "SELECT k, d, sum(a) FROM f GROUP BY CUBE (k, d)",
    "SELECT k, a, sum(a) OVER (PARTITION BY k) FROM f",
])
def test_statement_leaves_no_frame_in_a_cycle(db, sql):
    db.execute(sql)  # first run: lazy imports leave unrelated garbage
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        db.execute(sql)
        gc.collect()
        frames = [o for o in gc.garbage if isinstance(o, Frame)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert frames == []


def test_query_scope_holds_disk_columns_until_it_ends(tmp_path):
    """Columns read from disk pages are held by the outermost query
    scope: the statements of one script read each page once, and the
    next query reads them again."""
    with Database(storage="disk", storage_path=str(tmp_path),
                  pool_pages=8, page_size=256) as db:
        db.execute("CREATE TABLE f (k INTEGER, a INTEGER)")
        db.execute("INSERT INTO f VALUES "
                   + ", ".join(f"({i % 3}, {i})" for i in range(400)))

        def fetches(run):
            before = db.stats.storage_page_fetches
            run()
            return db.stats.storage_page_fetches - before

        select = "SELECT k, sum(a) FROM f GROUP BY k"
        once = fetches(lambda: db.execute(select))
        assert once > 0
        assert fetches(lambda: db.execute_script(
            f"{select}; {select}; {select}")) == once
        assert fetches(lambda: db.execute(select)) == once
