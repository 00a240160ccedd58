"""Unit tests for Table and TableSchema."""

import numpy as np
import pytest

from repro.engine.column import Block, ColumnData
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import CatalogError, ExecutionError


def make_schema():
    return TableSchema.build("t", [("a", SQLType.INTEGER),
                                   ("b", SQLType.VARCHAR)],
                             primary_key=["a"])


class TestSchema:
    def test_duplicate_column_raises(self):
        with pytest.raises(CatalogError):
            TableSchema("t", ["a", "A"],
                        [(SQLType.INTEGER, 1), (SQLType.REAL, 1)])

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema.build("t", [("a", SQLType.INTEGER)],
                              primary_key=["missing"])

    def test_case_insensitive_lookup(self):
        schema = make_schema()
        assert schema.column("A").sql_type == SQLType.INTEGER
        assert schema.column_index("B") == 1
        assert schema.has_column("b")
        assert not schema.has_column("c")

    def test_column_names_order(self):
        assert make_schema().column_names() == ["a", "b"]


class TestTable:
    def test_from_rows_and_back(self):
        table = Table.from_rows(make_schema(), [(1, "x"), (2, None)])
        assert table.to_rows() == [(1, "x"), (2, None)]
        assert table.n_rows == 2

    def test_row_width_check(self):
        with pytest.raises(ExecutionError):
            Table.from_rows(make_schema(), [(1,)])

    def test_missing_column_data_raises(self):
        schema = make_schema()
        with pytest.raises(ExecutionError):
            Table(schema, {"a": ColumnData.from_values(
                SQLType.INTEGER, [1])})

    def test_unequal_column_lengths_raise(self):
        schema = make_schema()
        with pytest.raises(ExecutionError):
            Table(schema, {
                "a": ColumnData.from_values(SQLType.INTEGER, [1, 2]),
                "b": ColumnData.from_values(SQLType.VARCHAR, ["x"]),
            })

    def test_take_and_filter(self):
        table = Table.from_rows(make_schema(),
                                [(1, "x"), (2, "y"), (3, "z")])
        assert table.take(np.array([2, 0])).to_rows() == \
            [(3, "z"), (1, "x")]
        assert table.filter(np.array([False, True, False])).to_rows() \
            == [(2, "y")]

    def test_append(self):
        table = Table.from_rows(make_schema(), [(1, "x")])
        more = Table.from_rows(make_schema(), [(2, "y")])
        assert table.append(more).to_rows() == [(1, "x"), (2, "y")]

    def test_append_type_mismatch_raises(self):
        table = Table.from_rows(make_schema(), [(1, "x")])
        other_schema = TableSchema.build(
            "o", [("a", SQLType.REAL), ("b", SQLType.VARCHAR)])
        other = Table.from_rows(other_schema, [(1.0, "y")])
        with pytest.raises(ExecutionError):
            table.append(other)

    def test_replace_column(self):
        table = Table.from_rows(make_schema(), [(1, "x")])
        new = table.replace_column(
            "a", ColumnData.from_values(SQLType.INTEGER, [9]))
        assert new.to_rows() == [(9, "x")]
        assert table.to_rows() == [(1, "x")]  # original untouched

    def test_replace_column_wrong_type_raises(self):
        table = Table.from_rows(make_schema(), [(1, "x")])
        with pytest.raises(ExecutionError):
            table.replace_column(
                "a", ColumnData.from_values(SQLType.REAL, [9.0]))

    def test_renamed_shares_data(self):
        table = Table.from_rows(make_schema(), [(1, "x")])
        renamed = table.renamed("u")
        assert renamed.name == "u"
        assert renamed.to_rows() == table.to_rows()

    def test_from_columns(self):
        table = Table.from_columns("t", [
            ("a", ColumnData.from_values(SQLType.INTEGER, [1, 2]))])
        assert table.column_names() == ["a"]
        assert table.n_rows == 2


# ----------------------------------------------------------------------
# Column blocks
# ----------------------------------------------------------------------
def wide_schema(name="w"):
    return TableSchema.build(name, [("k", SQLType.INTEGER),
                                    ("x", SQLType.REAL),
                                    ("y", SQLType.REAL),
                                    ("z", SQLType.REAL),
                                    ("s", SQLType.VARCHAR)])


_ROWS = [(1, 0.5, None, 2.0, "a"), (2, None, 1.5, 3.0, None),
         (None, 4.0, 5.0, None, "b"), (4, 6.5, 7.5, 8.5, "c")]


def column_wise(name="w"):
    return Table.from_rows(wide_schema(name), _ROWS)


def block_wise(name="w"):
    """The same rows as three blocks: k, (x, y, z) and s."""
    columns = column_wise(name)

    def block(names):
        data = [columns.column(n) for n in names]
        return Block(data[0].sql_type, np.stack([d.values for d in data]),
                     np.stack([d.nulls for d in data]))

    table = Table.from_blocks(wide_schema(name), [
        block(["k"]), block(["x", "y", "z"]), block(["s"])])
    assert len(table.blocks()) == 3
    return table


def same_columns(a, b):
    assert a.column_names() == b.column_names()
    for name in a.column_names():
        left, right = a.column(name), b.column(name)
        assert left.sql_type == right.sql_type
        assert np.array_equal(left.nulls, right.nulls)
        kept = ~left.nulls
        assert np.array_equal(left.values[kept], right.values[kept])
    assert a.to_rows() == b.to_rows()


class TestBlocks:
    def test_block_wise_and_column_wise_agree(self):
        blocks, columns = block_wise(), column_wise()
        same_columns(blocks, columns)
        assert blocks.to_rows() == _ROWS
        assert list(blocks.rows()) == _ROWS
        for i in range(len(_ROWS)):
            assert blocks.row(i) == columns.row(i) == _ROWS[i]
        assert blocks.column("Y") is blocks.find("y")
        assert blocks.find("missing") is None
        with pytest.raises(ExecutionError):
            blocks.column("missing")

    def test_row_set_operations_agree(self):
        blocks, columns = block_wise(), column_wise()
        order = np.array([3, 0, 0, 2])
        mask = np.array([True, False, True, True])
        same_columns(blocks.take(order), columns.take(order))
        same_columns(blocks.filter(mask), columns.filter(mask))
        same_columns(blocks.append(columns), columns.append(blocks))
        same_columns(blocks.append(blocks), columns.append(columns))
        empty = Table(wide_schema())
        same_columns(empty.append(blocks), columns)
        same_columns(blocks.append(empty), columns)
        new = ColumnData.from_values(SQLType.REAL, [9.0, None, 9.5, 1.0])
        same_columns(blocks.replace_column("y", new),
                     columns.replace_column("y", new))
        assert blocks.replace_column("y", new).column("y") is new
        same_columns(blocks, column_wise())   # originals untouched

    def test_rows_come_in_batches_that_agree_with_to_rows(self):
        table = block_wise().take(np.arange(2500) % 4)
        rows = table.rows()
        assert next(rows) == _ROWS[0]     # lazily: one batch made
        assert [_ROWS[0]] + list(rows) == table.to_rows() \
            == [_ROWS[i % 4] for i in range(2500)]

    def test_a_table_built_column_by_column_is_one_block_per_column(self):
        table = column_wise()
        blocks = table.blocks()
        assert [len(block.values) for block in blocks] == [1] * 5
        for block, name in zip(blocks, table.column_names()):
            assert np.shares_memory(block.values, table.column(name).values)
        given = ColumnData.from_values(SQLType.REAL, [1.0, None])
        assert Table.from_columns("t", [("a", given)]).column("a") is given

    def test_renamed_keeps_identity_and_views(self):
        for table in (block_wise(), column_wise()):
            renamed = table.renamed("u")
            assert renamed.identity() == ("u", table.version)
            assert renamed.column("x") is table.column("x")
            assert table.take(np.arange(4)).identity() != table.identity()

    def test_append_type_mismatch_names_the_column(self):
        other = TableSchema.build("o", [("k", SQLType.INTEGER),
                                        ("x", SQLType.REAL),
                                        ("y", SQLType.VARCHAR),
                                        ("z", SQLType.REAL),
                                        ("s", SQLType.VARCHAR)])
        rows = Table.from_rows(other, [(1, 1.0, "q", 2.0, "r")])
        with pytest.raises(ExecutionError, match="'y'"):
            block_wise().append(rows)

    def test_from_blocks_checks_each_block(self):
        bad = Block(SQLType.INTEGER, np.zeros((2, 3), dtype=np.int64),
                    np.zeros((2, 3), dtype=bool))
        with pytest.raises(ExecutionError):
            Table.from_blocks(make_schema(), [bad])

    def test_every_column_view_is_c_contiguous(self):
        strided = ColumnData.from_arrays(SQLType.INTEGER,
                                         np.arange(8)[::2])
        assert not strided.values.flags.c_contiguous
        made = [block_wise(), column_wise(), Table(wide_schema()),
                block_wise().take(np.array([1, 0])),
                block_wise().filter(np.array([True, False, True, True])),
                Table.from_columns("t", [("a", strided)])]
        for table in made:
            for name in table.column_names():
                data = table.column(name)
                assert data.values.flags.c_contiguous
                assert data.nulls.flags.c_contiguous
            for block in table.blocks():
                assert block.values.flags.c_contiguous

    def test_an_empty_table_is_one_block_per_type_run(self):
        schema = TableSchema.build(
            "t", [("k", SQLType.INTEGER)]
            + [(f"c{i}", SQLType.REAL) for i in range(1200)])
        table = Table(schema)
        assert [(b.sql_type, len(b.values)) for b in table.blocks()] == \
            [(SQLType.INTEGER, 1), (SQLType.REAL, 1200)]
        assert table.n_rows == 0 and table.to_rows() == []

    def test_seal_gives_one_memo_per_column(self):
        for table in (block_wise(), column_wise()):
            before = table.column("x")   # a view made before the seal
            table.seal()
            memos = [table.column(n).memo for n in table.column_names()]
            assert all(memo is not None for memo in memos)
            assert len({id(memo) for memo in memos}) == len(memos)
            assert before.memo is table.column("x").memo
            assert table.column("z").memo is table.column("z").memo
            assert table.renamed("u").column("s").memo \
                is table.column("s").memo


def _wide_db(width):
    from repro import Database
    db = Database()
    cells = ", ".join(f"c{i} REAL" for i in range(width))
    db.execute(f"CREATE TABLE src (k INT, {cells})")
    values = ", ".join(f"{i}.5" for i in range(width))
    db.execute(f"INSERT INTO src VALUES (1, {values}), (2, {values})")
    db.execute(f"CREATE TABLE dst (k INT, {cells})")
    return db


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, staticmethod(spy))
    return calls


def test_insert_select_into_an_empty_table_adopts_the_blocks(monkeypatch):
    db = _wide_db(1200)
    concats = _counting(monkeypatch, ColumnData, "concat")
    block_concats = _counting(monkeypatch, Block, "concat")
    assert db.execute("INSERT INTO dst SELECT * FROM src") == 2
    assert concats == [] and block_concats == []
    assert [(b.sql_type, len(b.values)) for b in db.table("dst").blocks()] \
        == [(SQLType.INTEGER, 1), (SQLType.REAL, 1200)]
    assert db.execute("SELECT * FROM dst").to_rows() == \
        db.execute("SELECT * FROM src").to_rows()
    # A run one block covers is adopted as it is: no copy.
    cells = ", ".join(f"c{i} REAL" for i in range(1200))
    db.execute(f"CREATE TABLE again (k INT, {cells})")
    db.execute("INSERT INTO again SELECT * FROM dst")
    assert np.shares_memory(db.table("again").blocks()[1].values,
                            db.table("dst").blocks()[1].values)


def test_insert_into_a_non_empty_table_concatenates_per_block(monkeypatch):
    db = _wide_db(1200)
    db.execute("INSERT INTO dst SELECT * FROM src")
    blocks = len(db.table("dst").blocks())
    concats = _counting(monkeypatch, Block, "concat")
    column_concats = _counting(monkeypatch, ColumnData, "concat")
    assert db.execute("INSERT INTO dst SELECT * FROM src") == 2
    assert len(concats) == blocks == 2
    assert column_concats == []
    rows = db.execute("SELECT * FROM src").to_rows()
    assert db.execute("SELECT * FROM dst").to_rows() == rows + rows


def test_iterating_a_disk_table_reads_each_column_once(tmp_path,
                                                       monkeypatch):
    import gc

    from repro import Database
    from repro.engine.table import _ROW_BATCH
    n = 2 * _ROW_BATCH + 500
    rows = [(i, i / 2, f"s{i % 7}") for i in range(n)]
    with Database(storage="disk", storage_path=str(tmp_path)) as db:
        db.load_table("t", [("k", "int"), ("x", "real"), ("s", "varchar")],
                      rows)
        table = db.table("t")
        gc.collect()    # no column of ``t`` is still held in memory
        calls = _counting(monkeypatch, table._store, "read_column")
        assert list(table.rows()) == rows
        assert len(calls) == 3


# ----------------------------------------------------------------------
# Memos made with their views
# ----------------------------------------------------------------------
def _memo_constructions(monkeypatch):
    """Count the encoding memos the table module makes from now on."""
    import repro.engine.table as table_mod
    made = []

    class Counted(table_mod.EncodingMemo):
        __slots__ = ()

        def __init__(self, table):
            made.append(table)
            super().__init__(table)
    monkeypatch.setattr(table_mod, "EncodingMemo", Counted)
    return made


def _fh_schema():
    return TableSchema.build(
        "fh", [("k", SQLType.INTEGER)]
        + [(f"c{i}", SQLType.REAL) for i in range(1200)])


class TestMemosMadeWithViews:
    def test_sealing_an_empty_wide_table_makes_no_memo(self, monkeypatch):
        made = _memo_constructions(monkeypatch)
        table = Table(_fh_schema())
        table.seal()
        assert made == []
        first = table.column("c7").memo
        assert first is not None and first is table.column("C7").memo
        assert made == ["fh"]

    def test_creating_a_wide_table_makes_no_memo(self, monkeypatch):
        from repro import Database
        db = Database()
        made = _memo_constructions(monkeypatch)
        cells = ", ".join(f"c{i} REAL" for i in range(1200))
        db.execute(f"CREATE TABLE fh (k INT, {cells})")
        assert made == []

    def test_columns_built_from_a_sealed_table_share_its_memos(self):
        table = block_wise()
        table.seal()
        projected = Table.assemble("p", [(["y", "z"], (table, 2, 4))])
        assert projected.column("y").memo is table.column("y").memo
        assert projected.column("z").memo is table.column("z").memo
        new = ColumnData.from_values(SQLType.REAL, [9.0, None, 9.5, 1.0])
        updated = table.replace_column("x", new)
        assert updated.column("s").memo is table.column("s").memo
        assert updated.column("x").memo is None
        updated.seal()
        assert updated.column("x").memo is not table.column("x").memo
        assert updated.column("k").memo is table.column("k").memo

    def test_a_projected_sealed_table_makes_memos_only_when_read(
            self, monkeypatch):
        """``SELECT *`` of a sealed table lends the columns' memos run
        by run: none is made until a column is read, and the one made
        then is the sealed table's own."""
        table = block_wise()
        table.seal()
        made = _memo_constructions(monkeypatch)
        whole = Table.assemble("p", [(table.column_names(),
                                      (table, 0, table.schema.width()))])
        again = Table.assemble("q", [(whole.column_names(),
                                      (whole, 0, whole.schema.width()))])
        assert made == []
        assert whole.schema.primary_key == ()
        assert again.column("y").memo is table.column("y").memo
        assert made == ["w"]
        assert whole.column("y").memo is table.column("y").memo
        assert made == ["w"]

    def test_a_projection_keeps_the_memos_not_the_sealed_table(self):
        """A CTAS of one column, and one over that, keep the dropped
        source's memos -- one hop, whatever the chain -- but not the
        source table: its block of a type they never took is freed."""
        import gc
        import weakref

        from repro import Database
        db = Database()
        db.execute("CREATE TABLE a (k INTEGER, s VARCHAR, x REAL)")
        db.execute("INSERT INTO a VALUES (1, 'p', 1.0), (2, 'q', 2.0)")
        text = weakref.ref(db.table("a")._blocks[1].values)
        key_memo = db.table("a").column("k").memo
        db.execute("CREATE TABLE b AS SELECT k FROM a")
        db.execute("CREATE TABLE c AS SELECT * FROM b")
        held = db.execute("SELECT k, x FROM a")
        db.execute("DROP TABLE a")
        gc.collect()
        assert text() is None
        assert db.table("c").column("k").memo is key_memo
        assert held.column("k").memo is key_memo
        assert [len(db.table(t)._lenders) for t in ("b", "c")] == [1, 1]

    def test_a_wide_hpct_op_makes_a_handful_of_memos(self, monkeypatch):
        """The 1,201-column FH table the result statement projects is
        sealed and then dropped: its cells' memos are never read, so
        none is made."""
        from repro import Database
        from repro.core.execute import run_percentage_query
        db = Database()
        db.execute("CREATE TABLE sales (dweek INT, dept INT, "
                   "monthno INT, salesamt REAL)")
        db.execute("INSERT INTO sales VALUES " + ", ".join(
            f"({w}, {d}, {m}, {(w + d + m) % 7 + 1}.0)"
            for w in (1, 2) for d in range(100) for m in range(12)))
        sql = ("SELECT dweek, Hpct(salesamt BY dept, monthno) FROM sales "
               "GROUP BY dweek")
        run_percentage_query(db, sql)
        made = _memo_constructions(monkeypatch)
        result = run_percentage_query(db, sql)
        assert result.schema.width() == 1201
        assert len(result.to_rows()) == 2
        # The memos made are those of the key columns the plan groups,
        # joins and orders on, none of the FH table's cells.
        assert len(made) <= 10, made

    def test_two_threads_keep_one_memo(self, monkeypatch):
        import threading

        import repro.engine.table as table_mod
        table = block_wise()
        table.seal()
        inside, release = threading.Event(), threading.Event()

        class Slow(table_mod.EncodingMemo):
            __slots__ = ()

            def __init__(self, key):
                super().__init__(key)
                if threading.current_thread().name == "first":
                    inside.set()
                    release.wait(10)
        monkeypatch.setattr(table_mod, "EncodingMemo", Slow)
        seen = {}
        first = threading.Thread(
            name="first",
            target=lambda: seen.__setitem__("first", table.column("y")))
        first.start()
        try:
            assert inside.wait(10)      # first is making its memo
            seen["second"] = table.column("y")
        finally:
            release.set()
            first.join()
        assert seen["first"] is seen["second"] is table.column("y")
        assert table._memo_at(2) is table.column("y").memo


# ----------------------------------------------------------------------
# Rows built with the cyclic collector paused
# ----------------------------------------------------------------------
def _long_table():
    """_ROWS repeated across two batch boundaries: NULLs in all three
    blocks, on both sides of each boundary."""
    from repro.engine.table import _ROW_BATCH
    return block_wise().take(np.arange(2 * _ROW_BATCH + 7) % 4)


def _zipped(table):
    """Rows the plain way: one ``to_pylist`` per column, zipped."""
    return list(zip(*(table.column(name).to_pylist()
                      for name in table.column_names())))


@pytest.fixture
def collector_on():
    import gc
    assert gc.isenabled()
    return gc


class TestCollectorPause:
    def test_rows_equal_the_per_column_zip(self):
        import gc
        table = _long_table()
        expected = _zipped(table)
        assert len(expected) == table.n_rows
        assert any(None in row[:1] for row in expected)
        assert any(None in row[1:4] for row in expected)
        assert any(None in row[4:] for row in expected)
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            try:
                assert table.to_rows() == expected
                assert list(table.rows()) == expected
                assert [table.row(i) for i in range(table.n_rows)] \
                    == expected
                assert table.row(-1) == expected[-1]
                with pytest.raises(IndexError):
                    table.row(table.n_rows)
                assert gc.isenabled() is state
            finally:
                gc.enable()

    @pytest.mark.parametrize("nulls", ["none", "one column",
                                       "all-null column"])
    def test_wide_block_rows_equal_the_per_column_zip(self, monkeypatch,
                                                      nulls):
        """A block wider than it is long turns into rows by one
        transposed ``tolist``; beside narrow blocks, across two batch
        boundaries of :meth:`Table.rows`, NULLs still ``None``."""
        import repro.engine.table as table_mod
        monkeypatch.setattr(table_mod, "_ROW_BATCH", 4)
        n_rows, width = 2 * 4 + 3, 16
        values = np.arange(width * n_rows, dtype=float).reshape(width,
                                                               n_rows)
        mask = np.zeros((width, n_rows), dtype=bool)
        if nulls == "one column":
            mask[3, ::2] = True
        elif nulls == "all-null column":
            mask[5] = True
        schema = TableSchema.build(
            "wide", [("k", SQLType.INTEGER)]
            + [(f"c{i}", SQLType.REAL) for i in range(width)]
            + [("s", SQLType.VARCHAR)])
        key = ColumnData.from_values(SQLType.INTEGER,
                                     [None, *range(1, n_rows)])
        text = ColumnData.from_values(SQLType.VARCHAR,
                                      ["a", None] * 5 + ["b"])
        table = Table.from_blocks(schema, [
            Block.of(key), Block(SQLType.REAL, values, mask),
            Block.of(text)])
        alone = Table.from_blocks(
            TableSchema.build("cells", [(f"c{i}", SQLType.REAL)
                                        for i in range(width)]),
            [Block(SQLType.REAL, values, mask)])
        for built in (table, alone):
            expected = _zipped(built)
            assert expected[0][:2] == ((None, 0.0) if built is table
                                       else (0.0, 11.0))
            assert built.to_rows() == expected
            assert list(built.rows()) == expected
            assert [built.row(i) for i in range(n_rows)] == expected
        if nulls != "none":
            assert any(None in row[1:-1] for row in table.to_rows())

    def test_the_collector_is_paused_during_the_build_only(
            self, collector_on, monkeypatch):
        states, found = [], []
        original = Block.to_lists

        def to_lists(block):
            states.append(collector_on.isenabled())
            cycle = []
            cycle.append(cycle)
            del cycle
            found.append(collector_on.collect())   # still works
            return original(block)
        monkeypatch.setattr(Block, "to_lists", to_lists)
        assert block_wise().to_rows() == _ROWS
        assert states == [False] * 3 and min(found) >= 1
        assert collector_on.isenabled()

    def test_a_failing_build_restores_the_collector(self, collector_on,
                                                    monkeypatch):
        def to_lists(block):
            raise RuntimeError("conversion failed")
        monkeypatch.setattr(Block, "to_lists", to_lists)
        for state in (True, False):
            (collector_on.enable if state else collector_on.disable)()
            try:
                with pytest.raises(RuntimeError):
                    block_wise().to_rows()
                assert collector_on.isenabled() is state
            finally:
                collector_on.enable()

    def test_an_abandoned_row_iterator_leaves_the_collector_on(
            self, collector_on):
        rows = _long_table().rows()
        assert next(rows) == _ROWS[0]
        assert collector_on.isenabled()    # no pause spans a yield
        del rows
        assert collector_on.isenabled()

    def test_overlapping_builds_leave_the_collector_on(self, collector_on,
                                                       monkeypatch):
        """Thread B starts building inside thread A's pause, and A
        finishes first.  Per-build bookkeeping would have B read
        ``isenabled()`` False, A turn the collector back on before B
        turns it off, and B leave it off for good; the counted pause
        keeps it off until B is done, then turns it on."""
        import threading
        entered = {"A": threading.Event(), "B": threading.Event()}
        leave = {"A": threading.Event(), "B": threading.Event()}
        b_started, a_gone = threading.Event(), threading.Event()
        to_lists, disable = Block.to_lists, collector_on.disable

        def building(block):
            name = threading.current_thread().name
            entered[name].set()
            if name == "B":
                b_started.set()
            assert leave[name].wait(10)
            return to_lists(block)

        def disabling():
            if threading.current_thread().name == "B":
                b_started.set()
                assert a_gone.wait(10)
            disable()
        monkeypatch.setattr(Block, "to_lists", building)
        monkeypatch.setattr(collector_on, "disable", disabling)
        table = Table.from_columns("t", [
            ("a", ColumnData.from_values(SQLType.INTEGER, [1, None]))])
        got = {}
        threads = {name: threading.Thread(
            name=name, target=lambda name=name: got.__setitem__(
                name, table.to_rows())) for name in ("A", "B")}
        try:
            threads["A"].start()
            assert entered["A"].wait(10)
            assert not collector_on.isenabled()
            threads["B"].start()
            assert b_started.wait(10)
            leave["A"].set()
            threads["A"].join()
            a_gone.set()
            assert not collector_on.isenabled()    # B is still building
            leave["B"].set()
            threads["B"].join()
            assert collector_on.isenabled()
        finally:
            a_gone.set()
            for name in threads:
                leave[name].set()
                if threads[name].is_alive():
                    threads[name].join()
        assert got == {"A": [(1,), (None,)], "B": [(1,), (None,)]}

    def test_many_threads_building_at_once_end_with_the_collector_on(
            self, collector_on):
        import sys
        import threading

        from repro.engine import table as table_mod
        table = block_wise()
        wrong = []

        def build():
            for _ in range(300):
                if table.to_rows() != _ROWS:
                    wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert table_mod._COLLECTOR_PAUSE._depth == 0
        assert collector_on.isenabled()
