"""Edge-case coverage for the executor: empty inputs, degenerate
shapes, and interactions between features."""

import pytest

from repro import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b VARCHAR, c REAL)")
    return database


class TestEmptyTables:
    def test_scan(self, db):
        assert db.query("SELECT * FROM t") == []

    def test_filter(self, db):
        assert db.query("SELECT a FROM t WHERE a > 0") == []

    def test_join_both_empty(self, db):
        db.execute("CREATE TABLE u (a INT)")
        assert db.query("SELECT t.a FROM t, u WHERE t.a = u.a") == []

    def test_left_join_empty_right(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0)")
        db.execute("CREATE TABLE u (a INT, d INT)")
        rows = db.query("SELECT t.a, u.d FROM t LEFT OUTER JOIN u "
                        "ON t.a = u.a")
        assert rows == [(1, None)]

    def test_cartesian_with_empty(self, db):
        db.execute("CREATE TABLE u (x INT)")
        db.execute("INSERT INTO u VALUES (1)")
        assert db.query("SELECT t.a, u.x FROM t, u") == []

    def test_order_limit_distinct(self, db):
        assert db.query("SELECT DISTINCT a FROM t ORDER BY a "
                        "LIMIT 3") == []

    def test_window_on_empty(self, db):
        assert db.query("SELECT a, sum(c) OVER (PARTITION BY a) "
                        "FROM t") == []

    def test_update_delete_on_empty(self, db):
        assert db.execute("UPDATE t SET a = 1") == 0
        assert db.execute("DELETE FROM t") == 0

    def test_insert_select_empty(self, db):
        db.execute("CREATE TABLE u (a INT, b VARCHAR, c REAL)")
        assert db.execute("INSERT INTO u SELECT * FROM t") == 0


class TestDegenerateShapes:
    def test_group_by_all_columns(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 2.0), (1, 'x', 2.0)")
        rows = db.query("SELECT a, b, c, count(*) FROM t "
                        "GROUP BY a, b, c")
        assert rows == [(1, "x", 2.0, 2)]

    def test_single_row_table(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 2.0)")
        assert db.query("SELECT avg(c), var(c) FROM t") == \
            [(2.0, None)]

    def test_all_null_column(self, db):
        db.execute("INSERT INTO t VALUES (1, NULL, NULL), "
                   "(2, NULL, NULL)")
        rows = db.query("SELECT count(b), sum(c), min(b) FROM t")
        assert rows == [(0, None, None)]

    def test_group_key_is_null(self, db):
        db.execute("INSERT INTO t VALUES (NULL, 'x', 1.0), "
                   "(NULL, 'y', 2.0), (1, 'z', 4.0)")
        rows = db.query("SELECT a, sum(c) FROM t GROUP BY a "
                        "ORDER BY a")
        assert (None, 3.0) in rows and (1, 4.0) in rows

    def test_limit_zero(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0)")
        assert db.query("SELECT a FROM t LIMIT 0") == []

    def test_limit_beyond_rows(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0)")
        assert len(db.query("SELECT a FROM t LIMIT 99")) == 1

    def test_self_cartesian(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0), "
                   "(2, 'y', 2.0)")
        rows = db.query("SELECT x.a, y.a FROM t x, t y")
        assert len(rows) == 4


class TestFeatureInteractions:
    def test_view_over_view(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 10.0), "
                   "(2, 'y', 30.0)")
        db.execute("CREATE VIEW v1 AS SELECT a, c * 2 AS c2 FROM t")
        db.execute("CREATE VIEW v2 AS SELECT sum(c2) AS total FROM v1")
        assert db.query("SELECT total FROM v2") == [(80.0,)]

    def test_window_inside_case(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 10.0), "
                   "(1, 'y', 30.0)")
        rows = db.query(
            "SELECT b, CASE WHEN c > 0 THEN c / sum(c) "
            "OVER (PARTITION BY a) ELSE NULL END FROM t ORDER BY b")
        assert rows == [("x", 0.25), ("y", 0.75)]

    def test_distinct_after_aggregate(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 5.0), "
                   "(2, 'y', 5.0)")
        rows = db.query("SELECT DISTINCT sum(c) FROM t GROUP BY a")
        assert rows == [(5.0,)]

    def test_having_on_expression(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 5.0), "
                   "(1, 'y', 5.0), (2, 'z', 1.0)")
        rows = db.query("SELECT a FROM t GROUP BY a "
                        "HAVING sum(c) / count(*) > 2")
        assert rows == [(1,)]

    def test_update_then_query_consistency(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0)")
        db.execute("CREATE INDEX ix ON t (a)")
        db.execute("UPDATE t SET a = 9")
        db.execute("CREATE TABLE u (a INT)")
        db.execute("INSERT INTO u VALUES (9)")
        rows = db.query("SELECT t.c FROM u, t WHERE u.a = t.a")
        assert rows == [(1.0,)]  # the join sees the updated rows

    def test_in_list_with_strings(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 1.0), "
                   "(2, 'y', 2.0), (3, NULL, 3.0)")
        rows = db.query("SELECT a FROM t WHERE b IN ('x', 'z') "
                        "ORDER BY a")
        assert rows == [(1,)]

    def test_between_on_real(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x', 0.5), "
                   "(2, 'y', 1.5), (3, 'z', 2.5)")
        rows = db.query("SELECT a FROM t WHERE c BETWEEN 1.0 AND 2.0")
        assert rows == [(2,)]


class TestAggregateBatchIsLazy:
    """``Executor._aggregate_batch`` consumes its items one aggregate
    at a time: the 1,000-column Hpct statements evaluate one argument
    column, aggregate it, and only then evaluate the next, so peak
    memory is one argument, not a thousand."""

    def test_item_k_plus_1_is_pulled_after_aggregate_k(self, db,
                                                       monkeypatch):
        import weakref

        import numpy as np

        from repro.engine import executor as executor_mod
        from repro.engine.column import ColumnData
        from repro.engine.types import SQLType

        events = []
        group_ids = np.array([0, 1, 0, 1], dtype=np.int64)
        arguments = []          # weak: the batch must not be kept alive

        def items():
            for k in range(4):
                events.append(("pulled", k))
                # By the time item k is asked for, the argument of
                # item k - 2 is garbage (k - 1's is still the loop
                # variable of the consumer).
                assert all(ref() is None for ref in arguments[:-1])
                arg = ColumnData.from_values(
                    SQLType.REAL, [float(k), 1.0, 2.0, 3.0])
                arguments.append(weakref.ref(arg))
                yield k, "sum", arg, False
                del arg

        real = executor_mod.compute_aggregate

        def recording(func, arg, *rest):
            out = real(func, arg, *rest)
            events.append(("computed", int(arg.values[0])))
            return out

        monkeypatch.setattr(executor_mod, "compute_aggregate", recording)
        out = db.executor._aggregate_batch(items(), group_ids, 2)
        assert events == [(what, k) for k in range(4)
                          for what in ("pulled", "computed")]
        assert list(out) == [0, 1, 2, 3]
        assert out[3].to_pylist() == [5.0, 4.0]
