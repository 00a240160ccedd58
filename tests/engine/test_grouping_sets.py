"""End-to-end tests for GROUP BY CUBE/ROLLUP/GROUPING SETS through the
shared-scan operator: lattice expansion, NULL placeholders, GROUPING()
bitmasks, percentage hierarchies, exact and REAL aggregates, error
paths, and bit-identity across storages."""

import pytest

from repro import Database, GroupingSetError
from repro.errors import (PlanningError, QueryCancelledError,
                          ReproError)

ROWS = ("('east','a',1,1.5), ('east','b',2,2.5), "
        "('west','a',3,0.5), ('west',NULL,4,4.0)")


def make_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE sales (region VARCHAR, product VARCHAR, "
               "qty INT, price REAL)")
    db.execute(f"INSERT INTO sales VALUES {ROWS}")
    return db


@pytest.fixture
def db():
    return make_db()


class TestLattice:
    def test_cube_emits_every_subset_in_request_order(self, db):
        rows = db.query(
            "SELECT region, product, sum(qty), count(*) FROM sales "
            "GROUP BY CUBE(region, product)")
        assert rows == [
            ("east", "a", 1, 1),
            ("east", "b", 2, 1),
            ("west", None, 4, 1),   # a real NULL product group
            ("west", "a", 3, 1),
            ("east", None, 3, 2),   # (region) level
            ("west", None, 7, 2),
            (None, None, 4, 1),     # (product) level, NULL group
            (None, "a", 4, 2),
            (None, "b", 2, 1),
            (None, None, 10, 4),    # grand total
        ]

    def test_rollup_emits_prefixes_only(self, db):
        rows = db.query(
            "SELECT region, product, sum(qty), "
            "grouping(region, product) FROM sales "
            "GROUP BY ROLLUP(region, product)")
        assert rows == [
            ("east", "a", 1, 0),
            ("east", "b", 2, 0),
            ("west", None, 4, 0),
            ("west", "a", 3, 0),
            ("east", None, 3, 1),
            ("west", None, 7, 1),
            (None, None, 10, 3),
        ]

    def test_grouping_sets_explicit_list(self, db):
        rows = db.query(
            "SELECT region, product, count(*) FROM sales "
            "GROUP BY GROUPING SETS ((region), (product), ())")
        assert rows == [
            ("east", None, 2),
            ("west", None, 2),
            (None, None, 1),
            (None, "a", 2),
            (None, "b", 1),
            (None, None, 4),
        ]

    def test_plain_element_cross_products_into_every_set(self, db):
        rows = db.query(
            "SELECT region, product, count(*) FROM sales "
            "GROUP BY region, CUBE(product)")
        assert rows == [
            ("east", "a", 1),
            ("east", "b", 1),
            ("west", None, 1),
            ("west", "a", 1),
            ("east", None, 2),
            ("west", None, 2),
        ]

    def test_empty_set_over_empty_table_yields_global_row(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, m INT)")
        assert db.query(
            "SELECT a, count(*), sum(m) FROM t "
            "GROUP BY GROUPING SETS ((a), ())") == [(None, 0, None)]

    def test_untyped_null_key_gets_a_placeholder(self, db):
        """An untyped NULL key's placeholder is a NULL column of the
        type its set's own column projects as (REAL), not a crash."""
        rows = db.query("SELECT NULL, count(*) FROM sales "
                        "GROUP BY GROUPING SETS ((NULL), ())")
        assert rows == [(None, 4), (None, 4)]
        assert rows == db.query("SELECT NULL, count(*) FROM sales "
                                "GROUP BY NULL") * 2

    def test_real_and_exact_aggregates_agree_with_plain_group_by(
            self, db):
        """Exact (count/sum INT/min/max) and order-sensitive (avg/sum
        REAL) aggregates both match standalone group-bys at every
        lattice level."""
        cube = db.query(
            "SELECT region, sum(qty), min(qty), max(price), "
            "avg(price), count(price) FROM sales "
            "GROUP BY GROUPING SETS ((region), ())")
        per_region = db.query(
            "SELECT region, sum(qty), min(qty), max(price), "
            "avg(price), count(price) FROM sales GROUP BY region")
        total = db.query(
            "SELECT sum(qty), min(qty), max(price), avg(price), "
            "count(price) FROM sales")
        assert cube == per_region + [(None,) + total[0]]

    def test_duplicate_expanded_sets_keep_union_all_semantics(self, db):
        """A plain element cross-producted into GROUPING SETS can
        collapse two requested sets onto the same dims; both are still
        emitted (SQL's UNION ALL rule)."""
        rows = db.query(
            "SELECT region, count(*) FROM sales "
            "GROUP BY region, GROUPING SETS ((region), ())")
        assert rows == [
            ("east", 2), ("west", 2),
            ("east", 2), ("west", 2),
        ]


class TestGroupingFunc:
    def test_mask_orders_args_msb_first(self, db):
        rows = db.query(
            "SELECT grouping(region, product), grouping(product), "
            "count(*) FROM sales GROUP BY GROUPING SETS "
            "((region, product), (region), (product), ())")
        masks = [(r[0], r[1]) for r in rows]
        assert set(masks[:4]) == {(0, 0)}
        assert set(masks[4:6]) == {(1, 1)}
        assert set(masks[6:9]) == {(2, 0)}
        assert masks[9:] == [(3, 1)]

    def test_grouping_distinguishes_null_group_from_placeholder(
            self, db):
        rows = db.query(
            "SELECT product, count(*), grouping(product) FROM sales "
            "GROUP BY GROUPING SETS ((product), ())")
        real_null = [r for r in rows if r[2] == 0 and r[0] is None]
        placeholder = [r for r in rows if r[2] == 1]
        assert real_null == [(None, 1, 0)]
        assert placeholder == [(None, 4, 1)]

    def test_grouping_usable_in_having(self, db):
        rows = db.query(
            "SELECT region, sum(qty) FROM sales "
            "GROUP BY CUBE(region, product) "
            "HAVING grouping(region, product) = 3")
        assert rows == [(None, 10)]


class TestPercentages:
    def test_pct_divides_by_parent_lattice_level(self, db):
        rows = db.query(
            "SELECT region, product, sum(qty), pct(qty), "
            "grouping(region, product) FROM sales "
            "GROUP BY ROLLUP(region, product)")
        fine = [r for r in rows if r[4] == 0]
        mid = [r for r in rows if r[4] == 1]
        top = [r for r in rows if r[4] == 3]
        # grand total is its own parent
        assert top == [(None, None, 10, 1.0, 3)]
        # (region) rows divide by the grand total
        assert [(r[0], r[3]) for r in mid] == [
            ("east", 0.3), ("west", 0.7)]
        # (region, product) rows divide by their (region) subtotal
        assert fine[0][3] == pytest.approx(1 / 3)   # east/a of 3
        assert fine[1][3] == pytest.approx(2 / 3)   # east/b of 3
        assert fine[2][3] == pytest.approx(4 / 7)   # west/NULL of 7
        assert fine[3][3] == pytest.approx(3 / 7)   # west/a of 7

    def test_pct_parent_is_largest_proper_subset(self, db):
        """In a full CUBE the (region, product) level's parent is a
        one-dim level, not the grand total."""
        rows = db.query(
            "SELECT region, product, pct(qty), "
            "grouping(region, product) FROM sales "
            "GROUP BY CUBE(region, product)")
        fine = [r for r in rows if r[3] == 0]
        # parent = (region): east/a = 1/3, not 1/10
        assert fine[0][:2] == ("east", "a")
        assert fine[0][2] == pytest.approx(1 / 3)

    def test_pct_without_any_parent_is_one(self, db):
        rows = db.query("SELECT region, pct(qty) FROM sales "
                        "GROUP BY GROUPING SETS ((region))")
        assert rows == [("east", 1.0), ("west", 1.0)]

    def test_pct_null_and_zero_denominators_are_null(self):
        db = Database()
        db.execute("CREATE TABLE t (a VARCHAR, m INT)")
        db.execute("INSERT INTO t VALUES ('x', 2), ('x', -2), "
                   "('y', NULL)")
        rows = db.query("SELECT a, pct(m), grouping(a) FROM t "
                        "GROUP BY ROLLUP(a)")
        # total = 0 -> every child pct NULL; NULL numerator -> NULL
        assert rows == [("x", None, 0), ("y", None, 0),
                        (None, None, 1)]


class TestPostProcessing:
    def test_having_applies_per_set(self, db):
        rows = db.query(
            "SELECT region, sum(qty) FROM sales "
            "GROUP BY CUBE(region, product) HAVING count(*) > 1")
        assert rows == [("east", 3), ("west", 7), (None, 4),
                        (None, 10)]

    def test_order_by_and_limit_apply_to_the_union(self, db):
        rows = db.query(
            "SELECT region, product, sum(qty) FROM sales "
            "GROUP BY CUBE(region, product) ORDER BY 3 DESC LIMIT 3")
        assert rows == [(None, None, 10), ("west", None, 7),
                        ("west", None, 4)]

    def test_explain_reports_set_count_and_shared_scan(self, db):
        lines = [r[0] for r in db.query(
            "EXPLAIN SELECT region, count(*) FROM sales "
            "GROUP BY CUBE(region, product)")]
        assert any("grouping-sets: 4 sets, shared-scan" in line
                   for line in lines)

    def test_explain_counts_cross_product(self, db):
        lines = [r[0] for r in db.query(
            "EXPLAIN SELECT region, count(*) FROM sales "
            "GROUP BY region, ROLLUP(product)")]
        assert any("grouping-sets: 2 sets, shared-scan" in line
                   for line in lines)


class TestSharedScanLedger:
    """The Data Cube one-pass argument as a ledger fact: a
    grouping-sets statement reads the fact table once however many
    sets it computes; the per-set rewrite a user without grouping
    sets would run reads it once per set, for the same answer."""

    AGGS = "sum(salesamt), min(salesamt), max(salesamt), count(*)"

    @pytest.fixture(scope="class")
    def sales_db(self):
        from repro.datagen import load_sales
        db = Database()
        load_sales(db, 2_000)
        return db

    @staticmethod
    def expanded_sets(clause):
        """The clause's grouping sets in the engine's request order,
        each a tuple of dim names -- the planner's own expansion."""
        from repro.engine.groupingsets import expand_group_by
        from repro.sql.formatter import format_expr
        from repro.sql.parser import parse_statement
        statement = parse_statement(
            f"SELECT count(*) FROM sales GROUP BY {clause}")
        raw = expand_group_by(statement.group_by, lambda e: e)
        return [tuple(format_expr(e) for e in one_set)
                for one_set in raw]

    @staticmethod
    def run(db, sql):
        rows = db.query(sql)
        return rows, db.executor.scopes.last.counters.rows_scanned

    @pytest.mark.parametrize("clause, n_sets", [
        ("CUBE(dweek, monthno, dept)", 8),
        ("ROLLUP(dweek, monthno, dept)", 4),
        ("GROUPING SETS ((dweek, dept), (dweek), (monthno), ())", 4),
    ])
    def test_one_scan_where_the_per_set_rewrite_pays_n(
            self, sales_db, clause, n_sets):
        sets = self.expanded_sets(clause)
        assert len(sets) == n_sets
        dims = tuple(dict.fromkeys(d for s in sets for d in s))
        cols = ", ".join(dims)

        shared_rows, shared_scanned = self.run(
            sales_db, f"SELECT {cols}, {self.AGGS}, grouping({cols}) "
                      f"FROM sales GROUP BY {clause}")
        _, plain_scanned = self.run(
            sales_db, f"SELECT {cols}, {self.AGGS} FROM sales "
                      f"GROUP BY {cols}")
        assert shared_scanned == plain_scanned == 2_000

        rewrite_rows, rewrite_scanned = [], 0
        for one_set in sets:
            absent = [d not in one_set for d in dims]
            mask = sum(1 << (len(dims) - 1 - j)
                       for j, gone in enumerate(absent) if gone)
            sql = "SELECT {}, {}, {} FROM sales".format(
                ", ".join("NULL" if gone else d
                          for d, gone in zip(dims, absent)),
                self.AGGS, mask)
            if one_set:
                sql += f" GROUP BY {', '.join(one_set)}"
            rows, scanned = self.run(sales_db, sql)
            rewrite_rows += rows
            rewrite_scanned += scanned
        assert rewrite_scanned == n_sets * shared_scanned
        assert rewrite_rows == shared_rows


class TestBackendsAndStorage:
    QUERY = ("SELECT region, product, sum(qty), count(*), min(price), "
             "avg(price), pct(qty), grouping(region, product) "
             "FROM sales GROUP BY CUBE(region, product)")

    def reference(self):
        db = make_db()
        return db.query(self.QUERY)

    def test_disk_storage_bit_identical(self, tmp_path):
        db = make_db(storage="disk", storage_path=str(tmp_path),
                     pool_pages=8)
        try:
            assert db.query(self.QUERY) == self.reference()
        finally:
            db.close()


class TestErrors:
    def test_grouping_outside_grouping_sets(self, db):
        with pytest.raises(GroupingSetError, match="require GROUP BY"):
            db.query("SELECT region, grouping(region) FROM sales "
                     "GROUP BY region")

    def test_pct_outside_grouping_sets(self, db):
        with pytest.raises(GroupingSetError, match="require GROUP BY"):
            db.query("SELECT region, pct(qty) FROM sales "
                     "GROUP BY region")

    def test_grouping_arg_must_be_a_dim(self, db):
        with pytest.raises(GroupingSetError,
                           match="grouping columns"):
            db.query("SELECT grouping(qty) FROM sales "
                     "GROUP BY CUBE(region)")

    def test_pct_takes_one_plain_argument(self, db):
        with pytest.raises(GroupingSetError, match="one plain"):
            db.query("SELECT pct(qty, price) FROM sales "
                     "GROUP BY CUBE(region)")

    def test_bare_column_outside_sets_rejected(self, db):
        with pytest.raises(PlanningError, match="GROUP BY"):
            db.query("SELECT price FROM sales GROUP BY CUBE(region)")

    def test_window_functions_rejected(self, db):
        with pytest.raises(PlanningError, match="window"):
            db.query("SELECT sum(qty) OVER (PARTITION BY region) "
                     "FROM sales GROUP BY CUBE(region)")

    def test_too_many_grouping_sets(self, db):
        cols = ", ".join(f"c{i} INT" for i in range(8))
        db.execute(f"CREATE TABLE wide ({cols})")
        dims = ", ".join(f"c{i}" for i in range(8))
        with pytest.raises(GroupingSetError, match="too many"):
            db.query(f"SELECT count(*) FROM wide "
                     f"GROUP BY CUBE({dims})")  # 256 > 128 sets

    def test_typed_errors_are_repro_errors(self, db):
        with pytest.raises(ReproError):
            db.query("SELECT grouping(region) FROM sales")


class TestCancellation:
    def test_group_by_safepoint_unwinds_cleanly(self, db):
        from repro.engine import cancel as cancel_mod
        from repro.engine import faults
        from repro.engine.faults import FaultInjector, FaultSpec

        armed = FaultInjector([FaultSpec("group-by", error="cancel")])
        with faults.active(armed), \
                cancel_mod.activate(cancel_mod.CancelToken()):
            with pytest.raises(QueryCancelledError):
                db.query("SELECT region, count(*) FROM sales "
                         "GROUP BY CUBE(region, product)")
        # the engine stays usable and re-runs bit-identically
        rows = db.query("SELECT region, count(*) FROM sales "
                        "GROUP BY CUBE(region, product)")
        assert ("east", 2) in rows and (None, 4) in rows
