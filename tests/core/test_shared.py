"""Unit tests for the shared-summary batch evaluator (paper Section 6
future work) and the lattice-aware Fj reuse."""

import pytest

from repro import Database
from repro.core import generate_plan, run_percentage_query
from repro.core.shared import run_percentage_batch
from repro.datagen import load_transaction_line


@pytest.fixture(scope="module")
def tdb():
    db = Database(keep_history=True)
    load_transaction_line(db, 10_000)
    return db


BATCH = [
    "SELECT regionid, dayofweekno, Vpct(salesamt BY dayofweekno) "
    "FROM transactionline GROUP BY regionid, dayofweekno",
    "SELECT regionid, Hpct(salesamt BY monthno) FROM transactionline "
    "GROUP BY regionid",
    "SELECT monthno, sum(salesamt BY regionid), count(1 BY regionid) "
    "FROM transactionline GROUP BY monthno",
]


class TestSharedSummaries:
    def test_results_match_individual_runs(self, tdb):
        report = run_percentage_batch(tdb, BATCH)
        assert report.shared_groups == 1
        assert report.fallback_queries == 0
        for sql, got in zip(BATCH, report.results):
            want = run_percentage_query(tdb, sql)
            assert got.column_names() == want.column_names()
            for a, b in zip(got.to_rows(), want.to_rows()):
                assert a == pytest.approx(b, nan_ok=True)

    def test_scans_fact_table_once(self, tdb):
        tdb.stats.reset()
        run_percentage_batch(tdb, BATCH)
        batch_scans = tdb.stats.rows_scanned
        tdb.stats.reset()
        for sql in BATCH:
            run_percentage_query(tdb, sql)
        separate_scans = tdb.stats.rows_scanned
        assert batch_scans < separate_scans / 2

    def test_summary_dropped_by_default(self, tdb):
        run_percentage_batch(tdb, BATCH)
        assert not any(t.startswith("_shared")
                       for t in tdb.table_names())

    def test_keeping_summaries_is_refused(self, tdb):
        # A batch always drops its summary: there is no knob to keep
        # one for a later batch.
        with pytest.raises(TypeError, match="keep_summaries"):
            run_percentage_batch(tdb, BATCH, keep_summaries=True)
        assert not any(t.startswith("_shared")
                       for t in tdb.table_names())

    def test_avg_falls_back(self, tdb):
        queries = BATCH[:1] + [
            "SELECT regionid, avg(salesamt BY monthno) "
            "FROM transactionline GROUP BY regionid"]
        report = run_percentage_batch(tdb, queries)
        assert report.fallback_queries >= 1
        want = run_percentage_query(tdb, queries[1])
        assert report.results[1].to_rows() == want.to_rows()

    def test_single_query_runs_directly(self, tdb):
        report = run_percentage_batch(tdb, BATCH[:1])
        assert report.shared_groups == 0
        assert report.fallback_queries == 1

    def test_different_filters_do_not_share(self, tdb):
        queries = [
            "SELECT regionid, Vpct(salesamt) FROM transactionline "
            "WHERE yearno = 1 GROUP BY regionid",
            "SELECT regionid, Vpct(salesamt) FROM transactionline "
            "WHERE yearno = 2 GROUP BY regionid",
        ]
        report = run_percentage_batch(tdb, queries)
        assert report.shared_groups == 0
        for sql, got in zip(queries, report.results):
            assert got.to_rows() == \
                run_percentage_query(tdb, sql).to_rows()

    def test_results_in_input_order(self, tdb):
        report = run_percentage_batch(tdb, list(reversed(BATCH)))
        first = report.results[0]
        assert "monthno" in first.column_names()

    def test_generated_names_match_individual_runs(self, tdb):
        """count(*) and a compound argument are named by their select
        position, on the summary as on the fact table."""
        queries = [
            "SELECT regionid, dayofweekno, Vpct(salesamt BY dayofweekno), "
            "count(*), sum(salesamt * 2) FROM transactionline "
            "GROUP BY regionid, dayofweekno",
            "SELECT regionid, Hpct(salesamt BY monthno), "
            "max(salesamt + 1) FROM transactionline GROUP BY regionid",
        ]
        report = run_percentage_batch(tdb, queries)
        assert report.shared_groups == 1
        for sql, got in zip(queries, report.results):
            want = run_percentage_query(tdb, sql)
            assert got.column_names() == want.column_names()


class TestLatticeFjReuse:
    def test_coarser_totals_reuse_finer_fj(self, tdb):
        sql = ("SELECT regionid, yearno, monthno, "
               "Vpct(salesamt BY monthno) AS fine, "
               "Vpct(salesamt BY yearno, monthno) AS coarse "
               "FROM transactionline "
               "GROUP BY regionid, yearno, monthno")
        plan = generate_plan(tdb, sql)
        fj_inserts = [s.sql for s in plan.steps
                      if s.purpose == "aggregate-fj"]
        assert len(fj_inserts) == 2
        # The coarse totals (regionid) re-aggregate the fine Fj
        # (regionid, yearno) instead of rescanning Fk.
        assert any("_fj" in sql.split("FROM")[1] for sql in fj_inserts)

    def test_lattice_plan_is_correct(self, tdb):
        sql = ("SELECT regionid, yearno, monthno, "
               "Vpct(salesamt BY monthno) AS fine, "
               "Vpct(salesamt BY yearno, monthno) AS coarse "
               "FROM transactionline "
               "GROUP BY regionid, yearno, monthno")
        result = run_percentage_query(tdb, sql)
        sums = {}
        for region, year, _, fine, coarse in result.to_rows():
            sums[(region, year)] = sums.get((region, year), 0.0) + fine
            sums.setdefault(("coarse", region), 0.0)
            sums[("coarse", region)] += coarse
        for key, total in sums.items():
            assert total == pytest.approx(1.0)

    def test_no_reuse_for_different_arguments(self, tdb):
        sql = ("SELECT regionid, monthno, "
               "Vpct(salesamt BY monthno) AS by_sales, "
               "Vpct(itemqty BY monthno) AS by_qty "
               "FROM transactionline GROUP BY regionid, monthno")
        plan = generate_plan(tdb, sql)
        fj_inserts = [s.sql for s in plan.steps
                      if s.purpose == "aggregate-fj"]
        # Same totals, different measures: both read Fk.
        assert all("_fk" in sql for sql in fj_inserts)
