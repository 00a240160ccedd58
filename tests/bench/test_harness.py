"""Unit tests for the experiment harness, workloads and reporting."""

import pytest

from repro import Database
from repro.bench.harness import (measure, run_hagg_experiment,
                                 run_hpct_experiment,
                                 run_olap_experiment,
                                 run_vpct_experiment)
from repro.bench.report import format_markdown
from repro.bench.workloads import (DMKD_QUERIES, SIGMOD_QUERIES,
                                   QuerySpec)
from repro.core import HorizontalAggStrategy, HorizontalStrategy
from repro.datagen import load_transaction_line


@pytest.fixture(scope="module")
def bench_db():
    db = Database()
    load_transaction_line(db, 2_000)
    return db


SPEC = QuerySpec("tl region | dow", "transactionline", "salesamt",
                 totals=("regionid",), by=("dayofweekno",))


class TestWorkloadSpecs:
    def test_sigmod_has_eight_rows(self):
        assert len(SIGMOD_QUERIES) == 8

    def test_dmkd_has_eleven_shapes(self):
        assert len(DMKD_QUERIES) == 11

    def test_vpct_sql_shape(self):
        sql = SPEC.vpct_sql()
        assert "Vpct(salesamt BY dayofweekno)" in sql
        assert "GROUP BY regionid, dayofweekno" in sql

    def test_vpct_sql_global(self):
        spec = QuerySpec("x", "t", "m", totals=(), by=("d",))
        assert "Vpct(m)" in spec.vpct_sql()
        assert "GROUP BY d" in spec.vpct_sql()

    def test_hpct_sql_shape(self):
        sql = SPEC.hpct_sql()
        assert "Hpct(salesamt BY dayofweekno)" in sql
        assert "GROUP BY regionid" in sql

    def test_hagg_sql_no_group(self):
        spec = QuerySpec("x", "t", "m", totals=(), by=("d",))
        assert "GROUP BY" not in spec.hagg_sql()

    def test_every_spec_is_runnable(self, bench_db):
        result = run_hagg_experiment(bench_db, SPEC,
                                     HorizontalStrategy(source="F"), runs=1)
        assert result.result_rows == 4


class TestHarness:
    def test_vpct_experiment_fields(self, bench_db):
        result = run_vpct_experiment(bench_db, SPEC, runs=1)
        assert result.seconds > 0
        assert result.logical_io > 0
        assert result.statements > 0
        assert result.result_rows == 28
        assert result.strategy.startswith("vertical")

    def test_hpct_experiment(self, bench_db):
        result = run_hpct_experiment(bench_db, SPEC, name="hp", runs=1)
        assert result.strategy == "hp"
        assert result.result_columns == 8  # key + 7 days

    def test_spj_vs_case_logical_io_order(self, bench_db):
        spj = run_hagg_experiment(bench_db, SPEC,
                                  HorizontalAggStrategy(source="F"), runs=1)
        case = run_hagg_experiment(bench_db, SPEC,
                                   HorizontalStrategy(source="F"), runs=1)
        # The SPJ strategy scans F once per BY combination.
        assert spj.logical_io > 3 * case.logical_io

    def test_olap_experiment(self, bench_db):
        result = run_olap_experiment(bench_db, SPEC, runs=1)
        assert result.result_rows == 28
        assert result.strategy == "OLAP extensions"

    def test_update_strategy_has_more_logical_io(self, bench_db):
        from repro.core import VerticalStrategy
        insert = run_vpct_experiment(bench_db, SPEC,
                                     VerticalStrategy(), runs=1)
        update = run_vpct_experiment(bench_db, SPEC,
                                     VerticalStrategy(use_update=True), runs=1)
        assert update.logical_io > insert.logical_io


class TestReport:
    @pytest.fixture
    def results(self, bench_db):
        return [
            run_vpct_experiment(bench_db, SPEC, name="best", runs=1),
            run_hpct_experiment(bench_db, SPEC, name="hpct", runs=1),
        ]

    def test_markdown_names_strategies_and_queries(self, results):
        text = format_markdown("My table", results)
        assert "| query | best | hpct |" in text
        assert text.splitlines()[-1].startswith(
            "| " + SPEC.label.replace("|", "\\|") + " | ")

    def test_format_markdown(self, results):
        text = format_markdown("My table", results)
        assert text.startswith("### My table")
        assert text.count("|") > 6

    def test_metric_selection(self, results):
        text = format_markdown("io", results, value="logical_io")
        cells = text.splitlines()[-1].strip("| ").split(" | ")
        assert all(cell.isdigit() for cell in cells[1:])

    def test_missing_cells_dashed(self, bench_db, results):
        other = QuerySpec("other", "transactionline", "salesamt",
                          totals=(), by=("regionid",))
        results.append(run_vpct_experiment(bench_db, other,
                                           name="best", runs=1))
        text = format_markdown("t", results)
        assert text.splitlines()[-1].endswith(" | - |")



class TestMeasure:
    def test_median_of_timed_runs_after_one_untimed(self, bench_db):
        calls = []

        def run():
            calls.append(None)
            return bench_db.execute(
                "SELECT regionid, sum(salesamt) FROM transactionline "
                "GROUP BY regionid")

        result = measure(bench_db, "x", "y", run, runs=2)
        assert len(calls) == 3
        assert result.runs == 2 and result.spread >= 0
        assert result.logical_io > 0 and result.result_rows == 4

    def test_runs_booking_different_io_are_refused(self, bench_db):
        tables = iter(["transactionline", "transactionline",
                       "(SELECT regionid FROM transactionline "
                       "WHERE regionid = 1) one"])

        def run():
            return bench_db.execute(f"SELECT count(*) FROM {next(tables)}")

        with pytest.raises(RuntimeError, match="different logical I/O"):
            measure(bench_db, "x", "y", run, runs=2)
