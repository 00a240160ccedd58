"""E1-E7: the columns' encoding memos must be invisible.

Each scenario runs twice on identically seeded databases: once as the
engine runs it, once with sealing patched out here, so no column gets
a memo and every encoding is computed afresh -- the oracle a
production switch used to provide.  Results and the logical-I/O cost
model (rows scanned / written / updated, joins, CASE evaluations,
index lookups, per-statement logical I/O) must be **bit-identical**:
a memo saves wall-clock work only, never logical work.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, run_percentage_query)
from repro.core.shared import run_percentage_batch
from repro.datagen import load_transaction_line
from repro.engine.table import Table

ROWS = 2_000
SEED = 1234

#: Counter fields that must be identical with and without memos.  The
#: encode_cache_* counters are deliberately excluded: they are the one
#: thing that is *supposed* to differ.
NEUTRAL_FIELDS = ("rows_scanned", "rows_written", "rows_updated",
                  "rows_joined", "case_evaluations", "index_lookups",
                  "statements")


def fresh_db() -> Database:
    db = Database(keep_history=True)
    load_transaction_line(db, ROWS, seed=SEED)
    return db


def run_unsealed(monkeypatch, scenario) -> tuple[Database, list]:
    """``scenario`` on a fresh database whose tables are never sealed:
    no column has a memo, so nothing reads one."""
    with monkeypatch.context() as patch:
        patch.setattr(Table, "seal", lambda table: None)
        db = fresh_db()
        return db, scenario(db)


def scenario_e1_vpct_simple(db: Database) -> list:
    """E1: one-dimensional vertical percentage (paper Section 3.1)."""
    sql = ("SELECT regionid, Vpct(salesamt) FROM transactionline "
           "GROUP BY regionid")
    return [run_percentage_query(db, sql).to_rows(),
            run_percentage_query(db, sql).to_rows()]  # warm repeat


def scenario_e2_vpct_multi(db: Database) -> list:
    sql = ("SELECT regionid, dayofweekno, "
           "Vpct(salesamt BY dayofweekno) FROM transactionline "
           "GROUP BY regionid, dayofweekno")
    return [run_percentage_query(db, sql,
                                 VerticalStrategy()).to_rows(),
            run_percentage_query(
                db, sql, VerticalStrategy(use_update=True)).to_rows()]


def scenario_e3_hpct(db: Database) -> list:
    sql = ("SELECT regionid, Hpct(salesamt BY dayofweekno) "
           "FROM transactionline GROUP BY regionid")
    return [run_percentage_query(db, sql,
                                 HorizontalStrategy()).to_rows(),
            run_percentage_query(db, sql,
                                 HorizontalStrategy()).to_rows()]


def scenario_e4_hagg_and_join(db: Database) -> list:
    out = [run_percentage_query(
        db, "SELECT regionid, sum(salesamt BY dayofweekno) "
            "FROM transactionline GROUP BY regionid",
        HorizontalAggStrategy()).to_rows()]
    db.execute("CREATE TABLE dims AS SELECT DISTINCT regionid, "
               "dayofweekno FROM transactionline")
    out.append(db.query(
        "SELECT d.regionid, count(*) FROM dims d, transactionline t "
        "WHERE d.regionid = t.regionid "
        "AND d.dayofweekno = t.dayofweekno "
        "GROUP BY d.regionid"))
    db.execute("DROP TABLE dims")
    return out


def scenario_e5_window(db: Database) -> list:
    sql = ("SELECT regionid, salesamt / sum(salesamt) "
           "OVER (PARTITION BY regionid) FROM transactionline")
    return [sorted(db.query(sql)), sorted(db.query(sql))]


def scenario_e6_dml_sequence(db: Database) -> list:
    out = [db.query("SELECT regionid, sum(salesamt) "
                    "FROM transactionline GROUP BY regionid")]
    db.execute("INSERT INTO transactionline SELECT * "
               "FROM transactionline WHERE regionid = 1")
    out.append(db.query("SELECT regionid, count(*) "
                        "FROM transactionline GROUP BY regionid"))
    db.execute("UPDATE transactionline SET salesamt = salesamt + 1 "
               "WHERE regionid = 2")
    out.append(db.query("SELECT regionid, sum(salesamt) "
                        "FROM transactionline GROUP BY regionid"))
    db.execute("DELETE FROM transactionline WHERE regionid = 1")
    out.append(db.query("SELECT regionid, count(*) "
                        "FROM transactionline GROUP BY regionid"))
    return out


def scenario_e7_shared_batch(db: Database) -> list:
    report = run_percentage_batch(db, [
        "SELECT regionid, Vpct(salesamt) FROM transactionline "
        "GROUP BY regionid",
        "SELECT regionid, Vpct(itemqty) FROM transactionline "
        "GROUP BY regionid",
    ])
    return [result.to_rows() for result in report.results] + \
        [[("shared", report.shared_groups,
           report.fallback_queries)]]


SCENARIOS = [
    ("E1", scenario_e1_vpct_simple),
    ("E2", scenario_e2_vpct_multi),
    ("E3", scenario_e3_hpct),
    ("E4", scenario_e4_hagg_and_join),
    ("E5", scenario_e5_window),
    ("E6", scenario_e6_dml_sequence),
    ("E7", scenario_e7_shared_batch),
]


@pytest.mark.parametrize("name,scenario", SCENARIOS,
                         ids=[n for n, _ in SCENARIOS])
def test_results_and_logical_io_identical(name, scenario, monkeypatch):
    memo_db = fresh_db()
    memo_results = scenario(memo_db)
    bare_db, bare_results = run_unsealed(monkeypatch, scenario)

    # repr() spells every float exactly, so equal text is equal bits.
    assert repr(memo_results) == repr(bare_results), \
        f"{name}: results differ with and without memos"

    for field in NEUTRAL_FIELDS:
        assert getattr(memo_db.stats, field) \
            == getattr(bare_db.stats, field), \
            f"{name}: {field} differs with and without memos"

    memo_io = [s.logical_io() for s in memo_db.stats.history]
    bare_io = [s.logical_io() for s in bare_db.stats.history]
    assert memo_io == bare_io, \
        f"{name}: per-statement logical I/O differs"

    # Without memos nothing is read; with them, every read is charged
    # (logical neutrality is enforced above).
    assert (bare_db.stats.encode_cache_hits,
            bare_db.stats.encode_cache_misses) == (0, 0)
    assert memo_db.stats.encode_cache_misses > 0


def test_warm_repeat_actually_hits():
    """Guards against the neutrality suite passing vacuously because
    nothing ever read a memo."""
    db = fresh_db()
    scenario_e1_vpct_simple(db)
    assert db.stats.encode_cache_hits > 0
