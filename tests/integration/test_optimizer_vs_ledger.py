"""The optimizer against the ledger: the papers' own experiment as a
regression test.

Every row of SIGMOD Tables 4 and 5 and DMKD Table 3 runs under every
strategy its table compares; the strategy ``choose_vertical_strategy``
/ ``choose_horizontal_strategy`` picks must have the lowest logical I/O
(a tie counts as agreement).  Where it does not, the row is pinned in
:data:`DISAGREEMENTS` with both numbers, so a ledger change that moves
either side shows up here.
"""

import pytest

from repro import Database
from repro.bench.harness import (run_hagg_experiment,
                                 run_hpct_experiment,
                                 run_vpct_experiment)
from repro.bench.workloads import DMKD_QUERIES, SIGMOD_QUERIES, QuerySpec
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.core.model import parse_percentage_query
from repro.core.optimizer import (choose_horizontal_strategy,
                                  choose_vertical_strategy)
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)

#: Rows per fact table.  A quarter of the sales scale
#: test_reproduction_shapes.py uses: Table 5's dept,store row is a
#: transpose to one column per (dept, store) pair that occurs (3,953
#: here), and at 20,000 rows it alone ran over 20 s.
N = 5_000

#: table -> (rows, {column: strategy}, runner, query form, chooser)
TABLES = {
    "Table 4": (
        SIGMOD_QUERIES,
        {"(1) best": VerticalStrategy(),
         "(2) mismatched idx": VerticalStrategy(matching_indexes=False),
         "(3) update": VerticalStrategy(use_update=True),
         "(4) Fj from F": VerticalStrategy(fj_from_fk=False)},
        run_vpct_experiment, QuerySpec.vpct_sql, choose_vertical_strategy),
    "Table 5": (
        SIGMOD_QUERIES,
        {"from F": HorizontalStrategy(source="F"),
         "from FV": HorizontalStrategy(source="FV")},
        run_hpct_experiment, QuerySpec.hpct_sql,
        choose_horizontal_strategy),
    "DMKD Table 3": (
        DMKD_QUERIES,
        {"SPJ from F": HorizontalAggStrategy(source="F"),
         "SPJ from FV": HorizontalAggStrategy(source="FV"),
         "CASE from F": HorizontalStrategy(source="F"),
         "CASE from FV": HorizontalStrategy(source="FV")},
        run_hagg_experiment, QuerySpec.hagg_sql,
        choose_horizontal_strategy),
}

#: Rows where the pick is not the ledger's winner, as (pick, its
#: logical I/O, winner, its logical I/O).  All three are the paper's
#: selectivity rule choosing FV for a BY column of more than 50 values:
#: the rule is about the CASE fan-out (N WHEN tests per row of F versus
#: per row of FV), which ``case_evaluations`` carries and logical I/O,
#: by design, does not -- from FV always scans F once *and* writes and
#: reads FV.
DISAGREEMENTS = {
    ("Table 5", "sales dept | dweek,monthNo"):
        ("from FV", 29_226, "from F", 10_168),
    ("Table 5", "sales dept,store | dweek,monthNo"):
        ("from FV", 40_438, "from F", 15_336),
    ("DMKD Table 3", "transactionLine subdeptId"):
        ("CASE from FV", 10_202, "CASE from F", 10_002),
}

CELLS = [(table, spec) for table, (specs, *_) in TABLES.items()
         for spec in specs]


@pytest.fixture(scope="module")
def db():
    database = Database()
    for load in (load_employee, load_sales, load_census,
                 load_transaction_line):
        load(database, N)
    return database


@pytest.mark.parametrize("table, spec", CELLS,
                         ids=[f"{t}: {s.label}" for t, s in CELLS])
def test_optimizer_picks_the_ledger_winner(db, table, spec):
    _, columns, run, query_form, choose = TABLES[table]
    pick = choose(db, parse_percentage_query(query_form(spec)))
    picked = next(name for name, strategy in columns.items()
                  if strategy == pick)
    io = {name: run(db, spec, strategy).logical_io
          for name, strategy in columns.items()}
    winner = min(io, key=io.get)
    if (table, spec.label) in DISAGREEMENTS:
        assert (picked, io[picked], winner, io[winner]) \
            == DISAGREEMENTS[table, spec.label]
    else:
        assert io[picked] == io[winner], (picked, io)
    if table == "Table 4":
        # CREATE INDEX is a catalog entry (DESIGN.md section 2), so
        # columns (1) and (2) differ by two catalog entries only.
        assert io["(1) best"] == io["(2) mismatched idx"]


def test_every_disagreement_is_a_row():
    assert set(DISAGREEMENTS) <= {(t, s.label) for t, s in CELLS}
