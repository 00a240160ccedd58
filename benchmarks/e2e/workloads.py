"""The five workloads: what each loads, the ops of one cycle, and the
correctness checks that run in set-up and at the end of the run.

Every input is generated from ``--seed``: the table contents through
the ``repro.datagen.load_*`` seeds, ``mixed_rw``'s insert slice and
update key through a generator seeded per cycle.  Why each workload
exists is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.api.database import Database
from repro.bench.workloads import (DMKD_QUERIES, SIGMOD_QUERIES,
                                   QuerySpec)
from repro.core.execute import run_percentage_query
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)
from repro.engine.table import Table
from repro.olap.windowgen import generate_olap_percentage_query
from repro.service import QueryService

from .pipeline import Op, StagedDatabase, digest_of
from .spans import Recorder

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Relative tolerance of the numeric oracles (Vpct against the OLAP
#: rendition, percentages against 1).
RTOL = 1e-9

WIDE_SQL = ("SELECT dweek, Hpct(salesamt BY dept, monthno) FROM sales "
            "GROUP BY dweek")

VIEW_NAME = "v_e2e"
VIEW_SPEC = SIGMOD_QUERIES[6]      # sales dept | dweek,monthNo
SMALL_SPEC = SIGMOD_QUERIES[5]     # sales monthNo | dweek
CUBE_SQL = ("SELECT dweek, monthno, sum(salesamt) FROM sales "
            "GROUP BY CUBE(dweek, monthno)")
INSERT_ROWS = 100
SALES_COLUMNS = ("itemid, dweek, monthno, store, city, state, dept, "
                 "salesamt")


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label).strip("_")


@dataclass
class Tally:
    """Ops and correctness checks attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass
class Context:
    """One set-up of one workload: the live database and what the run
    learns about it."""

    db: Database
    seed: int
    rows: dict[str, int]
    tally: Tally
    load_seconds: float = 0.0
    #: The host's slowness right after set-up (see reference.py).
    host_factor: float = 1.0
    #: op name -> (shape, digest) of the warm-up cycle's result.
    expected: dict[str, tuple] = field(default_factory=dict)
    # mixed_rw only
    service: Optional[QueryService] = None
    session: Any = None
    store_dir: Optional[str] = None
    view_build_seconds: float = 0.0
    reopen_seconds: float = 0.0
    #: Rows the run's successful inserts added to sales.
    rows_added: int = 0



# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _arrays(table: Table, names) -> list[np.ndarray]:
    return [np.asarray(table.column(n).values) for n in names]


def _sorted_by(table: Table, dims) -> np.ndarray:
    keys = _arrays(table, dims)
    return np.lexsort(keys[::-1]) if keys else np.arange(table.n_rows)


def check_vpct_against_olap(ctx: Context, spec: QuerySpec) -> None:
    """Table 6 as oracle: the generated Vpct plan and the one-statement
    window rendition give the same percentages."""
    vpct = run_percentage_query(ctx.db, spec.vpct_sql())
    olap = ctx.db.execute(generate_olap_percentage_query(spec.vpct_sql()))
    dims = list(spec.group_by_all)
    same = vpct.n_rows == olap.n_rows
    if same:
        left, right = _sorted_by(vpct, dims), _sorted_by(olap, dims)
        pct_l = np.asarray(vpct.column(vpct.column_names()[-1]).values)
        pct_r = np.asarray(olap.column(olap.column_names()[-1]).values)
        same = all(np.array_equal(a[left], b[right]) for a, b in
                   zip(_arrays(vpct, dims), _arrays(olap, dims))) \
            and np.allclose(pct_l[left], pct_r[right], rtol=RTOL, atol=0)
    ctx.tally.check(
        same, f"Vpct differs from its OLAP rendition: {spec.label}")
    check_vpct_sums(ctx, spec, vpct)


def check_vpct_sums(ctx: Context, spec: QuerySpec, vpct: Table) -> None:
    """Vpct adds up to the whole within each totals group."""
    pct = np.asarray(vpct.column(vpct.column_names()[-1]).values)
    if spec.totals:
        keys = np.stack(_arrays(vpct, spec.totals), axis=1)
        _, group = np.unique(keys, axis=0, return_inverse=True)
        sums = np.bincount(group.ravel(), weights=pct)
    else:
        sums = np.array([pct.sum()])
    ctx.tally.check(bool(np.allclose(sums, 1.0, rtol=RTOL, atol=0)),
              f"Vpct does not sum to 1 per group: {spec.label}")


def check_row_sums(ctx: Context, table: Table, n_dims: int,
                   whole: Optional[float], label: str) -> None:
    """Every Hpct row adds up to 1; a horizontal ``sum(A BY ..)``
    adds up, over all its cells, to the table's total (``whole``)."""
    cells = np.stack(_arrays(table, table.column_names()[n_dims:]), axis=1)
    if whole is None:
        ok = np.allclose(cells.sum(axis=1), 1.0, rtol=RTOL, atol=0)
    else:
        ok = np.isclose(cells.sum(), whole, rtol=RTOL, atol=0)
    ctx.tally.check(bool(ok), f"horizontal cells do not add up: {label}")


def _measure_total(db: Database, spec: QuerySpec) -> float:
    return float(np.asarray(
        db.table(spec.table).column(spec.measure).values).sum())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (loader, table name, rows at scale 1), loaded in this order
    #: with seeds ``seed``, ``seed + 1``, ...
    tables: tuple
    build: Callable[..., Context]
    cycle: Callable[[Context, int], list[Op]]
    verify: Callable[[Context], None]
    finish: Callable[[Context], None] = lambda ctx: None
    #: Results repeat bit for bit from cycle to cycle (no writes).
    read_only: bool = True


def _load(db: Database, workload: Workload, seed: int,
          scale: float) -> tuple[dict[str, int], float]:
    rows = {}
    started = time.perf_counter()
    for offset, (loader, table, full) in enumerate(workload.tables):
        rows[table] = max(1000, int(full * scale))
        loader(db, rows[table], seed=seed + offset)
    return rows, time.perf_counter() - started


def build_memory(workload: Workload, seed: int, scale: float, tally: Tally,
                 recorder: Optional[Recorder]) -> Context:
    db = StagedDatabase(recorder) if recorder is not None else Database()
    rows, seconds = _load(db, workload, seed, scale)
    return Context(db=db, seed=seed, rows=rows, tally=tally,
                   load_seconds=seconds)


def teardown(ctx: Context) -> None:
    """Release everything a set-up holds; safe after a failure."""
    try:
        if ctx.service is not None:
            ctx.service.shutdown()
        ctx.db.close()
    finally:
        if ctx.store_dir is not None:
            shutil.rmtree(ctx.store_dir, ignore_errors=True)


# -- vertical / olap_window --------------------------------------------
def _vertical_cycle(ctx: Context, cycle: int) -> list[Op]:
    return [Op("vpct." + _slug(s.label), "read", "pct", s.vpct_sql())
            for s in SIGMOD_QUERIES]


def _olap_cycle(ctx: Context, cycle: int) -> list[Op]:
    return [Op("olap." + _slug(s.label), "read", "olap", s.vpct_sql())
            for s in SIGMOD_QUERIES]


def _verify_vpct(ctx: Context) -> None:
    for spec in SIGMOD_QUERIES:
        check_vpct_against_olap(ctx, spec)


# -- horizontal ---------------------------------------------------------
_HPCT_SPECS = SIGMOD_QUERIES[:7]


def _horizontal_cycle(ctx: Context, cycle: int) -> list[Op]:
    return ([Op("hpct." + _slug(s.label), "read", "pct", s.hpct_sql())
             for s in _HPCT_SPECS]
            + [Op("hagg." + _slug(s.label), "read", "pct", s.hagg_sql())
               for s in DMKD_QUERIES])


def _verify_horizontal(ctx: Context) -> None:
    for spec in _HPCT_SPECS:
        table = run_percentage_query(ctx.db, spec.hpct_sql())
        check_row_sums(ctx, table, len(spec.totals), None, spec.label)
    for spec in DMKD_QUERIES:
        table = run_percentage_query(ctx.db, spec.hagg_sql())
        check_row_sums(ctx, table, len(spec.totals),
                       _measure_total(ctx.db, spec), spec.label)


# -- hpct_wide ----------------------------------------------------------
def _wide_cycle(ctx: Context, cycle: int) -> list[Op]:
    return [Op("hpct.wide", "read", "pct", WIDE_SQL)]


def _verify_wide(ctx: Context) -> None:
    table = run_percentage_query(ctx.db, WIDE_SQL)
    sales = ctx.db.table("sales")
    dept, month = _arrays(sales, ("dept", "monthno"))
    combos = len(np.unique(dept * 100 + month))
    full_scale = ctx.rows["sales"] >= 100_000
    ctx.tally.check(table.schema.width() == 1 + combos
              and (combos == 100 * 12 or not full_scale),
              f"hpct_wide has {table.schema.width()} columns, "
              f"expected 1 + {combos}")
    check_row_sums(ctx, table, 1, None, "hpct_wide")


# -- mixed_rw -----------------------------------------------------------
def build_mixed(workload: Workload, seed: int, scale: float, tally: Tally,
                recorder: Optional[Recorder]) -> Context:
    os.makedirs(OUT_DIR, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    ctx = None
    try:
        # Pool : working set stays about 1 : 3.5 at every scale.
        db = Database(storage="disk", storage_path=store_dir,
                      pool_pages=max(8, int(256 * scale)),
                      tracing=recorder is not None)
        ctx = Context(db=db, seed=seed, rows={}, tally=tally,
                      store_dir=store_dir)
        ctx.rows, ctx.load_seconds = _load(db, workload, seed, scale)
        db.checkpoint()
        started = time.perf_counter()
        db.execute(f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS "
                   f"{VIEW_SPEC.vpct_sql()}")
        ctx.view_build_seconds = time.perf_counter() - started
        ctx.service = QueryService(db, workers=2)
        ctx.session = ctx.service.create_session()
        return ctx
    except BaseException:
        if ctx is not None:
            teardown(ctx)
        else:
            shutil.rmtree(store_dir, ignore_errors=True)
        raise


def _mixed_cycle(ctx: Context, cycle: int) -> list[Op]:
    rng = np.random.default_rng([ctx.seed, cycle])
    n = ctx.rows["sales"]
    first = int(rng.integers(1, n - INSERT_ROWS + 1))
    dept = int(rng.integers(1, 101))
    # New keys sit above every key the table can hold already.
    shift = n * (cycle + 2)
    insert = (f"INSERT INTO sales SELECT transactionid + {shift}, "
              f"{SALES_COLUMNS} FROM sales WHERE transactionid >= {first} "
              f"AND transactionid < {first + INSERT_ROWS}")
    update = (f"UPDATE sales SET salesamt = salesamt + 1 "
              f"WHERE dept = {dept}")
    vpct, hpct = SMALL_SPEC.vpct_sql(), SMALL_SPEC.hpct_sql()
    return [
        Op("view_read", "read", "svc", VIEW_SPEC.vpct_sql()),
        Op("vpct_read", "read", "svc", vpct),
        Op("hpct_read", "read", "svc", hpct),
        Op("cube_read", "read", "svc", CUBE_SQL),
        Op("insert", "write", "svc", insert, adds=INSERT_ROWS),
        Op("vpct_read_cold", "read", "svc", vpct),
        Op("update", "write", "svc", update),
        Op("hpct_read_cold", "read", "svc", hpct),
        # Pages are reclaimed only at checkpoints: without one per
        # cycle the store grows and every write gets slower, so no
        # two cycles would measure the same thing.
        Op("checkpoint", "maint", "checkpoint", ""),
    ]


def _verify_mixed(ctx: Context) -> None:
    check_vpct_sums(ctx, VIEW_SPEC, ctx.db.execute(VIEW_SPEC.vpct_sql()))


def _count(db: Database) -> int:
    return int(db.execute("SELECT count(*) FROM sales").to_rows()[0][0])


def _finish_mixed(ctx: Context) -> None:
    """After the last write: the view is right, no write was lost, and
    what was acknowledged survives a restart."""
    db, sql = ctx.db, VIEW_SPEC.vpct_sql()
    served = digest_of(db.execute(sql))
    recomputed = digest_of(run_percentage_query(db, sql, use_views=False))
    ctx.tally.check(served == recomputed,
              "view-served rows differ from a use_views=False recompute")
    expected_rows = ctx.rows["sales"] + ctx.rows_added
    ctx.tally.check(_count(db) == expected_rows,
              f"sales has {_count(db)} rows, expected {expected_rows}")
    options = dict(storage="disk", storage_path=ctx.store_dir,
                   pool_pages=db.storage_engine.pool.capacity)
    ctx.service.shutdown()
    ctx.service = None
    started = time.perf_counter()
    db.close()
    ctx.db = Database(**options)
    ctx.reopen_seconds = time.perf_counter() - started
    ctx.tally.check(_count(ctx.db) == expected_rows,
              "row count changed across close and reopen")
    ctx.tally.check(digest_of(run_percentage_query(
        ctx.db, sql, use_views=False)) == recomputed,
        "Vpct digest changed across close and reopen")


_FACTS = ((load_employee, "employee", 100_000),
          (load_sales, "sales", 300_000))

WORKLOADS = {w.name: w for w in (
    Workload(
        "vertical",
        "Table 4 Vpct rows: engine group-by/join/INSERT do >=90% of the "
        "work, ~1 KB of SQL, no pivot; bypasses sql, pivot and storage",
        _FACTS, build_memory, _vertical_cycle, _verify_vpct),
    Workload(
        "horizontal",
        "Table 5 Hpct rows 1-7 plus DMKD Table 3 sum(A BY ..): pivot/CASE "
        "evaluation and codegen feedback queries dominate; census is skewed",
        _FACTS + ((load_transaction_line, "transactionline", 100_000),
                  (load_census, "uscensus", 50_000)),
        build_memory, _horizontal_cycle, _verify_horizontal),
    Workload(
        "hpct_wide",
        "one 1,201-column Hpct with 263 KB of generated SQL: the only "
        "workload where lexing and parsing are a first-order cost",
        ((load_sales, "sales", 100_000),),
        build_memory, _wide_cycle, _verify_wide),
    Workload(
        "olap_window",
        "Table 6 OLAP renditions: one statement, no codegen, window/sort "
        "in place of GROUP BY; shows a group-by gain paid for here",
        _FACTS, build_memory, _olap_cycle, _verify_vpct),
    Workload(
        "mixed_rw",
        "reads beside writes through the service on a disk store 3.5x its "
        "pool, with a maintained view: storage, views, service and DML work",
        ((load_sales, "sales", 50_000),),
        build_mixed, _mixed_cycle, _verify_mixed, _finish_mixed,
        read_only=False),
)}
