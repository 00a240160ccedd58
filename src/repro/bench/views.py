"""Materialized-view benchmark (``repro.bench --suite views``).

Two acceptance bars, both on the paper's sales fact table under its
Table 4 ``dept | dweek,monthNo`` Vpct shape:

* **Delta vs full maintenance**: an UPDATE touching a 1% slice of the
  fact table (one ``dept`` -- 1% of rows *and* 1% of groups, the
  localized-write scenario incremental maintenance exists for) must be
  absorbed by delta maintenance at least **5x** faster than a full
  recompute of the same view (``REFRESH MATERIALIZED VIEW``).  Both
  sides are read from the engine's own
  ``view_maintenance_seconds{view,mode}`` gauge, so the comparison
  measures exactly the maintenance work and neither side carries the
  DML or serving cost of its statement.
* **View reads vs cold evaluation**: answering the defining query from
  the fresh view must be at least **10x** faster than evaluating the
  Vpct from scratch through the vertical strategy.

The report also records the oracle that makes the speed claims safe to
trust: after all the maintained DML, the view-served rows are compared
bitwise against a from-scratch recompute with the rewrite disabled
(the same comparator the views fuzz sweep uses).
"""

from __future__ import annotations

import time

from repro.api.database import Database
from repro.bench.workloads import QuerySpec
from repro.core.execute import run_percentage_query
from repro.core.vertical import VerticalStrategy

#: SIGMOD Table 4 row 7 -- a Vpct whose grouping (dweek x monthNo x
#: dept = 8,400 candidate groups) is wide enough that a localized
#: update leaves the overwhelming majority of groups untouched.
SPEC = QuerySpec("sales dept | dweek,monthNo", "sales", "salesamt",
                 totals=("dweek", "monthno"), by=("dept",))

VIEW_NAME = "v_bench"

#: The 1%-rate update: one dept out of 100 uniformly distributed, so
#: exactly ~1% of rows and 1% of the view's groups are touched.
UPDATE_DML = "UPDATE sales SET salesamt = salesamt + 1 WHERE dept = 1"


def _maintenance_seconds(db: Database, mode: str) -> float:
    """The last maintenance elapsed the executor observed, from the
    ``view_maintenance_seconds`` gauge it publishes per refresh."""
    return db.stats.registry.gauge(
        "view_maintenance_seconds",
        help="seconds spent in the last materialized-view refresh",
        view=VIEW_NAME, mode=mode).value


def _cold_read(db: Database, sql: str) -> float:
    started = time.perf_counter()
    run_percentage_query(db, sql, strategy=VerticalStrategy(),
                         use_views=False)
    return time.perf_counter() - started


def _view_read(db: Database, sql: str) -> float:
    started = time.perf_counter()
    db.execute(sql)
    return time.perf_counter() - started


def run_views_benchmark(sales_n: int = 200_000,
                        repeats: int = 3) -> dict:
    from repro.datagen import load_sales
    from repro.fuzz.comparator import table_diff

    db = Database()
    load_sales(db, sales_n)
    sql = SPEC.vpct_sql()

    # Cold side first, before any view exists to shortcut it.
    cold_runs = [_cold_read(db, sql) for _ in range(repeats)]

    started = time.perf_counter()
    db.execute(f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS {sql}")
    build_seconds = time.perf_counter() - started

    view_runs = [_view_read(db, sql) for _ in range(repeats)]

    # Maintenance A/B at the 1% update rate.  Each round: one
    # localized UPDATE (absorbed by delta maintenance as part of the
    # DML) and one forced full recompute; both elapsed times come from
    # the engine's own per-mode gauge.
    rows_updated = db.execute(UPDATE_DML)
    delta_runs = [_maintenance_seconds(db, "delta")]
    full_runs = []
    for _ in range(repeats):
        db.execute(f"REFRESH MATERIALIZED VIEW {VIEW_NAME}")
        full_runs.append(_maintenance_seconds(db, "full"))
        db.execute(UPDATE_DML)
        delta_runs.append(_maintenance_seconds(db, "delta"))

    # The oracle behind the speedups: after all that DML the served
    # rows must still equal a from-scratch recompute bitwise.
    served = db.execute(sql)
    expected = run_percentage_query(db, sql,
                                    strategy=VerticalStrategy(),
                                    use_views=False)
    divergence = table_diff(expected, served)

    cold = min(cold_runs)
    view = min(view_runs)
    delta = min(delta_runs)
    full = min(full_runs)
    read_speedup = cold / view if view else None
    delta_speedup = full / delta if delta else None
    n_groups = db.execute(f"SELECT * FROM {VIEW_NAME}").n_rows
    return {
        "workload": sql,
        "scales": {"sales_n": sales_n},
        "view": {"name": VIEW_NAME, "groups": n_groups,
                 "build_seconds": round(build_seconds, 6)},
        "update": {"dml": UPDATE_DML, "rows_updated": rows_updated,
                   "row_fraction": round(rows_updated / sales_n, 4)},
        "cold_read_runs": [round(s, 6) for s in cold_runs],
        "view_read_runs": [round(s, 6) for s in view_runs],
        "delta_maintenance_runs": [round(s, 6) for s in delta_runs],
        "full_refresh_runs": [round(s, 6) for s in full_runs],
        "summary": {
            "cold_read_seconds": round(cold, 6),
            "view_read_seconds": round(view, 6),
            "view_read_speedup_over_cold":
                round(read_speedup, 2) if read_speedup else None,
            "view_read_speedup_at_least_10x":
                read_speedup is not None and read_speedup >= 10.0,
            "delta_seconds": round(delta, 6),
            "full_seconds": round(full, 6),
            "delta_speedup_over_full":
                round(delta_speedup, 2) if delta_speedup else None,
            "delta_speedup_at_least_5x":
                delta_speedup is not None and delta_speedup >= 5.0,
            "view_bit_identical": divergence is None,
        },
    }
