"""Parallel group-by parity, one suite for every backend: serial,
thread and process run the *same* group-aligned morsels
(repro.engine.morsels), so each case here is parametrised over all
three and must be bit-identical to a plain serial database --
including the dtype edge cases the differential fuzzer originally
caught.  ``morsel_rows=2`` makes even these tiny tables split."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.database import Database
from repro.engine import shm
from repro.engine.aggregates import compute_aggregate, count_star
from repro.engine.column import ColumnData
from repro.engine.morsels import run_grouped_aggregates
from repro.engine.types import SQLType
from repro.obs.tracer import validate_span_tree

BACKENDS = ["serial", "thread", "process"]
PARALLEL_BACKENDS = ["thread", "process"]

SETUP = """
    CREATE TABLE t (d INT, c VARCHAR, a REAL, b INT);
    INSERT INTO t VALUES (1, 'x', 10.0, 3), (1, 'y', 30.0, NULL),
                         (2, 'x', 60.0, 1), (2, 'y', 0.25, 4),
                         (3, NULL, NULL, 2), (3, 'x', 5.5, NULL),
                         (4, 'z', -1.5, 7), (4, 'x', 2.25, 0)
"""

QUERIES = [
    "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d",
    "SELECT d, avg(a), count(*) FROM t GROUP BY d ORDER BY d",
    "SELECT d, min(a), max(b) FROM t GROUP BY d ORDER BY d",
    "SELECT d, min(c), max(c) FROM t GROUP BY d ORDER BY d",
    "SELECT d, count(a), count(b) FROM t GROUP BY d ORDER BY d",
    "SELECT d, count(DISTINCT c) FROM t GROUP BY d ORDER BY d",
    "SELECT d, var(a), stdev(a) FROM t GROUP BY d ORDER BY d",
    "SELECT d, c, sum(b) FROM t GROUP BY d, c ORDER BY d, c",
    "SELECT c, sum(a) FROM t GROUP BY c ORDER BY c",
    "SELECT d FROM t GROUP BY d ORDER BY d",
]


def backend_db(backend: str, setup: str = SETUP, **extra) -> Database:
    kwargs = dict(parallel_workers=4, parallel_backend=backend,
                  morsel_rows=2)
    kwargs.update(extra)
    db = Database(**kwargs)
    db.execute_script(setup)
    return db


def serial_db(setup: str = SETUP) -> Database:
    db = Database()
    db.execute_script(setup)
    return db


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_serial(self, backend, sql):
        assert backend_db(backend).query(sql) == serial_db().query(sql)

    def test_empty_table(self, backend):
        setup = "CREATE TABLE e (d INT, a REAL)"
        sql = "SELECT d, sum(a) FROM e GROUP BY d"
        assert backend_db(backend, setup).query(sql) \
            == serial_db(setup).query(sql) == []

    def test_vpct_plan_matches_serial(self, backend):
        from repro.core.execute import run_resilient
        sql = "SELECT d, Vpct(a) FROM t GROUP BY d"
        rows = [run_resilient(db, sql).result.to_rows()
                for db in (serial_db(), backend_db(backend))]
        assert rows[0] == rows[1]

    def test_more_workers_than_groups(self, backend):
        db = backend_db(backend, parallel_workers=64)
        assert db.query(
            "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d") == [
            (1, 40.0), (2, 60.25), (3, 5.5), (4, 0.75)]

    def test_no_segments_survive_queries(self, backend):
        db = backend_db(backend)
        for sql in QUERIES:
            db.query(sql)
        assert shm.live_segment_names() == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestDtypeRegressions:
    """The np.bincount dtype trap: an empty (or all-NULL) morsel's
    partial aggregate comes back int64 regardless of the weights
    dtype.  The merge buffer must therefore come from the result SQL
    type, never from a partial's array."""

    def test_real_sum_with_all_null_morsel(self, backend):
        # Group 2 is a morsel of its own holding only NULLs: its
        # valid-mask is empty, so its partial bincount is int64.  A
        # merge buffer typed from it would truncate 0.25 away.
        db = backend_db(backend, """
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 10.0), (1, 0.25),
                                 (2, NULL), (2, NULL),
                                 (3, 1.5), (3, 2.5)
        """, parallel_workers=2)
        assert db.query(
            "SELECT d, sum(a) FROM r GROUP BY d ORDER BY d") == [
            (1, 10.25), (2, None), (3, 4.0)]

    def test_one_dominant_group_does_not_split(self, backend):
        # A single group is a single morsel: nothing to fan out, and
        # the inline result keeps its fraction.
        db = backend_db(backend, """
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 10.0), (1, 0.25), (1, 0.5)
        """, parallel_workers=2)
        assert db.query("SELECT d, sum(a) FROM r GROUP BY d") == [
            (1, 10.75)]
        assert db.executor.scopes.last.parallel_degree == 1

    def test_sum_preserves_float_dtype(self, backend):
        db = backend_db(backend, """
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 0.5), (1, 0.5), (2, 1.0), (2, 1.0)
        """, parallel_workers=2)
        rows = db.query("SELECT d, sum(a) FROM r GROUP BY d ORDER BY d")
        assert rows == [(1, 1.0), (2, 2.0)]
        assert all(isinstance(row[1], float) for row in rows)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRunGroupedAggregates:
    """The batch entry point itself, without an executor around it."""

    def test_mixed_eligible_and_inline_items(self, backend):
        rng = np.random.default_rng(5)
        n_rows, n_groups = 400, 9
        group_ids = rng.integers(0, n_groups, size=n_rows)
        group_ids[:n_groups] = np.arange(n_groups)
        group_ids = group_ids.astype(np.int64)
        reals = ColumnData(SQLType.REAL,
                           rng.normal(size=n_rows),
                           rng.random(n_rows) < 0.2)
        words = ColumnData.from_values(
            SQLType.VARCHAR,
            [None if i % 7 == 0 else f"w{i % 5}"
             for i in range(n_rows)])
        items = [("s", "sum", reals, False),
                 ("m", "min", words, False),     # VARCHAR -> inline
                 ("c", "count", None, False),
                 ("d", "count", words, True)]    # DISTINCT -> codes
        degrees: list[int] = []
        out = run_grouped_aggregates(
            iter(items), group_ids, n_groups, backend=backend,
            workers=4, morsel_rows=32, on_parallel=degrees.append)
        assert list(out) == ["s", "m", "c", "d"]
        assert bool(degrees) == (backend != "serial")
        serial = {
            "s": compute_aggregate("sum", reals, False, group_ids,
                                   n_groups),
            "m": compute_aggregate("min", words, False, group_ids,
                                   n_groups),
            "c": count_star(group_ids, n_groups),
            "d": compute_aggregate("count", words, True, group_ids,
                                   n_groups),
        }
        for key, expected in serial.items():
            assert out[key].sql_type == expected.sql_type
            assert out[key].values.dtype == expected.values.dtype
            assert np.array_equal(out[key].values, expected.values)
            assert np.array_equal(out[key].nulls, expected.nulls)
        assert shm.live_segment_names() == []

    def test_small_input_runs_inline(self, backend):
        group_ids = np.array([0, 1, 0], dtype=np.int64)
        arg = ColumnData.from_values(SQLType.REAL, [1.0, 2.0, 3.0])
        degrees: list[int] = []
        out = run_grouped_aggregates(
            [("s", "sum", arg, False)], group_ids, 2, backend=backend,
            workers=4, morsel_rows=8192, on_parallel=degrees.append)
        assert out["s"].values.tolist() == [4.0, 2.0]
        assert degrees == []
        assert shm.live_segment_names() == []

    def test_one_worker_never_fans_out(self, backend):
        group_ids = np.arange(8, dtype=np.int64)
        arg = ColumnData.from_values(SQLType.REAL,
                                     [float(i) for i in range(8)])
        degrees: list[int] = []
        out = run_grouped_aggregates(
            [("s", "sum", arg, False)], group_ids, 8, backend=backend,
            workers=1, morsel_rows=2, on_parallel=degrees.append)
        assert out["s"].values.tolist() == [float(i) for i in range(8)]
        assert degrees == []


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
class TestObservability:
    def test_fan_out_is_observed_and_counted_per_backend(self, backend):
        db = backend_db(backend)
        db.query("SELECT d, sum(a), count(*) FROM t GROUP BY d")
        assert db.executor.scopes.last.parallel_degree > 1
        samples = db.stats.registry.samples()
        assert any(k.startswith("engine_parallel_tasks_total")
                   and f'backend="{backend}"' in k and v > 0
                   for k, v in samples.items())

    def test_explain_shows_backend_and_morsels(self, backend):
        db = backend_db(backend)
        lines = [row[0] for row in db.query(
            "EXPLAIN SELECT d, sum(a) FROM t GROUP BY d")]
        parallel_line = (f"parallel: degree=4 backend={backend} "
                         f"(morsel rows 2)")
        assert parallel_line in lines
        governor_at = next(i for i, l in enumerate(lines)
                           if l.startswith("governor:"))
        assert lines.index(parallel_line) < governor_at

    def test_morsel_spans_in_trace(self, backend):
        db = backend_db(backend, tracing=True)
        db.tracer.reset()
        db.query("SELECT d, sum(a) FROM t GROUP BY d")
        (root,) = db.tracer.roots()
        validate_span_tree(root)
        (dispatch,) = root.find(name="morsel-dispatch")
        assert dispatch.attrs["backend"] == backend
        assert dispatch.attrs["workers"] > 1
        morsels = dispatch.children
        assert len(morsels) == dispatch.attrs["morsels"] == 4
        assert all(s.name == "morsel" and s.kind == "parallel"
                   for s in morsels)
        assert sum(s.attrs["rows"] for s in morsels) == 8
        assert sum(s.attrs["groups"] for s in morsels) == 4


class TestExplainSerial:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"parallel_workers": 4, "parallel_backend": "serial"},
        {"parallel_workers": 1, "parallel_backend": "process"},
    ], ids=["default", "serial-backend", "one-worker"])
    def test_no_parallel_line(self, kwargs):
        db = Database(**kwargs)
        db.execute_script(SETUP)
        lines = [row[0] for row in db.query(
            "EXPLAIN SELECT d, sum(a) FROM t GROUP BY d")]
        assert not [l for l in lines if l.startswith("parallel:")]
