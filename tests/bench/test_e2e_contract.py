"""What the frozen ``benchmarks/e2e`` uses of the program, pinned.

``BENCHMARK.json`` builds the benchmark from the checkout, so a PR
that renames something it imports, or a span it folds into a per-layer
metric, breaks it *after* review.  The full ``--selftest`` runs in CI;
this is the cheap part: the modules import, the constructor and
report surface ``workloads.py`` / ``pipeline.py`` call still exists
with those names, and every engine span ``layers._ENGINE_OPS`` reads is
still emitted by some golden trace.
"""

import importlib
import subprocess
from pathlib import Path

import pytest

from repro.engine.cancel import CancelToken

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "obs" / "golden"


def test_benchmark_modules_import():
    for name in ("pipeline", "workloads", "runner", "layers", "report"):
        importlib.import_module(f"benchmarks.e2e.{name}")


def test_program_surface_the_benchmark_reaches_for():
    from repro.api.database import Database
    from repro.bench import workloads
    from repro.bench.harness import report_header
    from repro.engine import shm

    assert callable(report_header) and callable(Database.execute)
    assert workloads
    # runner.py ends every run with ``not shm.live_segment_names()``;
    # the engine exports no shared memory, so the stub is empty.
    assert shm.live_segment_names() == ()


def test_report_header_names_the_commit_the_code_came_from(
        tmp_path, monkeypatch):
    """Not the shell's: reports are written from scratch directories
    and from inside other checkouts."""
    from repro.bench.harness import report_header

    repo = Path(__file__).resolve().parents[2]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("the tree is not a git checkout")
    monkeypatch.chdir(tmp_path)
    assert report_header("x")["git_rev"] == head.stdout.strip()


def test_database_surface_the_benchmark_constructs(tmp_path):
    """``workloads.build_mixed`` / ``_finish_mixed`` and
    ``pipeline.StagedDatabase``, call for call."""
    from repro.api.database import Database
    from repro.sql.parser import parse_statement

    class Staged(Database):
        def __init__(self, **options):
            super().__init__(tracing=True, **options)

        def execute(self, sql, **options):
            return self.execute_statement(parse_statement(sql), sql,
                                          **options)

    staged = Staged()
    staged.execute("CREATE TABLE t (a INT)")
    staged.execute("INSERT INTO t VALUES (1)")
    assert staged.execute("SELECT a FROM t", use_views=False,
                          deadline_seconds=60.0).to_rows() == [(1,)]
    assert staged.execute("SELECT a FROM t",
                          cancel_token=CancelToken()).n_rows == 1
    assert staged.tracer.roots()
    staged.tracer.reset()
    assert not staged.tracer.roots()

    # What ``StagedDatabase.execute`` folds after each statement: one
    # statement root carrying its SQL, operator spans directly below.
    sql = "SELECT a, count(*) FROM t GROUP BY a"
    staged.execute(sql)
    (root,) = staged.tracer.roots()
    assert root.kind == "statement" and root.attrs["sql"] == sql
    spans = [child for child in root.children if not child.is_event]
    assert spans and all(child.kind == "operator" for child in spans)

    assert Database().tracer.roots() == []
    store = str(tmp_path)
    with Database(storage="disk", storage_path=store, pool_pages=8,
                  tracing=False) as db:
        db.checkpoint()
        options = dict(storage="disk", storage_path=store,
                       pool_pages=db.storage_engine.pool.capacity)
    assert options["pool_pages"] == 8
    Database(**options).close()


def test_service_surface_the_benchmark_reads():
    """``QueryService(db, workers=2)`` and the ``ServiceReport``
    fields ``pipeline.run_op_staged`` folds into the op span."""
    from repro.api.database import Database
    from repro.service import QueryService

    db = Database(tracing=True)
    db.execute("CREATE TABLE t (a INT)")
    with QueryService(db, workers=2) as service:
        report = service.create_session().execute("SELECT a FROM t")
    assert report.result.n_rows == 0
    assert report.results == [report.result]
    assert report.trace.start >= 0.0
    assert report.queue_wait_seconds >= 0.0
    assert report.elapsed_seconds >= 0.0
    assert report.brownout is False
    # ``_engine_name`` / ``_replay_sql``: a script root over statement
    # spans that each carry the SQL the engine ran.
    assert report.trace.kind == "script"
    statements = report.trace.find(kind="statement")
    assert statements and all(s.attrs["sql"] for s in statements)


def test_plan_trace_the_benchmark_names():
    """``pipeline._engine_name`` maps ``plan`` and ``plan-step`` kinds
    to ``core.*`` and the statement below each step to its class."""
    from repro.api.database import Database
    from repro.core.execute import run_resilient

    db = Database(tracing=True)
    db.execute("CREATE TABLE t (g INT, a REAL)")
    db.execute("INSERT INTO t VALUES (1, 2.0), (2, 6.0)")
    trace = run_resilient(db, "SELECT g, Vpct(a) FROM t GROUP BY g").trace
    assert trace.kind == "plan" and trace in db.tracer.roots()
    steps = [child for child in trace.children if not child.is_event]
    assert steps and all(step.kind == "plan-step" for step in steps)
    for step in steps:
        (statement,) = [c for c in step.children if not c.is_event]
        assert statement.kind == "statement"
        assert statement.attrs["sql"] == step.attrs["sql"]


def test_every_folded_engine_span_is_in_some_golden():
    from benchmarks.e2e.layers import _ENGINE_OPS

    emitted = set()
    for path in GOLDEN_DIR.glob("*.txt"):
        for line in path.read_text().splitlines():
            tokens = line.split()
            # An operator span renders as "<name> <duration>ms ...".
            if len(tokens) > 1 and tokens[1].endswith("ms"):
                emitted.add(tokens[0])
    assert set(_ENGINE_OPS.values()) <= emitted
