"""What only the process dispatcher has: shared-memory lifecycle under
injected faults and worker death, its metrics and worker-pid spans,
and the configuration knobs.  Bit-identity, EXPLAIN and the span shape
are backend-parametrised in test_parallel_groupby.py."""

from __future__ import annotations

import os

import pytest

from repro.api.database import Database
from repro.engine import faults, shm
from repro.engine.executor import ExecutorOptions
from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.procpool import ProcessPool
from repro.errors import TransientError, WorkerCrashError
from repro.service.session import SessionDefaults

from tests.engine.test_parallel_groupby import backend_db, serial_db


class TestFaultsAndDeath:
    def test_injected_fault_unlinks_segments(self):
        db = backend_db("process")
        injector = FaultInjector([FaultSpec("process-worker")])
        with faults.active(injector):
            with pytest.raises(TransientError):
                db.query("SELECT d, sum(a) FROM t GROUP BY d")
        assert injector.faults_raised == 1
        assert shm.live_segment_names() == []
        # The backend is fully usable again afterwards.
        assert db.query(
            "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d") == \
            serial_db().query(
                "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d")

    def test_worker_death_raises_and_pool_recovers(self):
        pool = ProcessPool(size=2)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run_batch(f"{__name__}:_die", [0])
            # _check_alive rebuilt the pool: the next batch succeeds.
            assert pool.run_batch(f"{__name__}:_echo",
                                  [1, 2, 3]) == [2, 3, 4]
        finally:
            pool.shutdown()
        assert shm.live_segment_names() == []

    def test_worker_task_error_propagates(self):
        pool = ProcessPool(size=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                pool.run_batch(f"{__name__}:_boom", [0])
            assert pool.run_batch(f"{__name__}:_echo", [5]) == [6]
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        """The atexit hook racing an explicit shutdown: the second
        call must find the closed pool and return without touching the
        already-closed queues or respawning workers."""
        pool = ProcessPool(size=2)
        assert pool.run_batch(f"{__name__}:_echo", [1]) == [2]
        pool.shutdown()
        assert pool._workers == []
        pool.shutdown()  # the atexit hook's call
        assert pool._workers == []

    def test_reset_on_closed_pool_does_not_restart(self):
        """A WorkerCrashError unwind racing teardown: _reset on a
        closed pool must tear down without rebuilding (restarting a
        pool nobody will use again leaks its worker processes)."""
        pool = ProcessPool(size=2)
        pool.shutdown()
        pool._reset()
        assert pool._workers == []

    def test_reset_while_finalizing_does_not_restart(self, monkeypatch):
        """During interpreter shutdown Process.start() raises, so a
        finalizing _reset (daemon worker reaped before our teardown)
        must not attempt a rebuild."""
        import sys

        pool = ProcessPool(size=2)
        try:
            monkeypatch.setattr(sys, "is_finalizing", lambda: True)
            pool._reset()
            assert pool._workers == []
        finally:
            monkeypatch.undo()
            pool.shutdown()


class TestObservability:
    def test_backend_metrics(self):
        db = backend_db("process")
        db.query("SELECT d, sum(a), count(*) FROM t GROUP BY d")
        samples = db.stats.registry.samples()
        tasks = [v for k, v in samples.items()
                 if k.startswith("engine_parallel_tasks_total")
                 and 'backend="process"' in k]
        assert tasks and tasks[0] > 0
        exported = [v for k, v in samples.items()
                    if k.startswith("engine_shm_bytes_exported")]
        assert exported and exported[0] > 0
        saturation = [v for k, v in samples.items()
                      if k.startswith("engine_worker_pool_saturation")]
        assert saturation and saturation[0] > 0

    def test_morsels_ran_in_worker_processes(self):
        db = backend_db("process", tracing=True)
        db.query("SELECT d, sum(a) FROM t GROUP BY d")
        dispatches = [s for root in db.tracer.roots()
                      for s in root.find(name="morsel-dispatch")]
        assert dispatches and dispatches[0].attrs["shm_bytes"] > 0
        morsels = dispatches[0].children
        assert morsels and all(s.attrs["worker_pid"] != os.getpid()
                               for s in morsels)


class TestConfiguration:
    def test_database_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            Database(parallel_backend="gpu")

    def test_database_rejects_bad_morsel_rows(self):
        with pytest.raises(ValueError, match="morsel_rows"):
            Database(morsel_rows=0)

    def test_configure_switches_backend(self):
        db = serial_db()
        db.configure(parallel_workers=4, parallel_backend="process",
                     morsel_rows=2)
        assert db.query(
            "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d") == \
            serial_db().query(
                "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d")
        assert db.executor.scopes.last.parallel_degree > 1

    def test_session_defaults_resolve(self):
        base = ExecutorOptions()
        resolved = SessionDefaults(parallel_backend="process",
                                   morsel_rows=16).resolve(base)
        assert resolved.parallel_backend == "process"
        assert resolved.morsel_rows == 16
        assert base.parallel_backend == "thread"
        untouched = SessionDefaults().resolve(base)
        assert untouched.parallel_backend == "thread"


# ----------------------------------------------------------------------
# Worker targets for the pool tests (resolved by name in forked
# children, which inherit this module via sys.modules).
# ----------------------------------------------------------------------
def _die(payload):  # pragma: no cover - runs in a worker process
    os._exit(1)


def _echo(payload):  # pragma: no cover - runs in a worker process
    return payload + 1


def _boom(payload):  # pragma: no cover - runs in a worker process
    raise ValueError("boom")
