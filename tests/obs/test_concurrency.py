"""Observability under concurrency.

* The metrics registry never drops increments under contention (the
  lost-update race its single lock exists to prevent).
* Concurrent traced sessions through the query service produce well
  formed trees per script and an accurate in-flight gauge afterwards.
"""

from __future__ import annotations

import threading

from repro.api.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import validate_span_tree
from repro.service import QueryService


class TestRegistryRaces:
    N_THREADS = 8
    N_INCREMENTS = 2000

    def test_counter_increments_never_lost(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(self.N_INCREMENTS):
                registry.counter("hits").inc()

        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("hits") == \
            self.N_THREADS * self.N_INCREMENTS

    def test_histogram_observations_never_lost(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.5,))

        def work():
            for i in range(self.N_INCREMENTS):
                hist.observe(0.25 if i % 2 else 0.75)

        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == self.N_THREADS * self.N_INCREMENTS

    def test_stats_add_from_many_threads(self):
        from repro.engine.stats import StatsCollector
        stats = StatsCollector()

        def work():
            for _ in range(self.N_INCREMENTS):
                stats.add(rows_scanned=1, rows_written=2)

        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = self.N_THREADS * self.N_INCREMENTS
        assert stats.rows_scanned == total
        assert stats.rows_written == 2 * total


class TestTracedServiceConcurrency:
    N_SESSIONS = 6
    N_SCRIPTS = 10

    def test_concurrent_scripts_trace_cleanly(self):
        db = Database(tracing=True)
        db.execute("CREATE TABLE t (d INT, a REAL)")
        db.execute("INSERT INTO t VALUES (1, 10.0), (2, 20.0)")
        service = QueryService(
            db, workers=4,
            max_queue_depth=self.N_SESSIONS * self.N_SCRIPTS,
            session_inflight_cap=self.N_SCRIPTS)
        try:
            sessions = [service.create_session()
                        for _ in range(self.N_SESSIONS)]
            futures = []
            for session in sessions:
                for _ in range(self.N_SCRIPTS):
                    futures.append(session.submit(
                        "SELECT d, sum(a) FROM t GROUP BY d"))
            reports = [f.result() for f in futures]
        finally:
            service.shutdown()
        for report in reports:
            assert report.trace is not None
            validate_span_tree(report.trace)
            assert report.trace.attrs["script_kind"] == "read"
            assert report.trace.find(kind="statement")
        # every admitted script finished: the gauge drained to zero
        assert db.metrics.gauge("service_inflight_queries").value == 0
        waits = db.metrics.histogram("service_queue_wait_seconds",
                                     session=str(sessions[0].id))
        assert waits.count == self.N_SCRIPTS
