"""Scheduler: classification, admission, reports, write semantics."""

from __future__ import annotations

import threading

import pytest

from repro.engine.table import Table
from repro.errors import AdmissionRejected, ServiceError, SQLSyntaxError
from repro.service import QueryService
from repro.service.scheduler import _classify
from repro.sql.parser import parse_script


class TestClassification:
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT * FROM f", "read"),
        ("EXPLAIN SELECT d1 FROM f", "read"),
        ("SELECT d1 FROM f; SELECT d2 FROM f", "read"),
        ("SELECT d1, Vpct(a) FROM f GROUP BY d1", "read"),
        ("INSERT INTO f VALUES (9, 'z', 1.0)", "write"),
        ("CREATE TABLE t (x INT)", "write"),
        ("SELECT d1 FROM f; DROP TABLE f", "write"),
    ])
    def test_kind(self, sql, expected):
        assert _classify(parse_script(sql)) == expected


class TestReports:
    def test_read_report_fields(self, service):
        report = service.execute(
            "SELECT d1, count(*) FROM f GROUP BY d1")
        assert report.kind == "read"
        assert report.statements_run == 1
        assert isinstance(report.result, Table)
        assert report.snapshot_version == service.db.catalog.version

    def test_write_report_fields(self, service):
        report = service.execute(
            "INSERT INTO f VALUES (5, 'z', 1.0); "
            "INSERT INTO f VALUES (6, 'z', 2.0)")
        assert report.kind == "write"
        assert report.results == [1, 1]
        assert report.statements_run == 2
        assert report.snapshot_version == service.db.catalog.version

    def test_script_returns_one_result_per_statement(self, service):
        report = service.execute(
            "SELECT count(*) FROM f; SELECT d1 FROM f WHERE d1 = 2")
        assert len(report.results) == 2
        assert report.results[0].to_rows() == [(4,)]

    def test_rows_requires_select_tail(self, service):
        report = service.execute("INSERT INTO f VALUES (7, 'q', 3.0)")
        with pytest.raises(TypeError):
            report.rows()

    def test_extended_select_through_resilient_runner(self, service):
        report = service.execute(
            "SELECT d1, Vpct(a) FROM f GROUP BY d1")
        assert report.kind == "read"
        # The generated plan ran several statements inside the overlay.
        assert report.statements_run > 1
        total = sum(row[-1] for row in report.rows())
        assert total == pytest.approx(1.0)


class TestAdmission:
    def test_queue_depth_rejects(self, db):
        with QueryService(db, workers=1, max_queue_depth=0,
                          session_inflight_cap=10) as service:
            release = threading.Event()
            blocker = service.scheduler._pool.submit(release.wait, 5)
            with service.create_session() as session:
                try:
                    session.submit("SELECT count(*) FROM f")
                    with pytest.raises(AdmissionRejected):
                        session.submit("SELECT count(*) FROM f")
                finally:
                    release.set()
                    blocker.result()

    def test_admitted_drains_to_zero(self, service):
        service.execute("SELECT count(*) FROM f")
        service.quiesce()
        assert service.scheduler.admitted == 0

    def test_empty_script_rejected(self, service):
        with service.create_session() as session:
            with pytest.raises(ServiceError):
                session.submit("   ")

    def test_syntax_errors_surface_at_submit(self, service):
        with service.create_session() as session:
            with pytest.raises(SQLSyntaxError):
                session.submit("SELEKT 1")

    def test_shutdown_rejects_new_work(self, db):
        service = QueryService(db, workers=1)
        session = service.create_session()
        service.shutdown()
        with pytest.raises(ServiceError):
            service.scheduler.submit(session, "SELECT 1")


class TestWriteSemantics:
    def test_failed_script_rolls_back_all_statements(self, service, db):
        fingerprint = db.catalog.fingerprint()
        with service.create_session() as session:
            future = session.submit(
                "INSERT INTO f VALUES (8, 'w', 1.0); "
                "CREATE TABLE side (x INT); "
                "SELECT nope FROM missing")
            with pytest.raises(Exception):
                future.result()
        assert db.catalog.fingerprint() == fingerprint
        assert not db.has_table("side")

    def test_writes_serialize(self, service, db):
        with service.create_session() as session:
            futures = [session.submit(
                f"INSERT INTO f VALUES ({10 + i}, 'w', 1.0)")
                for i in range(4)]
            for future in futures:
                future.result()
        assert db.query("SELECT count(*) FROM f") == [(8,)]

    def test_concurrent_reads_consistent_counts(self, service):
        # Each read sees some committed count, never a torn state.
        with service.create_session() as writer, \
                service.create_session() as reader:
            write_futures = [writer.submit(
                f"INSERT INTO f VALUES ({20 + i}, 'c', 1.0); "
                f"INSERT INTO f VALUES ({40 + i}, 'c', 1.0)")
                for i in range(3)]
            read_futures = [reader.submit("SELECT count(*) FROM f")
                            for _ in range(4)]
            for future in write_futures:
                future.result()
            counts = [f.result().rows()[0][0] for f in read_futures]
        # Scripts add rows two at a time from a base of 4: every
        # observed count must be an even committed total.
        assert all(count % 2 == 0 and 4 <= count <= 10
                   for count in counts)
