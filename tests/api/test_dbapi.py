"""Unit tests for the PEP 249 DB-API driver."""

import pytest

import repro.api.dbapi as dbapi
from repro import Database


@pytest.fixture
def conn():
    connection = dbapi.connect()
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (a INT, b VARCHAR)")
    cursor.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return connection


class TestModuleGlobals:
    def test_pep249_attributes(self):
        assert dbapi.apilevel == "2.0"
        assert dbapi.paramstyle == "qmark"
        assert dbapi.threadsafety == 2

    def test_exception_hierarchy(self):
        assert issubclass(dbapi.ProgrammingError, dbapi.DatabaseError)
        assert issubclass(dbapi.DatabaseError, dbapi.Error)


class TestCursor:
    def test_fetchone(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM t ORDER BY a")
        assert cur.fetchone() == (1,)
        assert cur.fetchone() == (2,)

    def test_fetchmany_and_fetchall(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM t ORDER BY a")
        assert cur.fetchmany(2) == [(1,), (2,)]
        assert cur.fetchall() == [(3,)]
        assert cur.fetchone() is None

    def test_iteration(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM t ORDER BY a")
        assert [row[0] for row in cur] == [1, 2, 3]

    def test_rowcount_and_description(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a, b FROM t")
        assert cur.rowcount == 3
        assert [d[0] for d in cur.description] == ["a", "b"]
        cur.execute("INSERT INTO t VALUES (4, 'w')")
        assert cur.rowcount == 1
        assert cur.description is None

    def test_parameters(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM t WHERE a > ? AND b <> ?",
                    (1, "it's"))
        assert cur.rowcount == 2

    def test_parameter_count_mismatch(self, conn):
        cur = conn.cursor()
        with pytest.raises(dbapi.ProgrammingError):
            cur.execute("SELECT a FROM t WHERE a = ?", ())
        with pytest.raises(dbapi.ProgrammingError):
            cur.execute("SELECT a FROM t WHERE a = ?", (1, 2))

    def test_placeholder_inside_string_untouched(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT a FROM t WHERE b = '?' ")
        assert cur.rowcount == 0

    @pytest.mark.parametrize("operation", [
        "SELECT a FROM t -- what?\n WHERE a = ?",
        "SELECT a FROM t /* one ?\n or two ?? */ WHERE a = ?",
        'SELECT a AS "why?" FROM t WHERE a = ?',
        "SELECT a FROM t WHERE b <> '?' AND\n  a = ?",
        "SELECT a FROM t\r\n WHERE b <> '?\r' AND a = ?",
    ])
    def test_only_real_placeholders_bind(self, conn, operation):
        """Placeholders are found by the engine's lexer: a ``?`` in a
        comment, a quoted identifier or a string is text."""
        cur = conn.cursor()
        cur.execute(operation, (2,))
        assert cur.fetchall() == [(2,)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_rejected(self, conn, value):
        with pytest.raises(dbapi.ProgrammingError, match="non-finite"):
            conn.cursor().execute("SELECT a FROM t WHERE a = ?",
                                  (value,))

    def test_unbound_placeholder_is_a_typed_syntax_error(self, conn):
        from repro.errors import SQLSyntaxError
        with pytest.raises(SQLSyntaxError, match="unexpected token"):
            conn.database.execute("SELECT a FROM t WHERE a = ?")

    def test_null_parameter(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT coalesce(?, 5)", (None,))
        assert cur.fetchone() == (5,)

    def test_executemany(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO t VALUES (?, ?)",
                        [(10, "a"), (11, "b")])
        cur.execute("SELECT count(*) FROM t")
        assert cur.fetchone() == (5,)

    def test_executescript(self, conn):
        cur = conn.cursor()
        cur.executescript("CREATE TABLE u (x INT); "
                          "INSERT INTO u VALUES (1)")
        cur.execute("SELECT x FROM u")
        assert cur.fetchall() == [(1,)]

    def test_engine_errors_wrapped(self, conn):
        cur = conn.cursor()
        with pytest.raises(dbapi.ProgrammingError):
            cur.execute("SELECT nope FROM t")

    def test_closed_cursor_raises(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(dbapi.InterfaceError):
            cur.execute("SELECT 1")


class TestConnection:
    def test_shared_database(self):
        database = Database()
        first = dbapi.connect(database)
        second = dbapi.connect(database)
        first.cursor().execute("CREATE TABLE shared (a INT)")
        cur = second.cursor()
        cur.execute("SELECT count(*) FROM shared")
        assert cur.fetchone() == (0,)

    def test_context_manager_closes(self):
        with dbapi.connect() as connection:
            connection.cursor().execute("SELECT 1")
        with pytest.raises(dbapi.InterfaceError):
            connection.cursor().execute("SELECT 1")

    def test_commit_is_noop(self, conn):
        conn.commit()

    def test_rollback_unsupported(self, conn):
        with pytest.raises(dbapi.OperationalError):
            conn.rollback()


class TestThreadAffinity:
    def test_default_allows_cross_thread_use(self):
        import threading
        connection = dbapi.connect()
        outcomes = []

        def use():
            cur = connection.cursor()
            cur.execute("SELECT 1")
            outcomes.append(cur.fetchone())

        worker = threading.Thread(target=use)
        worker.start()
        worker.join()
        assert outcomes == [(1,)]

    def test_check_same_thread_rejects_other_threads(self):
        import threading
        from repro.errors import CrossThreadError
        connection = dbapi.connect(check_same_thread=True)
        caught = []

        def use():
            try:
                connection.cursor()
            except CrossThreadError as exc:
                caught.append(exc)

        worker = threading.Thread(target=use)
        worker.start()
        worker.join()
        assert len(caught) == 1
        assert "thread" in str(caught[0])

    def test_check_same_thread_allows_owner(self):
        connection = dbapi.connect(check_same_thread=True)
        cur = connection.cursor()
        cur.execute("SELECT 1")
        assert cur.fetchone() == (1,)

    def test_cross_thread_error_hierarchy(self):
        from repro.errors import (CrossThreadError, ReproError,
                                  ServiceError)
        assert issubclass(CrossThreadError, ServiceError)
        assert issubclass(CrossThreadError, ReproError)

    def test_close_is_exempt(self):
        import threading
        connection = dbapi.connect(check_same_thread=True)
        errors = []

        def shut():
            try:
                connection.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        worker = threading.Thread(target=shut)
        worker.start()
        worker.join()
        assert errors == []
