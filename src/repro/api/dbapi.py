"""A PEP 249 (DB-API 2.0) driver for the in-memory engine.

The paper's experiments ran "a Java program ... connecting to the DBMS
through the JDBC interface"; this module is the Python equivalent of
that client-side layer, so examples and benchmarks can talk to the
engine the way any Python database application would:

    >>> import repro.api.dbapi as dbapi
    >>> conn = dbapi.connect()
    >>> cur = conn.cursor()
    >>> cur.execute("CREATE TABLE t (a INT, b VARCHAR)")
    >>> cur.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    >>> cur.execute("SELECT a, b FROM t WHERE a > ?", (1,))
    >>> cur.fetchall()
    [(2, 'y')]

``paramstyle`` is ``qmark``; parameters are bound by literal
substitution with proper quoting (the engine has no prepared-statement
layer).

Thread affinity
---------------
Connections are thread-safe by default (``threadsafety = 2``: the
engine serializes statements under one lock), but cursor *state* --
``description``, ``rowcount``, the fetch position -- is per-cursor and
unsynchronized, so two threads sharing one cursor silently interleave
fetches.  ``connect(..., check_same_thread=True)`` opts into the
sqlite3-style affinity guard: the connection (and every cursor it
creates) may then only be used from the thread that opened it, and any
cross-thread call raises the typed
:class:`~repro.errors.CrossThreadError` instead of corrupting state.
The service layer (:mod:`repro.service`) enables the guard on each
session's private connection; threads that need concurrency should use
one connection per thread or go through the service's scheduler.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Optional, Sequence

from repro.api.database import Database
from repro.engine.cancel import check_deadline
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import (CrossThreadError, ExecutionError, ReproError,
                          ResourceExhausted, SQLSyntaxError)
from repro.sql.formatter import format_literal
from repro.sql.tokens import tokenize

apilevel = "2.0"
#: Threads may share the module and connections: the Database
#: serializes statements under one lock.  (Cursor fetch state is still
#: per-cursor; see the thread-affinity note above.)
threadsafety = 2
paramstyle = "qmark"


class Error(Exception):
    """DB-API base error."""


class InterfaceError(Error):
    pass


class DatabaseError(Error):
    pass


class ProgrammingError(DatabaseError):
    pass


class OperationalError(DatabaseError):
    pass


#: DB-API type codes exposed in cursor.description.
STRING = SQLType.VARCHAR
NUMBER = SQLType.REAL
ROWID = SQLType.INTEGER


def connect(database: Optional[Database] = None,
            check_same_thread: bool = False, **options) -> "Connection":
    """Open a connection.

    Pass an existing :class:`Database` to share state between
    connections (several cursors over one catalog), or keyword options
    forwarded to the :class:`Database` constructor for a fresh one.
    ``check_same_thread=True`` binds the connection to the calling
    thread (see the thread-affinity note in the module docstring).
    """
    return Connection(database or Database(**options),
                      check_same_thread=check_same_thread)


class Connection:
    """A DB-API connection wrapping one :class:`Database`."""

    Error = Error
    ProgrammingError = ProgrammingError

    def __init__(self, database: Database,
                 check_same_thread: bool = False):
        self._database: Optional[Database] = database
        self._check_same_thread = bool(check_same_thread)
        self._owner_thread = threading.get_ident()
        self._deadline_seconds: Optional[float] = None

    def set_deadline(self, seconds: Optional[float]) -> None:
        """Per-statement wall-clock deadline applied to every execute
        on this connection's cursors (``None`` clears it).  A deadline
        overrun surfaces as :class:`OperationalError` wrapping the
        typed :class:`~repro.errors.QueryCancelledError`."""
        try:
            check_deadline(seconds)
        except ValueError:
            raise InterfaceError("deadline must be > 0 seconds") from None
        self._check_thread()
        self._deadline_seconds = seconds

    @property
    def deadline_seconds(self) -> Optional[float]:
        return self._deadline_seconds

    @property
    def database(self) -> Database:
        self._check_thread()
        if self._database is None:
            raise InterfaceError("connection is closed")
        return self._database

    def _check_thread(self) -> None:
        if (self._check_same_thread
                and threading.get_ident() != self._owner_thread):
            raise CrossThreadError(
                f"this connection was created in thread "
                f"{self._owner_thread} and check_same_thread is on; it "
                f"cannot be used from thread {threading.get_ident()}")

    def cursor(self) -> "Cursor":
        self._check_thread()
        return Cursor(self)

    def commit(self) -> None:
        """No-op: the engine is non-transactional (auto-commit)."""
        self.database  # raises if closed

    def rollback(self) -> None:
        raise OperationalError(
            "the engine is non-transactional; rollback is unsupported")

    def close(self) -> None:
        self._database = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Cursor:
    """A DB-API cursor.

    ``description`` is the 7-tuple sequence required by PEP 249 with
    name and type_code filled in; ``rowcount`` is the DML row count or
    the SELECT result size.
    """

    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        self.description: Optional[list[tuple]] = None
        self.rowcount: int = -1
        self._rows: list[tuple[Any, ...]] = []
        self._cursor_position = 0
        self._closed = False

    # ------------------------------------------------------------------
    def execute(self, operation: str,
                parameters: Sequence[Any] = ()) -> "Cursor":
        self._check_open()
        sql = _bind_parameters(operation, parameters)
        try:
            result = self.connection.database.execute(
                sql,
                deadline_seconds=self.connection.deadline_seconds)
        except ReproError as exc:
            raise _map_error(exc) from exc
        if isinstance(result, Table):
            self._rows = result.to_rows()
            self._cursor_position = 0
            self.rowcount = len(self._rows)
            self.description = [
                (col.name, col.sql_type, None, None, None, None, None)
                for col in result.schema.columns]
        else:
            self._rows = []
            self._cursor_position = 0
            self.rowcount = int(result)
            self.description = None
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Iterable[Sequence[Any]]
                    ) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
        return self

    def executescript(self, script: str) -> "Cursor":
        """Non-standard convenience: run a multi-statement script."""
        self._check_open()
        try:
            self.connection.database.execute_script(
                script,
                deadline_seconds=self.connection.deadline_seconds)
        except ReproError as exc:
            raise _map_error(exc) from exc
        self._rows = []
        self.description = None
        self.rowcount = -1
        return self

    # ------------------------------------------------------------------
    def fetchone(self) -> Optional[tuple[Any, ...]]:
        self._check_open()
        if self._cursor_position >= len(self._rows):
            return None
        row = self._rows[self._cursor_position]
        self._cursor_position += 1
        return row

    def fetchmany(self, size: Optional[int] = None
                  ) -> list[tuple[Any, ...]]:
        self._check_open()
        size = size or self.arraysize
        chunk = self._rows[self._cursor_position:
                           self._cursor_position + size]
        self._cursor_position += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple[Any, ...]]:
        self._check_open()
        chunk = self._rows[self._cursor_position:]
        self._cursor_position = len(self._rows)
        return chunk

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # ------------------------------------------------------------------
    def setinputsizes(self, sizes) -> None:  # pragma: no cover - PEP 249
        pass

    def setoutputsize(self, size, column=None) -> None:  # pragma: no cover
        pass

    def close(self) -> None:
        self._closed = True
        self._rows = []

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection.database  # raises if connection closed


# ----------------------------------------------------------------------
def _map_error(exc: ReproError) -> DatabaseError:
    """PEP 249 classification: statement problems are programming
    errors; runtime failures (budget overruns, transient faults) are
    operational -- the class a retry loop is expected to catch."""
    if isinstance(exc, (ResourceExhausted, ExecutionError)):
        return OperationalError(str(exc))
    return ProgrammingError(str(exc))


def _bind_parameters(operation: str, parameters: Sequence[Any]) -> str:
    """Substitute qmark placeholders with quoted literals.

    Placeholders are found with the engine's own lexer, so a ``?``
    inside a string literal, a quoted identifier or a comment is never
    touched.  Text the lexer rejects is passed through unbound: the
    parser reports it with its typed error.
    """
    if "?" not in operation and not parameters:
        return operation  # nothing to bind: skip the extra lexer pass
    try:
        marks = [token for token in tokenize(operation)
                 if token.key == "?"]
    except SQLSyntaxError:
        return operation
    if not parameters:
        if marks:
            raise ProgrammingError(
                "statement has placeholders but no parameters given")
        return operation
    if len(marks) > len(parameters):
        raise ProgrammingError("more placeholders than parameters")
    if len(marks) < len(parameters):
        raise ProgrammingError(
            f"{len(parameters)} parameters supplied but {len(marks)} "
            f"placeholders found")
    # Splice each literal in at its placeholder's character offset.
    pieces: list[str] = []
    done = 0
    for mark, value in zip(marks, parameters):
        pieces += (operation[done:mark.offset], _literal(value))
        done = mark.offset + 1
    pieces.append(operation[done:])
    return "".join(pieces)


def _literal(value: Any) -> str:
    if not isinstance(value, (type(None), bool, int, float, str)):
        raise ProgrammingError(f"cannot bind parameter of type "
                               f"{type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ProgrammingError(
            f"cannot bind non-finite float {value!r}: SQL has no "
            f"literal for it")
    return format_literal(value)
