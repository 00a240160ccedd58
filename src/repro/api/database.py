"""The Database facade: one object bundling a catalog, a statistics
collector and an executor behind a textual SQL interface.

This plays the role of the Teradata DBMS in the paper's architecture;
:mod:`repro.core` (the code generator) and :mod:`repro.api.dbapi` (the
JDBC stand-in) both talk to it.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.engine import cancel as cancel_mod
from repro.engine.cancel import CancelToken
from repro.engine.catalog import Catalog
from repro.engine.column import ColumnData
from repro.engine.executor import Executor, ExecutorOptions
from repro.engine.governor import ResourceBudget, ResourceGovernor
from repro.engine.schema import (DEFAULT_MAX_COLUMNS,
                                 DEFAULT_MAX_NAME_LENGTH, TableSchema)
from repro.engine.scope import query_scope
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType, type_from_name
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sql import ast
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_script, parse_statement
from repro.storage.engine import StorageEngine
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.pool import DEFAULT_POOL_PAGES

#: Table storage backends: heap-resident (the original engine) or
#: page-based durable storage behind a buffer pool (docs/storage.md).
STORAGE_BACKENDS = ("memory", "disk")


class Database:
    """An in-memory SQL database.

    Args:
        max_columns: per-table column ceiling (the DBMS limit the
            paper's vertical partitioning works around).
        max_name_length: identifier length ceiling.
        budget: per-query resource budgets (rows, result width)
            enforced cooperatively by the
            :class:`~repro.engine.governor.ResourceGovernor`; the
            default :class:`~repro.engine.governor.ResourceBudget` is
            unlimited.  A script and a generated percentage plan each
            count as one query: the whole multi-statement sequence
            shares one row meter (docs/robustness.md, "What counts as
            one query").  The wall-clock limit is a deadline
            (``default_deadline_seconds`` below).
        keep_history: record per-statement stats in
            ``db.stats.history``.
        tracing: start with the span tracer enabled (it can also be
            toggled later via ``db.tracer.enable()``).  Disabled
            tracing costs one branch per instrumentation point.
        clock: time source for statement timing and span boundaries;
            tests inject a :class:`~repro.obs.clock.ManualClock` to
            make every duration deterministic.
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry`
            backing ``db.stats`` and the service histograms.  Each
            database owns a fresh registry by default, so a reopened
            database starts from zero (no stale-counter carryover).
        storage: ``"memory"`` (default, tables live on the heap) or
            ``"disk"`` (tables live on checksummed pages behind an LRU
            buffer pool, with write-ahead-logged catalog mutations and
            crash recovery -- see docs/storage.md).
        storage_path: directory of the disk store (required for --
            and only valid with -- ``storage="disk"``).  Opening an
            existing store recovers its committed state.
        pool_pages / page_size: buffer-pool capacity (in pages) and
            on-disk page size for the disk backend.
        default_deadline_seconds: wall-clock deadline of every
            top-level query (statement, script or generated plan) that
            names none of its own.
        **execution: the execution knob ``case_dispatch``, passed
            straight to :class:`~repro.engine.executor.ExecutorOptions`,
            which states its default and legal values;
            :meth:`configure` changes it later.
    """

    def __init__(self, max_columns: int = DEFAULT_MAX_COLUMNS,
                 max_name_length: int = DEFAULT_MAX_NAME_LENGTH,
                 budget: ResourceBudget = ResourceBudget(),
                 keep_history: bool = False,
                 tracing: bool = False,
                 clock: Optional[Clock] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 storage: str = "memory",
                 storage_path: Optional[str] = None,
                 pool_pages: int = DEFAULT_POOL_PAGES,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 default_deadline_seconds: Optional[float] = None,
                 **execution: Any):
        # First: a bad knob must fail before a disk store is opened.
        options = ExecutorOptions(**execution)
        if storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"storage must be one of {', '.join(STORAGE_BACKENDS)}")
        if storage == "disk" and storage_path is None:
            raise ValueError("storage='disk' requires storage_path")
        if storage == "memory" and storage_path is not None:
            raise ValueError(
                "storage_path is only valid with storage='disk'")
        if pool_pages < 1:
            raise ValueError("pool_pages must be >= 1")
        if default_deadline_seconds is not None \
                and default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be > 0")
        clock = clock if clock is not None else MonotonicClock()
        metrics = metrics if metrics is not None else MetricsRegistry()
        catalog = Catalog(max_columns=max_columns,
                          max_name_length=max_name_length)
        stats = StatsCollector(keep_history=keep_history,
                               registry=metrics)
        storage_engine = None
        if storage == "disk":
            storage_engine = StorageEngine(
                storage_path, page_size=page_size, pool_pages=pool_pages,
                registry=metrics, stats=stats)
            catalog.storage = storage_engine
            # Recover whatever a previous incarnation committed; a
            # fresh directory just writes a clean baseline checkpoint.
            # A failed recovery (e.g. a corrupt committed page) must
            # not leak the half-open store.
            try:
                storage_engine.open_catalog(catalog)
            except BaseException:
                storage_engine.abandon()
                raise
        self._assemble(
            catalog, stats, options,
            ResourceGovernor(budget),
            Tracer(clock=clock, enabled=tracing), clock, metrics,
            storage_engine, default_deadline_seconds)

    def _assemble(self, catalog: Catalog, stats: StatsCollector,
                  options: ExecutorOptions, governor: ResourceGovernor,
                  tracer: Tracer, clock: Clock, metrics: MetricsRegistry,
                  storage_engine: Optional[StorageEngine],
                  default_deadline_seconds: Optional[float]) -> None:
        """Wire a database from its parts.  ``__init__`` builds fresh
        parts from keywords; a snapshot reader
        (:class:`~repro.service.snapshots.SnapshotDatabase`) hands in
        the base's shared ones beside its private catalog and options.
        Every attribute a Database has is set here and nowhere else."""
        self.catalog = catalog
        self.stats = stats
        self.governor = governor
        self.tracer = tracer
        self.clock = clock
        self.metrics = metrics
        self.storage_engine = storage_engine
        self.default_deadline_seconds = default_deadline_seconds
        self.executor = Executor(catalog, stats, options,
                                 governor=governor, tracer=tracer)
        # Statement-level serialization: concurrent sessions (the
        # paper's closing scenario, "users concurrently submit
        # percentage queries") interleave whole statements safely.
        self._lock = threading.RLock()

    @property
    def options(self) -> ExecutorOptions:
        """The execution knobs in force (immutable; see
        :meth:`configure`)."""
        return self.executor.options

    def configure(self, **overrides: Any) -> None:
        """Change execution knobs:
        ``db.configure(case_dispatch="hash")``.  Takes the fields of
        :class:`~repro.engine.executor.ExecutorOptions` and validates
        exactly as the constructor does; waits out a statement in
        flight, so no statement runs under a mix of old and new."""
        with self._lock:
            self.executor.options = dataclasses.replace(self.options,
                                                        **overrides)

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------
    def execute(self, sql: str,
                deadline_seconds: Optional[float] = None,
                cancel_token: Optional[CancelToken] = None,
                use_views: bool = True
                ) -> Table | int:
        """Run one SQL statement.

        Returns a :class:`Table` for SELECT, a row count for DML/DDL.
        Per-statement timing and counters are recorded when
        ``keep_history`` is enabled.  ``deadline_seconds`` bounds this
        statement's wall clock (a child of any ambient deadline, so the
        tighter budget wins); ``cancel_token`` attaches a caller-held
        token instead -- ``token.cancel()`` from another thread stops
        the statement at its next safepoint.  ``use_views=False``
        disables materialized-view rewrites for this statement (the
        recompute baseline the differential oracle compares against).
        """
        return self.execute_statement(parse_statement(sql), sql,
                                      deadline_seconds, cancel_token,
                                      use_views)

    def execute_statement(self, statement: ast.Statement,
                          sql: Optional[str] = None,
                          deadline_seconds: Optional[float] = None,
                          cancel_token: Optional[CancelToken] = None,
                          use_views: bool = True
                          ) -> Table | int:
        """Run a statement tree -- parsed, or built by the code
        generator; :meth:`execute` is this after parsing.  ``sql`` is
        its text when the caller has it; without it the text is
        printed from the tree only for a reader (an enabled tracer,
        ``keep_history``)."""
        if sql is None:
            sql = format_statement(statement) \
                if self.tracer.enabled or self.stats.keep_history else ""
        token = self._resolve_token(deadline_seconds, cancel_token)
        with self._lock:
            result, record = self.executor.run_statement(
                statement, use_views, sql, token)
            record.counters.sql = sql
            self.stats.record_statement(record.counters)
            return result

    def execute_script(self, sql: str,
                       deadline_seconds: Optional[float] = None,
                       cancel_token: Optional[CancelToken] = None
                       ) -> list[Table | int]:
        """Run a ';'-separated script, returning one result per
        statement.  The script is one query: one scope, so a
        ``deadline_seconds`` here (or the database default) and the
        resource budget cover the *whole* script -- remaining time and
        rows shrink as it progresses."""
        with self.scope("script", deadline_seconds, cancel_token):
            return [self.execute_statement(s, sql)
                    for s in parse_script(sql)]

    def scope(self, name: str,
              deadline_seconds: Optional[float] = None,
              cancel_token: Optional[CancelToken] = None,
              **options: Any):
        """Open a query scope (:func:`repro.engine.scope.query_scope`)
        on this database under the token the arguments and the
        database default resolve to.  Scripts, generated plans and the
        service's scripts open theirs here; ``options`` are the
        scope's own (``force_trace``, ``queue_wait``, span
        attributes)."""
        return query_scope(
            self.executor, name,
            token=self._resolve_token(deadline_seconds, cancel_token),
            **options)

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """Run a SELECT and return rows as Python tuples."""
        result = self.execute(sql)
        if not isinstance(result, Table):
            raise TypeError("query() requires a SELECT statement")
        return result.to_rows()

    def _resolve_token(self, deadline_seconds: Optional[float],
                       cancel_token: Optional[CancelToken]
                       ) -> Optional[CancelToken]:
        """Resolve the token a query scope installs (None = inherit).

        Precedence: an explicit token wins outright; an explicit
        deadline builds a fresh token as a *child* of any ambient one
        (the tighter deadline fires first); otherwise an ambient token
        (the enclosing scope's) is inherited as-is, and the
        database-wide default deadline applies only at top level --
        to the outermost scope, whatever its shape."""
        if cancel_token is not None:
            return cancel_token
        ambient = cancel_mod.active_token()
        if deadline_seconds is not None:
            return CancelToken.with_timeout(
                deadline_seconds, clock=self.clock, parent=ambient,
                registry=self.metrics)
        if ambient is not None:
            return None  # already active; nothing to install
        if self.default_deadline_seconds is not None:
            return CancelToken.with_timeout(
                self.default_deadline_seconds, clock=self.clock,
                registry=self.metrics)
        return None

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def load_table(self, name: str,
                   columns: Sequence[tuple[str, str | SQLType]],
                   data: dict[str, np.ndarray | Sequence[Any]]
                   | Iterable[Sequence[Any]],
                   primary_key: Sequence[str] = (),
                   replace: bool = False) -> Table:
        """Create and populate a table without going through SQL.

        ``columns`` is a list of ``(name, type)`` pairs (types may be
        names like ``"int"`` or :class:`SQLType` values).  ``data`` is
        either a mapping of column name to array/sequence (the bulk
        path: numpy arrays are wrapped without per-value validation) or
        an iterable of row sequences.
        """
        resolved = [(n, t if isinstance(t, SQLType) else type_from_name(t))
                    for n, t in columns]
        schema = TableSchema.build(name, resolved, primary_key)
        if isinstance(data, dict):
            column_data = {}
            for col_name, sql_type in resolved:
                raw = _lookup_ci_dict(data, col_name)
                if isinstance(raw, np.ndarray):
                    column_data[col_name] = ColumnData.from_arrays(
                        sql_type, raw)
                else:
                    column_data[col_name] = ColumnData.from_values(
                        sql_type, raw)
            table = Table(schema, column_data)
        else:
            table = Table.from_rows(schema, data)
        with self._lock:
            if replace:
                self.catalog.drop_table(name, if_exists=True)
            self.catalog.create_table(table)
            self.stats.add(rows_written=table.n_rows)
            # Return the *published* table: on the disk backend the
            # catalog publishes a page-backed StoredTable, not the
            # heap table built above.
            return self.catalog.table(name)

    # ------------------------------------------------------------------
    # Introspection & options
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        # The default matches Catalog.drop_table (and SQL DROP TABLE):
        # dropping a missing table is an error unless opted out.
        self.catalog.drop_table(name, if_exists=if_exists)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def set_resource_budget(self,
                            budget: ResourceBudget = ResourceBudget()
                            ) -> None:
        """Replace the per-query resource budgets (no argument =
        unlimited).

        Limits are read at each check, so a query already running
        meets the new ones at its next check."""
        self.governor.set_budget(budget)

    def resource_budget(self) -> ResourceBudget:
        return self.governor.budget

    # ------------------------------------------------------------------
    # Storage lifecycle (disk backend)
    # ------------------------------------------------------------------
    def storage_info(self) -> dict[str, Any]:
        """Backend name plus, on disk, store/pool occupancy."""
        if self.storage_engine is None:
            return {"backend": "memory"}
        return {"backend": "disk", **self.storage_engine.info()}

    def checkpoint(self) -> None:
        """Persist the full catalog manifest and truncate the WAL.
        A no-op on the memory backend."""
        if self.storage_engine is not None:
            with self._lock:
                self.storage_engine.checkpoint(self.catalog)

    def close(self) -> None:
        """Shut down cleanly: on disk, checkpoint and release the
        store's file handles.  Idempotent; a no-op on memory."""
        if self.storage_engine is not None:
            with self._lock:
                self.storage_engine.close(self.catalog)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _lookup_ci_dict(mapping: dict, name: str):
    if name in mapping:
        return mapping[name]
    lowered = name.lower()
    for key, value in mapping.items():
        if key.lower() == lowered:
            return value
    raise KeyError(f"no data supplied for column {name!r}")
