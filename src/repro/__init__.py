"""repro: reproduction of "Vertical and Horizontal Percentage
Aggregations" (Carlos Ordonez, SIGMOD 2004).

The package provides:

* :mod:`repro.engine` -- an in-memory columnar SQL engine (the
  substrate standing in for Teradata);
* :mod:`repro.sql` -- the SQL front end, including the paper's
  ``Vpct(A BY ...)`` / ``Hpct(A BY ...)`` extension syntax;
* :mod:`repro.core` -- the paper's contribution: the percentage-query
  code generator and its evaluation strategies;
* :mod:`repro.olap` -- the ANSI OLAP window-function baseline;
* :mod:`repro.api` -- the Database facade and a DB-API 2.0 driver;
* :mod:`repro.datagen` -- the paper's synthetic workload generators;
* :mod:`repro.bench` -- the paper-table harness: one query under one
  strategy per cell of every results table (a library;
  ``benchmarks/run_experiments.py`` drives it).

Quickstart::

    from repro import Database
    from repro.core import run_percentage_query

    db = Database()
    db.load_table("sales", [("state", "varchar"), ("city", "varchar"),
                            ("salesAmt", "real")], rows)
    result = run_percentage_query(
        db, "SELECT state, city, Vpct(salesAmt BY city) "
            "FROM sales GROUP BY state, city")
"""

from repro.api.database import Database
from repro.api.dbapi import connect
from repro.errors import (CatalogError, ExecutionError, GroupingSetError,
                          PercentageQueryError, PlanningError, ReproError,
                          SQLSyntaxError, TypeMismatchError)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "connect",
    "ReproError",
    "SQLSyntaxError",
    "PlanningError",
    "ExecutionError",
    "CatalogError",
    "TypeMismatchError",
    "PercentageQueryError",
    "GroupingSetError",
    "__version__",
]
