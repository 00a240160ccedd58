"""The variant matrix and the leak post-condition, each stated once.

The differential runner, the sweep and the pytest leak guard run the
engine in the same few configurations and hold it to the same "nothing
left behind" rule, so a new axis value or a new kind of debris is
added here once and covered everywhere:

* the **matrix** is the table substrate: a :class:`Variant` carries
  one cell's ``Database`` keyword arguments, :func:`matrix` enumerates
  cells, and the CLI's ``choices=``, ``--list-variants`` and the tests
  read :data:`STORAGES`;
* :func:`open_variant` is the only place a harness database is built:
  it owns the temp store directory, the ``close()`` and the leak check;
* :func:`leaks` is the leak check itself.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.api.database import Database
from repro.fuzz.generator import FuzzCase
from repro.storage import engine as storage_engine

#: Table substrates (the ``--storage`` axis).
STORAGES = ("memory", "disk")

#: Buffer-pool capacity of every disk variant: small enough that the
#: fuzzer's tables still evict pages, so the pool's replacement path
#: is inside the net, not just the happy path.
POOL_PAGES = 8

#: Page size of every disk variant.  A fuzz table has at most 30 rows,
#: so at the default 4 KB page every column would fit on one page; at
#: 64 bytes its columns span several, and every gather, append and
#: UPDATE crosses page edges.
PAGE_SIZE = 64

#: One line per axis value, printed by ``--list-variants`` and
#: mirrored in docs/testing.md.
AXIS_DESCRIPTIONS = {
    "memory": "in-memory column store",
    "disk": f"page-backed store in a fresh temp directory, "
            f"{PAGE_SIZE}-byte pages, {POOL_PAGES}-page buffer pool "
            f"(evicts on purpose)",
    "--trace": "the differential run opens every cell traced and "
               "validates each trace",
    "narrow": "hpct and hagg cases also run their primary strategies "
              "on a memory cell narrowed from the case seed: "
              "max_columns from the widest table besides FH up to 8 "
              "(FH split into partitions, a term's cells cut across "
              "them) and max_name_length 8 to 12 (cell names "
              "abbreviated and suffixed); the variant is named "
              "engine:<strategy>@narrow(max_columns=K,max_name_length=L)",
}


@dataclass(frozen=True)
class Variant:
    """One cell of the matrix: a table substrate, named after it.
    The default is the engine's own defaults -- the differential
    runner's baseline."""

    storage: str = "memory"

    def __post_init__(self) -> None:
        if self.storage not in STORAGES:
            raise ValueError(f"unknown variant {self.name}; the "
                             f"matrix is {STORAGES}")

    @property
    def name(self) -> str:
        return self.storage

    def database_kwargs(self, store: Optional[str] = None
                        ) -> dict[str, Any]:
        """``Database`` keyword arguments of this cell; ``store`` is
        the page-store directory of a disk variant."""
        if self.storage == "disk":
            return dict(storage="disk", storage_path=store,
                        pool_pages=POOL_PAGES, page_size=PAGE_SIZE)
        return {}


def matrix(storages: Sequence[str] = STORAGES) -> list[Variant]:
    """The cells, in sweep order."""
    return [Variant(storage) for storage in storages]


class LeakError(Exception):
    """A harness database left debris behind; ``problems`` holds the
    ``(problem, detail)`` pairs :func:`leaks` reported."""

    def __init__(self, problems: list[tuple[str, str]]) -> None:
        super().__init__("; ".join(f"{problem}: {detail}"
                                   for problem, detail in problems))
        self.problems = problems


def leaks(databases: Iterable[Database] = (),
          stores: Optional[Sequence[str]] = None
          ) -> list[tuple[str, str]]:
    """The leak post-condition; returns ``(problem, detail)`` pairs,
    empty when clean.

    * no given database holds a ``_``-prefixed table -- the name space
      :func:`repro.core.plan.fresh_prefix` reserves for plan temps;
    * with ``stores`` -- the directories of page stores the caller has
      already closed or abandoned, ``()`` when it merely expects none
      open -- no storage engine is still registered live (found ones
      are force-closed) and no directory holds a file beyond the
      store's own three.
    """
    problems = []
    for db in databases:
        temps = sorted(n for n in db.table_names() if n.startswith("_"))
        if temps:
            problems.append(("temp tables leaked", ", ".join(temps)))
    if stores is not None:
        live = storage_engine.live_store_paths()
        if live:
            storage_engine.force_close_all()
            problems.append(("page stores left open", ", ".join(live)))
        for path in stores:
            stray = storage_engine.stray_files(path)
            if stray:
                problems.append(("stray store files leaked",
                                 ", ".join(stray)))
    return problems


@contextmanager
def open_variant(case: FuzzCase, variant: Variant,
                 **db_kwargs: Any) -> Iterator[Database]:
    """A database of ``variant`` holding ``case``'s table.

    On the way out the database is closed, a disk variant's temp
    store directory is removed, and :func:`leaks` runs; debris raises
    :class:`LeakError` (chained onto whatever the body raised)."""
    store = tempfile.mkdtemp(prefix="repro-fuzz-store-") \
        if variant.storage == "disk" else None
    opened: list[Database] = []
    try:
        db = Database(**variant.database_kwargs(store), **db_kwargs)
        opened.append(db)
        db.load_table(case.table, list(case.columns),
                      [list(row) for row in case.rows])
        yield db
    finally:
        try:
            for db in opened:
                db.close()
        finally:
            problems = leaks(opened,
                             None if store is None else (store,))
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
        if problems:
            raise LeakError(problems)
