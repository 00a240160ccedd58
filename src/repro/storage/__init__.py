"""Durable page-based storage: disk manager, buffer pool, WAL.

The package sits *behind* the engine's storage interface: a
storage-backed :class:`~repro.engine.catalog.Catalog` publishes
:class:`~repro.storage.stored.StoredTable` objects whose columns
materialize through the :class:`~repro.storage.pool.BufferPool`, and
every catalog publish commits through
:meth:`~repro.storage.engine.StorageEngine.commit` -- one write-ahead
log record of what changed -- before it becomes visible.  See ``docs/storage.md`` for the design.
"""

from repro.storage.disk import DiskManager
from repro.storage.engine import (STORE_FILES, StorageEngine,
                                  force_close_all, live_store_paths,
                                  stray_files)
from repro.storage.pages import (DEFAULT_PAGE_SIZE, decode_page,
                                 deserialize_column, encode_page,
                                 serialize_column)
from repro.storage.pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.stored import StoredTable
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "DiskManager",
    "STORE_FILES",
    "StorageEngine",
    "StoredTable",
    "WriteAheadLog",
    "decode_page",
    "deserialize_column",
    "encode_page",
    "force_close_all",
    "live_store_paths",
    "serialize_column",
    "stray_files",
]
