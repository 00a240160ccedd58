"""Buffer-pool unit tests: LRU behavior, counters, registry metrics."""

import os

import pytest

from repro.engine import faults
from repro.engine.faults import FaultInjector, FaultSpec
from repro.errors import SimulatedCrash
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import DiskManager
from repro.storage.pool import BufferPool

PAGE_SIZE = 256


@pytest.fixture
def disk(tmp_path):
    manager = DiskManager(os.path.join(tmp_path, "data.pages"),
                          page_size=PAGE_SIZE)
    yield manager
    manager.close()


def _seed_pages(disk, count):
    ids = disk.allocate(count)
    for page_id in ids:
        disk.write_page(page_id, f"payload-{page_id}".encode())
    return ids


def test_miss_then_hit(disk):
    (page,) = _seed_pages(disk, 1)
    pool = BufferPool(disk, capacity_pages=4)
    payloads, hits, misses = pool.fetch_many([page])
    assert payloads == [f"payload-{page}".encode()]
    assert (hits, misses) == (0, 1)
    payloads, hits, misses = pool.fetch_many([page, page])
    assert (hits, misses) == (2, 0)
    assert pool.hits == 2 and pool.misses == 1


def test_lru_evicts_least_recently_used(disk):
    p0, p1, p2 = _seed_pages(disk, 3)
    pool = BufferPool(disk, capacity_pages=2)
    pool.fetch(p0)
    pool.fetch(p1)
    pool.fetch(p0)          # p0 now most recent; p1 is the LRU
    pool.fetch(p2)          # evicts p1
    assert pool.evictions == 1
    assert pool.resident_pages() == 2
    before = pool.misses
    pool.fetch(p0)          # still resident
    assert pool.misses == before
    pool.fetch(p1)          # was evicted: must re-read
    assert pool.misses == before + 1


def test_write_through_caches_the_payload(disk):
    (page,) = [disk.allocate(1)[0]]
    pool = BufferPool(disk, capacity_pages=2)
    pool.write(page, b"fresh")
    assert pool.pages_written == 1
    # Write-through caching: the following fetch is a pure hit, and
    # the bytes are already on disk for an uncached reader.
    _, hits, misses = pool.fetch_many([page])
    assert (hits, misses) == (1, 0)
    assert disk.read_page(page) == b"fresh"


def test_invalidate_drops_cached_pages(disk):
    (page,) = _seed_pages(disk, 1)
    pool = BufferPool(disk, capacity_pages=2)
    pool.fetch(page)
    pool.invalidate([page])
    assert pool.resident_pages() == 0
    _, hits, misses = pool.fetch_many([page])
    assert (hits, misses) == (0, 1)


def test_info_counters(disk):
    p0, p1 = _seed_pages(disk, 2)
    pool = BufferPool(disk, capacity_pages=1)
    pool.fetch(p0)
    pool.fetch(p0)
    pool.fetch(p1)          # miss + eviction of p0
    info = pool.info()
    assert info["capacity"] == 1
    assert info["pages"] == 1
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["evictions"] == 1
    assert info["hit_rate"] == pytest.approx(1 / 3)


def test_registry_metrics(disk):
    p0, p1 = _seed_pages(disk, 2)
    registry = MetricsRegistry()
    pool = BufferPool(disk, capacity_pages=1, registry=registry)
    pool.fetch(p0)
    pool.fetch(p0)
    pool.fetch(p1)
    pool.write(p0, b"new")
    assert registry.value("storage_pool_hits_total") == 1
    assert registry.value("storage_pool_misses_total") == 2
    assert registry.value("storage_pool_evictions_total") == 2
    assert registry.value("storage_bytes_read") == 2 * PAGE_SIZE
    assert registry.value("storage_bytes_written") == PAGE_SIZE


class _CountingRegistry(MetricsRegistry):
    def __init__(self):
        super().__init__()
        self.increments = 0

    def increment(self, counts, **labels):
        self.increments += 1
        super().increment(counts, **labels)


def test_write_many_records_once_and_matches_single_writes(disk):
    payloads = [f"chunk-{i}".encode() for i in range(5)]
    totals = []
    for batched in (False, True):
        registry = _CountingRegistry()
        pool = BufferPool(disk, capacity_pages=3, registry=registry)
        ids = disk.allocate(len(payloads))
        if batched:
            pool.write_many(ids, payloads)
            assert registry.increments == 1
        else:
            for page_id, payload in zip(ids, payloads):
                pool.write(page_id, payload)
        assert [disk.read_page(i) for i in ids] == payloads
        _, hits, misses = pool.fetch_many(ids[-3:])
        assert (hits, misses) == (3, 0)
        totals.append((pool.pages_written, pool.evictions,
                       registry.value("storage_bytes_written"),
                       registry.value("storage_pool_evictions_total")))
    assert totals[0] == totals[1] == (5, 2, 5 * PAGE_SIZE, 2)


def test_write_many_keeps_the_pages_written_before_a_crash(disk):
    registry = MetricsRegistry()
    pool = BufferPool(disk, capacity_pages=8, registry=registry)
    ids = disk.allocate(4)
    injector = FaultInjector(
        [FaultSpec("storage-page-write", error="crash", at=2)])
    with faults.active(injector), pytest.raises(SimulatedCrash):
        pool.write_many(ids, [b"a", b"b", b"c", b"d"])
    # The third page tore mid-image: the two before it are on disk,
    # cached and counted, exactly as two single writes would leave.
    assert pool.pages_written == 2
    assert registry.value("storage_bytes_written") == 2 * PAGE_SIZE
    assert pool.resident_pages() == 2


def test_capacity_must_be_positive(disk):
    with pytest.raises(ValueError):
        BufferPool(disk, capacity_pages=0)
