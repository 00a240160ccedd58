"""Per-layer metrics, read from outside.

Times come from the benchmark's spans around calls into each layer's
public functions and from the engine's existing operator spans folded
under them; counts come from counters the program already keeps
(``db.stats``, ``db.storage_info()``, ``db.metrics``).  A layer is a
package under ``src/repro``.

Times and counts are *per op*: the median over cycles of the layer's
total in a cycle, divided by the ops in a cycle -- except where the
name says otherwise (ratios, ``*_build_ms``, ``reopen_ms``, sizes).
Times are at nominal host speed, like the end-to-end ones: a span's
seconds are divided by its cycle's host factor (reference.py).
Core times are self times (the feedback statements the optimizer and
the generator run are charged to ``sql`` and ``engine``), so layer
times add up to an op instead of counting a statement twice.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from .pipeline import Op
from .spans import Recorder, children_of, duration, self_time
from .stats import geomean, median, percentile
from .workloads import VIEW_NAME, Context

#: name -> (unit, better).  BENCHMARK.json lists the same names; the
#: selftest holds the two together.
PER_LAYER = {
    "sql.tokenize_ms": ("ms", "lower"),
    "sql.parse_ms": ("ms", "lower"),
    "sql.text_bytes": ("bytes", "lower"),
    "sql.statements": ("count", "lower"),
    "core.parse_query_ms": ("ms", "lower"),
    "core.optimize_ms": ("ms", "lower"),
    "core.codegen_ms": ("ms", "lower"),
    "core.feedback_statements": ("count", "lower"),
    "core.cleanup_ms": ("ms", "lower"),
    "core.plan_overhead_ms": ("ms", "lower"),
    "engine.create_table_ms": ("ms", "lower"),
    "engine.insert_select_ms": ("ms", "lower"),
    "engine.update_ms": ("ms", "lower"),
    "engine.create_index_ms": ("ms", "lower"),
    "engine.select_ms": ("ms", "lower"),
    "engine.drop_ms": ("ms", "lower"),
    "engine.join_ms": ("ms", "lower"),
    "engine.groupby_build_ms": ("ms", "lower"),
    "engine.groupby_aggregate_ms": ("ms", "lower"),
    "engine.pivot_ms": ("ms", "lower"),
    "engine.grouping_sets_ms": ("ms", "lower"),
    "engine.statement_self_ms": ("ms", "lower"),
    "engine.rows_scanned": ("count", "lower"),
    "engine.rows_written": ("count", "lower"),
    "engine.rows_updated": ("count", "lower"),
    "engine.rows_joined": ("count", "lower"),
    "engine.case_evaluations": ("count", "lower"),
    "engine.index_lookups": ("count", "higher"),
    "engine.encode_cache_hit_ratio": ("ratio", "higher"),
    "engine.encode_cache_evictions": ("count", "lower"),
    "api.materialize_ms": ("ms", "lower"),
    "api.result_cells": ("count", "lower"),
    "api.op_tail_ratio_p90": ("ratio", "lower"),
    "olap.windowgen_ms": ("ms", "lower"),
    "storage.page_fetches": ("count", "lower"),
    "storage.page_reads": ("count", "lower"),
    "storage.pool_hit_ratio": ("ratio", "higher"),
    "storage.evictions": ("count", "lower"),
    "storage.pages_written": ("count", "lower"),
    "storage.wal_bytes": ("bytes", "lower"),
    "storage.write_amplification": ("ratio", "lower"),
    "storage.allocated_pages": ("count", "lower"),
    "storage.checkpoint_ms": ("ms", "lower"),
    "storage.reopen_ms": ("ms", "lower"),
    "views.build_ms": ("ms", "lower"),
    "views.maintenance_ms": ("ms", "lower"),
    "views.hit_ratio": ("ratio", "higher"),
    "views.read_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.rejections": ("count", "lower"),
    "service.brownouts": ("count", "lower"),
    "obs.tracing_overhead_ratio": ("ratio", "lower"),
    "obs.spans_per_op": ("count", "lower"),
    "obs.trace_coverage": ("ratio", "higher"),
    "obs.host_speed_factor": ("ratio", "lower"),
    "datagen.load_ms": ("ms", "lower"),
    "write_ms_geomean": ("ms", "lower"),
    "disk_bytes_per_user_byte": ("ratio", "lower"),
}

#: Fewest ops from which a p90 is reported.
TAIL_MIN_OPS = 40

_STATS = ("rows_scanned", "rows_written", "rows_updated", "rows_joined",
          "case_evaluations", "index_lookups", "encode_cache_hits",
          "encode_cache_misses", "encode_cache_evictions",
          "storage_page_fetches", "storage_page_reads",
          "storage_pool_hits")
_ENGINE_OPS = {"join": "join", "groupby_build": "group-by-build",
               "groupby_aggregate": "group-by-aggregate", "pivot": "pivot",
               "grouping_sets": "grouping-sets-build"}
_CLASSES = ("create_table", "insert_select", "update", "create_index",
            "select", "drop")


class Probe:
    """Counter readings around the traced pass, and -- on a disk
    store -- after each op, for what only shows per op: the WAL's size
    before a checkpoint truncates it, and the view-maintenance gauge
    the engine overwrites at every refresh."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.on_disk = ctx.store_dir is not None
        self.before = self._read()
        self.after: dict[str, float] = {}
        self.wal_bytes: list[int] = []
        self.maintenance_seconds = 0.0
        self.rows_changed = 0
        self._refreshes = self._view_samples()
        self._wal_seen = 0

    def _read(self) -> dict[str, float]:
        db = self.ctx.db
        snapshot = db.stats.snapshot()
        out = {name: getattr(snapshot, name) for name in _STATS}
        if self.on_disk:
            info = db.storage_info()
            out.update(evictions=info["pool"]["evictions"],
                       pages_written=info["pool"]["pages_written"],
                       allocated_pages=info["allocated_pages"],
                       page_size=info["page_size"])
            out["view_hits"] = db.metrics.samples().get(
                f'view_hits_total{{view="{VIEW_NAME}"}}', 0)
        return out

    def _view_samples(self) -> dict[str, tuple[float, float]]:
        if not self.on_disk:
            return {}
        samples = self.ctx.db.metrics.samples()
        return {mode: (samples.get(
            f'view_refreshes_total{{mode="{mode}",view="{VIEW_NAME}"}}', 0),
            samples.get(f'view_maintenance_seconds{{mode="{mode}",'
                        f'view="{VIEW_NAME}"}}', 0.0))
            for mode in ("delta", "full")}

    def after_op(self, op: Op, value) -> None:
        if not self.on_disk:
            return
        now = self._view_samples()
        for mode, (count, seconds) in now.items():
            if count > self._refreshes[mode][0]:
                self.maintenance_seconds += seconds
        self._refreshes = now
        wal = self.ctx.db.storage_info()["wal_bytes"]
        if op.kind == "write":
            self.rows_changed += value
            self.wal_bytes.append(wal - self._wal_seen)
        self._wal_seen = wal

    def close(self) -> None:
        self.after = self._read()

    def delta(self, name: str) -> float:
        return self.after.get(name, 0) - self.before.get(name, 0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(ctx: Context, untraced, traced, recorder: Recorder,
              probe: Probe) -> dict[str, tuple[float, str]]:
    spans = recorder.spans
    kids = children_of(spans)
    roots = {s["op"]: s for s in spans if s["parent"] is None}
    # The pass ran cycles 1..n; cycle c's host factor is factors[c - 1].
    cycles = range(1, len(traced.cycles) + 1)
    ops_per_cycle = traced.ops_per_cycle()
    ops = traced.ops

    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    named = by_name.__getitem__
    statements = [s for s in spans
                  if s["name"].startswith("engine.statement.")]

    def per_op(picked: Iterable[dict],
               value: Callable[[dict], float] = duration,
               timed: bool = True) -> float:
        """Median over cycles of the summed ``value`` of the picked
        spans, per op.  Seconds (``timed``) are brought to nominal
        host speed; counts are not."""
        sums = defaultdict(float)
        for span in picked:
            sums[roots[span["op"]]["attrs"]["cycle"]] += value(span)
        return median([
            sums[c] / (traced.factors[c - 1] if timed else 1.0)
            for c in cycles]) / ops_per_cycle

    def count(picked: Iterable[dict],
              value: Callable[[dict], float] = lambda s: 1) -> float:
        return per_op(picked, value, timed=False)

    def own(span: dict) -> float:
        return self_time(span, kids[span["id"]])

    out: dict[str, float] = {}
    tokenize = per_op(named("sql.tokenize"))
    out["sql.tokenize_ms"] = tokenize * 1e3
    # parse_statement lexes too; what is left is parsing proper.
    out["sql.parse_ms"] = max(0.0, per_op(named("sql.parse")) - tokenize) * 1e3
    out["sql.text_bytes"] = count(named("sql.tokenize"),
                                  lambda s: s["attrs"]["bytes"])
    out["sql.statements"] = count(named("sql.tokenize"))
    for stage in ("parse_query", "optimize", "codegen", "cleanup"):
        out[f"core.{stage}_ms"] = per_op(named("core." + stage), own) * 1e3

    # Statements the optimizer and the generator ran for themselves.
    out["core.feedback_statements"] = count(
        s for s in statements if s["parent"] is not None
        and spans[s["parent"]]["name"] in ("core.optimize", "core.codegen"))
    for cls in _CLASSES:
        out[f"engine.{cls}_ms"] = per_op(
            named("engine.statement." + cls)) * 1e3
    for metric, tracer_name in _ENGINE_OPS.items():
        out[f"engine.{metric}_ms"] = per_op(
            named("engine.op." + tracer_name)) * 1e3
    out["engine.statement_self_ms"] = per_op(statements, own) * 1e3
    for counter in ("rows_scanned", "rows_written", "rows_updated",
                    "rows_joined", "case_evaluations", "index_lookups",
                    "encode_cache_evictions"):
        out["engine." + counter] = probe.delta(counter) / ops
    hits = probe.delta("encode_cache_hits")
    out["engine.encode_cache_hit_ratio"] = _ratio(
        hits, hits + probe.delta("encode_cache_misses"))
    out["api.materialize_ms"] = per_op(named("api.materialize")) * 1e3
    out["api.result_cells"] = count(named("api.materialize"),
                                    lambda s: s["attrs"]["cells"])
    out["olap.windowgen_ms"] = per_op(named("olap.windowgen")) * 1e3

    # Untraced against traced, type by type.
    plain = untraced.type_medians()
    ratios = [seconds / plain[name]
              for name, values in untraced.latencies().items()
              for seconds in values]
    out["api.op_tail_ratio_p90"] = percentile(ratios, 90) \
        if len(ratios) >= TAIL_MIN_OPS else 0.0
    # Per op tree: the staged spans' sum and the whole traced op, both
    # without the extra lexer passes, which the untraced op does not
    # make.  Coverage says how much of an untraced op the stages
    # explain; what is left over is plan overhead nobody staged
    # (savepoint, governor window, retry wrapper).
    extra = defaultdict(float)   # op id -> seconds of extra lexing
    for span in named("sql.tokenize"):
        extra[span["op"]] += duration(span)
    staged, whole = defaultdict(list), defaultdict(list)
    for root in roots.values():
        if root["name"] == "op":
            factor = traced.factors[root["attrs"]["cycle"] - 1]
            lexing = extra[root["op"]]
            staged[root["attrs"]["type"]].append(
                (sum(map(duration, kids[root["id"]])) - lexing) / factor)
            whole[root["attrs"]["type"]].append(
                (duration(root) - lexing) / factor)
    staged_cycle = sum(median(v) for v in staged.values())
    plain_cycle = sum(plain.values())
    out["obs.trace_coverage"] = staged_cycle / plain_cycle
    out["core.plan_overhead_ms"] = \
        (plain_cycle - staged_cycle) / len(plain) * 1e3
    out["obs.tracing_overhead_ratio"] = \
        sum(median(v) for v in whole.values()) / plain_cycle
    out["obs.spans_per_op"] = sum(
        s["attrs"].get("tracer_spans", 0) for s in spans) / ops

    out["storage.page_fetches"] = probe.delta("storage_page_fetches") / ops
    out["storage.page_reads"] = probe.delta("storage_page_reads") / ops
    out["storage.pool_hit_ratio"] = _ratio(
        probe.delta("storage_pool_hits"),
        probe.delta("storage_page_fetches"))
    out["storage.evictions"] = probe.delta("evictions") / ops
    out["storage.pages_written"] = probe.delta("pages_written") / ops
    out["storage.wal_bytes"] = median(probe.wal_bytes) \
        if probe.wal_bytes else 0.0
    out["storage.allocated_pages"] = probe.after.get("allocated_pages", 0)
    out["storage.checkpoint_ms"] = per_op(
        named("storage.checkpoint")) * ops_per_cycle * 1e3
    # Once-per-run times take the host factor read nearest to them.
    out["storage.reopen_ms"] = \
        ctx.reopen_seconds / traced.factors[-1] * 1e3
    out["views.build_ms"] = ctx.view_build_seconds / ctx.host_factor * 1e3
    latencies = traced.latencies()
    n_writes = sum(len(values) for name, values in latencies.items()
                   if traced.kinds[name] == "write")
    out["views.maintenance_ms"] = _ratio(
        probe.maintenance_seconds / median(traced.factors), n_writes) * 1e3
    out["views.hit_ratio"] = _ratio(probe.delta("view_hits"),
                                    len(latencies.get("view_read", [])))
    out["views.read_ms"] = plain.get("view_read", 0.0) * 1e3
    out["service.queue_wait_ms"] = per_op(
        named("service.queue_wait")) * 1e3
    out["service.overhead_ms"] = per_op(
        named("op"), lambda s: s["attrs"].get("service_overhead", 0.0)) * 1e3
    out["obs.host_speed_factor"] = median(traced.factors)
    out["service.rejections"] = untraced.rejected + traced.rejected
    out["service.brownouts"] = sum(
        s["attrs"].get("brownout", 0) for s in roots.values())
    out["datagen.load_ms"] = ctx.load_seconds / ctx.host_factor * 1e3
    writes = untraced.type_medians("write")
    out["write_ms_geomean"] = \
        geomean(list(writes.values())) * 1e3 if writes else 0.0

    # Space and write cost, against the user's own bytes: every sales
    # column is 8 bytes wide.
    row_bytes = 8 * 9
    if probe.on_disk:
        page_size = probe.after["page_size"]
        user_bytes = (ctx.rows["sales"] + ctx.rows_added) * row_bytes
        out["disk_bytes_per_user_byte"] = \
            probe.after["allocated_pages"] * page_size / user_bytes
        out["storage.write_amplification"] = _ratio(
            probe.delta("pages_written") * page_size,
            probe.rows_changed * row_bytes)
    else:
        out["disk_bytes_per_user_byte"] = 0.0
        out["storage.write_amplification"] = 0.0
    return {name: (out[name], unit)
            for name, (unit, _) in PER_LAYER.items()}
