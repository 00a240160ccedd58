"""Run one fuzz case under every applicable evaluation path.

Per family:

``vpct``
    every Table 4 vertical strategy (insert join, no-reaggregation,
    update join, no indexes, mismatched indexes, single statement when
    legal), the OLAP window rewrite on the engine, the OLAP rewrite on
    sqlite, and sqlite replays of the insert-join and update-join
    plans.
``hpct``
    both CASE pivots (direct F, indirect FV), the hash-dispatch
    engine, and a sqlite replay of the direct CASE plan.
``hagg``
    the CASE pivots plus both SPJ forms, hash dispatch, and sqlite
    replays of the CASE and SPJ plans.
``plain``
    the engine executing the query directly versus sqlite -- a pure
    engine-vs-oracle check with no code generator in the loop.
``cube``
    the engine's shared-scan grouping-sets operator versus sqlite
    running the same CUBE/ROLLUP/GROUPING SETS query expanded into a
    UNION ALL of per-set plain group-bys (sqlite has no native
    grouping sets).  Any shared-scan derivation, partial-fold, or
    GROUPING() bitmask bug diverges from the independent per-set
    recomputation.

An exception is an outcome, not a crash: if **every** variant raises,
the engines agree the input is degenerate and the case is consistent;
a mix of rows and errors (or different rows) is a divergence.

``inject_bug="vpct-denominator"`` deliberately mis-compiles the OLAP
variant (drops the ``BY`` list, flipping the denominator from the
coarse level to the grand total).  The harness must then both detect
the divergence and reduce it -- the self-test behind the acceptance
criterion.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.api.database import Database
from repro.core import plan as plan_mod
from repro.engine import shm
from repro.storage import engine as storage_engine
from repro.core.execute import execute_plan, generate_plan
from repro.core.hagg import HorizontalAggStrategy
from repro.core.horizontal import HorizontalStrategy
from repro.core.model import parse_percentage_query
from repro.core.vertical import VerticalStrategy
from repro.errors import QueryTimeout
from repro.fuzz.comparator import compare_outcomes
from repro.fuzz.dialect import cube_to_union_sql
from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracle import (SqliteOracle, supports_update_from,
                               supports_windows)
from repro.obs.tracer import audit_statement_span, validate_span_tree
from repro.olap.windowgen import generate_olap_percentage_query

#: plan steps the oracle replay skips: DISCOVER/MATERIALIZE already ran
#: at generation time and indexes cannot change results.
_REPLAY_SKIP = frozenset({plan_mod.DISCOVER, plan_mod.MATERIALIZE,
                          plan_mod.INDEX})

INJECTABLE_BUGS = ("vpct-denominator",)


@dataclass
class VariantResult:
    """Outcome of one evaluation path."""

    name: str
    status: str                      # "rows" | "error" | "timeout"
    rows: Optional[list] = None
    error: Optional[str] = None

    @property
    def outcome(self) -> tuple:
        if self.status == "rows":
            return ("rows", self.rows)
        return ("error", self.error)


@dataclass
class CaseResult:
    case: FuzzCase
    variants: list[VariantResult] = field(default_factory=list)
    divergent: bool = False
    explanation: str = ""

    def divergence_report(self) -> str:
        lines = [f"case seed={self.case.seed} index={self.case.index} "
                 f"({self.case.family}): {self.explanation}",
                 f"  query: {self.case.query_sql()}",
                 f"  rows:  {len(self.case.rows)}"]
        for variant in self.variants:
            if variant.status == "error":
                lines.append(f"  {variant.name}: error {variant.error}")
            elif variant.status == "timeout":
                lines.append(f"  {variant.name}: timeout "
                             f"(excluded) {variant.error}")
            else:
                lines.append(f"  {variant.name}: {len(variant.rows)} "
                             f"rows {variant.rows!r}")
        return "\n".join(lines)


def run_case(case: FuzzCase,
             inject_bug: Optional[str] = None,
             case_timeout: Optional[float] = None,
             trace: bool = False,
             backends: Sequence[str] = (),
             storages: Sequence[str] = ()) -> CaseResult:
    """Evaluate every variant and compare outcomes pairwise.

    ``case_timeout`` puts every engine variant under the resource
    governor's wall-clock budget.  A timed-out variant is excluded
    from the divergence comparison (it produced no evidence either
    way) rather than counted as an error outcome, so a slow plan on a
    loaded machine cannot masquerade as a correctness divergence.

    ``backends`` adds one engine variant per named parallel backend
    (``serial``/``thread``/``process``), each with 2 workers and a
    2-row morsel target, so even the fuzzer's tiny tables actually fan
    out.  All must agree bit-for-bit with the serial variants and the
    oracle.  When ``process`` is among them, a
    shared-memory segment left live after the case counts as a
    divergence (the leaked names are reclaimed and reported).

    ``storages`` adds one engine variant per named table substrate
    beyond the default in-memory one (only ``"disk"`` adds anything:
    ``"memory"`` is the baseline every case already runs).  Disk
    variants run the family's primary strategies against a page-backed
    store in a fresh temp directory with a deliberately tiny buffer
    pool, so even small tables evict; they must agree bit-for-bit with
    the memory variants and the oracle.  A store directory left with
    stray files, or a store still open after its variant finished,
    counts as a divergence (mirroring the shared-memory leak oracle).

    ``trace`` runs every engine variant on a traced database and
    checks the trace after each successful run: every span tree must
    be well formed, every statement span must pass the charge audit,
    and the statement-span count must equal the ledger's statement
    count.  A malformed trace raises :class:`TraceValidationError`,
    which surfaces as an error outcome and therefore a divergence.
    """
    result = CaseResult(case=case)
    for name, thunk in _variants(case, inject_bug, case_timeout,
                                 trace, backends, storages):
        result.variants.append(_evaluate(name, thunk))
    if "process" in backends:
        leaked = shm.live_segment_names()
        if leaked:
            shm.force_unlink_all()
            result.divergent = True
            result.explanation = (f"leaked shared-memory segment(s): "
                                  f"{', '.join(leaked)}")
            return result
    if "disk" in storages:
        leaked = storage_engine.live_store_paths()
        if leaked:
            storage_engine.force_close_all()
            result.divergent = True
            result.explanation = (f"leaked live page store(s): "
                                  f"{', '.join(leaked)}")
            return result
    comparable = [v for v in result.variants if v.status != "timeout"]
    if not comparable:
        return result
    base = comparable[0]
    for other in comparable[1:]:
        difference = compare_outcomes(base.outcome, other.outcome)
        if difference is not None:
            result.divergent = True
            result.explanation = (f"{base.name} vs {other.name}: "
                                  f"{difference}")
            break
    return result


class TraceValidationError(Exception):
    """A traced fuzz variant produced a malformed or drifting trace."""


def _check_trace(db: Database) -> None:
    """Validate the trace a successful traced variant left behind.

    No-op on untraced databases.  Raises TraceValidationError when a
    span tree is malformed, a statement span fails the charge audit,
    or the trace recorded a different number of statements than the
    stats ledger (a span dropped or double-counted somewhere).
    """
    if not db.tracer.enabled:
        return
    roots = db.tracer.roots()
    if not roots:
        raise TraceValidationError("traced run produced no spans")
    statement_spans = 0
    try:
        for root in roots:
            validate_span_tree(root)
            for statement in root.find(kind="statement"):
                audit_statement_span(statement)
                statement_spans += 1
    except Exception as exc:
        raise TraceValidationError(str(exc)) from exc
    if statement_spans != db.stats.statements:
        raise TraceValidationError(
            f"statement-count drift: ledger recorded "
            f"{db.stats.statements} statements but the trace holds "
            f"{statement_spans} statement spans")


# ----------------------------------------------------------------------
def _evaluate(name: str, thunk: Callable[[], list]) -> VariantResult:
    try:
        rows = thunk()
    except QueryTimeout as exc:
        return VariantResult(name=name, status="timeout",
                             error=str(exc))
    except Exception as exc:  # noqa: BLE001 - errors are outcomes here
        return VariantResult(name=name, status="error",
                             error=type(exc).__name__)
    return VariantResult(name=name, status="rows", rows=rows)


def _load_db(case: FuzzCase, **db_kwargs: Any) -> Database:
    db = Database(**db_kwargs)
    db.load_table(case.table, list(case.columns),
                  [list(row) for row in case.rows])
    return db


def _strategy_rows(case: FuzzCase, strategy, **db_kwargs: Any) -> list:
    db = _load_db(case, **db_kwargs)
    try:
        plan = generate_plan(db, case.query_sql(), strategy)
        rows = execute_plan(db, plan).result.to_rows()
        _check_trace(db)
        return rows
    finally:
        db.close()


def _direct_rows(case: FuzzCase, **db_kwargs: Any) -> list:
    db = _load_db(case, **db_kwargs)
    try:
        rows = db.query(case.query_sql())
        _check_trace(db)
        return rows
    finally:
        db.close()


def _replay_rows(case: FuzzCase, strategy) -> list:
    """Generate a plan against the engine, execute it in sqlite."""
    db = _load_db(case)
    plan = generate_plan(db, case.query_sql(), strategy)
    statements = [step.sql for step in plan.steps
                  if step.purpose not in _REPLAY_SKIP]
    oracle = SqliteOracle(case.table, case.columns, case.rows)
    try:
        return oracle.replay_plan(statements, plan.result_select)
    finally:
        oracle.close()


def _olap_sql(case: FuzzCase, inject_bug: Optional[str]) -> str:
    query = parse_percentage_query(case.query_sql())
    if inject_bug == "vpct-denominator":
        for term in query.vertical_pct_terms():
            term.by_columns = ()
    return generate_olap_percentage_query(query)


def _engine_olap_rows(case: FuzzCase, inject_bug: Optional[str],
                      **db_kwargs: Any) -> list:
    db = _load_db(case, **db_kwargs)
    try:
        result = db.execute(_olap_sql(case, inject_bug))
        rows = result.to_rows()
        _check_trace(db)
        return rows
    finally:
        db.close()


def _sqlite_olap_rows(case: FuzzCase,
                      inject_bug: Optional[str]) -> list:
    sql = _olap_sql(case, inject_bug)
    oracle = SqliteOracle(case.table, case.columns, case.rows)
    try:
        return oracle.run_select(sql)
    finally:
        oracle.close()


def _sqlite_direct_rows(case: FuzzCase) -> list:
    oracle = SqliteOracle(case.table, case.columns, case.rows)
    try:
        return oracle.run_select(case.query_sql())
    finally:
        oracle.close()


def _sqlite_union_rows(case: FuzzCase) -> list:
    """Grouping-sets oracle: expand CUBE/ROLLUP/GROUPING SETS into the
    UNION ALL of its per-set plain group-bys and run that in sqlite.
    sqlite computes every set independently from the base rows, so any
    shared-scan derivation or partial-fold bug in the engine diverges
    from it."""
    sql = cube_to_union_sql(case.query_sql())
    oracle = SqliteOracle(case.table, case.columns, case.rows)
    try:
        return oracle.run_raw(sql)
    finally:
        oracle.close()


#: Engine options per ``--backend`` variant.  The parallel backends
#: get a 2-row morsel target so the fuzzer's tiny tables still split
#: into multiple morsels and exercise dispatch + merge.
_BACKEND_KW: dict[str, dict[str, Any]] = {
    "serial": {"parallel_workers": 2, "parallel_backend": "serial"},
    "thread": {"parallel_workers": 2, "parallel_backend": "thread",
               "morsel_rows": 2},
    "process": {"parallel_workers": 2, "parallel_backend": "process",
                "morsel_rows": 2},
}


#: Buffer-pool capacity for disk fuzz variants: small enough that the
#: fuzzer's tables still evict pages, so the pool's replacement path
#: is inside the differential net, not just the happy path.
_STORAGE_POOL_PAGES = 8

STORAGE_VARIANTS = ("memory", "disk")


class StorageLeakError(Exception):
    """A disk fuzz variant left debris in its store directory."""


def _disk_rows(runner: Callable[..., list]) -> list:
    """Run ``runner`` (a ``_strategy_rows``-style callable accepting
    Database kwargs) against a page-backed store in a fresh temp
    directory, then sweep the directory for stray files -- leaked
    checkpoint temps and the like surface as an error outcome and
    therefore a divergence."""
    tmp = tempfile.mkdtemp(prefix="repro-fuzz-store-")
    try:
        rows = runner(storage="disk", storage_path=tmp,
                      pool_pages=_STORAGE_POOL_PAGES)
        stray = storage_engine.stray_files(tmp)
        if stray:
            raise StorageLeakError(
                f"store left stray file(s): {', '.join(stray)}")
        return rows
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _storage_variants(case: FuzzCase, kw: dict[str, Any]
                      ) -> list[tuple[str, Callable[[], list]]]:
    """The disk twins of each family's primary strategies."""
    if case.family == "vpct":
        return [
            ("engine:join-insert-disk",
             lambda: _disk_rows(lambda **skw: _strategy_rows(
                 case, VerticalStrategy(), **skw, **kw))),
            ("engine:join-update-disk",
             lambda: _disk_rows(lambda **skw: _strategy_rows(
                 case, VerticalStrategy(use_update=True),
                 **skw, **kw))),
        ]
    if case.family in ("hpct", "hagg"):
        return [
            ("engine:case-direct-disk",
             lambda: _disk_rows(lambda **skw: _strategy_rows(
                 case, HorizontalStrategy(source="F"), **skw, **kw))),
            ("engine:case-indirect-disk",
             lambda: _disk_rows(lambda **skw: _strategy_rows(
                 case, HorizontalStrategy(source="FV"), **skw, **kw))),
        ]
    if case.family == "cube":
        return [
            ("engine:shared-scan-disk",
             lambda: _disk_rows(lambda **skw: _direct_rows(
                 case, **skw, **kw))),
        ]
    return [
        ("engine:direct-disk",
         lambda: _disk_rows(lambda **skw: _direct_rows(
             case, **skw, **kw))),
    ]


def _variants(case: FuzzCase, inject_bug: Optional[str],
              case_timeout: Optional[float] = None,
              trace: bool = False,
              backends: Sequence[str] = (),
              storages: Sequence[str] = ()
              ) -> list[tuple[str, Callable[[], list]]]:
    if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
        raise ValueError(f"unknown injectable bug {inject_bug!r}; "
                         f"known: {', '.join(INJECTABLE_BUGS)}")
    unknown = [b for b in backends if b not in _BACKEND_KW]
    if unknown:
        raise ValueError(f"unknown backend(s) {', '.join(unknown)}; "
                         f"known: {', '.join(_BACKEND_KW)}")
    unknown = [s for s in storages if s not in STORAGE_VARIANTS]
    if unknown:
        raise ValueError(f"unknown storage(s) {', '.join(unknown)}; "
                         f"known: {', '.join(STORAGE_VARIANTS)}")
    # Engine variants run under the governor's wall-clock budget; the
    # sqlite oracle has no governor, so only plan *generation* of the
    # replay variants is affected.
    kw: dict[str, Any] = {}
    if case_timeout is not None:
        kw["max_query_seconds"] = case_timeout
    if trace:
        kw["tracing"] = True
    if case.family == "vpct":
        variants = _vpct_variants(case, inject_bug, kw)
        for backend in backends:
            variants.append(
                (f"engine:join-insert-{backend}",
                 lambda b=backend: _strategy_rows(
                     case, VerticalStrategy(), **_BACKEND_KW[b], **kw)))
        if "disk" in storages:
            variants += _storage_variants(case, kw)
        return variants
    if case.family in ("hpct", "hagg"):
        variants = _horizontal_variants(case, kw)
        for backend in backends:
            variants += [
                (f"engine:case-direct-{backend}",
                 lambda b=backend: _strategy_rows(
                     case, HorizontalStrategy(source="F"),
                     **_BACKEND_KW[b], **kw)),
                (f"engine:case-indirect-{backend}",
                 lambda b=backend: _strategy_rows(
                     case, HorizontalStrategy(source="FV"),
                     **_BACKEND_KW[b], **kw)),
                (f"engine:case-direct-hash-{backend}",
                 lambda b=backend: _strategy_rows(
                     case, HorizontalStrategy(source="F"),
                     case_dispatch="hash", **_BACKEND_KW[b], **kw)),
            ]
        if "disk" in storages:
            variants += _storage_variants(case, kw)
        return variants
    if case.family == "cube":
        variants = [
            ("engine:shared-scan", lambda: _direct_rows(case, **kw)),
            ("sqlite:union-all", lambda: _sqlite_union_rows(case)),
        ]
        for backend in backends:
            variants.append(
                (f"engine:shared-scan-{backend}",
                 lambda b=backend: _direct_rows(case, **_BACKEND_KW[b],
                                                **kw)))
        if "disk" in storages:
            variants += _storage_variants(case, kw)
        return variants
    variants = [
        ("engine:direct", lambda: _direct_rows(case, **kw)),
        ("sqlite:direct", lambda: _sqlite_direct_rows(case)),
    ]
    for backend in backends:
        variants.append(
            (f"engine:direct-{backend}",
             lambda b=backend: _direct_rows(case, **_BACKEND_KW[b],
                                            **kw)))
    if "disk" in storages:
        variants += _storage_variants(case, kw)
    return variants


def _vpct_variants(case: FuzzCase, inject_bug: Optional[str],
                   kw: dict[str, Any]):
    variants = [
        ("engine:join-insert",
         lambda: _strategy_rows(case, VerticalStrategy(), **kw)),
        ("engine:join-rescan-fj",
         lambda: _strategy_rows(case,
                                VerticalStrategy(fj_from_fk=False),
                                **kw)),
        ("engine:join-update",
         lambda: _strategy_rows(case,
                                VerticalStrategy(use_update=True),
                                **kw)),
        ("engine:join-noindex",
         lambda: _strategy_rows(
             case, VerticalStrategy(create_indexes=False), **kw)),
        ("engine:join-mismatched-index",
         lambda: _strategy_rows(
             case, VerticalStrategy(matching_indexes=False), **kw)),
    ]
    if len(case.terms) == 1:
        variants.append(
            ("engine:single-statement",
             lambda: _strategy_rows(
                 case, VerticalStrategy(single_statement=True), **kw)))
    variants.append(("engine:olap-window",
                     lambda: _engine_olap_rows(case, inject_bug,
                                               **kw)))
    if supports_windows():
        variants.append(("sqlite:olap-window",
                         lambda: _sqlite_olap_rows(case, inject_bug)))
    variants.append(("sqlite:replay-join-insert",
                     lambda: _replay_rows(case, VerticalStrategy())))
    if supports_update_from():
        variants.append(
            ("sqlite:replay-join-update",
             lambda: _replay_rows(case,
                                  VerticalStrategy(use_update=True))))
    return variants


def _horizontal_variants(case: FuzzCase, kw: dict[str, Any]):
    variants = [
        ("engine:case-direct",
         lambda: _strategy_rows(case, HorizontalStrategy(source="F"),
                                **kw)),
        ("engine:case-indirect",
         lambda: _strategy_rows(case, HorizontalStrategy(source="FV"),
                                **kw)),
        ("engine:case-direct-hash",
         lambda: _strategy_rows(case, HorizontalStrategy(source="F"),
                                case_dispatch="hash", **kw)),
        ("sqlite:replay-case-direct",
         lambda: _replay_rows(case, HorizontalStrategy(source="F"))),
    ]
    if case.family == "hagg":
        variants += [
            ("engine:spj-direct",
             lambda: _strategy_rows(case,
                                    HorizontalAggStrategy(source="F"),
                                    **kw)),
            ("engine:spj-indirect",
             lambda: _strategy_rows(
                 case, HorizontalAggStrategy(source="FV"), **kw)),
            ("sqlite:replay-spj-direct",
             lambda: _replay_rows(case,
                                  HorizontalAggStrategy(source="F"))),
        ]
    return variants
