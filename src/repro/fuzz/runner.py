"""Run one fuzz case under every applicable evaluation path.

Per family:

``vpct``
    every Table 4 vertical strategy (insert join, no-reaggregation,
    update join, no indexes, mismatched indexes, single statement when
    legal), the OLAP window rewrite on the engine, the OLAP rewrite on
    sqlite, and sqlite replays of the insert-join and update-join
    plans.  Every engine result, on every matrix cell, is also held to
    the paper's identity that a term's percentages sum to 1 within
    each parent group (:func:`_vpct_identities`).
``hpct``
    both CASE pivots (direct F, indirect FV) and a sqlite replay of
    the direct CASE plan -- the independent oracle for the pivot
    kernel, which computes every engine variant's CASE fan-out.  Every
    engine result is also held to two of the paper's identities
    (:func:`_hpct_identities`): a row's percentages sum to 1, and the
    result is the transposed Vpct result.
``hagg``
    the CASE pivots plus both SPJ forms, and sqlite replays of the
    CASE and SPJ plans.
``plain``
    the engine executing the query directly versus sqlite -- a pure
    engine-vs-oracle check with no code generator in the loop.
``cube``
    the engine's shared-scan grouping-sets operator versus sqlite
    running the same CUBE/ROLLUP/GROUPING SETS query expanded into a
    UNION ALL of per-set plain group-bys (sqlite has no native
    grouping sets).  Any shared-scan derivation or GROUPING() bitmask
    bug diverges from the independent per-set recomputation.

Variant names follow one rule: ``engine:<strategy>`` runs on a plain
``Database()`` (the matrix's ``memory`` cell),
``engine:<strategy>@<storage>`` is the same strategy on another cell
of the variant matrix (:mod:`repro.fuzz.variants`), and
``sqlite:<path>`` is an oracle run.

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

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.api.database import Database
from repro.core import plan as plan_mod
from repro.core.execute import execute_plan, generate_plan
from repro.core.hagg import HorizontalAggStrategy
from repro.core.horizontal import HorizontalStrategy
from repro.core.model import parse_percentage_query
from repro.core.vertical import VerticalStrategy
from repro.errors import QueryCancelledError
from repro.fuzz.comparator import compare_outcomes
from repro.fuzz.dialect import cube_to_union_sql
from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracle import (SqliteOracle, supports_update_from,
                               supports_windows)
from repro.fuzz.variants import LeakError, Variant, open_variant
from repro.obs.tracer import audit_statement_span, validate_span_tree
from repro.olap.windowgen import generate_olap_percentage_query
from repro.sql.ast import expand_families, typed
from repro.sql.parser import parse_statement

#: plan steps the oracle replay skips: DISCOVER/MATERIALIZE already ran
#: at generation time and indexes cannot change results.
_REPLAY_SKIP = frozenset({plan_mod.DISCOVER, plan_mod.MATERIALIZE,
                          plan_mod.INDEX})

INJECTABLE_BUGS = ("vpct-denominator",)


@dataclass
class VariantResult:
    """Outcome of one evaluation path."""

    name: str
    #: "rows" | "error" | "timeout" | "leak" | "printer" | "identity"
    status: str
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

    @property
    def printer_finding(self) -> bool:
        """Whether the case diverged because a plan's printed text is
        not the tree the engine ran -- a formatter slip, not an engine
        one."""
        return any(v.status == "printer" for v in self.variants)

    def divergence_report(self) -> str:
        lines = [f"case seed={self.case.seed} index={self.case.index} "
                 f"({self.case.family}): {self.explanation}",
                 f"  query: {self.case.query_sql()}",
                 f"  rows:  {len(self.case.rows)}"]
        for variant in self.variants:
            if variant.status == "rows":
                lines.append(f"  {variant.name}: {len(variant.rows)} "
                             f"rows {variant.rows!r}")
            else:
                excluded = " (excluded)" * (variant.status == "timeout")
                lines.append(f"  {variant.name}: {variant.status}"
                             f"{excluded} {variant.error}")
        return "\n".join(lines)


def run_case(case: FuzzCase,
             inject_bug: Optional[str] = None,
             case_timeout: Optional[float] = None,
             trace: bool = False,
             variants: Sequence[Variant] = ()) -> CaseResult:
    """Evaluate every variant and compare outcomes pairwise.

    ``case_timeout`` opens every engine variant's database with that
    ``default_deadline_seconds``.  A timed-out variant is excluded
    from the divergence comparison (it produced no evidence either
    way) rather than counted as an error outcome, so a slow plan on a
    loaded machine cannot masquerade as a correctness divergence.

    ``variants`` adds, per matrix cell other than the baseline's, one
    engine variant for each of the family's primary strategies (see
    :func:`_strategies`).  The disk cell runs against a page-backed
    store with a deliberately tiny buffer pool, so even small tables
    evict.  All must agree bit-for-bit with the baseline variants and
    the oracle.  Every engine database is built by
    :func:`~repro.fuzz.variants.open_variant`, so debris -- a page
    store left open, a stray store file, a plan temp table -- counts
    as a divergence whatever else the variant returned.

    ``trace`` runs every engine variant on a traced database and
    checks the trace after each successful run: every span tree must
    be well formed, every statement span must pass the charge audit,
    and the statement-span count must equal the ledger's statement
    count.  A malformed trace raises :class:`TraceValidationError`,
    which surfaces as an error outcome and therefore a divergence.
    """
    result = CaseResult(case=case)
    for name, thunk in _variants(case, inject_bug, case_timeout,
                                 trace, variants):
        result.variants.append(_evaluate(name, thunk))
    for variant in result.variants:
        if variant.status in ("leak", "printer", "identity"):
            result.divergent = True
            result.explanation = f"{variant.name}: {variant.error}"
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
    except LeakError as exc:
        return VariantResult(name=name, status="leak", error=str(exc))
    except PrinterMismatch as exc:
        return VariantResult(name=name, status="printer",
                             error=f"printer finding: {exc}")
    except IdentityViolation as exc:
        return VariantResult(name=name, status="identity",
                             error=f"identity violated: {exc}")
    except Exception as exc:  # noqa: BLE001 - errors are outcomes here
        if isinstance(exc, QueryCancelledError) \
                and exc.reason == "deadline":
            return VariantResult(name=name, status="timeout",
                                 error=str(exc))
        return VariantResult(name=name, status="error",
                             error=type(exc).__name__)
    return VariantResult(name=name, status="rows", rows=rows)


def _engine_rows(case: FuzzCase, strategy: "_Strategy",
                 variant: Variant, db_kwargs: dict[str, Any]) -> list:
    with open_variant(case, variant, **db_kwargs) as db:
        rows = strategy.rows(case, db)
        if case.family == "vpct":
            _vpct_identities(case, rows)
        _check_trace(db)
        return rows


class PrinterMismatch(Exception):
    """A plan's printed text parses to a tree other than the one the
    engine ran: the formatter is at fault, not the engine."""


def _replay_rows(case: FuzzCase, strategy) -> list:
    """Generate a plan against the engine, execute it in sqlite.  The
    engine runs the plan's trees and sqlite their printed text, so
    each replayed text must first parse back to its tree (typed, cell
    families expanded into their items); a slip raises
    :class:`PrinterMismatch`."""
    with open_variant(case, Variant()) as db:
        plan = generate_plan(db, case.query_sql(), strategy)
    replayed = [(step.sql, step.statement) for step in plan.steps
                if step.purpose not in _REPLAY_SKIP]
    replayed.append((plan.result_select, plan.result_statement))
    for text, statement in replayed:
        if typed(parse_statement(text)) \
                != typed(expand_families(statement)):
            raise PrinterMismatch(f"text does not parse to its tree: "
                                  f"{text}")
    statements = [text for text, _ in replayed[:-1]]
    return _on_sqlite(case, lambda oracle: oracle.replay_plan(
        statements, plan.result_select))


def _on_sqlite(case: FuzzCase,
               run: Callable[[SqliteOracle], list]) -> list:
    oracle = SqliteOracle(case.table, case.columns, case.rows)
    try:
        return run(oracle)
    finally:
        oracle.close()


def _olap_sql(case: FuzzCase, inject_bug: Optional[str]) -> str:
    query = parse_percentage_query(case.query_sql())
    if inject_bug == "vpct-denominator":
        for term in query.vertical_pct_terms():
            term.by_columns = ()
    return generate_olap_percentage_query(query)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Strategy:
    """One engine evaluation path of a family."""

    name: str
    rows: Callable[[FuzzCase, Database], list]
    #: Primary strategies are crossed with the variant matrix; the
    #: rest run on the baseline database only.
    primary: bool = False


def _plan(name: str, strategy, primary: bool = False) -> _Strategy:
    """The generated multi-statement plan of ``strategy``; an Hpct
    result is checked against the paper's identities on the spot."""
    def rows(case: FuzzCase, db: Database) -> list:
        plan = generate_plan(db, case.query_sql(), strategy)
        result = execute_plan(db, plan).result.to_rows()
        if case.family == "hpct":
            _hpct_identities(case, db, plan, result)
        return result
    return _Strategy(name, rows, primary)


class IdentityViolation(Exception):
    """An engine result breaks one of the paper's identities."""


def _hpct_identities(case: FuzzCase, db: Database, plan,
                     rows: list) -> None:
    """Hold an Hpct result to two identities (ROADMAP 8(a)).

    - Each term's percentages in a row sum to 1 within 1e-9 when the
      group's total is positive and no cell is NULL.
    - The term is its Vpct result transposed: the cell of a BY
      combination is the Vpct row of (group, combination) -- within
      1e-9 -- and a combination with no Vpct row is 0, or NULL when
      the whole row is (a zero or all-NULL total).

    The generator's measures are small dyadic values, so every total
    is exact whatever order it is summed in."""
    n_keys = len(case.group_by)
    names = case.column_names()
    at = n_keys
    for position, term in enumerate(case.terms):
        if term.kind != "hpct":
            at += 1
            continue
        # The select list puts the grouping columns first.
        combos = plan.discovered[n_keys + position]
        keys = [names.index(c) for c in case.group_by]
        measure = names.index(term.argument)
        totals: dict[tuple, list] = {}
        for row in case.rows:
            values = totals.setdefault(tuple(row[k] for k in keys), [])
            if row[measure] is not None:
                values.append(row[measure])
        columns = list(case.group_by) + list(term.by)
        vpct_sql = (f"SELECT {', '.join(columns)}, Vpct({term.argument} "
                    f"BY {', '.join(term.by)}) FROM {case.table} "
                    f"GROUP BY {', '.join(columns)}")
        vpct = {tuple(row[:-1]): row[-1] for row in execute_plan(
            db, generate_plan(db, vpct_sql)).result.to_rows()}
        for row in rows:
            group, cells = tuple(row[:n_keys]), row[at:at + len(combos)]
            values = totals.get(group, [])
            if values and sum(values) > 0 and None not in cells \
                    and abs(sum(cells) - 1.0) > 1e-9:
                raise IdentityViolation(
                    f"{term.sql()} row {group} sums to {sum(cells)!r}")
            for combo, cell in zip(combos, cells):
                if group + tuple(combo) in vpct:
                    expected = vpct[group + tuple(combo)]
                    same = expected is None and cell is None or (
                        expected is not None and cell is not None
                        and abs(cell - expected)
                        <= 1e-9 * max(1.0, abs(expected)))
                else:
                    whole_null = all(c is None for c in cells)
                    same = cell is None if whole_null else cell == 0
                    expected = "no Vpct row"
                if not same:
                    raise IdentityViolation(
                        f"{term.sql()} cell {group + tuple(combo)} is "
                        f"{cell!r}, Vpct says {expected!r}")
        at += len(combos)


def _vpct_identities(case: FuzzCase, rows: list) -> None:
    """Hold a Vpct result to the paper's identity (ROADMAP 8(a)): a
    term's percentages sum to 1 within 1e-9 over the rows of each
    parent group -- the GROUP BY columns minus the term's BY columns,
    the level its totals are taken at (none: the grand total).  A
    group whose total is NULL or 0 is skipped; a row whose own sum is
    NULL adds nothing to its parent's total and nothing to the sum.

    The generator's measures are small dyadic values, so every total
    is exact whatever order it is summed in."""
    n_keys = len(case.group_by)
    names = case.column_names()
    for position, term in enumerate(case.terms):
        if term.kind != "vpct":
            continue
        parent = [i for i, c in enumerate(case.group_by)
                  if c not in term.by] if term.by else []
        keys = [names.index(case.group_by[i]) for i in parent]
        measure = names.index(term.argument)
        totals: dict[tuple, float] = {}
        for row in case.rows:
            if row[measure] is not None:
                group = tuple(row[k] for k in keys)
                totals[group] = totals.get(group, 0) + row[measure]
        sums: dict[tuple, float] = {}
        for row in rows:
            cell = row[n_keys + position]
            group = tuple(row[i] for i in parent)
            sums[group] = sums.get(group, 0.0) + (cell or 0.0)
        for group, total in totals.items():
            if total != 0 and abs(sums.get(group, 0.0) - 1.0) > 1e-9:
                raise IdentityViolation(
                    f"{term.sql()} parent group {group} sums to "
                    f"{sums.get(group, 0.0)!r}")


def _direct(name: str) -> _Strategy:
    """The engine executing the query as one statement."""
    return _Strategy(name, lambda case, db: db.query(case.query_sql()),
                     primary=True)


def _strategies(case: FuzzCase, inject_bug: Optional[str]
                ) -> tuple[list[_Strategy],
                           list[tuple[str, Callable[[], list]]]]:
    """The family's strategy table: engine strategies (the primary
    ones are crossed with the matrix) and sqlite oracle variants."""
    if case.family == "vpct":
        engine = [
            _plan("join-insert", VerticalStrategy(), primary=True),
            _plan("join-rescan-fj", VerticalStrategy(fj_from_fk=False)),
            _plan("join-update", VerticalStrategy(use_update=True),
                  primary=True),
            _plan("join-noindex",
                  VerticalStrategy(create_indexes=False)),
            _plan("join-mismatched-index",
                  VerticalStrategy(matching_indexes=False)),
        ]
        if len(case.terms) == 1:
            engine.append(_plan(
                "single-statement",
                VerticalStrategy(single_statement=True)))
        engine.append(_Strategy(
            "olap-window", lambda case, db: db.execute(
                _olap_sql(case, inject_bug)).to_rows()))
        sqlite = []
        if supports_windows():
            sqlite.append(("olap-window", lambda: _on_sqlite(
                case, lambda oracle: oracle.run_select(
                    _olap_sql(case, inject_bug)))))
        sqlite.append(("replay-join-insert",
                       lambda: _replay_rows(case, VerticalStrategy())))
        if supports_update_from():
            sqlite.append(("replay-join-update", lambda: _replay_rows(
                case, VerticalStrategy(use_update=True))))
        return engine, sqlite
    if case.family in ("hpct", "hagg"):
        engine = [
            _plan("case-direct", HorizontalStrategy(source="F"),
                  primary=True),
            _plan("case-indirect", HorizontalStrategy(source="FV"),
                  primary=True),
        ]
        sqlite = [("replay-case-direct", lambda: _replay_rows(
            case, HorizontalStrategy(source="F")))]
        if case.family == "hagg":
            engine += [
                _plan("spj-direct", HorizontalAggStrategy(source="F")),
                _plan("spj-indirect",
                      HorizontalAggStrategy(source="FV")),
            ]
            sqlite.append(("replay-spj-direct", lambda: _replay_rows(
                case, HorizontalAggStrategy(source="F"))))
        return engine, sqlite
    if case.family == "cube":
        # sqlite computes every set independently from the base rows,
        # so any shared-scan derivation bug in the engine diverges
        # from it.
        return [_direct("shared-scan")], [
            ("union-all", lambda: _on_sqlite(
                case, lambda oracle: oracle.run_raw(
                    cube_to_union_sql(case.query_sql()))))]
    return [_direct("direct")], [
        ("direct", lambda: _on_sqlite(
            case, lambda oracle: oracle.run_select(case.query_sql())))]


def _variants(case: FuzzCase, inject_bug: Optional[str],
              case_timeout: Optional[float] = None,
              trace: bool = False,
              variants: Sequence[Variant] = ()
              ) -> list[tuple[str, Callable[[], list]]]:
    if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
        raise ValueError(f"unknown injectable bug {inject_bug!r}; "
                         f"known: {', '.join(INJECTABLE_BUGS)}")
    # Only engine variants run under the deadline; the sqlite oracle
    # has none.
    kw: dict[str, Any] = {}
    if case_timeout is not None:
        kw["default_deadline_seconds"] = case_timeout
    if trace:
        kw["tracing"] = True
    engine, sqlite = _strategies(case, inject_bug)

    def on(strategy: _Strategy, variant: Variant) -> Callable[[], list]:
        return partial(_engine_rows, case, strategy, variant, kw)

    # The baseline (engine defaults) first: it is the comparison base.
    baseline = Variant()
    return ([(f"engine:{s.name}", on(s, baseline)) for s in engine]
            + [(f"sqlite:{name}", thunk) for name, thunk in sqlite]
            + [(f"engine:{s.name}@{v.name}", on(s, v))
               for v in variants if v != baseline
               for s in engine if s.primary])
