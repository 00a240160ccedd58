"""The sweep: injection kinds x the variant matrix x one post-condition set.

The differential runner asks "do all strategies agree?".  The sweep
*disturbs* a query -- faults it, cancels it, mutates the table under
its materialized view -- on every cell of the variant matrix
(:mod:`repro.fuzz.variants`) and holds what is left to one set of
post-conditions, stated once in :data:`POSTCONDITIONS` and checked by
:class:`_Run` after every single shot.

An *injection kind* (:data:`KINDS`) supplies only what is specific to
its disturbance: how an undisturbed probe run turns into a list of
:class:`Shot` s, how one shot is armed, and the verdict on an armed
run.  A new site or feature gets cross-variant coverage by
registering -- in ``faults.SITES`` or :data:`KINDS` -- not by writing
another harness.
"""

from __future__ import annotations

import textwrap
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, Iterator, Optional,
                    Sequence)

from repro.api.database import Database
from repro.core.execute import (RetryPolicy, run_percentage_query,
                                run_resilient)
from repro.core.horizontal import HorizontalStrategy
from repro.core.vertical import VerticalStrategy
from repro.engine import cancel as cancel_mod
from repro.engine import faults
from repro.engine.cancel import CancelToken
from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.table import Table
from repro.errors import QueryCancelledError, ReproError
from repro.fuzz.comparator import table_diff
from repro.fuzz.generator import PLAN_FAMILIES, FuzzCase, dml_script
from repro.fuzz.variants import (AXIS_DESCRIPTIONS, LeakError, Variant,
                                 leaks, matrix, open_variant)
from repro.views import maintenance

#: What must hold after every leg of every shot, whatever the kind.
POSTCONDITIONS = {
    "outcome": "every leg returns a result or raises a typed "
               "ReproError; nothing untyped escapes",
    "catalog": "catalog.fingerprint() is unchanged after a leg that "
               "raised and after any leg of a read-only target (a "
               "mutating target's committed leg is rolled back before "
               "the next one)",
    "leaks": "zero _-prefixed temp tables, and once the variant "
             "closes zero open page stores or stray store files",
    "re-run": "a clean re-run after the shot is bit-identical "
              "(table_diff) to the undisturbed reference; a fault "
              "shot that recovers returns the reference rows "
              "(strategy fallback may re-plan, so rows not bits)",
    "fresh": "wherever a materialized view rides along (views; "
             "cancel's DML target): after every committed DML each "
             "dependent view satisfies mv.fresh(base) and "
             "view_refreshes_total{mode=\"full\"} did not move -- the "
             "write delta-maintained it, on every storage",
}

#: Retries should not slow the sweep down.
_NO_BACKOFF = RetryPolicy(backoff_seconds=0.0)

#: The materialized view the views kind and the cancel kind's DML leg
#: create and drop.
VIEW_NAME = "v_fuzz"


def _sample_indexes(hits: int) -> list[int]:
    """First, middle and last hit of a hot site: sites like
    ``page-fetch`` are crossed many times per query, and every
    storage-site shot pays a store build + reopen."""
    return sorted({0, hits // 2, hits - 1}) if hits > 0 else []


@dataclass
class Finding:
    """One broken post-condition or verdict observed under one shot."""

    case: FuzzCase
    kind: str
    variant: str
    shot: str
    problem: str
    detail: str = ""

    def describe(self) -> str:
        text = (f"seed={self.case.seed} case={self.case.index} "
                f"({self.case.family}) [{self.kind} {self.variant} "
                f"{self.shot}]: {self.problem}")
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class Stats:
    """Aggregate outcome of a sweep (one object may span kinds)."""

    #: ``(kind, variant, family) -> outcome name -> count``, so a cell
    #: that only ever rejects or never reaches its arm is visible.
    cells: dict = field(default_factory=lambda: defaultdict(Counter))
    #: ``(kind, site) -> shots armed there``: the ledger the
    #: coverage-by-registration test reads.
    armed: Counter = field(default_factory=Counter)
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def total(self, kind: str, outcome: str) -> int:
        return sum(cell[outcome] for (k, _, _), cell
                   in self.cells.items() if k == kind)

    def summary(self, kind: str) -> str:
        totals = ", ".join(f"{self.total(kind, outcome)} {outcome}"
                           for outcome in KINDS[kind].outcomes)
        return f"{kind} sweep: {totals}, {len(self.findings)} finding(s)"

    def unarmed(self, kind: str) -> list[str]:
        """The names ``kind`` registers that no shot was armed at."""
        return [site for site in KINDS[kind].sites
                if not self.armed[(kind, site)]]

    def breakdown(self) -> list[str]:
        """One line per (kind, variant, family) cell, then per kind the
        armed sites and the registered ones no case reached."""
        lines = [f"  {kind} {variant:<15} {family:<5} "
                 + " ".join(f"{o}={n}" for o, n in cell.items())
                 for (kind, variant, family), cell
                 in sorted(self.cells.items())]
        for kind in sorted({k for k, _ in self.armed}):
            sites = " ".join(f"{site}={n}" for (k, site), n
                             in self.armed.items() if k == kind)
            lines.append(f"  {kind} armed: {sites}")
            if KINDS[kind].sites:
                lines.append(
                    f"  {kind} unarmed: {' '.join(self.unarmed(kind))}")
        return lines


@dataclass(frozen=True)
class Shot:
    """One planned disturbance: ``site`` crossed for the ``index``-th
    time, plus whatever the kind needs to arm it."""

    label: str
    site: str
    index: int = 0
    arg: Any = None


@dataclass(frozen=True)
class Target:
    """What the shots disturb."""

    label: str
    run: Callable[[Database], Any]
    #: A read-only target must leave the catalog untouched even when
    #: it completes; a mutating one commits, and the sweep rolls it
    #: back so every shot starts from the same state.
    read_only: bool = True
    #: Outcome-name prefix, so a secondary target is counted apart.
    prefix: str = ""
    #: Extra invariant checked on whatever state a leg leaves.
    check: Optional[Callable[["_Run", Database], None]] = None


def _query_target(case: FuzzCase) -> Target:
    """The case's query: through the resilient plan runtime for the
    percentage families, as one direct statement otherwise."""
    sql = case.query_sql()
    if case.family in PLAN_FAMILIES:
        return Target("query", lambda db: run_resilient(
            db, sql, retry=_NO_BACKOFF).result)
    return Target("query", lambda db: db.execute(sql))


def _result_diff(expected: Any, actual: Any) -> Optional[str]:
    if isinstance(expected, Table) and isinstance(actual, Table):
        return table_diff(expected, actual)
    return None if expected == actual else f"{actual!r} != {expected!r}"


# ----------------------------------------------------------------------
# The shared machinery: accounting + the post-condition set
# ----------------------------------------------------------------------
class _Run:
    """One ``(kind, case, variant)`` sweep in progress."""

    def __init__(self, kind: "Kind", case: FuzzCase, variant: Variant,
                 stats: Stats) -> None:
        self.kind, self.case, self.variant = kind, case, variant
        self.stats = stats
        self.cell = stats.cells[(kind.name, variant.name, case.family)]
        self.shot = "-"

    def count(self, outcome: str) -> None:
        self.cell[outcome] += 1

    def finding(self, problem: str, detail: str = "") -> None:
        self.stats.findings.append(Finding(
            self.case, self.kind.name, self.variant.name, self.shot,
            problem, detail))

    def attempt(self, thunk: Callable[[], Any], leg: str
                ) -> tuple[Any, Optional[BaseException]]:
        """Post-condition *outcome*: ``(result, None)`` or
        ``(None, error)``; an untyped error is also a finding."""
        try:
            return thunk(), None
        except ReproError as exc:
            return None, _released(exc)
        except Exception as exc:  # noqa: BLE001 - the invariant
            self.finding("untyped error escaped",
                         f"{leg}: {type(exc).__name__}: {exc}")
            return None, _released(exc)

    @contextmanager
    def opened(self) -> Iterator[Database]:
        """:func:`open_variant`, with its leak report as findings."""
        try:
            with open_variant(self.case, self.variant) as db:
                yield db
        except LeakError as exc:
            self.shot = "-"
            for problem, detail in exc.problems:
                self.finding(problem, detail)

    def check_leaks(self, db: Database) -> None:
        """Post-condition *leaks*, on a database still in use."""
        for problem, detail in leaks([db]):
            self.finding(problem, detail)

    def leg(self, db: Database, target: Target, name: str,
            armed: Any = None) -> tuple[Any, Optional[BaseException]]:
        """One run of ``target`` -- under ``armed``, or undisturbed
        under an inert counter -- held to post-conditions *outcome*,
        *leaks* and *catalog*, then to the target's own invariant.  A
        changed catalog is rolled back afterwards: that undoes a
        mutating target's commit, and contains damage so later shots
        still sweep against the intended baseline."""
        # The savepoint pins the baseline objects so the identity-based
        # fingerprint cannot suffer id() recycling.
        savepoint = db.catalog.savepoint()
        fingerprint = savepoint.fingerprint
        if armed is None:
            armed = self.kind.counter()
        with self.kind.activate(armed):
            result, error = self.attempt(lambda: target.run(db), name)
        self.check_leaks(db)
        changed = db.catalog.fingerprint() != fingerprint
        if changed and (target.read_only or error is not None):
            self.finding("catalog changed",
                         f"fingerprint() differs after the {name} leg")
        if target.check is not None:
            target.check(self, db)
        if changed:
            db.catalog.rollback(savepoint)
        return result, error

    def sweep(self) -> None:
        with self.opened() as db:
            deferred = self.kind.sweep(self, db) or ()
        # An isolated kind fires every shot at a database of its own.
        for target, reference, shot in deferred:
            with self.opened() as db:
                self.shoot(db, target, reference, shot)

    def probe(self, db: Database, target: Target
              ) -> tuple[Any, list[Shot]]:
        """Run ``target`` undisturbed under the kind's counter: the
        reference result (None when the case is degenerate and raises
        a typed error -- an acceptable outcome) and the shots.  A
        warm-up leg goes first, so the probe counts what the *shots*
        will cross, not the first run's cold-cache crossings."""
        for name in ("warm-up", "probe"):
            self.shot = f"{target.label} {name}"
            counter = self.kind.counter()
            reference, _ = self.leg(db, target, name, counter)
        return reference, self.kind.shots(counter.hits)

    def shoot(self, db: Database, target: Target, reference: Any,
              shot: Shot) -> None:
        kind = self.kind
        self.shot = shot.label if target.label == "query" \
            else f"{target.label} {shot.label}"
        self.count(target.prefix + "shots")
        self.stats.armed[(kind.name, shot.site)] += 1
        armed = kind.arm(shot)
        result, error = self.leg(db, target, "shot", armed)
        kind.verdict(self, target, shot, armed, result, error,
                     reference)
        # Post-condition *re-run*: the engine must be fully usable
        # after the shot and answer as if nothing had happened.
        with kind.survivor(self, db) as survivor:
            if survivor is None:
                return
            result, error = self.leg(survivor, target, "re-run")
            if reference is None:
                return  # degenerate case: its own error is the outcome
            if isinstance(error, ReproError):
                self.finding("clean re-run after the shot failed",
                             f"{type(error).__name__}: {error}")
            elif error is None:
                difference = _result_diff(reference, result)
                if difference is not None:
                    self.finding("re-run after the shot differs from "
                                 "the reference", difference)


def _released(error: BaseException) -> BaseException:
    """``error`` (and the errors chained to it) without its traceback.

    A disk table's column cache holds its columns weakly, and the
    engine frees a statement's columns by refcount.  A cancelled or
    faulted leg's traceback is in a cycle with the frames it unwound
    through, which would keep those columns cached until the cyclic
    collector ran: the next leg would find columns the last one
    fetched, its ``page-fetch`` count would no longer depend on (seed,
    index, variant) alone, and armed shots would go unreached.  No
    post-condition reads a traceback."""
    seen: set[int] = set()
    link: Optional[BaseException] = error
    while link is not None and id(link) not in seen:
        seen.add(id(link))
        traceback.clear_frames(link.__traceback__)
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return error


# ----------------------------------------------------------------------
# Injection kinds
# ----------------------------------------------------------------------
class Kind:
    """An injection kind.  A probe runs under a counting
    :class:`FaultInjector` and a shot under an armed one, each made
    ambient by ``activate``; a subclass supplies ``shots(hits)``,
    ``arm(shot)`` and ``verdict(run, target, shot, armed, result,
    error, reference)``."""

    name = ""
    #: Outcome names in summary order (every kind counts ``runs`` and
    #: ``shots``; the rest are the kind's verdicts).
    outcomes: tuple[str, ...] = ()
    #: ``--inject-bug`` names this kind's blindness self-tests accept.
    bugs: tuple[str, ...] = ()
    #: The registered names this kind arms shots at, when it has a
    #: registry (what ``Stats.unarmed`` is measured against).
    sites: tuple[str, ...] = ()
    #: Fire every shot at a fresh database instead of the probe's.
    isolated = False
    counter = FaultInjector
    activate = staticmethod(faults.active)

    def targets(self, run: _Run, db: Database) -> Iterator[Target]:
        yield _query_target(run.case)

    @contextmanager
    def survivor(self, run: _Run, db: Database
                 ) -> Iterator[Optional[Database]]:
        """The database the re-run leg runs on (None: there is none
        left); by default the shot's own."""
        yield db

    def sweep(self, run: _Run, db: Database) -> Optional[list]:
        """Probe every target on ``db`` and fire its shots (or, when
        isolated, return them for :meth:`_Run.sweep` to fire)."""
        run.count("runs")
        deferred = []
        for target in self.targets(run, db):
            reference, shots = run.probe(db, target)
            for shot in shots:
                if self.isolated:
                    deferred.append((target, reference, shot))
                else:
                    run.shoot(db, target, reference, shot)
        return deferred


class FaultKind(Kind):
    """One shot per ``(site, hit index, fault kind)`` from
    ``faults.SITES`` but ``view-maintenance`` (the cancel kind's DML
    target arms that one): every ``plan-step`` boundary, the first hit
    of every other site, sampled hits of the storage kill points.  A
    one-shot transient at a plan-step boundary must be absorbed by the
    retry loop; a permanent crash must surface.  On a disk variant
    every shot ends with a simulated kill: the store is abandoned
    without a checkpoint and reopened, recovery must reproduce the
    committed tables, and the re-run leg runs on the recovered store.
    """

    name = "fault"
    outcomes = ("runs", "shots", "recovered", "clean-errors")
    sites = tuple(site for site in faults.SITES
                  if site != "view-maintenance")
    isolated = True

    #: ``(error, times)``: a one-shot transient (the retry loop must
    #: absorb it), a one-shot resource fault (fallback may absorb it),
    #: and a permanent crash (must surface as a clean error).
    GRID = (("transient", 1), ("resource", 1), ("crash", None))

    #: Storage sites are one-shot only: the runtime's rollback
    #: re-commits through the very same sites, so a *permanent* fault
    #: there would fault the rollback too and no in-process invariant
    #: could hold -- real kills are modelled by :meth:`survivor`.
    STORAGE_GRID = (("transient", 1), ("crash", 1))

    def shots(self, hits: dict) -> list[Shot]:
        shots = []
        for site in self.sites:
            count = hits.get(site, 0)
            storage = site.startswith("storage-")
            indexes = range(count) if site == "plan-step" \
                else _sample_indexes(count) if storage \
                else range(min(count, 1))
            shots += [Shot(f"{site}#{index} {spec[0]}", site, index, spec)
                      for index in indexes
                      for spec in (self.STORAGE_GRID if storage
                                   else self.GRID)]
        return shots

    def arm(self, shot: Shot) -> FaultInjector:
        error, times = shot.arg
        return FaultInjector([FaultSpec(shot.site, error=error,
                                        at=shot.index, times=times)])

    def verdict(self, run, target, shot, armed, result, error,
                reference) -> None:
        kind, times = shot.arg
        if error is None:
            if reference is not None \
                    and result.to_rows() != reference.to_rows():
                run.finding("recovered run returned different rows",
                            f"{result.to_rows()!r} != "
                            f"{reference.to_rows()!r}")
            else:
                run.count("recovered")
            if times is None:
                # A permanent fault fires on every hit; rows mean the
                # site was silently skipped on the rerun.
                run.finding("permanent crash fault did not surface")
        elif isinstance(error, ReproError):
            run.count("clean-errors")
            if kind == "transient" and shot.site == "plan-step" \
                    and reference is not None:
                run.finding("retry loop failed to absorb a one-shot "
                            "transient fault",
                            f"{type(error).__name__}: {error}")

    @contextmanager
    def survivor(self, run: _Run, db: Database
                 ) -> Iterator[Optional[Database]]:
        """On disk, follow the shot with a kill: abandon the store
        *without* a checkpoint (exactly what a dead process leaves)
        and reopen it.  Recovery must reproduce the committed state --
        the case's table as a pristine load holds it -- or refuse with
        a typed error; the re-run leg then runs on the recovered
        store."""
        if run.variant.storage != "disk":
            yield db
            return
        store = db.storage_engine.path
        db.storage_engine.abandon()
        reopened, error = run.attempt(
            lambda: Database(**run.variant.database_kwargs(store)),
            "reopen")
        if error is not None:
            # A typed refusal to open is a clean outcome: recovery
            # detected damage it cannot repair.
            if isinstance(error, ReproError):
                run.count("clean-errors")
            yield None
            return
        try:
            with open_variant(run.case, Variant()) as pristine:
                committed, recovered = (
                    {name: each.table(name).to_rows()
                     for name in each.table_names()}
                    for each in (pristine, reopened))
            if recovered != committed:
                run.finding("recovered store differs from the "
                            "committed state",
                            f"{recovered!r} != {committed!r}")
            yield reopened
        finally:
            reopened.close()


class CancelKind(Kind):
    """One shot per ``(site, sampled hit index)`` of the cancellable
    ``faults.SITES``, armed as ``FaultSpec(site, error="cancel")``
    under a live ambient token: the token must raise
    ``QueryCancelledError(reason="client")``, or the crossing was not
    reached (counts on disk drift with cache state) and the run is
    held to the reference.  When the case's query is accepted as a
    materialized view, each statement of the case's DML script is
    swept as a second, mutating target, so the ``dml`` and
    ``view-maintenance`` sites are armed too: a cancelled
    statement is atomic (catalog unchanged) and the view still equals
    its recompute."""

    name = "cancel"
    outcomes = ("runs", "shots", "cancelled", "unreached",
                "dml-shots", "dml-cancelled", "dml-unreached")
    sites = tuple(site for site, checked in faults.SITES.items()
                  if checked)

    @staticmethod
    @contextmanager
    def activate(injector: FaultInjector) -> Iterator[FaultInjector]:
        """The injector, plus the live token an armed cancel cancels."""
        with faults.active(injector), cancel_mod.activate(CancelToken()):
            yield injector

    def targets(self, run: _Run, db: Database) -> Iterator[Target]:
        yield _query_target(run.case)
        with _materialized_view(run, db) as accepted:
            if accepted:
                for index, dml in enumerate(dml_script(run.case)):
                    yield Target(f"dml#{index}",
                                 lambda db, dml=dml: db.execute(dml),
                                 read_only=False, prefix="dml-",
                                 check=_check_view)

    def shots(self, hits: dict) -> list[Shot]:
        return [Shot(f"{site}#{index}", site, index)
                for site in self.sites
                for index in _sample_indexes(hits.get(site, 0))]

    def arm(self, shot: Shot) -> FaultInjector:
        return FaultInjector([FaultSpec(shot.site, error="cancel",
                                        at=shot.index)])

    def verdict(self, run, target, shot, armed, result, error,
                reference) -> None:
        reached = armed.hits.get(shot.site, 0) > shot.index
        if isinstance(error, QueryCancelledError):
            if error.reason != "client":
                run.finding("cancellation surfaced with the wrong "
                            "reason",
                            f"expected 'client', got {error.reason!r}")
            else:
                run.count(target.prefix + "cancelled")
        elif isinstance(error, ReproError):
            # The arm point may legitimately be unreached: site
            # counts on the disk backend drift a little across shots
            # (rollbacks evict cached pages, changing how many fetches
            # a run needs).  An unreached shot of a degenerate case is
            # just the case's own error; anything else is a finding.
            if reached:
                run.finding("cancellation surfaced as a different "
                            "typed error",
                            f"{type(error).__name__}: {error}")
            elif reference is None:
                run.count(target.prefix + "unreached")
            else:
                run.finding("shot failed where the reference run "
                            "succeeded",
                            f"{type(error).__name__}: {error}")
        elif error is None:
            if reached:
                run.finding("armed cancellation did not fire",
                            f"run completed with {result!r}")
            else:
                run.count(target.prefix + "unreached")
                if reference is not None:
                    difference = _result_diff(reference, result)
                    if difference is not None:
                        run.finding("unreached shot returned a "
                                    "different result", difference)


class ViewsKind(Kind):
    """The case's query becomes a materialized view and every
    statement of the case's INSERT/UPDATE/DELETE script is one shot,
    committed for real; after the build and after every statement the
    view must have been delta-maintained (post-condition *fresh*) and
    the view-served answer must be bit-identical to recomputing with
    views off."""

    name = "views"
    outcomes = ("runs", "rejected", "shots")
    bugs = maintenance.VIEWS_BUGS

    def sweep(self, run: _Run, db: Database) -> None:
        """The injection here is *committed* DML, so there is no
        rollback and no re-run leg: each shot is apply, then compare
        the served read against the recompute."""
        with _materialized_view(run, db) as accepted:
            if not accepted:
                # Unsupported shape (no GROUP BY, grouping sets, ...):
                # rejection is the subsystem doing its job.
                run.count("rejected")
                return
            run.count("runs")
            for index, dml in enumerate([None] + dml_script(run.case)):
                run.shot = "build" if dml is None else f"dml#{index - 1}"
                if dml is not None:
                    _, error = run.attempt(lambda: db.execute(dml),
                                           "dml")
                    if error is not None:
                        run.finding("generated DML failed",
                                    f"{dml!r}: {type(error).__name__}: "
                                    f"{error}")
                        continue
                run.count("shots")
                _check_view(run, db)
                run.check_leaks(db)


@contextmanager
def _materialized_view(run: _Run, db: Database) -> Iterator[bool]:
    """The case's query as materialized view :data:`VIEW_NAME` for the
    duration; yields False when the view subsystem rejects it."""
    sql = run.case.query_sql()
    _, error = run.attempt(lambda: db.execute(
        f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS {sql}"), "view build")
    yield error is None
    if error is None:
        db.execute(f"DROP MATERIALIZED VIEW {VIEW_NAME}")


def _check_view(run: _Run, db: Database) -> None:
    """Post-condition *fresh*, then: the view-served answer
    (``db.execute(sql)``, rewritten to the view) must be bit-identical
    to recomputing the query from scratch on the current base table
    with views disabled.  Freshness goes first -- the read below
    refreshes a stale view on the quiet, which is how the equality
    oracle alone missed views that never served."""
    for mv in db.catalog.matviews().values():
        base = db.catalog.table(mv.definition.base_table)
        full = db.metrics.counter("view_refreshes_total", view=mv.name,
                                  mode="full").value
        if not mv.fresh(base) or full:
            run.finding("materialized view was not delta-maintained",
                        f"{mv.name}: fresh={mv.fresh(base)} "
                        f"(view@v{mv.base_version}, base@v{base.version})"
                        f", full refreshes={full:g}")
    case, sql = run.case, run.case.query_sql()
    difference, error = run.attempt(lambda: table_diff(
        _recompute(case, db, sql), db.execute(sql)), "view check")
    if error is not None:
        run.finding("view-served read or its recompute failed",
                    f"{type(error).__name__}: {error}")
    elif difference is not None:
        run.finding("view-served result diverges from recompute",
                    difference)


def _recompute(case: FuzzCase, db: Database, sql: str) -> Table:
    """The from-scratch answer on the current base table, views off.

    The strategy is pinned per family (the same generators the views
    package was proven bit-identical against), so the baseline is
    deterministic: the optimizer cannot switch routes mid-script as
    the table's statistics drift."""
    if case.family == "vpct":
        return run_percentage_query(db, sql,
                                    strategy=VerticalStrategy(),
                                    use_views=False)
    if case.family in ("hpct", "hagg"):
        return run_percentage_query(
            db, sql, strategy=HorizontalStrategy(source="F"),
            use_views=False)
    return db.execute(sql, use_views=False)


#: The registry: ``--sweep`` choices, ``--list-variants`` and the
#: coverage test all read it.
KINDS: dict[str, Kind] = {kind.name: kind for kind in
                          (FaultKind(), CancelKind(), ViewsKind())}


# ----------------------------------------------------------------------
def sweep_cases(cases: Iterable[FuzzCase], kind: str,
                stats: Optional[Stats] = None,
                variants: Optional[Sequence[Variant]] = None,
                inject_bug: Optional[str] = None) -> Stats:
    """Sweep ``cases`` under ``kind`` across ``variants`` (default:
    the whole matrix); returns the (given) stats.

    ``inject_bug`` wires :data:`repro.views.maintenance.INJECT_BUG`
    for the duration -- the harness self-test: a deliberately broken
    maintenance path must produce a finding, otherwise the sweep is
    blind."""
    if inject_bug is not None and inject_bug not in KINDS[kind].bugs:
        raise ValueError(
            f"unknown {kind} bug {inject_bug!r}; known: "
            f"{', '.join(KINDS[kind].bugs) or 'none'}")
    stats = Stats() if stats is None else stats
    saved = maintenance.INJECT_BUG
    maintenance.INJECT_BUG = inject_bug
    try:
        for case in cases:
            for variant in matrix() if variants is None else variants:
                _Run(KINDS[kind], case, variant, stats).sweep()
    finally:
        maintenance.INJECT_BUG = saved
    return stats


def describe() -> str:
    """The matrix, the post-conditions and the kinds, rendered from
    the registries (``--list-variants``; docs/testing.md mirrors it)."""
    def entry(label: str, text: str) -> str:
        return textwrap.fill(" ".join(text.split()), width=78,
                             initial_indent=f"  {label:<9}",
                             subsequent_indent=" " * 11,
                             break_on_hyphens=False)

    lines = ["variant matrix (--storage):"]
    lines += [f"  {variant.name}" for variant in matrix()]
    lines += [entry(value + ":", text)
              for value, text in AXIS_DESCRIPTIONS.items()]
    lines.append("post-conditions (after every shot of every kind):")
    lines += [entry(name + ":", text)
              for name, text in POSTCONDITIONS.items()]
    lines.append("injection kinds (--sweep KIND; the differential run "
                 "is the default):")
    lines += [entry(kind.name + ":", kind.__doc__)
              for kind in KINDS.values()]
    return "\n".join(lines)
