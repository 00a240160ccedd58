"""Deterministic random generation of fuzz cases.

A :class:`FuzzCase` bundles a small schema, a dataset and one extended
query.  Everything derives from ``random.Random(f"{seed}:{index}")``,
so a (seed, index) pair identifies a case forever -- the property the
CLI's ``--seed`` flag and the checked-in corpus rely on.

The data generator is deliberately adversarial for percentage
arithmetic: heavy NULL rates on both dimensions and measures, zeros
and sign-cancelling pairs (so coarse denominators hit exactly zero),
duplicate rows, empty tables, and single-row tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.sql.formatter import format_literal

#: families of generated queries; each maps to a strategy set in
#: :mod:`repro.fuzz.runner`.
FAMILIES = ("vpct", "hpct", "hagg", "plain", "cube")

#: the families evaluated through the code generator's multi-statement
#: plans; the rest run on the engine as one direct statement.
PLAN_FAMILIES = ("vpct", "hpct", "hagg")

#: aggregate functions safe on both engines (sqlite has no var/stdev).
PLAIN_FUNCS = ("sum", "count", "avg", "min", "max")
HAGG_FUNCS = ("sum", "count", "avg", "min", "max")

_DIM_POOL = (("d1", "varchar"), ("d2", "int"), ("d3", "varchar"))
_MEASURE_POOL = (("m1", "real"), ("m2", "int"))

_VARCHAR_VALUES = ("a", "b", "c")
_INT_DIM_VALUES = (0, 1, 2)


@dataclass(frozen=True)
class TermSpec:
    """One aggregate item of a generated select list -- for a
    ``pivot`` term, a run of them."""

    kind: str                      # vpct|hpct|hagg|plain|grouping|pivot
    func: str                      # vpct/hpct or sum/count/avg/min/max
    argument: str                  # column name, or "*" (count only)
    by: tuple[str, ...] = ()
    #: the literal of hagg's ``DEFAULT``, or of a pivot run's ``ELSE``
    default: Optional[Any] = None
    values: tuple[Any, ...] = ()   # a pivot run's dim values
    distinct: bool = False         # a plain ``count(DISTINCT x)``

    def sql(self) -> str:
        if self.kind == "grouping":
            # grouping() takes the dim list in ``by`` (``argument`` is
            # unused); it tags each output row with its set's bitmask.
            return f"grouping({', '.join(self.by)})"
        if self.kind == "pivot":
            # One disjoint CASE aggregate per value of the dim in
            # ``by``: the family shape the engine's pivot kernel
            # computes (repro.engine.pivot.detect_families).
            otherwise = "" if self.default is None \
                else f" ELSE {format_literal(self.default)}"
            return ", ".join(
                f"{self.func}(CASE WHEN {self.by[0]} = "
                f"{format_literal(value)} THEN {self.argument}"
                f"{otherwise} END)" for value in self.values)
        inner = f"DISTINCT {self.argument}" if self.distinct \
            else self.argument
        if self.by:
            inner += " BY " + ", ".join(self.by)
        if self.default is not None:
            inner += f" DEFAULT {self.default}"
        name = {"vpct": "Vpct", "hpct": "Hpct"}.get(self.kind, self.func)
        return f"{name}({inner})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "func": self.func,
                "argument": self.argument, "by": list(self.by),
                "default": self.default, "values": list(self.values),
                "distinct": self.distinct}

    @staticmethod
    def from_dict(data: dict) -> "TermSpec":
        return TermSpec(kind=data["kind"], func=data["func"],
                        argument=data["argument"],
                        by=tuple(data.get("by", ())),
                        default=data.get("default"),
                        values=tuple(data.get("values", ())),
                        distinct=data.get("distinct", False))


@dataclass(frozen=True)
class FuzzCase:
    """A self-contained differential-testing input."""

    seed: int
    index: int
    columns: tuple[tuple[str, str], ...]   # (name, type name)
    rows: tuple[tuple[Any, ...], ...]
    group_by: tuple[str, ...]
    terms: tuple[TermSpec, ...]
    family: str
    note: str = ""
    #: cube family only: the full GROUP BY clause text (e.g.
    #: ``CUBE(d1, d2)``); ``group_by`` then lists the union dims the
    #: select list projects.
    group_by_clause: str = ""

    @property
    def table(self) -> str:
        return "f"

    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def query_sql(self) -> str:
        items = list(self.group_by)
        items += [t.sql() for t in self.terms]
        sql = f"SELECT {', '.join(items)} FROM {self.table}"
        if self.group_by_clause:
            sql += " GROUP BY " + self.group_by_clause
        elif self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        return sql

    def to_dict(self) -> dict:
        return {"seed": self.seed, "index": self.index,
                "columns": [list(c) for c in self.columns],
                "rows": [list(r) for r in self.rows],
                "group_by": list(self.group_by),
                "terms": [t.to_dict() for t in self.terms],
                "family": self.family, "note": self.note,
                "group_by_clause": self.group_by_clause}

    @staticmethod
    def from_dict(data: dict) -> "FuzzCase":
        return FuzzCase(
            seed=data.get("seed", 0), index=data.get("index", 0),
            columns=tuple((c[0], c[1]) for c in data["columns"]),
            rows=tuple(tuple(r) for r in data["rows"]),
            group_by=tuple(data["group_by"]),
            terms=tuple(TermSpec.from_dict(t) for t in data["terms"]),
            family=data["family"], note=data.get("note", ""),
            group_by_clause=data.get("group_by_clause", ""))

    # Convenience for the reducer --------------------------------------
    def with_rows(self, rows: Sequence[Sequence[Any]]) -> "FuzzCase":
        return replace(self, rows=tuple(tuple(r) for r in rows))

    def referenced_columns(self) -> list[str]:
        """Columns the query actually touches, in schema order."""
        needed = set(self.group_by)
        for term in self.terms:
            needed.update(term.by)
            if term.argument != "*":
                needed.add(term.argument)
        return [n for n in self.column_names() if n in needed]


class CaseGenerator:
    """Seeded stream of :class:`FuzzCase` values.

    ``families`` narrows the query-family mix (e.g. a nightly
    cube-only sweep); the default covers every family.  Narrowing
    changes which case each index produces, so corpus repros always
    record the full case, never just (seed, index).
    """

    def __init__(self, seed: int = 0,
                 families: Sequence[str] = FAMILIES):
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown family(ies) "
                             f"{', '.join(unknown)}; known: "
                             f"{', '.join(FAMILIES)}")
        if not families:
            raise ValueError("at least one family is required")
        self.seed = seed
        self.families = tuple(families)

    def case(self, index: int) -> FuzzCase:
        rng = random.Random(f"{self.seed}:{index}")
        family = rng.choice(self.families)
        dims = sorted(rng.sample(_DIM_POOL,
                                 rng.randint(1 if family != "plain" else 0,
                                             len(_DIM_POOL))))
        measures = sorted(rng.sample(_MEASURE_POOL,
                                     rng.randint(1, len(_MEASURE_POOL))))
        if family in ("hpct", "hagg", "cube") and not dims:
            dims = [rng.choice(_DIM_POOL)]
        columns = tuple(dims + measures)
        rows = self._rows(rng, columns)
        if family == "cube":
            group_by, terms, clause = self._cube_query(
                rng, [d for d, _ in dims], [m for m, _ in measures])
            return FuzzCase(seed=self.seed, index=index,
                            columns=columns, rows=rows,
                            group_by=group_by, terms=terms,
                            family=family, group_by_clause=clause)
        group_by, terms = self._query(rng, family,
                                      [d for d, _ in dims],
                                      [m for m, _ in measures])
        return FuzzCase(seed=self.seed, index=index, columns=columns,
                        rows=rows, group_by=group_by, terms=terms,
                        family=family)

    def cases(self, budget: int):
        for index in range(budget):
            yield self.case(index)

    # ------------------------------------------------------------------
    def _rows(self, rng: random.Random,
              columns: Sequence[tuple[str, str]]) -> tuple:
        n_rows = rng.choice((0, 1, rng.randint(2, 8),
                             rng.randint(9, 30)))
        null_prob = {name: rng.choice((0.0, 0.15, 0.5))
                     for name, _ in columns}
        rows = [tuple(self._value(rng, type_name, null_prob[name])
                      for name, type_name in columns)
                for _ in range(n_rows)]
        # Sign-cancelling pair: same dimensions, measures v and -v, so a
        # coarse-level sum over that group is exactly zero.
        if rows and rng.random() < 0.35:
            base = list(rng.choice(rows))
            mirror = list(base)
            for i, (_, type_name) in enumerate(columns):
                if type_name in ("real", "int"):
                    v = rng.choice((1, 2.5, 4))
                    if type_name == "int":
                        v = int(v)
                    base[i], mirror[i] = v, -v
            rows += [tuple(base), tuple(mirror)]
        # All-NULL measure clone: duplicate a row with its measures
        # NULLed out, feeding the all-NULL-denominator path.
        if rows and rng.random() < 0.35:
            victim = list(rng.choice(rows))
            for i, (_, type_name) in enumerate(columns):
                if type_name in ("real", "int"):
                    victim[i] = None
            rows.append(tuple(victim))
        if rows and rng.random() < 0.2:       # exact duplicate row
            rows.append(rng.choice(rows))
        return tuple(rows)

    def _value(self, rng: random.Random, type_name: str,
               null_prob: float):
        if rng.random() < null_prob:
            return None
        if type_name == "varchar":
            return rng.choice(_VARCHAR_VALUES)
        if type_name == "int":
            return rng.choice(_INT_DIM_VALUES + (0, 5, -3))
        # real measure: zeros and negatives are over-weighted so that
        # denominators hit 0 and percentages leave [0, 1].
        return rng.choice((0.0, 0.0, 1.0, 2.5, -1.5, 10.0, 0.25))

    # ------------------------------------------------------------------
    def _query(self, rng: random.Random, family: str,
               dims: list[str], measures: list[str]):
        if family == "vpct":
            # Favor >= 2 grouping columns with a proper non-empty BY
            # subset: that is the only shape where the coarse
            # denominator level differs from both the fine level and
            # the grand total, so denominator-level bugs only show
            # there.
            low = 2 if len(dims) >= 2 and rng.random() < 0.7 else 1
            group_by = tuple(sorted(rng.sample(
                dims, rng.randint(low, len(dims)))))
            terms = []
            for _ in range(rng.randint(1, 2)):
                if len(group_by) >= 2 and rng.random() < 0.7:
                    width = rng.randint(1, len(group_by) - 1)
                else:
                    width = rng.randint(0, len(group_by))
                by = tuple(sorted(rng.sample(group_by, width)))
                terms.append(TermSpec("vpct", "vpct",
                                      rng.choice(measures), by))
            if rng.random() < 0.4:
                terms.append(self._plain_term(rng, measures))
            return group_by, tuple(terms)

        if family in ("hpct", "hagg"):
            # BY columns must be disjoint from GROUP BY; keep the BY
            # width at 1-2 so the pivoted table stays small.
            by_pool = list(dims)
            by = tuple(sorted(rng.sample(
                by_pool, rng.randint(1, min(2, len(by_pool))))))
            remaining = [d for d in dims if d not in by]
            group_by = tuple(sorted(rng.sample(
                remaining, rng.randint(0, len(remaining)))))
            terms = []
            for _ in range(rng.randint(1, 2)):
                if family == "hpct":
                    terms.append(TermSpec("hpct", "hpct",
                                          rng.choice(measures), by))
                else:
                    func = rng.choice(HAGG_FUNCS)
                    default = rng.choice((None, None, 0, -1))
                    terms.append(TermSpec("hagg", func,
                                          rng.choice(measures), by,
                                          default=default))
            if rng.random() < 0.4:
                terms.append(self._plain_term(rng, measures))
            return group_by, tuple(terms)

        group_by = tuple(sorted(rng.sample(
            dims, rng.randint(0, len(dims)))))
        terms = [self._plain_term(rng, measures)
                 for _ in range(rng.randint(1, 3))]
        if dims and rng.random() < 0.4:
            terms.append(self._pivot_term(rng, dims, measures))
        # count(DISTINCT x), which sqlite runs natively, over a measure
        # or a dim (VARCHAR among them), NULLs and all.  Drawn last, so
        # the rest of the case is what it was without it.
        if rng.random() < 0.3:
            terms.append(TermSpec("plain", "count",
                                  rng.choice(measures + dims),
                                  distinct=True))
        return group_by, tuple(terms)

    def _cube_query(self, rng: random.Random, dims: list[str],
                    measures: list[str]
                    ) -> tuple[tuple[str, ...], tuple[TermSpec, ...],
                               str]:
        """A CUBE/ROLLUP/GROUPING SETS query over the dim columns.

        The select list projects every union dim (testing the NULL
        placeholders), plain aggregates, and -- often -- a
        ``grouping()`` bitmask term, which is also what lets the
        comparator tell a placeholder NULL from a genuine NULL key.
        """
        shape = rng.choice(("cube", "rollup", "gsets"))
        construct_dims = sorted(rng.sample(
            dims, rng.randint(1, len(dims))))
        plain_dims = [d for d in dims if d not in construct_dims]
        leading = sorted(rng.sample(
            plain_dims, rng.randint(0, min(1, len(plain_dims)))))

        if shape == "cube":
            clause = f"CUBE({', '.join(construct_dims)})"
        elif shape == "rollup":
            clause = f"ROLLUP({', '.join(construct_dims)})"
        else:
            subsets: list[tuple[str, ...]] = []
            pool = [tuple(sorted(rng.sample(
                        construct_dims,
                        rng.randint(0, len(construct_dims)))))
                    for _ in range(rng.randint(1, 4))]
            for subset in pool:
                if subset not in subsets:
                    subsets.append(subset)
            rendered = ", ".join("(" + ", ".join(s) + ")"
                                 for s in subsets)
            clause = f"GROUPING SETS ({rendered})"
        if leading:
            clause = ", ".join(leading) + ", " + clause

        union_dims = tuple(leading + construct_dims)
        terms = [self._plain_term(rng, measures)
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.6:
            args = tuple(sorted(rng.sample(
                list(union_dims), rng.randint(1, len(union_dims)))))
            terms.append(TermSpec("grouping", "grouping", "*",
                                  by=args))
        if rng.random() < 0.4:
            terms.append(self._pivot_term(rng, dims, measures))
        return union_dims, tuple(terms), clause

    def _plain_term(self, rng: random.Random,
                    measures: list[str]) -> TermSpec:
        func = rng.choice(PLAIN_FUNCS)
        if func == "count" and rng.random() < 0.5:
            return TermSpec("plain", "count", "*")
        return TermSpec("plain", func, rng.choice(measures))

    def _pivot_term(self, rng: random.Random, dims: list[str],
                    measures: list[str]) -> TermSpec:
        """Two or more ``func(CASE WHEN dim = value THEN measure [ELSE
        0] END)`` items over one dim (only a sum says ELSE 0, the
        kernel's rule), a value now and then absent from the data."""
        dim = rng.choice(dims)
        pool = _VARCHAR_VALUES + ("z",) if dict(_DIM_POOL)[dim] == \
            "varchar" else _INT_DIM_VALUES + (7,)
        values = tuple(rng.sample(pool, rng.randint(2, 3)))
        func = rng.choice(PLAIN_FUNCS)
        default = 0 if func == "sum" and rng.random() < 0.6 else None
        return TermSpec("pivot", func, rng.choice(measures), (dim,),
                        default=default, values=values)


# ----------------------------------------------------------------------
# DML scripts against a case's table (the views and cancel sweeps)
# ----------------------------------------------------------------------

#: Statements per generated DML script.
DML_SCRIPT_LENGTH = 6

#: Value pools for generated DML.  The dimension pools deliberately
#: include values the base data never contains ("z", 7), so inserts
#: and key-migrating updates give birth to brand-new groups.
_DML_VALUES = {
    "varchar": ("a", "b", "c", "z"),
    "int": (0, 1, 2, 7, -3),
    "real": (0.0, 1.0, 2.5, -1.5, 10.0),
}


def dml_script(case: FuzzCase) -> list[str]:
    """A deterministic interleaving of inserts, measure updates,
    key-migrating updates and deletes against the case's table --
    group birth, group death, NULL keys and NULL/zero denominators,
    from the same adversarial pools as the base data."""
    rng = random.Random(f"views:{case.seed}:{case.index}")
    dims = [(n, t) for n, t in case.columns if n.startswith("d")]
    measures = [(n, t) for n, t in case.columns if n.startswith("m")]
    ops = ["insert", "insert", "update-measure", "delete"]
    if dims:
        ops.append("update-key")
    statements = []
    for _ in range(DML_SCRIPT_LENGTH):
        op = rng.choice(ops)
        if op == "insert":
            statements.append(_insert(rng, case))
        elif op.startswith("update") and (
                pool := measures if op == "update-measure" else dims):
            name, type_name = rng.choice(pool)
            statements.append(
                f"UPDATE {case.table} SET {name} = "
                f"{format_literal(_dml_value(rng, type_name))}"
                f"{_where(rng, case)}")
        else:
            # An unfiltered DELETE (rare) kills every group at once.
            where = _where(rng, case) if rng.random() < 0.85 else ""
            statements.append(f"DELETE FROM {case.table}{where}")
    return statements


def _insert(rng: random.Random, case: FuzzCase) -> str:
    rows = []
    for _ in range(rng.randint(1, 2)):
        values = []
        for _, type_name in case.columns:
            value = None if rng.random() < 0.2 \
                else _dml_value(rng, type_name)
            values.append(format_literal(value))
        rows.append("(" + ", ".join(values) + ")")
    return f"INSERT INTO {case.table} VALUES {', '.join(rows)}"


def _where(rng: random.Random, case: FuzzCase) -> str:
    name, type_name = rng.choice(case.columns)
    if rng.random() < 0.25:
        return f" WHERE {name} IS NULL"
    return f" WHERE {name} = {format_literal(_dml_value(rng, type_name))}"


def _dml_value(rng: random.Random, type_name: str):
    return rng.choice(_DML_VALUES[type_name])
