"""Lattice planning and shared-scan evaluation for every grouped
SELECT: CUBE / ROLLUP / GROUPING SETS, and a plain GROUP BY or global
aggregate as the lattice of one set.

A grouping-sets query names k grouping sets over d distinct key
expressions (the *union dims*).  Instead of running k separate
group-bys, the executor factorizes the **union** of all dims once and
derives every set's grouping from it at *group level* (the set that
holds every dim is the union grouping itself):

1. the union factorize produces ``group_ids`` (one per row) plus a
   ``key_codes`` matrix with one dense per-dim code per union group;
2. for a set S the union codes are projected onto S's dims and combined
   with the same mixed-radix arithmetic :func:`repro.engine.groupby.
   _factorize_radix` uses, over ``n_union_groups`` entries instead of
   ``n_rows``;
3. ``np.unique`` ranks those combined codes; composing the rank mapping
   with the union's row->group mapping yields S's per-row group ids in
   one O(n_rows) gather.

Because per-column codes come from the same :func:`encode_column`
encodings a standalone ``GROUP BY`` of S's dims would build, and both
paths give the same combined codes the same ascending ranking
(``np.unique`` here; a counting pass or ``np.unique`` in
:mod:`repro.engine.groupby`, by its density rule), the derived group
ids (and key codes) are **bit-identical** to a direct factorization --
which is what makes the shared scan safe to substitute for N separate
group-bys (see docs/cube.md for the full argument).  Every set's keys
are its dims' values at its groups' first rows, and its aggregates are
computed from base rows over its derived grouping, through the same
kernels whatever the set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.engine.column import ColumnData
from repro.engine.groupby import Grouping, _MAX_CODE_SPACE
from repro.engine.kernels import kernel_percentage
from repro.errors import GroupingSetError
from repro.sql import ast
from repro.sql.formatter import format_expr

#: Expansion guard: CUBE(10 dims) would request 1024 sets; anything
#: past this bound is almost certainly a mistake and would also defeat
#: the per-set EXPLAIN spans.
MAX_GROUPING_SETS = 128


def render_set(exprs: tuple[ast.Expr, ...]) -> str:
    """Render a grouping set for errors/EXPLAIN, e.g. ``(d1, d2)``."""
    return "(" + ", ".join(format_expr(e) for e in exprs) + ")"


# ----------------------------------------------------------------------
# Expansion + lattice planning
# ----------------------------------------------------------------------
def expand_group_by(group_by: tuple[ast.Expr, ...],
                    resolve: Callable[[ast.Expr], ast.Expr]
                    ) -> list[tuple[ast.Expr, ...]]:
    """Expand a GROUP BY element list into the requested grouping sets.

    Plain expressions join every set (the SQL standard's cross
    product); CUBE yields all subsets, ROLLUP the prefixes, GROUPING
    SETS its explicit list.  ``resolve`` maps each expression through
    positional GROUP BY resolution.
    """
    per_element: list[list[tuple[ast.Expr, ...]]] = []
    for element in group_by:
        if isinstance(element, ast.Cube):
            exprs = tuple(resolve(e) for e in element.exprs)
            subsets: list[tuple[ast.Expr, ...]] = []
            for r in range(len(exprs), -1, -1):
                subsets.extend(itertools.combinations(exprs, r))
            per_element.append(subsets)
        elif isinstance(element, ast.Rollup):
            exprs = tuple(resolve(e) for e in element.exprs)
            per_element.append([exprs[:i]
                                for i in range(len(exprs), -1, -1)])
        elif isinstance(element, ast.GroupingSets):
            per_element.append([tuple(resolve(e) for e in gset)
                                for gset in element.sets])
        else:
            per_element.append([(resolve(element),)])
    total = 1
    for options in per_element:
        total *= len(options)
        if total > MAX_GROUPING_SETS:
            raise GroupingSetError(
                f"too many grouping sets (more than "
                f"{MAX_GROUPING_SETS}); reduce the CUBE/ROLLUP arity")
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*per_element)]


@dataclass(frozen=True)
class SetSpec:
    """One requested grouping set."""

    dims: tuple[int, ...]            # ascending union-dim indices
    #: the dims of the parent lattice level percentages divide by: the
    #: first requested proper subset with the most dims, or at the
    #: lattice top the set itself (ratio 1.0).
    pct_parent: tuple[int, ...]


@dataclass
class GroupingSetsPlan:
    """The canonicalized lattice for one grouping-sets query."""

    dims: list[ast.Expr]             # union dims, first-appearance order
    sets: list[SetSpec]              # request order


def build_plan(raw_sets: list[tuple[ast.Expr, ...]],
               key_of: Callable[[ast.Expr], object]) -> GroupingSetsPlan:
    """Canonicalize expanded sets into a lattice plan.

    ``key_of`` maps an expression to its normalization key (equal keys
    = same grouping column).  Dims are numbered in first-appearance
    order across the request; each set becomes its ascending dim-index
    tuple, so every set's key order is a subsequence of the union's --
    the property the group-level radix projection relies on.
    """
    dims: list[ast.Expr] = []
    dim_index: dict[object, int] = {}
    index_sets: list[tuple[int, ...]] = []
    for raw in raw_sets:
        indices: list[int] = []
        for expr in raw:
            key = key_of(expr)
            if key not in dim_index:
                dim_index[key] = len(dims)
                dims.append(expr)
            idx = dim_index[key]
            if idx not in indices:   # cross-product can repeat a dim
                indices.append(idx)
        index_sets.append(tuple(sorted(indices)))

    def pct_parent(indices: tuple[int, ...]) -> tuple[int, ...]:
        below = [other for other in index_sets if set(other) < set(indices)]
        return max(below, key=len, default=indices)
    return GroupingSetsPlan(dims, [SetSpec(indices, pct_parent(indices))
                                   for indices in index_sets])


def grouping_mask(arg_dims: list[int], set_dims: tuple[int, ...]) -> int:
    """The ``GROUPING()`` bitmask for one call in one set: the leftmost
    argument is the most significant bit; a bit is 1 when that column is
    *not* grouped (NULL placeholder) in the set."""
    present = set(set_dims)
    mask = 0
    for j, dim in enumerate(arg_dims):
        if dim not in present:
            mask |= 1 << (len(arg_dims) - 1 - j)
    return mask


# ----------------------------------------------------------------------
# Group-level derivation of per-set groupings
# ----------------------------------------------------------------------
@dataclass
class SetGrouping:
    """A set's grouping plus its mapping from union groups.

    ``to_set[union_gid]`` is the set-level group id -- the hook pct()
    parent lookups compose through (:func:`fine_to_coarse`); None for
    the union grouping itself, whose groups are the union's.
    """

    grouping: Grouping
    to_set: Optional[np.ndarray]


def derive_set_grouping(union: Grouping, dims: tuple[int, ...],
                        n_rows: int) -> SetGrouping:
    """Derive one set's grouping from the union factorization.

    Bit-identical to ``factorize([key_columns[i] for i in dims], ...)``:
    same encodings, same mixed-radix combination order, same
    ``np.unique`` ranking -- only computed over union *groups* instead
    of rows.  The set that holds every dim -- a plain GROUP BY's one
    set -- is the union grouping itself: its group ids already are
    that ranking.
    """
    if len(dims) == len(union.encodings):
        return SetGrouping(union, None)
    if not dims:
        # SQL's global aggregate: one group even over an empty table,
        # exactly like factorize([] , n_rows).
        grouping = Grouping(np.zeros(n_rows, dtype=np.int64), 1,
                            np.empty((1, 0), dtype=np.int64), [])
        return SetGrouping(grouping,
                           np.zeros(union.n_groups, dtype=np.int64))

    encodings = [union.encodings[i] for i in dims]
    code_space = 1
    for enc in encodings:
        code_space *= enc.cardinality
        if code_space > _MAX_CODE_SPACE:
            break
    if code_space <= _MAX_CODE_SPACE:
        combined = np.zeros(union.n_groups, dtype=np.int64)
        for position, i in enumerate(dims):
            combined *= encodings[position].cardinality
            combined += union.key_codes[:, i]
        # Combined codes: Grouping.key_codes splits them when read.
        codes, to_set = np.unique(combined, return_inverse=True)
    else:
        # Lexicographic fallback, mirroring _factorize_lex: unique over
        # the projected code rows ranks identically to the radix path.
        matrix = union.key_codes[:, list(dims)]
        codes, to_set = np.unique(matrix, axis=0, return_inverse=True)
    to_set = to_set.astype(np.int64)
    group_ids = to_set[union.group_ids]
    grouping = Grouping(group_ids, len(codes), codes, encodings)
    return SetGrouping(grouping, to_set)


def fine_to_coarse(fine: SetGrouping, coarse: SetGrouping) -> np.ndarray:
    """Map each fine-set group id to its coarse-set group id.

    Well defined whenever coarse's dims are a subset of fine's: all
    union groups sharing a fine group then share a coarse group, so the
    scatter below writes each slot a consistent value.
    """
    if fine.to_set is None:        # the union: coarse is it, or below
        return np.arange(fine.grouping.n_groups, dtype=np.int64) \
            if coarse.to_set is None else coarse.to_set
    mapping = np.empty(fine.grouping.n_groups, dtype=np.int64)
    mapping[fine.to_set] = coarse.to_set
    return mapping


# ----------------------------------------------------------------------
# Multi-level percentages
# ----------------------------------------------------------------------
def percentage_column(numer: ColumnData, parent_sums: ColumnData,
                      parent_ids: np.ndarray) -> ColumnData:
    """``pct(m)``: each group's sum(m) over its pct-parent's sum(m),
    by the engine's one NULL-safe percentage division."""
    return kernel_percentage(numer, parent_sums.take(parent_ids))
