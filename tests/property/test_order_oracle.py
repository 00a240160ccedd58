"""ORDER BY sorts only what is out of order, and returns what it
always returned.

``Executor._apply_order`` first checks, in one pass per key, whether
the rows already stand in ORDER BY order (``groupby.in_code_order``)
and returns them untouched when they do.  The reference below is the
sort it replaces: encode every key with
``encode_column`` (NULL lowest), negate the codes of a DESC key,
``np.lexsort`` and ``take``.  The two must give the same table bit for
bit -- values, dtypes, NULL masks, the sign of a zero -- on every
frame: sorted, reverse-sorted, all ties, NULLs, DESC, +-0.0, NaN,
VARCHAR with NULL, BOOLEAN, ORDER BY position, source-column
(fallback) and expression keys, mixed ASC/DESC.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.bench.workloads import SIGMOD_QUERIES
from repro.core.execute import cleanup_plan, execute_plan, generate_plan
from repro.datagen import load_sales
from repro.engine import executor as executor_mod
from repro.engine import groupby
from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, evaluate
from repro.engine.groupby import encode_column
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import PlanningError
from repro.sql import ast
from repro.sql.parser import parse_statement

#: One source column per type; each draws from a small pool so rows tie.
POOLS = {
    "i": (SQLType.INTEGER, st.integers(-2, 2)),
    "r": (SQLType.REAL, st.sampled_from([-0.0, 0.0, 1.5, -2.0,
                                         float("inf"), float("nan")])),
    "b": (SQLType.BOOLEAN, st.booleans()),
    "s": (SQLType.VARCHAR, st.sampled_from(["", "a", "ab", "b", "Z"])),
}
SOURCE = "t"
#: The result holds the first two source columns; "r" and "s" reach
#: ORDER BY through the source frame, as a plain projection's may.
RESULT_COLUMNS = ("i", "b")


def reference_permutation(select: ast.Select, result: Table,
                          fallback: Frame) -> np.ndarray:
    """The sort ``_apply_order`` ran before the order check: encode
    every key, negate a DESC key's codes, ``np.lexsort``."""
    frame = Frame(result.n_rows)
    frame.add_table(result.name, result)
    sort_keys = []
    for item in select.order_by:
        expr = item.expr
        if isinstance(expr, ast.Literal) and type(expr.value) is int:
            column = result.column(result.column_names()[expr.value - 1])
        else:
            try:
                column = evaluate(expr, frame, None)
            except PlanningError:
                column = evaluate(expr, fallback, None)
        codes = encode_column(column).codes
        sort_keys.append(codes if item.ascending else -codes)
    return np.lexsort(tuple(reversed(sort_keys)))


def assert_bit_identical(got: Table, expected: Table) -> None:
    assert got.column_names() == expected.column_names()
    for name in expected.column_names():
        a, b = got.column(name), expected.column(name)
        assert a.sql_type == b.sql_type
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.nulls, b.nulls)
        if a.values.dtype == object:
            valid = ~a.nulls
            assert [(type(v), v) for v in a.values[valid]] == \
                [(type(v), v) for v in b.values[valid]]
        else:
            assert a.values.tobytes() == b.values.tobytes()


def _table(name: str, columns: dict) -> Table:
    schema = TableSchema.build(name, [(c, data.sql_type)
                                      for c, data in columns.items()])
    return Table(schema, dict(columns))


@st.composite
def column(draw, key: str, n_rows: int) -> ColumnData:
    sql_type, pool = POOLS[key]
    values = draw(st.lists(pool, min_size=n_rows, max_size=n_rows))
    nulls = np.asarray(draw(st.lists(
        st.booleans() if draw(st.booleans()) else st.just(False),
        min_size=n_rows, max_size=n_rows)), dtype=bool)
    array = np.array(values, dtype=sql_type.numpy_dtype)
    if sql_type == SQLType.VARCHAR and draw(st.booleans()):
        array[nulls] = None     # NULL slots hold an arbitrary filler
    return ColumnData(sql_type, array, nulls)


def order_key(key: str):
    """A column name, an ORDER BY position, or an expression."""
    forms = [st.just(key),
             st.just(f"CASE WHEN {key} IS NULL THEN 0 ELSE 1 END")]
    if key in RESULT_COLUMNS:
        forms.append(st.just(str(RESULT_COLUMNS.index(key) + 1)))
    return st.one_of(forms)


@st.composite
def frames(draw):
    n_rows = draw(st.integers(0, 14))
    source = _table(SOURCE, {key: draw(column(key, n_rows))
                             for key in POOLS})
    keys = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1,
                         max_size=4))
    items = [draw(order_key(k)) +
             draw(st.sampled_from(["", " ASC", " DESC"])) for k in keys]
    select = parse_statement(
        f"SELECT {', '.join(RESULT_COLUMNS)} FROM {SOURCE} "
        f"ORDER BY {', '.join(items)}")
    # Arrange the frame: as drawn, already in order, reversed, or all
    # rows one tie.
    shape = draw(st.sampled_from(["drawn", "sorted", "reversed",
                                  "ties"]))
    if shape == "ties" and n_rows:
        source = source.take(np.zeros(n_rows, dtype=np.int64))
    elif shape in ("sorted", "reversed"):
        order = reference_permutation(select, _result(source),
                                      _fallback(source))
        source = source.take(order if shape == "sorted" else order[::-1])
    return select, source, shape


def _result(source: Table) -> Table:
    return _table("result", {c: source.column(c) for c in RESULT_COLUMNS})


def _fallback(source: Table) -> Frame:
    frame = Frame(source.n_rows)
    frame.add_table(SOURCE, source)
    return frame


@pytest.fixture(scope="module")
def executor():
    return Database().executor


@settings(max_examples=500, deadline=None)
@given(frames())
def test_apply_order_is_the_encode_lexsort_order(executor, frame):
    select, source, shape = frame
    result, fallback = _result(source), _fallback(source)
    expected = result.take(reference_permutation(select, result,
                                                  fallback))
    got = executor._apply_order(select, result, fallback)
    assert_bit_identical(got, expected)
    if shape in ("sorted", "ties") and not np.isnan(
            source.column("r").values).any():
        # In order and NaN-free: the check must have passed the rows
        # through untouched.
        assert got is result


NAN = float("nan")

#: Named frames every run covers, whatever Hypothesis draws:
#: ``(columns of t as i, r, b, s value lists -- None is NULL, ORDER
#: BY, whether the rows are already in order)``.
FIXED = {
    "sorted": ([1, 1, 2, 3], [0.0] * 4, [True] * 4, ["a"] * 4,
               "i", True),
    "reverse-sorted": ([3, 2, 1, 1], [0.0] * 4, [True] * 4, ["a"] * 4,
                       "i", False),
    "all-ties": ([2, 2, 2], [1.5] * 3, [False] * 3, ["b"] * 3,
                 "i, r, b, s", True),
    "nulls-first": ([None, None, 1, 2], [0.0] * 4, [True] * 4,
                    ["a"] * 4, "i", True),
    "null-ties-defer": ([None, None], [0.0] * 2, [True] * 2, ["b", "a"],
                        "i, s", False),
    "null-after-value": ([1, None], [0.0] * 2, [True] * 2, ["a"] * 2,
                         "i", False),
    "desc-nulls-last": ([2, 1, None], [0.0] * 3, [True] * 3, ["a"] * 3,
                        "i DESC", True),
    "signed-zeros-tie": ([1] * 4, [0.0, -0.0, 0.0, -0.0], [True] * 4,
                         ["a"] * 4, "r, i", True),
    "nan-first": ([1, 2], [NAN, 1.0], [True] * 2, ["a"] * 2, "r", False),
    "nan-last": ([1, 2], [1.0, NAN], [True] * 2, ["a"] * 2, "r", False),
    "nan-ties": ([2, 1], [NAN, NAN], [True] * 2, ["a"] * 2, "r, i",
                 False),
    "nan-under-null": ([1, 2], [NAN, 1.0], [True] * 2, ["a"] * 2,
                       "r, i", True),
    "varchar-nulls": ([1] * 4, [0.0] * 4, [True] * 4,
                      [None, "", "a", None], "s, i", False),
    "varchar-desc": ([1] * 4, [0.0] * 4, [True] * 4,
                     ["b", "a", "", None], "s DESC", True),
    "boolean": ([1, 2, 3], [0.0] * 3, [False, True, False], ["a"] * 3,
                "b", False),
    "position": ([1, 2, 3], [0.0] * 3, [True, True, False], ["a"] * 3,
                 "2 DESC, 1", True),
    "mixed-asc-desc": ([1, 1, 2, 2], [0.0] * 4, [True] * 4,
                       ["b", "a", "b", "a"], "i ASC, s DESC", True),
    "expression": ([3, 1, 2], [0.0] * 3, [True] * 3, ["a"] * 3,
                   "CASE WHEN i > 1 THEN 0 ELSE 1 END", False),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_frames(executor, name):
    i, r, b, s, order_by, in_order = FIXED[name]
    values = dict(zip(POOLS, (i, r, b, s)))
    if name == "nan-under-null":
        values["r"] = [None, 1.0]
    source = _table(SOURCE, {
        key: ColumnData.from_values(POOLS[key][0], values[key])
        for key in POOLS})
    if name == "nan-under-null":
        source.column("r").values[0] = NAN   # a NaN filler is no NaN
    select = parse_statement(f"SELECT {', '.join(RESULT_COLUMNS)} "
                             f"FROM {SOURCE} ORDER BY {order_by}")
    result, fallback = _result(source), _fallback(source)
    expected = result.take(reference_permutation(select, result,
                                                  fallback))
    got = executor._apply_order(select, result, fallback)
    assert_bit_identical(got, expected)
    assert (got is result) == in_order


def test_presorted_vpct_result_neither_encodes_nor_sorts(monkeypatch):
    """Table 4's widest row comes out of its last INSERT in ORDER BY
    order, so the result statement sorts nothing."""
    db = Database()
    load_sales(db, 2_000)
    plan = generate_plan(db, SIGMOD_QUERIES[7].vpct_sql())
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    execute_statement = db.execute_statement

    def result_spied(statement, *args, **kwargs):
        if statement is not plan.result_statement:
            return execute_statement(statement, *args, **kwargs)
        with mock.patch.object(executor_mod, "encode_column",
                               spy("encode_column", encode_column)), \
                mock.patch.object(groupby, "encode_column",
                                  spy("encode_column", encode_column)), \
                mock.patch.object(np, "lexsort",
                                  spy("lexsort", np.lexsort)):
            return execute_statement(statement, *args, **kwargs)

    monkeypatch.setattr(db, "execute_statement", result_spied)
    try:
        result = execute_plan(db, plan).result
    finally:
        cleanup_plan(db, plan)
    assert result.n_rows > 1
    assert calls == []
    expected = result.take(reference_permutation(
        plan.result_statement, result, None))
    assert_bit_identical(result, expected)
