"""Vectorized, NULL-aware evaluation of expression ASTs.

Expressions are evaluated against a :class:`Frame`, which binds column
names (bare and table-qualified) to :class:`ColumnData` vectors of a
common length.  Evaluation follows SQL three-valued logic:

* any arithmetic or comparison with a NULL operand yields NULL;
* ``AND``/``OR`` use Kleene logic;
* division by zero yields NULL (rather than an error) -- the paper's
  generated code guards divisions with CASE anyway, and a vectorized
  evaluator computes both CASE branches before masking, so the unguarded
  lanes must not trap;
* CASE returns the first matching branch, NULL when nothing matches and
  there is no ELSE.

The evaluator charges :class:`~repro.engine.stats.StatsCollector`
``case_evaluations`` with ``n_whens * n_rows`` per CASE expression,
which is exactly the cost model the paper uses when it argues the
optimizer wastes ``O(N)`` comparisons per row on horizontal-aggregation
queries (DMKD Section 3.5).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.engine.column import ColumnData
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import (SQLType, coerce_scalar, infer_type,
                                type_from_name)
from repro.errors import PlanningError, TypeMismatchError
from repro.sql import ast


class Frame:
    """Name-resolution scope for expression evaluation.

    Columns are registered under their bare name and, when the source
    has a binding (table name or alias), under ``binding.name``.  Bare
    lookups that match several distinct registrations are ambiguous.
    A table is registered by reference (:meth:`add_table`): its columns
    are looked up in it when first resolved, so a 10,000-column Hpct
    table costs a frame nothing until a column of it is read.

    A successful :meth:`resolve` is remembered per ``(table, name)`` as
    spelled: a wide select list names the same few columns thousands of
    times.  Registering a column forgets every answer, so a name that a
    new registration makes ambiguous raises on its next lookup.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self._plain: dict[str, ColumnData] = {}      # unqualified
        self._qualified: dict[str, ColumnData] = {}  # "binding.name"
        self._bare: dict[str, tuple[str, ...]] = {}  # name -> those
        self._tables: list[tuple[str, Table]] = []
        self._resolved: dict[tuple, ColumnData] = {}

    # ------------------------------------------------------------------
    def add_column(self, name: str, data: ColumnData,
                   binding: Optional[str] = None) -> None:
        self.add_columns(((name, data),), binding)

    def add_columns(self, columns: Iterable[tuple[str, ColumnData]],
                    binding: Optional[str] = None) -> None:
        """Register columns in one batch -- a wide group frame binds
        thousands of ``__aggI`` columns -- forgetting the remembered
        answers once."""
        n_rows = self.n_rows
        for name, data in columns:
            if len(data.values) != n_rows:
                raise PlanningError(
                    f"column {name!r} has {len(data)} rows; frame has "
                    f"{n_rows}")
            name = name.lower()
            if binding:
                key = f"{binding.lower()}.{name}"
                self._qualified[key] = data
                self._bare[name] = self._bare.get(name, ()) + (key,)
            else:
                self._plain[name] = data
        self._resolved.clear()

    def add_table(self, binding: str, table: Table) -> None:
        """Register every column of ``table`` under ``binding``."""
        if table.schema.width() and table.n_rows != self.n_rows:
            raise PlanningError(
                f"column {table.schema.names[0]!r} has "
                f"{table.n_rows} rows; frame has {self.n_rows}")
        self._tables.append((binding.lower(), table))
        self._resolved.clear()

    def bindings(self) -> list[str]:
        return [binding for binding, _ in self._tables]

    def table(self, binding: str) -> Table:
        """The table registered last under lower-cased ``binding``."""
        for bound, table in reversed(self._tables):
            if bound == binding:
                return table
        raise PlanningError(f"unknown table {binding!r}")

    def has(self, ref: ast.ColumnRef) -> bool:
        try:
            self.resolve(ref)
        except PlanningError:
            return False
        return True

    def resolve(self, ref: ast.ColumnRef) -> ColumnData:
        spelled = (ref.table, ref.name)
        data = self._resolved.get(spelled)
        if data is None:
            data = self._resolved[spelled] = self._lookup(*spelled)
        return data

    def named(self, name: str) -> ColumnData:
        """What :meth:`resolve` finds for the unqualified ``name``."""
        return self._lookup(None, name)

    def _lookup(self, table: Optional[str], spelled: str) -> ColumnData:
        name = spelled.lower()
        if table:
            binding = table.lower()
            data = self._qualified.get(f"{binding}.{name}")
            for bound, source in reversed(self._tables):
                if data is not None:
                    break
                if bound == binding:
                    data = source.find(name)
            if data is None:
                raise PlanningError(f"unknown column {table}.{spelled}")
            return data
        data = self._plain.get(name)
        keys = self._bare.get(name, ())
        if data is not None and not keys and not self._tables:
            return data
        found = [] if data is None else [data]
        found += [self._qualified[key] for key in keys]
        for _, table in self._tables:
            data = table.find(name)
            if data is not None:
                found.append(data)
        if not found:
            raise PlanningError(f"unknown column {spelled}")
        # Registrations of the same underlying array are fine (a
        # column added bare and qualified); different arrays clash.
        if len(found) > 1 and len({id(data) for data in found}) > 1:
            raise PlanningError(f"ambiguous column reference {spelled}")
        return found[0]


#: Pseudo-type for an all-NULL column whose type is not yet known
#: (the NULL literal).  Combining rules coerce it to the other side.
_UNTYPED = None


def untyped_null(length: int) -> ColumnData:
    """An all-NULL column with no committed type."""
    data = ColumnData.all_null(SQLType.VARCHAR, length)
    data.sql_type = _UNTYPED  # type: ignore[assignment]
    return data


def _is_untyped(col: ColumnData) -> bool:
    return col.sql_type is _UNTYPED


def _commit(col: ColumnData, target: SQLType) -> ColumnData:
    """Give an untyped NULL column a concrete type, or cast numerics."""
    if _is_untyped(col):
        return ColumnData.all_null(target, len(col))
    if col.sql_type == target:
        return col
    return col.cast(target)


def _unify(left: ColumnData, right: ColumnData
           ) -> tuple[ColumnData, ColumnData, SQLType]:
    """Coerce two columns to a common type for comparison/merging."""
    if _is_untyped(left) and _is_untyped(right):
        both = SQLType.REAL
        return _commit(left, both), _commit(right, both), both
    if _is_untyped(left):
        return _commit(left, right.sql_type), right, right.sql_type
    if _is_untyped(right):
        return left, _commit(right, left.sql_type), left.sql_type
    if left.sql_type == right.sql_type:
        return left, right, left.sql_type
    if left.sql_type.is_numeric and right.sql_type.is_numeric:
        return (left.cast(SQLType.REAL), right.cast(SQLType.REAL),
                SQLType.REAL)
    raise TypeMismatchError(
        f"incompatible types: {left.sql_type} and {right.sql_type}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def evaluate(expr: ast.Expr, frame: Frame,
             stats: Optional[StatsCollector] = None) -> ColumnData:
    """Evaluate ``expr`` over every row of ``frame``."""
    if isinstance(expr, ast.Literal):
        return _eval_literal(expr, frame.n_rows)
    if isinstance(expr, ast.ColumnRef):
        return frame.resolve(expr)
    if isinstance(expr, ast.UnaryOp):
        return _eval_unary(expr, frame, stats)
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, frame, stats)
    if isinstance(expr, ast.IsNull):
        return _eval_is_null(expr, frame, stats)
    if isinstance(expr, ast.InList):
        return _eval_in_list(expr, frame, stats)
    if isinstance(expr, ast.CaseWhen):
        return _eval_case(expr, frame, stats)
    if isinstance(expr, ast.Cast):
        return _eval_cast(expr, frame, stats)
    if isinstance(expr, ast.FuncCall):
        return _eval_scalar_func(expr, frame, stats)
    if isinstance(expr, ast.Star):
        raise PlanningError("'*' is only valid in a select list or count(*)")
    raise PlanningError(f"cannot evaluate expression node {expr!r}")


def truth_mask(expr: ast.Expr, frame: Frame,
               stats: Optional[StatsCollector] = None) -> np.ndarray:
    """The rows where ``expr`` is TRUE -- what WHERE, ON and HAVING
    keep (FALSE and NULL both drop the row)."""
    column = evaluate(expr, frame, stats)
    return np.asarray(column.values, dtype=bool) & ~column.nulls


def evaluate_scalar(expr: ast.Expr) -> Any:
    """Evaluate a constant expression to one Python value."""
    frame = Frame(n_rows=1)
    result = evaluate(expr, frame)
    return result[0]


# ----------------------------------------------------------------------
# Node handlers
# ----------------------------------------------------------------------
def _eval_literal(expr: ast.Literal, n_rows: int) -> ColumnData:
    if expr.value is None:
        return untyped_null(n_rows)
    sql_type = infer_type(expr.value)
    return ColumnData.constant(sql_type, expr.value, n_rows)


def _eval_unary(expr: ast.UnaryOp, frame: Frame,
                stats: Optional[StatsCollector]) -> ColumnData:
    operand = evaluate(expr.operand, frame, stats)
    if expr.op == "-":
        operand = _commit(operand, operand.sql_type or SQLType.REAL)
        if not operand.sql_type.is_numeric:
            raise TypeMismatchError(
                f"unary '-' requires a numeric operand, got "
                f"{operand.sql_type}")
        return ColumnData(operand.sql_type, -operand.values,
                          operand.nulls.copy())
    if expr.op == "NOT":
        operand = _commit(operand, SQLType.BOOLEAN)
        return ColumnData(SQLType.BOOLEAN, ~operand.values,
                          operand.nulls.copy())
    raise PlanningError(f"unknown unary operator {expr.op!r}")


_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/"}


def _eval_binary(expr: ast.BinaryOp, frame: Frame,
                 stats: Optional[StatsCollector]) -> ColumnData:
    op = expr.op
    if op in ("AND", "OR"):
        left = _commit(evaluate(expr.left, frame, stats), SQLType.BOOLEAN)
        right = _commit(evaluate(expr.right, frame, stats), SQLType.BOOLEAN)
        return _kleene(op, left, right)

    if op in _COMPARISONS:
        # Fast path: comparison against a literal avoids materializing
        # a constant column (this is the inner loop of the paper's
        # CASE-heavy horizontal aggregation statements).
        if isinstance(expr.right, ast.Literal) \
                and expr.right.value is not None:
            left = evaluate(expr.left, frame, stats)
            return _compare_scalar(op, left, expr.right.value)
        if isinstance(expr.left, ast.Literal) \
                and expr.left.value is not None:
            right = evaluate(expr.right, frame, stats)
            return _compare_scalar(_FLIPPED[op], right, expr.left.value)

    left = evaluate(expr.left, frame, stats)
    right = evaluate(expr.right, frame, stats)

    if op in _ARITHMETIC:
        return _arithmetic(op, left, right)
    if op in _COMPARISONS:
        return _comparison(op, left, right)
    raise PlanningError(f"unknown binary operator {op!r}")


def _arithmetic(op: str, left: ColumnData,
                right: ColumnData) -> ColumnData:
    left, right, common = _unify(left, right)
    if not common.is_numeric:
        raise TypeMismatchError(
            f"arithmetic '{op}' requires numeric operands, got {common}")
    nulls = left.nulls | right.nulls
    if op == "/":
        lhs = left.values.astype(np.float64)
        rhs = right.values.astype(np.float64)
        zero = rhs == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(zero, 0.0, lhs / np.where(zero, 1.0, rhs))
        return ColumnData(SQLType.REAL, values, nulls | zero)
    if op == "+":
        values = left.values + right.values
    elif op == "-":
        values = left.values - right.values
    else:
        values = left.values * right.values
    return ColumnData(common, values, nulls)


_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<",
            ">=": "<="}


def comparable_types(left: SQLType, right: SQLType) -> bool:
    """Whether a comparison between the two types is accepted: equal
    types, or two numerics."""
    return left == right or (left.is_numeric and right.is_numeric)


def _compare_scalar(op: str, left: ColumnData, value) -> ColumnData:
    """``column op scalar`` without materializing a constant column."""
    value_type = infer_type(value)
    if left.sql_type is _UNTYPED:
        return ColumnData.all_null(SQLType.BOOLEAN, len(left))
    if not comparable_types(left.sql_type, value_type):
        raise TypeMismatchError(
            f"incompatible types: {left.sql_type} and {value_type}")
    lhs = left.values
    if left.sql_type == SQLType.VARCHAR and left.nulls.any():
        lhs = np.where(left.nulls, "", lhs)
    if op == "=":
        values = lhs == value
    elif op == "<>":
        values = lhs != value
    elif op == "<":
        values = lhs < value
    elif op == "<=":
        values = lhs <= value
    elif op == ">":
        values = lhs > value
    else:
        values = lhs >= value
    return ColumnData(SQLType.BOOLEAN, np.asarray(values, dtype=bool),
                      left.nulls)


def _comparison(op: str, left: ColumnData,
                right: ColumnData) -> ColumnData:
    left, right, common = _unify(left, right)
    nulls = left.nulls | right.nulls
    lhs, rhs = left.values, right.values
    if common == SQLType.VARCHAR:
        # Object arrays: make NULL lanes comparable before vector ops.
        lhs = np.where(left.nulls, "", lhs)
        rhs = np.where(right.nulls, "", rhs)
    if op == "=":
        values = lhs == rhs
    elif op == "<>":
        values = lhs != rhs
    elif op == "<":
        values = lhs < rhs
    elif op == "<=":
        values = lhs <= rhs
    elif op == ">":
        values = lhs > rhs
    else:
        values = lhs >= rhs
    return ColumnData(SQLType.BOOLEAN, np.asarray(values, dtype=bool),
                      nulls)


def _kleene(op: str, left: ColumnData, right: ColumnData) -> ColumnData:
    """Three-valued AND/OR."""
    lv = left.values & ~left.nulls
    rv = right.values & ~right.nulls
    if op == "AND":
        false_somewhere = (~left.values & ~left.nulls) | \
                          (~right.values & ~right.nulls)
        values = lv & rv
        nulls = (left.nulls | right.nulls) & ~false_somewhere
    else:
        true_somewhere = lv | rv
        values = true_somewhere
        nulls = (left.nulls | right.nulls) & ~true_somewhere
    return ColumnData(SQLType.BOOLEAN, values, nulls)


def _eval_is_null(expr: ast.IsNull, frame: Frame,
                  stats: Optional[StatsCollector]) -> ColumnData:
    operand = evaluate(expr.operand, frame, stats)
    values = ~operand.nulls if expr.negated else operand.nulls.copy()
    return ColumnData(SQLType.BOOLEAN, values,
                      np.zeros(len(operand), dtype=bool))


def _eval_in_list(expr: ast.InList, frame: Frame,
                  stats: Optional[StatsCollector]) -> ColumnData:
    """``x IN (a, b, ...)`` as a fold of ``=`` over OR (Kleene)."""
    operand = evaluate(expr.operand, frame, stats)
    result: Optional[ColumnData] = None
    for item in expr.items:
        eq = _comparison("=", operand, evaluate(item, frame, stats))
        result = eq if result is None else _kleene("OR", result, eq)
    if result is None:
        result = ColumnData.constant(SQLType.BOOLEAN, False, frame.n_rows)
    if expr.negated:
        result = ColumnData(SQLType.BOOLEAN, ~result.values,
                            result.nulls.copy())
    return result


def _eval_case(expr: ast.CaseWhen, frame: Frame,
               stats: Optional[StatsCollector]) -> ColumnData:
    """Searched CASE: first matching WHEN wins; charge N*rows to stats."""
    n = frame.n_rows
    if stats is not None:
        stats.add(case_evaluations=len(expr.whens) * n)

    branches: list[tuple[np.ndarray, ColumnData]] = []
    unmatched = np.ones(n, dtype=bool)
    for cond_expr, result_expr in expr.whens:
        cond = _commit(evaluate(cond_expr, frame, stats), SQLType.BOOLEAN)
        fires = cond.values & ~cond.nulls & unmatched
        branches.append((fires, evaluate(result_expr, frame, stats)))
        unmatched = unmatched & ~fires
    else_is_null = expr.else_ is None or (
        isinstance(expr.else_, ast.Literal) and expr.else_.value is None)
    if not else_is_null:
        branches.append((unmatched, evaluate(expr.else_, frame, stats)))
    # A missing (or literal-NULL) ELSE needs no branch: the output
    # starts out all-NULL, so unmatched rows are already correct.

    # Determine the common result type across branches.
    result_type: Optional[SQLType] = None
    for _, col in branches:
        if _is_untyped(col):
            continue
        if result_type is None:
            result_type = col.sql_type
        elif result_type != col.sql_type:
            if result_type.is_numeric and col.sql_type.is_numeric:
                result_type = SQLType.REAL
            else:
                raise TypeMismatchError(
                    f"CASE branches mix {result_type} and {col.sql_type}")
    if result_type is None:
        result_type = SQLType.REAL

    out = ColumnData.all_null(result_type, n)
    for fires, col in branches:
        col = _commit(col, result_type)
        out.values[fires] = col.values[fires]
        out.nulls[fires] = col.nulls[fires]
    return out


def _eval_cast(expr: ast.Cast, frame: Frame,
               stats: Optional[StatsCollector]) -> ColumnData:
    operand = evaluate(expr.operand, frame, stats)
    target = type_from_name(expr.type_name)
    if _is_untyped(operand):
        return ColumnData.all_null(target, len(operand))
    if operand.sql_type == target:
        return operand
    if operand.sql_type.is_numeric and target == SQLType.VARCHAR:
        values = np.array([_number_to_str(v) for v in operand.values],
                          dtype=object)
        return ColumnData(target, values, operand.nulls.copy())
    if operand.sql_type == SQLType.REAL and target == SQLType.INTEGER:
        return ColumnData(target, operand.values.astype(np.int64),
                          operand.nulls.copy())
    return operand.cast(target)


def _number_to_str(value: Any) -> str:
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return str(int(value))
    return str(value)


_SCALAR_FUNCS = {"abs", "round", "floor", "ceil", "coalesce", "nullif"}


def _eval_scalar_func(expr: ast.FuncCall, frame: Frame,
                      stats: Optional[StatsCollector]) -> ColumnData:
    name = expr.name
    if expr.is_extended:
        raise PlanningError(
            f"{name}() with a BY clause is an extended aggregation; it "
            f"must be rewritten by the percentage-query code generator "
            f"before execution (see repro.core)")
    if name in ast.AGGREGATE_NAMES:
        raise PlanningError(
            f"aggregate {name}() is not allowed in this context")
    if name not in _SCALAR_FUNCS:
        raise PlanningError(f"unknown function {name}()")

    if name == "coalesce":
        if not expr.args:
            raise PlanningError("coalesce() requires arguments")
        result = evaluate(expr.args[0], frame, stats)
        for arg in expr.args[1:]:
            nxt = evaluate(arg, frame, stats)
            result, nxt, common = _unify(result, nxt)
            values = np.where(result.nulls, nxt.values, result.values)
            if common == SQLType.VARCHAR:
                values = values.astype(object)
            nulls = result.nulls & nxt.nulls
            result = ColumnData(common, values, nulls)
        return result
    if name == "nullif":
        if len(expr.args) != 2:
            raise PlanningError("nullif() requires two arguments")
        left = evaluate(expr.args[0], frame, stats)
        right = evaluate(expr.args[1], frame, stats)
        eq = _comparison("=", left, right)
        hit = eq.values & ~eq.nulls
        return ColumnData(left.sql_type, left.values.copy(),
                          left.nulls | hit)

    if len(expr.args) != 1:
        raise PlanningError(f"{name}() requires one argument")
    operand = evaluate(expr.args[0], frame, stats)
    operand = _commit(operand, operand.sql_type or SQLType.REAL)
    if not operand.sql_type.is_numeric:
        raise TypeMismatchError(f"{name}() requires a numeric argument")
    values = operand.values
    if name == "abs":
        out, out_type = np.abs(values), operand.sql_type
    elif name == "round":
        out, out_type = np.round(values.astype(np.float64)), SQLType.REAL
    elif name == "floor":
        out, out_type = np.floor(values.astype(np.float64)), SQLType.REAL
    else:  # ceil
        out, out_type = np.ceil(values.astype(np.float64)), SQLType.REAL
    return ColumnData(out_type, out.astype(out_type.numpy_dtype),
                      operand.nulls.copy())
