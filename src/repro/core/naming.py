"""Result-column naming for horizontal aggregations.

The companion paper (Section 3.6) flags two practical issues: very long
automatically-generated names and non-unique names.  This module
implements the paper's recommendations: readable names derived from the
subgrouping values (``"Dh=vh1 .. Dk=vk1"`` in the paper's CREATE TABLE)
or from the values alone (as in the example tables, whose columns are
``Mon, Tue, ...``), abbreviation by truncation plus a stable suffix
when the DBMS identifier limit would be exceeded, and uniqueness
enforcement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence


@dataclass
class NamingPolicy:
    """How horizontal result columns are named.

    ``style``:
        ``"values"`` -- join the combination's values (``Mon``,
        ``2_Mon``); this is what the paper's example tables show.
        ``"full"`` -- ``col=value`` pairs (``dweek=Mon_month=2``); this
        is what the paper's CREATE TABLE sketch shows.
    ``max_length``:
        identifier ceiling (defaults to the catalog's limit at use
        time); longer names are truncated and suffixed with a stable
        4-hex-digit hash, the "abbreviations" option the paper
        recommends over opaque integer identifiers.
    """

    style: str = "values"
    max_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.style not in ("values", "full"):
            raise ValueError("naming style must be 'values' or 'full'")


def sanitize(value: Any) -> str:
    """One value as an identifier fragment."""
    if value is None:
        return "null"
    text = str(value)
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 2 ** 53:
        # Below 2**53 every integral float is exactly the integer it
        # prints as; beyond it ``int()`` spells out binary digits the
        # value never had (1e23 -> 99999999999999991611392).
        text = str(int(value))
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in text)
    return cleaned or "_"


def combo_column_name(columns: Sequence[str], values: Sequence[Any],
                      policy: NamingPolicy, max_length: int,
                      used: set[str], prefix: str = "") -> str:
    """A unique identifier for one BY-combination result column.

    ``used`` accumulates names already taken in the result table (the
    caller shares one set across terms); the returned name is added to
    it.
    """
    return ColumnNamer(columns, policy, max_length, used,
                       prefix).name(values)


class ColumnNamer:
    """Names the BY-combination result columns of one term
    (:func:`combo_column_name`), sanitizing each distinct value of each
    BY column once: a term's 10,000 combinations hold a few hundred
    distinct values."""

    def __init__(self, columns: Sequence[str], policy: NamingPolicy,
                 max_length: int, used: set[str], prefix: str = ""
                 ) -> None:
        self.columns, self.policy, self.used = columns, policy, used
        self.prefix = prefix
        self.limit = policy.max_length or max_length
        self._fragments: list[dict[tuple, str]] = [{} for _ in columns]

    def name(self, values: Sequence[Any]) -> str:
        parts = []
        for column, value, fragments in zip(self.columns, values,
                                            self._fragments):
            # By type as well: True and 1 are equal dict keys.
            key = (type(value), value)
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = sanitize(value) \
                    if self.policy.style == "values" \
                    else f"{column}_{sanitize(value)}"
            parts.append(fragment)
        body = "_".join(parts)
        name = f"{self.prefix}{body}" if self.prefix else body
        # A leading digit is the common case, but sanitize() keeps any
        # alphanumeric -- including characters like '¼' that are
        # isalnum() yet not a valid identifier start -- so guard on
        # the positive.
        if name and not (name[0].isalpha() or name[0] == "_"):
            name = "c" + name
        name = _uniquify(_abbreviate(name, self.limit), self.used,
                         self.limit)
        self.used.add(name.lower())
        return name


def _abbreviate(name: str, limit: int) -> str:
    if len(name) <= limit:
        return name
    digest = hashlib.sha1(name.encode()).hexdigest()[:4]
    keep = max(limit - 5, 1)
    return f"{name[:keep]}_{digest}"


def _uniquify(name: str, used: set[str], limit: int) -> str:
    if name.lower() not in used:
        return name
    for i in range(2, 10_000):
        suffix = f"_{i}"
        candidate = _abbreviate(name, limit - len(suffix)) + suffix
        if candidate.lower() not in used:
            return candidate
    raise ValueError(f"cannot uniquify column name {name!r}")
