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
from typing import Any, Sequence

from repro.errors import PercentageQueryError


@dataclass
class NamingPolicy:
    """How horizontal result columns are named.

    ``style``:
        ``"values"`` -- join the combination's values (``Mon``,
        ``2_Mon``); this is what the paper's example tables show.
        ``"full"`` -- ``col=value`` pairs (``dweek=Mon_month=2``); this
        is what the paper's CREATE TABLE sketch shows.

    A name longer than the catalog's identifier limit is truncated and
    suffixed with a stable 4-hex-digit hash, the "abbreviations"
    option the paper recommends over opaque integer identifiers.
    """

    style: str = "values"

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
    return cell_names(columns, [values], policy, max_length, used,
                      prefix)[0]


def cell_names(columns: Sequence[str], combos: Sequence[Sequence[Any]],
               policy: NamingPolicy, max_length: int, used: set[str],
               prefix: str = "") -> list[str]:
    """:func:`combo_column_name` of each combination in turn, named in
    one pass over the combinations: each distinct value of each BY
    column is sanitized once (a term's 10,000 combinations hold a few
    hundred distinct values), the fragments are joined, and the
    leading-character guard, abbreviation and :func:`uniquify` are
    applied only where they bite."""
    if not combos:
        return []
    if prefix:
        # Every name starts with the prefix: its first character
        # decides the guard for all of them.
        prefix = _leading(prefix)
    parts = []
    for j, (column, values) in enumerate(zip(columns, zip(*combos))):
        # Keyed by type as well where types mix: True and 1 are equal
        # dict keys.
        single = len(set(map(type, values))) == 1
        keys = values if single else list(zip(map(type, values), values))
        fragments = {}
        for key in dict.fromkeys(keys):
            fragment = sanitize(key if single else key[1])
            if policy.style == "full":
                fragment = f"{column}_{fragment}"
            fragments[key] = _leading(fragment) if j == 0 and not prefix \
                else fragment
        parts.append(list(map(fragments.__getitem__, keys)))
    names = list(map("_".join, zip(*parts))) if parts \
        else [""] * len(combos)
    if prefix:
        names = list(map(prefix.__add__, names))
    if max(map(len, names)) > max_length:
        names = [abbreviate(name, max_length) for name in names]
    lowered = list(map(str.lower, names))
    if used.isdisjoint(lowered) and len(set(lowered)) == len(lowered):
        used.update(lowered)
        return names
    out = []
    for name in names:
        name = uniquify(name, used, max_length)
        used.add(name.lower())
        out.append(name)
    return out


def _leading(text: str) -> str:
    """``text`` as the start of an identifier: ``c`` in front of a
    first character that cannot start one.  A leading digit is the
    common case, but sanitize() keeps any alphanumeric -- including
    characters like '¼' that are isalnum() yet not a valid identifier
    start -- so guard on the positive."""
    if text and not (text[0].isalpha() or text[0] == "_"):
        return "c" + text
    return text


def abbreviate(name: str, limit: int) -> str:
    """``name``, truncated and suffixed with a stable hash when it is
    longer than ``limit``; never longer than ``limit``."""
    if len(name) <= limit:
        return name
    digest = hashlib.sha1(name.encode()).hexdigest()[:4]
    keep = max(limit - 5, 1)
    # Below six characters not even one kept character, the separator
    # and the hash fit: the abbreviation is cut to the limit.
    return f"{name[:keep]}_{digest}"[:max(limit, 0)]


def uniquify(name: str, used: set[str], limit: int) -> str:
    """``name``, or the first ``name_2``, ``name_3``, ... not in
    ``used``, the name abbreviated to leave the suffix room within
    ``limit``."""
    if name.lower() not in used:
        return name
    for i in range(2, 10_000):
        suffix = f"_{i}"
        if len(suffix) >= limit:
            break
        candidate = abbreviate(name, limit - len(suffix)) + suffix
        if candidate.lower() not in used:
            return candidate
    raise PercentageQueryError(
        f"cannot name column {name!r} apart from the others within "
        f"the identifier limit of {limit} characters")
