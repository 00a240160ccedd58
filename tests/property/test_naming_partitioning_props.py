"""Property-based invariants for column naming and vertical
partitioning."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naming import (NamingPolicy, cell_names, combo_column_name,
                               sanitize)
from repro.core.partitioning import split_result_columns

VALUES = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6),
    st.text(max_size=30),
    st.floats(allow_nan=False, allow_infinity=False))


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_sanitize_yields_identifier_fragment(value):
    fragment = sanitize(value)
    assert fragment
    assert all(ch.isalnum() or ch == "_" for ch in fragment)


@given(st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=30),
       st.integers(min_value=12, max_value=16),
       st.sampled_from(["values", "full"]),
       st.integers(min_value=6, max_value=40))
@settings(max_examples=120, deadline=None)
def test_combo_names_unique_and_bounded(combos, collisions, style, limit):
    """Every name is unique and within the limit, down to a limit of
    6 and through a dozen or more combinations of one long value that
    sanitize alike (each suffixed name abbreviated to leave room for
    its suffix); one pass over all the combinations names them as
    the combinations named one at a time do."""
    long_value = "y" * 29
    combos = combos + [(long_value + ch, long_value)
                       for ch in "!@#$%^&*()-+=~"[:collisions - 2]] \
        + [(long_value + "?", long_value)] * 2
    used: set[str] = set()
    names = [combo_column_name(["colx", "coly"], values,
                               NamingPolicy(style), limit, used)
             for values in combos]
    assert len({n.lower() for n in names}) == len(names)
    for name in names:
        assert len(name) <= limit
        assert name[0].isalpha() or name[0] == "_"
    assert cell_names(["colx", "coly"], combos, NamingPolicy(style),
                      limit, set()) == names


@given(st.lists(VALUES, min_size=1, max_size=20),
       st.sampled_from(["values", "full"]))
@settings(max_examples=80, deadline=None)
def test_combo_name_deterministic(values, style):
    first = combo_column_name(["c"] * len(values), values,
                              NamingPolicy(style), 32, set())
    second = combo_column_name(["c"] * len(values), values,
                               NamingPolicy(style), 32, set())
    assert first == second


@given(st.integers(0, 5),
       st.lists(st.integers(), min_size=0, max_size=200),
       st.integers(2, 50))
@settings(max_examples=100, deadline=None)
def test_partitions_cover_everything_within_limit(n_keys, columns,
                                                  max_columns):
    from repro.errors import PercentageQueryError
    if max_columns - n_keys < 1:
        try:
            split_result_columns(n_keys, columns, max_columns)
        except PercentageQueryError:
            return
        assert not columns  # only an empty list can "fit"
        return
    partitions = split_result_columns(n_keys, columns, max_columns)
    flattened = [c for p in partitions for c in p]
    assert flattened == list(columns)
    for partition in partitions[:-1] if len(partitions) > 1 else []:
        assert n_keys + len(partition) <= max_columns
    for partition in partitions:
        assert n_keys + len(partition) <= max_columns
