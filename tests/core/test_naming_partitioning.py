"""Unit tests for result-column naming and vertical partitioning."""

import pytest

from repro.core.naming import NamingPolicy, combo_column_name, sanitize
from repro.core.partitioning import split_result_columns
from repro.errors import PercentageQueryError


class TestSanitize:
    def test_plain(self):
        assert sanitize("Mon") == "Mon"

    def test_null(self):
        assert sanitize(None) == "null"

    def test_specials_replaced(self):
        assert sanitize("a b-c") == "a_b_c"

    def test_integral_float(self):
        assert sanitize(2.0) == "2"
        assert sanitize(-7.0) == "_7"
        assert sanitize(2.0 ** 53 - 1) == "9007199254740991"

    def test_huge_float_invents_no_digits(self):
        # int(1e23) is 99999999999999991611392: digits the REAL value
        # never had.  From 2**53 on a float is spelled as repr() does.
        assert sanitize(1e23) == "1e_23"
        assert sanitize(-1e23) == "_1e_23"
        assert sanitize(2.0 ** 53) == "9007199254740992_0"
        assert combo_column_name(["a"], [1e23], NamingPolicy("values"),
                                 64, set()) == "c1e_23"

    def test_empty(self):
        assert sanitize("") == "_"


class TestComboColumnName:
    def test_values_style(self):
        used = set()
        name = combo_column_name(["dweek", "month"], ["Mo", 2],
                                 NamingPolicy("values"), 64, used)
        assert name == "Mo_2"

    def test_full_style(self):
        used = set()
        name = combo_column_name(["dweek"], ["Mo"],
                                 NamingPolicy("full"), 64, used)
        assert name == "dweek_Mo"

    def test_leading_digit_prefixed(self):
        name = combo_column_name(["m"], [3], NamingPolicy("values"),
                                 64, set())
        assert name == "c3"

    def test_collision_suffixed(self):
        used = set()
        first = combo_column_name(["a"], ["x"], NamingPolicy("values"),
                                  64, used)
        second = combo_column_name(["a"], ["x"], NamingPolicy("values"),
                                   64, used)
        assert first == "x"
        assert second != first

    def test_abbreviation_with_stable_hash(self):
        used = set()
        long_value = "v" * 100
        name = combo_column_name(["a"], [long_value],
                                 NamingPolicy("values"), 20, used)
        assert len(name) <= 20
        again = combo_column_name(["a"], [long_value],
                                  NamingPolicy("values"), 20, set())
        assert again == name  # deterministic

    def test_prefix(self):
        name = combo_column_name(["a"], ["x"], NamingPolicy("values"),
                                 64, set(), prefix="sum_m_")
        assert name == "sum_m_x"

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError):
            NamingPolicy("fancy")


class TestSplitResultColumns:
    def test_fits_in_one(self):
        assert split_result_columns(2, ["a", "b"], 10) == [["a", "b"]]

    def test_splits_evenly(self):
        parts = split_result_columns(1, list("abcdefgh"), 4)
        assert parts == [["a", "b", "c"], ["d", "e", "f"], ["g", "h"]]
        assert all(1 + len(p) <= 4 for p in parts)

    def test_keys_leave_no_room(self):
        with pytest.raises(PercentageQueryError):
            split_result_columns(5, ["a"], 5)

    def test_exact_fit(self):
        assert split_result_columns(1, ["a", "b", "c"], 4) == \
            [["a", "b", "c"]]
