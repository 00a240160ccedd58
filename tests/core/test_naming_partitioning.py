"""Unit tests for result-column naming and vertical partitioning."""

import pytest

from repro.core.naming import (NamingPolicy, abbreviate, combo_column_name,
                               sanitize)
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

    @pytest.mark.parametrize("limit", [6, 7, 8])
    def test_suffixed_abbreviations_fit_the_limit(self, limit):
        # Below six characters an abbreviation cannot keep its hash
        # whole; the suffix then cuts it shorter still.
        used: set[str] = set()
        names = [combo_column_name(["d"], ["y" * 29 + ch],
                                   NamingPolicy("values"), limit, used)
                 for ch in "!@#$%^&*()-+"]
        assert len({n.lower() for n in names}) == 12
        assert all(len(n) <= limit for n in names), names
        # The first name is the plain abbreviation, as it always was.
        assert names[0] == abbreviate("y" * 29 + "_", limit)
        assert len(names[0]) == limit

    @pytest.mark.parametrize("limit, fits", [(2, 1), (3, 9)])
    def test_no_suffix_fits_a_tiny_limit(self, limit, fits):
        """Past the last suffix that fits the limit, naming fails with a
        typed error that names the limit, not a bare ValueError."""
        used: set[str] = set()
        names = [combo_column_name(["d"], ["y" * 29 + ch],
                                   NamingPolicy("values"), limit, used)
                 for ch in "!@#$%^&*("[:fits]]
        assert all(len(n) <= limit for n in names), names
        with pytest.raises(PercentageQueryError, match=f"of {limit} "):
            combo_column_name(["d"], ["y" * 29 + ")"],
                              NamingPolicy("values"), limit, used)

    def test_a_tiny_limit_fails_typed_end_to_end(self):
        from repro import Database
        from repro.core.execute import run_percentage_query
        from repro.errors import ReproError
        db = Database(max_name_length=2)
        db.execute("CREATE TABLE t (g INT, d VARCHAR, a REAL)")
        db.execute("INSERT INTO t VALUES (1, 'yyy!', 1), (1, 'yyy@', 2)")
        with pytest.raises(ReproError):
            run_percentage_query(db, "SELECT g, Hpct(a BY d) FROM t "
                                     "GROUP BY g")

    def test_names_fit_the_limit_end_to_end(self):
        """Twelve BY values that sanitize alike under an identifier
        limit of 8: the tenth collision's suffix ``_10`` used to make
        ``y_d2e7_10``, nine characters."""
        from repro import Database
        from repro.core.execute import run_percentage_query
        db = Database(max_name_length=8)
        db.execute("CREATE TABLE t (g INT, d VARCHAR, a REAL)")
        values = ["y" * 29 + ch for ch in "!@#$%^&*()-+"]
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"(1, '{v}', {i + 1})" for i, v in enumerate(values)))
        table = run_percentage_query(db, "SELECT g, Hpct(a BY d) FROM t "
                                         "GROUP BY g")
        names = table.column_names()
        assert len(names) == 13
        assert all(len(name) <= 8 for name in names), names
        assert sum(table.to_rows()[0][1:]) == pytest.approx(1.0)

    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_temp_tables_fit_the_limit(self, source):
        """Twelve FH partitions under an identifier limit of 8:
        ``_hpN_fh12`` does not fit, so the partitions take ``_t``
        names; the result is the unpartitioned one."""
        from repro import Database
        from repro.core.execute import run_percentage_query
        from repro.core.horizontal import HorizontalStrategy
        rows = ", ".join(f"(1, {d}, {d + 1}.0)" for d in range(24))
        results = []
        for limits in ({}, {"max_columns": 3, "max_name_length": 8}):
            db = Database(**limits)
            db.execute("CREATE TABLE t (g INT, d INT, a REAL)")
            db.execute(f"INSERT INTO t VALUES {rows}")
            results.append(run_percentage_query(
                db, "SELECT g, Hpct(a BY d) FROM t GROUP BY g",
                HorizontalStrategy(source=source)).to_rows())
            assert db.table_names() == ["t"]
        assert results[0] == results[1]


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
