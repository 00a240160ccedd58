"""The ``cube`` fuzz family: generator shapes, the UNION ALL sqlite
oracle, and differential smoke runs across storages."""

import pytest

from repro.fuzz.dialect import DialectError, cube_to_union_sql
from repro.fuzz.generator import FAMILIES, CaseGenerator, FuzzCase
from repro.fuzz.runner import run_case
from repro.fuzz.variants import matrix


def _cube_cases(count, seed=0):
    generator = CaseGenerator(seed=seed, families=("cube",))
    return list(generator.cases(count))


class TestGenerator:
    def test_family_filter_restricts_the_mix(self):
        assert {c.family for c in _cube_cases(20)} == {"cube"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            CaseGenerator(families=("cube", "nope"))
        with pytest.raises(ValueError, match="at least one"):
            CaseGenerator(families=())

    def test_default_mix_still_covers_every_family(self):
        seen = {c.family for c in CaseGenerator(seed=1).cases(120)}
        assert seen == set(FAMILIES)

    def test_cube_cases_carry_a_grouping_construct(self):
        for case in _cube_cases(20):
            assert case.group_by_clause
            sql = case.query_sql()
            assert ("CUBE" in sql or "ROLLUP" in sql
                    or "GROUPING SETS" in sql)

    def test_cases_round_trip_through_corpus_format(self):
        for case in _cube_cases(5):
            clone = FuzzCase.from_dict(case.to_dict())
            assert clone == case

    def test_pivot_runs_under_group_by_and_lattices(self):
        """The ``pivot`` term -- a run of disjoint CASE aggregates over
        one dim -- rides on plain GROUP BYs (the pivot kernel) and on
        lattices (the generic evaluator), survives the corpus format,
        and agrees with sqlite on both."""
        cases = [c for c in CaseGenerator(
            seed=3, families=("plain", "cube")).cases(60)
            if any(t.kind == "pivot" for t in c.terms)]
        assert {c.family for c in cases} == {"plain", "cube"}
        for case in cases:
            assert FuzzCase.from_dict(case.to_dict()) == case
            (run,) = [t for t in case.terms if t.kind == "pivot"]
            assert len(run.values) >= 2
            assert run.sql().count("CASE WHEN") == len(run.values)
            result = run_case(case)
            assert not result.divergent, result.divergence_report()

    def test_old_corpus_entries_without_clause_still_load(self):
        case = _cube_cases(1)[0]
        data = case.to_dict()
        data.pop("group_by_clause")
        data["family"] = "plain"
        legacy = FuzzCase.from_dict(data)
        assert legacy.group_by_clause == ""
        assert " GROUP BY " + ", ".join(legacy.group_by) \
            in legacy.query_sql()


class TestUnionOracle:
    def test_rollup_expands_to_prefix_pieces(self):
        sql = cube_to_union_sql(
            "SELECT d1, d2, count(*) FROM f GROUP BY ROLLUP(d1, d2)")
        pieces = sql.split(" UNION ALL ")
        assert len(pieces) == 3
        assert "GROUP BY d1, d2" in pieces[0]
        assert "GROUP BY d1" in pieces[1]
        assert "GROUP BY" not in pieces[2]
        # absent dims project as NULL literals
        assert "NULL" in pieces[1] and "NULL" in pieces[2]

    def test_grouping_becomes_constant_masks(self):
        sql = cube_to_union_sql(
            "SELECT d1, grouping(d1), count(*) FROM f "
            "GROUP BY GROUPING SETS ((d1), ())")
        first, second = sql.split(" UNION ALL ")
        assert "SELECT d1, 0, count(*)" in first
        assert "SELECT NULL, 1, count(*)" in second

    def test_division_is_cast_for_sqlite(self):
        sql = cube_to_union_sql(
            "SELECT d1, sum(m1) / count(*) FROM f GROUP BY CUBE(d1)")
        assert "CAST(sum(m1) AS REAL)" in sql

    @pytest.mark.parametrize("sql", (
        "SELECT d1, count(*) FROM f GROUP BY d1",          # no sets
        "SELECT d1, count(*) FROM f GROUP BY CUBE(d1) "
        "ORDER BY 1",                                       # order by
        "SELECT d1, count(*) FROM f GROUP BY CUBE(d1) "
        "HAVING count(*) > 1",                              # having
    ))
    def test_uncovered_shapes_refused_loudly(self, sql):
        with pytest.raises(DialectError):
            cube_to_union_sql(sql)


class TestDifferentialSmoke:
    def test_cube_cases_consistent_with_union_oracle(self):
        for case in _cube_cases(15, seed=11):
            result = run_case(case)
            assert not result.divergent, result.divergence_report()
            names = [v.name for v in result.variants]
            assert names == ["engine:shared-scan", "sqlite:union-all"]

    def test_disk_joins_the_net(self):
        case = next(c for c in _cube_cases(30, seed=2)
                    if len(c.rows) >= 4)
        result = run_case(case, variants=matrix())
        assert not result.divergent, result.divergence_report()
        names = [v.name for v in result.variants]
        # engine:<strategy> (the memory cell), then the oracle, then
        # engine:<strategy>@<storage> per other matrix cell
        assert names == ["engine:shared-scan", "sqlite:union-all",
                         "engine:shared-scan@disk"]

    def test_injected_fold_bug_is_caught(self, monkeypatch):
        """Harness self-test: break the per-set grouping derived from
        the union factorization (a coarse set's first row lands in the
        wrong group) and the union oracle must notice on some case."""
        from repro.engine import groupingsets as gs_mod

        real = gs_mod.derive_set_grouping

        def broken(union, dims, n_rows):
            sg = real(union, dims, n_rows)
            grouping = sg.grouping
            if len(dims) < len(union.encodings) and grouping.n_groups > 1:
                grouping.group_ids[0] = \
                    (grouping.group_ids[0] + 1) % grouping.n_groups
            return sg

        monkeypatch.setattr(gs_mod, "derive_set_grouping", broken)
        assert any(run_case(case).divergent
                   for case in _cube_cases(25, seed=5))
