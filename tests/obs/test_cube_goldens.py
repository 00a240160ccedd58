"""Golden EXPLAIN ANALYZE traces for the shared-scan grouping-sets
operator: one CUBE, one ROLLUP, one multi-level percentage hierarchy.

Any change to the lattice plan (set count, per-set group counts) or
to the span/charge accounting shows up as a golden diff.  Regenerate
intentionally changed traces with ``pytest tests/obs --update-golden``.
"""

from repro.obs.tracer import audit_statement_span, validate_span_tree

from tests.obs.conftest import normalize_temp_names

CUBE_SQL = ("EXPLAIN ANALYZE SELECT state, city, sum(salesamt), "
            "count(*), grouping(state, city) FROM sales "
            "GROUP BY CUBE(state, city)")
ROLLUP_SQL = ("EXPLAIN ANALYZE SELECT state, city, count(*), "
              "min(salesamt) FROM sales GROUP BY ROLLUP(state, city)")
PCT_SQL = ("EXPLAIN ANALYZE SELECT state, city, sum(salesamt), "
           "pct(salesamt) FROM sales GROUP BY ROLLUP(state, city)")


def _golden_text(db, sql) -> str:
    text = "\n".join(
        line for (line,) in db.execute(sql).to_rows())
    for root in db.tracer.roots():
        validate_span_tree(root)
        for statement in root.find(kind="statement"):
            audit_statement_span(statement)
    return normalize_temp_names(text)


class TestCubeGoldens:
    def test_cube_shared_scan(self, traced_sales_db, golden):
        golden("cube-shared-scan",
               _golden_text(traced_sales_db, CUBE_SQL))

    def test_rollup_fold_chain(self, traced_sales_db, golden):
        golden("rollup-fold-chain",
               _golden_text(traced_sales_db, ROLLUP_SQL))

    def test_rollup_percentage_hierarchy(self, traced_sales_db, golden):
        golden("rollup-percentage-hierarchy",
               _golden_text(traced_sales_db, PCT_SQL))


class TestSpanShape:
    """Structural assertions that hold regardless of golden churn."""

    def test_per_set_spans_under_the_build(self, traced_sales_db):
        db = traced_sales_db
        db.execute("SELECT state, count(*) FROM sales "
                   "GROUP BY CUBE(state, city)")
        roots = db.tracer.roots()
        builds = [s for root in roots
                  for s in root.find(name="grouping-sets-build")]
        assert len(builds) == 1
        assert builds[0].attrs["sets"] == 4
        assert builds[0].attrs["dims"] == 2
        sets = [s for root in roots
                for s in root.find(name="grouping-set")]
        # 4 requested sets but (state, city)/(state)/(city)/() are the
        # 4 distinct dim tuples, each computed exactly once
        assert len(sets) == 4
        labels = {s.attrs["set"] for s in sets}
        assert labels == {"(state, city)", "(state)", "(city)", "()"}
        for span in sets:
            assert span.attrs["groups"] >= 1
