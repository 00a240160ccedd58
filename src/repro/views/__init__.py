"""Incrementally-maintained materialized percentage views.

``CREATE MATERIALIZED VIEW v AS <query>`` snapshots a Vpct/Hpct or
plain group-by query as per-group partial-aggregate state plus a
derived result table.  DML on the base table adjusts only the touched
groups' state (delta maintenance with count-based retraction) and
re-derives only the result rows whose numerator or denominator group
changed; matching reads are answered from the view without touching
the base table.

* :mod:`repro.views.state` -- definition analysis and the per-group
  state layout (:class:`GroupLevel` / :class:`ViewState` /
  :class:`MaterializedView`).
* :mod:`repro.views.maintenance` -- one write rule (rows leave and
  join slots) for the build and INSERT/UPDATE/DELETE (copy-on-maintain:
  published state is never mutated, so catalog savepoint rollback
  restores consistent view objects for free).
* :mod:`repro.views.rewrite` -- result derivation (bit-identical to
  the engine's own evaluation strategies) and query matching.
"""

from repro.views.maintenance import apply_dml, build_matview, refresh
from repro.views.rewrite import derive, match_view
from repro.views.state import (MaterializedView, ViewDefinition,
                               analyze_view)

__all__ = ["analyze_view", "apply_dml", "build_matview", "derive",
           "match_view", "refresh", "MaterializedView",
           "ViewDefinition"]
