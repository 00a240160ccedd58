"""Formatting experiment results as paper-style tables.

The harness produces :class:`~repro.bench.harness.ExperimentResult`
cells; this module pivots them into the row/column layout the papers
print (queries down, strategies across) as markdown.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.harness import ExperimentResult


def pivot_results(results: Iterable[ExperimentResult],
                  value: str = "seconds"
                  ) -> tuple[list[str], list[list[str]]]:
    """Pivot cells into (strategy headers, rows of label + values).

    ``value`` selects the reported metric: ``seconds``, ``logical_io``,
    ``case_evaluations`` or ``statements``.  A cell timed more than
    once shows its median seconds with the interquartile range of its
    runs in parentheses.
    """
    strategies: list[str] = []
    labels: list[str] = []
    cells: dict[tuple[str, str], str] = {}
    for result in results:
        if result.strategy not in strategies:
            strategies.append(result.strategy)
        if result.label not in labels:
            labels.append(result.label)
        raw = getattr(result, value)
        if value == "seconds":
            rendered = f"{raw:.3f}"
            if result.runs > 1:
                rendered += f" ({result.spread:.3f})"
        else:
            rendered = str(raw)
        cells[(result.label, result.strategy)] = rendered
    rows = []
    for label in labels:
        rows.append([label] + [cells.get((label, s), "-")
                               for s in strategies])
    return strategies, rows


def format_markdown(title: str, results: Iterable[ExperimentResult],
                    value: str = "seconds") -> str:
    """The pivot as a markdown table (queries x strategies)."""
    strategies, rows = pivot_results(results, value)
    out = [f"### {title}", "",
           "| query | " + " | ".join(strategies) + " |",
           "|" + "---|" * (len(strategies) + 1)]
    for row in rows:
        cells = [cell.replace("|", "\\|") for cell in row]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
