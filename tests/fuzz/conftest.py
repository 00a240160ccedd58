"""Helpers shared by the fuzz-harness tests."""

from __future__ import annotations

from repro.fuzz.generator import FAMILIES, CaseGenerator
from repro.fuzz.variants import Variant

#: The cheapest single cell, for self-tests that need only one.
MEMORY = [Variant("memory")]


def cases(count, seed=0, families=FAMILIES):
    return list(CaseGenerator(seed=seed, families=families).cases(count))
