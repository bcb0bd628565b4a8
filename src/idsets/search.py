"""Best-first minimum-weight hitting-set search over element subsets.

Several exact solvers reduce to the same question: find the cheapest subset
S of element ids that intersects every demand set (pairwise symmetric
differences of paths, of solution vectors, ...). The frontier enumerates
subsets as a tree (children append a strictly larger id), ordered by
(weight, sorted id tuple), so the first hit is the minimum-weight solution
with deterministic lexicographic tie-breaking.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable

from .errors import SubsetExplosion
from .graphs import WeightedGroundSet


def min_weight_hitting_set(
    n: int,
    w: WeightedGroundSet,
    demands: Iterable[frozenset[int]],
    max_states: int = 2**24,
) -> tuple[Fraction, tuple[int, ...]]:
    """Cheapest S hitting every demand set; ties break lexicographically.

    Demand sets must be nonempty subsets of range(n). Raises SubsetExplosion
    when the search would visit more than max_states subsets.
    """
    masks = _demand_masks(demands)
    if not masks:
        return Fraction(0), ()
    full = (1 << n) - 1
    if any(mask & full != mask or mask == 0 for mask in masks):
        raise ValueError("demand sets must be nonempty subsets of range(n)")

    def hits_all(smask: int) -> bool:
        return all(smask & d for d in masks)

    heap: list[tuple[Fraction, tuple[int, ...], int]] = [(Fraction(0), (), 0)]
    visited = 0
    while heap:
        weight, elems, smask = heapq.heappop(heap)
        visited += 1
        if visited > max_states:
            raise SubsetExplosion(f"subset search exceeded {max_states} states")
        if hits_all(smask):
            return weight, elems
        start = elems[-1] + 1 if elems else 0
        for e in range(start, n):
            heapq.heappush(heap, (weight + w[e], elems + (e,), smask | (1 << e)))
    raise ValueError("demands cannot all be hit (empty demand set?)")


def _demand_masks(demands: Iterable[frozenset[int]]) -> list[int]:
    """Deduplicated, minimal demand bitmasks (supersets of others are redundant)."""
    masks = sorted({_mask(d) for d in demands}, key=lambda m: bin(m).count("1"))
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _mask(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m

