"""Exact minimum-weight hitting sets by lexicographic branch and bound.

Several exact solvers reduce to the same question: find the cheapest subset
S of element ids that intersects every demand set (pairwise symmetric
differences of paths, of solution vectors, ...). The answer is the hitting
set that is smallest in (weight, sorted id tuple) order, so ties break
lexicographically and deterministically.

The search is depth first over element ids in ascending order, trying
"include e" before "exclude e". It therefore meets hitting sets in
lexicographic order of their sorted tuples, and a later one replaces the
incumbent only when it is strictly lighter; that keeps the lexicographically
first of the lightest sets, zero weights included. A node is pruned when its
weight plus a lower bound reaches the incumbent's weight; pruning on a tie is
safe because every set below the node comes later in that order. The bound
packs unhit demands that are pairwise disjoint on the ids still allowed (those
>= e) and adds, for each packed demand, the weight of its lightest allowed id:
any completion must pay that much to hit them. A node where some unhit demand
has no allowed id left is dead.

Two dominance rules cut subtrees that cannot hold the answer: a zero-weight
id is always included (adding it to any hitting set below keeps the weight
and makes the tuple smaller), and a positive-weight id that no unhit demand
contains is never included (dropping it is strictly lighter).

Weights are scaled to integers by the common denominator, which keeps the
arithmetic exact and the comparisons cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    when the search would visit more than max_states nodes.
    """
    masks = _demand_masks(demands)
    if not masks:
        return Fraction(0), ()
    full = (1 << n) - 1
    if any(mask & full != mask or mask == 0 for mask in masks):
        raise ValueError("demand sets must be nonempty subsets of range(n)")

    scale = lcm(*(w[e].denominator for e in range(n)))
    iw = [int(w[e] * scale) for e in range(n)]
    # (weight, ids of that weight) lightest first: the lightest id of a mask
    # is found by testing a few class masks instead of every bit.
    classes: dict[int, int] = {}
    for e, we in enumerate(iw):
        classes[we] = classes.get(we, 0) | (1 << e)
    by_weight = sorted(classes.items())

    best_weight: int | None = None
    best_mask = 0
    # Nodes: (next id e, chosen mask, its weight, demands it leaves unhit).
    stack: list[tuple[int, int, int, list[int]]] = [(0, 0, 0, masks)]
    visited = 0
    while stack:
        e, chosen, weight, unhit = stack.pop()
        visited += 1
        if visited > max_states:
            raise SubsetExplosion(
                max_states, f"the exact hitting-set search visited {visited} nodes")
        if not unhit:
            if best_weight is None or weight < best_weight:
                best_weight, best_mask = weight, chosen
            continue
        bound = _packing_bound(unhit, full >> e << e, by_weight)
        if bound is None or best_weight is not None and weight + bound >= best_weight:
            continue
        bit = 1 << e
        # Pushed exclude first, so that include is explored first.
        if iw[e]:
            stack.append((e + 1, chosen, weight, unhit))
        if not iw[e] or any(d & bit for d in unhit):
            stack.append((e + 1, chosen | bit, weight + iw[e],
                          [d for d in unhit if not d & bit]))
    if best_weight is None:
        raise ValueError("demands cannot all be hit (empty demand set?)")
    elems = tuple(e for e in range(n) if best_mask >> e & 1)
    return Fraction(best_weight, scale), elems


def _packing_bound(unhit: list[int], allowed: int,
                   by_weight: list[tuple[int, int]]) -> int | None:
    """Lower bound on the weight still needed; None when a demand is dead.

    Greedily packs unhit demands that are disjoint on the allowed ids and sums
    the weight of each packed demand's lightest allowed id.
    """
    bound = 0
    packed = 0
    for d in unhit:
        d &= allowed
        if not d:
            return None
        if not d & packed:
            packed |= d
            for cw, cm in by_weight:
                if d & cm:
                    bound += cw
                    break
    return bound


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
