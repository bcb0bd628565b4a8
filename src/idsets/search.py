"""Exact minimum-weight hitting sets by lexicographic branch and bound.

Rows and demands are int bitmasks over element ids. Distinct 0/1 rows (the
s-t paths of a digraph, an explicit solution list) are identified by S when
no two agree on S: `first_collision` finds the first pair that does, and
`pair_demands` gives the masks `a ^ b` that every identifying set must hit.
The minimizer returns the hitting set that is smallest in (weight, sorted id
tuple) order, so ties break lexicographically and deterministically.

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

Demands are deduplicated and taken in numeric order; supersets of other
demands stay in, because the quadratic scan that dropped them cost more than
the whole search on the tight-gap family (2.4 s of 5.7 s at k = 8).

The search adds and compares the integer weights `WeightedGroundSet.scaled`
and divides by its `scale` once, for the reported weight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SubsetExplosion
from .graphs import WeightedGroundSet


def pair_demands(rows: Sequence[int]) -> set[int]:
    """Every `a ^ b` over pairs of rows; rows must be distinct, so none is 0."""
    return {a ^ b for i, a in enumerate(rows) for b in rows[i + 1:]}


def first_collision(rows: Sequence[int], s_mask: int) -> tuple[int, int] | None:
    """(i, j) for the first row j equal on s_mask to an earlier row i, else None."""
    first: dict[int, int] = {}
    for j, row in enumerate(rows):
        i = first.setdefault(row & s_mask, j)
        if i != j:
            return i, j
    return None


def min_weight_hitting_set(n: int, w: WeightedGroundSet, demands: Iterable[int],
                           max_states: int = 2**24) -> tuple[Fraction, tuple[int, ...]]:
    """Cheapest S hitting every demand mask; ties break lexicographically.

    Demands must be nonzero masks over range(n). Raises SubsetExplosion
    when the search would visit more than max_states nodes.
    """
    masks = sorted(set(demands))
    if not masks:
        return Fraction(0), ()
    if masks[0] < 1 or masks[-1] >> n:
        raise ValueError("demands must be nonzero masks over range(n)")
    full = (1 << n) - 1
    iw = w.scaled
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
    elems = tuple(e for e in range(n) if best_mask >> e & 1)
    return Fraction(best_weight, w.scale), elems


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
