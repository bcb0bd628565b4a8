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

The walk runs on the transpose of the demand list, numbered in reverse:
demand i of m (in that order) is bit m - 1 - i; `_cover_masks` reads id e's
column as every (n + 3)-th character of the demands written as one string.
`cover[e]` holds the demands that contain id e, and a node's unhit demands
are one int: including e leaves `unhit & uncover[e]`, some unhit demand holds
e when `unhit & cover[e]` is nonzero, and it is a leaf when `unhit` is 0. The
demands holding no id >= e are those below 2^e, the top bits, so the node is
dead when `unhit >= dead_from[e]`, one comparison. The bound packs the lowest
unhit demand i first, read off the top bit as `masks[-cand.bit_length()]`. At
depth e it keeps the demands sharing none of i's allowed ids and adds its
lightest allowed weight; both depend only on the restricted demand
`masks[i] & -1 << e`, so one memo keyed by it holds them for the rest of the
call. Complements are taken within the m bits (`full ^ x`) once, so no node
negates an m-bit int or ANDs with a negative one, which CPython would copy.

Before the walk, the weight G of the greedy cover (every zero-weight id, then
repeatedly the id in the most unhit demands per unit weight, ties to the
smaller id) starts it as an incumbent of weight G + 1 with no set behind it:
a node is pruned once its weight plus its bound exceeds G, and the first leaf
replaces it. G >= OPT, so the answer is unchanged, and the walk prunes all
that a walk with no starting incumbent would, so the nodes visited, counted
against `max_states`, can only be fewer. The sum stops once it reaches the
incumbent's weight, which changes no decision, so the walk packs the same
demands in the same order as the walk over the demand list in the tests and
visits its nodes node for node.

A state met again at a shallow depth is skipped. The subtree below a node
depends only on its depth e and unhit mask, so for e < n.bit_length() the
walk keeps the least weight at which each mask survived the bound, and a
later node there with the same mask and no lower weight is counted but not
expanded: the earlier subtree was searched first, from no higher weight, so
no leaf below the later node can replace the incumbent. Answers and
tie-breaks stay the same and visited counts only fall. Depth e holds at most
2^e masks, so the memo holds at most 2n - 1; deeper, a memo would grow with
the nodes visited.

The search adds and compares the integer weights `WeightedGroundSet.scaled`
and divides by its `scale` once, for the reported weight.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .caps import Caps
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

    Demands must be nonzero masks over range(n). max_states, read like
    `Caps.max_subsets`, bounds the nodes visited (SubsetExplosion past it).
    """
    max_states = Caps(max_subsets=max_states).max_subsets
    masks = sorted(set(demands))
    if not masks:
        return Fraction(0), ()
    if masks[0] < 1 or masks[-1] >> n:
        raise ValueError("demands must be nonzero masks over range(n)")
    iw = w.scaled
    cover = _cover_masks(masks, n)
    m = len(masks)
    full = (1 << m) - 1
    uncover = [full ^ c for c in cover]
    # The demands holding no id >= e are those below 2^e, the top bits: a
    # node at e is dead when unhit >= dead_from[e] (1 << m when there are none).
    dead_from = [1 << m - bisect_left(masks, 1 << e) for e in range(n + 1)]
    # packs[d]: (full ^ conflict, lightest) of the restricted demand d, built
    # the first time the bound packs a demand whose ids >= its depth are d.
    packs: dict[int, tuple[int, int]] = {}

    # The greedy cover's weight G bounds OPT, so G + 1 serves as an incumbent
    # with no set behind it until the first leaf replaces it.
    best_weight = _greedy_weight(cover, uncover, iw, full) + 1
    best_mask = 0
    # seen[e]: unhit mask -> least weight of a node at depth e that survived
    # the bound, for e < n.bit_length(): at most 2^e masks each, 2n - 1 in all.
    seen: list[dict[int, int]] = [{} for _ in range(n.bit_length())]
    shallow = len(seen)
    # Nodes: (next id e, chosen mask, its weight, demands it leaves unhit).
    stack: list[tuple[int, int, int, int]] = [(0, 0, 0, full)]
    pop, push, packed = stack.pop, stack.append, packs.get
    visited = 0
    while stack:
        e, chosen, weight, unhit = pop()
        visited += 1
        if visited > max_states:
            raise SubsetExplosion(
                max_states, f"the exact hitting-set search visited {visited} nodes")
        if not unhit:
            if weight < best_weight:
                best_weight, best_mask = weight, chosen
            continue
        if unhit >= dead_from[e]:
            continue
        if e < shallow and seen[e].get(unhit, weight + 1) <= weight:
            continue
        # Prune when the packing bound reaches the incumbent's weight.
        budget = best_weight - weight
        cand = unhit
        allowed = -1 << e
        while cand and budget > 0:
            d = masks[-cand.bit_length()] & allowed
            entry = packed(d)
            if entry is None:
                entry = packs[d] = _pack_entry(d, cover, iw, full)
            cand &= entry[0]
            budget -= entry[1]
        if budget <= 0:
            continue
        if e < shallow:
            seen[e][unhit] = weight
        # Pushed exclude first, so that include is explored first.
        we = iw[e]
        if we:
            push((e + 1, chosen, weight, unhit))
            if not unhit & cover[e]:
                continue
        push((e + 1, chosen | 1 << e, weight + we, unhit & uncover[e]))
    elems = tuple(e for e in range(n) if best_mask >> e & 1)
    return Fraction(best_weight, w.scale), elems


def _greedy_weight(cover: list[int], uncover: list[int], iw: Sequence[int], full: int) -> int:
    """Weight of the greedy cover: repeatedly the id hitting the most unhit
    demands per unit weight, ties to the smaller id. The ratios are compared
    cross-multiplied, so a zero-weight id that hits any beats every other."""
    unhit, total = full, 0
    while unhit:
        best, gain, cost = 0, 0, 1
        for e, we in enumerate(iw):
            g = (unhit & cover[e]).bit_count()
            if g * cost > gain * we:
                best, gain, cost = e, g, we
        total += cost
        unhit &= uncover[best]
    return total


def _cover_masks(masks: list[int], n: int) -> list[int]:
    """cover[e]: the int with bit m - 1 - i set when demand i of m holds id e.

    The demands are written in order as one string, each as `bin` of the
    demand with bit n set: "0b1" and then n digits. Id e is the digit at
    3 + n - 1 - e of each (n + 3)-character chunk, demand 0 leading.
    """
    top = 1 << n
    text = "".join([bin(d | top) for d in masks])
    return [int(text[j::n + 3], 2) for j in range(n + 2, 2, -1)]


def _pack_entry(d: int, cover: list[int], iw: Sequence[int], full: int) -> tuple[int, int]:
    """(full ^ conflict, lightest) for a demand restricted to its allowed ids
    `d`: the demands sharing none of those ids, and the least weight of those ids."""
    conflict = 0
    lightest = None
    while d:
        low = d & -d
        f = low.bit_length() - 1
        conflict |= cover[f]
        if lightest is None or iw[f] < lightest:
            lightest = iw[f]
        d ^= low
    return full ^ conflict, lightest
