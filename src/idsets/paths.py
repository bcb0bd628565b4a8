"""Identifying sets for the simple s-t paths of a digraph.

Verification is polynomial on DAGs (arborescence criterion, with witness
paths read from the search tree that found the violation) and brute force
in general; minimization is an exact branch and bound over path-pair demands
(the decision problem is hard), with the flow-based set as the guaranteed
sqrt(m)-approximation on DAGs. The brute-force routines enumerate the paths
once, as arc bitmasks, and hand them to the 0/1-row core of idsets.search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable

from .caps import Caps, DEFAULT_CAPS
from .flows import _core_arcs, min_weight_flow_identifying
from .graphs import (
    Digraph,
    StPair,
    WeightedGroundSet,
    bfs_tree,
    enumerate_st_paths,
    shortest_arc_path,
    topological_order,
    tree_path,
    validate_ids,
    validate_weights,
)
from .search import first_collision, min_weight_hitting_set, pair_demands


@dataclass(frozen=True)
class PathIdentifyResult:
    identifying_set: frozenset[int]
    total_weight: Fraction
    method: str  # exact-bruteforce | flow-approx
    approx_bound: Fraction | None = None


@dataclass(frozen=True)
class PathWitness:
    """Two distinct s-t paths with identical intersections with the queried set."""

    path_a: frozenset[int]
    path_b: frozenset[int]


def verify_path_identifying_dag(g: Digraph, st: StPair,
                                s: Iterable[int]) -> tuple[bool, PathWitness | None]:
    """DAG-only polynomial verification.

    Prunes to E', the arcs of s-t paths, which on a DAG are the arcs inside
    the s-t core (`flows._core_arcs`, no component walk); then S
    is identifying iff for every node v the non-S arcs whose tail is
    reachable from v form an arborescence rooted at v, i.e. no node acquires
    in-degree two within that arc set. One sweep in topological order
    decides every v: reach[w] is the bitmask of the nodes
    reaching w over those arcs, and `bad` gets each v that reaches the tails of
    two in-arcs of one node. reach[w] is kept only while w has an unswept
    out-arc among them, so the live masks are those of one topological cut,
    not of every node. The least v in `bad` yields two v-w paths avoiding S,
    read from its BFS tree and extended to full s-t paths that agree on S.
    """
    st.validate(g)
    order = topological_order(g)
    s_set = validate_ids(g.arc_count, s)
    keep_arcs = frozenset(_core_arcs(g, st)[0])
    allowed = keep_arcs - s_set
    tails, inc = g.tails, g.in_arcs()
    reach, bad, out_left = [0] * g.node_count, 0, [0] * g.node_count
    for aid in allowed:
        out_left[tails[aid]] += 1
    for w in order:
        seen = 0
        for aid in inc[w]:
            if aid in allowed:
                v = tails[aid]
                bad |= seen & reach[v]
                seen |= reach[v]
                out_left[v] -= 1
                if not out_left[v]:
                    reach[v] = 0
        if out_left[w]:
            reach[w] = seen | 1 << w
    if not bad:
        return True, None
    v = (bad & -bad).bit_length() - 1
    tree = bfs_tree(g, v, allowed)
    first_in: dict[int, int] = {}
    aid = next(a for a in sorted(allowed)
               if tails[a] in tree and first_in.setdefault(g.heads[a], a) != a)
    head = g.heads[aid]
    return False, _build_dag_witness(g, st, keep_arcs, tree, v, head, first_in[head], aid)


def _build_dag_witness(g: Digraph, st: StPair, keep_arcs: frozenset[int],
                       tree: dict[int, int], v: int, w: int,
                       arc_a: int, arc_b: int) -> PathWitness:
    """Assemble two s-t paths differing only between v and w, off the set S;
    `tree`, the BFS tree of v over the non-S arcs, holds both middle paths."""
    prefix = shortest_arc_path(g, st.source, v, keep_arcs)
    suffix = shortest_arc_path(g, w, st.sink, keep_arcs)
    assert prefix is not None and suffix is not None
    mid_a = tree_path(g, tree, g.tails[arc_a])
    mid_b = tree_path(g, tree, g.tails[arc_b])
    path_a = frozenset(prefix + mid_a + [arc_a] + suffix)
    path_b = frozenset(prefix + mid_b + [arc_b] + suffix)
    return PathWitness(path_a=path_a, path_b=path_b)


def verify_path_identifying_general(g: Digraph, st: StPair, s: Iterable[int],
                                    cap: int = DEFAULT_CAPS.max_paths
                                    ) -> tuple[bool, PathWitness | None]:
    """Brute-force verification: S identifies the paths iff no two agree on S."""
    s_mask = sum(1 << a for a in validate_ids(g.arc_count, s))
    paths = enumerate_st_paths(g, st, cap)
    hit = first_collision(_arc_masks(paths), s_mask)
    if hit is None:
        return True, None
    return False, PathWitness(path_a=paths[hit[0]], path_b=paths[hit[1]])


def exact_min_path_identifying(g: Digraph, st: StPair,
                               w: WeightedGroundSet | None = None,
                               caps: Caps = DEFAULT_CAPS) -> PathIdentifyResult:
    """Minimum-weight identifying set by exact branch and bound (idsets.search).

    Every pair of distinct paths demands one arc of its symmetric difference,
    so this is an exact minimum-weight hitting set over those demands.
    """
    w = validate_weights(g.arc_count, w)
    demands = pair_demands(_arc_masks(enumerate_st_paths(g, st, caps.max_paths)))
    weight, elems = min_weight_hitting_set(g.arc_count, w, demands, caps.max_subsets)
    return PathIdentifyResult(
        identifying_set=frozenset(elems),
        total_weight=weight,
        method="exact-bruteforce",
    )


def _arc_masks(paths: list[frozenset[int]]) -> list[int]:
    """Each path as an int with bit a set for every arc a on it."""
    return [sum(1 << a for a in path) for path in paths]


def _rational_sqrt_upper(m: int) -> Fraction:
    """Smallest p / 10**6 that is >= sqrt(m); keeps the reported bound rational."""
    target = m * 10**12
    p = isqrt(target)
    return Fraction(p + (p * p < target), 10**6)


def approx_min_path_identifying_dag(g: Digraph, st: StPair,
                                    w: WeightedGroundSet | None = None) -> PathIdentifyResult:
    """Flow-identifying set, valid for paths since paths are flow vertices.

    The recorded bound sqrt(|E|) is the guarantee for the unweighted size
    objective; with weights the set is still identifying and weight-minimal
    for flows, but carries no weighted path guarantee.
    """
    st.validate(g)
    topological_order(g)  # NotAcyclic on a cycle
    result = min_weight_flow_identifying(g, st, w)  # checks w (validate_weights)
    return PathIdentifyResult(
        identifying_set=result.identifying_set,
        total_weight=result.total_weight,
        method="flow-approx",
        approx_bound=_rational_sqrt_upper(g.arc_count),
    )


def size_ratio(exact: PathIdentifyResult, approx: PathIdentifyResult) -> Fraction:
    """|approx set| / |exact set|; 1 when both are empty (a unique path)."""
    opt = len(exact.identifying_set)
    got = len(approx.identifying_set)
    if opt == 0 and got == 0:
        return Fraction(1)
    if opt == 0:
        raise AssertionError("flow set nonempty on a unique-path instance")
    return Fraction(got, opt)
