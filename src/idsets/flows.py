"""Identifying sets for unit s-t flows via the cographic-matroid characterization.

A set S is identifying for the flow polytope exactly when removing S from the
relevant arcs E' (arcs on some s-t path or directed cycle) leaves no
undirected cycle. Minimal identifying sets are therefore complements of
spanning forests of (V, E'), and a maximum-weight forest yields the
minimum-weight identifying set. E' is collected by the walks that find it:
the walk into t keeps the arcs of the s-t core, and Kosaraju, run only on
the nodes off the core, keeps the arcs inside its components. Kruskal and
the cycle finder each run one batch of union-find joins. A failed verification
pushes flow around the first cycle it finds, walked in the order it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import and_
from typing import Iterable

from .errors import NoStPath
from .graphs import (
    Digraph,
    StPair,
    UnionFind,
    WeightedGroundSet,
    _kosaraju,
    _max_weight_forest,
    bfs_tree,
    reach_marks,
    tree_path,
    validate_ids,
    validate_weights,
)

FlowVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class FlowIdentifyResult:
    identifying_set: frozenset[int]
    relevant_arcs: frozenset[int]
    forest_certificate: frozenset[int]
    total_weight: Fraction


@dataclass(frozen=True)
class FlowWitness:
    """Two distinct feasible unit flows agreeing on the queried set."""

    cycle: tuple[int, ...]
    flow_a: FlowVector
    flow_b: FlowVector


def relevant_arcs(g: Digraph, st: StPair) -> frozenset[int]:
    """E': arcs on some directed cycle or some s-t path (the support union of
    all flows).

    Call the nodes that s reaches and that reach t the core. An arc on an s-t
    walk has both ends in the core, and is on an s-t path; a directed cycle
    through a core node has every node in the core, so all its arcs are walk
    arcs. So E' is the arcs inside the core, which the walk into t keeps as
    the in-arcs of its nodes whose tail s reaches, plus the arcs inside a
    strongly connected component of the other nodes, which Kosaraju, run on
    those alone, keeps. Raises NoStPath when s does not reach t.
    """
    st.validate(g)
    core, marks = _core_arcs(g, st)
    return frozenset(core + _kosaraju(g, marks)[1])


def _core_arcs(g: Digraph, st: StPair) -> tuple[list[int], bytes]:
    """The arcs inside the s-t core, E' on a DAG, and the core marks: the walk
    into t keeps each in-arc whose tail s reaches. NoStPath if s misses t."""
    from_s = reach_marks(g, st.source)
    if not from_s[st.sink]:
        raise NoStPath(f"no path from {st.source} to {st.sink}")
    inc, tails = g.in_arcs(), g.tails
    to_t, stack, core = bytearray(g.node_count), [st.sink], []
    to_t[st.sink] = 1
    while stack:
        for aid in inc[stack.pop()]:
            u = tails[aid]
            if from_s[u]:
                core.append(aid)
            if not to_t[u]:
                to_t[u] = 1
                stack.append(u)
    return core, bytes(map(and_, from_s, to_t))


def min_weight_flow_identifying(g: Digraph, st: StPair,
                                w: WeightedGroundSet | None = None) -> FlowIdentifyResult:
    """Minimum-weight identifying set: E' minus a maximum-weight spanning forest."""
    w = validate_weights(g.arc_count, w)
    e_prime = relevant_arcs(g, st)
    forest = _max_weight_forest(g, e_prime, w)
    s = frozenset(e_prime - forest)
    return FlowIdentifyResult(
        identifying_set=s,
        relevant_arcs=e_prime,
        forest_certificate=frozenset(forest),
        total_weight=w.total(s),
    )


def verify_flow_identifying(g: Digraph, st: StPair,
                            s: Iterable[int]) -> tuple[bool, FlowWitness | None]:
    """True iff E' minus S is undirected-acyclic.

    On failure returns an undirected cycle in E' \\ S together with two
    feasible unit flows that differ only on the cycle (hence agree on S):
    the uniform mixture of per-arc supporting flows and its augmentation
    along the cycle.
    """
    s_set = validate_ids(g.arc_count, s)
    e_prime = relevant_arcs(g, st)
    remaining = sorted(e_prime - s_set)
    cycle = _find_undirected_cycle(g, remaining)
    if cycle is None:
        return True, None
    flow = _uniform_cycle_mixture(g, st, cycle)
    augmented = _augment_along_cycle(g, flow, cycle)
    return False, FlowWitness(cycle=tuple(cycle), flow_a=flow, flow_b=augmented)


def _find_undirected_cycle(g: Digraph, arcs: list[int]) -> list[int] | None:
    """First undirected cycle formed while adding arcs in ascending id order:
    the closing arc, the first that joins no two classes, then the path back
    from its head to its tail in the forest of the arcs before it."""
    joined = UnionFind(g.node_count).joins(arcs, g.tails, g.heads)
    if len(joined) == len(arcs):
        return None
    i = next((i for i, (a, b) in enumerate(zip(arcs, joined)) if a != b), len(joined))
    tail, head = g.tails[arcs[i]], g.heads[arcs[i]]
    return [arcs[i]] + tree_path(g, bfs_tree(g, head, joined[:i], follow="both", goal=tail), tail)


def _uniform_cycle_mixture(g: Digraph, st: StPair, cycle: list[int]) -> FlowVector:
    """Average of one unit s-t flow per cycle arc, each positive on its arc.

    A cycle arc whose head reaches its tail rides the shortest s-t path plus
    the directed cycle it closes; any other relevant arc lies on the s-t path
    through the shortest paths s -> tail and head -> t. All paths are BFS
    paths, so the flows are integer arc counts divided by the cycle length,
    one Fraction per distinct count. The tree from each arc's head stops at
    its tail, or at t when no arc enters the tail. A tree that never reached
    its goal is full and serves every later cycle arc into the same head.
    """
    from_s = bfs_tree(g, st.source)
    inc, full = g.in_arcs(), {}
    counts = [0] * g.arc_count
    for arc in cycle:
        tail, head = g.tails[arc], g.heads[arc]
        from_head = full.get(head)
        if from_head is None:
            goal = tail if inc[tail] else st.sink
            from_head = bfs_tree(g, head, goal=goal)
            if goal not in from_head:
                full[head] = from_head
        if tail in from_head:
            walk = tree_path(g, from_s, st.sink) + tree_path(g, from_head, tail)
        else:
            walk = tree_path(g, from_s, tail) + tree_path(g, from_head, st.sink)
        for a in walk + [arc]:
            counts[a] += 1
    shares = {c: Fraction(c, len(cycle)) for c in set(counts)}
    return tuple(map(shares.__getitem__, counts))


def _augment_along_cycle(g: Digraph, flow: FlowVector, cycle: list[int]) -> FlowVector:
    """Push flow around the cycle: +eps forward, -eps backward, eps capped at
    the smallest backward value (any positive eps if the cycle is directed).

    The cycle is walked as `_find_undirected_cycle` lists it: the closing arc
    tail to head, then the forest path back, each arc forward when it leaves
    the current node by its tail.
    """
    node = g.heads[cycle[0]]
    forward, backward = [cycle[0]], []
    for a in cycle[1:]:
        tail, head = g.tails[a], g.heads[a]
        if tail == node:
            forward.append(a)
            node = head
        else:
            backward.append(a)
            node = tail
    eps = min((flow[a] for a in backward), default=Fraction(1))
    out = list(flow)
    for a in forward:
        out[a] += eps
    for a in backward:
        out[a] -= eps
    return tuple(out)
