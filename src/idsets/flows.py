"""Identifying sets for unit s-t flows via the cographic-matroid characterization.

A set S is identifying for the flow polytope exactly when removing S from the
relevant arcs E' (arcs on some s-t path or directed cycle) leaves no
undirected cycle. Minimal identifying sets are therefore complements of
spanning forests of (V, E'), and a maximum-weight forest yields the
minimum-weight identifying set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInstance, NoStPath
from .graphs import (
    Digraph,
    StPair,
    UnionFind,
    WeightedGroundSet,
    reachable_from,
    reverse_reachable_to,
    shortest_arc_path,
    spanning_forest_max_weight,
    strongly_connected_components,
    validate_ids,
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


def _check_flow_instance(g: Digraph, st: StPair) -> None:
    st.validate(g)
    if g.has_self_loop():
        raise InvalidInstance("self-loops are not allowed in flow settings")


def relevant_arcs(g: Digraph, st: StPair) -> frozenset[int]:
    """Arcs on some directed cycle or some s-t path (the support union of all flows).

    An arc is on a directed cycle iff its endpoints share a strongly connected
    component; a non-cycle arc (v, w) is on an s-t path iff s reaches v and w
    reaches t.
    """
    _check_flow_instance(g, st)
    from_s = reachable_from(g, st.source)
    if st.sink not in from_s:
        raise NoStPath(f"no path from {st.source} to {st.sink}")
    to_t = reverse_reachable_to(g, st.sink)
    comp = strongly_connected_components(g)
    relevant = set()
    for aid, (tail, head) in enumerate(g.arcs):
        if comp[tail] == comp[head]:
            relevant.add(aid)
        elif tail in from_s and head in to_t:
            relevant.add(aid)
    return frozenset(relevant)


def min_weight_flow_identifying(g: Digraph, st: StPair,
                                w: WeightedGroundSet | None = None) -> FlowIdentifyResult:
    """Minimum-weight identifying set: E' minus a maximum-weight spanning forest."""
    if w is None:
        w = WeightedGroundSet.uniform(g.arc_count)
    e_prime = relevant_arcs(g, st)
    forest = spanning_forest_max_weight(g, e_prime, w)
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
    """First undirected cycle formed while adding arcs in ascending id order."""
    uf = UnionFind(g.node_count)
    added: list[int] = []
    for aid in arcs:
        tail, head = g.arcs[aid]
        if tail == head:
            return [aid]
        if uf.union(tail, head):
            added.append(aid)
            continue
        # aid closes a cycle: recover the tree path between its endpoints.
        adj: dict[int, list[tuple[int, int]]] = {}
        for b in added:
            t2, h2 = g.arcs[b]
            adj.setdefault(t2, []).append((h2, b))
            adj.setdefault(h2, []).append((t2, b))
        parent: dict[int, tuple[int, int]] = {tail: (-1, -1)}
        queue = [tail]
        while queue:
            v = queue.pop(0)
            if v == head:
                break
            for nxt, b in adj.get(v, []):
                if nxt not in parent:
                    parent[nxt] = (v, b)
                    queue.append(nxt)
        path_arcs: list[int] = []
        v = head
        while v != tail:
            v, b = parent[v]
            path_arcs.append(b)
        return [aid] + path_arcs
    return None


def _supporting_flow(g: Digraph, st: StPair, arc: int) -> FlowVector:
    """A feasible unit s-t flow with positive value on `arc`.

    Cycle arcs get any s-t path plus a circulation around a directed cycle
    through the arc; other relevant arcs lie on a simple s-t path directly.
    """
    m = g.arc_count
    flow = [Fraction(0)] * m
    comp = strongly_connected_components(g)
    tail, head = g.arcs[arc]
    base_path = shortest_arc_path(g, st.source, st.sink)
    if base_path is None:
        raise NoStPath(f"no path from {st.source} to {st.sink}")
    if comp[tail] == comp[head]:
        same_comp_arcs = [a for a in range(m)
                          if comp[g.tail(a)] == comp[tail] and comp[g.head(a)] == comp[tail]]
        back = shortest_arc_path(g, head, tail, same_comp_arcs)
        assert back is not None
        for a in base_path:
            flow[a] += 1
        for a in [arc] + back:
            flow[a] += 1
    else:
        to_tail = shortest_arc_path(g, st.source, tail)
        from_head = shortest_arc_path(g, head, st.sink)
        assert to_tail is not None and from_head is not None
        for a in to_tail + [arc] + from_head:
            flow[a] += 1
    return tuple(flow)


def _uniform_cycle_mixture(g: Digraph, st: StPair, cycle: list[int]) -> FlowVector:
    """Average of one supporting flow per cycle arc; positive on every cycle arc."""
    k = len(cycle)
    total = [Fraction(0)] * g.arc_count
    for arc in cycle:
        supp = _supporting_flow(g, st, arc)
        for i, value in enumerate(supp):
            total[i] += value
    return tuple(value / k for value in total)


def _orient_cycle(g: Digraph, cycle: list[int]) -> tuple[list[int], list[int]]:
    """Split an undirected cycle into forward/backward arcs along one traversal."""
    if len(cycle) == 1:
        return list(cycle), []
    first = cycle[0]
    start, current = g.arcs[first]
    forward, backward = [first], []
    remaining = list(cycle[1:])
    while current != start:
        for i, aid in enumerate(remaining):
            tail, head = g.arcs[aid]
            if tail == current:
                forward.append(aid)
                current = head
                del remaining[i]
                break
            if head == current:
                backward.append(aid)
                current = tail
                del remaining[i]
                break
        else:
            raise AssertionError("arc set is not a single undirected cycle")
    return forward, backward


def _augment_along_cycle(g: Digraph, flow: FlowVector, cycle: list[int]) -> FlowVector:
    """Push flow around the cycle: +eps forward, -eps backward, eps capped at
    the smallest backward value (any positive eps if the cycle is directed)."""
    forward, backward = _orient_cycle(g, cycle)
    eps = min((flow[a] for a in backward), default=Fraction(1))
    out = list(flow)
    for a in forward:
        out[a] += eps
    for a in backward:
        out[a] -= eps
    return tuple(out)
