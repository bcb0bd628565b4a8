"""Generators for the hardness-family and benchmark instances, shared by the
CLI `gen` subcommand and the tests.

Every generator records construction metadata (special arc sets, parameters)
so tests can assert construction-level facts instead of re-deriving them.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidInstance, as_sequence
from .graphs import Digraph, StPair, _integer


@dataclass(frozen=True)
class GeneratedInstance:
    graph: Digraph
    st: StPair
    metadata: dict = field(default_factory=dict)


def gen_tight_gap_family(k: int) -> GeneratedInstance:
    """The tight approximation-gap family.

    Nodes v_0..v_{2k+1} with s = v_0, t = v_{2k+1}; jump arcs (v_{2i}, v_{2j+1})
    for 0 <= i <= j <= k, then the k marked arcs e_i = (v_{2i-1}, v_{2i}).
    Path optimum is the k marked arcs; flow optimum has size k(k+1)/2.
    """
    k = _integer(k, "k")
    if k < 1:
        raise InvalidInstance("k must be >= 1")
    arcs = [(2 * i, 2 * j + 1) for i in range(k + 1) for j in range(i, k + 1)]
    marked = list(range(len(arcs), len(arcs) + k))
    arcs += [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    g = Digraph(2 * k + 2, arcs)
    st = StPair(0, 2 * k + 1)
    meta = {"construction": "tight-gap", "k": k, "marked_arcs": marked}
    return GeneratedInstance(graph=g, st=st, metadata=meta)


def gen_vertex_cover_dag(vc_vertices: int, vc_edges: Sequence[tuple[int, int]],
                         ell: int) -> GeneratedInstance:
    """Vertex-cover reduction DAG: s -> u_e -> v_i -> t with ell node copies.

    Arc blocks in id order: E_s (one arc per edge), E' (per edge, per endpoint,
    per copy), then for each copy i the block E_i (one arc per vertex).
    """
    vc_vertices, ell = _integer(vc_vertices, "vc_vertices"), _integer(ell, "ell")
    edges = []
    for edge in as_sequence(vc_edges, "vc_edges"):
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise InvalidInstance(f"each edge must be a pair of vertices, got {edge!r}") from None
        edges.append(tuple(sorted((_integer(a, "edge endpoint"), _integer(b, "edge endpoint")))))
    if not edges:
        raise InvalidInstance("the vertex-cover graph needs at least one edge")
    if ell < 1:
        raise InvalidInstance("ell must be >= 1")
    for a, b in edges:
        if not (0 <= a < vc_vertices and 0 <= b < vc_vertices) or a == b:
            raise InvalidInstance(f"bad edge ({a},{b})")
    s_node, t_node = 0, 1
    u_node = {ei: 2 + ei for ei in range(len(edges))}

    def copy_node(v: int, i: int) -> int:
        return 2 + len(edges) + v * ell + (i - 1)

    node_count = 2 + len(edges) + vc_vertices * ell
    arcs = [(s_node, u_node[ei]) for ei in range(len(edges))]
    e_s = list(range(len(arcs)))
    mid_info = [(ei, v, i) for ei, edge in enumerate(edges) for v in edge
                for i in range(1, ell + 1)]  # (edge index, vertex, copy) per E' arc
    e_mid = list(range(len(arcs), len(arcs) + len(mid_info)))
    arcs += [(u_node[ei], copy_node(v, i)) for ei, v, i in mid_info]
    tail_arcs = []  # (vertex, copy, arc id) per E_i arc
    for i in range(1, ell + 1):
        for v in range(vc_vertices):
            tail_arcs.append((v, i, len(arcs)))
            arcs.append((copy_node(v, i), t_node))
    g = Digraph(node_count, arcs)
    st = StPair(s_node, t_node)
    meta = {
        "construction": "vc-dag",
        "ell": ell,
        "vc_vertices": vc_vertices,
        "vc_edges": [list(e) for e in edges],
        "E_s": e_s,
        "E_prime": e_mid,
        "mid_info": mid_info,
        "tail_arcs": tail_arcs,
    }
    return GeneratedInstance(graph=g, st=st, metadata=meta)


def gen_bundle_instance(g: Digraph, st: StPair, arc: int,
                        bundle_size: int) -> GeneratedInstance:
    """Replace one arc by a bundle of parallel arcs (ids of the rest are stable).

    The original arc id becomes the first bundle member; the remaining
    bundle_size - 1 copies are appended at the end.
    """
    arc, bundle_size = _integer(arc, "arc"), _integer(bundle_size, "bundle_size")
    if bundle_size < 2:
        raise InvalidInstance("bundle_size must be >= 2")
    if not (0 <= arc < g.arc_count):
        raise InvalidInstance(f"arc id {arc} out of range")
    tail, head = g.tails[arc], g.heads[arc]
    arcs = list(g.arcs) + [(tail, head)] * (bundle_size - 1)
    bundle = [arc] + list(range(g.arc_count, g.arc_count + bundle_size - 1))
    meta = {"construction": "bundle", "bundle": bundle, "replaced_arc": arc}
    return GeneratedInstance(graph=Digraph(g.node_count, arcs), st=st, metadata=meta)


def _random_graph_args(nodes: int, arc_prob: float, seed: int) -> tuple[int, int]:
    """`nodes` and `seed` by the integer rule; `arc_prob` a real number (not a
    bool) in [0, 1]. InvalidInstance otherwise."""
    nodes, seed = _integer(nodes, "nodes"), _integer(seed, "seed")
    if isinstance(arc_prob, bool) or not isinstance(arc_prob, numbers.Real):
        raise InvalidInstance(f"arc_prob must be a real number, got {arc_prob!r}")
    if nodes < 2 or not (0 <= arc_prob <= 1):
        raise InvalidInstance("need nodes >= 2 and arc_prob in [0, 1]")
    return nodes, seed


def gen_random_dag(nodes: int, arc_prob: float, seed: int) -> GeneratedInstance:
    """Seeded random DAG: arcs follow a random permutation; s/t are its endpoints."""
    nodes, seed = _random_graph_args(nodes, arc_prob, seed)
    rng = random.Random(seed)
    perm = list(range(nodes))
    rng.shuffle(perm)
    arcs = [(perm[i], perm[j]) for i in range(nodes) for j in range(i + 1, nodes)
            if rng.random() < arc_prob]
    meta = {"construction": "random-dag", "nodes": nodes, "arc_prob": arc_prob,
            "seed": seed}
    return GeneratedInstance(graph=Digraph(nodes, arcs),
                             st=StPair(perm[0], perm[-1]), metadata=meta)


def gen_random_digraph(nodes: int, arc_prob: float, seed: int) -> GeneratedInstance:
    """Seeded random digraph over all ordered pairs; s = 0, t = nodes - 1."""
    nodes, seed = _random_graph_args(nodes, arc_prob, seed)
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(nodes) for v in range(nodes)
            if u != v and rng.random() < arc_prob]
    meta = {"construction": "random-digraph", "nodes": nodes, "arc_prob": arc_prob,
            "seed": seed}
    return GeneratedInstance(graph=Digraph(nodes, arcs), st=StPair(0, nodes - 1),
                             metadata=meta)
