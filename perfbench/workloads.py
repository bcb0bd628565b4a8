"""Seeded inputs, requests and answer checks for the three workloads.

Every instance is built here from the seed with the standard library, then
written as the JSON files the `idsets` CLI reads; nothing is taken from
`idsets.instances`. Each request carries the check its answer must pass.
The checks use `reference.py`, never the program's own solvers.

Where an instance follows a construction of the paper (tight-gap, vc-dag)
the seed relabels its nodes and keeps the arc order of the construction:
the brute-force search breaks ties by arc id, so a reordering would move
the optimum through the search order and swap one instance for another.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

WORKLOADS = ("search", "algebra", "polytime")


@dataclass
class Request:
    """One closed-loop request: a CLI argv, or a library call for the
    operations that have no subcommand. `check` returns a problem or None."""

    rid: str
    cmd: str
    check: Callable[[dict], str | None]
    argv: list[str] | None = None
    call: Callable[[], tuple[int, str]] | None = None
    expect_exit: int = 0


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


class _Writer:
    def __init__(self, root: str):
        self.root = root

    def __call__(self, name: str, data) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _instance_json(nodes, arcs, s, t, weights=None) -> dict:
    data = {"nodes": nodes, "arcs": [list(a) for a in arcs], "s": s, "t": t}
    if weights is not None:
        data["weights"] = [str(w) for w in weights]
    return data


def _problem(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------- search


def tight_gap(k: int):
    """The paper's tight-gap family: path optimum k, flow optimum k(k+1)/2."""
    arcs = [(2 * i, 2 * j + 1) for i in range(k + 1) for j in range(i, k + 1)]
    arcs += [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    return 2 * k + 2, arcs, 0, 2 * k + 1


def vc_dag(vertices: int, edges, ell: int):
    """Vertex-cover reduction DAG s -> u_e -> v_i -> t, blocks in paper order."""
    m = len(edges)

    def copy(v: int, i: int) -> int:
        return 2 + m + v * ell + i

    arcs = [(0, 2 + e) for e in range(m)]
    arcs += [(2 + e, copy(v, i)) for e, ab in enumerate(edges) for v in ab
             for i in range(ell)]
    arcs += [(copy(v, i), 1) for i in range(ell) for v in range(vertices)]
    return 2 + m + vertices * ell, arcs, 0, 1


VC_GRAPHS = {
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "star3": (4, [(0, 1), (0, 2), (0, 3)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "path3": (3, [(0, 1), (1, 2)]),
}


def _relabel(rng: random.Random, nodes, arcs, s, t):
    perm = list(range(nodes))
    rng.shuffle(perm)
    return nodes, [(perm[u], perm[v]) for u, v in arcs], perm[s], perm[t]


def _check_path_exact(nodes, arcs, s, t, weights):
    def check(out: dict) -> str | None:
        paths = ref.st_paths(nodes, arcs, s, t)
        _, _, flow_set = ref.flow_identifying(nodes, arcs, s, t, weights)
        approx = sum((weights[a] for a in flow_set), Fraction(0))
        chosen = set(out["S"])
        weight = sum((weights[a] for a in chosen), Fraction(0))
        traces = {p & chosen for p in paths}
        return (_problem(len(traces) == len(paths), "S is not identifying")
                or _problem(Fraction(out["weight"]) == weight, "weight != w(S)")
                or _problem(weight <= approx, "exact weight above the flow set"))
    return check


def _check_path_gap(k: int):
    def check(out: dict) -> str | None:
        return _problem(
            (out["exact_size"], out["approx_size"], out["ratio"], out["gap_bound"])
            == (k, k * (k + 1) // 2, str(Fraction(k + 1, 2)), str(k * (k + 1) // 2)),
            "tight-gap closed form violated")
    return check


def _distinct_vectors(rng: random.Random, dim: int, count: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen["".join(rng.choice("01") for _ in range(dim))] = None
    return list(seen)


def _separates(vectors: list[str], chosen) -> bool:
    cols = sorted(chosen)
    return len({tuple(v[e] for e in cols) for v in vectors}) == len(vectors)


def _greedy_size(vectors: list[str], dim: int) -> int:
    """Unweighted set-cover greedy over vector pairs."""
    pairs = [(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:]]
    size = 0
    while pairs:
        best = max(range(dim), key=lambda e: sum(a[e] != b[e] for a, b in pairs))
        pairs = [(a, b) for a, b in pairs if a[best] == b[best]]
        size += 1
    return size


def _check_explicit_exact(vectors: list[str], dim: int):
    def check(out: dict) -> str | None:
        return (_problem(_separates(vectors, out["S"]), "S does not separate X")
                or _problem(Fraction(out["weight"]) == len(out["S"]), "weight != |S|")
                or _problem(len(out["S"]) <= _greedy_size(vectors, dim),
                            "exact set larger than greedy"))
    return check


def build_search(seed: int, write: _Writer) -> list[Request]:
    reqs = []
    cases = [("tight-gap-k4", tight_gap(4)), ("tight-gap-k5", tight_gap(5))]
    for ell, names in ((1, ("triangle", "star3", "path4")), (2, ("path3", "triangle"))):
        for name in names:
            cases.append((f"vc-dag-{name}-ell{ell}", vc_dag(*VC_GRAPHS[name], ell)))
    for name, raw in cases:
        rng = _rng(seed, name)
        nodes, arcs, s, t = _relabel(rng, *raw)
        weighted = name == "vc-dag-path4-ell1"
        weights = ([Fraction(rng.randint(1, 3)) for _ in arcs] if weighted
                   else [Fraction(1)] * len(arcs))
        path = write(f"{name}.json",
                     _instance_json(nodes, arcs, s, t, weights if weighted else None))
        reqs.append(Request(f"path-exact/{name}", "path_exact", argv=["path-exact", path],
                            check=_check_path_exact(nodes, arcs, s, t, weights)))
        if name == "tight-gap-k4":
            reqs.append(Request(f"path-gap/{name}", "path_gap", argv=["path-gap", path],
                                check=_check_path_gap(4)))
    for i in range(3):
        vectors = _distinct_vectors(_rng(seed, f"explicit-exact-{i}"), 16, 40)
        path = write(f"explicit-exact-{i}.json", {"dim": 16, "vectors": vectors})
        reqs.append(Request(f"explicit-exact/{i}", "explicit_exact",
                            argv=["explicit-identify", "--solutions", path, "--exact"],
                            check=_check_explicit_exact(vectors, 16)))
    return reqs


# ---------------------------------------------------------------- algebra


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _affine_basis(rng: random.Random, n: int, k: int):
    """k+1 affinely independent points of Q^n (redrawn until they are)."""
    while True:
        points = [[_rational(rng) for _ in range(n)] for _ in range(k + 1)]
        diffs = [[p[e] - points[0][e] for e in range(n)] for p in points[1:]]
        if len(ref.rref_pivots(diffs)) == k:
            return points, diffs


def _optimal_support(diffs, weights) -> set[int]:
    """Pivot columns of D with columns in ascending weight order: the
    minimum-weight S with rank D[:, S] = k."""
    order = sorted(range(len(weights)), key=lambda e: (weights[e], e))
    return {order[c] for c in ref.rref_pivots([[row[e] for e in order] for row in diffs])}


def _check_linear(diffs, weights, k: int):
    def check(out: dict) -> str | None:
        optimum = sum((weights[e] for e in _optimal_support(diffs, weights)), Fraction(0))
        chosen = sorted(out["S"])
        rank = len(ref.rref_pivots([[row[e] for e in chosen] for row in diffs]))
        weight = sum((weights[e] for e in chosen), Fraction(0))
        return (_problem(len(chosen) == k and out["dimension"] == k, "|S| != k")
                or _problem(rank == k, "S is not identifying")
                or _problem(Fraction(out["weight"]) == weight == optimum,
                            "weight is not the optimum"))
    return check


def _check_convex_tolls(diffs, resist, target, support):
    grad = [r * x for r, x in zip(resist, target)]

    def check(out: dict) -> str | None:
        gamma = {int(e): Fraction(v) for e, v in out["gamma"].items()}
        tolled = [g + gamma.get(e, 0) for e, g in enumerate(grad)]
        return (_problem(set(gamma) <= support, "toll outside S")
                or _problem(all(sum(a * b for a, b in zip(tolled, d)) == 0 for d in diffs),
                            "tolled subgradient not zero on the hull"))
    return check


def _random_graph(rng: random.Random, nodes: int, edges: int):
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    chosen = rng.sample(pairs, edges)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]


def _drop_heaviest(parts, weights):
    s = set()
    for part in parts:
        if len(part) > 1:
            s |= set(part) - {max(sorted(part), key=lambda e: (weights[e], -e))}
    return s


def _check_components(parts, weights):
    expected_parts = sorted((sorted(p) for p in parts), key=min)
    expected_s = _drop_heaviest(parts, weights)
    weight = sum((weights[e] for e in expected_s), Fraction(0))

    def check(out: dict) -> str | None:
        return (_problem(out["components"] == expected_parts, "wrong components")
                or _problem(set(out["S"]) == expected_s, "S is not the optimum")
                or _problem(Fraction(out["weight"]) == weight, "weight != w(S)"))
    return check


def _is_spanning_forest(nodes: int, edges, chosen) -> bool:
    uf = ref.UnionFind(nodes)
    if not all(uf.union(*edges[e]) for e in chosen):
        return False
    full = ref.UnionFind(nodes)
    return len(chosen) == sum(full.union(*e) for e in edges)


def _matroid_verify(rid: str, kind: str, params: dict, s: list[int], basis_ok,
                    expect_exit: int) -> Request:
    def call() -> tuple[int, str]:
        from idsets import Digraph, matroids
        if kind == "uniform":
            m = matroids.uniform_matroid(params["k"], params["n"])
        else:
            m = matroids.graphic_matroid(Digraph(params["nodes"], params["edges"]))
        ok, witness = matroids.verify_matroid_identifying(m, s)
        out = {"identifying": ok}
        if witness is not None:
            out.update(circuit=sorted(witness.circuit), basis_a=sorted(witness.basis_a),
                       basis_b=sorted(witness.basis_b))
        return (0 if ok else 1), json.dumps(out, sort_keys=True)

    s_set = set(s)

    def check(out: dict) -> str | None:
        if out["identifying"]:
            return None
        a, b = set(out["basis_a"]), set(out["basis_b"])
        return (_problem(a != b and a & s_set == b & s_set, "bases differ on S")
                or _problem(basis_ok(a) and basis_ok(b), "witness is not two bases"))

    return Request(rid, "matroid_verify", check=check, call=call, expect_exit=expect_exit)


def _controlling(states, s, costs) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        from idsets import tolls
        verdict = tolls.controlling_counterexample_check(
            states, s, [tolls.linear_cost(c) for c in costs])
        return 0, json.dumps({"controlling": verdict.controlling})
    return call


def build_algebra(seed: int, write: _Writer) -> list[Request]:
    reqs = []
    for name in ("linear-a", "linear-b"):
        rng = _rng(seed, name)
        n, k = 30, 6
        points, diffs = _affine_basis(rng, n, k)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        basis = write(f"{name}.json", {"points": [[str(v) for v in p] for p in points]})
        wfile = write(f"{name}-w.json", [str(w) for w in weights])
        reqs.append(Request(f"linear-identify/{name}", "linear_identify",
                            argv=["linear-identify", "--basis", basis, "--weights", wfile],
                            check=_check_linear(diffs, weights, k)))
        support = _optimal_support(diffs, weights)
        lam = [Fraction(rng.randint(1, 5)) for _ in points]
        target = [sum(l * p[e] for l, p in zip(lam, points)) / sum(lam) for e in range(n)]
        resist = [Fraction(rng.randint(1, 5)) for _ in range(n)]
        reqs.append(Request(
            f"tolls-convex/{name}", "tolls_convex",
            argv=["tolls", "--mode", "convex", "--basis", basis,
                  "--S", ",".join(map(str, sorted(support))),
                  "--target=" + ",".join(map(str, target)),
                  "--cost", "quadratic:" + ",".join(map(str, resist))],
            check=_check_convex_tolls(diffs, resist, target, support)))

    rng = _rng(seed, "graphic")
    nodes, edges = 40, _random_graph(rng, 40, 150)
    weights = [Fraction(rng.randint(1, 9)) for _ in edges]
    graph = write("graphic.json", _instance_json(nodes, edges, 0, 1))
    wfile = write("graphic-w.json", [str(w) for w in weights])
    reqs.append(Request("matroid-identify/graphic", "matroid_identify",
                        argv=["matroid-identify", "--kind", "graphic", "--graph", graph,
                              "--weights", wfile],
                        check=_check_components(ref.edge_blocks(nodes, edges), weights)))

    rng = _rng(seed, "partition")
    sizes = [rng.randint(4, 12) for _ in range(8)]
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    caps = [rng.randint(1, len(b) - 1) for b in blocks]
    caps[0] = len(blocks[0])  # a block of coloops
    parts = [b for b, c in zip(blocks, caps) if 0 < c < len(b)]
    parts += [[e] for b, c in zip(blocks, caps) if not 0 < c < len(b) for e in b]
    reqs.append(Request("matroid-identify/partition", "matroid_identify",
                        argv=["matroid-identify", "--kind", "partition",
                              "--blocks", ";".join(",".join(map(str, b)) for b in blocks),
                              "--capacities", ",".join(map(str, caps))],
                        check=_check_components(parts, [1] * start)))

    rng = _rng(seed, "uniform-verify")
    n, k = 16, 8
    drop = rng.sample(range(n), 2)
    for tag, s in (("identifying", [e for e in range(n) if e != drop[0]]),
                   ("short", [e for e in range(n) if e not in drop])):
        reqs.append(_matroid_verify(f"matroid-verify/uniform-{tag}", "uniform",
                                    {"k": k, "n": n}, s, lambda b: len(b) == k,
                                    int(tag == "short")))
    rng = _rng(seed, "graphic-verify")
    g_nodes, g_edges = 9, _random_graph(rng, 9, 14)
    blocks_g = [sorted(b) for b in ref.edge_blocks(g_nodes, g_edges)]
    cyclic = next(b for b in blocks_g if len(b) > 1)
    keep = {rng.choice(b) for b in blocks_g}
    pair = set(rng.sample(cyclic, 2))
    for tag, s in (("identifying", [e for e in range(len(g_edges)) if e not in keep]),
                   ("short", [e for e in range(len(g_edges)) if e not in pair])):
        reqs.append(_matroid_verify(f"matroid-verify/graphic-{tag}", "graphic",
                                    {"nodes": g_nodes, "edges": g_edges}, s,
                                    lambda b: _is_spanning_forest(g_nodes, g_edges, b),
                                    int(tag == "short")))

    rng = _rng(seed, "budget-additive")
    gains = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(12)]
    cap = sum(gains) / 2
    reqs.append(Request("polymatroid-identify/budget-additive", "polymatroid_identify",
                        argv=["polymatroid-identify", "--family", "budget-additive",
                              "--cap", str(cap), "--gains", ",".join(map(str, gains))],
                        check=_check_components([list(range(12))], [1] * 12)))
    rng = _rng(seed, "coverage")
    sets = [rng.sample(range(24), rng.randint(1, 3)) for _ in range(11)]
    uf = ref.UnionFind(11)
    for a in range(11):
        for b in range(a + 1, 11):
            if set(sets[a]) & set(sets[b]):
                uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for e in range(11):
        groups.setdefault(uf.find(e), []).append(e)
    reqs.append(Request("polymatroid-identify/coverage", "polymatroid_identify",
                        argv=["polymatroid-identify", "--family", "coverage",
                              "--sets", ";".join(",".join(map(str, s)) for s in sets)],
                        check=_check_components(list(groups.values()), [1] * 11)))

    rng = _rng(seed, "controlling")
    support = sorted(rng.sample(range(8), 5))
    states = []
    for pattern in rng.sample(range(32), 20):
        vec = [rng.randint(0, 1) for _ in range(8)]
        for bit, e in enumerate(support):
            vec[e] = (pattern >> bit) & 1
        states.append(vec)
    costs = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(12)]
    reqs.append(Request("controlling-check/binary", "controlling_check",
                        call=_controlling(states, support, costs),
                        check=lambda out: _problem(out["controlling"],
                                                   "identifying S on binary X must control")))
    return reqs


# ---------------------------------------------------------------- polytime


def random_dag(rng: random.Random, nodes: int, p: float):
    perm = list(range(nodes))
    rng.shuffle(perm)
    arcs = [(perm[i], perm[j]) for i in range(nodes) for j in range(i + 1, nodes)
            if rng.random() < p]
    return nodes, arcs, perm[0], perm[-1]


def random_digraph(rng: random.Random, nodes: int, p: float):
    arcs = [(u, v) for u in range(nodes) for v in range(nodes)
            if u != v and rng.random() < p]
    return nodes, arcs, 0, nodes - 1


def _check_flow_identify(relevant, forest, s_set, weights):
    weight = sum((weights[a] for a in s_set), Fraction(0))

    def check(out: dict) -> str | None:
        return _problem((set(out["S"]), set(out["E_prime"]), set(out["forest"]),
                         Fraction(out["weight"])) == (s_set, relevant, forest, weight),
                        "flow answer differs from the reference")
    return check


def _conserves(nodes, arcs, s, t, flow) -> bool:
    balance = [Fraction(0)] * nodes
    for (u, v), x in zip(arcs, flow):
        balance[u] -= x
        balance[v] += x
    want = [Fraction(0)] * nodes
    want[s], want[t] = Fraction(-1), Fraction(1)
    return all(x >= 0 for x in flow) and balance == want


def _check_flow_verify(nodes, arcs, s, t, relevant, queried):
    def check(out: dict) -> str | None:
        if sorted(out["S"]) != sorted(queried):
            return "S echoed wrongly"
        if out["identifying"]:
            return None
        fa = [Fraction(v) for v in out["flow_a"]]
        fb = [Fraction(v) for v in out["flow_b"]]
        return (_problem(set(out["cycle"]) <= relevant - set(queried), "cycle meets S")
                or _problem(_conserves(nodes, arcs, s, t, fa)
                            and _conserves(nodes, arcs, s, t, fb), "witness is not a flow")
                or _problem(fa != fb and all(fa[e] == fb[e] for e in queried),
                            "witness flows do not agree on S"))
    return check


def _check_path_verify(arcs, s, t, queried):
    q = set(queried)

    def check(out: dict) -> str | None:
        if out["identifying"]:
            return None
        a, b = set(out["path_a"]), set(out["path_b"])
        return (_problem(ref.is_st_path(arcs, s, t, a) and ref.is_st_path(arcs, s, t, b),
                         "witness is not two s-t paths")
                or _problem(a != b and a & q == b & q, "witness paths differ on S"))
    return check


def _check_greedy(vectors: list[str]):
    pairs = len(vectors) * (len(vectors) - 1) // 2

    def check(out: dict) -> str | None:
        return (_problem(_separates(vectors, out["S"]), "S does not separate X")
                or _problem(sum(g for _, g in out["trace"]) == pairs, "trace misses pairs")
                or _problem(sorted(e for e, _ in out["trace"]) == sorted(out["S"]),
                            "trace and S disagree")
                or _problem(Fraction(out["weight"]) == len(out["S"]), "weight != |S|"))
    return check


def build_polytime(seed: int, write: _Writer) -> list[Request]:
    reqs = []
    cases = [("dag-200", random_dag, 200, 0.1), ("dag-500", random_dag, 500, 0.05),
             ("digraph-120", random_digraph, 120, 0.1)]
    for name, gen, size, p in cases:
        rng = _rng(seed, name)
        nodes, arcs, s, t = gen(rng, size, p)
        weighted = name == "dag-200"
        weights = ([Fraction(rng.randint(1, 5)) for _ in arcs] if weighted
                   else [Fraction(1)] * len(arcs))
        path = write(f"{name}.json",
                     _instance_json(nodes, arcs, s, t, weights if weighted else None))
        relevant, forest, s_set = ref.flow_identifying(nodes, arcs, s, t, weights)
        reqs.append(Request(f"flow-identify/{name}", "flow_identify",
                            argv=["flow-identify", path],
                            check=_check_flow_identify(relevant, forest, s_set, weights)))
        short = sorted(s_set - {ref.shortest_cycle_arc(nodes, arcs, forest, s_set)})
        for tag, queried, code in (("identifying", sorted(s_set), 0), ("short", short, 1)):
            sfile = write(f"{name}-flow-{tag}.json", {"S": queried})
            reqs.append(Request(f"flow-verify/{name}-{tag}", "flow_identify",
                                argv=["flow-identify", path, "--verify", sfile],
                                check=_check_flow_verify(nodes, arcs, s, t, relevant, queried),
                                expect_exit=code))
        if gen is random_dag:
            pa, pb = ref.two_paths_at_first_branch(nodes, arcs, s, t)
            broken = sorted(s_set - (set(pa) ^ set(pb)))
            for tag, queried, code in (("identifying", sorted(s_set), 0), ("broken", broken, 1)):
                sfile = write(f"{name}-path-{tag}.json", {"S": queried})
                reqs.append(Request(f"path-verify/{name}-{tag}", "path_verify",
                                    argv=["path-verify", path, "--S", sfile],
                                    check=_check_path_verify(arcs, s, t, queried),
                                    expect_exit=code))
    for count in (300, 400):
        vectors = _distinct_vectors(_rng(seed, f"explicit-greedy-{count}"), 40, count)
        path = write(f"explicit-greedy-{count}.json", {"dim": 40, "vectors": vectors})
        reqs.append(Request(f"explicit-greedy/{count}", "explicit_greedy",
                            argv=["explicit-identify", "--solutions", path],
                            check=_check_greedy(vectors)))
    return reqs


def build(workload: str, seed: int, root: str) -> list[Request]:
    """Write the workload's inputs under `root` and return its requests."""
    make = {"search": build_search, "algebra": build_algebra, "polytime": build_polytime}
    return make[workload](seed, _Writer(root))
