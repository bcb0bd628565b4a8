"""Independent brute-force oracles and instance families for the test suite.

These deliberately avoid the library's own algorithms: path enumeration is a
plain recursive walk over an adjacency matrix, acyclicity goes through
networkx, and identifying checks are direct pairwise definitions. Code that
only tests run lives here too: the vertex-cover extraction of the reduction
DAG, the solution-list writer and readers, fundamental circuits, the dual
independence test of an affine basis, the tolled cost, the two graph
wrappers over the private Kosaraju and Kruskal cores, and Fourier-Motzkin
elimination, the oracle of the controlling check's LPs.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

import networkx as nx

from idsets.caps import DEFAULT_CAPS, Caps
from idsets.errors import (
    CapExceeded,
    IdsetsError,
    InvalidInstance,
    NoStPath,
    NotIdentifying,
    SubsetExplosion,
)
from idsets.explicit import SolutionList
from idsets.flows import FlowWitness, verify_flow_identifying
from idsets.graphs import (
    Digraph,
    StPair,
    UnionFind,
    WeightedGroundSet,
    _integer,
    _kosaraju,
    _max_weight_forest,
    bfs_tree,
    tree_path,
    validate_ids,
)
from idsets.instances import GeneratedInstance
from idsets.linalg import Vector, as_vector, echelon, exact, vec_dot
from idsets.linear import AffineBasis, _columns
from idsets.matroids import MatroidOracle, _circuit_of
from idsets.paths import (
    PathWitness,
    _build_dag_witness,
    approx_min_path_identifying_dag,
    exact_min_path_identifying,
    size_ratio,
    verify_path_identifying_dag,
)
from idsets.tolls import ControllingVerdict, CostOracle, TollVector


def oracle_enumerate_paths(g: Digraph, st: StPair) -> set[frozenset[int]]:
    """Reference enumerator: recursive walk over node adjacency, no pruning."""
    succ: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.node_count)}
    for aid, (tail, head) in enumerate(g.arcs):
        if tail != head:
            succ[tail].append((head, aid))
    found: set[frozenset[int]] = set()

    def walk(node: int, visited: set[int], arcs: tuple[int, ...]) -> None:
        if node == st.sink:
            found.add(frozenset(arcs))
            return
        for nxt, aid in succ[node]:
            if nxt not in visited:
                walk(nxt, visited | {nxt}, arcs + (aid,))

    walk(st.source, {st.source}, ())
    return found


def oracle_identifying_for_paths(g: Digraph, st: StPair, s: set[int]) -> bool:
    """Definition check: all path traces on S pairwise distinct."""
    traces = [p & s for p in oracle_enumerate_paths(g, st)]
    return len(traces) == len(set(traces))


def oracle_undirected_acyclic(g: Digraph, arcs: set[int]) -> bool:
    """Forest test via networkx component counting (independent of union-find)."""
    mg = nx.MultiGraph()
    touched = set()
    for aid in arcs:
        tail, head = g.arcs[aid]
        if tail == head:
            return False
        mg.add_edge(tail, head)
        touched |= {tail, head}
    if not touched:
        return True
    return mg.number_of_edges() == len(touched) - nx.number_connected_components(mg)


def oracle_directed_cycles(g: Digraph) -> list[list[int]]:
    """All simple directed cycles as arc-id lists (via networkx node cycles)."""
    dg = nx.MultiDiGraph()
    for aid, (tail, head) in enumerate(g.arcs):
        dg.add_edge(tail, head, key=aid)
    cycles = []
    for nodes in nx.simple_cycles(dg):
        ring = list(nodes) + [nodes[0]]
        # expand node cycles into arc cycles (all parallel-arc choices)
        arc_options = []
        for a, b in zip(ring, ring[1:]):
            arc_options.append([k for (u, v, k) in dg.out_edges(a, keys=True) if v == b])
        for combo in product(*arc_options):
            cycles.append(list(combo))
    return cycles


def oracle_relevant_arcs(g: Digraph, st: StPair) -> set[int]:
    """E' by definition: the arcs on some s-t path or some directed cycle."""
    return set().union(*oracle_enumerate_paths(g, st), *oracle_directed_cycles(g))


def oracle_reachable_from(g: Digraph, start: int, allowed=None) -> set[int]:
    """Reference forward reach: DFS over adjacency rebuilt from `allowed`."""
    allowed_set = set(range(g.arc_count)) if allowed is None else set(allowed)
    out: list[list[int]] = [[] for _ in range(g.node_count)]
    for aid in allowed_set:
        out[g.tails[aid]].append(aid)
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for aid in out[v]:
            w = g.heads[aid]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def oracle_reverse_reachable_to(g: Digraph, goal: int, allowed=None) -> set[int]:
    """Reference reverse reach: DFS over in-arcs rebuilt from `allowed`."""
    allowed_set = set(range(g.arc_count)) if allowed is None else set(allowed)
    inc: list[list[int]] = [[] for _ in range(g.node_count)]
    for aid in allowed_set:
        inc[g.heads[aid]].append(aid)
    seen = {goal}
    todo = [goal]
    while todo:
        v = todo.pop()
        for aid in inc[v]:
            w = g.tails[aid]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def oracle_shortest_arc_path(g: Digraph, start: int, goal: int, allowed=None):
    """Reference BFS path, level by level over sorted allowed arcs, or None."""
    allowed_set = set(range(g.arc_count)) if allowed is None else set(allowed)
    out: list[list[int]] = [[] for _ in range(g.node_count)]
    for aid in sorted(allowed_set):
        out[g.tails[aid]].append(aid)
    prev_arc: dict[int, int] = {}
    seen = {start}
    frontier = [start]
    while frontier and goal not in seen:
        nxt = []
        for v in frontier:
            for aid in out[v]:
                w = g.heads[aid]
                if w not in seen:
                    seen.add(w)
                    prev_arc[w] = aid
                    nxt.append(w)
        frontier = nxt
    if goal not in seen:
        return None
    path: list[int] = []
    v = goal
    while v != start:
        aid = prev_arc[v]
        path.append(aid)
        v = g.tails[aid]
    path.reverse()
    return path


def oracle_bfs_out_tree(g: Digraph, start: int, allowed=None,
                        goal: int | None = None) -> dict[int, int]:
    """Reference out-walk BFS tree: node -> tree arc (start -> -1) over the
    allowed arcs, each node's out-arcs rebuilt from `g.arcs` in ascending
    id order, a deque for the queue; it stops when it first reaches `goal`."""
    allowed_set = set(range(g.arc_count)) if allowed is None else set(allowed)
    out: list[list[int]] = [[] for _ in range(g.node_count)]
    for aid, (tail, _) in enumerate(g.arcs):
        if aid in allowed_set:
            out[tail].append(aid)
    tree = {start: -1}
    queue = deque([start])
    while queue and goal not in tree:
        v = queue.popleft()
        for aid in out[v]:
            w = g.arcs[aid][1]
            if w not in tree:
                tree[w] = aid
                if w == goal:
                    break
                queue.append(w)
    return tree


def oracle_kruskal_forest(g: Digraph, ids: Iterable[int], w: WeightedGroundSet) -> set[int]:
    """Reference maximum-weight forest: Kruskal over (weight desc, id asc)
    with `UnionFind.find` on both ends of each arc and a plain merge."""
    uf = UnionFind(g.node_count)
    forest = set()
    for aid in sorted(ids, key=lambda a: (-w[a], a)):
        a, b = uf.find(g.tails[aid]), uf.find(g.heads[aid])
        if a != b:
            uf.parent[a] = b
            forest.add(aid)
    return forest


def oracle_verify_path_dag(g: Digraph, st: StPair, s) -> tuple[bool, PathWitness | None]:
    """The DAG path verifier in its per-tail form: for each tail v of an
    allowed arc (an s-t path arc outside S), ascending, one BFS tree of v over
    the allowed arcs and one scan of them in id order; the first arc into a
    node already entered from the tree gives the witness. O(n*m). The arcs
    of s-t paths come from the reference enumerator."""
    keep_arcs = frozenset().union(*oracle_enumerate_paths(g, st))
    allowed = sorted(keep_arcs - set(s))
    allowed_set = frozenset(allowed)
    for v in sorted({g.tails[aid] for aid in allowed}):
        tree = bfs_tree(g, v, allowed_set)
        first_in: dict[int, int] = {}
        for aid in allowed:
            tail, head = g.arcs[aid]
            if tail not in tree:
                continue
            if head in first_in:
                return False, _build_dag_witness(g, st, keep_arcs, tree, v, head,
                                                 first_in[head], aid)
            first_in[head] = aid
    return True, None


def oracle_uniform_cycle_mixture(g: Digraph, st: StPair, cycle: list[int]) -> tuple:
    """The flow verifier's mixture in its per-arc form: one BFS tree from
    each cycle arc's head with its tail as the goal, none reused. A tail the
    head reaches closes a directed cycle, ridden after the shortest s-t path;
    otherwise the flow takes s -> tail, the arc and head -> t. Each arc's
    count over the cycle length is its share."""
    from_s = bfs_tree(g, st.source)
    counts = [0] * g.arc_count
    for arc in cycle:
        tail, head = g.tails[arc], g.heads[arc]
        from_head = bfs_tree(g, head, goal=tail)
        if tail in from_head:
            walk = tree_path(g, from_s, st.sink) + tree_path(g, from_head, tail)
        else:
            walk = tree_path(g, from_s, tail) + tree_path(g, from_head, st.sink)
        for a in walk + [arc]:
            counts[a] += 1
    return tuple(Fraction(c, len(cycle)) for c in counts)


def all_simple_digraphs(n: int):
    """Every simple digraph on n labeled nodes (no self-loops)."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Digraph(n, arcs)


def seeded_multigraphs(count: int, seed: int, min_nodes: int = 4, max_nodes: int = 6,
                       max_arcs: int = 9, allow_self_loops: bool = False):
    """Reproducible random multigraph family (parallel arcs allowed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(min_nodes, max_nodes)
        m = rng.randint(1, max_arcs)
        arcs = []
        for _ in range(m):
            tail = rng.randrange(n)
            head = rng.randrange(n)
            if not allow_self_loops:
                while head == tail:
                    head = rng.randrange(n)
            arcs.append((tail, head))
        out.append((Digraph(n, arcs), StPair(0, n - 1)))
    return out


def seeded_dags(count: int, seed: int, min_nodes: int = 3, max_nodes: int = 7,
                arc_prob: float = 0.5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(min_nodes, max_nodes)
        perm = list(range(n))
        rng.shuffle(perm)
        arcs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < arc_prob:
                    arcs.append((perm[i], perm[j]))
        out.append((Digraph(n, arcs), StPair(perm[0], perm[-1])))
    return out


def seeded_negative_flow_verdicts(count: int, seed: int):
    """(g, st, S, witness) for `count` seeded sets that are not flow
    identifying: DAGs and other digraphs on 3-8 nodes, a parallel copy of
    about one arc in six, a random s != t that reaches t, and each arc in S
    with probability 1/4."""
    rng = random.Random(seed)
    out: list[tuple[Digraph, StPair, list[int], FlowWitness]] = []
    while len(out) < count:
        n = rng.randint(3, 8)
        dag = rng.random() < 0.5
        order = rng.sample(range(n), n)
        arcs = []
        for _ in range(rng.randint(2, 14)):
            i, j = rng.sample(range(n), 2)
            if dag and i > j:
                i, j = j, i
            arcs.append((order[i], order[j]))
            if rng.random() < 1 / 6:
                arcs.append(arcs[-1])
        g, st = Digraph(n, arcs), StPair(*rng.sample(range(n), 2))
        s = [a for a in range(g.arc_count) if rng.random() < 0.25]
        try:
            ok, witness = verify_flow_identifying(g, st, s)
        except NoStPath:
            continue
        if not ok:
            out.append((g, st, s, witness))
    return out


def random_weights(rng: random.Random, size: int, max_num: int = 9,
                   max_den: int = 4) -> list[Fraction]:
    return [Fraction(rng.randint(0, max_num), rng.randint(1, max_den))
            for _ in range(size)]


def all_subsets(elements) -> list[frozenset[int]]:
    items = sorted(elements)
    out = []
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            out.append(frozenset(combo))
    return out


def has_st_path(g: Digraph, st: StPair) -> bool:
    dg = nx.MultiDiGraph()
    dg.add_nodes_from(range(g.node_count))
    dg.add_edges_from((t, h) for t, h in g.arcs)
    return nx.has_path(dg, st.source, st.sink)


def min_vertex_cover_size(n: int, edges: list[tuple[int, int]]) -> int:
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    raise AssertionError("unreachable")


def subsets_in_weight_order(n: int, w: WeightedGroundSet, max_states: int = 2**24):
    """All subsets of range(n) in (weight, lexicographic) order."""
    heap: list[tuple[Fraction, tuple[int, ...]]] = [(Fraction(0), ())]
    visited = 0
    while heap:
        weight, elems = heapq.heappop(heap)
        visited += 1
        if visited > max_states:
            raise SubsetExplosion(max_states, f"subset enumeration visited {visited} states")
        yield weight, elems
        start = elems[-1] + 1 if elems else 0
        for e in range(start, n):
            heapq.heappush(heap, (weight + w[e], elems + (e,)))


def oracle_min_weight_hitting_set(n: int, w: WeightedGroundSet, demands: Iterable[int],
                                  max_states: int = 2**24, *, greedy_start: bool = True,
                                  memo: bool = True) -> tuple[Fraction, tuple[int, ...]]:
    """Cheapest S hitting every demand mask; ties break lexicographically.

    Reference walk for `idsets.search.min_weight_hitting_set`: each node
    filters and packs a list of demand masks, where the engine works on cover
    masks. Both must give the same answer after the same visited nodes.
    The walk starts from the greedy cover's weight G, as if an incumbent of
    weight G + 1 were known; `greedy_start=False` starts it with none. A node
    at depth e < n.bit_length() whose tuple of unhit demands a node at that
    depth already reached at no higher weight, and expanded, is counted but
    not expanded; `memo=False` expands it.

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

    best_weight = _greedy_cover_weight(n, iw, masks) + 1 if greedy_start else None
    best_mask = 0
    seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(n.bit_length() if memo else 0)]
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
        shallow = seen[e] if e < len(seen) else None
        if shallow is not None and shallow.get(tuple(unhit), weight + 1) <= weight:
            continue
        bound = _packing_bound(unhit, full >> e << e, by_weight)
        if bound is None or best_weight is not None and weight + bound >= best_weight:
            continue
        if shallow is not None:
            shallow[tuple(unhit)] = weight
        bit = 1 << e
        # Pushed exclude first, so that include is explored first.
        if iw[e]:
            stack.append((e + 1, chosen, weight, unhit))
        if not iw[e] or any(d & bit for d in unhit):
            stack.append((e + 1, chosen | bit, weight + iw[e],
                          [d for d in unhit if not d & bit]))
    elems = tuple(e for e in range(n) if best_mask >> e & 1)
    return Fraction(best_weight, w.scale), elems


def _greedy_cover_weight(n: int, iw: Sequence[int], masks: list[int]) -> int:
    """Weight of the greedy cover of the demand list: every zero-weight id,
    then repeatedly the id in the most unhit demands per unit weight, compared
    by cross-multiplication, ties to the smaller id."""
    zero = sum(1 << e for e in range(n) if not iw[e])
    unhit = [d for d in masks if not d & zero]
    total = 0
    while unhit:
        best = None
        for e in range(n):
            gain = sum(1 for d in unhit if d >> e & 1)
            if gain and (best is None or gain * iw[best] > best_gain * iw[e]):
                best, best_gain = e, gain
        total += iw[best]
        unhit = [d for d in unhit if not d >> best & 1]
    return total


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


def oracle_greedy_pairs(vectors, dimension: int, w: WeightedGroundSet):
    """Reference weighted set-cover greedy that recounts every uncovered pair.

    Same rule as the library: the best ratio of new pairs to weight wins by
    exact cross-multiplication, zero weight with a positive gain beats any
    positive weight, and ties go to the smaller id. Returns (set, trace).
    """
    uncovered = [(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:]]
    chosen: list[int] = []
    trace: list[tuple[int, int]] = []
    while uncovered:
        gains = [sum(a[e] != b[e] for a, b in uncovered) for e in range(dimension)]
        best = -1
        for e in range(dimension):
            if gains[e] == 0:
                continue
            if best == -1 or (not (w[e] == 0 and w[best] == 0)
                              and gains[e] * w[best] > gains[best] * w[e]):
                best = e
        assert best != -1, "uncovered pair with no separating element"
        chosen.append(best)
        trace.append((best, gains[best]))
        uncovered = [(a, b) for a, b in uncovered if a[best] == b[best]]
    return frozenset(chosen), tuple(trace)


def oracle_rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination on a copy."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][c] / mat[rank][c]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle_rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reference reduced row echelon form by Gauss-Jordan over Fractions
    (in a copy), with the list of pivot columns."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [value * inv for value in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def differences(points) -> list[list[Fraction]]:
    """The rows x_i - x_0 of the difference matrix D, as Fractions."""
    x0 = points[0]
    return [[p - q for p, q in zip(point, x0)] for point in points[1:]]


def oracle_in_hull(points, target) -> bool:
    """Whether target lies in the affine hull of the points: Gauss-Jordan over
    Fractions on the transpose of D with target - x0 appended as a last
    column finds no pivot in that column."""
    diffs, target = differences(points), as_vector(target)
    hull = [[row[i] for row in diffs] + [target[i] - points[0][i]] for i in range(len(target))]
    return len(diffs) not in oracle_rref(hull)[1]


def oracle_convex_tolls(basis, s, c, target):
    """What `convex_tolls` answers, by Gauss-Jordan over Fractions on the
    Fraction differences: ("not identifying", delta), ("outside", None) or
    ("gamma", {e: toll}). The first free column of the transpose of D[:, S]
    gives the row combination behind delta; the hull test and the toll solve
    each reduce an augmented matrix and read its last column."""
    x0 = basis.points[0]
    diffs = differences(basis.points)
    k, cols = len(diffs), sorted(s)
    reduced, pivots = oracle_rref([[row[e] for row in diffs] for e in cols])
    free = next((j for j in range(k) if j not in pivots), None)
    if free is not None:
        coeffs = [Fraction(0)] * k
        coeffs[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            coeffs[pc] = -reduced[r][free]
        return "not identifying", tuple(sum((y * row[j] for y, row in zip(coeffs, diffs)),
                                            Fraction(0)) for j in range(len(x0)))
    if not oracle_in_hull(basis.points, target):
        return "outside", None
    target = as_vector(target)
    d = as_vector(c.subgradient(target))
    system = [[row[e] for e in cols] + [-sum(a * b for a, b in zip(d, row))] for row in diffs]
    reduced, pivots = oracle_rref(system)
    gamma = {e: Fraction(0) for e in cols} if k else {}
    for r, pc in enumerate(pivots):
        gamma[cols[pc]] = reduced[r][-1]
    return "gamma", gamma


def oracle_linear_greedy(diffs, n: int, w: WeightedGroundSet) -> frozenset[int]:
    """Element-by-element matroid greedy over complements of identifying sets.

    F is independent when the difference vectors plus the unit vectors of F
    are linearly independent; elements are scanned heaviest first (ties:
    smaller id) and S is the complement of the greedy F.
    """
    rows = [list(d) for d in diffs]
    kept: list[int] = []
    for e in sorted(range(n), key=lambda e: (-w[e], e)):
        unit = [Fraction(int(i == e)) for i in range(n)]
        if oracle_rank(rows + [unit]) == len(rows) + 1:
            rows.append(unit)
            kept.append(e)
    return frozenset(range(n)) - frozenset(kept)


def enumerate_circuits(m) -> list[frozenset[int]]:
    """All circuits (minimal dependent sets) of a matroid oracle, by size and
    then lexicographically, from an exhaustive subset scan."""
    n = m.ground_size
    circuits: list[frozenset[int]] = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            t = frozenset(combo)
            if m.is_independent(t):
                continue
            if all(m.is_independent(t - {x}) for x in t):
                circuits.append(t)
    return circuits


def fourier_motzkin_feasible(rows: Sequence[tuple[tuple[Fraction, ...], Fraction]],
                             nvars: int) -> tuple[bool, Fraction | None]:
    """Feasibility of a system of inequalities sum(coeffs * y) >= rhs.

    Eliminates variables left to right; after elimination, a constant row
    0 >= rhs with rhs > 0 is the contradiction. Rows are normalized and
    deduplicated to slow the quadratic blowup.
    """
    max_rows = 100_000  # rows kept after any one elimination step
    current = [_normalize_row(as_vector(coeffs), exact(rhs)) for coeffs, rhs in rows]
    for var in range(nvars):
        positive, negative, rest = [], [], []
        for coeffs, rhs in current:
            a = coeffs[var]
            if a > 0:
                positive.append((coeffs, rhs))
            elif a < 0:
                negative.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        combined: set[tuple[tuple[Fraction, ...], Fraction]] = set(rest)
        for cp, rp in positive:
            for cn, rn in negative:
                scale_p, scale_n = -cn[var], cp[var]
                coeffs = tuple(scale_p * p + scale_n * q for p, q in zip(cp, cn))
                rhs = scale_p * rp + scale_n * rn
                combined.add(_normalize_row(coeffs, rhs))
        current = list(combined)
        if len(current) > max_rows:
            raise CapExceeded("max_rows", max_rows, "fourier_motzkin_feasible",
                              f"{len(current)} rows")
    for coeffs, rhs in current:
        if rhs > 0:
            return False, rhs
    return True, None


def _normalize_row(coeffs: tuple[Fraction, ...],
                   rhs: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    scale = next((abs(v) for v in coeffs if v != 0), None)
    if scale is None:
        return coeffs, rhs
    return tuple(v / scale for v in coeffs), rhs / scale


def oracle_controlling_fm(states, s, costs):
    """The controlling check by Fourier-Motzkin on every (cost, target) pair,
    with no binary shortcut: for each target x*, the tolls gamma on S must
    satisfy sum_e gamma_e (x_e - x*_e) >= c(x*) - c(x) for every other x."""
    vectors = [as_vector(state) for state in states]
    cols = sorted(frozenset(s))
    for ci, cost in enumerate(costs):
        values = [cost.evaluate(vec) for vec in vectors]
        for ti, target in enumerate(vectors):
            rows = [(tuple(other[e] - target[e] for e in cols), values[ti] - values[xi])
                    for xi, other in enumerate(vectors) if xi != ti]
            feasible, contradiction = fourier_motzkin_feasible(rows, len(cols))
            if not feasible:
                return ControllingVerdict(controlling=False, failing_target=target,
                                          failing_cost=ci, contradiction_rhs=contradiction)
    return ControllingVerdict(controlling=True)


def oracle_polymatroid_axioms(f) -> str | None:
    """The first violated polymatroid axiom of an oracle, as the library's
    message, or None: f({}) = 0, then for every T (by size, then
    lexicographically) and e < f' outside T, f(T+e) >= f(T) and
    f(T+e) + f(T+f') >= f(T+e+f') + f(T), all in Fractions."""
    n = f.ground_size
    if f.value(frozenset()) != 0:
        return "polymatroid rank must be normalized: f({}) = 0"
    for size in range(n):
        for combo in combinations(range(n), size):
            t = frozenset(combo)
            rest = [e for e in range(n) if e not in t]
            for i, e in enumerate(rest):
                te = t | {e}
                if f.value(te) < f.value(t):
                    return "polymatroid rank must be monotone"
                for g in rest[i + 1:]:
                    if f.value(te) + f.value(t | {g}) < f.value(te | {g}) + f.value(t):
                        return "polymatroid rank must be submodular"
    return None


def oracle_polymatroid_components(f) -> tuple[frozenset[int], ...]:
    """The finest separability partition by recursive splitting, sorted by
    least element: a part splits at the first T holding its least element,
    scanned by size and then lexicographically, with f(T) + f(part - T) =
    f(part); a part with no such proper T is a component."""
    final = []
    stack = [frozenset(range(f.ground_size))] if f.ground_size else []
    while stack:
        ground = stack.pop()
        anchor, *rest = sorted(ground)
        split = next((t for size in range(len(rest))
                      for t in (frozenset((anchor, *combo)) for combo in combinations(rest, size))
                      if f.value(t) + f.value(ground - t) == f.value(ground)), None)
        if split is None:
            final.append(ground)
        else:
            stack += [ground - split, split]
    return tuple(sorted(final, key=min))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def gap_ratio(g: Digraph, st: StPair, caps: Caps = DEFAULT_CAPS) -> Fraction:
    """|flow-based set| / |path optimum| under the size objective.

    Both sets are empty exactly when the instance has a unique path; the
    ratio is 1 by convention in that case (see size_ratio).
    """
    unit = WeightedGroundSet.uniform(g.arc_count)
    return size_ratio(exact_min_path_identifying(g, st, unit, caps),
                      approx_min_path_identifying_dag(g, st, unit))


def flow_conservation_ok(g: Digraph, st: StPair, flow) -> bool:
    """Feasibility check for a unit s-t flow."""
    if any(value < 0 for value in flow):
        return False
    balance = [Fraction(0)] * g.node_count
    for aid, (tail, head) in enumerate(g.arcs):
        balance[tail] -= flow[aid]
        balance[head] += flow[aid]
    for v in range(g.node_count):
        expected = Fraction(-1) if v == st.source else Fraction(1) if v == st.sink else Fraction(0)
        if balance[v] != expected:
            return False
    return True


class NotABase(IdsetsError):
    """The given vector is not a point of the base polyhedron."""


def _check_ground(f, max_elements: int, caller: str) -> None:
    if f.ground_size > max_elements:
        raise CapExceeded("max_elements", max_elements, caller, f"ground size {f.ground_size}")


def base_membership(f, x, max_elements: int = 20) -> tuple[bool, frozenset[int] | None]:
    """Exhaustive membership test for the base polyhedron.

    Returns (True, None) or (False, violated set): the subset maximizing
    x(T) - f(T) when one is positive, a negative coordinate as a singleton,
    or the full ground set when only the total-value equality fails. More
    than `max_elements` elements raise CapExceeded before any subset loop.
    """
    _check_ground(f, max_elements, "base_membership")
    vec = as_vector(x)
    if len(vec) != f.ground_size:
        raise InvalidInstance("vector has the wrong dimension")
    negative = next((e for e, value in enumerate(vec) if value < 0), None)
    if negative is not None:
        return False, frozenset({negative})
    worst: frozenset[int] | None = None
    worst_gap = Fraction(0)
    for size in range(1, f.ground_size + 1):
        for combo in combinations(range(f.ground_size), size):
            t = frozenset(combo)
            gap = sum((vec[e] for e in t), Fraction(0)) - f.value(t)
            if gap > worst_gap:
                worst_gap, worst = gap, t
    if worst is not None:
        return False, worst
    full = frozenset(range(f.ground_size))
    if sum(vec, Fraction(0)) != f.value(full):
        return False, full
    return True, None


def greedy_base(f, ordering) -> Vector:
    """Vertex of the base polyhedron for one element ordering."""
    coords = [Fraction(0)] * f.ground_size
    prefix: frozenset[int] = frozenset()
    for e in ordering:
        coords[e] = f.value(prefix | {e}) - f.value(prefix)
        prefix = prefix | {e}
    return tuple(coords)


def dependence_function(f, x, e: int, max_elements: int = 20) -> frozenset[int]:
    """Elements e' admitting a feasible shift x + eps*(chi_e - chi_{e'}).

    Exactly: e' = e, or x_{e'} > 0 and every x-tight set containing e also
    contains e', decided by checking all subsets.
    """
    _check_ground(f, max_elements, "dependence_function")
    ok, violated = base_membership(f, x, max_elements)
    if not ok:
        raise NotABase(f"vector violates the base polyhedron on {sorted(violated or ())}")
    vec = as_vector(x)
    if not (0 <= e < f.ground_size):
        raise InvalidInstance(f"element id {e} out of range")
    meet = set(range(f.ground_size))
    for size in range(1, f.ground_size + 1):
        for combo in combinations(range(f.ground_size), size):
            t = frozenset(combo)
            if e not in t:
                continue
            if sum((vec[g] for g in t), Fraction(0)) == f.value(t):
                meet &= t
    return frozenset({e} | {g for g in meet if g != e and vec[g] > 0})


def solution_list_to_json(x: SolutionList) -> dict:
    return {"dim": x.dimension,
            "vectors": ["".join(str(v) for v in vec) for vec in x.vectors]}


@dataclass(frozen=True)
class ExtractedCover:
    normalized_set: frozenset[int]
    covers: tuple[frozenset[int], ...]  # one vertex set per copy index


def extract_vertex_cover(inst: GeneratedInstance, s: Iterable[int]) -> ExtractedCover:
    """Rewrite an identifying set off the middle arcs and read off vertex covers.

    Repeatedly replaces a middle arc (u_e, v_i) in S by tail/source arcs that
    carry the same information; each rewrite preserves the identifying
    property. Afterwards U_i = {v : (v_i, t) in S} covers every edge.
    """
    meta = inst.metadata
    if meta.get("construction") != "vc-dag":
        raise InvalidInstance("instance is not a vc-dag construction")
    g, st = inst.graph, inst.st
    assert g is not None and st is not None
    s = validate_ids(g.arc_count, s)
    ok, witness = verify_path_identifying_dag(g, st, s)
    if not ok:
        raise NotIdentifying(witness)
    ell: int = meta["ell"]
    edges: list[list[int]] = meta["vc_edges"]
    e_s: list[int] = meta["E_s"]
    mid_ids: list[int] = meta["E_prime"]
    mid_info: list[tuple[int, int, int]] = meta["mid_info"]
    arc_of_mid = {info: aid for aid, info in zip(mid_ids, mid_info)}
    tail_arc = {(v, i): aid for v, i, aid in meta["tail_arcs"]}
    incident = {v: [ei for ei, e in enumerate(edges) if v in e]
                for v in range(meta["vc_vertices"])}

    current = set(s)
    mid_id_set = set(mid_ids)
    while True:
        mids_present = sorted(a for a in current if a in mid_id_set)
        if not mids_present:
            break
        aid = mids_present[0]
        ei, v, i = mid_info[mid_ids.index(aid)]
        others = [ej for ej in incident[v] if ej != ei]
        if e_s[ei] in current or all(e_s[ej] in current for ej in others):
            current.discard(aid)
            current.add(tail_arc[(v, i)])
            continue
        ej = min(ej for ej in others if e_s[ej] not in current)
        for copy in range(1, ell + 1):
            current.discard(arc_of_mid[(ei, v, copy)])
            current.discard(arc_of_mid.get((ej, v, copy), -1))
        current.add(e_s[ei])
        current.add(e_s[ej])
        for copy in range(1, ell + 1):
            current.add(tail_arc[(v, copy)])

    covers = []
    for i in range(1, ell + 1):
        cover = frozenset(v for v in range(meta["vc_vertices"])
                          if tail_arc[(v, i)] in current)
        for a, b in edges:
            assert a in cover or b in cover, "rewritten set must induce vertex covers"
        covers.append(cover)
    return ExtractedCover(normalized_set=frozenset(current), covers=tuple(covers))


def from_strings(strings: Iterable[str]) -> SolutionList:
    rows = []
    for s in strings:
        if not set(s) <= {"0", "1"}:
            raise InvalidInstance(f"expected a 0/1 string, got {s!r}")
        rows.append(tuple(int(ch) for ch in s))
    if not rows:
        raise InvalidInstance("need at least one vector")
    return SolutionList(len(rows[0]), rows)


def from_sets(dimension: int, sets: Iterable[Iterable[int]]) -> SolutionList:
    dimension = _integer(dimension, "dimension")
    rows = []
    for s in sets:
        s = validate_ids(dimension, s)
        rows.append(tuple(1 if e in s else 0 for e in range(dimension)))
    return SolutionList(dimension, rows)


class ElementInBasis(IdsetsError):
    """A fundamental-circuit query named an element already in the basis."""


class NotABasis(IdsetsError):
    """The given set is not a basis of the matroid."""


def fundamental_circuit(m: MatroidOracle, basis: Iterable[int], e: int) -> frozenset[int]:
    """The unique circuit inside basis + e.

    An element belongs to the circuit exactly when deleting it from basis + e
    restores independence. InvalidInstance for an id outside the ground set.
    """
    b = validate_ids(m.ground_size, basis)
    (e,) = validate_ids(m.ground_size, (e,))
    if e in b:
        raise ElementInBasis(f"element {e} already in the basis")
    if not m.is_independent(b):
        raise NotABasis("the given set is dependent")
    for f in range(m.ground_size):
        if f not in b and f != e and m.is_independent(b | {f}):
            raise NotABasis(f"the given set is not maximal (can add {f})")
    if m.is_independent(b | {e}):
        raise NotABasis("basis + e is independent; not a basis")
    return _circuit_of(m, b, e)


def ax_independent(basis: AffineBasis, f: Iterable[int]) -> bool:
    """F is independent in the dual matroid: D without the columns of F keeps rank k."""
    f_set = validate_ids(basis.ground_size, f)
    rest = [e for e in range(basis.ground_size) if e not in f_set]
    return len(echelon(_columns(basis.integer_rows, rest))[1]) == basis.hull_dimension


def tolled_cost(toll: TollVector, c: CostOracle, x: Sequence) -> Fraction:
    vec = as_vector(x)
    return c.evaluate(vec) + vec_dot(toll.as_vector(), vec)


def strongly_connected_components(g: Digraph) -> list[int]:
    """Component id per node: `graphs._kosaraju` with no node skipped."""
    return _kosaraju(g, bytes(g.node_count))[0]


def spanning_forest_max_weight(g: Digraph, restrict: Iterable[int],
                               w: WeightedGroundSet) -> set[int]:
    """`graphs._max_weight_forest` on `restrict`, its ids checked first."""
    return _max_weight_forest(g, validate_ids(g.arc_count, restrict), w)
