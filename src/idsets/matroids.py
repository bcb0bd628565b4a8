"""Identifying sets for matroid bases via circuits and connected components.

A set S is identifying for the bases exactly when every circuit C satisfies
|S ∩ C| >= |C| - 1, equivalently S misses at most one element per connected
component. The components decide verification and give the minimum-weight
identifying set (drop the heaviest element of each non-singleton component).
The built-in matroids name them by theorem (uniform and partition matroids
in closed form, a graphic matroid as the blocks of its graph); any other
oracle gets them from the fundamental graph of one basis, each fundamental
circuit in |B| + 1 independence queries.

Only a negative verdict builds a witness: one shortest exchange path between
two elements of the first violated component, then one fundamental circuit,
with no cap. Uniform and graphic matroids read both off their structure (the
first k ids of the order; tree paths and cuts of a Kruskal forest) and ask
the oracle nothing; any other oracle answers polynomially many independence
queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable

from .errors import InvalidInstance, as_sequence
from .graphs import (
    Digraph,
    UnionFind,
    WeightedGroundSet,
    _count,
    _integer,
    bfs_tree,
    drop_heaviest_per_part,
    tree_path,
    validate_ids,
    validate_weights,
)


class MatroidOracle:
    """Independence oracle with memoized queries.

    The built-in constructors below are matroids by construction and ask
    the oracle nothing; a user-supplied callable is trusted modulo the
    cheap sanity checks of `matroid_components` (empty set independent)
    and `verify_matroid_identifying` (its witness passes its checks). Only
    the built-in constructors set the private hook `_components()`, the
    components by theorem, and only uniform and graphic matroids set
    `_witness(e, f, s_set)`, the verifier's witness read off their structure.
    """

    def __init__(self, ground_size: int, is_independent: Callable[[frozenset[int]], bool],
                 name: str = "custom"):
        self.ground_size = _count(ground_size, "ground_size")
        if not callable(is_independent):
            raise InvalidInstance("is_independent must be callable, "
                                  f"got {type(is_independent).__name__}")
        self.name = name
        self._components: Callable[[], Iterable[frozenset[int]]] | None = None
        self._witness: Callable[[int, int, frozenset[int]], MatroidWitness] | None = None
        self._fn = is_independent
        self._cache: dict[frozenset[int], bool] = {}

    def is_independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        if key not in self._cache:
            self._cache[key] = bool(self._fn(key))
        return self._cache[key]

    def rank(self, subset: Iterable[int]) -> int:
        """Greedy rank computation; exact for matroids."""
        return len(_greedy(self, sorted(set(subset))))


def _greedy(m: MatroidOracle, order: Iterable[int]) -> frozenset[int]:
    """Each element of `order`, in turn, that keeps the set independent."""
    current: set[int] = set()
    for e in order:
        if e not in current and m.is_independent(current | {e}):
            current.add(e)
    return frozenset(current)


def _singletons(elements: Iterable[int]) -> list[frozenset[int]]:
    return [frozenset({e}) for e in elements]


def _order(e: int, s_set: frozenset[int], n: int) -> Iterable[int]:
    """The witness's greedy order: e, then S ascending, then every id."""
    return chain((e,), sorted(s_set), range(n))


def uniform_matroid(k: int, n: int) -> MatroidOracle:
    """U(k, n) is connected when 0 < k < n; otherwise every element is a
    loop (k = 0) or a coloop (k = n).

    Every B - a + y is a basis, so the exchange path from e to f is {e, f},
    or {e, v, f} through the least id v outside B when f is in B; every
    k + 1 elements are a circuit."""
    k, n = _integer(k, "k"), _integer(n, "n")
    if not (0 <= k <= n):
        raise InvalidInstance("uniform matroid needs 0 <= k <= n")

    def witness(e: int, f: int, s_set: frozenset[int]) -> MatroidWitness:
        basis = frozenset(islice(dict.fromkeys(_order(e, s_set, n)), k))
        if f in basis:
            basis = basis - {f} | {next(v for v in range(n) if v not in basis)}
        return MatroidWitness(circuit=basis | {f}, basis_a=basis, basis_b=basis - {e} | {f})

    m = MatroidOracle(n, lambda t: len(t) <= k, name=f"uniform({k},{n})")
    m._components = lambda: [frozenset(range(n))] if 0 < k < n else _singletons(range(n))
    m._witness = witness
    return m


def free_matroid(n: int) -> MatroidOracle:
    return uniform_matroid(n, n)


def graphic_matroid(g: Digraph) -> MatroidOracle:
    """Edges independent iff they form a forest (directions ignored). Two
    arcs share a circuit exactly when they share a block (Whitney 1932), so
    the components are the blocks; a self-loop or a bridge is a singleton."""

    def independent(subset: frozenset[int]) -> bool:
        return len(UnionFind(g.node_count).joins(subset, g.tails, g.heads)) == len(subset)

    m = MatroidOracle(g.arc_count, independent, name=f"graphic(n={g.node_count})")
    m._components = lambda: _blocks(g)
    m._witness = lambda e, f, s_set: _graphic_witness(g, e, f, s_set)
    return m


def _graphic_witness(g: Digraph, e: int, f: int, s_set: frozenset[int]) -> MatroidWitness:
    """The exchange-path witness of a graphic matroid, read off forests.

    B is Kruskal's forest over the witness order, the greedy basis. B - a + y
    is a forest exactly when y is not a loop and a lies on y's tree path, so
    a non-tree arc's exchange neighbours are its tree path and a tree arc's
    are the non-tree arcs that cross the cut of B - a. The circuit of f is f
    plus its tree path in basis_a."""
    tails, heads, out, inc = g.tails, g.heads, g.out_arcs(), g.in_arcs()
    basis = frozenset(UnionFind(g.node_count).joins(_order(e, s_set, g.arc_count), tails, heads))
    # B's tree through e: node -> tree arc and node -> parent, each node after its parent.
    tree = bfs_tree(g, tails[e], basis, follow="both")
    up = {x: tails[a] if heads[a] == x else heads[a] for x, a in tree.items() if a != -1}

    def neighbours(u: int, seen: dict[int, int]) -> list[int]:
        if u not in basis:
            return sorted(set(tree_path(g, tree, tails[u])) ^ set(tree_path(g, tree, heads[u])))
        below = {heads[u] if tree[heads[u]] == u else tails[u]}
        for x, parent in up.items():
            if parent in below:
                below.add(x)
        return sorted({a for x in below for a in chain(out[x], inc[x])
                       if a not in basis and (tails[a] in below) != (heads[a] in below)})

    path = _exchange_path(e, f, neighbours)
    basis_a = ((basis ^ path) | {e}) - {f}
    forest = bfs_tree(g, tails[f], basis_a, follow="both", goal=heads[f])
    circuit = frozenset(tree_path(g, forest, heads[f])) | {f}
    return MatroidWitness(circuit=circuit, basis_a=basis_a, basis_b=(basis_a | {f}) - {e})


def _blocks(g: Digraph) -> list[frozenset[int]]:
    """The arc sets of the blocks, and each self-loop alone, from one
    Hopcroft–Tarjan search (CACM 16, 1973) with an explicit stack. Tree and
    back arcs go on `arcs` as they are met; when the search returns from w
    to v with low[w] >= disc[v], the arcs since w's tree arc are one block.
    The tree arc is skipped by id, so a parallel arc is a back arc."""
    tails, heads, out, inc = g.tails, g.heads, g.out_arcs(), g.in_arcs()
    parts = _singletons(aid for aid, (t, h) in enumerate(zip(tails, heads)) if t == h)
    disc, low = [0] * g.node_count, [0] * g.node_count
    clock = 0
    arcs: list[int] = []
    for root in range(g.node_count):
        if disc[root]:
            continue
        disc[root] = low[root] = clock = clock + 1
        # (node, its tree arc, where that arc sits on `arcs`, unread incident arcs)
        work = [(root, -1, 0, chain(out[root], inc[root]))]
        while work:
            v, via, start, unread = work[-1]
            for aid in unread:
                w = heads[aid] if tails[aid] == v else tails[aid]
                if not disc[w]:
                    disc[w] = low[w] = clock = clock + 1
                    work.append((w, aid, len(arcs), chain(out[w], inc[w])))
                    arcs.append(aid)
                    break
                if disc[w] < disc[v] and aid != via:
                    arcs.append(aid)
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        parts.append(frozenset(arcs[start:]))
                        del arcs[start:]
    return parts


def partition_matroid(blocks: list[Iterable[int]], capacities: list[int]) -> MatroidOracle:
    """A set is independent when it holds at most capacities[k] elements of
    each block k.

    The matroid is the direct sum of U(c, |block|) over the blocks, so a
    block with 0 < c < |block| is one component and every other element a
    singleton: a loop at c = 0, a coloop at c = |block|.
    """
    block_list = []
    for b in as_sequence(blocks, "blocks"):
        try:  # a block may be a set
            items = iter(b)
        except TypeError as exc:
            raise InvalidInstance(f"each block must be iterable: {exc}") from None
        block_list.append(frozenset(_integer(e, "block element") for e in items))
    capacities = [_integer(c, "capacity") for c in as_sequence(capacities, "capacities")]
    if len(block_list) != len(capacities):
        raise InvalidInstance("one capacity per block required")
    seen: set[int] = set()
    for b in block_list:
        if b & seen:
            raise InvalidInstance("blocks must be disjoint")
        seen |= b
    if seen != set(range(len(seen))) or any(c < 0 for c in capacities):
        raise InvalidInstance("blocks must partition 0..n-1, capacities >= 0")

    def independent(subset: frozenset[int]) -> bool:
        return all(len(subset & b) <= c for b, c in zip(block_list, capacities))

    m = MatroidOracle(len(seen), independent, name="partition")
    m._components = lambda: [part for b, c in zip(block_list, capacities)
                             for part in ([b] if 0 < c < len(b) else _singletons(b))]
    return m


@dataclass(frozen=True)
class MatroidWitness:
    """A violated circuit and two bases that agree on the queried set."""

    circuit: frozenset[int]
    basis_a: frozenset[int]
    basis_b: frozenset[int]


def find_basis(m: MatroidOracle) -> frozenset[int]:
    """Lexicographically first basis (greedy over ascending element ids)."""
    return _greedy(m, range(m.ground_size))


def _circuit_of(m: MatroidOracle, basis: frozenset[int], e: int) -> frozenset[int]:
    """The circuit in basis + e: the elements whose deletion restores independence."""
    extended = basis | {e}
    return frozenset(f for f in extended if m.is_independent(extended - {f}))


def matroid_components(m: MatroidOracle) -> tuple[frozenset[int], ...]:
    """Connected components, sorted by least element.

    A built-in matroid names them by theorem through `_components`. Any
    other oracle gets them from the fundamental graph of its first basis:
    elements i in the basis and j outside are joined when i lies on the
    fundamental circuit of j; loops and coloops end up as singletons.
    """
    if m._components is not None:
        return tuple(sorted(m._components(), key=min))
    if not m.is_independent(frozenset()):
        raise InvalidInstance("inconsistent oracle: empty set dependent")
    basis = find_basis(m)
    uf = UnionFind(m.ground_size)
    for j in range(m.ground_size):
        if j in basis:
            continue
        for i in _circuit_of(m, basis, j) - {j}:
            uf.union(i, j)
    return uf.parts()


def min_weight_matroid_identifying(
    m: MatroidOracle, w: WeightedGroundSet | None = None
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Drop the heaviest element (ties: smallest id) of each component."""
    w = validate_weights(m.ground_size, w)
    components = matroid_components(m)
    return drop_heaviest_per_part(components, w), components


def verify_matroid_identifying(
    m: MatroidOracle, s: Iterable[int]
) -> tuple[bool, MatroidWitness | None]:
    """Check that S misses at most one element of every component.

    The components decide the verdict in polynomial time. When S fails, let
    e < f be the two least ids outside S in the first violated component and
    B the greedy basis over e, then S, then every id. A shortest path from e
    to f in B's exchange graph has no chords, so exchanging along it keeps a
    basis (Krogdahl, Discrete Math. 19, 1977): basis_a holds e but not f,
    and its fundamental circuit of f holds e, so basis_b = basis_a - e + f
    is a basis too, equal to basis_a on S. Uniform and graphic matroids
    read the witness off their structure (`_witness`), exact by theorem.
    For any other oracle, independence queries check the circuit and both
    bases before they are returned; an oracle that is not a matroid can
    fail them, which raises InvalidInstance.
    """
    s_set = validate_ids(m.ground_size, s)
    part = next((p for p in matroid_components(m) if len(p - s_set) >= 2), None)
    if part is None:
        return True, None
    e, f = sorted(part - s_set)[:2]
    if m._witness is not None:
        return False, m._witness(e, f, s_set)
    basis = _greedy(m, _order(e, s_set, m.ground_size))
    path = _exchange_path(e, f, lambda u, seen: (
        v for v in range(m.ground_size)
        if v not in seen and (v in basis) != (u in basis) and m.is_independent(basis ^ {u, v})))
    if path is None:
        raise InvalidInstance(f"inconsistent oracle: {e} and {f} share a component "
                              "but no exchange path")
    basis_a = ((basis ^ path) | {e}) - {f}
    circuit = _circuit_of(m, basis_a, f)
    basis_b = (basis_a | {f}) - {e}
    if not (e in circuit and not m.is_independent(circuit)
            and all(m.is_independent(circuit - {x}) for x in circuit)
            and m.is_independent(basis_a) and m.is_independent(basis_b)):
        raise InvalidInstance(f"inconsistent oracle: exchanging {e} for {f} in "
                              f"{sorted(basis_a)} does not give a basis through "
                              f"the circuit {sorted(circuit)}")
    return False, MatroidWitness(circuit=circuit, basis_a=basis_a, basis_b=basis_b)


def _exchange_path(e: int, f: int, neighbours: Callable[[int, dict[int, int]], Iterable[int]]
                   ) -> frozenset[int] | None:
    """The elements of the first shortest path from e to f found by a BFS
    in the exchange graph of a basis B, where a in B and y outside B are
    adjacent when B - a + y is independent. `neighbours(u, seen)` yields
    u's neighbours in ascending id order, and may skip those in `seen`, the
    BFS parents so far; the search stops when it reaches f, whose parent
    is then fixed. None when f is out of reach."""
    parent = {e: e}
    queue = [e]
    for u in queue:
        for v in neighbours(u, parent):
            if v in parent:
                continue
            parent[v] = u
            if v == f:
                path = {v}
                while v != e:
                    v = parent[v]
                    path.add(v)
                return frozenset(path)
            queue.append(v)
    return None
