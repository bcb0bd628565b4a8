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
in polynomially many independence queries and with no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .errors import InvalidInstance, as_sequence
from .graphs import (
    Digraph,
    UnionFind,
    WeightedGroundSet,
    _count,
    _integer,
    drop_heaviest_per_part,
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
    components by theorem.
    """

    def __init__(self, ground_size: int, is_independent: Callable[[frozenset[int]], bool],
                 name: str = "custom"):
        self.ground_size = _count(ground_size, "ground_size")
        if not callable(is_independent):
            raise InvalidInstance("is_independent must be callable, "
                                  f"got {type(is_independent).__name__}")
        self.name = name
        self._components: Callable[[], Iterable[frozenset[int]]] | None = None
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


def uniform_matroid(k: int, n: int) -> MatroidOracle:
    """U(k, n) is connected when 0 < k < n; otherwise every element is a
    loop (k = 0) or a coloop (k = n)."""
    k, n = _integer(k, "k"), _integer(n, "n")
    if not (0 <= k <= n):
        raise InvalidInstance("uniform matroid needs 0 <= k <= n")
    m = MatroidOracle(n, lambda t: len(t) <= k, name=f"uniform({k},{n})")
    m._components = lambda: [frozenset(range(n))] if 0 < k < n else _singletons(range(n))
    return m


def free_matroid(n: int) -> MatroidOracle:
    return uniform_matroid(n, n)


def graphic_matroid(g: Digraph) -> MatroidOracle:
    """Edges independent iff they form a forest (directions ignored). Two
    arcs share a circuit exactly when they share a block (Whitney 1932), so
    the components are the blocks; a self-loop or a bridge is a singleton."""

    def independent(subset: frozenset[int]) -> bool:
        uf = UnionFind(g.node_count)
        for aid in subset:
            tail, head = g.tails[aid], g.heads[aid]
            if tail == head or not uf.union(tail, head):
                return False
        return True

    m = MatroidOracle(g.arc_count, independent, name=f"graphic(n={g.node_count})")
    m._components = lambda: _blocks(g)
    return m


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
    is a basis too, equal to basis_a on S. Independence queries check the
    circuit and both bases before they are returned; an oracle that is not
    a matroid can fail them, which raises InvalidInstance.
    """
    s_set = validate_ids(m.ground_size, s)
    part = next((p for p in matroid_components(m) if len(p - s_set) >= 2), None)
    if part is None:
        return True, None
    e, f = sorted(part - s_set)[:2]
    basis = _greedy(m, chain((e,), sorted(s_set), range(m.ground_size)))
    path = _exchange_path(m, basis, e, f)
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


def _exchange_path(m: MatroidOracle, basis: frozenset[int], e: int,
                   f: int) -> frozenset[int] | None:
    """The elements of the first shortest path from e to f found by a BFS
    in the exchange graph of `basis`, where a in B and y outside B are
    adjacent when B - a + y is independent; each node tries its neighbours
    in ascending id order, and the search stops when it takes f off the
    queue. None when f is out of reach."""
    parent = {e: e}
    queue = [e]
    for u in queue:
        if u == f:
            path = {u}
            while u != e:
                u = parent[u]
                path.add(u)
            return frozenset(path)
        side = u in basis
        for v in range(m.ground_size):
            if v not in parent and (v in basis) != side and m.is_independent(basis ^ {u, v}):
                parent[v] = u
                queue.append(v)
    return None
