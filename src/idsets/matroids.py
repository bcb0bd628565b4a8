"""Identifying sets for matroid bases via circuits and connected components.

A set S is identifying for the bases exactly when every circuit C satisfies
|S ∩ C| >= |C| - 1, equivalently S misses at most one element per connected
component. The components decide verification and give the minimum-weight
identifying set (drop the heaviest element of each non-singleton component).
The built-in matroids name them by theorem (uniform and partition matroids
in closed form, a graphic matroid as the blocks of its graph); any other
oracle gets them from the fundamental graph of one basis, each fundamental
circuit in |B| + 1 independence queries.

Only a negative verdict looks for the first violated circuit of the witness,
and only inside the violated components. A uniform matroid picks it in
closed form (its circuits are the (k+1)-subsets); partition, graphic and
custom oracles scan subsets. `Caps.max_ground` is checked before either
path, so whether a call raises depends only on sizes and caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .caps import Caps, DEFAULT_CAPS
from .errors import EnumerationExplosion, InvalidInstance
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
    and `verify_matroid_identifying` (its bases agree with its circuits).
    Only the built-in constructors set the private hooks `_components()`,
    the components by theorem, and `_first_circuit(s_set, elements)`, the
    circuit that the scan of `_first_violated_circuit` would find.
    """

    def __init__(self, ground_size: int, is_independent: Callable[[frozenset[int]], bool],
                 name: str = "custom"):
        self.ground_size = _count(ground_size, "ground_size")
        self.name = name
        self._components: Callable[[], Iterable[frozenset[int]]] | None = None
        self._first_circuit: Callable[[frozenset[int], list[int]],
                                      frozenset[int] | None] | None = None
        self._fn = is_independent
        self._cache: dict[frozenset[int], bool] = {}

    def is_independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        if key not in self._cache:
            self._cache[key] = bool(self._fn(key))
        return self._cache[key]

    def rank(self, subset: Iterable[int]) -> int:
        """Greedy rank computation; exact for matroids."""
        return len(_greedy_extend(self, (), sorted(set(subset))))


def _greedy_extend(m: MatroidOracle, start: Iterable[int],
                   candidates: Iterable[int]) -> set[int]:
    """`start` plus each candidate, in order, that keeps the set independent."""
    current = set(start)
    for e in candidates:
        if e not in current and m.is_independent(current | {e}):
            current.add(e)
    return current


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
    # The circuits are exactly the (k+1)-subsets.
    m._first_circuit = lambda s_set, elements: _first_violating_subset(s_set, elements, k + 1)
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
    try:
        block_list = [frozenset(_integer(e, "block element") for e in b) for b in blocks]
        capacities = [_integer(c, "capacity") for c in capacities]
    except TypeError as exc:
        raise InvalidInstance(f"blocks and capacities must be iterable: {exc}") from None
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


def _first_violating_subset(s_set: frozenset[int], elements: list[int],
                            size: int) -> frozenset[int] | None:
    """The lexicographically first `size`-subset of the ascending `elements`
    with two or more elements outside S, or None.

    One greedy pass takes each element unless the slots left after it could
    not hold the elements outside S still needed. While some such subset
    extends the chosen prefix, that is the only way taking an element can
    fail, and skipping it then keeps one; a pass that fills every slot has
    met the test at its last element, so it holds two outside S.
    """
    chosen: list[int] = []
    out = 0
    for e in elements:
        e_out = e not in s_set
        if 2 - out - e_out <= size - len(chosen) - 1:
            chosen.append(e)
            out += e_out
            if len(chosen) == size:
                return frozenset(chosen)
    return None


@dataclass(frozen=True)
class MatroidWitness:
    """A violated circuit and two bases that agree on the queried set."""

    circuit: frozenset[int]
    basis_a: frozenset[int]
    basis_b: frozenset[int]


def find_basis(m: MatroidOracle) -> frozenset[int]:
    """Lexicographically first basis (greedy over ascending element ids)."""
    return frozenset(_greedy_extend(m, (), range(m.ground_size)))


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
    m: MatroidOracle, s: Iterable[int], caps: Caps = DEFAULT_CAPS
) -> tuple[bool, MatroidWitness | None]:
    """Check that S misses at most one element of every component.

    The components decide the verdict in polynomial time. When S fails, the
    oracle's `_first_circuit` hook or a subset scan of the violated components
    finds the first violated circuit C (|S ∩ C| < |C| - 1); two bases
    exchanging two of its non-S elements are indistinguishable on S.
    `caps.max_ground` bounds only that witness search, hook or scan.
    An oracle that is not a matroid can contradict its own components or
    bases there, which raises InvalidInstance.
    """
    s_set = validate_ids(m.ground_size, s)
    violated = [e for part in matroid_components(m)
                if len(part - s_set) >= 2 for e in part]
    if not violated:
        return True, None
    circuit = _first_violated_circuit(m, s_set, sorted(violated), caps)
    if circuit is None:
        raise InvalidInstance("inconsistent oracle: a component holds two elements "
                              "outside S but no circuit does")
    e, f = sorted(circuit - s_set)[:2]
    basis_a = frozenset(_greedy_extend(m, circuit - {f},
                                       (g for g in range(m.ground_size) if g != f)))
    basis_b = (basis_a | {f}) - {e}
    if not m.is_independent(basis_b):
        raise InvalidInstance(f"inconsistent oracle: basis exchange {sorted(basis_b)} "
                              "is dependent")
    return False, MatroidWitness(circuit=circuit, basis_a=basis_a, basis_b=basis_b)


def _first_violated_circuit(m: MatroidOracle, s_set: frozenset[int],
                            elements: list[int], caps: Caps) -> frozenset[int] | None:
    """The first circuit with two or more elements outside S, scanning subsets
    of the ascending violated-component `elements` by size, then
    lexicographically. Such a circuit lies in one violated component, so the
    scan meets the circuit that a scan of the whole ground set meets first.
    The cap is checked first; then an oracle with a `_first_circuit` hook
    answers from its structure instead of the scan.

    Each size is a depth-first walk over positions in `combinations` order
    that only enters a branch which can still take two elements outside S:
    `left[j]` counts them from position j on, so once a position cannot, no
    later one can either. Every subset it tests is tested in the same order
    by a scan of all combinations that skips those with fewer than two.
    """
    n = len(elements)
    if n > caps.max_ground:
        raise EnumerationExplosion(caps.max_ground, f"violated components hold {n} elements")
    if m._first_circuit is not None:
        return m._first_circuit(s_set, elements)
    outside = [e not in s_set for e in elements]
    left = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        left[j] = left[j + 1] + outside[j]
    for size in range(2, n + 1):
        found = _circuit_walk(m, elements, outside, left, [], 0, size, 0)
        if found is not None:
            return found
    return None


def _circuit_walk(m: MatroidOracle, elements: list[int], outside: list[bool],
                  left: list[int], chosen: list[int], start: int, slots: int,
                  out: int) -> frozenset[int] | None:
    """The first circuit that adds `slots` elements from position `start` on
    to `chosen`, which holds `out` elements outside S, and ends with two or
    more outside S. Positions go in `combinations` order."""
    need = 2 - out
    if slots < need:
        return None
    for j in range(start, len(elements) - slots + 1):
        if left[j] < need:
            break
        if slots > 1:
            chosen.append(elements[j])
            found = _circuit_walk(m, elements, outside, left, chosen, j + 1, slots - 1,
                                  out + outside[j])
            chosen.pop()
            if found is not None:
                return found
        elif outside[j] >= need:
            t = frozenset((*chosen, elements[j]))
            if not m.is_independent(t) and all(m.is_independent(t - {x}) for x in t):
                return t
    return None
