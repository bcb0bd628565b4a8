"""Identifying sets for polymatroid base polyhedra via separability.

The ground set splits uniquely into connected components (no proper nonempty
T with f(T) + f(E \\ T) = f(E) inside a component); a set is identifying for
the base polyhedron exactly when it misses at most one element per component,
and a witness exchange stays inside a violated component. Coverage and
budget-additive functions and the ranks of built-in matroids name their
components by theorem; any other oracle gets them from one greedy base in
n(n+1)/2 oracle calls. Only a negative verdict runs that greedy base for a
trusted family: its witness comes from swaps in the base's dep order. All
arithmetic is exact: tightness x(T) = f(T) is an equality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidInstance, as_sequence
from .graphs import (UnionFind, WeightedGroundSet, _count, _integer, drop_heaviest_per_part,
                     validate_ids, validate_weights)
from .linalg import Vector, as_vector, exact, integer_row
from .matroids import MatroidOracle, _singletons

EXHAUSTIVE_CHECK_LIMIT = 12


class PolymatroidOracle:
    """Memoized value oracle for a normalized monotone submodular function.

    The axioms are checked by one exhaustive sweep over all 2^n values scaled
    to integers (the local monotonicity and submodularity inequalities): a
    table (`from_table`) at every size, a custom callable or the rank of a
    custom matroid up to ground size 12. Beyond 12 a callable is checked
    only for f({}) = 0 and otherwise trusted, as a custom `MatroidOracle`
    is. `coverage`, `budget_additive` and `from_matroid` of a built-in
    matroid skip the sweep, through `_Unchecked`: once their inputs pass
    their own checks they are polymatroids by theorem. They alone set
    `_scaled(T)`, f(T) * `_scale` as an int, for the greedy base, and
    `_components()`, the connected components by theorem.
    """

    _scaled: Callable[[Iterable[int]], int] | None = None
    _scale = 1
    _components: Callable[[], Iterable[frozenset[int]]] | None = None

    def __init__(self, ground_size: int, value: Callable[[frozenset[int]], Fraction],
                 name: str = "custom"):
        self.ground_size = _count(ground_size, "ground_size")
        if not callable(value):
            raise InvalidInstance(f"value must be callable, got {type(value).__name__}")
        self.name = name
        self._fn = value
        self._cache: dict[frozenset[int], Fraction] = {}
        self._validate()

    def value(self, subset: Iterable[int]) -> Fraction:
        key = frozenset(subset)
        if key not in self._cache:
            self._cache[key] = exact(self._fn(key))
        return self._cache[key]

    def _validate(self) -> None:
        """f({}) = 0 at every size, and the axiom sweep up to the limit; a
        larger custom callable is trusted beyond f({}) = 0."""
        n = self.ground_size if self.ground_size <= EXHAUSTIVE_CHECK_LIMIT else 0
        _check_axioms(n, (self.value(frozenset(e for e in range(n) if mask >> e & 1))
                          for mask in range(1 << n)))

    @classmethod
    def from_table(cls, ground_size: int,
                   table: Mapping[frozenset[int], Fraction]) -> "PolymatroidOracle":
        ground_size = _integer(ground_size, "ground_size")
        try:
            data = {frozenset(k): exact(v) for k, v in table.items()}
        except (AttributeError, TypeError) as exc:
            raise InvalidInstance(f"table must map subsets to values: {exc}") from None
        if not 0 <= ground_size < 64 or len(data) != 1 << ground_size:
            raise InvalidInstance("table must define every subset")
        # 2^n distinct keys inside the ground set are exactly its subsets.
        ground = frozenset(range(ground_size))
        if not all(key <= ground for key in data):
            raise InvalidInstance("table keys must be subsets of 0..size-1")
        by_mask: list = [None] * (1 << ground_size)
        for key, v in data.items():
            by_mask[sum(1 << e for e in key)] = v
        _check_axioms(ground_size, by_mask)
        return _Unchecked(ground_size, data.__getitem__, "table")

    @classmethod
    def from_matroid(cls, m: MatroidOracle) -> "PolymatroidOracle":
        """The rank function; a built-in matroid's is trusted and shares its
        components, a custom oracle's gets a custom callable's check."""
        name = f"rank({m.name})"
        if m._components is not None:
            return _trusted(m.ground_size, name, 1, m.rank, m._components)
        return cls(m.ground_size, lambda t: Fraction(m.rank(t)), name=name)

    @classmethod
    def coverage(cls, ground_size: int, sets: Sequence[Iterable]) -> "PolymatroidOracle":
        covered = []
        for s in as_sequence(sets, "covered sets"):
            try:  # a covered set may be a set
                covered.append(frozenset(s))
            except TypeError as exc:
                raise InvalidInstance(f"covered sets must be iterables of items: {exc}") from None
        if len(covered) != ground_size:
            raise InvalidInstance("one covered set per element required")

        def components() -> tuple[frozenset[int], ...]:
            # Elements covering a common item share a part; covering none is a loop.
            uf, first = UnionFind(ground_size), {}
            for e, items in enumerate(covered):
                for item in items:
                    uf.union(e, first.setdefault(item, e))
            return uf.parts()

        return _trusted(ground_size, "coverage", 1,
                        lambda t: len(frozenset().union(*map(covered.__getitem__, t))),
                        components)

    @classmethod
    def budget_additive(cls, cap: Fraction | int,
                        gains: Sequence[Fraction | int]) -> "PolymatroidOracle":
        cap_f = exact(cap)
        (cap_i, *gain_i), scale = integer_row((cap_f, *as_vector(gains)))
        if cap_i < 0 or any(a < 0 for a in gain_i):
            raise InvalidInstance("budget-additive needs nonnegative parameters")

        def components() -> list[frozenset[int]]:
            # With 0 < cap < Σ gains no split of the positive gains is a
            # separator; otherwise f is modular. A zero gain is a loop.
            if not 0 < cap_i < sum(gain_i):
                return _singletons(range(len(gain_i)))
            return [frozenset(compress(range(len(gain_i)), gain_i)),
                    *_singletons(e for e, a in enumerate(gain_i) if not a)]

        return _trusted(len(gain_i), "budget-additive", scale,
                        lambda t: min(cap_i, sum(map(gain_i.__getitem__, t))), components)


class _Unchecked(PolymatroidOracle):
    """An oracle built without the constructor's check: the closed forms,
    and a table, which `from_table` has already swept."""

    def _validate(self) -> None:
        pass


def _check_axioms(n: int, values: Iterable[Fraction]) -> None:
    """f({}) = 0, then f(T+e) >= f(T) and f(T+e) + f(T+f) >= f(T+e+f) + f(T)
    for every T of 0..n-1 (by size, then lexicographically) and e < f outside
    T, on the values scaled by the lcm of their denominators. `values` holds
    f(T) for every T by bitmask, read in order, so f({}) is checked before
    any other value is read. n = 0 checks f({}) = 0 alone."""
    values = iter(values)
    empty = next(values)
    if empty != 0:
        raise InvalidInstance("polymatroid rank must be normalized: f({}) = 0")
    table = integer_row([empty, *values])[0]
    for size in range(n):
        for combo in combinations(range(n), size):
            t = sum(1 << e for e in combo)
            ft = table[t]
            rest = [1 << e for e in range(n) if not t >> e & 1]
            for i, e in enumerate(rest):
                fte = table[t | e]
                if fte < ft:
                    raise InvalidInstance("polymatroid rank must be monotone")
                for f in rest[i + 1:]:
                    if fte + table[t | f] < table[t | e | f] + ft:
                        raise InvalidInstance("polymatroid rank must be submodular")


def _trusted(n: int, name: str, scale: int, scaled: Callable[[Iterable[int]], int],
             components: Callable[[], Iterable[frozenset[int]]]) -> PolymatroidOracle:
    """A closed form answering f(T) * scale in integers through `_scaled` and
    its components through `_components`; its Fraction `value` is read from
    the same formula."""
    f = _Unchecked(n, lambda t: Fraction(scaled(t), scale), name)
    f._scaled, f._scale, f._components = scaled, scale, components
    return f


@dataclass(frozen=True)
class PolymatroidWitness:
    """Two base points agreeing on the queried set, from a feasible exchange."""

    component: frozenset[int]
    base_a: Vector
    base_b: Vector
    epsilon: Fraction


def polymatroid_components(f: PolymatroidOracle) -> tuple[frozenset[int], ...]:
    """Components sorted by least element: by theorem for `coverage` and
    `budget_additive` (`_components`), else as the weak components of
    k -> dep(k) at one greedy base.

    x is the greedy base for the order 0..n-1, so every prefix P_k = {0..k}
    is tight, and dep(k), the least x-tight set holding k, lies in P_k: from
    D = P_k, each j = k-1, ..., 0 leaves D when D - j is still tight. Every
    separator is tight at x, hence a union of dep sets, and each weak
    component is a separator (Bixby, Cunningham & Topkis 1985): each part P
    has f(P) + f(E - P) = f(E).
    """
    if f._components is not None:
        return tuple(sorted(f._components(), key=min))
    return _greedy_deps(f)[2]


def _greedy_deps(f: PolymatroidOracle):
    """x * f._scale, every dep(k) and the weak components, as in
    `polymatroid_components`; ints from `_scaled` where a family sets it."""
    n = f.ground_size
    value = f._scaled or f.value
    uf = UnionFind(n)
    x: list[int | Fraction] = []
    deps: list[frozenset[int]] = []
    for k in range(n):
        dep_x = value(range(k + 1))
        x.append(dep_x - value(range(k)))
        dep = set(range(k + 1))
        for j in range(k - 1, -1, -1):
            if value(dep - {j}) == dep_x - x[j]:
                dep.discard(j)
                dep_x -= x[j]
        for j in dep:
            uf.union(k, j)
        deps.append(frozenset(dep))
    return x, deps, uf.parts()


def _covers(deps: list[frozenset[int]], v: int, u: int) -> bool:
    """v ⋖ u: v ∈ dep(u) - {u}, and no w ∈ dep(u) - {u, v} has v ∈ dep(w)."""
    return v != u and v in deps[u] and not any(v in deps[w] for w in deps[u] - {u, v})


def min_weight_polymatroid_identifying(
    f: PolymatroidOracle, w: WeightedGroundSet | None = None
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Drop the heaviest element (ties: smallest id) of every component."""
    w = validate_weights(f.ground_size, w)
    components = polymatroid_components(f)
    return drop_heaviest_per_part(components, w), components


def verify_polymatroid_identifying(
    f: PolymatroidOracle, s: Iterable[int]
) -> tuple[bool, PolymatroidWitness | None]:
    """Check |S ∩ E_i| >= |E_i| - 1 per component.

    The components decide the verdict; only a violation runs the greedy
    base and its dep sets, for the witness of the first violated component.
    There, each cover v ⋖ u on the BFS path in the cover graph from
    e to e', the two least ids of the component outside S, swaps v and u in
    the greedy order: a base x + α(χ_u - χ_v) with α > 0. With
    t = 1 / Σ 1/α, base_b takes the swaps towards e' and base_a the others,
    weighted t/α each, so base_b - base_a = t(χ_e' - χ_e) (DECISIONS,
    "Polymatroid witnesses from greedy-base swaps").
    """
    s_set = validate_ids(f.ground_size, s)
    part = next((p for p in polymatroid_components(f) if len(p - s_set) >= 2), None)
    if part is None:
        return True, None
    x, deps, _ = _greedy_deps(f)
    x = [Fraction(v, f._scale) for v in x]
    e, e_prime = sorted(part - s_set)[:2]
    parent, queue = {e: e}, [e]
    for a in queue:
        for c in sorted(part - parent.keys()):
            if _covers(deps, a, c) or _covers(deps, c, a):
                parent[c] = a
                queue.append(c)
    moves = [[0] * len(x), [0] * len(x)]  # backward, forward: sums of χ_u - χ_v
    inverse, b = Fraction(0), e_prime
    while b != e:
        a = parent[b]
        forward = _covers(deps, a, b)
        v, u = (a, b) if forward else (b, a)
        alpha = f.value(deps[u] - {v}) - sum(x[g] for g in deps[u] - {v})
        if alpha <= 0:
            raise InvalidInstance(f"inconsistent oracle: swapping {v} and {u} in the "
                                  f"greedy order gives a step of {alpha}")
        inverse += 1 / alpha
        moves[forward][u] += 1
        moves[forward][v] -= 1
        b = a
    t = 1 / inverse
    base_a, base_b = (tuple(xe + t * m for xe, m in zip(x, side)) for side in moves)
    return False, PolymatroidWitness(part, base_a, base_b, epsilon=t)
