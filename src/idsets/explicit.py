"""Identifying sets for an explicit list of binary solution vectors.

Separating every pair of distinct vectors is a set-cover problem over the
pair universe. The weighted greedy gives the standard logarithmic guarantee
without listing the pairs: it refines the partition of the vectors into
classes not yet separated, and counts an element's new pairs per class as
|ones| * |zeros|. The exact optimum comes from the branch-and-bound
hitting-set search over the pair demands, at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .caps import Caps, DEFAULT_CAPS
from .errors import InvalidInstance, SubsetExplosion
from .graphs import WeightedGroundSet, validate_ids
from .search import min_weight_hitting_set


@dataclass(frozen=True)
class SolutionList:
    """Deduplicated binary vectors of one common dimension."""

    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, dimension: int, vectors: Iterable[Sequence[int]]):
        seen: set[tuple[int, ...]] = set()
        unique: list[tuple[int, ...]] = []
        for vec in vectors:
            tup = tuple(vec)
            if len(tup) != dimension:
                raise InvalidInstance("vector length does not match dimension")
            # Compare values, never truncate: int(1/2) would read as 0.
            if any(v not in (0, 1) for v in tup):
                raise InvalidInstance("vectors must be binary")
            tup = tuple(int(v) for v in tup)
            if tup not in seen:
                seen.add(tup)
                unique.append(tup)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vectors", tuple(unique))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "SolutionList":
        rows = [tuple(int(ch) for ch in s) for s in strings]
        if not rows:
            raise InvalidInstance("need at least one vector")
        return cls(len(rows[0]), rows)

    @classmethod
    def from_sets(cls, dimension: int, sets: Iterable[Iterable[int]]) -> "SolutionList":
        rows = []
        for s in sets:
            s = set(s)
            rows.append(tuple(1 if e in s else 0 for e in range(dimension)))
        return cls(dimension, rows)

    def __len__(self) -> int:
        return len(self.vectors)


def verify_explicit_identifying(
    x: SolutionList, s: Iterable[int]
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Pairwise separation via projection hashing; a collision is the witness."""
    cols = sorted(validate_ids(x.dimension, s))
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for vec in x.vectors:
        proj = tuple(vec[e] for e in cols)
        if proj in seen:
            return False, (seen[proj], vec)
        seen[proj] = vec
    return True, None


@dataclass(frozen=True)
class GreedyCoverResult:
    identifying_set: frozenset[int]
    total_weight: Fraction
    # (element, newly separated pair count) per greedy round.
    trace: tuple[tuple[int, int], ...]


def greedy_identifying(x: SolutionList,
                       w: WeightedGroundSet | None = None) -> GreedyCoverResult:
    """Weighted set-cover greedy over the pair universe, by partition refinement.

    The vectors not yet separated by the chosen elements fall into classes;
    element e separates |ones| * |zeros| new pairs in each class. Each round
    picks the element maximizing newly-separated-pairs per weight (exact
    cross-multiplied comparison; zero weight with positive gain counts as
    infinite), ties to the smaller id, and splits every class on it.
    Elements separating nothing are never chosen.
    """
    if w is None:
        w = WeightedGroundSet.uniform(x.dimension)
    classes = [x.vectors] if len(x.vectors) > 1 else []
    chosen: list[int] = []
    trace: list[tuple[int, int]] = []
    while classes:
        gains = [0] * x.dimension
        for members in classes:
            for e, ones in enumerate(map(sum, zip(*members))):
                gains[e] += ones * (len(members) - ones)
        best_e = -1
        for e, gain in enumerate(gains):
            if gain and (best_e == -1 or _better(gain, w[e], gains[best_e], w[best_e])):
                best_e = e
        chosen.append(best_e)
        trace.append((best_e, gains[best_e]))
        refined = []
        for members in classes:
            halves: tuple[list, list] = ([], [])
            for vec in members:
                halves[vec[best_e]].append(vec)
            refined.extend(half for half in halves if len(half) > 1)
        classes = refined
    s = frozenset(chosen)
    return GreedyCoverResult(identifying_set=s, total_weight=w.total(s),
                             trace=tuple(trace))


def _better(gain_a: int, w_a: Fraction, gain_b: int, w_b: Fraction) -> bool:
    """True when ratio gain_a/w_a beats gain_b/w_b (0-weight = infinite)."""
    if w_a == 0 and w_b == 0:
        return False  # both infinite: a tie, resolved by id order
    return gain_a * w_b > gain_b * w_a


def exact_identifying(x: SolutionList, w: WeightedGroundSet | None = None,
                      caps: Caps = DEFAULT_CAPS) -> tuple[frozenset[int], Fraction]:
    """Minimum-weight separating set by exact branch and bound (idsets.search)."""
    if w is None:
        w = WeightedGroundSet.uniform(x.dimension)
    if 1 << min(x.dimension, 63) > caps.max_subsets:
        raise SubsetExplosion(caps.max_subsets, f"2^{x.dimension} subsets")
    demands = []
    for i in range(len(x.vectors)):
        for j in range(i + 1, len(x.vectors)):
            vi, vj = x.vectors[i], x.vectors[j]
            demands.append(frozenset(e for e in range(x.dimension) if vi[e] != vj[e]))
    weight, elems = min_weight_hitting_set(x.dimension, w, demands, caps.max_subsets)
    return frozenset(elems), weight
