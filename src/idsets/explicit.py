"""Identifying sets for an explicit list of binary solution vectors.

Separating every pair of distinct vectors is a set-cover problem over the
pair universe. The weighted greedy gives the standard logarithmic guarantee
without listing the pairs: it refines the partition of the vectors into
classes not yet separated, and counts an element's new pairs per class as
|ones| * |zeros|, for every element at once from the class's packed sum.
Verification and the exact optimum pass the vectors as bitmask rows to
idsets.search: the first collision on S, and the branch-and-bound
hitting-set search over the pair demands, at desk scale.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from sys import byteorder
from typing import Iterable, Sequence

from .caps import Caps, DEFAULT_CAPS
from .errors import InvalidInstance, as_sequence
from .graphs import WeightedGroundSet, _count, validate_ids, validate_weights
from .search import first_collision, min_weight_hitting_set, pair_demands


@dataclass(frozen=True)
class SolutionList:
    """Deduplicated binary vectors of one common dimension."""

    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, dimension: int, vectors: Iterable[Sequence[int]]):
        dimension = _count(dimension, "dimension")
        vecs: list[tuple[int, ...]] = []
        for vec in as_sequence(vectors, "vectors"):
            tup = tuple(as_sequence(vec, "each vector"))
            if len(tup) != dimension:
                raise InvalidInstance("vector length does not match dimension")
            # Exact ints 0/1 are kept as they are; anything else is compared
            # by value, never truncated: int(1/2) would read as 0.
            if not (set(map(type, tup)) <= {int} and set(tup) <= {0, 1}):
                if any(v not in (0, 1) for v in tup):
                    raise InvalidInstance("vectors must be binary")
                try:
                    tup = tuple(map(int, tup))
                except TypeError as exc:  # a value equal to 0 or 1, such as 1+0j
                    raise InvalidInstance(
                        f"vector coordinate must be an integer 0 or 1: {exc}") from None
            vecs.append(tup)
        self._keep(dimension, vecs)

    @classmethod
    def _from_rows(cls, dimension: int, rows: list[tuple[int, ...]]) -> SolutionList:
        """`SolutionList(dimension, rows)` for rows that are each already a
        tuple of exact 0/1 ints (io.parse_solution_list's, the controlling
        check's): the dimension check, one length check over the rows, and
        the dedupe, without a per-coordinate check."""
        dimension = _count(dimension, "dimension")
        if not set(map(len, rows)) <= {dimension}:
            raise InvalidInstance("vector length does not match dimension")
        return cls.__new__(cls)._keep(dimension, rows)

    def _keep(self, dimension: int, vecs: list[tuple[int, ...]]) -> SolutionList:
        """Store the checked fields, each vector once, in first-seen order."""
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vectors", tuple(dict.fromkeys(vecs)))
        return self

    def __len__(self) -> int:
        return len(self.vectors)

    def rows(self) -> list[int]:
        """Each vector as an int with bit e set when coordinate e is 1."""
        return [sum(1 << e for e, v in enumerate(vec) if v) for vec in self.vectors]


def verify_explicit_identifying(
    x: SolutionList, s: Iterable[int]
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """S separates every pair iff no two vectors agree on S; a collision is the witness."""
    s_mask = sum(1 << e for e in validate_ids(x.dimension, s))
    hit = first_collision(x.rows(), s_mask)
    if hit is None:
        return True, None
    return False, (x.vectors[hit[0]], x.vectors[hit[1]])


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

    Each vector is packed once into an int, coordinate e in lane e of `fmt`'s
    width, and `masks` fills its 1-lanes with ones. For a class C with packed
    sum P, |C|*P - sum(P & mask) holds ones * (|C| - ones) in every lane, so
    each round's gains are one int, unpacked by one cast (DECISIONS, "Greedy
    gains from packed column sums").
    """
    w = validate_weights(x.dimension, w)
    scaled, vectors = w.scaled, x.vectors
    # Int arithmetic is exact, so only the lanes read must fit: those of a
    # class sum (at most n) and of a round's gains (at most n * n / 4).
    n = len(vectors)
    fmt = "I" if n * n < 1 << 8 * array("I").itemsize else "Q"
    width = 8 * array(fmt).itemsize
    packed = [int.from_bytes(array(fmt, vec), byteorder) for vec in vectors]
    masks = [p * ((1 << width) - 1) for p in packed]
    classes = [list(range(n))] if n > 1 else []
    chosen: list[int] = []
    trace: list[tuple[int, int]] = []
    while classes:
        total = 0
        for members in classes:
            p = sum(map(packed.__getitem__, members))
            total += len(members) * p - sum(map(p.__and__, map(masks.__getitem__, members)))
        gains = memoryview(total.to_bytes(x.dimension * width // 8, byteorder)).cast(fmt)
        best_e = -1
        for e, gain in enumerate(gains):
            if gain and (best_e == -1 or gain * scaled[best_e] > gains[best_e] * scaled[e]):
                best_e = e
        chosen.append(best_e)
        trace.append((best_e, gains[best_e]))
        refined = []
        for members in classes:
            halves: tuple[list, list] = ([], [])
            for u in members:
                halves[vectors[u][best_e]].append(u)
            refined.extend(half for half in halves if len(half) > 1)
        classes = refined
    s = frozenset(chosen)
    return GreedyCoverResult(identifying_set=s, total_weight=w.total(s),
                             trace=tuple(trace))


def exact_identifying(x: SolutionList, w: WeightedGroundSet | None = None,
                      caps: Caps = DEFAULT_CAPS) -> tuple[frozenset[int], Fraction]:
    """Minimum-weight separating set by exact branch and bound (idsets.search)."""
    w = validate_weights(x.dimension, w)
    weight, elems = min_weight_hitting_set(x.dimension, w, pair_demands(x.rows()),
                                           caps.max_subsets)
    return frozenset(elems), weight
