"""Identifying sets for a convex set given by an affine basis.

Let D be the k x n matrix whose rows are the differences x_i - x_0 of the
basis points. A set S is identifying exactly when the columns of D indexed by
S have rank k, so a minimum-weight identifying set is a minimum-weight column
basis of D: the pivot columns of one exact elimination with the columns in
ascending weight order. When S falls short, a left-null combination y of the
rows of D[:, S], read off `echelon` of the transposed integer columns, gives
the witness direction y^T D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidInstance, as_sequence
from .graphs import WeightedGroundSet, validate_ids, validate_weights
from .linalg import Vector, as_vector, echelon, integer_row


@dataclass(frozen=True)
class AffineBasis:
    """Affinely independent points x0..xk spanning the affine hull of X. Rank,
    pivots and hull membership use `integer_rows`: each row of D times a
    positive integer, from x0's integer row and the scale of each point."""

    points: tuple[Vector, ...]

    def __init__(self, points: Sequence[Sequence]):
        pts = tuple(map(as_vector, as_sequence(points, "basis points")))
        if not pts:
            raise InvalidInstance("affine basis needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise InvalidInstance("basis points must share one dimension")
        object.__setattr__(self, "points", pts)
        ints = [integer_row(p) for p in pts]
        (x0, s0), *others = ints
        rows = tuple(tuple(a * s0 - b * s for a, b in zip(p, x0)) for p, s in others)
        object.__setattr__(self, "integer_rows", rows)
        object.__setattr__(self, "_x0", x0)
        object.__setattr__(self, "_scales", tuple(s for _, s in ints))
        stored, pivots = echelon(rows, reduced=False)
        object.__setattr__(self, "_echelon", tuple(zip(stored, pivots)))
        if len(pivots) != self.hull_dimension:
            raise InvalidInstance("basis points are not affinely independent")

    @property
    def ground_size(self) -> int:
        return len(self.points[0])

    @property
    def hull_dimension(self) -> int:
        """Dimension k of the affine hull."""
        return len(self.points) - 1

    def contains(self, target: Sequence) -> bool:
        """True iff the target lies in the affine hull: target - x0, scaled to
        integers, reduces to zero against the stored echelon rows of D, one
        cross-multiplication from each pivot column where it is nonzero."""
        tgt = as_vector(target)
        if len(tgt) != self.ground_size:
            raise InvalidInstance("target has the wrong dimension")
        t, t_scale = integer_row(tgt)
        shift = [a * self._scales[0] - b * t_scale for a, b in zip(t, self._x0)]
        # Entries left of c are not rescaled: only whether they are zero is read.
        for row, c in self._echelon:
            q = shift[c]
            if q:
                p = row[c]
                g = gcd(p, q)
                a, b = p // g, q // g
                shift[c:] = [a * x - b * y for x, y in zip(shift[c:], row[c:])]
        return not any(shift)


def _columns(rows: Sequence[Sequence], cols: Sequence[int]) -> list[list]:
    """The rows restricted to the given columns, in that order."""
    return [[row[e] for e in cols] for row in rows]


def min_weight_identifying_from_basis(basis: AffineBasis,
                                      w: WeightedGroundSet | None = None) -> frozenset[int]:
    """Minimum-weight column basis of D: the pivots of one elimination.

    Columns go lightest first, ties to the larger id: the exact reverse of
    the heaviest-first (ties: smaller id) greedy over the dual matroid, so S
    is the complement of that greedy's independent set and has size k.
    """
    n = basis.ground_size
    w = validate_weights(n, w)
    # The sort is stable, so ids of equal weight keep this descending order.
    order = sorted(range(n - 1, -1, -1), key=w.scaled.__getitem__)
    _, pivots = echelon(_columns(basis.integer_rows, order), reduced=False)
    return frozenset(order[c] for c in pivots)


def verify_identifying_from_basis(basis: AffineBasis,
                                  s: Iterable[int]) -> tuple[bool, Vector | None]:
    """True iff the columns of D indexed by S have rank k.

    On failure returns a nonzero direction in the span of the difference
    vectors that vanishes on S: moving inside X along it changes no
    coordinate of S, so two points of X agree on S.
    """
    s_set = validate_ids(basis.ground_size, s)
    cols = sorted(s_set)
    if len(echelon(_columns(basis.integer_rows, cols), reduced=False)[1]) == basis.hull_dimension:
        return True, None
    # Integer row i is D_i times c_i = s_i * s_0, the scales of x_i and x_0,
    # so a null vector y of the transposed integer columns with y_j = 1 is
    # the Fraction one of D[:, S] with each y_i scaled by c_i / c_j.
    ints = basis.integer_rows
    rows, pivots = echelon([[row[e] for row in ints] for e in cols])
    j = next(i for i in range(basis.hull_dimension) if i not in pivots)
    y = {j: Fraction(1)}
    y.update((p, Fraction(-row[j], row[p])) for row, p in zip(rows, pivots))
    c_j = basis._scales[j + 1] * basis._scales[0]
    delta = tuple(sum(v * ints[i][e] for i, v in y.items()) / c_j
                  for e in range(basis.ground_size))
    assert any(value != 0 for value in delta)
    assert all(delta[e] == 0 for e in s_set)
    return False, delta
