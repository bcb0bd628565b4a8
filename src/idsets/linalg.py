"""Small exact linear algebra: rank, pivots, solving, dependencies.

Independence of rational vectors is an exact property; everything here avoids
floating point so downstream equality tests (tightness, rank counts) never
need tolerances. Elimination runs on integers (`echelon`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Sequence

from .errors import InvalidInstance

Vector = tuple[Fraction, ...]


def exact(value: Any) -> Fraction:
    """Fraction(value), refusing a float: 0.1 would become the binary
    rational 3602879701896397/36028797018963968, not 1/10. A Fraction is
    immutable, so one is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidInstance(f"floats are not exact, got {value!r}; pass an int, "
                              "Fraction or 'p/q' string")
    return Fraction(value)


def as_vector(values: Sequence) -> Vector:
    return tuple(exact(v) for v in values)


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over the integers, in a copy: the nonzero
    rows of the reduced form, each divided by the gcd of its entries, and
    their pivot columns. Rows combine by integer cross-multiplication, so no
    Fraction is built; each row divided by its pivot is a row of the RREF."""
    m = [_primitive(list(row)) for row in rows]
    count = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, count) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(count):
            q = m[i][c]
            if i != r and q:
                g = gcd(p, q)
                a, b = p // g, q // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == count:
            break
    return m[:r], pivots


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in a copy) and the list of pivot columns:
    `echelon` of the rows scaled to integers (scaling keeps the unique RREF),
    each returned row divided by its pivot as Fractions."""
    rows, pivots = echelon([integer_row(row)[0] for row in matrix])
    cols = len(matrix[0]) if matrix else 0
    zero = Fraction(0)
    reduced = [[Fraction(v, row[c]) if v else zero for v in row]
               for row, c in zip(rows, pivots)]
    reduced += [[zero] * cols for _ in range(len(matrix) - len(rows))]
    return reduced, pivots


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, scale) with row[i] == ints[i] / scale, scale the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row], scale


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries; an all-zero row as it is."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(echelon([integer_row(as_vector(row))[0] for row in rows])[1])


def dependency(vectors: Sequence[Vector]) -> Vector | None:
    """Coefficients of a nontrivial vanishing combination, or None if independent.

    Returned c satisfies sum(c[i] * vectors[i]) == 0 with some c[i] == 1.
    """
    n = len(vectors)
    if n == 0:
        return None
    dim = len(vectors[0])
    # Columns are the vectors; a nullspace vector is a dependency.
    mat = [[vectors[j][i] for j in range(n)] for i in range(dim)]
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    free = next((j for j in range(n) if j not in pivot_set), None)
    if free is None:
        return None
    coeffs = [Fraction(0)] * n
    coeffs[free] = Fraction(1)
    for row, pc in enumerate(pivots):
        coeffs[pc] = -reduced[row][free]
    return tuple(coeffs)


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector | None:
    """One exact solution of A x = b with free variables set to 0, or None."""
    rows = len(a)
    if rows == 0:
        return ()
    cols = len(a[0])
    aug = [list(map(exact, row)) + [exact(bi)] for row, bi in zip(a, b)]
    reduced, pivots = rref(aug)
    if cols in pivots:  # pivot in the rhs column: inconsistent system
        return None
    x = [Fraction(0)] * cols
    for row, pc in enumerate(pivots):
        x[pc] = reduced[row][cols]
    return tuple(x)


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
