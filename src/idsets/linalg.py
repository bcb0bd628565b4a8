"""Small exact linear algebra: one integer elimination and its helpers.

Independence of rational vectors is an exact property; everything here avoids
floating point so downstream equality tests (tightness, rank counts) never
need tolerances. `echelon` is the only elimination: callers scale rational
rows to integers with `integer_row`, or parsed (numerator, denominator)
pairs with `ratio_row`, read rank, pivots, hull membership and tolls off its
forward echelon form, and read null vectors off its reduced rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Sequence

from .errors import InvalidInstance, as_sequence, non_vector_kind

Vector = tuple[Fraction, ...]


def exact(value: Any) -> Fraction:
    """Fraction(value), refusing a float: 0.1 would become the binary
    rational 3602879701896397/36028797018963968, not 1/10. A Fraction is
    returned as it is; anything Fraction() refuses raises InvalidInstance."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidInstance(f"floats are not exact, got {value!r}; pass an int, "
                              "Fraction or 'p/q' string")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidInstance(f"not an exact rational: {value!r}") from None


def as_vector(values: Sequence) -> Vector:
    """Each value through `exact`; InvalidInstance for a string, byte string,
    mapping or set (`non_vector_kind`) and for values `as_sequence` cannot
    list. A tuple whose items are all exactly Fraction is returned as it is."""
    if type(values) is tuple and set(map(type, values)) <= {Fraction}:
        return values
    kind = non_vector_kind(values)
    if kind:
        raise InvalidInstance(f"not an exact rational vector: {values!r} is a {kind}")
    return tuple(map(exact, as_sequence(values, "a vector")))


def echelon(rows: Sequence[Sequence[int]], reduced: bool = True
            ) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over the integers, in a copy: the nonzero
    rows of the reduced form, each divided by the gcd of its entries, and
    their pivot columns. Rows combine by integer cross-multiplication, so no
    Fraction is built; each row divided by its pivot is a row of the RREF.
    reduced=False skips the upward pass: each pivot clears only the rows
    below it, from its column on, and the rows come back in echelon form,
    still primitive, with the same pivots, for callers that read only those."""
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
        lead = 0 if reduced else c
        tail = top[lead:]
        for i in range(0 if reduced else r + 1, count):
            row = m[i]
            q = row[c]
            if i != r and q:
                g = gcd(p, q)
                a, b = p // g, q // g
                row[lead:] = _primitive([a * x - b * y for x, y in zip(row[lead:], tail)])
        pivots.append(c)
        r += 1
        if r == count:
            break
    return m[:r], pivots


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, scale) with row[i] == ints[i] / scale, scale the lcm of the denominators."""
    return ratio_row([v.as_integer_ratio() for v in row])


def ratio_row(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """`integer_row` of the rationals n / d given as reduced pairs (n, d), d > 0."""
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries; an all-zero row as it is."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
