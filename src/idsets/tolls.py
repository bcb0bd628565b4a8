"""Toll synthesis: price vectors that steer a system into a chosen state.

Discrete case: with an identifying set S and a binary solution list, pushing
each S-coordinate of the target with a large-enough bonus/penalty M makes the
target a minimizer of any cost. Convex case: a subgradient at the target is
cancelled exactly on the affine hull by solving a linear system supported on
S. The controlling check decides, per cost, whether some toll vector
supported on S enforces each target. On a binary list with an identifying S
the big-M construction answers yes, so no LP runs; integer or fractional
lists, and an S that is not identifying, get one exact LP per (cost, target),
which can expose an identifying set that does not control.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    InvalidInstance,
    NoSubgradient,
    NotIdentifying,
    TargetNotInX,
    TargetOutsideAffineHull,
    as_sequence,
)
from .explicit import SolutionList, verify_explicit_identifying
from .graphs import _count, validate_ids
from .linalg import Vector, _primitive, as_vector, echelon, exact, integer_row, vec_dot
from .linear import AffineBasis, verify_identifying_from_basis


@dataclass(frozen=True)
class CostOracle:
    """Cost evaluation plus an optional subgradient map."""

    evaluate: Callable[[Vector], Fraction]
    subgradient: Callable[[Vector], Vector] | None = None


def _point(params: Vector, x: Sequence) -> Vector:
    """`as_vector(x)`, refusing a length other than the cost's, which zip would cut."""
    vec = as_vector(x)
    if len(vec) != len(params):
        raise InvalidInstance(f"cost of dimension {len(params)}, point of dimension {len(vec)}")
    return vec


def linear_cost(coefficients: Sequence, constant: Fraction | int = 0) -> CostOracle:
    coeffs, const = as_vector(coefficients), exact(constant)

    def subgradient(x: Sequence) -> Vector:
        _point(coeffs, x)
        return coeffs

    return CostOracle(evaluate=lambda x: vec_dot(coeffs, _point(coeffs, x)) + const,
                      subgradient=subgradient)


def quadratic_cost(resistances: Sequence) -> CostOracle:
    """c(x) = 1/2 * sum r_e x_e^2, the energy form with per-element resistances.

    A negative resistance makes c concave, and a zero subgradient would then
    certify a maximizer, so it is refused; zero is allowed."""
    r = as_vector(resistances)
    if any(re < 0 for re in r):
        raise InvalidInstance(f"resistances must be >= 0, got {min(r)}")
    return CostOracle(
        evaluate=lambda x: sum((re * xe * xe for re, xe in zip(r, _point(r, x))),
                               Fraction(0)) / 2,
        subgradient=lambda x: tuple(re * xe for re, xe in zip(r, _point(r, x))),
    )


@dataclass(frozen=True)
class TollVector:
    """Rational toll per element; zero outside the support."""

    size: int
    gamma: dict[int, Fraction]
    support: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "size", _count(self.size, "size"))
        items, keys = [], []  # each argument read once, so a one-shot support is too
        for name in ("gamma", "support"):
            try:
                items.append(list(getattr(self, name)))
                keys.append(set(items[-1]))
            except TypeError as exc:
                raise InvalidInstance(f"{name} must be iterable: {exc}") from None
        outside = keys[0] - keys[1]
        if outside:
            raise InvalidInstance(f"tolls outside the support: {sorted(outside, key=repr)}")
        object.__setattr__(self, "support", validate_ids(self.size, items[1]))
        if not hasattr(self.gamma, "items"):
            raise InvalidInstance(f"gamma must map ids to tolls, got {type(self.gamma).__name__}")
        object.__setattr__(self, "gamma", {e: exact(v) for e, v in self.gamma.items()})

    def as_vector(self) -> Vector:
        return tuple(self.gamma.get(e, Fraction(0)) for e in range(self.size))


def discrete_tolls(x: SolutionList, s: Iterable[int], c: CostOracle,
                   target: Sequence[int], margin: Fraction | int = 0) -> TollVector:
    """Tolls -M / +M on the S-coordinates the target sets to 1 / 0.

    M = max(1, 2 * max |c|) guarantees the target attains the tolled minimum
    (the textbook 2*max|c| degenerates to 0 for a zero cost, hence the floor).
    A positive margin makes the target the unique minimizer; a negative one raises.
    """
    margin = exact(margin)
    if margin < 0:
        raise InvalidInstance(f"margin must be >= 0, got {margin}")
    s_set = validate_ids(x.dimension, s)
    ok, witness = verify_explicit_identifying(x, s_set)
    if not ok:
        raise NotIdentifying(witness)
    # Validated like a solution: 0/1 by value (1/2 is not 0), of the list's length.
    target_vec = SolutionList(x.dimension, [target]).vectors[0]
    if target_vec not in x.vectors:
        raise TargetNotInX(f"target {target_vec} not among the solutions")
    peak = max(abs(c.evaluate(as_vector(vec))) for vec in x.vectors)
    m = max(Fraction(1), 2 * peak) + margin
    gamma = {e: (-m if target_vec[e] == 1 else m) for e in sorted(s_set)}
    return TollVector(size=x.dimension, gamma=gamma, support=s_set)


def convex_tolls(basis: AffineBasis, s: Iterable[int], c: CostOracle,
                 target: Sequence) -> TollVector:
    """Solve (x_i - x_0)^T gamma = -d^T (x_i - x_0) with gamma zero off S.

    d is a subgradient of c at the target; the system is solvable because the
    complement of S is independent in the basis matroid, and the resulting
    zero subgradient of the tolled cost certifies the target as a minimizer.
    The system is solved on integer rows, positive multiples of the rational ones.
    """
    s_set = validate_ids(basis.ground_size, s)
    ok, delta = verify_identifying_from_basis(basis, s_set)
    if not ok:
        raise NotIdentifying(delta)
    target_vec = as_vector(target)
    if not basis.contains(target_vec):
        raise TargetOutsideAffineHull("target is not in the affine hull of the basis")
    if c.subgradient is None:
        raise NoSubgradient("cost oracle has no subgradient map")
    grad = as_vector(c.subgradient(target_vec))
    if len(grad) != basis.ground_size:
        raise InvalidInstance(f"subgradient of length {len(grad)}, not {basis.ground_size}")
    d, d_scale = integer_row(grad)
    cols = sorted(s_set)
    rows, pivots = echelon([[d_scale * diff[e] for e in cols] + [-sum(map(mul, d, diff))]
                            for diff in basis.integer_rows])
    assert len(cols) not in pivots, "system must be solvable for an identifying S"
    gamma = dict.fromkeys(cols if basis.hull_dimension else (), Fraction(0))
    for row, p in zip(rows, pivots):
        gamma[cols[p]] = Fraction(row[-1], row[p])
    return TollVector(size=basis.ground_size, gamma=gamma, support=s_set)


@dataclass(frozen=True)
class ControllingVerdict:
    controlling: bool
    # On failure: the unenforceable target, the cost index, the gap
    # c(target) - sum lambda c(x) > 0, and lambda as (state index, weight > 0)
    # pairs: a convex combination of other states equal to the target on S.
    failing_target: Vector | None = None
    failing_cost: int | None = None
    contradiction_rhs: Fraction | None = None
    certificate: tuple[tuple[int, Fraction], ...] = ()


def controlling_counterexample_check(states: Sequence[Sequence], s: Iterable[int],
                                     costs: Sequence[CostOracle]) -> ControllingVerdict:
    """Decide, per cost and target, whether tolls on S make the target a minimizer.

    Tolls gamma on S enforce x* when sum_e gamma_e (x_e - x*_e) >= c(x*) - c(x)
    for every other state x. When every state is 0/1 and S is identifying,
    the big-M tolls of `discrete_tolls` do so for any cost and target. Otherwise,
    by Farkas' lemma, x* is not enforceable exactly when a convex combination
    lambda of the other states equals x* on S and costs less on average; one
    LP per (cost, target) finds the cheapest such lambda, and the first pair
    with a positive gap is the verdict witness.
    """
    states = as_sequence(states, "states")
    costs = as_sequence(costs, "costs")
    # Rows of exact 0/1 ints reach the shortcut as they are; the LPs need Fractions.
    ints = all(type(state) in (list, tuple) and set(map(type, state)) <= {int}
               and set(state) <= {0, 1} for state in states)
    vectors = list(map(tuple, states)) if ints else [as_vector(state) for state in states]
    dim = len(vectors[0]) if vectors else 0
    if any(len(vec) != dim for vec in vectors):
        raise InvalidInstance("states must share one dimension")
    cols = sorted(validate_ids(dim, s))
    if ints:
        binary = SolutionList._from_rows(dim, vectors)
    elif all(v in (0, 1) for vec in vectors for v in vec):
        binary = SolutionList(dim, vectors)
    else:
        binary = None
    if binary is not None and verify_explicit_identifying(binary, cols)[0]:
        return ControllingVerdict(controlling=True)
    if ints:
        vectors = [as_vector(state) for state in states]
    for ci, cost in enumerate(costs):
        values = [exact(cost.evaluate(vec)) for vec in vectors]
        for ti, target in enumerate(vectors):
            others = [xi for xi in range(len(vectors)) if xi != ti]
            best = _cheapest_mixture([[vectors[xi][e] - target[e] for xi in others] for e in cols],
                                     [values[xi] - values[ti] for xi in others])
            if best is not None and best[0] < 0:
                return ControllingVerdict(
                    controlling=False, failing_target=target, failing_cost=ci,
                    contradiction_rhs=-best[0],
                    certificate=tuple((others[j], lam) for j, lam in sorted(best[1].items())))
    return ControllingVerdict(controlling=True)


def _cheapest_mixture(rows: list[list[Fraction]], gains: list[Fraction]
                      ) -> tuple[Fraction, dict[int, Fraction]] | None:
    """min sum_j lambda_j gains[j] over lambda >= 0 with every row . lambda = 0
    and sum lambda = 1, as (minimum, {j: lambda_j > 0}); None when infeasible.

    Simplex started from one artificial per row. Each column's reduced cost
    is a (phase I, phase II) pair compared as a tuple, so the artificials
    leave before the cost drops, without a separate phase I; one that leaves
    is not kept. Bland's rule (lowest improving column, ratio ties to the
    lowest basic label) cannot cycle, and the run goes on to the optimum.
    Rows are held as integers, each a positive multiple of its rational row
    as in `linalg.echelon`, so a pivot builds no Fraction.
    """
    k = len(gains)
    rows = [row + [Fraction(0)] for row in rows] + [[Fraction(1)] * (k + 1)]
    phase1 = [-sum(col) for col in zip(*rows)]
    *tableau, phase1, phase2 = [integer_row(row)[0]
                                for row in rows + [phase1, gains + [Fraction(0)]]]
    basis = list(range(k, k + len(tableau)))  # artificial labels follow the columns
    while (j := next((c for c in range(k) if (phase1[c], phase2[c]) < (0, 0)), None)) is not None:
        _, _, i = min((Fraction(row[-1], row[j]), basis[i], i)
                      for i, row in enumerate(tableau) if row[j] > 0)
        top = tableau[i]
        for row in tableau + [phase1, phase2]:
            q = row[j]
            if q and row is not top:
                row[:] = _primitive([top[j] * a - q * b for a, b in zip(row, top)])
        basis[i] = j
    if phase1[-1]:
        return None
    lam = {b: Fraction(row[-1], row[b]) for b, row in zip(basis, tableau) if b < k and row[-1]}
    return sum(w * gains[j] for j, w in lam.items()), lam
