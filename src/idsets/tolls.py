"""Toll synthesis: price vectors that steer a system into a chosen state.

Discrete case: with an identifying set S and a binary solution list, pushing
each S-coordinate of the target with a large-enough bonus/penalty M makes the
target a minimizer of any cost. Convex case: a subgradient at the target is
cancelled exactly on the affine hull by solving a linear system supported on
S. The controlling check decides, per cost, whether some toll vector
supported on S enforces each target. On a binary list with an identifying S
the big-M construction answers yes, so no elimination runs; integer or
fractional lists, and an S that is not identifying, go through exact
Fourier-Motzkin elimination, which can expose an identifying set that does
not control.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    CAP_KNOBS,
    EliminationExplosion,
    InvalidInstance,
    NoSubgradient,
    NotIdentifying,
    TargetNotInX,
    TargetOutsideAffineHull,
)
from .explicit import SolutionList, verify_explicit_identifying
from .graphs import _count, validate_ids
from .linalg import Vector, as_vector, echelon, exact, integer_row, vec_dot
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
    """c(x) = 1/2 * sum r_e x_e^2, the energy form with per-element resistances."""
    r = as_vector(resistances)
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
        try:
            outside = set(self.gamma) - set(self.support)
        except TypeError as exc:
            raise InvalidInstance(f"gamma and support must be iterable: {exc}") from None
        if outside:
            raise InvalidInstance(f"tolls outside the support: {sorted(outside, key=repr)}")
        object.__setattr__(self, "support", validate_ids(self.size, self.support))

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
    # On failure: the unenforceable target, the cost index, and the derived
    # contradiction 0 >= rhs with rhs > 0.
    failing_target: Vector | None = None
    failing_cost: int | None = None
    contradiction_rhs: Fraction | None = None


def controlling_counterexample_check(states: Sequence[Sequence], s: Iterable[int],
                                     costs: Sequence[CostOracle],
                                     caps: Caps = DEFAULT_CAPS) -> ControllingVerdict:
    """Decide, per cost and target, feasibility of the argmin inequality system.

    The system over gamma in R^S reads, for every other state x,
    sum_e gamma_e (x_e - x*_e) >= c(x*) - c(x). When every state is 0/1 and
    S is identifying, the big-M tolls of `discrete_tolls` solve it for any
    cost and target, so the answer is yes without elimination. Otherwise
    exact Fourier-Motzkin elimination decides it, and the first infeasible
    (target, cost) pair is the verdict witness.
    """
    try:
        vectors, s, costs = [as_vector(state) for state in states], frozenset(s), list(costs)
    except TypeError as exc:  # a state or cost list that is not a sequence, an unhashable id
        raise InvalidInstance(f"malformed states, S or costs: {exc}") from None
    if len(s) > caps.max_fm_vars:
        raise EliminationExplosion("max_fm_vars", caps.max_fm_vars, CAP_KNOBS["max_fm_vars"],
                                   f"|S| = {len(s)} variables")
    dim = len(vectors[0]) if vectors else 0
    if any(len(vec) != dim for vec in vectors):
        raise InvalidInstance("states must share one dimension")
    cols = sorted(validate_ids(dim, s))
    if (all(v in (0, 1) for vec in vectors for v in vec)
            and verify_explicit_identifying(SolutionList(dim, vectors), cols)[0]):
        return ControllingVerdict(controlling=True)
    for ci, cost in enumerate(costs):
        values = [cost.evaluate(vec) for vec in vectors]
        for ti, target in enumerate(vectors):
            rows = []
            for xi, other in enumerate(vectors):
                if xi == ti:
                    continue
                coeffs = tuple(other[e] - target[e] for e in cols)
                rhs = values[ti] - values[xi]
                rows.append((coeffs, rhs))
            feasible, contradiction = fourier_motzkin_feasible(rows, len(cols))
            if not feasible:
                return ControllingVerdict(controlling=False, failing_target=target,
                                          failing_cost=ci, contradiction_rhs=contradiction)
    return ControllingVerdict(controlling=True)


def fourier_motzkin_feasible(rows: Sequence[tuple[tuple[Fraction, ...], Fraction]],
                             nvars: int) -> tuple[bool, Fraction | None]:
    """Feasibility of a system of inequalities sum(coeffs * y) >= rhs.

    Eliminates variables left to right; after elimination, a constant row
    0 >= rhs with rhs > 0 is the contradiction. Rows are normalized and
    deduplicated to slow the quadratic blowup.
    """
    max_rows = 100_000  # rows kept after any one elimination step
    current = [_normalize_row(as_vector(coeffs), exact(rhs)) for coeffs, rhs in rows]
    for var in range(nvars):
        positive, negative, rest = [], [], []
        for coeffs, rhs in current:
            a = coeffs[var]
            if a > 0:
                positive.append((coeffs, rhs))
            elif a < 0:
                negative.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        combined: set[tuple[tuple[Fraction, ...], Fraction]] = set(rest)
        for cp, rp in positive:
            for cn, rn in negative:
                scale_p, scale_n = -cn[var], cp[var]
                coeffs = tuple(scale_p * p + scale_n * q for p, q in zip(cp, cn))
                rhs = scale_p * rp + scale_n * rn
                combined.add(_normalize_row(coeffs, rhs))
        current = list(combined)
        if len(current) > max_rows:
            raise EliminationExplosion("max_rows", max_rows, "fourier_motzkin_feasible",
                                       f"{len(current)} rows")
    for coeffs, rhs in current:
        if rhs > 0:
            return False, rhs
    return True, None


def _normalize_row(coeffs: tuple[Fraction, ...],
                   rhs: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    scale = next((abs(v) for v in coeffs if v != 0), None)
    if scale is None:
        return coeffs, rhs
    return tuple(v / scale for v in coeffs), rhs / scale
