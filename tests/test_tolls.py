"""Toll synthesis: discrete big-M, convex subgradient cancellation, controlling LPs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from idsets.errors import (
    IdsetsError,
    InvalidInstance,
    NoSubgradient,
    NotIdentifying,
    TargetNotInX,
    TargetOutsideAffineHull,
)
from idsets.explicit import SolutionList, exact_identifying, verify_explicit_identifying
from idsets.graphs import Digraph, StPair, enumerate_st_paths
from idsets.linalg import as_vector, vec_dot
from idsets.linear import AffineBasis, min_weight_identifying_from_basis
from idsets.tolls import (
    ControllingVerdict,
    CostOracle,
    TollVector,
    controlling_counterexample_check,
    convex_tolls,
    discrete_tolls,
    linear_cost,
    quadratic_cost,
)

from .helpers import (
    differences,
    fourier_motzkin_feasible,
    from_sets,
    from_strings,
    oracle_controlling_fm,
    oracle_convex_tolls,
    tolled_cost,
)
from .test_linear import flow_polytope_basis, hull_point, seeded_bases

PARALLEL = AffineBasis([[1, 0], [0, 1]])


def paths_as_solutions(g: Digraph, st: StPair) -> SolutionList:
    paths = enumerate_st_paths(g, st, cap=10_000)
    return from_sets(g.arc_count, [set(p) for p in paths])


class TestCostOracles:
    def test_subgradient_inequality_linear(self):
        c = linear_cost([2, -3], constant=5)
        rng = random.Random(71)
        for _ in range(30):
            x = as_vector([rng.randint(-3, 3), rng.randint(-3, 3)])
            z = as_vector([rng.randint(-3, 3), rng.randint(-3, 3)])
            g = as_vector(c.subgradient(x))
            assert c.evaluate(z) >= c.evaluate(x) + vec_dot(g, tuple(
                zi - xi for zi, xi in zip(z, x)))

    def test_subgradient_inequality_quadratic(self):
        c = quadratic_cost([1, 2, Fraction(1, 2)])
        rng = random.Random(73)
        for _ in range(30):
            x = as_vector([Fraction(rng.randint(-4, 4), 2) for _ in range(3)])
            z = as_vector([Fraction(rng.randint(-4, 4), 2) for _ in range(3)])
            g = as_vector(c.subgradient(x))
            assert c.evaluate(z) >= c.evaluate(x) + vec_dot(g, tuple(
                zi - xi for zi, xi in zip(z, x)))

    @pytest.mark.parametrize("build, kind", [
        (lambda: linear_cost(None), "NoneType"),
        (lambda: quadratic_cost(-1), "int"),
    ], ids=["linear-none", "quadratic-int"])
    def test_refuses_values_it_cannot_iterate(self, build, kind):
        with pytest.raises(InvalidInstance, match=(
                f"^a vector must be iterable: '{kind}' object is not iterable$")):
            build()

    @pytest.mark.parametrize("call", [
        lambda: linear_cost([5]).evaluate((1, 1, 1)),
        lambda: linear_cost([5]).subgradient((1, 1, 1)),
        lambda: quadratic_cost([2]).evaluate((1, 3)),
        lambda: quadratic_cost([2]).subgradient((1, 3)),
    ], ids=["linear-evaluate", "linear-subgradient", "quadratic-evaluate",
            "quadratic-subgradient"])
    def test_refuses_a_point_of_another_length(self, call):
        # zip would cut the point to the cost's length: 5 and 1 came back.
        with pytest.raises(InvalidInstance, match="^cost of dimension 1, point of dimension "):
            call()

    def test_quadratic_refuses_a_negative_resistance(self):
        # A concave cost, whose zero subgradient would certify a maximizer.
        with pytest.raises(InvalidInstance, match="^resistances must be >= 0, got -1/2$"):
            quadratic_cost([1, Fraction(-1, 2)])
        assert quadratic_cost([0, 0]).evaluate((3, 4)) == 0


class TestTollVector:
    @pytest.mark.parametrize("gamma, message", [
        ({0: "x"}, "^not an exact rational: 'x'$"),
        ({0: 0.5}, "^floats are not exact, got 0.5"),
        ([0], "^gamma must map ids to tolls, got list$"),
    ], ids=["string", "float", "list"])
    def test_refuses_a_toll_that_is_not_exact(self, gamma, message):
        # ('x', 0) and (0.5, 0) came back from as_vector().
        with pytest.raises(InvalidInstance, match=message):
            TollVector(2, gamma, {0})

    def test_reads_tolls_as_fractions(self):
        toll = TollVector(2, {1: "-3/4", 0: 2}, {0, 1})
        assert toll.gamma == {0: 2, 1: Fraction(-3, 4)}
        assert all(type(v) is Fraction for v in toll.as_vector())

    def test_refuses_a_toll_outside_the_support(self):
        # An InvalidInstance, not an assert, so it holds under `python -O` too.
        with pytest.raises(InvalidInstance, match=r"^tolls outside the support: \[0\]"):
            TollVector(3, [0], [Fraction(1)])

    def test_refuses_a_gamma_it_cannot_iterate(self):
        with pytest.raises(InvalidInstance, match="^gamma must be iterable: 'NoneType' "):
            TollVector(3, None, frozenset())

    def test_refuses_a_support_it_cannot_iterate(self):
        with pytest.raises(InvalidInstance, match="^support must be iterable: 'NoneType' "):
            TollVector(2, {0: 1}, None)

    def test_names_gamma_first_when_neither_iterates(self):
        with pytest.raises(InvalidInstance, match="^gamma must be iterable: 'int' "):
            TollVector(2, 0, None)

    def test_refuses_a_support_id_outside_the_size(self):
        # as_vector() dropped the toll on element 5 of a 2-element vector.
        with pytest.raises(InvalidInstance, match="^element id 5 out of range$"):
            TollVector(2, {5: Fraction(1)}, {5})

    def test_a_one_shot_support_is_read_once(self):
        # An iterator is listed once: a second read would find it empty and
        # keep the toll on 0 outside the stored support.
        toll = TollVector(size=3, gamma={0: 1}, support=iter([0, 1]))
        assert toll == TollVector(size=3, gamma={0: 1}, support=[0, 1])
        assert toll.support == frozenset({0, 1})

    def test_a_toll_outside_a_one_shot_support_is_refused(self):
        with pytest.raises(InvalidInstance, match=r"^tolls outside the support: \[2\]$"):
            TollVector(size=3, gamma={2: 1}, support=iter([0, 1]))

    def test_a_one_shot_support_id_outside_the_size_is_refused(self):
        with pytest.raises(InvalidInstance, match="^element id 5 out of range$"):
            TollVector(size=3, gamma={}, support=(e for e in [0, 5]))

    def test_size_is_a_count(self):
        with pytest.raises(InvalidInstance, match="^size must be an integer, got 'a'$"):
            TollVector("a", {}, set())
        with pytest.raises(InvalidInstance, match="^size must be nonnegative$"):
            TollVector(-1, {}, set())


class TestDiscreteTolls:
    def test_zero_cost_uses_unit_floor(self):
        x = from_strings(["10", "01"])
        toll = discrete_tolls(x, {0}, linear_cost([0, 0]), (0, 1))
        assert toll.gamma == {0: Fraction(1)}
        c = linear_cost([0, 0])
        assert tolled_cost(toll, c, (0, 1)) <= tolled_cost(toll, c, (1, 0))

    def test_gap_family_k1_long_path_enforced(self):
        from idsets.instances import gen_tight_gap_family

        inst = gen_tight_gap_family(1)
        x = paths_as_solutions(inst.graph, inst.st)
        length = linear_cost([1] * inst.graph.arc_count)
        marked = set(inst.metadata["marked_arcs"])
        long_path = max(x.vectors, key=sum)
        toll = discrete_tolls(x, marked, length, long_path)
        values = [tolled_cost(toll, length, v) for v in x.vectors]
        assert tolled_cost(toll, length, long_path) == min(values)

    def test_target_already_optimal_stays_optimal(self):
        x = from_strings(["10", "01"])
        c = linear_cost([1, 5])
        toll = discrete_tolls(x, {0}, c, (1, 0))
        assert tolled_cost(toll, c, (1, 0)) <= tolled_cost(toll, c, (0, 1))

    def test_not_identifying_raises(self):
        x = from_strings(["00", "01"])
        with pytest.raises(NotIdentifying):
            discrete_tolls(x, {0}, linear_cost([0, 0]), (0, 0))

    def test_target_not_in_x_raises(self):
        x = from_strings(["00", "01"])
        with pytest.raises(TargetNotInX):
            discrete_tolls(x, {1}, linear_cost([0, 0]), (1, 1))

    def test_a_mapping_target_is_refused(self):
        # It was read as its keys, and the target (0, 1) was tolled.
        x = SolutionList(2, [(1, 0), (0, 1)])
        with pytest.raises(InvalidInstance,
                           match="^each vector must be a sequence, not the mapping "):
            discrete_tolls(x, {0, 1}, linear_cost([0, 0]), {0: "a", 1: "b"})

    def test_cost_of_another_length_rejected(self):
        x = from_strings(["100", "010", "001"])
        with pytest.raises(InvalidInstance, match="^cost of dimension 1, point of dimension "):
            discrete_tolls(x, {0, 1, 2}, linear_cost([5]), (1, 0, 0))

    def test_fractional_target_rejected(self):
        # int(1/2) would read the target as 01, which is a solution.
        x = from_strings(["10", "01"])
        for target in ((Fraction(1, 2), 1), (0, "1"), (0, 2)):
            with pytest.raises(InvalidInstance):
                discrete_tolls(x, {0}, linear_cost([0, 0]), target)

    def test_margin_makes_target_unique(self):
        x = from_strings(["10", "01"])
        c = linear_cost([0, 0])
        toll = discrete_tolls(x, {0}, c, (0, 1), margin=1)
        other = tolled_cost(toll, c, (1, 0))
        assert tolled_cost(toll, c, (0, 1)) < other

    def test_negative_margin_rejected(self):
        # Under margin -5 the tolls would be {0: -4, 1: 4, 2: -4}: 001 would
        # cost -4 and the target 010 cost 4.
        x = from_strings(["010", "110", "001"])
        for margin in (-5, Fraction(-1, 2)):
            with pytest.raises(InvalidInstance, match="margin must be >= 0"):
                discrete_tolls(x, {0, 1, 2}, linear_cost([0, 0, 0]), (0, 1, 0), margin=margin)

    def test_ids_read_through_validate_ids(self):
        # True is the element id 1: the tolls and the support hold the int.
        x = from_strings(["10", "01"])
        toll = discrete_tolls(x, [True], linear_cost([0, 0]), (0, 1))
        assert toll.gamma == {1: Fraction(-1)} and toll.support == {1}
        assert {type(e) for e in (*toll.gamma, *toll.support)} == {int}

    def test_exhaustive_soundness_random_fixtures(self):
        rng = random.Random(79)
        margins = [0, Fraction(1, 2), 3]
        for _ in range(60):
            dim = rng.randint(1, 6)
            rows = {tuple(rng.randint(0, 1) for _ in range(dim))
                    for _ in range(rng.randint(1, 8))}
            x = SolutionList(dim, sorted(rows))
            s, _ = exact_identifying(x)
            cost = linear_cost([rng.randint(-4, 4) for _ in range(dim)],
                               constant=rng.randint(-2, 2))
            for target in x.vectors:
                margin = rng.choice(margins)
                toll = discrete_tolls(x, s, cost, target, margin)
                values = [tolled_cost(toll, cost, v) for v in x.vectors if v != target]
                value = tolled_cost(toll, cost, target)
                assert all(value <= other if margin == 0 else value < other
                           for other in values)


class TestConvexTolls:
    def test_parallel_quadratic_closed_form(self):
        toll = convex_tolls(PARALLEL, {0}, quadratic_cost([1, 1]),
                            [Fraction(3, 4), Fraction(1, 4)])
        assert toll.gamma == {0: Fraction(-1, 2)}

    def test_centre_needs_no_toll(self):
        toll = convex_tolls(PARALLEL, {0}, quadratic_cost([1, 1]),
                            [Fraction(1, 2), Fraction(1, 2)])
        assert toll.gamma == {0: Fraction(0)}

    def test_series_parallel_three_arcs(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        st = StPair(0, 2)
        basis = flow_polytope_basis(g, st)
        target = [Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)]
        toll = convex_tolls(basis, {2}, quadratic_cost([1, 1, 1]), target)
        assert toll.gamma == {2: Fraction(5, 4)}

    def test_not_identifying_raises(self):
        with pytest.raises(NotIdentifying):
            convex_tolls(PARALLEL, set(), quadratic_cost([1, 1]), [1, 0])

    def test_cost_of_another_length_rejected(self):
        # The subgradient ignored x, and sum(map(mul, d, diff)) cut the rows:
        # this returned {0: -1}.
        with pytest.raises(InvalidInstance, match="^cost of dimension 1, point of dimension "):
            convex_tolls(PARALLEL, {0}, linear_cost([1]), [1, 0])

    def test_subgradient_of_another_length_rejected(self):
        cost = CostOracle(evaluate=lambda x: Fraction(0), subgradient=lambda x: (1,))
        with pytest.raises(InvalidInstance, match="^subgradient of length 1, not 2$"):
            convex_tolls(PARALLEL, {0}, cost, [1, 0])

    def test_ids_read_through_validate_ids(self):
        toll = convex_tolls(PARALLEL, [True], quadratic_cost([1, 1]),
                            [Fraction(3, 4), Fraction(1, 4)])
        assert toll.gamma == {1: Fraction(1, 2)} and toll.support == {1}
        assert {type(e) for e in (*toll.gamma, *toll.support)} == {int}

    def test_target_outside_hull_raises(self):
        with pytest.raises(TargetOutsideAffineHull):
            convex_tolls(PARALLEL, {0}, quadratic_cost([1, 1]), [1, 1])

    def test_missing_subgradient_raises(self):
        blind = CostOracle(evaluate=lambda x: Fraction(0))
        with pytest.raises(NoSubgradient):
            convex_tolls(PARALLEL, {0}, blind, [1, 0])

    def test_zero_subgradient_certificate_exact(self):
        # tolled cost of the target never exceeds any polytope mixture's
        rng = random.Random(83)
        g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
        st = StPair(0, 3)
        basis = flow_polytope_basis(g, st)
        paths = enumerate_st_paths(g, st, cap=100)
        cost = quadratic_cost([1, 2, 1, 2, 3])
        # interior target: strict mixture of all paths
        weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        target = tuple(
            sum((w if a in p else Fraction(0)) for w, p in zip(weights, paths))
            for a in range(g.arc_count))
        from idsets.flows import min_weight_flow_identifying

        s = min_weight_flow_identifying(g, st).identifying_set
        toll = convex_tolls(basis, s, cost, target)
        target_value = tolled_cost(toll, cost, target)
        for _ in range(120):
            raw = [rng.randint(0, 6) for _ in paths]
            total = sum(raw) or 1
            mix = [Fraction(r, total) for r in raw]
            point = tuple(
                sum((m if a in p else Fraction(0)) for m, p in zip(mix, paths))
                for a in range(g.arc_count))
            assert tolled_cost(toll, cost, point) >= target_value


class TestConvexTollsOnIntegerRows:
    def test_matches_fraction_elimination(self):
        # Identifying and random S, targets in and off the hull, k = 0 included.
        outcomes = {"gamma": 0, "not identifying": 0, "outside": 0}
        for basis, rng in seeded_bases(400, 89):
            n = basis.ground_size
            if rng.random() < 0.6:
                s = set(min_weight_identifying_from_basis(basis))
                s |= {e for e in range(n) if rng.random() < 0.2}
            else:
                s = {e for e in range(n) if rng.random() < 0.5}
            target = hull_point(basis, rng)
            if rng.random() < 0.2:
                target = tuple(v + Fraction(1, 2) for v in target)
            quadratic = rng.random() < 0.5
            values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            # Resistances must be >= 0; the draws stay those of a signed cost.
            cost = quadratic_cost(list(map(abs, values))) if quadratic else linear_cost(values)
            kind, want = oracle_convex_tolls(basis, s, cost, target)
            outcomes[kind] += 1
            if kind == "not identifying":
                with pytest.raises(NotIdentifying) as err:
                    convex_tolls(basis, s, cost, target)
                assert err.value.witness == want
            elif kind == "outside":
                with pytest.raises(TargetOutsideAffineHull):
                    convex_tolls(basis, s, cost, target)
            else:
                toll = convex_tolls(basis, s, cost, target)
                assert toll.gamma == want and list(toll.gamma) == list(want)
                assert all(type(v) is Fraction for v in toll.gamma.values())
        assert outcomes["gamma"] >= 150 and min(outcomes.values()) >= 40, outcomes

    def test_zero_dimensional_basis_has_no_tolls(self):
        basis = AffineBasis([[1, 2, 3]])
        toll = convex_tolls(basis, {0, 2}, quadratic_cost([1, 1, 1]), [1, 2, 3])
        assert toll.gamma == {} and toll.support == {0, 2}


def _projected_gradient(basis: AffineBasis, cost, toll, start, steps=5_000):
    """Gradient descent in the affine parametrization (floats)."""
    diffs = [[float(v) for v in d] for d in differences(basis.points)]
    x0 = [float(v) for v in basis.points[0]]
    gamma = [float(v) for v in toll.as_vector()]
    lam = list(start)

    def point(l):
        return [x0[i] + sum(l[j] * diffs[j][i] for j in range(len(diffs)))
                for i in range(len(x0))]

    def value(l):
        p = point(l)
        return float(cost.evaluate(as_vector([Fraction(v).limit_denominator(10**9)
                                              for v in p]))) + sum(
            gi * pi for gi, pi in zip(gamma, p))

    step = 0.5
    for _ in range(steps):
        p = point(lam)
        grad_x = [float(v) for v in cost.subgradient(as_vector(
            [Fraction(v).limit_denominator(10**9) for v in p]))]
        full = [gx + gm for gx, gm in zip(grad_x, gamma)]
        grad_l = [sum(diffs[j][i] * full[i] for i in range(len(x0)))
                  for j in range(len(diffs))]
        if all(abs(g) < 1e-12 for g in grad_l):
            break
        trial = [l - step * g for l, g in zip(lam, grad_l)]
        while value(trial) > value(lam) and step > 1e-12:
            step /= 2
            trial = [l - step * g for l, g in zip(lam, grad_l)]
        lam = trial
    return point(lam)


class TestProjectedGradientVerification:
    @pytest.mark.parametrize("case", ["parallel", "series_parallel", "diamond"])
    def test_descent_reaches_target(self, case):
        if case == "parallel":
            g = Digraph(2, [(0, 1), (0, 1)])
            st = StPair(0, 1)
            resist = [1, 1]
            target = [Fraction(3, 4), Fraction(1, 4)]
        elif case == "series_parallel":
            g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
            st = StPair(0, 2)
            resist = [1, 1, 1]
            target = [Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)]
        else:
            g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
            st = StPair(0, 3)
            resist = [1, 2, 1, 2, 3]
            paths = enumerate_st_paths(g, st, cap=100)
            weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
            target = [
                sum((w if a in p else Fraction(0)) for w, p in zip(weights, paths))
                for a in range(g.arc_count)]
        from idsets.flows import min_weight_flow_identifying

        basis = flow_polytope_basis(g, st)
        cost = quadratic_cost(resist)
        s = min_weight_flow_identifying(g, st).identifying_set
        toll = convex_tolls(basis, s, cost, target)
        start = [0.0] * basis.hull_dimension
        final = _projected_gradient(basis, cost, toll, start)
        for got, want in zip(final, target):
            assert abs(got - float(want)) < 1e-6


def assert_certificate(states, s, costs, verdict: ControllingVerdict) -> None:
    """A negative verdict's lambda, checked in exact arithmetic: positive
    weights on states of the list summing to 1, equal to the failing target
    on S, and cheaper than it by `contradiction_rhs` > 0."""
    vectors = [as_vector(state) for state in states]
    target, cost = verdict.failing_target, costs[verdict.failing_cost]
    lam = dict(verdict.certificate)
    assert len(lam) == len(verdict.certificate) and set(lam) <= set(range(len(vectors)))
    assert all(w > 0 for w in lam.values()) and sum(lam.values()) == 1
    assert all(sum(w * vectors[i][e] for i, w in lam.items()) == target[e] for e in s)
    gap = cost.evaluate(target) - sum(w * cost.evaluate(vectors[i]) for i, w in lam.items())
    assert gap == verdict.contradiction_rhs > 0


def assert_matches_oracle(states, s, costs) -> ControllingVerdict:
    """The check's verdict, failing target and failing cost are elimination's,
    and a negative verdict carries a certificate that holds."""
    verdict = controlling_counterexample_check(states, s, costs)
    want = oracle_controlling_fm(states, s, costs)
    assert (verdict.controlling, verdict.failing_target, verdict.failing_cost) == (
        want.controlling, want.failing_target, want.failing_cost)
    if verdict.controlling:
        assert verdict == ControllingVerdict(controlling=True)
    else:
        assert_certificate(states, s, costs, verdict)
    return verdict


class TestCounterexampleCheck:
    def test_integer_lattice_regression(self):
        states = [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]
        verdict = controlling_counterexample_check(
            states, {2}, [linear_cost([1, -1, 1])])
        assert not verdict.controlling
        assert verdict.failing_target is not None
        assert verdict.contradiction_rhs > 0

    def test_binary_identifying_always_controlling(self):
        # The theorem, checked by elimination: on binary X an identifying S
        # admits tolls enforcing every target under every cost.
        rng = random.Random(89)
        for _ in range(25):
            dim = rng.randint(1, 4)
            rows = sorted({tuple(rng.randint(0, 1) for _ in range(dim))
                           for _ in range(rng.randint(1, 6))})
            x = SolutionList(dim, rows)
            s, _ = exact_identifying(x)
            costs = [linear_cost([rng.randint(-3, 3) for _ in range(dim)])
                     for _ in range(3)]
            assert oracle_controlling_fm(x.vectors, s, costs).controlling

    def test_verdicts_match_elimination_oracle(self):
        rng = random.Random(97)
        seen, compared, negative = set(), 0, 0
        for case in range(1500):
            kind = ("identifying", "not-identifying", "non-binary")[case % 3]
            dim = rng.randint(1, 5)
            values = (0, 1) if kind != "non-binary" else (0, 1, 2, -1, Fraction(1, 2))
            states = [tuple(rng.choice(values) for _ in range(dim))
                      for _ in range(rng.randint(1, 6))]
            states += [rng.choice(states) for _ in range(rng.randint(0, 2))]
            if kind == "non-binary":
                states[0] = (Fraction(1, 2),) + states[0][1:]
            s = frozenset(e for e in range(dim) if rng.random() < 0.5)
            if kind != "non-binary":
                x = SolutionList(dim, states)
                if kind == "identifying":
                    s |= exact_identifying(x)[0]
                if verify_explicit_identifying(x, s)[0] != (kind == "identifying"):
                    continue
            costs = [linear_cost([rng.randint(-3, 3) for _ in range(dim)])
                     for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                costs.append(quadratic_cost([rng.randint(0, 3) for _ in range(dim)]))
            verdict = assert_matches_oracle(states, s, costs)
            compared += 1
            negative += not verdict.controlling
            seen.add((kind, verdict.controlling, not s, len(set(states)) < len(states)))
        assert compared >= 1000 and negative >= 300
        assert {k[:2] for k in seen} >= {("identifying", True), ("not-identifying", False),
                                          ("non-binary", True), ("non-binary", False)}
        assert any(k[2] for k in seen) and any(k[3] for k in seen)

    @pytest.mark.parametrize("seed, controlling", [(1, True), (6, False)])
    def test_ten_dimensions_need_no_cap(self, seed, controlling):
        # Elimination refused |S| = 8: its variable cap was 6.
        rng = random.Random(seed)
        states = [tuple(rng.randint(0, 2) for _ in range(10)) for _ in range(40)]
        s = set(rng.sample(range(10), 8))
        costs = [linear_cost([rng.randint(-3, 3) for _ in range(10)])]
        verdict = controlling_counterexample_check(states, s, costs)
        assert verdict.controlling is controlling
        if not controlling:
            assert_certificate(states, s, costs, verdict)

    def test_binary_identifying_skips_elimination(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an LP ran")

        monkeypatch.setattr("idsets.tolls._cheapest_mixture", fail)
        states = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 1, 1)]
        verdict = controlling_counterexample_check(states, {0, 1},
                                                   [linear_cost([4, -7, 2])])
        assert verdict == ControllingVerdict(controlling=True)

    def test_binary_int_states_build_no_fraction(self, monkeypatch):
        # Exact 0/1 ints reach the shortcut as they are, with no as_vector call.
        def fail(*args):
            raise AssertionError("as_vector ran")

        costs = [linear_cost([4, -7, 2])]
        monkeypatch.setattr("idsets.tolls.as_vector", fail)
        states = [[0, 1, 1], (1, 0, 1), [1, 1, 0], (0, 1, 1)]
        verdict = controlling_counterexample_check(states, {0, 1}, costs)
        assert verdict == ControllingVerdict(controlling=True)

    @pytest.mark.parametrize("odd", [Fraction(1), True], ids=["fraction", "bool"])
    def test_other_binary_values_go_through_as_vector(self, monkeypatch, odd):
        # A Fraction or a bool equal to 0 or 1 is read by as_vector, then
        # takes the shortcut as before.
        read = []

        def spy(values):
            read.append(values)
            return as_vector(values)

        costs = [linear_cost([4, -7, 2])]
        monkeypatch.setattr("idsets.tolls.as_vector", spy)
        states = [(0, odd, 1), (1, 0, 1), (1, 1, 0)]
        verdict = controlling_counterexample_check(states, {0, 1}, costs)
        assert verdict == ControllingVerdict(controlling=True)
        assert states[0] in read

    def test_binary_ints_that_do_not_identify_run_the_lps(self):
        # S = {0} leaves (0, 1) and (0, 0) together: the LPs decide, on Fractions.
        states = [[0, 1], [0, 0], [1, 0]]
        verdict = assert_matches_oracle(states, {0}, [linear_cost([0, -1])])
        assert not verdict.controlling
        assert verdict.failing_target == (0, 0)
        assert all(type(v) is Fraction for v in verdict.failing_target)

    def test_half_is_not_read_as_zero(self):
        # int() would turn (1/2, 1) into (0, 1), a duplicate, and S = {} would
        # look identifying; an LP decides the fractional list instead.
        states = [(Fraction(1, 2), 1), (0, 1)]
        costs = [linear_cost([-1, 0])]
        verdict = assert_matches_oracle(states, set(), costs)
        assert not verdict.controlling

    @pytest.mark.parametrize("states, s, message", [
        ([(0, 0), (0, 1), (1, 1)], {-1}, "element id -1 out of range"),
        ([(0, 0), (0, 1)], {5}, "element id 5 out of range"),
        ([(0, 1), (1,)], {0}, "states must share one dimension"),
    ], ids=["negative-id", "id-past-dimension", "unequal-lengths"])
    def test_rejects_malformed_input(self, states, s, message):
        with pytest.raises(InvalidInstance, match=message):
            controlling_counterexample_check(states, s, [linear_cost([1, 1])])

    def test_single_state_controlling(self):
        verdict = controlling_counterexample_check([(1, 1)], set(),
                                                   [linear_cost([5, 5])])
        assert verdict.controlling

    def test_non_integer_id_rejected(self):
        with pytest.raises(InvalidInstance, match="^element ids must be integers"):
            controlling_counterexample_check([[0, 1], [1, 0]], [0, "a"],
                                             [linear_cost([0, 0])])

    def test_unhashable_id_rejected(self):
        with pytest.raises(InvalidInstance, match="^element ids must be integers: 'list' "):
            controlling_counterexample_check([[0, 1], [1, 0]], [[0]],
                                             [linear_cost([0, 0])])

    def test_state_that_is_not_a_sequence_rejected(self):
        with pytest.raises(InvalidInstance, match="'NoneType' object is not iterable"):
            controlling_counterexample_check([None], [0], [linear_cost([0])])

    def test_set_of_states_rejected(self):
        # A set would number the states, and so the certificate, in hash order.
        with pytest.raises(InvalidInstance, match="^states must be a sequence, not the set "):
            controlling_counterexample_check({(0,), (1,)}, [0], [linear_cost([0])])

    def test_set_of_costs_rejected(self):
        # A set would number the costs, and so failing_cost, in hash order.
        with pytest.raises(InvalidInstance, match="^costs must be a sequence, not the set "):
            controlling_counterexample_check([(0,), (2,)], [0], {linear_cost([1])})

    @pytest.mark.parametrize("states", [[(0,), (2,)], [(0,), (1,)]],
                             ids=["elimination", "binary-shortcut"])
    def test_cost_list_that_is_not_a_sequence_rejected(self, states):
        # Read once, before the binary shortcut, so both paths refuse it.
        with pytest.raises(InvalidInstance, match="^costs must be iterable: 'NoneType'"):
            controlling_counterexample_check(states, [0], None)


class TestFourierMotzkin:
    # The elimination in tests/helpers.py, the oracle of the controlling LPs.
    def test_feasible_box(self):
        rows = [((Fraction(1),), Fraction(0)), ((Fraction(-1),), Fraction(-5))]
        feasible, _ = fourier_motzkin_feasible(rows, 1)
        assert feasible

    def test_infeasible_pair(self):
        rows = [((Fraction(1),), Fraction(3)), ((Fraction(-1),), Fraction(-2))]
        feasible, rhs = fourier_motzkin_feasible(rows, 1)
        assert not feasible
        assert rhs > 0

    def test_two_variable_system(self):
        # y0 + y1 >= 2, -y0 >= -1, -y1 >= -1 forces y0 = y1 = 1
        rows = [((Fraction(1), Fraction(1)), Fraction(2)),
                ((Fraction(-1), Fraction(0)), Fraction(-1)),
                ((Fraction(0), Fraction(-1)), Fraction(-1))]
        feasible, _ = fourier_motzkin_feasible(rows, 2)
        assert feasible
        rows.append(((Fraction(1), Fraction(1)), Fraction(3)))
        feasible, _ = fourier_motzkin_feasible(rows, 2)
        assert not feasible


# ---------------------------------------------------------------- fuzzing

SCALARS = st_.one_of(st_.integers(-2, 3), st_.floats(), st_.booleans(), st_.text(max_size=3),
                     st_.none(), st_.fractions(-2, 2, max_denominator=3))
VALUES = st_.recursive(SCALARS, lambda inner: st_.lists(inner, max_size=3), max_leaves=5)


def mostly(valid):
    """Mostly the valid draw; otherwise malformed entries, a wrong length or
    any value at all."""
    malformed = st_.one_of(st_.lists(SCALARS, max_size=4), VALUES)
    return st_.integers(0, 7).flatmap(lambda k: valid if k else malformed)


def vectors(n: int, values=(0, 1, 2)):
    return mostly(st_.lists(st_.sampled_from(values), min_size=n, max_size=n))


def supports(n: int):
    return mostly(st_.one_of(st_.just(list(range(n))), st_.lists(st_.integers(0, n - 1))))


def draw_cost(data, n: int) -> CostOracle:
    if data.draw(st_.booleans()):
        return quadratic_cost(data.draw(vectors(n)))
    return linear_cost(data.draw(vectors(n)), data.draw(mostly(st_.just(0))))


def draw_target(data, rows, vector):
    """A member of the drawn rows half the time, when there are any."""
    if isinstance(rows, list) and rows and data.draw(st_.booleans()):
        return data.draw(st_.sampled_from(rows))
    return data.draw(vector)


def fuzz_cost(data, n):
    cost, point = draw_cost(data, n), data.draw(vectors(n))
    cost.evaluate(point)
    cost.subgradient(point)


def fuzz_toll_vector(data, n):
    gamma = st_.dictionaries(st_.integers(0, n - 1), mostly(st_.integers(-2, 2)), max_size=n)
    TollVector(data.draw(mostly(st_.just(n))), data.draw(mostly(gamma)),
               data.draw(supports(n))).as_vector()


def fuzz_discrete_tolls(data, n):
    rows = data.draw(mostly(st_.lists(vectors(n, (0, 1)), min_size=1, max_size=4)))
    x = SolutionList(data.draw(mostly(st_.just(n))), rows)
    discrete_tolls(x, data.draw(supports(n)), draw_cost(data, n),
                   draw_target(data, rows, vectors(n, (0, 1))), data.draw(mostly(st_.just(0))))


def fuzz_convex_tolls(data, n):
    points = data.draw(mostly(st_.lists(vectors(n), min_size=1, max_size=3)))
    convex_tolls(AffineBasis(points), data.draw(supports(n)), draw_cost(data, n),
                 draw_target(data, points, vectors(n)))


def fuzz_controlling_check(data, n):
    controlling_counterexample_check(
        data.draw(mostly(st_.lists(vectors(n), max_size=5))), data.draw(supports(n)),
        [draw_cost(data, n) for _ in range(data.draw(st_.integers(0, 2)))])


@settings(max_examples=300, deadline=None)
@given(data=st_.data())
def test_toll_callables_raise_only_library_errors(data):
    # The documented classes (cost oracles, SolutionList, AffineBasis, toll
    # vectors) built from malformed values, and malformed values passed
    # beside them: every refusal is an IdsetsError.
    call = data.draw(st_.sampled_from([fuzz_cost, fuzz_toll_vector, fuzz_discrete_tolls,
                                       fuzz_convex_tolls, fuzz_controlling_check]))
    try:
        call(data, data.draw(st_.integers(1, 3)))
    except IdsetsError:
        pass
