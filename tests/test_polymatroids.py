"""Polymatroid identifying sets: separability, dependence, witness exchanges."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from idsets.errors import CapExceeded, IdsetsError, InvalidInstance
from idsets.graphs import Digraph, UnionFind, WeightedGroundSet
from idsets.linear import AffineBasis, verify_identifying_from_basis
from idsets.matroids import (
    MatroidOracle,
    free_matroid,
    graphic_matroid,
    matroid_components,
    partition_matroid,
    uniform_matroid,
)
from idsets.polymatroids import (
    PolymatroidOracle,
    _greedy_deps,
    _Unchecked,
    min_weight_polymatroid_identifying,
    polymatroid_components,
    verify_polymatroid_identifying,
)

from .helpers import (
    NotABase,
    all_subsets,
    base_membership,
    dependence_function,
    greedy_base,
    oracle_polymatroid_axioms,
    oracle_polymatroid_components,
    oracle_rank,
    random_weights,
)


def truncation(n: int, k: int) -> PolymatroidOracle:
    return PolymatroidOracle(n, lambda t: Fraction(min(len(t), k)), name=f"trunc({k},{n})")


def table_fixtures() -> list[PolymatroidOracle]:
    fixtures = [
        truncation(3, 2),
        truncation(4, 2),
        truncation(2, 1),
        PolymatroidOracle(3, lambda t: Fraction(min(len(t & {0, 1}), 1) + len(t & {2})),
                          name="sep-pair-plus-free"),
        PolymatroidOracle(4, lambda t: Fraction(min(len(t & {0, 1}), 1))
                          + Fraction(min(len(t & {2, 3}), 1)), name="two-pairs"),
        PolymatroidOracle.coverage(3, [{0, 1}, {1, 2}, {3}]),
        PolymatroidOracle.budget_additive(Fraction(5, 2), [1, 2, Fraction(1, 2)]),
        PolymatroidOracle.from_matroid(graphic_matroid(
            Digraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))),
        PolymatroidOracle(1, lambda t: Fraction(3 * len(t)), name="scaled-single"),
        PolymatroidOracle(5, lambda t: Fraction(min(len(t & {0, 1, 2}), 2))
                          + Fraction(min(len(t & {3, 4}), 1)), name="trunc-pair"),
        PolymatroidOracle.coverage(6, [{0}, {0, 1}, {2}, {3}, {3, 4}, {5}]),
    ]
    return fixtures


def random_closed_form(rng: random.Random, n: int) -> PolymatroidOracle:
    """A coverage function (sets of up to 3 items out of 2n + 1) or a
    budget-additive function on n elements, zero gains and empty sets
    included."""
    if rng.random() < 0.5:
        items = range(2 * n + 1)
        return PolymatroidOracle.coverage(n, [rng.sample(items, rng.randint(0, 3))
                                              for _ in range(n)])
    gains = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
    return PolymatroidOracle.budget_additive(Fraction(rng.randint(0, 4 * n), rng.randint(1, 2)),
                                             gains)


def seeded_polymatroids(count: int, seed: int, max_size: int = 8):
    """Seeded polymatroids on 1 to max_size + 1 elements, cycling through five kinds:
    coverage or budget-additive, the sum of two of those, a direct sum of two
    on shuffled element ids, a matroid rank (graphic multigraph, uniform or
    partition), and a table of a sum of capped modular terms."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_size)
        kind = i % 5
        if kind == 0:
            yield random_closed_form(rng, n)
        elif kind == 1:
            a, b = random_closed_form(rng, n), random_closed_form(rng, n)
            yield PolymatroidOracle(n, lambda t, a=a, b=b: a.value(t) + b.value(t), name="sum")
        elif kind == 2:
            ids = rng.sample(range(n + 1), n + 1)
            cut = rng.randint(1, n)
            blocks = (ids[:cut], ids[cut:])
            a, b = (random_closed_form(rng, len(block)) for block in blocks)

            def value(t, a=a, b=b, blocks=blocks):
                return sum((g.value(i for i, e in enumerate(block) if e in t)
                            for g, block in zip((a, b), blocks)), Fraction(0))

            yield PolymatroidOracle(n + 1, value, name="direct-sum")
        elif kind == 3:
            choice = rng.randrange(3)
            if choice == 0:
                nodes = rng.randint(1, 5)
                m = graphic_matroid(Digraph(nodes, [(rng.randrange(nodes), rng.randrange(nodes))
                                                    for _ in range(n)]))
            elif choice == 1:
                m = uniform_matroid(rng.randint(0, n), n)
            else:
                ids = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
                blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
                m = partition_matroid(blocks, [rng.randint(0, len(b)) for b in blocks])
            yield PolymatroidOracle.from_matroid(m)
        else:
            terms = [(Fraction(rng.randint(0, 3 * n), rng.randint(1, 2)),
                      [Fraction(rng.randint(0, 3), rng.randint(1, 2)) if rng.random() < 0.6
                       else Fraction(0) for _ in range(n)])
                     for _ in range(rng.randint(1, 3))]
            yield PolymatroidOracle.from_table(n, {
                t: sum((min(cap, sum((gains[e] for e in t), Fraction(0)))
                        for cap, gains in terms), Fraction(0))
                for t in all_subsets(range(n))})


def assert_swap_witness(f: PolymatroidOracle, s: frozenset[int], witness,
                        is_base=lambda f, y: base_membership(f, y)[0]) -> None:
    """Both points are bases, they agree on S and differ, and
    base_b - base_a = epsilon * (χ_e' - χ_e) for the two least ids e < e' of
    the witness's component outside S."""
    assert is_base(f, witness.base_a) and is_base(f, witness.base_b), (f.name, sorted(s))
    assert witness.base_a != witness.base_b
    assert all(witness.base_a[g] == witness.base_b[g] for g in s)
    e, e_prime = sorted(witness.component - s)[:2]
    expected = [0] * f.ground_size
    expected[e], expected[e_prime] = -witness.epsilon, witness.epsilon
    assert [b - a for a, b in zip(witness.base_a, witness.base_b)] == expected
    assert witness.epsilon > 0


def polytope_vertices(f: PolymatroidOracle) -> list[tuple[Fraction, ...]]:
    return sorted({greedy_base(f, perm) for perm in permutations(range(f.ground_size))})


def affine_basis_of_polytope(f: PolymatroidOracle) -> AffineBasis:
    vertices = polytope_vertices(f)
    chosen = [vertices[0]]
    for v in vertices[1:]:
        candidate = chosen + [v]
        diffs = [[a - b for a, b in zip(p, candidate[0])] for p in candidate[1:]]
        if oracle_rank(diffs) == len(diffs):
            chosen = candidate
    return AffineBasis(chosen)


class TestOracleValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInstance):
            PolymatroidOracle(2, lambda t: Fraction(1))

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidInstance):
            PolymatroidOracle(2, lambda t: Fraction(len(t) % 2))

    def test_rejects_non_submodular(self):
        with pytest.raises(InvalidInstance):
            PolymatroidOracle(2, lambda t: Fraction(len(t) ** 2))

    def test_no_argument_skips_the_sweep(self):
        with pytest.raises(TypeError, match="validate"):
            PolymatroidOracle(2, lambda t: Fraction(len(t) ** 2), validate=False)

    def test_closed_forms_skip_the_sweep(self):
        # Polymatroids by theorem: construction asks the oracle nothing.
        f = PolymatroidOracle.coverage(3, [{0}, {0, 1}, {2}])
        g = PolymatroidOracle.budget_additive(2, [1, 1, 1])
        assert (f._cache, g._cache) == ({}, {})

    def test_matches_axiom_oracle(self):
        rng = random.Random(606)
        outcomes = {}
        for _ in range(320):
            n = rng.randint(1, 6)
            gains = random_weights(rng, n, max_num=6)
            cap = Fraction(rng.randint(0, 12), rng.randint(1, 3))
            table = {t: min(cap, sum(gains[e] for e in t)) for t in all_subsets(range(n))}
            for _ in range(rng.choice([0, 1, 1, 2])):
                t = rng.choice(list(table))
                table[t] += Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.randint(1, 4))
            expected = oracle_polymatroid_axioms(_Unchecked(n, table.__getitem__))
            try:
                PolymatroidOracle.from_table(n, table)
                got = None
            except InvalidInstance as exc:
                got = str(exc)
            assert got == expected, table
            outcomes[expected] = outcomes.get(expected, 0) + 1
        assert len(outcomes) == 4, outcomes

    def test_tables_beyond_the_limit_match_axiom_oracle(self):
        # A table is swept at every size. min(cap, Σ gains) is a polymatroid
        # by theorem and builds; after one value moves, the sweep reports the
        # first violation the Fraction oracle meets, as it does up to 12.
        rng = random.Random(1313)
        for n in (13, 14):
            gains = [rng.randint(0, 6) for _ in range(n)]
            cap = rng.randint(10, 30)
            table = {t: min(cap, sum(gains[e] for e in t)) for t in all_subsets(range(n))}
            PolymatroidOracle.from_table(n, table)
            table[rng.choice(list(table))] += Fraction(rng.choice([-2, -1, 1, 2]), 3)
            expected = oracle_polymatroid_axioms(_Unchecked(n, table.__getitem__))
            assert expected is not None
            with pytest.raises(InvalidInstance) as refused:
                PolymatroidOracle.from_table(n, table)
            assert str(refused.value) == expected

    def test_callables_beyond_the_limit_are_trusted_but_normalized(self):
        # Not submodular: refused on 12 elements, built on 13, where a
        # callable is checked only for f({}) = 0.
        with pytest.raises(InvalidInstance, match="must be submodular"):
            PolymatroidOracle(12, lambda t: Fraction(len(t) ** 2))
        PolymatroidOracle(13, lambda t: Fraction(len(t) ** 2))
        with pytest.raises(InvalidInstance, match="must be normalized"):
            PolymatroidOracle(13, lambda t: Fraction(1))

    def test_table_over_no_elements(self):
        f = PolymatroidOracle.from_table(0, {frozenset(): 0})
        assert f.ground_size == 0 and polymatroid_components(f) == ()

    def test_table_roundtrip(self):
        table = {frozenset(): Fraction(0), frozenset({0}): Fraction(1),
                 frozenset({1}): Fraction(1), frozenset({0, 1}): Fraction(1)}
        f = PolymatroidOracle.from_table(2, table)
        assert f.value({0, 1}) == 1

    def test_rejects_floats(self):
        # A float is a binary rational: 0.1 is not 1/10, so none enters an answer.
        half = Fraction(1, 2)
        for build in (
            lambda: PolymatroidOracle.budget_additive(0.5, [half, half]),
            lambda: PolymatroidOracle.budget_additive(1, [0.25, half]),
            lambda: PolymatroidOracle.from_table(1, {frozenset(): 0, frozenset({0}): 0.5}),
            lambda: PolymatroidOracle(2, lambda t: 0.5 * len(t)),
        ):
            with pytest.raises(InvalidInstance, match="floats are not exact"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: PolymatroidOracle(2.0, lambda t: Fraction(len(t))),
        lambda: PolymatroidOracle(-1, lambda t: Fraction(0)),
        lambda: PolymatroidOracle.coverage(2.0, [[0], [1]]),
        lambda: PolymatroidOracle.from_table(1.0, {frozenset(): 0, frozenset({0}): 1}),
    ], ids=["float", "negative", "coverage-float", "table-float"])
    def test_ground_size_is_a_count(self, build):
        with pytest.raises(InvalidInstance, match="^ground_size must be"):
            build()

    def test_value_must_be_callable(self):
        with pytest.raises(InvalidInstance, match="^value must be callable, got Fraction"):
            PolymatroidOracle(True, Fraction(1, 2))

    @pytest.mark.parametrize("build, message", [
        (lambda: PolymatroidOracle.coverage(2, [[0], 5]), "covered sets must be iterables"),
        (lambda: PolymatroidOracle.coverage(2, None), "covered sets must be iterable: "),
        # A string, mapping or set was read one item per element: "ab" built
        # two elements of value 1.
        (lambda: PolymatroidOracle.coverage(2, "ab"),
         "covered sets must be a sequence, not the string 'ab'$"),
        (lambda: PolymatroidOracle.coverage(2, b"ab"),
         "covered sets must be a sequence, not the byte string b'ab'$"),
        (lambda: PolymatroidOracle.coverage(2, {"x": 1, "y": 2}),
         "covered sets must be a sequence, not the mapping "),
        (lambda: PolymatroidOracle.coverage(2, {frozenset({0}), frozenset({1})}),
         "covered sets must be a sequence, not the set "),
        (lambda: PolymatroidOracle.budget_additive(1, None), "a vector must be iterable"),
        (lambda: PolymatroidOracle.budget_additive(1, 5), "a vector must be iterable"),
        (lambda: PolymatroidOracle.from_table(2, None), "table must map subsets to values"),
        (lambda: PolymatroidOracle.from_table(1, [1, 2]), "table must map subsets to values"),
    ], ids=["coverage-int-set", "coverage-none", "coverage-string", "coverage-bytes",
            "coverage-mapping", "coverage-set", "budget-none", "budget-int",
            "table-none", "table-list"])
    def test_families_refuse_what_they_cannot_read(self, build, message):
        with pytest.raises(InvalidInstance, match=f"^{message}"):
            build()

    def test_coverage_needs_one_set_per_element(self):
        with pytest.raises(InvalidInstance, match="^one covered set per element required$"):
            PolymatroidOracle.coverage(3, [[0], [1]])

    @pytest.mark.parametrize("cap, gains", [(-1, [1, 2]), (1, [1, -2])],
                             ids=["negative-cap", "negative-gain"])
    def test_budget_additive_refuses_negative_parameters(self, cap, gains):
        with pytest.raises(InvalidInstance,
                           match="^budget-additive needs nonnegative parameters$"):
            PolymatroidOracle.budget_additive(cap, gains)

    def test_budget_additive_refuses_string_gains(self):
        # "12" would otherwise read as the gains 1 and 2.
        with pytest.raises(InvalidInstance,
                           match="^not an exact rational vector: '12' is a string$"):
            PolymatroidOracle.budget_additive(1, "12")

    def test_table_keys_outside_ground_rejected(self):
        table = {frozenset(): 0, frozenset({0}): 1, frozenset({5}): 1, frozenset({0, 1}): 1}
        with pytest.raises(InvalidInstance, match="subsets of 0..size-1"):
            PolymatroidOracle.from_table(2, table)


class TestBaseMembership:
    def test_split_point_in(self):
        f = truncation(2, 1)
        ok, _ = base_membership(f, [Fraction(1, 2), Fraction(1, 2)])
        assert ok

    def test_all_ones_violates(self):
        f = truncation(2, 1)
        ok, violated = base_membership(f, [1, 1])
        assert not ok
        assert violated == {0, 1}

    def test_free_unique_base(self):
        f = PolymatroidOracle(3, lambda t: Fraction(len(t)), name="free")
        ok, _ = base_membership(f, [1, 1, 1])
        assert ok
        ok2, _ = base_membership(f, [1, 1, 0])
        assert not ok2

    def test_negative_coordinate(self):
        ok, violated = base_membership(truncation(2, 1), [Fraction(3, 2), Fraction(-1, 2)])
        assert not ok
        assert violated == {1}

    def test_cap(self):
        with pytest.raises(CapExceeded, match=r"^max_elements = 2 \(base_membership\): "
                                              "ground size 3$"):
            base_membership(truncation(3, 2), [1, 1, 0], max_elements=2)


class TestComponents:
    def test_separable_pair(self):
        f = PolymatroidOracle(3, lambda t: Fraction(min(len(t & {0, 1}), 1) + min(len(t & {2}), 1)),
                              name="sep")
        comps = polymatroid_components(f)
        assert comps == (frozenset({0, 1}), frozenset({2}))
        ground = frozenset(range(3))
        for part in comps:
            assert f.value(part) + f.value(ground - part) == f.value(ground)

    def test_truncation_connected(self):
        comps = polymatroid_components(truncation(3, 2))
        assert comps == (frozenset({0, 1, 2}),)

    def test_empty_ground_has_no_components(self):
        assert polymatroid_components(PolymatroidOracle(0, lambda t: Fraction(0))) == ()

    def test_free_all_singletons(self):
        f = PolymatroidOracle(3, lambda t: Fraction(len(t)), name="free")
        comps = polymatroid_components(f)
        assert len(comps) == 3

    def test_certificates_are_exact_splits(self):
        for f in table_fixtures():
            ground = frozenset(range(f.ground_size))
            for part in polymatroid_components(f):
                assert f.value(part) + f.value(ground - part) == f.value(ground)

    def test_split_order_does_not_matter(self):
        # alternative splitter: take the LAST valid split at every level
        def components_last_split(f: PolymatroidOracle) -> set[frozenset[int]]:
            final: set[frozenset[int]] = set()
            stack = [frozenset(range(f.ground_size))]
            while stack:
                ground = stack.pop()
                found = None
                for t in all_subsets(ground):
                    if 0 < len(t) < len(ground) and min(t, default=-1) == min(ground):
                        if f.value(t) + f.value(ground - t) == f.value(ground):
                            found = t  # keep scanning: use the last one
                if found is None:
                    final.add(ground)
                else:
                    stack.extend([found, ground - found])
            return final

        for f in table_fixtures():
            expected = set(polymatroid_components(f))
            assert components_last_split(f) == expected

    def test_additivity_over_components(self):
        for f in table_fixtures():
            parts = polymatroid_components(f)
            for t in all_subsets(range(f.ground_size)):
                assert f.value(t) == sum(
                    (f.value(t & p) for p in parts), Fraction(0))

    def test_matroid_rank_components_agree(self):
        matroid_list = [
            graphic_matroid(Digraph(3, [(0, 1), (1, 2), (0, 2)])),
            graphic_matroid(Digraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])),
            graphic_matroid(Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
            uniform_matroid(2, 4),
            uniform_matroid(1, 3),
            partition_matroid([[0, 1], [2, 3]], [1, 1]),
            free_matroid(4),
        ]
        for m in matroid_list:
            # The generic path: from_matroid would read m's components.
            f = PolymatroidOracle(m.ground_size, lambda t, m=m: Fraction(m.rank(t)))
            assert polymatroid_components(f) == matroid_components(m)


class TestComponentsFromOneBase:
    # sha256 of the partitions below, one JSON line each, recorded with the
    # recursive split scan that the greedy-base components replaced.
    DIGEST = "6abdc18020342fd542ac7306c8e719b65c82999e6db99b0fba6a6da7c5e1c8da"

    def test_matches_split_oracle(self):
        for f in seeded_polymatroids(600, 1100):
            components = polymatroid_components(f)
            assert components == oracle_polymatroid_components(f), f.name
            ground = frozenset(range(f.ground_size))
            for part in components:
                assert f.value(part) + f.value(ground - part) == f.value(ground)

    def test_partitions_are_pinned(self):
        digest = hashlib.sha256()
        for f in seeded_polymatroids(600, 1100):
            parts = polymatroid_components(f)
            digest.update(f"{json.dumps([sorted(p) for p in parts])}\n".encode())
        assert digest.hexdigest() == self.DIGEST

    def test_quadratic_oracle_calls(self):
        n, asked = 30, set()

        def value(t: frozenset[int]) -> Fraction:
            asked.add(t)
            return Fraction(min(len(t & {0, 1, 2}), 2) + len(t - {0, 1, 2}))

        f = _Unchecked(n, value)
        assert polymatroid_components(f) == (
            (frozenset({0, 1, 2}),) + tuple(frozenset({e}) for e in range(3, n)))
        assert len(asked) <= n * (n + 1) // 2 + 1

    def test_closed_form_families_are_polymatroids(self):
        # They skip the axiom sweep on construction; the theorem is checked here.
        rng = random.Random(1200)
        for _ in range(300):
            f = random_closed_form(rng, rng.randint(1, 8))
            assert oracle_polymatroid_axioms(f) is None, f.name


class TestDependence:
    def test_symmetric_pair(self):
        f = truncation(2, 1)
        x = (Fraction(1, 2), Fraction(1, 2))
        assert dependence_function(f, x, 0) == {0, 1}

    def test_free_is_rigid(self):
        f = PolymatroidOracle(3, lambda t: Fraction(len(t)), name="free")
        for e in range(3):
            assert dependence_function(f, (1, 1, 1), e) == {e}

    def test_triangle_interior(self):
        m = graphic_matroid(Digraph(3, [(0, 1), (1, 2), (0, 2)]))
        f = PolymatroidOracle.from_matroid(m)
        x = (Fraction(2, 3),) * 3
        for e in range(3):
            assert dependence_function(f, x, e) == {0, 1, 2}

    def test_rejects_non_base(self):
        with pytest.raises(NotABase):
            dependence_function(truncation(2, 1), (1, 1), 0)

    def test_dependence_graph_components_match(self):
        for f in table_fixtures():
            if f.ground_size > 5:
                continue
            # The all-orderings average of the greedy bases: interior to
            # every tight set that crosses a component.
            orders = list(permutations(range(f.ground_size)))
            x = tuple(sum(coords, Fraction(0)) / len(orders)
                      for coords in zip(*(greedy_base(f, order) for order in orders)))
            uf = UnionFind(f.ground_size)
            for e in range(f.ground_size):
                for e2 in dependence_function(f, x, e):
                    uf.union(e, e2)
            assert uf.parts() == polymatroid_components(f)


class TestMinWeight:
    def test_truncation_unit(self):
        s, _ = min_weight_polymatroid_identifying(truncation(3, 2))
        assert len(s) == 2

    def test_free_empty(self):
        f = PolymatroidOracle(3, lambda t: Fraction(len(t)), name="free")
        s, _ = min_weight_polymatroid_identifying(f)
        assert s == frozenset()

    def test_separable_weighted(self):
        f = PolymatroidOracle(3, lambda t: Fraction(min(len(t & {0, 1}), 1) + min(len(t & {2}), 1)),
                              name="sep")
        s, _ = min_weight_polymatroid_identifying(f, WeightedGroundSet([1, 5, 7]))
        assert s == {0}


class TestVerify:
    def test_truncation_single_false_with_witness(self):
        ok, witness = verify_polymatroid_identifying(truncation(3, 2), {0})
        assert not ok
        assert witness.base_a != witness.base_b
        for e in {0}:
            assert witness.base_a[e] == witness.base_b[e]
        for base in (witness.base_a, witness.base_b):
            member, _ = base_membership(truncation(3, 2), base)
            assert member

    def test_truncation_pair_true(self):
        ok, _ = verify_polymatroid_identifying(truncation(3, 2), {0, 1})
        assert ok

    def test_full_set_true(self):
        for f in table_fixtures():
            ok, _ = verify_polymatroid_identifying(f, set(range(f.ground_size)))
            assert ok

    def test_three_element_witness(self):
        # Greedy in id order: x = (1, 3/2, 0), dep(1) = {0, 1}, dep(2) = {0, 1, 2},
        # so 0 ⋖ 1 ⋖ 2. S = {0} misses e = 1 and e' = 2, one forward cover:
        # α = f({0, 2}) - x(0) - x(2) = 3/2 - 1 = 1/2, and t = α.
        f = PolymatroidOracle.budget_additive(Fraction(5, 2), [1, 2, Fraction(1, 2)])
        ok, witness = verify_polymatroid_identifying(f, {0})
        assert not ok and witness.component == {0, 1, 2}
        assert_swap_witness(f, frozenset({0}), witness)
        assert witness.base_a == (1, Fraction(3, 2), 0)
        assert witness.base_b == (1, 1, Fraction(1, 2)) and witness.epsilon == Fraction(1, 2)

    def test_witness_beyond_max_ground(self):
        # 26 elements, component {0, 1}. Greedy in id order gives
        # x = (1, 0, 1, ...), and dep(1) = {0, 1} since f({1}) = 1 != x(1), so
        # 0 ⋖ 1. The path from e = 0 to e' = 1 is that one forward cover, with
        # α = f({1}) - x(1) = 1 = t: base_a = x and base_b = x + (χ_1 - χ_0).
        f = PolymatroidOracle.coverage(26, [{0}, {0}] + [{e} for e in range(1, 25)])
        ok, witness = verify_polymatroid_identifying(f, set(range(2, 26)))
        assert not ok and witness.component == {0, 1}
        assert witness.base_a[:3] == (1, 0, 1)
        assert witness.base_b[:3] == (0, 1, 1) and witness.epsilon == 1

    def test_inconsistent_oracle_raises_invalid_instance(self):
        # Not submodular (f({0, 1}) + f({1, 2}) < f({0, 1, 2}) + f({1})), but a
        # callable over 13 elements is trusted beyond f({}) = 0.
        f = PolymatroidOracle(13, lambda t: Fraction(1 if t == {0, 1} else len(t)))
        for s in (set(), set(range(2, 13)), set(range(3, 13)), {0}, {1}, {2}):
            try:
                ok, witness = verify_polymatroid_identifying(f, s)
            except IdsetsError:
                continue
            assert ok or witness.epsilon > 0
        # x = (1, 0, 2, 1, ...) and 1 ⋖ 2; the swap would give α = f({2}) - x(2) = -1.
        with pytest.raises(InvalidInstance, match="^inconsistent oracle: swapping 1 and 2 "
                                                  "in the greedy order gives a step of -1$"):
            verify_polymatroid_identifying(f, {0})

    def test_zero_swap_step_raises_invalid_instance(self):
        # Not submodular (f({0}) + f({1}) < f({0, 1})); with S = {0} the
        # swap of 1 and 2 in the greedy order moves nothing.
        values = {(): 0, (0,): 2, (1,): 0, (2,): 1, (3,): 0, (0, 1): 3, (0, 2): 1,
                  (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 2, (0, 1, 2): 4, (0, 1, 3): 4,
                  (0, 2, 3): 2, (1, 2, 3): 2, (0, 1, 2, 3): 5}
        f = _Unchecked(4, {frozenset(t): Fraction(v) for t, v in values.items()}.__getitem__)
        with pytest.raises(InvalidInstance, match="^inconsistent oracle: swapping 1 and 2 "
                                                  "in the greedy order gives a step of 0$"):
            verify_polymatroid_identifying(f, {0})

    def test_rejects_out_of_range_ids(self):
        for s in ({0, 1, 99}, {-1}):
            with pytest.raises(InvalidInstance):
                verify_polymatroid_identifying(truncation(3, 1), s)

    def test_witness_validity_everywhere(self):
        for f in table_fixtures():
            if f.ground_size > 5:
                continue
            for s in all_subsets(range(f.ground_size)):
                ok, witness = verify_polymatroid_identifying(f, s)
                if not ok:
                    assert_swap_witness(f, s, witness)


class TestSwapWitness:
    def test_valid_on_seeded_polymatroids(self):
        # Per polymatroid: a random S, and S = all but two ids of its largest
        # component, which is negative whenever that component has two. Over
        # half of the seeded polymatroids have no such component.
        rng = random.Random(2700)
        negative = checked = 0
        for f in seeded_polymatroids(2400, 2701, max_size=5):
            largest = max(polymatroid_components(f), key=len)
            ground = frozenset(range(f.ground_size))
            for s in (frozenset(e for e in ground if rng.random() < 0.5),
                      ground - frozenset(rng.sample(sorted(largest), min(2, len(largest))))):
                ok, witness = verify_polymatroid_identifying(f, s)
                if not ok:
                    assert_swap_witness(f, s, witness)
                    negative += 1
            checked += len(largest) > 1
        assert checked >= 1000 and negative >= 1200

    def test_budget_additive_forty_elements(self):
        # y is a base of min(cap, g(T)) exactly when 0 <= y <= g and
        # y(E) = min(cap, g(E)): monotonicity gives y >= 0, and then
        # y(T) <= y(E) <= cap. Fewer than n² oracle values stand in for a
        # time bound: the greedy pass takes n(n+1)/2 of them, each swap one.
        rng = random.Random(2702)
        n = 40
        for _ in range(5):
            gains = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(n)]
            cap = Fraction(n, 2)
            f = PolymatroidOracle.budget_additive(cap, gains)
            s = frozenset(range(n)) - frozenset(rng.sample(range(n), 2))
            ok, witness = verify_polymatroid_identifying(f, s)
            assert not ok and witness.component == frozenset(range(n))

            def is_base(f, y):
                return (all(0 <= y[e] <= gains[e] for e in range(n))
                        and sum(y) == min(cap, sum(gains)))

            assert_swap_witness(f, s, witness, is_base)
            assert len(f._cache) < n * n


def fraction_path_twin(rng: random.Random, n: int):
    """A trusted closed form on n elements and the same function written in
    Fractions as a plain `_Unchecked`, which has no `_scaled` hook: coverage
    (empty sets included) or budget-additive (zero gains, cap 0 included)."""
    if rng.random() < 0.5:
        covered = [frozenset(rng.sample(range(2 * n + 1), rng.randint(0, 3))) for _ in range(n)]
        return PolymatroidOracle.coverage(n, covered), _Unchecked(
            n, lambda t: Fraction(len(frozenset().union(*(covered[e] for e in t)))))
    gains = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) if rng.random() < 0.8
             else Fraction(0) for _ in range(n)]
    cap = Fraction(rng.randint(0, 4 * n), rng.randint(1, 3)) if rng.random() < 0.9 else 0
    return PolymatroidOracle.budget_additive(cap, gains), _Unchecked(
        n, lambda t: min(cap, sum((gains[e] for e in t), Fraction(0))))


class TestScaledIntegers:
    def test_trusted_families_match_the_fraction_path(self):
        # Same x, dep sets, components, verdicts and witnesses whether the
        # greedy base reads the integers or the Fractions.
        rng = random.Random(2800)
        scaled = negative = 0
        for _ in range(1000):
            n = rng.randint(0, 14)
            f, twin = fraction_path_twin(rng, n)
            assert twin._scaled is None and f._scaled is not None
            x, deps, parts = _greedy_deps(f)
            assert all(type(v) is int for v in x)
            assert ([Fraction(v, f._scale) for v in x], deps, parts) == _greedy_deps(twin)
            largest = max(parts, key=len, default=frozenset())
            ground = frozenset(range(n))
            for s in (frozenset(e for e in ground if rng.random() < 0.5),
                      ground - frozenset(rng.sample(sorted(largest), min(2, len(largest))))):
                got = verify_polymatroid_identifying(f, s)
                assert got == verify_polymatroid_identifying(twin, s), (f.name, n, sorted(s))
                negative += not got[0]
            scaled += f._scale > 1
        assert scaled >= 300 and negative >= 500

    def test_scaled_is_value_times_scale(self):
        rng = random.Random(2801)
        for _ in range(200):
            n = rng.randint(0, 8)
            f, twin = fraction_path_twin(rng, n)
            for t in all_subsets(range(n)):
                got = f._scaled(t)
                assert type(got) is int
                assert got == f.value(t) * f._scale == twin.value(t) * f._scale

    def test_trusted_components_leave_the_memo_empty(self):
        rng = random.Random(2802)
        for _ in range(50):
            f, twin = fraction_path_twin(rng, rng.randint(1, 10))
            assert polymatroid_components(f) == polymatroid_components(twin)
            assert f._cache == {} and len(twin._cache) > 1


class TestComponentsByTheorem:
    """Coverage and budget-additive components by theorem against the dep
    sets of the greedy base, which the hook bypasses."""

    def test_closed_forms_equal_the_greedy(self):
        rng = random.Random(3200)
        loops = connected = cap_zero = 0
        for _ in range(1000):
            n = rng.randint(0, 14)
            f, twin = fraction_path_twin(rng, n)
            parts = polymatroid_components(f)
            assert parts == _greedy_deps(f)[2] == _greedy_deps(twin)[2], f.name
            loops += any(f.value({e}) == 0 for e in range(n))
            connected += any(len(part) > 1 for part in parts)
            cap_zero += n > 0 and f.value(range(n)) == 0
        assert loops >= 300 and connected >= 500 and cap_zero >= 30

    def test_components_ask_nothing(self):
        def refuse(t):
            raise AssertionError(f"_scaled({sorted(t)}) asked")

        rng = random.Random(3201)
        for _ in range(100):
            f, _ = fraction_path_twin(rng, rng.randint(1, 10))
            f._scaled = refuse
            polymatroid_components(f)
            assert f._cache == {}, f.name

    def test_positive_verdict_asks_nothing(self):
        # The components decide the verdict; only a witness runs the greedy.
        def refuse(t):
            raise AssertionError(f"_scaled({sorted(t)}) asked")

        rng = random.Random(3202)
        for _ in range(100):
            f, _ = fraction_path_twin(rng, rng.randint(1, 10))
            f._scaled = refuse
            s = set(range(f.ground_size)) - {min(p) for p in polymatroid_components(f)}
            assert verify_polymatroid_identifying(f, s) == (True, None), f.name
            assert f._cache == {}, f.name

    def test_custom_oracle_asks_no_new_value(self):
        # The verdict's greedy and the witness's share the memo: n(n+1)/2 + 1
        # values, plus one per swap of the witness.
        def value(t):
            return Fraction(min(len(t & {0, 1, 2, 3, 4}), 2) + min(len(t & {7, 9, 11}), 1)
                            + len(t - {0, 1, 2, 3, 4, 7, 9, 11}))

        for s, verdict, asked in [(set(), False, 211), ({0, 1, 2, 3}, False, 212),
                                  (set(range(20)) - {9, 11}, False, 213),
                                  (set(range(20)) - {3}, True, 211)]:
            f = _Unchecked(20, value)
            assert verify_polymatroid_identifying(f, s)[0] == verdict
            assert len(f._cache) == asked, sorted(s)

    def test_only_closed_forms_set_the_hook(self):
        assert PolymatroidOracle.coverage(2, [{0}, {0}])._components is not None
        assert PolymatroidOracle.budget_additive(1, [1, 1])._components is not None
        for f in (truncation(3, 2),
                  PolymatroidOracle.from_table(1, {frozenset(): 0, frozenset({0}): 1}),
                  *(PolymatroidOracle(m.ground_size, lambda t, m=m: Fraction(m.rank(t)))
                    for m in (uniform_matroid(1, 2),
                              graphic_matroid(Digraph(2, [(0, 1)] * 2))))):
            assert f._components is None, f.name


class TestRankOfBuiltinMatroid:
    """`from_matroid` of a built-in matroid is trusted: no axiom sweep, the
    matroid's components and its integer rank as `_scaled`, with every
    answer of the generic rank oracle."""

    @staticmethod
    def builtin_matroids(count: int, seed: int):
        """Graphic multigraphs with self-loops, uniform matroids and partition
        matroids with zero and full capacities, on 1 to 8 elements."""
        rng = random.Random(seed)
        for i in range(count):
            n = rng.randint(1, 8)
            if i % 3 == 0:
                nodes = rng.randint(1, 5)
                yield graphic_matroid(Digraph(nodes, [(rng.randrange(nodes), rng.randrange(nodes))
                                                      for _ in range(n)]))
            elif i % 3 == 1:
                yield uniform_matroid(rng.randint(0, n), n)
            else:
                ids = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
                blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
                yield partition_matroid(blocks, [rng.randint(0, len(b)) for b in blocks])

    def test_matches_the_generic_rank_oracle(self):
        rng = random.Random(3400)
        negative = 0
        for m in self.builtin_matroids(300, 3401):
            f = PolymatroidOracle.from_matroid(m)
            generic = PolymatroidOracle(m.ground_size, lambda t, m=m: Fraction(m.rank(t)))
            assert f._components is not None and f._scale == 1 and f._cache == {}
            assert f.name == f"rank({m.name})"
            parts = polymatroid_components(f)
            assert parts == polymatroid_components(generic) == matroid_components(m)
            for _ in range(3):
                s = frozenset(e for e in range(m.ground_size) if rng.random() < 0.5)
                got = verify_polymatroid_identifying(f, s)
                assert got == verify_polymatroid_identifying(generic, s), (f.name, sorted(s))
                negative += not got[0]
        assert negative >= 200

    def test_custom_matroid_keeps_the_sweep(self):
        f = PolymatroidOracle.from_matroid(MatroidOracle(3, lambda t: len(t) <= 1))
        assert f._components is None and f._scaled is None
        assert len(f._cache) == 8  # the exhaustive sweep asked every subset


class TestTheoremEquivalence:
    def test_condition_iff_identifying(self):
        # identifying for the convex polytope == complement independent in the
        # affine-basis matroid (checked through the linear module), and the
        # witness construction succeeds exactly on violations
        for f in table_fixtures():
            if f.ground_size > 5:
                continue
            parts = polymatroid_components(f)
            basis = affine_basis_of_polytope(f)
            vertices = polytope_vertices(f)
            for s in all_subsets(range(f.ground_size)):
                condition = all(len(s & p) >= len(p) - 1 for p in parts)
                identifying, _ = verify_identifying_from_basis(basis, s)
                assert condition == identifying, (f.name, sorted(s))
                verdict, witness = verify_polymatroid_identifying(f, s)
                assert verdict == condition
                assert (witness is not None) == (not condition)
                vertex_traces = {tuple(v[e] for e in sorted(s)) for v in vertices}
                assert (len(vertex_traces) == len(vertices)) == condition

    def test_greedy_weight_is_optimal_by_condition(self):
        rng = random.Random(23)
        for f in table_fixtures():
            if f.ground_size > 5:
                continue
            parts = polymatroid_components(f)
            for _ in range(10):
                w = WeightedGroundSet(random_weights(rng, f.ground_size))
                s, _ = min_weight_polymatroid_identifying(f, w)
                best = min(
                    w.total(c) for c in all_subsets(range(f.ground_size))
                    if all(len(c & p) >= len(p) - 1 for p in parts)
                )
                assert w.total(s) == best
