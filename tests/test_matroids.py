"""Matroid identifying sets: circuit condition, components, and greedy optimality."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest

from idsets.errors import EnumerationExplosion, InvalidInstance
from idsets.caps import Caps
from idsets.graphs import Digraph, UnionFind, WeightedGroundSet
from idsets.linear import AffineBasis
from idsets.matroids import (
    MatroidOracle,
    _circuit_of,
    _first_violated_circuit,
    find_basis,
    free_matroid,
    graphic_matroid,
    matroid_components,
    min_weight_matroid_identifying,
    partition_matroid,
    uniform_matroid,
    verify_matroid_identifying,
)
from idsets.polymatroids import PolymatroidOracle, verify_polymatroid_identifying

from .helpers import (
    ElementInBasis,
    NotABasis,
    all_subsets,
    ax_independent,
    base_membership,
    enumerate_circuits,
    fundamental_circuit,
    oracle_first_violated_circuit,
    oracle_matroid_witness,
    random_weights,
)


def triangle() -> MatroidOracle:
    return graphic_matroid(Digraph(3, [(0, 1), (1, 2), (0, 2)]))


def all_bases(m: MatroidOracle) -> list[frozenset[int]]:
    independent = [s for s in all_subsets(range(m.ground_size)) if m.is_independent(s)]
    rank = max(len(s) for s in independent)
    return [s for s in independent if len(s) == rank]


def bases_distinct_on(bases: list[frozenset[int]], s: frozenset[int]) -> bool:
    traces = {b & s for b in bases}
    return len(traces) == len(bases)


def fixture_matroids() -> list[MatroidOracle]:
    fixtures: list[MatroidOracle] = []
    # graphic matroids of every simple undirected graph on <= 4 labeled nodes
    for n in (2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            fixtures.append(graphic_matroid(Digraph(n, arcs)))
    for n in range(1, 6):
        for k in range(n + 1):
            fixtures.append(uniform_matroid(k, n))
    fixtures.append(partition_matroid([[0, 1], [2]], [1, 1]))
    fixtures.append(partition_matroid([[0, 1, 2], [3, 4]], [2, 1]))
    fixtures.append(free_matroid(3))
    return fixtures


class TestBuiltins:
    def test_uniform(self):
        m = uniform_matroid(2, 3)
        assert m.is_independent({0, 1})
        assert not m.is_independent({0, 1, 2})

    def test_graphic_triangle(self):
        m = triangle()
        assert m.is_independent({0, 2})
        assert not m.is_independent({0, 1, 2})

    def test_partition(self):
        m = partition_matroid([[0, 1], [2]], [1, 1])
        assert m.is_independent({0, 2})
        assert not m.is_independent({0, 1})

    def test_self_loop_is_a_loop_element(self):
        m = graphic_matroid(Digraph(2, [(0, 1), (1, 1)]))
        assert not m.is_independent({1})

    @pytest.mark.parametrize("build, args", [
        (uniform_matroid, (1.5, 3)),
        (uniform_matroid, (1, 3.0)),
        (partition_matroid, ([[0, 1.0]], [1])),
        (partition_matroid, ([[0, 1]], [1.5])),
        (partition_matroid, ([[0, "1"]], [1])),
    ], ids=["uniform-k", "uniform-n", "partition-id", "partition-capacity", "partition-str"])
    def test_non_integer_ids_and_counts_rejected(self, build, args):
        with pytest.raises(InvalidInstance, match="must be an integer"):
            build(*args)

    @pytest.mark.parametrize("blocks, capacities", [
        (None, [1]), ([5], [1]), ([[0]], None),
    ], ids=["blocks-none", "block-int", "capacities-none"])
    def test_partition_refuses_what_it_cannot_iterate(self, blocks, capacities):
        with pytest.raises(InvalidInstance, match="^blocks and capacities must be iterable: "):
            partition_matroid(blocks, capacities)

    @pytest.mark.parametrize("ground_size, message", [
        (2.0, "must be an integer, got 2.0"), (-1, "must be nonnegative"),
    ], ids=["float", "negative"])
    def test_custom_ground_size_is_a_count(self, ground_size, message):
        with pytest.raises(InvalidInstance, match=f"^ground_size {message}$"):
            MatroidOracle(ground_size, lambda t: True)

    def test_construction_asks_the_oracle_nothing(self):
        # Built-in matroids are exact by construction: no axiom sampling.
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        for m in (uniform_matroid(8, 16), graphic_matroid(g),
                  partition_matroid([[0, 1, 2], [3, 4], [5]], [2, 1, 0])):
            assert m._cache == {}, m.name


class TestFundamentalCircuit:
    def test_triangle(self):
        assert fundamental_circuit(triangle(), {0, 1}, 2) == {0, 1, 2}

    def test_uniform(self):
        assert fundamental_circuit(uniform_matroid(2, 4), {0, 1}, 2) == {0, 1, 2}

    def test_two_disjoint_triangles(self):
        g = Digraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        m = graphic_matroid(g)
        basis = {0, 1, 3, 4}
        assert fundamental_circuit(m, basis, 2) == {0, 1, 2}
        assert fundamental_circuit(m, basis, 5) == {3, 4, 5}

    def test_errors(self):
        m = triangle()
        with pytest.raises(ElementInBasis):
            fundamental_circuit(m, {0, 1}, 0)
        with pytest.raises(NotABasis):
            fundamental_circuit(m, {0}, 1)  # not maximal
        with pytest.raises(NotABasis):
            fundamental_circuit(uniform_matroid(1, 3), {0, 1}, 2)  # dependent
        with pytest.raises(InvalidInstance):
            fundamental_circuit(uniform_matroid(2, 4), {0, 1}, 9)
        with pytest.raises(InvalidInstance):
            fundamental_circuit(m, {0, 1}, 7)
        with pytest.raises(InvalidInstance):
            fundamental_circuit(m, {0, 9}, 2)

    def test_output_is_a_circuit(self):
        for m in fixture_matroids()[:40]:
            basis = max(all_subsets(range(m.ground_size)),
                        key=lambda s: (m.is_independent(s), len(s), [-e for e in sorted(s)]))
            for e in range(m.ground_size):
                if e in basis:
                    continue
                c = fundamental_circuit(m, basis, e)
                assert not m.is_independent(c)
                for x in c:
                    assert m.is_independent(c - {x})


class TestComponents:
    def test_triangle_plus_bridge(self):
        g = Digraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        comps = matroid_components(graphic_matroid(g))
        assert comps == (frozenset({0, 1, 2}), frozenset({3}))

    def test_uniform_single_component(self):
        comps = matroid_components(uniform_matroid(2, 3))
        assert comps == (frozenset({0, 1, 2}),)

    def test_free_all_singletons(self):
        comps = matroid_components(free_matroid(3))
        assert comps == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_components_match_circuit_relation(self):
        # components = equivalence classes of "share a circuit", by definition
        for m in fixture_matroids():
            circuits = enumerate_circuits(m)
            from idsets.graphs import UnionFind

            uf = UnionFind(m.ground_size)
            for c in circuits:
                first = min(c)
                for e in c:
                    uf.union(first, e)
            expected: dict[int, set[int]] = {}
            for e in range(m.ground_size):
                expected.setdefault(uf.find(e), set()).add(e)
            got = matroid_components(m)
            assert set(got) == {frozenset(v) for v in expected.values()}


def seeded_graphic_matroids(count: int, seed: int):
    """Graphic matroids of random multigraphs: repeated arcs, self-loops and,
    in about half of them, isolated nodes."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        arcs += rng.sample(arcs, min(len(arcs), rng.randint(0, 2)))
        yield graphic_matroid(Digraph(n + rng.randint(0, 2), arcs))


def _greedy_basis(m: MatroidOracle, order) -> set[int]:
    basis: set[int] = set()
    for e in order:
        if m.is_independent(basis | {e}):
            basis.add(e)
    return basis


class TestGraphicCircuitHook:
    """Graphic components by theorem, the blocks of the multigraph, against
    the fundamental circuits of a plain oracle over the same independence
    callable. The circuit hook these tests once checked is gone; the blocks
    replaced it."""

    def test_hook_equals_delete_one_circuits(self):
        loops = parallel = 0
        for m in seeded_graphic_matroids(300, 61):
            assert m._components is not None
            plain = MatroidOracle(m.ground_size, m.is_independent)
            assert plain._components is None
            assert matroid_components(m) == matroid_components(plain), m.name
            ground = set(range(m.ground_size))
            loops += any(not m.is_independent({e}) for e in ground)
            parallel += any(not m.is_independent({e, f}) and m.is_independent({e})
                            for e, f in combinations(ground, 2))
        assert loops >= 100 and parallel >= 100

    def test_alternating_bases(self):
        # Components do not depend on the basis: the fundamental graph of
        # the first basis and that of the last one both give the blocks.
        for m in seeded_graphic_matroids(200, 67):
            plain = MatroidOracle(m.ground_size, m.is_independent)
            first = find_basis(plain)
            last = frozenset(_greedy_basis(plain, reversed(range(m.ground_size))))
            blocks = matroid_components(m)
            for basis in (first, last):
                uf = UnionFind(m.ground_size)
                for e in set(range(m.ground_size)) - basis:
                    for f in fundamental_circuit(plain, basis, e):
                        uf.union(e, f)
                assert uf.parts() == blocks, (m.name, sorted(basis))

    def test_self_loop_and_parallel_arc(self):
        m = graphic_matroid(Digraph(3, [(0, 1), (1, 1), (1, 0), (1, 2)]))
        assert matroid_components(m) == (frozenset({0, 2}), frozenset({1}), frozenset({3}))


def seeded_partition_matroids(count: int, seed: int):
    """Partition matroids of shuffled ids into up to 5 blocks, capacities
    from 0 to the block size (zero capacities make loops)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        ids = list(range(n))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 4))))
        blocks = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        yield partition_matroid(blocks, [rng.randint(0, len(b)) for b in blocks])


def _witness_bytes(witness) -> bytes:
    return json.dumps(None if witness is None else
                      [sorted(witness.circuit), sorted(witness.basis_a),
                       sorted(witness.basis_b)]).encode()


class TestUniformCircuitHook:
    """U(k, n) is one component when 0 < k < n and singletons otherwise,
    against a plain oracle, whose fundamental circuits are basis + e."""

    def test_hook_equals_delete_one_circuits(self):
        cases = 0
        for n in range(8):
            for k in range(n + 1):
                m = uniform_matroid(k, n)
                assert m._components is not None
                plain = MatroidOracle(n, m._fn)
                for basis in map(frozenset, combinations(range(n), k)):
                    for e in set(range(n)) - basis:
                        assert _circuit_of(plain, basis, e) == basis | {e}
                        cases += 1
                assert matroid_components(m) == matroid_components(plain), m.name
        assert cases == sum(n * 2 ** (n - 1) for n in range(8))

    def test_short_set_is_not_a_basis(self):
        with pytest.raises(NotABasis):
            fundamental_circuit(uniform_matroid(2, 4), {0}, 1)


class TestPartitionCircuitHook:
    """A block with 0 < c < |block| is one component and every other
    element a singleton, against a plain oracle, whose fundamental circuits
    are the element plus its block's basis elements."""

    def test_hook_equals_delete_one_circuits(self):
        rng = random.Random(73)
        zero = full = 0
        for m in seeded_partition_matroids(300, 71):
            assert m._components is not None
            plain = MatroidOracle(m.ground_size, m.is_independent)
            first = find_basis(plain)
            last = frozenset(_greedy_basis(plain, reversed(range(m.ground_size))))
            parts = matroid_components(m)
            assert parts == matroid_components(plain)
            part_of = {e: part for part in parts for e in part}
            for basis in (first, last):
                for e in set(range(m.ground_size)) - basis:
                    assert _circuit_of(plain, basis, e) == (part_of[e] & basis) | {e}
            for _ in range(8):
                s = frozenset(e for e in range(m.ground_size) if rng.random() < 0.5)
                got = verify_matroid_identifying(m, s)
                want = verify_matroid_identifying(plain, s)
                assert got[0] == want[0]
                assert _witness_bytes(got[1]) == _witness_bytes(want[1])
            ground = set(range(m.ground_size))
            zero += any(not m.is_independent({e}) for e in ground)
            full += any(plain.rank(ground - {e}) < len(first) for e in ground)
        assert zero >= 50 and full >= 50

    def test_loop_and_non_basis(self):
        m = partition_matroid([[0, 1], [2, 3]], [0, 1])
        assert matroid_components(m) == (frozenset({0}), frozenset({1}), frozenset({2, 3}))
        assert fundamental_circuit(m, {2}, 0) == {0}
        assert fundamental_circuit(m, {2}, 3) == {2, 3}
        with pytest.raises(NotABasis):
            fundamental_circuit(m, set(), 3)

    def test_components_ask_no_delete_one_queries(self):
        # The blocks and capacities name the components; nothing is asked.
        m = partition_matroid([range(0, 8), range(8, 16)], [3, 5])
        assert matroid_components(m) == (frozenset(range(8)), frozenset(range(8, 16)))
        assert m._cache == {}


class TestMinWeight:
    def test_triangle_weighted(self):
        s, _ = min_weight_matroid_identifying(triangle(), WeightedGroundSet([5, 2, 1]))
        assert s == {1, 2}

    def test_free_empty(self):
        s, _ = min_weight_matroid_identifying(free_matroid(3))
        assert s == frozenset()

    def test_uniform_one_of_two(self):
        s, _ = min_weight_matroid_identifying(uniform_matroid(1, 2))
        assert len(s) == 1


class TestVerify:
    def test_triangle_single_edge_false(self):
        ok, witness = verify_matroid_identifying(triangle(), {0})
        assert not ok
        assert witness.circuit == {0, 1, 2}
        assert witness.basis_a != witness.basis_b
        assert witness.basis_a & {0} == witness.basis_b & {0}

    def test_triangle_two_edges_true(self):
        ok, _ = verify_matroid_identifying(triangle(), {0, 1})
        assert ok

    def test_full_ground_set_true(self):
        for m in (triangle(), uniform_matroid(2, 4), free_matroid(2)):
            ok, _ = verify_matroid_identifying(m, set(range(m.ground_size)))
            assert ok

    def test_rejects_out_of_range_ids(self):
        for s in ({0, 1, 99}, {-1}):
            with pytest.raises(InvalidInstance):
                verify_matroid_identifying(uniform_matroid(1, 3), s)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationExplosion):
            verify_matroid_identifying(uniform_matroid(2, 5), set(),
                                       caps=Caps(max_ground=4))

    def test_components_decide_beyond_enumeration_cap(self):
        m = uniform_matroid(20, 24)
        assert m.ground_size > Caps().max_ground
        assert verify_matroid_identifying(m, set(range(1, 24))) == (True, None)
        with pytest.raises(EnumerationExplosion):
            verify_matroid_identifying(m, set(range(2, 24)))

    def test_witness_scan_covers_only_violated_components(self):
        # n = 26 exceeds max_ground, but S misses two elements of one
        # 5-element block, so the scan runs over that block alone.
        blocks = [range(0, 5), range(5, 10), range(10, 15), range(15, 20), range(20, 26)]
        m = partition_matroid(blocks, [2] * 5)
        assert m.ground_size > Caps().max_ground
        ok, witness = verify_matroid_identifying(m, set(range(26)) - {1, 3})
        assert not ok
        assert witness.circuit == {0, 1, 3}
        assert witness.basis_a == {0, 1, 5, 6, 10, 11, 15, 16, 20, 21}
        assert witness.basis_b == {0, 3, 5, 6, 10, 11, 15, 16, 20, 21}

    def test_witness_matches_circuit_oracle(self):
        rng = random.Random(2024)
        matroids = fixture_matroids()
        for _ in range(24):
            n = rng.randint(3, 5)
            pairs = list(combinations(range(n), 2))
            arcs = [rng.choice(pairs) for _ in range(rng.randint(3, 8))]
            matroids.append(graphic_matroid(Digraph(n, arcs)))
        for m in matroids:
            circuits = enumerate_circuits(m)
            for s in all_subsets(range(m.ground_size)):
                ok, witness = verify_matroid_identifying(m, s)
                expected = oracle_matroid_witness(m, s, circuits)
                assert ok == (expected is None), (m.name, sorted(s))
                if not ok:
                    got = (witness.circuit, witness.basis_a, witness.basis_b)
                    assert got == expected, (m.name, sorted(s))

    def test_witness_bases_valid(self):
        for m in fixture_matroids()[:60]:
            for s in all_subsets(range(m.ground_size))[:20]:
                ok, witness = verify_matroid_identifying(m, s)
                if ok:
                    continue
                assert m.is_independent(witness.basis_a)
                assert m.is_independent(witness.basis_b)
                assert witness.basis_a & s == witness.basis_b & s


    def test_oracle_without_the_violated_circuit_is_refused(self):
        # Components [[0], [1, 2]] put 1 and 2 outside S = {} in one
        # component, yet no subset of {1, 2} is a circuit.
        family = {frozenset(t) for t in [(), (0,), (0, 1), (0, 2)]}
        m = MatroidOracle(3, lambda t: t in family)
        assert matroid_components(m) == (frozenset({0}), frozenset({1, 2}))
        with pytest.raises(InvalidInstance, match="inconsistent oracle"):
            verify_matroid_identifying(m, set())

    def test_oracle_with_a_dependent_exchanged_basis_is_refused(self):
        # Circuit {1, 2} extends to basis {0, 1}, but the exchange {0, 2}
        # is dependent.
        family = {frozenset(t) for t in [(), (1,), (2,), (0, 1)]}
        m = MatroidOracle(3, lambda t: t in family)
        with pytest.raises(InvalidInstance, match="inconsistent oracle"):
            verify_matroid_identifying(m, set())


def gf_rank(vectors: list[tuple[int, ...]], q: int) -> int:
    """Rank over GF(q), q prime, by elimination on a copy."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] * inv
            rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def scan_oracles():
    """Seeded (independence callable, ground size) pairs: uniform, partition,
    graphic, GF(q)-linear and the dual matroid of an affine basis."""
    rng = random.Random(7100)
    for _ in range(55):
        n = rng.randint(2, 9)
        yield uniform_matroid(rng.randint(0, n - 1), n).is_independent, n
    for _ in range(55):
        n = rng.randint(2, 10)
        ids = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3))))
        blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        m = partition_matroid(blocks, [rng.randint(0, len(b)) for b in blocks])
        yield m.is_independent, n
    for m in seeded_graphic_matroids(55, 7101):
        yield m.is_independent, m.ground_size
    for _ in range(55):
        q, n, dim = rng.choice([2, 3, 5]), rng.randint(2, 8), rng.randint(1, 4)
        columns = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(n)]
        yield (lambda t, columns=columns, q=q:
               gf_rank([columns[e] for e in t], q) == len(t)), n
    for _ in range(40):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        try:
            basis = AffineBasis([[rng.randint(-2, 2) for _ in range(n)] for _ in range(k + 1)])
        except InvalidInstance:
            continue
        yield (lambda t, basis=basis: ax_independent(basis, t)), n


def recorded_scan(scan, independent, n: int, s: frozenset[int], elements: list[int]):
    """The scan's result and the distinct subsets it asked the oracle about."""
    queried: set[frozenset[int]] = set()

    def recording(t: frozenset[int]) -> bool:
        queried.add(t)
        return independent(t)

    return scan(MatroidOracle(n, recording), s, elements), queried


class TestFirstViolatedCircuit:
    """The pruned scan against the scan of every combination: the same
    circuit from the same distinct oracle queries."""

    @staticmethod
    def pruned(m: MatroidOracle, s: frozenset[int], elements: list[int]):
        return _first_violated_circuit(m, s, elements, Caps())

    def test_same_circuit_and_queries_as_every_combination(self):
        rng = random.Random(7102)
        pairs = found = 0
        for independent, n in scan_oracles():
            parts = matroid_components(MatroidOracle(n, independent))
            for _ in range(5):
                s = frozenset(e for e in range(n) if rng.random() < rng.choice([0.3, 0.7]))
                elements = sorted(e for part in parts if len(part - s) >= 2 for e in part)
                elements = elements or list(range(n))
                got = recorded_scan(self.pruned, independent, n, s, elements)
                want = recorded_scan(oracle_first_violated_circuit, independent, n, s, elements)
                assert got == want, (n, sorted(s), elements)
                pairs += 1
                found += got[0] is not None
        assert pairs >= 1000 and found >= 300

    def test_uniform_8_16_with_two_elements_outside_s(self):
        s = frozenset(range(2, 16))
        got = recorded_scan(self.pruned, lambda t: len(t) <= 8, 16, s, list(range(16)))
        want = recorded_scan(oracle_first_violated_circuit, lambda t: len(t) <= 8, 16, s,
                             list(range(16)))
        assert got[0] == frozenset(range(9))
        assert got == want and len(got[1]) > 6000


class TestFirstCircuitHook:
    """The closed-form first circuit of uniform matroids against the scan of
    the same oracle without hooks."""

    @staticmethod
    def seeded_cases(count: int, seed: int):
        """(matroid, S, elements) for uniform(k, n) with every 0 <= k <= n;
        elements are the violated components' elements or, one time in
        four, any ascending subset of the ground set."""
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 11)
            m = uniform_matroid(rng.randint(0, n), n)
            s = frozenset(e for e in range(n) if rng.random() < rng.choice([0.2, 0.5, 0.8]))
            if rng.random() < 0.25:
                elements = sorted(rng.sample(range(n), rng.randint(0, n)))
            else:
                elements = sorted(e for part in matroid_components(m)
                                  if len(part - s) >= 2 for e in part)
            yield m, s, elements

    def test_hook_equals_scan(self):
        # k = 0 makes every element a loop and k = n every element a coloop.
        cases = found = loops = coloops = 0
        for m, s, elements in self.seeded_cases(1200, 1701):
            assert m._first_circuit is not None
            plain = MatroidOracle(m.ground_size, m._fn)
            got = _first_violated_circuit(m, s, elements, Caps())
            assert got == _first_violated_circuit(plain, s, elements, Caps()), \
                (m.name, sorted(s), elements)
            cases += 1
            found += got is not None
            ground = set(range(m.ground_size))
            loops += any(not plain.is_independent({e}) for e in ground)
            coloops += any(plain.rank(ground - {e}) < plain.rank(ground) for e in ground)
        assert cases >= 1000 and found >= 300 and loops >= 100 and coloops >= 100

    def test_ranks_at_the_edges(self):
        # Rank 0 has only one-element circuits and full rank none, so
        # neither has a violated circuit.
        assert uniform_matroid(0, 4)._first_circuit(frozenset(), [0, 1, 2, 3]) is None
        assert uniform_matroid(4, 4)._first_circuit(frozenset(), [0, 1, 2, 3]) is None
        m = uniform_matroid(2, 5)
        assert m._first_circuit(frozenset({0, 1}), list(range(5))) == {0, 2, 3}

    def test_cap_is_checked_before_the_hook(self):
        m = uniform_matroid(2, 5)
        with pytest.raises(EnumerationExplosion):
            _first_violated_circuit(m, frozenset(), list(range(5)), Caps(max_ground=4))
        assert m._cache == {}


class TestGraphicBasisHook:
    """The greedy first basis of a graphic matroid is Kruskal's forest over
    the arcs in ascending id. The Kruskal `_basis` hook is gone; the
    independence queries give the same forest."""

    def test_kruskal_basis_equals_greedy(self):
        rng = random.Random(1703)
        loops = parallel = 0
        for _ in range(400):
            n = rng.randint(1, 7)
            arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
            nodes = n + rng.randint(0, 2)
            uf = UnionFind(nodes)
            kruskal = {aid for aid, (a, b) in enumerate(arcs) if uf.union(a, b)}
            assert find_basis(graphic_matroid(Digraph(nodes, arcs))) == kruskal, arcs
            loops += sum(a == b for a, b in arcs)
            parallel += len(arcs) - len({frozenset(a) for a in arcs})
        assert loops >= 100 and parallel >= 100

    def test_parallel_arcs_and_self_loops(self):
        m = graphic_matroid(Digraph(3, [(1, 1), (0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]))
        assert find_basis(m) == {1, 5}


class TestOracleQueryCounts:
    """Deterministic guards on the number of distinct oracle queries the
    built-ins make; they count memo entries, not time."""

    def test_uniform_witness_asks_few_queries(self):
        m = uniform_matroid(8, 16)
        ok, witness = verify_matroid_identifying(m, set(range(2, 16)))
        assert not ok and witness.circuit == frozenset(range(9))
        assert len(m._cache) < 200

    def test_uniform_components_ask_nothing(self):
        # The components are one part by theorem; the witness asks 7 greedy
        # extensions of its circuit and the exchange check.
        m = uniform_matroid(8, 16)
        matroid_components(m)
        assert m._cache == {}
        verify_matroid_identifying(m, set(range(2, 16)))
        assert len(m._cache) == 8

    def test_graphic_components_ask_nothing(self):
        for m in seeded_graphic_matroids(50, 1707):
            matroid_components(m)
            assert m._cache == {}, m.name


class TestComponentsByTheorem:
    def test_only_builtins_set_the_hook(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        for m in (uniform_matroid(2, 4), free_matroid(3), graphic_matroid(g),
                  partition_matroid([[0, 1], [2]], [1, 1])):
            assert m._components is not None, m.name
        assert MatroidOracle(3, lambda t: len(t) <= 1)._components is None

    def test_graphic_2000_cycle_is_one_part(self):
        # The block search keeps its own stack, so a cycle twice the
        # default recursion limit is one part.
        n = 2000
        assert n > sys.getrecursionlimit()
        m = graphic_matroid(Digraph(n, [(v, (v + 1) % n) for v in range(n)]))
        assert matroid_components(m) == (frozenset(range(n)),)
        assert m._cache == {}

    def test_blocks_of_a_bridged_pair_of_cycles(self):
        # Two triangles joined by a bridge, a self-loop and a parallel arc.
        arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (4, 4), (5, 4)]
        m = graphic_matroid(Digraph(6, arcs))
        assert matroid_components(m) == (frozenset({0, 1, 2}), frozenset({3}),
                                         frozenset({4, 5, 6, 8}), frozenset({7}))


class TestTheoremEquivalence:
    def test_three_conditions_coincide_subset_by_subset(self):
        fixtures = fixture_matroids()
        assert len(fixtures) >= 30
        for m in fixtures:
            bases = all_bases(m)
            circuits = enumerate_circuits(m)
            parts = matroid_components(m)
            for s in all_subsets(range(m.ground_size)):
                ident = bases_distinct_on(bases, s)
                circ = all(len(s & c) >= len(c) - 1 for c in circuits)
                comp = all(len(s & p) >= len(p) - 1 for p in parts if len(p) >= 2)
                assert ident == circ == comp, (m.name, sorted(s))

    def test_greedy_weight_equals_brute_force(self):
        rng = random.Random(17)
        for m in fixture_matroids():
            bases = all_bases(m)
            subsets = all_subsets(range(m.ground_size))
            for _ in range(20):
                w = WeightedGroundSet(random_weights(rng, m.ground_size))
                s, _ = min_weight_matroid_identifying(m, w)
                assert bases_distinct_on(bases, frozenset(s))
                best = min(w.total(c) for c in subsets if bases_distinct_on(bases, c))
                assert w.total(s) == best, (m.name,)


def witness_cases():
    """Seeded (verifier, oracle, S) triples, three random S per oracle:
    uniform, partition (shuffled blocks, so two violated components often
    hold circuits of different sizes) and graphic matroids, then
    budget-additive and coverage polymatroids."""
    rng = random.Random(3000)
    oracles = []
    for _ in range(30):
        n = rng.randint(2, 7)
        oracles.append((verify_matroid_identifying, uniform_matroid(rng.randint(1, n - 1), n)))
    for _ in range(50):
        n = rng.randint(2, 14)
        ids = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3))))
        blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        capacities = [rng.randint(0, len(b)) for b in blocks]
        oracles.append((verify_matroid_identifying, partition_matroid(blocks, capacities)))
    for m in seeded_graphic_matroids(50, 3001):
        oracles.append((verify_matroid_identifying, m))
    for _ in range(30):
        n = rng.randint(1, 6)
        gains = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        cap = Fraction(rng.randint(1, 12), rng.randint(1, 2))
        oracles.append((verify_polymatroid_identifying,
                        PolymatroidOracle.budget_additive(cap, gains)))
    for _ in range(30):
        n = rng.randint(1, 6)
        items = range(rng.randint(1, 6))
        sets = [rng.sample(items, rng.randint(0, len(items))) for _ in range(n)]
        oracles.append((verify_polymatroid_identifying, PolymatroidOracle.coverage(n, sets)))
    for verify, oracle in oracles:
        for _ in range(3):
            s = frozenset(e for e in range(oracle.ground_size) if rng.random() < 0.6)
            yield verify, oracle, s


def witness_line(s: frozenset[int], ok: bool, witness) -> str:
    """Verdict and witness as one JSON line: sets sorted, numbers as strings."""
    parts = []
    for field in fields(witness) if witness is not None else ():
        value = getattr(witness, field.name)
        if isinstance(value, frozenset):
            parts.append(sorted(value))
        elif isinstance(value, tuple):
            parts.append([str(v) for v in value])
        else:
            parts.append(str(value))
    return json.dumps([sorted(s), ok, parts])


class TestWitnessDigest:
    # sha256 of the verdict and witness lines below, one digest per verifier.
    # The matroid lines were recorded before the witness searches were
    # restricted to the violated components. The polymatroid lines were
    # recorded with the greedy-base swap witness; each of those witnesses is
    # also checked against the base polyhedron here.
    DIGESTS = {
        verify_matroid_identifying:
            "f4ff4685dbbe1f5a8c3914a613c1b65ae6d87ab989ca3334a39a1e3a3547077e",
        verify_polymatroid_identifying:
            "7153da4e7b4c196ed4e74bf82ac0df98c3f29466eebe663b70b7be8661424871",
    }

    def test_matroid_and_polymatroid_witnesses_are_pinned(self):
        digests = {verify: hashlib.sha256() for verify in self.DIGESTS}
        pairs = negative = 0
        for verify, oracle, s in witness_cases():
            ok, witness = verify(oracle, s)
            digests[verify].update(f"{witness_line(s, ok, witness)}\n".encode())
            pairs += 1
            negative += not ok
            if verify is verify_polymatroid_identifying and not ok:
                assert base_membership(oracle, witness.base_a)[0]
                assert base_membership(oracle, witness.base_b)[0]
        assert pairs >= 300 and negative >= 100
        assert {verify: d.hexdigest() for verify, d in digests.items()} == self.DIGESTS
