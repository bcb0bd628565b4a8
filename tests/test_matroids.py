"""Matroid identifying sets: circuit condition, components, and greedy optimality."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest

from idsets.errors import InvalidInstance
from idsets.graphs import Digraph, UnionFind, WeightedGroundSet
from idsets.linear import AffineBasis
from idsets.matroids import (
    MatroidOracle,
    _circuit_of,
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


class BruteForceMatroid:
    """Circuits, bases and components of an independence callable from an
    exhaustive subset scan, to check verdicts and witnesses against."""

    def __init__(self, n: int, independent):
        plain = MatroidOracle(n, independent)
        self.circuits = set(enumerate_circuits(plain))
        self.bases = set(all_bases(plain))
        uf = UnionFind(n)
        for c in self.circuits:
            for e in c:
                uf.union(min(c), e)
        self.parts = uf.parts()

    def identifying(self, s: frozenset[int]) -> bool:
        return all(len(s & c) >= len(c) - 1 for c in self.circuits)

    def assert_witness(self, s: frozenset[int], witness) -> None:
        """The circuit is a circuit through the two least ids outside S of
        the first violated component; both bases are bases, they differ,
        and they agree on S."""
        part = next(p for p in self.parts if len(p - s) >= 2)
        assert witness.circuit in self.circuits, sorted(s)
        assert set(sorted(part - s)[:2]) <= witness.circuit, sorted(s)
        assert witness.basis_a in self.bases and witness.basis_b in self.bases, sorted(s)
        assert witness.basis_a != witness.basis_b
        assert witness.basis_a & s == witness.basis_b & s


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

    @pytest.mark.parametrize("blocks, capacities, message", [
        (None, [1], "blocks must be iterable: "),
        ([5], [1], "each block must be iterable: 'int' "),
        ([[0]], None, "capacities must be iterable: "),
    ], ids=["blocks-none", "block-int", "capacities-none"])
    def test_partition_refuses_what_it_cannot_iterate(self, blocks, capacities, message):
        with pytest.raises(InvalidInstance, match=f"^{message}"):
            partition_matroid(blocks, capacities)

    @pytest.mark.parametrize("blocks, kind", [
        ({(0, 1): "x", (2,): "y"}, "mapping"),
        ({frozenset({0, 1}), frozenset({2})}, "set"),
    ], ids=["mapping", "set"])
    def test_partition_refuses_blocks_out_of_capacity_order(self, blocks, kind):
        # Blocks pair with capacities by position; a mapping read as its
        # keys built a 3-element matroid, and a set pairs them in hash order.
        with pytest.raises(InvalidInstance, match=f"^blocks must be a sequence, not the {kind} "):
            partition_matroid(blocks, [1, 0])

    @pytest.mark.parametrize("blocks, capacities, message", [
        ([[0, 1]], [1, 1], "one capacity per block required"),
        ([[0, 1], {1, 2}], [1, 1], "blocks must be disjoint"),
        ([[0], [2]], [1, 1], "blocks must partition 0..n-1, capacities >= 0"),
        ([[0], [1]], [1, -1], "blocks must partition 0..n-1, capacities >= 0"),
    ], ids=["capacity-count", "overlap", "gap", "negative-capacity"])
    def test_partition_refuses_what_is_not_a_partition(self, blocks, capacities, message):
        with pytest.raises(InvalidInstance, match=f"^{message}$"):
            partition_matroid(blocks, capacities)

    @pytest.mark.parametrize("k, n", [(3, 2), (-1, 2)], ids=["k-above-n", "negative-k"])
    def test_uniform_refuses_k_outside_0_to_n(self, k, n):
        with pytest.raises(InvalidInstance, match=r"^uniform matroid needs 0 <= k <= n$"):
            uniform_matroid(k, n)

    def test_custom_oracle_with_a_dependent_empty_set_is_refused(self):
        with pytest.raises(InvalidInstance, match="^inconsistent oracle: empty set dependent$"):
            matroid_components(MatroidOracle(2, lambda subset: False))

    def test_partition_refuses_mapping_capacities(self):
        # {1: "x"} was read as its keys, a block of capacity 1.
        with pytest.raises(InvalidInstance,
                           match="^capacities must be a sequence, not the mapping "):
            partition_matroid([[0, 1]], {1: "x"})

    @pytest.mark.parametrize("ground_size, message", [
        (2.0, "must be an integer, got 2.0"), (-1, "must be nonnegative"),
    ], ids=["float", "negative"])
    def test_custom_ground_size_is_a_count(self, ground_size, message):
        with pytest.raises(InvalidInstance, match=f"^ground_size {message}$"):
            MatroidOracle(ground_size, lambda t: True)

    def test_is_independent_must_be_callable(self):
        with pytest.raises(InvalidInstance, match="^is_independent must be callable, got int$"):
            matroid_components(MatroidOracle(3, 5))

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

    def test_components_decide_beyond_enumeration_cap(self):
        # 24 elements and a 21-element circuit: the witness scans no subsets.
        m = uniform_matroid(20, 24)
        assert verify_matroid_identifying(m, set(range(1, 24))) == (True, None)
        ok, witness = verify_matroid_identifying(m, set(range(2, 24)))
        assert not ok and witness.circuit == frozenset(range(21))
        assert witness.basis_a == frozenset(range(21)) - {1}
        assert witness.basis_b == frozenset(range(1, 21))

    def test_cycle_of_200_arcs(self):
        # The only circuit with two arcs outside S is the whole cycle; the
        # best of three fresh oracles takes under 100 ms.
        n = 200
        times = []
        for _ in range(3):
            m = graphic_matroid(Digraph(n, [(v, (v + 1) % n) for v in range(n)]))
            start = time.perf_counter()
            ok, witness = verify_matroid_identifying(m, set(range(n)) - {3, 117})
            times.append(time.perf_counter() - start)
            assert not ok and witness.circuit == frozenset(range(n))
            assert witness.basis_a == frozenset(range(n)) - {117}
            assert witness.basis_b == frozenset(range(n)) - {3}
        assert min(times) < 0.1

    def test_witness_scan_covers_only_violated_components(self):
        # 26 elements, and S misses two elements of one 5-element block:
        # the witness stays inside that block.
        blocks = [range(0, 5), range(5, 10), range(10, 15), range(15, 20), range(20, 26)]
        m = partition_matroid(blocks, [2] * 5)
        ok, witness = verify_matroid_identifying(m, set(range(26)) - {1, 3})
        assert not ok
        assert witness.circuit == {0, 1, 3}
        assert witness.basis_a == {0, 1, 5, 6, 10, 11, 15, 16, 20, 21}
        assert witness.basis_b == {0, 3, 5, 6, 10, 11, 15, 16, 20, 21}

    def test_witness_matches_circuit_oracle(self):
        # The verdict is the circuit condition, and every witness is valid.
        rng = random.Random(2024)
        matroids = fixture_matroids()
        for _ in range(24):
            n = rng.randint(3, 5)
            pairs = list(combinations(range(n), 2))
            arcs = [rng.choice(pairs) for _ in range(rng.randint(3, 8))]
            matroids.append(graphic_matroid(Digraph(n, arcs)))
        for m in matroids:
            brute = BruteForceMatroid(m.ground_size, m.is_independent)
            for s in all_subsets(range(m.ground_size)):
                ok, witness = verify_matroid_identifying(m, s)
                assert ok == brute.identifying(s), (m.name, sorted(s))
                if not ok:
                    brute.assert_witness(s, witness)

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


def exchange_cases():
    """Seeded (kind, matroid) pairs: built-in graphic multigraphs with loops
    and parallel arcs, uniform and partition matroids, then opaque callables
    with no components by theorem: graphic, binary (GF(2)), GF(3) and GF(5)
    vector matroids and the dual matroid of an affine basis."""
    rng = random.Random(3300)
    for m in seeded_graphic_matroids(150, 3301):
        yield "graphic", m
        yield "opaque graphic", MatroidOracle(m.ground_size, m._fn)
    for _ in range(120):
        n = rng.randint(1, 9)
        yield "uniform", uniform_matroid(rng.randint(0, n), n)
    for m in seeded_partition_matroids(150, 3302):
        yield "partition", m
    for _ in range(200):
        q = 2 if rng.random() < 0.6 else rng.choice([3, 5])
        n, dim = rng.randint(1, 9), rng.randint(1, 5)
        columns = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(n)]
        yield ("binary" if q == 2 else "GF(3), GF(5)"), MatroidOracle(
            n, lambda t, columns=columns, q=q: gf_rank([columns[e] for e in t], q) == len(t))
    for _ in range(40):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        try:
            basis = AffineBasis([[rng.randint(-2, 2) for _ in range(n)] for _ in range(k + 1)])
        except InvalidInstance:
            continue
        yield "affine dual", MatroidOracle(n, lambda t, basis=basis: ax_independent(basis, t))


class TestExchangeWitness:
    """Every negative verdict's witness against brute force (`BruteForceMatroid`)."""

    def test_witnesses_pass_brute_force(self):
        rng = random.Random(3303)
        brute: dict = {}
        negative: dict[str, int] = {}
        for kind, m in exchange_cases():
            if m._fn not in brute:
                brute[m._fn] = BruteForceMatroid(m.ground_size, m._fn)
            for _ in range(6):
                p = rng.choice([0.4, 0.7])
                s = frozenset(e for e in range(m.ground_size) if rng.random() < p)
                ok, witness = verify_matroid_identifying(m, s)
                assert ok == brute[m._fn].identifying(s), (kind, m.name, sorted(s))
                if not ok:
                    brute[m._fn].assert_witness(s, witness)
                    negative[kind] = negative.get(kind, 0) + 1
        assert sum(negative.values()) >= 1000
        assert min(negative.values()) >= 50 and len(negative) == 7, negative


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
        # The components are one part by theorem, and the witness is read
        # off the first k ids of its order: neither asks the oracle.
        m = uniform_matroid(8, 16)
        matroid_components(m)
        assert m._cache == {}
        verify_matroid_identifying(m, set(range(2, 16)))
        assert m._cache == {}

    def test_graphic_components_ask_nothing(self):
        for m in seeded_graphic_matroids(50, 1707):
            matroid_components(m)
            assert m._cache == {}, m.name


class TestComponentsByTheorem:
    def test_only_builtins_set_the_hook(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        partition = partition_matroid([[0, 1], [2]], [1, 1])
        for m in (uniform_matroid(2, 4), free_matroid(3), graphic_matroid(g), partition):
            assert m._components is not None, m.name
        for m in (uniform_matroid(2, 4), free_matroid(3), graphic_matroid(g)):
            assert m._witness is not None, m.name
        custom = MatroidOracle(3, lambda t: len(t) <= 1)
        assert custom._components is None
        assert partition._witness is None and custom._witness is None

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


class TestWitnessByStructure:
    """The uniform and graphic `_witness` hooks against the generic exchange
    path, a plain oracle over the same independence callable: the same
    verdict and the same witness, with nothing asked of the built-in's memo."""

    @staticmethod
    def assert_same_as_generic(m: MatroidOracle, s) -> bool:
        plain = MatroidOracle(m.ground_size, m._fn)
        got = verify_matroid_identifying(m, s)
        assert got == verify_matroid_identifying(plain, s), (m.name, sorted(s))
        assert m._cache == {}, m.name
        return not got[0]

    def test_graphic_witness_equals_the_generic_path(self):
        rng = random.Random(5301)
        graphs = negative = loops = parallel = 0
        for m in seeded_graphic_matroids(1200, 5300):
            graphs += 1
            for _ in range(3):
                p = rng.choice([0.3, 0.6, 0.8])
                s = frozenset(e for e in range(m.ground_size) if rng.random() < p)
                negative += self.assert_same_as_generic(m, s)
            ground = range(m.ground_size)
            loops += any(not m._fn({e}) for e in ground)
            parallel += any(not m._fn({e, f}) and m._fn({e}) and m._fn({f})
                            for e, f in combinations(ground, 2))
        assert graphs >= 1000 and negative >= 1000
        assert loops >= 300 and parallel >= 300

    def test_uniform_witness_equals_the_generic_path(self):
        negative = 0
        for n in range(9):
            for k in range(n + 1):
                for size in range(n + 1):
                    for s in combinations(range(n), size):
                        negative += self.assert_same_as_generic(uniform_matroid(k, n), s)
        assert negative == 2880

    def test_f_inside_the_uniform_basis(self):
        # {0} ∪ S fills only 3 of k = 4, so B = {0, 1, 4, 5} holds f = 1 and
        # the path runs 0 -> 2 -> 1 through the least id outside B.
        ok, witness = verify_matroid_identifying(uniform_matroid(4, 6), {4, 5})
        assert not ok
        assert witness.basis_a == {0, 2, 4, 5} and witness.basis_b == {1, 2, 4, 5}
        assert witness.circuit == {0, 1, 2, 4, 5}

    def test_2000_arc_cycle_leaves_the_memo_empty(self):
        # The whole cycle is the circuit, read off the forest with no query;
        # the memo of the generic path held about 4,000 sets of 2,000 arcs.
        n = 2000
        m = graphic_matroid(Digraph(n, [(v, (v + 1) % n) for v in range(n)]))
        ok, witness = verify_matroid_identifying(m, set(range(n)) - {3, 117})
        assert not ok and witness.circuit == frozenset(range(n))
        assert witness.basis_a == frozenset(range(n)) - {117}
        assert witness.basis_b == frozenset(range(n)) - {3}
        assert m._cache == {}


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
    # The matroid lines were recorded with the exchange-path witness, and
    # each of those witnesses is also checked by brute force here. The
    # polymatroid lines were recorded with the greedy-base swap witness; each
    # of those witnesses is also checked against the base polyhedron.
    DIGESTS = {
        verify_matroid_identifying:
            "8b2c63c4cda8c25b262bdef629afd2334ea963bc28f3cc7bf2ae1c139673af75",
        verify_polymatroid_identifying:
            "7153da4e7b4c196ed4e74bf82ac0df98c3f29466eebe663b70b7be8661424871",
    }

    def test_matroid_and_polymatroid_witnesses_are_pinned(self):
        digests = {verify: hashlib.sha256() for verify in self.DIGESTS}
        brute: dict[MatroidOracle, BruteForceMatroid] = {}
        pairs = negative = 0
        for verify, oracle, s in witness_cases():
            ok, witness = verify(oracle, s)
            digests[verify].update(f"{witness_line(s, ok, witness)}\n".encode())
            pairs += 1
            negative += not ok
            if verify is verify_polymatroid_identifying and not ok:
                assert base_membership(oracle, witness.base_a)[0]
                assert base_membership(oracle, witness.base_b)[0]
            elif not ok:
                if oracle not in brute:
                    brute[oracle] = BruteForceMatroid(oracle.ground_size, oracle._fn)
                brute[oracle].assert_witness(s, witness)
        assert pairs >= 300 and negative >= 100
        assert {verify: d.hexdigest() for verify, d in digests.items()} == self.DIGESTS
