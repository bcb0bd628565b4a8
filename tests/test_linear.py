"""Affine-basis identifying sets and cross-checks against the flow module."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from idsets.cli import main
from idsets.errors import IdsetsError, InvalidInstance
from idsets.flows import min_weight_flow_identifying
from idsets.graphs import Digraph, StPair, WeightedGroundSet, enumerate_st_paths
from idsets.instances import gen_tight_gap_family
from idsets.io import parse_affine_basis
from idsets.linalg import as_vector, echelon, exact, integer_row
from idsets.linear import (
    AffineBasis,
    min_weight_identifying_from_basis,
    verify_identifying_from_basis,
)
from idsets.tolls import (
    CostOracle,
    TollVector,
    controlling_counterexample_check,
    convex_tolls,
    discrete_tolls,
    linear_cost,
    quadratic_cost,
)

from .helpers import (
    all_simple_digraphs,
    all_subsets,
    ax_independent,
    EagerAffineBasis,
    differences,
    eager_convex_tolls,
    eager_min_weight_identifying,
    eager_verify_identifying,
    from_strings,
    has_st_path,
    oracle_convex_tolls,
    oracle_directed_cycles,
    oracle_in_hull,
    oracle_linear_greedy,
    oracle_rank,
    oracle_rref,
    random_weights,
    seeded_multigraphs,
    vec_add,
)

PARALLEL = AffineBasis([[1, 0], [0, 1]])


def random_basis(rng: random.Random, dim: int, ground: int, low: int = -3,
                 high: int = 3) -> AffineBasis:
    """dim + 1 affinely independent integer points drawn from [low, high]^ground."""
    points = [tuple(Fraction(rng.randint(low, high)) for _ in range(ground))]
    while len(points) < dim + 1:
        cand = tuple(Fraction(rng.randint(low, high)) for _ in range(ground))
        if oracle_rank(differences(points + [cand])) == len(points):
            points.append(cand)
    return AffineBasis(points)


def flow_polytope_basis(g: Digraph, st: StPair) -> AffineBasis:
    """Affine basis of the unit-flow polytope from paths and path+cycle points."""
    paths = enumerate_st_paths(g, st, cap=50_000)
    base_path = paths[0]

    def indicator(arcs) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if a in set(arcs) else Fraction(0)
                     for a in range(g.arc_count))

    points = [indicator(p) for p in paths]
    p0 = indicator(base_path)
    for cycle in oracle_directed_cycles(g):
        points.append(vec_add(p0, indicator(cycle)))
    chosen = [points[0]]
    for point in points[1:]:
        if oracle_rank(differences(chosen + [point])) == len(chosen):
            chosen.append(point)
    return AffineBasis(chosen)


def seeded_matrices(count: int, seed: int):
    """Rational matrices of 0-8 rows and 1-32 columns, wide and tall, with
    entries in [-9, 9] over denominators up to 9, sparse rows and columns,
    zero, duplicated and dependent rows, and some rows of plain ints."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 8), rng.randint(1, 32)
        if rng.random() < 0.3:
            rows, cols = rng.randint(rows, 3 * rows + 1), rng.randint(1, 4)
        density = rng.choice([0.15, 0.5, 1.0])
        zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   if c not in zero_cols and rng.random() < density else Fraction(0)
                   for c in range(cols)] for _ in range(rows)]
        for i in range(rows):
            kind = rng.random()
            if i and kind < 0.15:
                matrix[i] = list(rng.choice(matrix[:i]))
            elif i > 1 and kind < 0.3:
                a, b = rng.sample(matrix[:i], 2)
                p, q = Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-3, 3)
                matrix[i] = [p * x + q * y for x, y in zip(a, b)]
            elif kind < 0.4:
                matrix[i] = [Fraction(0)] * cols
            elif kind < 0.5:
                matrix[i] = [rng.randint(-9, 9) for _ in range(cols)]
        yield matrix


def seeded_bases(count: int, seed: int):
    """(basis, rng) for affine bases of Q^n with 0 <= k <= min(n, 5), n <= 8:
    rational points over denominators up to 4, with some zero and some
    repeated columns; a dependent draw is redrawn."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, 8)
        k = rng.randint(0, min(n, 5))
        points = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                  for _ in range(k + 1)]
        for e in rng.sample(range(n), rng.randint(0, n // 3)):
            source = rng.randrange(n)
            for p in points:
                p[e] = p[source] if rng.random() < 0.5 else Fraction(0)
        if oracle_rank(differences(points)) == k:
            made += 1
            yield AffineBasis(points), rng


def hull_point(basis: AffineBasis, rng: random.Random) -> tuple[Fraction, ...]:
    """x0 plus a random rational combination of the difference rows."""
    diffs = differences(basis.points)
    lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in diffs]
    return tuple(x + sum((l * d[e] for l, d in zip(lam, diffs)), Fraction(0))
                 for e, x in enumerate(basis.points[0]))


class TestEchelon:
    def test_pivots_match_fraction_elimination(self):
        count = 0
        for matrix in seeded_matrices(1200, 43):
            ints = [integer_row(row)[0] for row in matrix]
            copy = [row[:] for row in ints]
            rows, pivots = echelon(ints)
            assert ints == copy
            want, want_pivots = oracle_rref(matrix)
            assert pivots == want_pivots
            assert len(rows) == len(pivots)
            for row, c, reduced in zip(rows, pivots, want):
                assert math.gcd(*row) == 1
                assert [Fraction(v, row[c]) for v in row] == reduced
            count += bool(matrix)
        assert count >= 1000

    def test_forward_mode_keeps_the_pivots(self):
        """reduced=False returns primitive rows in echelon form with the
        Fraction elimination's pivots; reducing them gives the default output,
        so they span the same rows."""
        count = 0
        for matrix in seeded_matrices(1200, 43):
            ints = [integer_row(row)[0] for row in matrix]
            copy = [row[:] for row in ints]
            rows, pivots = echelon(ints, reduced=False)
            assert ints == copy
            assert pivots == oracle_rref(matrix)[1]
            assert len(rows) == len(pivots)
            for row, c in zip(rows, pivots):
                assert math.gcd(*row) == 1
                assert not any(row[:c]) and row[c]
            assert echelon(rows) == echelon(ints)
            count += bool(matrix)
        assert count >= 1000


class TestIntegerRows:
    def test_rows_are_a_positive_multiple_of_d(self):
        for basis, _ in seeded_bases(300, 53):
            for ints, diff in zip(basis.integer_rows, differences(basis.points)):
                nonzero = [(a, b) for a, b in zip(ints, diff) if b]
                assert all(a == 0 for a, b in zip(ints, diff) if not b)
                if nonzero:
                    scale = Fraction(nonzero[0][0]) / nonzero[0][1]
                    assert scale > 0 and all(a == scale * b for a, b in nonzero)

    def test_contains_matches_affine_coefficients(self):
        inside = outside = zero_dim = 0
        for basis, rng in seeded_bases(600, 59):
            point = hull_point(basis, rng)
            if rng.random() < 0.5:
                e = rng.randrange(basis.ground_size)
                point = tuple(v + (Fraction(1, rng.randint(1, 3)) if i == e else 0)
                              for i, v in enumerate(point))
            want = oracle_in_hull(basis.points, point)
            assert basis.contains(point) == want
            inside += want
            outside += not want
            zero_dim += basis.hull_dimension == 0
        assert inside >= 200 and outside >= 200 and zero_dim >= 50

    def test_contains_checks_dimension_and_floats(self):
        with pytest.raises(InvalidInstance, match="wrong dimension"):
            PARALLEL.contains([1])
        with pytest.raises(InvalidInstance, match="floats are not exact"):
            PARALLEL.contains([0.5, 0.5])

    def test_no_fraction_elimination_on_the_integer_paths(self):
        """`echelon` is the one elimination in the program: no module defines
        a second Gauss-Jordan, and `linalg` defines nothing else."""
        defined = {}
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "idsets").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined[path.stem] = {node.name for node in ast.walk(tree)
                                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert len(defined) > 10
        for module, names in defined.items():
            assert not names & {"rref", "solve_linear", "dependency", "matrix_rank"}, module
        assert defined["linalg"] == {"exact", "as_vector", "echelon", "integer_row",
                                     "ratio_row", "_primitive", "vec_dot"}


class TestAffineBasis:
    def test_rejects_dependent_points(self, tmp_path, capsys):
        # The basis builds; every entry point refuses it with one text.
        points = [[0, 0], [1, 1], [2, 2]]
        basis = AffineBasis(points)
        dependent = "^basis points are not affinely independent$"
        for call in (
            lambda: min_weight_identifying_from_basis(basis),
            lambda: verify_identifying_from_basis(basis, {0, 1}),
            lambda: verify_identifying_from_basis(basis, set()),
            lambda: basis.contains((3, 3)),
            lambda: convex_tolls(basis, {0, 1}, linear_cost([1, 1]), (3, 3)),
        ):
            with pytest.raises(InvalidInstance, match=dependent):
                call()
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"points": points}))
        for argv in (["linear-identify", "--basis", str(path)],
                     ["tolls", "--mode", "convex", "--basis", str(path), "--S", "0,1",
                      "--target", "3,3", "--cost", "linear:1,1"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("invalid input: basis points are not affinely independent\n")

    def test_equality_hash_and_repr(self):
        # Equal points as Fractions, however written or read, make equal
        # bases with one hash; the repr shows the Fraction points.
        basis = AffineBasis([[1, Fraction(1, 2)], [0, 3]])
        same = [AffineBasis([[Fraction(2, 2), "1/2"], [(0), Fraction(6, 2)]]),
                parse_affine_basis({"points": [["1", "2/4"], [0, "3"]]})]
        for other in same:
            assert other == basis and hash(other) == hash(basis)
            assert repr(other) == repr(basis) == (
                "AffineBasis(points=((Fraction(1, 1), Fraction(1, 2)), "
                "(Fraction(0, 1), Fraction(3, 1))))")
        for points in ([[1, Fraction(1, 3)], [0, 3]], [[2, 1], [0, 6]], [[1, Fraction(1, 2)]]):
            assert AffineBasis(points) != basis
        assert len({basis, *same}) == 1
        with pytest.raises(AttributeError):
            basis.points = ()

    def test_single_point_dimension_zero(self):
        assert AffineBasis([[3, 4, 5]]).hull_dimension == 0

    @pytest.mark.parametrize("call", [
        lambda: quadratic_cost("ab"),
        lambda: linear_cost(["1/0"]),
        lambda: WeightedGroundSet(["x"]),
        lambda: AffineBasis([["a"]]),
        lambda: exact(None),
    ], ids=["quadratic-str", "zero-denominator", "weight-str", "basis-str", "none"])
    def test_what_fraction_refuses_is_invalid(self, call):
        with pytest.raises(InvalidInstance, match="^not an exact rational"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: linear_cost("12"),
        lambda: quadratic_cost("12"),
        lambda: AffineBasis(["01", "10"]),
    ], ids=["linear", "quadratic", "basis"])
    def test_refuses_a_string_vector(self, call):
        # A string iterates as one value per character: "12" is not (1, 2).
        with pytest.raises(InvalidInstance,
                           match="^not an exact rational vector: '[0-9]+' is a string$"):
            call()

    @pytest.mark.parametrize("call, kind", [
        (lambda: as_vector(b"12"), "byte string"),
        (lambda: as_vector(bytearray(b"12")), "byte string"),
        (lambda: as_vector({"0": 1, "1": 2}), "mapping"),
        (lambda: AffineBasis([b"01", b"10"]), "byte string"),
        (lambda: AffineBasis([{"0": 0}, {"0": 1}]), "mapping"),
    ], ids=["bytes", "bytearray", "mapping", "basis-bytes", "basis-mapping"])
    def test_refuses_bytes_and_mappings(self, call, kind):
        # Bytes iterate as their codes (49, 50) and a mapping as its keys.
        with pytest.raises(InvalidInstance,
                           match=f"^not an exact rational vector: .* is a {kind}$"):
            call()

    @pytest.mark.parametrize("points, kind", [
        ("01", "string"), (b"01", "byte string"), ({(0, 0): 1, (1, 0): 1}, "mapping"),
    ], ids=["string", "bytes", "mapping"])
    def test_refuses_a_string_bytes_or_mapping_of_points(self, points, kind):
        # A mapping was read as the list of its keys, the points (0, 0) and (1, 0).
        with pytest.raises(InvalidInstance,
                           match=f"^basis points must be a sequence, not the {kind} "):
            AffineBasis(points)

    def test_rejects_float_coordinates(self):
        with pytest.raises(InvalidInstance, match="floats are not exact"):
            as_vector([0.1])
        with pytest.raises(InvalidInstance, match="floats are not exact"):
            AffineBasis([[1, 0], [0.5, 0.5]])
        # 0.1 would add 3602879701896397/36028797018963968, not 1/10.
        for call in (
            lambda: linear_cost([1, 2], 0.1),
            lambda: controlling_counterexample_check([(0,), (2,)], [0],
                                                     [CostOracle(lambda x: 0.1)]),
            lambda: discrete_tolls(from_strings(["10", "01"]), {0},
                                   linear_cost([0, 0]), (0, 1), margin=0.5),
        ):
            with pytest.raises(InvalidInstance, match="floats are not exact"):
                call()


class TestAxIndependent:
    def test_single_element(self):
        assert ax_independent(PARALLEL, {0})

    def test_full_set_dependent(self):
        assert not ax_independent(PARALLEL, {0, 1})

    def test_single_point_all_independent(self):
        basis = AffineBasis([[2, 2, 2]])
        assert ax_independent(basis, {0, 1, 2})


class TestMinWeight:
    def test_weighted_parallel(self):
        s = min_weight_identifying_from_basis(PARALLEL, WeightedGroundSet([1, 5]))
        assert s == {0}

    def test_single_point_empty(self):
        assert min_weight_identifying_from_basis(AffineBasis([[1, 2]])) == frozenset()

    def test_gap_family_k1_flow_polytope(self):
        inst = gen_tight_gap_family(1)
        basis = flow_polytope_basis(inst.graph, inst.st)
        s = min_weight_identifying_from_basis(basis)
        assert len(s) == basis.hull_dimension

    def test_size_always_equals_dimension(self):
        rng = random.Random(7)
        for _ in range(25):
            dim = rng.randint(1, 4)
            ground = rng.randint(dim, dim + 3)
            basis = random_basis(rng, dim, ground)
            w = WeightedGroundSet(random_weights(rng, ground))
            s = min_weight_identifying_from_basis(basis, w)
            assert len(s) == dim
            ok, _ = verify_identifying_from_basis(basis, s)
            assert ok

    def test_same_set_as_element_greedy(self):
        # Entries in {0, 1} give zero and parallel columns; weights in 0..3 tie.
        rng = random.Random(71)
        for trial in range(200):
            dim = rng.randint(0, 4)
            ground = rng.randint(max(dim, 1), dim + 4)
            basis = random_basis(rng, dim, ground, low=0, high=1 if trial % 2 else 3)
            w = WeightedGroundSet([rng.randint(0, 3) for _ in range(ground)])
            assert min_weight_identifying_from_basis(basis, w) == oracle_linear_greedy(
                differences(basis.points), ground, w)


class TestVerify:
    def test_parallel_empty_false(self):
        ok, delta = verify_identifying_from_basis(PARALLEL, set())
        assert not ok
        assert delta in ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))

    def test_parallel_singleton_true(self):
        ok, _ = verify_identifying_from_basis(PARALLEL, {1})
        assert ok

    def test_full_set_always_true(self):
        basis = AffineBasis([[0, 0, 0], [1, 0, 1]])
        ok, _ = verify_identifying_from_basis(basis, {0, 1, 2})
        assert ok

    def test_witness_direction_stays_in_hull(self):
        basis = AffineBasis([[0, 0, 0], [1, 1, 0], [0, 1, 1]])
        ok, delta = verify_identifying_from_basis(basis, {1})
        if not ok:
            moved = vec_add(basis.points[0], delta)
            assert oracle_in_hull(basis.points, moved)
            assert all(delta[e] == 0 for e in {1})
            assert any(v != 0 for v in delta)

    def test_every_subset_matches_rank_of_columns(self):
        rng = random.Random(73)
        for trial in range(40):
            dim = rng.randint(0, 3)
            ground = rng.randint(max(dim, 1), dim + 3)
            basis = random_basis(rng, dim, ground, low=0, high=1 if trial % 2 else 2)
            diffs = differences(basis.points)
            for s in all_subsets(range(ground)):
                ok, delta = verify_identifying_from_basis(basis, s)
                assert ok == (oracle_rank([[d[e] for e in sorted(s)] for d in diffs]) == dim)
                rest = [e for e in range(ground) if e not in s]
                units = [[int(e == f) for e in range(ground)] for f in rest]
                assert ax_independent(basis, rest) == (
                    oracle_rank(list(diffs) + units) == dim + len(rest))
                if ok:
                    assert delta is None
                    continue
                assert any(v != 0 for v in delta)
                assert all(delta[e] == 0 for e in s)
                assert oracle_rank(list(diffs) + [delta]) == dim

    def test_witness_matches_the_fraction_oracle(self):
        """A negative verdict's delta is the Fraction oracle's, exactly. Most
        bases mix point denominators, so a wrong scale c_j shows; k = 0
        bases are always identifying."""
        negative = mixed = zero_dim = 0
        for basis, rng in seeded_bases(3000, 79):
            n = basis.ground_size
            s = {e for e in range(n) if rng.random() < 0.4}
            ok, delta = verify_identifying_from_basis(basis, s)
            verdict, want = oracle_convex_tolls(basis, s, linear_cost([0] * n),
                                                basis.points[0])
            assert ok == (verdict != "not identifying")
            if ok:
                assert delta is None
                zero_dim += basis.hull_dimension == 0
                continue
            assert delta == want and all(type(v) is Fraction for v in delta)
            negative += 1
            mixed += len({integer_row(p)[1] for p in basis.points}) > 1
        assert negative >= 1000 and mixed >= 800 and zero_dim >= 100, (negative, mixed, zero_dim)

    def test_rejects_out_of_range_ids(self):
        for s in ({2}, {-1}):
            with pytest.raises(InvalidInstance):
                verify_identifying_from_basis(PARALLEL, s)
            with pytest.raises(InvalidInstance):
                ax_independent(PARALLEL, s)


class TestFlowConsistency:
    def test_exhaustive_three_node_graphs(self):
        rng = random.Random(31)
        for g in all_simple_digraphs(3):
            st = StPair(0, 2)
            if not has_st_path(g, st) or g.arc_count == 0:
                continue
            w = WeightedGroundSet(random_weights(rng, g.arc_count, max_num=5))
            flow_result = min_weight_flow_identifying(g, st, w)
            basis = flow_polytope_basis(g, st)
            s = min_weight_identifying_from_basis(basis, w)
            assert w.total(s) == flow_result.total_weight
            assert len(s) == len(flow_result.identifying_set)

    def test_seeded_multigraphs_up_to_six_nodes(self):
        rng = random.Random(37)
        for g, st in seeded_multigraphs(30, seed=101, max_arcs=8):
            if not has_st_path(g, st):
                continue
            w = WeightedGroundSet(random_weights(rng, g.arc_count, max_num=5))
            flow_result = min_weight_flow_identifying(g, st, w)
            basis = flow_polytope_basis(g, st)
            s = min_weight_identifying_from_basis(basis, w)
            assert w.total(s) == flow_result.total_weight
            assert basis.hull_dimension == len(flow_result.identifying_set)


def digest_lines(count: int, seed: int):
    """One JSON line per answer on `count` seeded bases: the min-weight set
    under random weights, hull membership of an inside and a shifted point,
    then for one random S of every size 0..n the verdict and witness and, for
    about a third of the identifying S, the convex tolls of a linear or
    quadratic cost."""
    for basis, rng in seeded_bases(count, seed):
        n = basis.ground_size
        w = WeightedGroundSet([rng.randint(0, 4) for _ in range(n)])
        yield json.dumps(["min", sorted(min_weight_identifying_from_basis(basis, w))])
        target = hull_point(basis, rng)
        shifted = tuple(v + (e == 0) for e, v in enumerate(target))
        yield json.dumps(["contains", basis.contains(target), basis.contains(shifted)])
        for size in range(n + 1):
            s = sorted(rng.sample(range(n), size))
            ok, delta = verify_identifying_from_basis(basis, s)
            yield json.dumps(["verify", s, ok, None if ok else [str(v) for v in delta]])
            if ok and rng.random() < 0.3:
                cost = (linear_cost if rng.random() < 0.5 else quadratic_cost)(
                    [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)])
                gamma = convex_tolls(basis, s, cost, target).gamma
                yield json.dumps(["tolls", [[e, str(v)] for e, v in sorted(gamma.items())]])


class TestLinearDigest:
    # sha256 of `digest_lines(1200, 83)`, recorded with Gauss-Jordan in every
    # caller of `echelon`; the forward-only elimination must not move it.
    DIGEST = "5cf8e2b7a613275d08d4316e86d77e30e62ad386fbc31ad5768fb2a2be1db3f6"

    def test_pivots_witnesses_and_tolls_are_pinned(self):
        digest = hashlib.sha256()
        verdicts = {True: 0, False: 0}
        sizes = set()
        tolls = 0
        for line in digest_lines(1200, 83):
            digest.update(f"{line}\n".encode())
            kind, *rest = json.loads(line)
            if kind == "verify":
                verdicts[rest[1]] += 1
                sizes.add(len(rest[0]))
            tolls += kind == "tolls"
        assert verdicts[True] >= 1000 and verdicts[False] >= 1000 and tolls >= 1000, \
            (verdicts, tolls)
        assert sizes == set(range(9))
        assert digest.hexdigest() == self.DIGEST


def seeded_mixed_bases(count: int, seed: int):
    """(points, rng) for count bases of Q^n, n <= 6, about a third of them
    dependent: a repeated point, an affine combination of two others, or
    more than n + 1 points; the rest are drawn like `seeded_bases`."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        k = rng.randint(0, min(n, 4))
        points = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                  for _ in range(k + 1)]
        kind = rng.random()
        if kind < 0.12 and k:
            points[rng.randint(1, k)] = list(rng.choice(points))
        elif kind < 0.26 and k >= 2:
            a, b = rng.sample(points[:k], 2)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            points[k] = [x + lam * (y - x) for x, y in zip(a, b)]
        elif kind < 0.33:
            points += [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n + 1 - k)]
        yield points, rng


def outcome(call):
    """The value a call returns, a toll vector as (size, gamma items in
    order, support), or the (type, text, witness) of the library error it
    raises."""
    try:
        value = call()
    except IdsetsError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    if isinstance(value, TollVector):
        return value.size, list(value.gamma.items()), value.support
    return value


class TestOneElimination:
    """The basis checks independence on first use and a toll request
    eliminates once; every answer and refusal is that of the basis that
    eliminates when it is built (`EagerAffineBasis`)."""

    def test_answers_and_refusals_match_the_eager_basis(self):
        seen: Counter[str] = Counter()
        for points, rng in seeded_mixed_bases(600, 5601):
            basis, refusal = AffineBasis(points), None
            try:
                eager = EagerAffineBasis(points)
            except InvalidInstance as exc:
                eager, refusal = None, ("InvalidInstance", str(exc), None)
            seen["dependent" if eager is None else "independent"] += 1

            def check(label, new, old):
                got = outcome(new)
                assert got == (refusal if eager is None else outcome(old)), (label, points)
                # An error's type name, a verdict, or the type of an answer.
                kind = got[0] if isinstance(got, tuple) and isinstance(got[0], (str, bool)) \
                    else type(got).__name__
                seen[f"{label} {kind}"] += 1

            n = len(points[0])
            w = WeightedGroundSet(random_weights(rng, n))
            check("identify", lambda: min_weight_identifying_from_basis(basis, w),
                  lambda: eager_min_weight_identifying(eager, w))
            inside = hull_point(basis, rng)
            outside = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            for target in (inside, outside):
                check("contains", lambda: basis.contains(target),
                      lambda: eager.contains(target))
            supports = [sorted(rng.sample(range(n), size)) for size in range(n + 1)]
            if eager is not None:
                supports.append(sorted(eager_min_weight_identifying(eager, w)))
            for s in supports:
                check("verify", lambda: verify_identifying_from_basis(basis, s),
                      lambda: eager_verify_identifying(eager, s))
            for s in supports[-3:]:
                for make in (linear_cost, quadratic_cost):
                    cost = make([Fraction(rng.randint(0, 5), rng.randint(1, 3))
                                 for _ in range(n)])
                    for target in (inside, outside):
                        check("tolls", lambda: convex_tolls(basis, s, cost, target),
                              lambda: eager_convex_tolls(eager, s, cost, target))
        assert seen["dependent"] >= 100 and seen["independent"] >= 300, seen
        for key in ("identify frozenset", "contains bool", "verify True", "verify False",
                    "tolls tuple", "tolls NotIdentifying", "tolls TargetOutsideAffineHull"):
            assert seen[key] >= 50, (key, seen)
        for label in ("identify", "contains", "verify", "tolls"):
            assert seen[f"{label} InvalidInstance"] >= 100, (label, seen)

    def test_one_echelon_per_request(self, tmp_path, monkeypatch, capsys):
        # One elimination for a CLI linear-identify, a positive verify and a
        # CLI convex toll request; the basis itself eliminates nothing.
        calls = []

        def counting(rows, reduced=True):
            calls.append(reduced)
            return echelon(rows, reduced)

        for module in ("idsets.linear", "idsets.tolls"):
            monkeypatch.setattr(f"{module}.echelon", counting)
        for index, (basis, rng) in enumerate(seeded_bases(40, 5602)):
            n = basis.ground_size
            path = tmp_path / f"basis{index}.json"
            path.write_text(json.dumps({"points": [[str(v) for v in p] for p in basis.points]}))
            calls.clear()
            assert main(["linear-identify", "--basis", str(path)]) == 0
            s = json.loads(capsys.readouterr().out)["S"]
            assert len(calls) == 1
            calls.clear()
            assert verify_identifying_from_basis(basis, s) == (True, None)
            assert len(calls) == 1
            target = ",".join(map(str, hull_point(basis, rng)))
            calls.clear()
            assert main(["tolls", "--mode", "convex", "--basis", str(path), "--S",
                         ",".join(map(str, s)), f"--target={target}", "--cost",
                         "quadratic:" + ",".join(str(rng.randint(0, 3)) for _ in range(n))]) == 0
            capsys.readouterr()
            assert len(calls) == 1


# ---------------------------------------------------------------- fuzzing

JUNK = st_.one_of(st_.integers(-2, 3), st_.floats(), st_.booleans(), st_.text(max_size=3),
                  st_.binary(max_size=3), st_.binary(max_size=3).map(bytearray),
                  st_.dictionaries(st_.text(max_size=2), st_.integers(0, 2), max_size=2),
                  st_.none(), st_.fractions(-2, 2, max_denominator=3))
NESTED = st_.recursive(JUNK, lambda inner: st_.lists(inner, max_size=4), max_leaves=8)
RATIONALS = st_.one_of(st_.integers(0, 3), st_.fractions(0, 2, max_denominator=3),
                       st_.sampled_from(["1/2", "3", "-1"]))


def half_valid(valid):
    """The valid draw half the time; otherwise one malformed value or a list
    of them, of any length."""
    return st_.one_of(valid, st_.lists(JUNK, max_size=4), NESTED)


@settings(max_examples=300, deadline=None)
@given(data=st_.data())
def test_weight_and_point_arguments_raise_only_library_errors(data):
    # Weights and rational vectors as ints, floats, bools, strings, bytes,
    # mappings, None, nested lists and wrong lengths: every refusal of the
    # three constructors, and of a built basis's membership test, is an
    # IdsetsError, and a string, byte string or mapping is always refused.
    n = data.draw(st_.integers(0, 3))
    vector = half_valid(st_.lists(RATIONALS, min_size=n, max_size=n))
    build, arg = data.draw(st_.sampled_from([
        (WeightedGroundSet, vector), (as_vector, vector),
        (AffineBasis, half_valid(st_.lists(vector, min_size=1, max_size=3)))]))
    value = data.draw(arg)
    try:
        built = build(value)
        if build is AffineBasis:
            built.contains(data.draw(vector))
    except IdsetsError:
        return
    assert not isinstance(value, (str, bytes, bytearray, dict)), value
