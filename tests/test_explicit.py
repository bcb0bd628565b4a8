"""Explicit solution lists: greedy cover, exact optimum, verification."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from idsets.caps import Caps
from idsets.errors import InvalidInstance, SubsetExplosion
from idsets.explicit import (
    SolutionList,
    exact_identifying,
    greedy_identifying,
    verify_explicit_identifying,
)
from idsets.graphs import WeightedGroundSet

from .helpers import all_subsets, from_sets, from_strings, oracle_greedy_pairs


def random_solution_list(rng: random.Random, dim: int, count: int) -> SolutionList:
    rows = {tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(count)}
    return SolutionList(dim, sorted(rows))


class TestSolutionList:
    def test_dedupe(self):
        x = from_strings(["01", "01", "10"])
        assert len(x) == 2

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInstance):
            SolutionList(2, [(0, 2)])

    def test_rejects_fractional_coordinates(self):
        for row in ((Fraction(3, 2), 0), (Fraction(1, 2), 1), ("1", 0)):
            with pytest.raises(InvalidInstance):
                SolutionList(2, [row])
        assert SolutionList(2, [(Fraction(1), 0)]).vectors == ((1, 0),)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInstance):
            SolutionList(2, [(0, 1, 1)])

    def test_rejects_non_integer_or_negative_dimension(self):
        for dimension in (2.0, Fraction(2), "2", -1):
            with pytest.raises(InvalidInstance, match="dimension must be"):
                SolutionList(dimension, [(0, 1)] if dimension != -1 else [])
        assert SolutionList(0, [()]).vectors == ((),)

    @pytest.mark.parametrize("vectors, kind", [
        ("01", "string"), (b"01", "byte string"), ({(0, 1): "a", (1, 0): "b"}, "mapping"),
    ], ids=["string", "bytes", "mapping"])
    def test_refuses_strings_bytes_and_mappings(self, vectors, kind):
        # A mapping was read as the list of its keys, the rows (0, 1) and (1, 0).
        with pytest.raises(InvalidInstance,
                           match=f"^vectors must be a sequence, not the {kind} "):
            SolutionList(2, vectors)

    @pytest.mark.parametrize("vector, kind", [
        ({0: "a", 1: "b"}, "mapping"), (bytes([0, 1]), "byte string"),
    ], ids=["mapping", "bytes"])
    def test_refuses_a_mapping_or_bytes_vector(self, vector, kind):
        # Each was read as its keys or bytes, the row (0, 1).
        with pytest.raises(InvalidInstance,
                           match=f"^each vector must be a sequence, not the {kind} "):
            SolutionList(2, [vector])

    def test_refuses_a_coordinate_that_int_refuses(self):
        # 1+0j equals 1, so it passes the 0/1 check, but int() refuses it.
        with pytest.raises(InvalidInstance, match=(
                "^vector coordinate must be an integer 0 or 1: .*not 'complex'$")):
            SolutionList(1, [(1 + 0j,)])

    def test_negative_dimension_is_refused_as_a_count(self):
        # The rule and message of every count (node_count, size, ground_size).
        for build in (SolutionList, SolutionList._from_rows):
            with pytest.raises(InvalidInstance, match="^dimension must be nonnegative$"):
                build(-1, [])

    def test_from_rows_matches_the_constructor(self):
        # The parser's path skips the per-coordinate checks of rows that are
        # already 0/1 ints; its result and its errors are the constructor's.
        rng = random.Random(37)
        for trial in range(300):
            dim = rng.randint(-2, 6)
            width = max(dim, 0)
            rows = [tuple(rng.randint(0, 1) for _ in range(width))
                    for _ in range(rng.randint(0, 8))]
            rows += rng.sample(rows, min(len(rows), rng.randint(0, 3)))  # duplicates
            if rows and rng.random() < 0.3:
                i = rng.randrange(len(rows))
                rows[i] = rows[i][:-1] if rows[i] and rng.random() < 0.5 else rows[i] + (1,)
            rng.shuffle(rows)
            try:
                want = SolutionList(dim, rows)
            except InvalidInstance as exc:
                with pytest.raises(InvalidInstance) as got:
                    SolutionList._from_rows(dim, rows)
                assert str(got.value) == str(exc), trial
                continue
            got = SolutionList._from_rows(dim, rows)
            assert (got.dimension, got.vectors) == (want.dimension, want.vectors), trial
            assert got == want

    def test_from_strings_rejects_non_binary_characters(self):
        for strings in (["0a"], ["01", "2 "], ["1.0"]):
            with pytest.raises(InvalidInstance, match="expected a 0/1 string"):
                from_strings(strings)

    def test_from_sets(self):
        x = from_sets(3, [{0}, {1, 2}])
        assert x.vectors == ((1, 0, 0), (0, 1, 1))

    def test_from_sets_rejects_bad_ids(self):
        # An id outside the dimension was silently dropped.
        for dimension, sets in ((2, [{5}]), (2, [{-1}]), (2, [{0.0}]), (2.0, [{0}])):
            with pytest.raises(InvalidInstance):
                from_sets(dimension, sets)


class TestVerify:
    def test_collision(self):
        x = from_strings(["00", "01"])
        ok, witness = verify_explicit_identifying(x, {0})
        assert not ok
        assert set(witness) == {(0, 0), (0, 1)}

    def test_separating_column(self):
        x = from_strings(["00", "01"])
        ok, _ = verify_explicit_identifying(x, {1})
        assert ok

    def test_all_columns(self):
        x = from_strings(["00", "01", "10", "11"])
        ok, _ = verify_explicit_identifying(x, {0, 1})
        assert ok

    def test_projection_uniqueness_equals_pairwise_definition(self):
        rng = random.Random(51)
        for _ in range(80):
            x = random_solution_list(rng, rng.randint(1, 6), rng.randint(1, 10))
            s = {e for e in range(x.dimension) if rng.random() < 0.5}
            ok, _ = verify_explicit_identifying(x, s)
            pairwise = all(
                any(a[e] != b[e] for e in s)
                for i, a in enumerate(x.vectors)
                for b in x.vectors[i + 1:]
            )
            assert ok == pairwise


class TestGreedy:
    def test_full_square_needs_both(self):
        x = from_strings(["00", "01", "10", "11"])
        result = greedy_identifying(x)
        assert result.identifying_set == {0, 1}

    def test_singleton_empty(self):
        x = from_strings(["0101"])
        result = greedy_identifying(x)
        assert result.identifying_set == frozenset()

    def test_heavy_column_avoided(self):
        x = from_strings(["100", "010", "001"])
        result = greedy_identifying(x, WeightedGroundSet([1, 1, 100]))
        assert result.identifying_set == {0, 1}

    def test_zero_weight_preferred(self):
        x = from_strings(["00", "01", "10", "11"])
        result = greedy_identifying(x, WeightedGroundSet([5, 0]))
        assert result.trace[0][0] == 1

    def test_output_always_verifies(self):
        rng = random.Random(53)
        for _ in range(120):
            x = random_solution_list(rng, rng.randint(1, 8), rng.randint(1, 12))
            w = WeightedGroundSet([Fraction(rng.randint(0, 6), rng.randint(1, 3))
                                   for _ in range(x.dimension)])
            result = greedy_identifying(x, w)
            ok, _ = verify_explicit_identifying(x, result.identifying_set)
            assert ok
            assert result.total_weight == w.total(result.identifying_set)

    def test_trace_counts_sum_to_pair_count(self):
        rng = random.Random(57)
        for _ in range(40):
            x = random_solution_list(rng, 5, 8)
            result = greedy_identifying(x)
            assert sum(n for _, n in result.trace) == len(x) * (len(x) - 1) // 2

    def test_matches_pairwise_oracle(self):
        rng = random.Random(59)
        for _ in range(40):
            x = random_solution_list(rng, rng.randint(1, 7), rng.randint(2, 10))
            w = WeightedGroundSet([rng.randint(0, 5) for _ in range(x.dimension)])
            result = greedy_identifying(x, w)
            assert (result.identifying_set, result.trace) == oracle_greedy_pairs(
                x.vectors, x.dimension, w)


class TestGreedyMatchesThePairOracle:
    """The packed-sum gains against the oracle that recounts every pair."""

    @staticmethod
    def weights(rng: random.Random, dim: int) -> WeightedGroundSet:
        # Zero, integer and fractional weights, some of them tied.
        return WeightedGroundSet([Fraction(rng.choice([0, 1, 1, 2, 3, 7]), rng.randint(1, 4))
                                  for _ in range(dim)])

    def test_seeded_lists(self):
        rng = random.Random(61)
        zero_weight_chosen = 0
        for _ in range(500):
            dim = rng.randint(0, 12)
            rows = [tuple(rng.randint(0, 1) for _ in range(dim))
                    for _ in range(rng.randint(1, 80))]
            x = SolutionList(dim, rows)
            w = self.weights(rng, dim)
            result = greedy_identifying(x, w)
            assert (result.identifying_set, result.trace) == oracle_greedy_pairs(
                x.vectors, dim, w)
            zero_weight_chosen += any(w[e] == 0 for e in result.identifying_set)
        assert zero_weight_chosen > 100

    def test_400_vectors_of_width_40(self):
        rng = random.Random(67)
        x = random_solution_list(rng, 40, 400)
        w = self.weights(rng, 40)
        result = greedy_identifying(x, w)
        assert len(x) == 400
        assert (result.identifying_set, result.trace) == oracle_greedy_pairs(
            x.vectors, 40, w)


class TestExact:
    def test_full_square(self):
        x = from_strings(["00", "01", "10", "11"])
        s, weight = exact_identifying(x)
        assert s == {0, 1} and weight == 2

    def test_parity_vectors(self):
        x = from_strings(["000", "011", "101", "110"])
        s, _ = exact_identifying(x)
        assert len(s) == 2

    def test_two_vectors_min_weight_coordinate(self):
        x = from_strings(["010", "001"])
        s, weight = exact_identifying(x, WeightedGroundSet([1, 5, 2]))
        assert s == {2} and weight == 2

    def test_cap(self):
        # The search visits 5 nodes in all, one past a cap of 4.
        x = from_strings(["00", "01", "10", "11"])
        with pytest.raises(SubsetExplosion, match="visited 5 nodes"):
            exact_identifying(x, caps=Caps(max_subsets=4))
        assert exact_identifying(x, caps=Caps(max_subsets=5)) == ({0, 1}, 2)

    def test_matches_subset_scan(self):
        rng = random.Random(61)
        for _ in range(60):
            x = random_solution_list(rng, rng.randint(1, 7), rng.randint(1, 9))
            w = WeightedGroundSet([rng.randint(1, 6) for _ in range(x.dimension)])
            s, weight = exact_identifying(x, w)
            best = min(
                w.total(c) for c in all_subsets(range(x.dimension))
                if verify_explicit_identifying(x, c)[0]
            )
            assert weight == best


class TestGreedyRatio:
    def test_logarithmic_bound_sampled(self):
        rng = random.Random(63)
        for _ in range(250):
            x = random_solution_list(rng, rng.randint(1, 10), rng.randint(2, 12))
            w = WeightedGroundSet([Fraction(rng.randint(1, 9), rng.randint(1, 3))
                                   for _ in range(x.dimension)])
            greedy = greedy_identifying(x, w)
            _, opt = exact_identifying(x, w)
            bound = Fraction(2 * math.log(max(len(x), 2))).limit_denominator(10**6)
            if opt == 0:
                assert greedy.total_weight == 0
            else:
                assert greedy.total_weight <= max(bound, Fraction(1)) * opt


@settings(max_examples=60, deadline=None)
@given(data=st_.data())
def test_identifying_monotone_under_supersets(data):
    dim = data.draw(st_.integers(1, 6))
    count = data.draw(st_.integers(1, 8))
    rows = data.draw(st_.lists(
        st_.tuples(*([st_.integers(0, 1)] * dim)), min_size=1, max_size=count))
    x = SolutionList(dim, rows)
    s = data.draw(st_.sets(st_.integers(0, dim - 1)))
    ok, _ = verify_explicit_identifying(x, s)
    if ok:
        extra = data.draw(st_.sets(st_.integers(0, dim - 1)))
        ok2, _ = verify_explicit_identifying(x, s | extra)
        assert ok2
