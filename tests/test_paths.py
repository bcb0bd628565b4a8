"""Path-identifying verification, exact search, and the flow-based approximation."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from idsets.caps import Caps
from idsets.errors import InvalidInstance, NoStPath, NotAcyclic, PathExplosion, SubsetExplosion
from idsets.graphs import Digraph, StPair, WeightedGroundSet
from idsets.instances import (
    gen_bundle_instance,
    gen_tight_gap_family,
    gen_vertex_cover_dag,
)
from idsets.paths import (
    approx_min_path_identifying_dag,
    exact_min_path_identifying,
    verify_path_identifying_dag,
    verify_path_identifying_general,
)

from .helpers import (
    all_subsets,
    gap_ratio,
    has_st_path,
    oracle_enumerate_paths,
    oracle_identifying_for_paths,
    oracle_verify_path_dag,
    seeded_dags,
)


class TestVerifyDag:
    def test_parallel_singleton_true(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        ok, _ = verify_path_identifying_dag(g, StPair(0, 1), {0})
        assert ok

    def test_parallel_empty_false_with_witness(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        ok, witness = verify_path_identifying_dag(g, StPair(0, 1), set())
        assert not ok
        assert {witness.path_a, witness.path_b} == {frozenset({0}), frozenset({1})}

    def test_gap_family_marked_arcs_identify(self):
        inst = gen_tight_gap_family(3)
        ok, _ = verify_path_identifying_dag(inst.graph, inst.st,
                                            inst.metadata["marked_arcs"])
        assert ok

    def test_cyclic_input_raises(self):
        g = Digraph(3, [(0, 1), (1, 2), (1, 0)])
        with pytest.raises(NotAcyclic):
            verify_path_identifying_dag(g, StPair(0, 2), set())

    @pytest.mark.parametrize("arcs, st, s, error, message", [
        ([(1, 2), (2, 1), (1, 1)], StPair(0, 5), [9], InvalidInstance, "^self-loops"),
        ([(1, 2), (2, 1)], StPair(0, 5), [9], InvalidInstance, "^node id 5 out of range$"),
        ([(1, 2), (2, 1)], StPair(0, 1), [9], NotAcyclic, "directed cycle"),
        ([(1, 0)], StPair(0, 1), [9], InvalidInstance, "^element id 9 out of range$"),
        ([(1, 0)], StPair(0, 1), [0], NoStPath, "^no path from 0 to 1$"),
    ], ids=["self-loop", "node-range", "cycle", "ids", "no-path"])
    def test_errors_come_in_the_documented_order(self, arcs, st, s, error, message):
        # Each input also holds every fault of the rows below it.
        with pytest.raises(error, match=message):
            verify_path_identifying_dag(Digraph(3, arcs), st, s)

    def test_witness_paths_are_real_and_agree_on_s(self):
        rng = random.Random(1)
        for g, st in seeded_dags(120, seed=61):
            if not has_st_path(g, st):
                continue
            real_paths = oracle_enumerate_paths(g, st)
            subset = frozenset(a for a in range(g.arc_count) if rng.random() < 0.4)
            ok, witness = verify_path_identifying_dag(g, st, subset)
            if not ok:
                assert witness.path_a in real_paths
                assert witness.path_b in real_paths
                assert witness.path_a != witness.path_b
                assert witness.path_a & subset == witness.path_b & subset

    def test_agrees_with_brute_force_on_seeded_dags(self):
        rng = random.Random(2)
        count = 0
        for g, st in seeded_dags(520, seed=67):
            if not has_st_path(g, st):
                continue
            count += 1
            subsets = all_subsets(range(g.arc_count))
            if len(subsets) > 12:
                subsets = rng.sample(subsets, 12)
            for subset in subsets:
                ok, _ = verify_path_identifying_dag(g, st, subset)
                assert ok == oracle_identifying_for_paths(g, st, set(subset))
        assert count >= 400

    def test_sweep_matches_the_per_tail_oracle(self):
        # Arcs shuffled, some doubled, random S: the one topological sweep
        # gives the per-tail loop's verdict and, when negative, its witness.
        rng = random.Random(8)
        verdicts = []
        parallel = 0
        for g, st in seeded_dags(1300, seed=83, max_nodes=8):
            if not has_st_path(g, st):
                continue
            arcs = list(g.arcs) + [a for a in g.arcs if rng.random() < 0.25]
            g = Digraph(g.node_count, rng.sample(arcs, len(arcs)))
            parallel += len(set(g.arcs)) < g.arc_count
            subset = frozenset(a for a in range(g.arc_count) if rng.random() < rng.random())
            got = verify_path_identifying_dag(g, st, subset)
            assert got == oracle_verify_path_dag(g, st, subset)
            verdicts.append(got[0])
        assert len(verdicts) >= 1000 and parallel >= 500
        assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300

    def test_sweep_keeps_only_live_ancestor_masks(self):
        # Kept to the end, the masks of an n-node path take about n^2/16
        # bytes: 29 MB at n = 20,000. Each is dropped once its node's last
        # allowed out-arc is swept.
        n = 20_000
        g, st = Digraph(n, [(v, v + 1) for v in range(n - 1)]), StPair(0, n - 1)
        tracemalloc.start()
        try:
            ok, _ = verify_path_identifying_dag(g, st, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak < 8 * 2**20

    def test_monotone_under_supersets(self):
        rng = random.Random(3)
        for g, st in seeded_dags(60, seed=71):
            if not has_st_path(g, st):
                continue
            base = frozenset(a for a in range(g.arc_count) if rng.random() < 0.5)
            ok, _ = verify_path_identifying_dag(g, st, base)
            if ok:
                extra = frozenset(a for a in range(g.arc_count) if rng.random() < 0.5)
                ok2, _ = verify_path_identifying_dag(g, st, base | extra)
                assert ok2


class TestVerifyGeneral:
    def test_single_arc_empty_set(self):
        g = Digraph(2, [(0, 1)])
        ok, _ = verify_path_identifying_general(g, StPair(0, 1), set())
        assert ok

    def test_bundle_on_path_needs_bundle_arcs(self):
        base = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        inst = gen_bundle_instance(base, StPair(0, 3), 1, 3)
        bundle = set(inst.metadata["bundle"])
        s = set(range(inst.graph.arc_count)) - bundle
        ok, witness = verify_path_identifying_general(inst.graph, inst.st, s)
        assert not ok
        assert witness.path_a ^ witness.path_b <= bundle

    def test_bundle_unreachable_tail_is_fine(self):
        # bundle hangs off a node the source cannot reach
        base = Digraph(4, [(0, 1), (2, 3), (3, 1)])
        inst = gen_bundle_instance(base, StPair(0, 1), 1, 3)
        s = set(range(inst.graph.arc_count)) - set(inst.metadata["bundle"])
        ok, _ = verify_path_identifying_general(inst.graph, inst.st, s)
        assert ok

    def test_cap_propagates(self):
        g = Digraph(2, [(0, 1)] * 5)
        with pytest.raises(PathExplosion):
            verify_path_identifying_general(g, StPair(0, 1), set(), cap=3)

    def test_matches_dag_verifier_on_dags(self):
        rng = random.Random(4)
        for g, st in seeded_dags(80, seed=73):
            if not has_st_path(g, st):
                continue
            subset = frozenset(a for a in range(g.arc_count) if rng.random() < 0.4)
            ok_dag, _ = verify_path_identifying_dag(g, st, subset)
            ok_gen, _ = verify_path_identifying_general(g, st, subset)
            assert ok_dag == ok_gen


class TestExactMinimum:
    def test_two_parallel_arcs_weighted(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        result = exact_min_path_identifying(g, StPair(0, 1), WeightedGroundSet([1, 5]))
        assert result.identifying_set == {0}
        assert result.total_weight == 1

    def test_gap_family_optimum_is_k(self):
        for k in (1, 2, 3):
            inst = gen_tight_gap_family(k)
            result = exact_min_path_identifying(inst.graph, inst.st)
            assert len(result.identifying_set) == k
            ok, _ = verify_path_identifying_dag(inst.graph, inst.st,
                                                result.identifying_set)
            assert ok

    @pytest.mark.parametrize("k", [7, 8])
    def test_gap_family_optimum_at_larger_k(self, k):
        # 128 / 256 paths and 4,216 / 14,955 distinct pair demands at k = 7 / 8.
        inst = gen_tight_gap_family(k)
        result = exact_min_path_identifying(inst.graph, inst.st)
        assert len(result.identifying_set) == k
        ok, _ = verify_path_identifying_dag(inst.graph, inst.st, result.identifying_set)
        assert ok

    def test_vc_dag_small_instance_optimum(self):
        # path graph on 3 vertices, one copy: brute-force optimum has 2 arcs
        inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 1)
        result = exact_min_path_identifying(inst.graph, inst.st)
        assert len(result.identifying_set) == 2
        # cross-check by direct subset scan against the definition
        best = min(
            len(s) for s in all_subsets(range(inst.graph.arc_count))
            if oracle_identifying_for_paths(inst.graph, inst.st, set(s))
        )
        assert best == 2

    def test_matches_brute_force_weighted(self):
        rng = random.Random(5)
        for g, st in seeded_dags(25, seed=79, max_nodes=6):
            if not has_st_path(g, st) or g.arc_count > 9:
                continue
            w = WeightedGroundSet([rng.randint(1, 7) for _ in range(g.arc_count)])
            result = exact_min_path_identifying(g, st, w)
            best = min(
                w.total(s) for s in all_subsets(range(g.arc_count))
                if oracle_identifying_for_paths(g, st, set(s))
            )
            assert result.total_weight == best
            ok, _ = verify_path_identifying_dag(g, st, result.identifying_set)
            assert ok

    def test_subset_cap(self):
        inst = gen_tight_gap_family(3)
        with pytest.raises(SubsetExplosion):
            exact_min_path_identifying(inst.graph, inst.st,
                                       caps=Caps(max_subsets=5))

    def test_greedy_start_fits_under_a_smaller_cap(self):
        # Started from the greedy cover's weight, the search visits 122 nodes
        # at k = 8; with no starting incumbent it visited 2,225.
        inst = gen_tight_gap_family(8)
        capped = exact_min_path_identifying(inst.graph, inst.st, caps=Caps(max_subsets=200))
        result = exact_min_path_identifying(inst.graph, inst.st)
        assert capped.identifying_set == result.identifying_set
        assert len(result.identifying_set) == 8


class TestApprox:
    def test_gap_family_k3_ratio_two(self):
        inst = gen_tight_gap_family(3)
        approx = approx_min_path_identifying_dag(inst.graph, inst.st)
        assert len(approx.identifying_set) == 6
        assert approx.method == "flow-approx"

    def test_single_arc_empty(self):
        g = Digraph(2, [(0, 1)])
        approx = approx_min_path_identifying_dag(g, StPair(0, 1))
        assert approx.identifying_set == frozenset()

    def test_chain_unique_path_empty(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        approx = approx_min_path_identifying_dag(g, StPair(0, 2))
        assert approx.identifying_set == frozenset()

    def test_cyclic_raises(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        with pytest.raises(NotAcyclic):
            approx_min_path_identifying_dag(g, StPair(0, 1))

    def test_self_loop_refused_before_the_sort(self):
        # The loop is also a directed cycle; NotAcyclic was raised for it.
        g = Digraph(3, [(0, 1), (1, 2), (1, 1)])
        with pytest.raises(InvalidInstance, match="^self-loops are not allowed in s-t settings$"):
            approx_min_path_identifying_dag(g, StPair(0, 2))

    def test_bound_field_is_at_least_sqrt_m(self):
        inst = gen_tight_gap_family(2)
        approx = approx_min_path_identifying_dag(inst.graph, inst.st)
        m = inst.graph.arc_count
        assert approx.approx_bound is not None
        assert approx.approx_bound ** 2 >= m

    def test_bound_is_exact_on_a_square_arc_count(self):
        # sqrt(9) = 3 and sqrt(16) = 4 are rational: the bound is rounded up
        # only when m is not a perfect square.
        for m, root in ((9, 3), (16, 4)):
            g = Digraph(m + 1, [(v, v + 1) for v in range(m)])
            assert approx_min_path_identifying_dag(g, StPair(0, m)).approx_bound == root

    def test_output_identifies_paths_on_seeded_dags(self):
        for g, st in seeded_dags(120, seed=83):
            if not has_st_path(g, st):
                continue
            approx = approx_min_path_identifying_dag(g, st)
            ok, _ = verify_path_identifying_dag(g, st, approx.identifying_set)
            assert ok


class TestGapRatio:
    def test_family_ratios(self):
        expected = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(2), 4: Fraction(5, 2)}
        for k, want in expected.items():
            inst = gen_tight_gap_family(k)
            assert gap_ratio(inst.graph, inst.st) == want

    def test_unique_path_convention(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert gap_ratio(g, StPair(0, 2)) == 1

    def test_bound_holds_on_random_dags(self):
        for g, st in seeded_dags(40, seed=89, max_nodes=6):
            if not has_st_path(g, st) or g.arc_count > 9:
                continue
            unit = WeightedGroundSet.uniform(g.arc_count)
            opt = len(exact_min_path_identifying(g, st, unit).identifying_set)
            got = len(approx_min_path_identifying_dag(g, st, unit).identifying_set)
            assert got <= (opt + 1) * opt // 2 or (opt == 0 and got == 0)
