"""Instance generators: construction counts, metadata, and the cover extraction."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from idsets.errors import InvalidInstance, NoStPath, NotIdentifying
from idsets.graphs import StPair, enumerate_st_paths, topological_order
from idsets.instances import (
    gen_bundle_instance,
    gen_random_dag,
    gen_random_digraph,
    gen_tight_gap_family,
    gen_vertex_cover_dag,
)
from idsets.paths import exact_min_path_identifying, verify_path_identifying_general

from .helpers import extract_vertex_cover, min_vertex_cover_size


class TestTightGapFamily:
    @pytest.mark.parametrize("k,nodes,arcs", [(1, 4, 4), (2, 6, 8), (3, 8, 13)])
    def test_counts(self, k, nodes, arcs):
        inst = gen_tight_gap_family(k)
        assert inst.graph.node_count == nodes
        assert inst.graph.arc_count == arcs
        assert (k + 2) * (k + 1) // 2 + k == arcs

    def test_marked_arcs_recorded(self):
        inst = gen_tight_gap_family(3)
        marked = inst.metadata["marked_arcs"]
        assert len(marked) == 3
        assert [inst.graph.arcs[a] for a in marked] == [(1, 2), (3, 4), (5, 6)]

    def test_is_dag(self):
        for k in (1, 2, 3, 4):
            topological_order(gen_tight_gap_family(k).graph)  # NotAcyclic on a cycle

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInstance):
            gen_tight_gap_family(0)

    def test_flow_optimum_formula_large_k(self):
        # flow side needs no path brute force: |S'| = k(k+1)/2 for any k
        from idsets.flows import min_weight_flow_identifying

        for k in (5, 10, 25, 50):
            inst = gen_tight_gap_family(k)
            result = min_weight_flow_identifying(inst.graph, inst.st)
            assert len(result.identifying_set) == k * (k + 1) // 2


class TestVertexCoverDag:
    def test_path3_counts(self):
        inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 1)
        assert inst.graph.node_count == 7
        assert inst.graph.arc_count == 9

    def test_single_edge_counts(self):
        inst = gen_vertex_cover_dag(2, [(0, 1)], 2)
        assert inst.graph.node_count == 7
        assert inst.graph.arc_count == 9

    def test_empty_edges_rejected(self):
        with pytest.raises(InvalidInstance):
            gen_vertex_cover_dag(3, [], 1)

    def test_set_of_edges_rejected(self):
        # A set would number the edges, and so the arcs, in hash order.
        with pytest.raises(InvalidInstance, match="^vc_edges must be a sequence, not the set "):
            gen_vertex_cover_dag(3, {(0, 1), (1, 2)}, 1)

    def test_ell_below_one_rejected(self):
        with pytest.raises(InvalidInstance, match="^ell must be >= 1$"):
            gen_vertex_cover_dag(3, [(0, 1)], 0)

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 1), (1, 1)],
                             ids=["past-the-end", "negative", "loop"])
    def test_bad_edge_rejected(self, edge):
        a, b = sorted(edge)
        with pytest.raises(InvalidInstance, match=rf"^bad edge \({a},{b}\)$"):
            gen_vertex_cover_dag(3, [(0, 1), edge], 1)

    @pytest.mark.parametrize("edge", [5, (0, 1, 2), (0,)],
                             ids=["an-int", "a-triple", "a-single"])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        # Unpacked by hand, it raised a bare TypeError or ValueError.
        with pytest.raises(InvalidInstance,
                           match=rf"^each edge must be a pair of vertices, got {re.escape(repr(edge))}$"):
            gen_vertex_cover_dag(3, [(0, 1), edge], 1)

    def test_is_dag_with_expected_paths(self):
        inst = gen_vertex_cover_dag(4, [(0, 1), (1, 2), (2, 3)], 2)
        topological_order(inst.graph)  # NotAcyclic on a cycle
        assert len(enumerate_st_paths(inst.graph, inst.st)) == 3 * 2 * 2


class TestExtractVertexCover:
    def test_normalized_set_passthrough(self):
        # the canonical small set: one source arc plus all copies of the middle
        # vertex; already disjoint from the middle arcs
        inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 1)
        tail_arc = {(v, i): a for v, i, a in inst.metadata["tail_arcs"]}
        s = {inst.metadata["E_s"][0], tail_arc[(1, 1)]}
        result = extract_vertex_cover(inst, s)
        assert result.normalized_set == frozenset(s)
        assert result.covers == (frozenset({1}),)

    def test_case_one_rewrite(self):
        # middle arc plus its source arc: the middle arc trades for the tail arc
        inst = gen_vertex_cover_dag(2, [(0, 1)], 1)
        meta = inst.metadata
        mid = meta["E_prime"][0]
        ei, v, i = meta["mid_info"][0]
        tail_arc = {(vv, ii): aa for vv, ii, aa in meta["tail_arcs"]}
        other_vertex = 1 - v
        s = {meta["E_s"][ei], mid, tail_arc[(other_vertex, 1)]}
        ok, _ = verify_path_identifying_general(inst.graph, inst.st, s)
        assert ok
        result = extract_vertex_cover(inst, s)
        assert mid not in result.normalized_set
        assert tail_arc[(v, i)] in result.normalized_set
        assert len(result.normalized_set) <= len(s)

    def test_not_identifying_rejected(self):
        inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 1)
        with pytest.raises(NotIdentifying):
            extract_vertex_cover(inst, set())

    def test_minimal_sets_yield_minimum_covers(self):
        cases = [
            (2, [(0, 1)], (1, 2)),
            (3, [(0, 1), (1, 2)], (1, 2)),
            (3, [(0, 1), (1, 2), (0, 2)], (1,)),
            (4, [(0, 1), (0, 2), (0, 3)], (1,)),
            (4, [(0, 1), (1, 2), (2, 3)], (1,)),
        ]
        for n, edges, ells in cases:
            tau = min_vertex_cover_size(n, edges)
            for ell in ells:
                inst = gen_vertex_cover_dag(n, edges, ell)
                s = exact_min_path_identifying(inst.graph, inst.st).identifying_set
                result = extract_vertex_cover(inst, s)
                assert len(result.normalized_set) <= len(s)
                for cover in result.covers:
                    assert all(a in cover or b in cover for a, b in edges)
                assert min(len(cover) for cover in result.covers) == tau


class TestVcDagMinimumSizes:
    def test_brute_forced_minima_regression(self):
        # pins the true optima of the construction on small graphs; note that
        # dropping one source arc is free for ell = 1 (membership of the last
        # source arc is implied by the others), while copy pairs of uncovered
        # endpoints push the optimum up for ell = 2
        cases = [
            (2, [(0, 1)], 1, 1),
            (2, [(0, 1)], 2, 3),
            (3, [(0, 1), (1, 2)], 1, 2),
            (3, [(0, 1), (1, 2)], 2, 5),
            (3, [(0, 1), (1, 2), (0, 2)], 1, 4),
            (4, [(0, 1), (0, 2), (0, 3)], 1, 3),
        ]
        for n, edges, ell, expected in cases:
            inst = gen_vertex_cover_dag(n, edges, ell)
            got = len(exact_min_path_identifying(inst.graph, inst.st).identifying_set)
            assert got == expected, (n, edges, ell)


class TestBundle:
    def base(self):
        from idsets.graphs import Digraph

        return Digraph(4, [(0, 1), (1, 2), (2, 3)]), StPair(0, 3)

    @pytest.mark.parametrize("arc", [3, -1])
    def test_arc_out_of_range_rejected(self, arc):
        g, st = self.base()
        with pytest.raises(InvalidInstance, match=f"^arc id {arc} out of range$"):
            gen_bundle_instance(g, st, arc, 2)

    def test_bundle_on_unique_path(self):
        g, st = self.base()
        inst = gen_bundle_instance(g, st, 1, 3)
        bundle = set(inst.metadata["bundle"])
        assert len(bundle) == 3
        result = exact_min_path_identifying(inst.graph, inst.st)
        assert len(result.identifying_set) == 2
        assert result.identifying_set <= bundle

    def test_bundle_size_two_needs_one(self):
        g, st = self.base()
        inst = gen_bundle_instance(g, st, 1, 2)
        result = exact_min_path_identifying(inst.graph, inst.st)
        assert len(result.identifying_set) == 1

    def test_off_path_bundle_irrelevant(self):
        from idsets.graphs import Digraph

        g = Digraph(4, [(0, 1), (2, 3), (3, 1)])
        inst = gen_bundle_instance(g, StPair(0, 1), 1, 4)
        s = set(range(inst.graph.arc_count)) - set(inst.metadata["bundle"])
        ok, _ = verify_path_identifying_general(inst.graph, inst.st, s)
        assert ok

    def test_other_arc_ids_stable(self):
        g, st = self.base()
        inst = gen_bundle_instance(g, st, 1, 3)
        assert inst.graph.arcs[0] == g.arcs[0]
        assert inst.graph.arcs[2] == g.arcs[2]

    def test_rejects_small_bundle(self):
        g, st = self.base()
        with pytest.raises(InvalidInstance):
            gen_bundle_instance(g, st, 1, 1)


class TestNoTruncation:
    """Generators read ids and counts by the library's integer rule: a
    float or string is rejected, never truncated by int()."""

    @pytest.mark.parametrize("build, args", [
        (gen_tight_gap_family, (2.0,)),
        (gen_vertex_cover_dag, (3, [(0, 1.9)], 1)),
        (gen_vertex_cover_dag, (3, [("0", 1)], 1)),
        (gen_vertex_cover_dag, (3.0, [(0, 1)], 1)),
        (gen_vertex_cover_dag, (3, [(0, 1)], 1.5)),
        (gen_random_dag, (3.0, 0.5, 0)),
        (gen_random_digraph, (3.0, 0.5, 0)),
        (gen_bundle_instance, (*TestBundle().base(), 1.0, 2)),
        (gen_bundle_instance, (*TestBundle().base(), 1, 2.0)),
    ], ids=["tight-gap-k", "vc-float-endpoint", "vc-str-endpoint", "vc-vertices",
            "vc-ell", "random-dag-nodes", "random-digraph-nodes", "bundle-arc",
            "bundle-size"])
    def test_rejected(self, build, args):
        with pytest.raises(InvalidInstance, match="must be an integer"):
            build(*args)

    def test_extract_reads_a_one_shot_iterable(self):
        inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 1)
        s = frozenset(inst.metadata["E_s"]) | {a for _, _, a in inst.metadata["tail_arcs"]}
        assert extract_vertex_cover(inst, iter(sorted(s))) == extract_vertex_cover(inst, s)


class TestRandomGenerators:
    def test_complete_dag(self):
        inst = gen_random_dag(4, 1.0, seed=5)
        assert inst.graph.arc_count == 6
        topological_order(inst.graph)  # NotAcyclic on a cycle

    def test_empty_graph_downstream_no_path(self):
        inst = gen_random_dag(4, 0.0, seed=5)
        with pytest.raises(NoStPath):
            enumerate_st_paths(inst.graph, inst.st)

    def test_seed_determinism(self):
        a = gen_random_dag(6, 0.5, seed=42)
        b = gen_random_dag(6, 0.5, seed=42)
        assert a.graph.arcs == b.graph.arcs
        assert a.st == b.st
        c = gen_random_digraph(6, 0.4, seed=9)
        d = gen_random_digraph(6, 0.4, seed=9)
        assert c.graph.arcs == d.graph.arcs

    @pytest.mark.parametrize("build", [gen_random_dag, gen_random_digraph])
    @pytest.mark.parametrize("args, match", [
        ((3, "0.5", 0), "arc_prob must be a real number"),
        ((3, None, 0), "arc_prob must be a real number"),
        ((3, True, 0), "arc_prob must be a real number"),
        ((3, 1.5, 0), r"arc_prob in \[0, 1\]"),
        ((3, float("nan"), 0), r"arc_prob in \[0, 1\]"),
        ((3, 0.5, 0.5), "seed must be an integer"),
        ((3, 0.5, "0"), "seed must be an integer"),
    ], ids=["str-prob", "none-prob", "bool-prob", "prob-above-one", "nan-prob",
            "float-seed", "str-seed"])
    def test_bad_arguments_are_invalid_instance(self, build, args, match):
        with pytest.raises(InvalidInstance, match=match):
            build(*args)

    @pytest.mark.parametrize("build", [gen_random_dag, gen_random_digraph])
    def test_exact_probabilities_accepted(self, build):
        assert build(5, Fraction(1, 2), 3).graph.arcs == build(5, 0.5, 3).graph.arcs
        assert build(4, 1, 3).graph.arc_count == build(4, 1.0, 3).graph.arc_count

    def test_dags_always_acyclic(self):
        for seed in range(25):
            inst = gen_random_dag(7, 0.6, seed=seed)
            topological_order(inst.graph)  # NotAcyclic on a cycle
