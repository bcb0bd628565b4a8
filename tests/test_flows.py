"""Flow-identifying characterization against the definitional oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from idsets.errors import NoStPath
from idsets.flows import (
    _augment_along_cycle,
    _core_arcs,
    min_weight_flow_identifying,
    relevant_arcs,
    verify_flow_identifying,
)
from idsets.graphs import Digraph, StPair, WeightedGroundSet, _kosaraju
from idsets.instances import gen_tight_gap_family

from .helpers import (
    all_simple_digraphs,
    all_subsets,
    flow_conservation_ok,
    has_st_path,
    oracle_enumerate_paths,
    oracle_relevant_arcs,
    oracle_uniform_cycle_mixture,
    oracle_reachable_from,
    oracle_reverse_reachable_to,
    oracle_undirected_acyclic,
    random_weights,
    seeded_dags,
    seeded_multigraphs,
    seeded_negative_flow_verdicts,
)


class TestRelevantArcs:
    def test_two_parallel_arcs(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        assert relevant_arcs(g, StPair(0, 1)) == {0, 1}

    def test_dangling_arc_excluded(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert relevant_arcs(g, StPair(0, 1)) == {0}

    def test_gap_family_k3_all_arcs(self):
        inst = gen_tight_gap_family(3)
        assert relevant_arcs(inst.graph, inst.st) == set(range(13))

    def test_disconnected_cycle_is_relevant(self):
        # a cycle unreachable from s still carries circulating flow
        g = Digraph(5, [(0, 1), (2, 3), (3, 4), (4, 2)])
        assert relevant_arcs(g, StPair(0, 1)) == {0, 1, 2, 3}

    def test_no_st_path_raises(self):
        with pytest.raises(NoStPath):
            relevant_arcs(Digraph(2, []), StPair(0, 1))


def multigraphs_with_stray_cycles(count: int, seed: int):
    """Random multigraphs with parallel arcs on s = 0 .. t = n - 1; four in
    five get a directed cycle on 2-3 extra nodes that s reaches, that reaches
    t, that does both or that does neither."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 6)
        arcs = []
        for _ in range(rng.randint(1, 9)):
            tail, head = rng.sample(range(n), 2)
            arcs += [(tail, head)] * rng.choice([1, 1, 1, 2])
        ring = list(range(n, n + rng.randint(2, 3)))
        kind = rng.choice(["none", "from-s", "to-t", "both", "apart"])
        if kind != "none":
            arcs += list(zip(ring, ring[1:] + ring[:1]))
        if kind in ("from-s", "both"):
            arcs.append((rng.randrange(n - 1), rng.choice(ring)))
        if kind in ("to-t", "both"):
            arcs.append((rng.choice(ring), rng.randrange(1, n)))
        rng.shuffle(arcs)
        yield Digraph(ring[-1] + 1, arcs), StPair(0, n - 1)


class TestArcSetsMatchPathsAndCycles:
    """E' against the paths and cycles it is defined by."""

    def test_seeded_multigraphs(self):
        counts = {"st": 0, "off_core_cycle": 0, "parallel": 0}
        for g, st in multigraphs_with_stray_cycles(2_200, seed=83):
            if not has_st_path(g, st):
                with pytest.raises(NoStPath):
                    relevant_arcs(g, st)
                continue
            relevant = relevant_arcs(g, st)
            assert relevant == oracle_relevant_arcs(g, st)
            counts["st"] += 1
            # A cycle off the s-t core (an E' arc whose tail s does not
            # reach or that does not reach t), a parallel pair.
            core = oracle_reachable_from(g, st.source) & oracle_reverse_reachable_to(g, st.sink)
            counts["off_core_cycle"] += any(g.tails[a] not in core for a in relevant)
            counts["parallel"] += len(set(g.arcs)) < g.arc_count
        assert counts["st"] >= 1_000, counts
        assert min(counts.values()) >= 100, counts


class TestKosarajuInsideArcs:
    """`_kosaraju`'s inside arcs against its labels, under a skip mask that
    is the core of a random node pair: a union of whole components, as the
    walks require."""

    def test_inside_arcs_are_the_arcs_within_one_label(self):
        rng = random.Random(17)
        counts = {"skipped": 0, "inside": 0, "parallel": 0, "self_loop": 0}
        for g, _ in multigraphs_with_stray_cycles(600, seed=41):
            if rng.random() < 0.3:
                v = rng.randrange(g.node_count)
                g = Digraph(g.node_count, [*g.arcs, (v, v)])
            s, t = rng.sample(range(g.node_count), 2)
            core = oracle_reachable_from(g, s) & oracle_reverse_reachable_to(g, t)
            skip = bytes(v in core for v in range(g.node_count))
            label, inside = _kosaraju(g, skip)
            assert sorted(inside) == [a for a, (tail, head) in enumerate(g.arcs)
                                      if label[tail] == label[head] != -1]
            assert [v for v in range(g.node_count) if label[v] == -1] == sorted(core)
            counts["skipped"] += bool(core)
            counts["inside"] += bool(inside)
            counts["parallel"] += len(set(g.arcs)) < g.arc_count
            counts["self_loop"] += g.has_self_loop()
        assert min(counts.values()) >= 100, counts


class TestDagArcSetIsThePathArcs:
    """On a DAG, E' is the arcs of s-t paths: the set the DAG path verifier
    prunes to."""

    def test_seeded_dags(self):
        rng = random.Random(11)
        count = parallel = dangling = 0
        for g, st in seeded_dags(900, seed=97, max_nodes=8):
            if not has_st_path(g, st):
                continue
            arcs = list(g.arcs) + [a for a in g.arcs if rng.random() < 0.25]
            g = Digraph(g.node_count, rng.sample(arcs, len(arcs)))
            path_arcs = set().union(*oracle_enumerate_paths(g, st))
            assert relevant_arcs(g, st) == path_arcs
            count += 1
            parallel += len(set(g.arcs)) < g.arc_count
            dangling += len(path_arcs) < g.arc_count
        assert count >= 500 and parallel >= 500 and dangling >= 500, (count, parallel, dangling)


class TestDagCoreWalk:
    """The DAG path verifier reads E' from the core walk alone; on a DAG it
    equals `relevant_arcs`, which adds Kosaraju's arcs off the core."""

    def test_core_arcs_are_relevant_arcs_on_seeded_dags(self):
        rng = random.Random(54)
        count = parallel = 0
        for g, st in seeded_dags(900, seed=154, max_nodes=8):
            arcs = list(g.arcs) + [a for a in g.arcs if rng.random() < 0.25]
            g = Digraph(g.node_count, rng.sample(arcs, len(arcs)))
            if not has_st_path(g, st):
                for solve in (relevant_arcs, _core_arcs):
                    with pytest.raises(NoStPath):
                        solve(g, st)
                continue
            core, _ = _core_arcs(g, st)
            assert len(core) == len(set(core))
            assert frozenset(core) == relevant_arcs(g, st)
            count += 1
            parallel += len(set(g.arcs)) < g.arc_count
        assert count >= 500 and parallel >= 400, (count, parallel)


class TestMinWeightFlowIdentifying:
    def test_parallel_arcs_pick_lighter(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        result = min_weight_flow_identifying(g, StPair(0, 1), WeightedGroundSet([1, 5]))
        assert result.identifying_set == {0}
        assert result.total_weight == 1

    def test_gap_family_k3_size(self):
        inst = gen_tight_gap_family(3)
        result = min_weight_flow_identifying(inst.graph, inst.st)
        assert len(result.identifying_set) == 6
        assert result.total_weight == 6

    def test_single_arc_empty_set(self):
        g = Digraph(2, [(0, 1)])
        result = min_weight_flow_identifying(g, StPair(0, 1))
        assert result.identifying_set == frozenset()

    def test_result_invariants(self):
        for g, st in seeded_multigraphs(50, seed=41):
            if not has_st_path(g, st):
                continue
            result = min_weight_flow_identifying(g, st)
            s, t, ep = result.identifying_set, result.forest_certificate, result.relevant_arcs
            assert s | t == ep and not (s & t)
            assert oracle_undirected_acyclic(g, set(t))
            ok, _ = verify_flow_identifying(g, st, s)
            assert ok


class TestVerifyFlowIdentifying:
    def test_parallel_empty_set_witness(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        st = StPair(0, 1)
        ok, witness = verify_flow_identifying(g, st, set())
        assert not ok
        assert sorted(witness.cycle) == [0, 1]
        assert witness.flow_a == (Fraction(1, 2), Fraction(1, 2))
        assert witness.flow_b == (Fraction(0), Fraction(1))

    def test_parallel_singleton_true(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        ok, _ = verify_flow_identifying(g, StPair(0, 1), {0})
        assert ok

    def test_gap_family_marked_arcs_not_flow_identifying(self):
        inst = gen_tight_gap_family(3)
        ok, witness = verify_flow_identifying(inst.graph, inst.st,
                                              set(inst.metadata["marked_arcs"]))
        assert not ok
        assert witness is not None

    def test_agreement_with_oracle_exhaustive_three_nodes(self):
        for g in all_simple_digraphs(3):
            for s_node in range(3):
                for t_node in range(3):
                    if s_node == t_node:
                        continue
                    st = StPair(s_node, t_node)
                    if not has_st_path(g, st):
                        continue
                    ep = relevant_arcs(g, st)
                    for subset in all_subsets(range(g.arc_count)):
                        ok, witness = verify_flow_identifying(g, st, subset)
                        assert ok == oracle_undirected_acyclic(g, set(ep - subset))
                        if not ok:
                            _assert_witness_valid(g, st, subset, witness)

    def test_agreement_with_oracle_random_family(self):
        for g, st in seeded_multigraphs(60, seed=43):
            if not has_st_path(g, st):
                continue
            ep = relevant_arcs(g, st)
            for subset in all_subsets(range(g.arc_count)):
                ok, witness = verify_flow_identifying(g, st, subset)
                assert ok == oracle_undirected_acyclic(g, set(ep - subset))
                if not ok:
                    _assert_witness_valid(g, st, subset, witness)

    def test_true_implies_path_vectors_distinct(self):
        # path indicator vectors are flows; a true verdict must separate them
        from idsets.graphs import enumerate_st_paths

        for g, st in seeded_multigraphs(60, seed=47):
            if not has_st_path(g, st):
                continue
            paths = enumerate_st_paths(g, st, cap=5_000)
            for subset in all_subsets(range(g.arc_count))[:16]:
                ok, _ = verify_flow_identifying(g, st, subset)
                if ok:
                    traces = {frozenset(p & subset) for p in paths}
                    assert len(traces) == len(paths)


def _assert_witness_valid(g, st, subset, witness):
    assert witness.flow_a != witness.flow_b
    assert flow_conservation_ok(g, st, witness.flow_a)
    assert flow_conservation_ok(g, st, witness.flow_b)
    for e in subset:
        assert witness.flow_a[e] == witness.flow_b[e]


class TestCycleMixtureMatchesPerArcTrees:
    """The mixture reads a head's full tree for every cycle arc into that
    head, and walks from a tail that no arc enters only as far as t; the
    per-arc form in tests/helpers.py walks one tree per arc to its tail."""

    def test_seeded_negative_verdicts(self):
        shared_head = source_tail = 0
        for g, st, _, witness in seeded_negative_flow_verdicts(1000, seed=61):
            cycle = list(witness.cycle)
            flow = oracle_uniform_cycle_mixture(g, st, cycle)
            assert witness.flow_a == flow
            assert witness.flow_b == _augment_along_cycle(g, flow, cycle)
            heads = [g.heads[a] for a in cycle]
            shared_head += len(set(heads)) < len(heads)
            source_tail += any(not g.in_arcs()[g.tails[a]] for a in cycle)
        # Both shortcuts are taken often enough to be tested.
        assert shared_head >= 100
        assert source_tail >= 20


class TestWeightOptimality:
    def test_brute_force_on_random_weighted_instances(self):
        rng = random.Random(99)
        for g, st in seeded_multigraphs(25, seed=53, max_arcs=7):
            if not has_st_path(g, st):
                continue
            w = WeightedGroundSet(random_weights(rng, g.arc_count))
            result = min_weight_flow_identifying(g, st, w)
            ep = relevant_arcs(g, st)
            best = min(
                (w.total(s) for s in all_subsets(range(g.arc_count))
                 if oracle_undirected_acyclic(g, set(ep - s))),
            )
            assert result.total_weight == best
