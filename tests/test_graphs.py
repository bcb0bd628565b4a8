"""Graph-core primitives against hand examples and independent oracles."""

from __future__ import annotations

import hashlib
import random
import re
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from idsets.caps import Caps
from idsets.errors import InvalidInstance, NoStPath, NotAcyclic, PathExplosion
from idsets.explicit import SolutionList, exact_identifying, greedy_identifying
from idsets.flows import min_weight_flow_identifying, relevant_arcs, verify_flow_identifying
from idsets.graphs import (
    Digraph,
    StPair,
    UnionFind,
    WeightedGroundSet,
    bfs_tree,
    enumerate_st_paths,
    reach_marks,
    shortest_arc_path,
    topological_order,
    tree_path,
    validate_ids,
)
from idsets.instances import gen_tight_gap_family
from idsets.io import parse_graph
from idsets.linear import AffineBasis, min_weight_identifying_from_basis
from idsets.matroids import min_weight_matroid_identifying, partition_matroid, uniform_matroid
from idsets.paths import (approx_min_path_identifying_dag, exact_min_path_identifying,
                          verify_path_identifying_dag, verify_path_identifying_general)
from idsets.polymatroids import PolymatroidOracle, min_weight_polymatroid_identifying
from idsets.tolls import linear_cost, quadratic_cost

from .helpers import (
    from_strings,
    oracle_bfs_out_tree,
    oracle_enumerate_paths,
    oracle_kruskal_forest,
    oracle_reachable_from,
    oracle_reverse_reachable_to,
    oracle_shortest_arc_path,
    random_weights,
    seeded_multigraphs,
    spanning_forest_max_weight,
    strongly_connected_components,
)


def test_digraph_validates_arc_ids():
    with pytest.raises(InvalidInstance):
        Digraph(2, [(0, 2)])
    g = Digraph(3, [(0, 1), (1, 2), (2, 2)])
    assert g.arc_count == 3
    assert g.has_self_loop()


def test_digraph_rejects_non_integer_ids():
    # int() would read 1.9 as 1 and 2.0 as 2.
    for nodes, arcs in ((3, [(0, 1.9)]), (3, [(0, "1")]), (2.0, [(0, 1)])):
        with pytest.raises(InvalidInstance):
            Digraph(nodes, arcs)


def test_digraph_reads_endpoints_with_operator_index():
    # The library rule: a bool is an int subclass and reads as 0 or 1; the
    # JSON boundary refuses `true` before a Digraph is built.
    g = Digraph(3, [(0, True)])
    assert g.arcs == ((0, 1),) and type(g.arcs[0][1]) is int
    assert g.out_arcs() == ((0,), (), ()) and g.in_arcs() == ((), (0,), ())
    with pytest.raises(InvalidInstance):
        Digraph(3, [(0, 1.0)])


@pytest.mark.parametrize("arc", [(0, 1, 9), (0,), 5], ids=["triple", "single", "int"])
def test_digraph_rejects_arcs_that_are_not_pairs(arc):
    # Unpacking alone would raise a bare ValueError or TypeError.
    with pytest.raises(InvalidInstance, match=r"^arc 1 must be a \(tail, head\) pair"):
        Digraph(3, [(0, 1), arc])


@pytest.mark.parametrize("call", [
    lambda: Digraph(3, None),
    lambda: SolutionList(2, None),
    lambda: SolutionList(2, [None]),
    lambda: WeightedGroundSet(None),
    lambda: AffineBasis(None),
    lambda: AffineBasis([None]),
], ids=["digraph", "solutions", "solution-row", "weights", "basis", "basis-point"])
def test_constructors_refuse_what_they_cannot_iterate(call):
    # Each once raised a bare TypeError from its loop.
    with pytest.raises(InvalidInstance, match="must be iterable"):
        call()


NOT_A_VECTOR = r"^not an exact rational vector: .* is a set$"


@pytest.mark.parametrize("container", [set, frozenset])
@pytest.mark.parametrize("build, message", [
    (lambda c: Digraph(3, c({(0, 1), (1, 2), (2, 0)})), "^arcs must be a sequence, not the set "),
    (lambda c: WeightedGroundSet(c({3, 1, 2})), "^weights must be a sequence, not the set "),
    (lambda c: SolutionList(2, c({(0, 1), (1, 0)})), "^vectors must be a sequence, not the set "),
    (lambda c: SolutionList(2, [c({1, 0})]), "^each vector must be a sequence, not the set "),
    (lambda c: AffineBasis(c({(0, 0), (1, 0)})), "^basis points must be a sequence, not the set "),
    (lambda c: AffineBasis([(0, 0), c({1, 2})]), NOT_A_VECTOR),
    (lambda c: linear_cost(c({1, 2})), NOT_A_VECTOR),
    (lambda c: quadratic_cost(c({1, 2})), NOT_A_VECTOR),
    (lambda c: PolymatroidOracle.budget_additive(1, c({1, 2})), NOT_A_VECTOR),
    (lambda c: partition_matroid([[0], [1]], c({1, 2})),
     "^capacities must be a sequence, not the set "),
], ids=["arcs", "weights", "solutions", "solution-row", "basis", "basis-point",
        "linear-cost", "quadratic-cost", "budget-gains", "capacities"])
def test_constructors_refuse_a_set(build, container, message):
    # A set iterates in hash order, not element order: {3, 1, 2} held the
    # weights (1, 2, 3), and the row {1, 0} was read as (0, 1).
    with pytest.raises(InvalidInstance, match=message):
        build(container)


@pytest.mark.parametrize("build", [
    lambda it: Digraph(3, it([(0, 1), (1, 2), (0, 1)])),
    lambda it: SolutionList(2, it([(0, 1), it([1, 0]), (0, 1)])),
    lambda it: AffineBasis(it([(0, 0), it([1, 0]), ("1/2", 1)])),
], ids=["digraph", "solutions", "basis"])
def test_constructors_read_a_one_shot_iterator_as_its_list(build):
    assert build(iter) == build(list)


@pytest.mark.parametrize("arcs, kind", [
    ("01", "string"), (b"01", "byte string"), (bytearray(b"01"), "byte string"),
    ({(0, 1): 1}, "mapping"),
], ids=["string", "bytes", "bytearray", "mapping"])
def test_digraph_refuses_strings_bytes_and_mappings(arcs, kind):
    # A mapping was read as the list of its keys: {(0, 1): 1} built the arc (0, 1).
    with pytest.raises(InvalidInstance, match=f"^arcs must be a sequence, not the {kind} "):
        Digraph(3, arcs)


class TestColumns:
    """A Digraph is two int columns, filed by one walk. io.parse_graph tries
    that walk first, and only when it refuses runs its shape and type checks;
    `Digraph(n, pairs)` checks each arc, then files the checked columns.
    Both build equal graphs and name the checked route's first bad arc.
    Types are checked by the pairs path and by io alone."""

    def test_pairs_json_and_columns_build_equal_graphs(self):
        for g, _ in seeded_multigraphs(200, seed=31, allow_self_loops=True):
            assert type(g.tails) is tuple and type(g.heads) is tuple
            assert g.arcs == tuple(zip(g.tails, g.heads))
            assert g.has_self_loop() == any(t == h for t, h in g.arcs)
            from_json = parse_graph({"nodes": g.node_count, "arcs": [list(a) for a in g.arcs]})
            from_lists = Digraph(g.node_count, [list(a) for a in g.arcs])
            for other in (from_json, from_lists):
                assert other == g and other.arcs == g.arcs
                assert other.has_self_loop() == g.has_self_loop()
                assert (other.out_arcs(), other.in_arcs()) == (g.out_arcs(), g.in_arcs())
                assert type(other.tails) is tuple and type(other.heads) is tuple

    @pytest.mark.parametrize("arcs, message", [
        ([(0, 1), (2, 3)], r"^arc 1 = \(2,3\) out of range$"),
        ([(0, 1), (-1, 2)], r"^arc 1 = \(-1,2\) out of range$"),
        ([(0, 1), (0, 1.5)], r"^arc 1 head must be an integer, got 1\.5$"),
        ([(0, 1), ("0", 1)], r"^arc 1 tail must be an integer, got '0'$"),
        ([(0, 3), (0, 1.5)], r"^arc 0 = \(0,3\) out of range$"),
        ([(0, 1.5), (0, 3)], r"^arc 0 head must be an integer, got 1\.5$"),
    ], ids=["past-end", "negative", "float", "string", "float-after-range",
            "range-after-float"])
    def test_pairs_and_columns_name_the_same_first_offender(self, arcs, message):
        with pytest.raises(InvalidInstance, match=message):
            Digraph(3, arcs)
        with pytest.raises(InvalidInstance, match=message):
            Digraph(3, [list(a) for a in arcs])
        if all(type(v) is int for arc in arcs for v in arc):
            with pytest.raises(InvalidInstance, match=message):
                parse_graph({"nodes": 3, "arcs": [list(a) for a in arcs]})

    def test_a_non_pair_after_an_out_of_range_arc(self):
        # Columns hold only pairs; the pairs path checks each arc in order.
        with pytest.raises(InvalidInstance, match=r"^arc 0 = \(0,3\) out of range$"):
            Digraph(3, [(0, 3), (0, 1, 2)])
        with pytest.raises(InvalidInstance, match=r"^arc 1 must be a \(tail, head\) pair"):
            Digraph(3, [(0, 1), (0, 1, 2), (0, 3)])

    def test_bools_read_as_ints(self):
        for g in (Digraph(3, [(0, 1), (True, 2)]), Digraph(True, [[0, False]])):
            assert [type(v) for v in (g.node_count, *g.tails, *g.heads)] == [int] * (
                1 + 2 * g.arc_count)
        assert Digraph(3, [(0, 1), (True, 2)]).arcs == ((0, 1), (1, 2))

    @pytest.mark.parametrize("make", [lambda: {0: "t", 2: "h"}, lambda: "01",
                                      lambda: range(1, 3), lambda: iter((1, 2))],
                             ids=["dict", "string", "range", "iterator"])
    def test_other_two_element_arcs_unpack_as_before(self, make):
        # The checked walk unpacks any arc as `tail, head = arc` does.
        arc = make()
        try:
            expected = Digraph(3, [(0, 1), tuple(make())])
        except InvalidInstance as exc:
            with pytest.raises(InvalidInstance, match=f"^{re.escape(str(exc))}$"):
                Digraph(3, [(0, 1), arc])
        else:
            assert Digraph(3, [(0, 1), arc]) == expected

    def test_node_count_is_checked_first(self):
        with pytest.raises(InvalidInstance, match="^node_count must be an integer"):
            Digraph(2.0, [(0, 5)])
        with pytest.raises(InvalidInstance, match="^node_count must be nonnegative$"):
            Digraph(-1, [(0, 5)])
        with pytest.raises(InvalidInstance, match="^node_count must be nonnegative$"):
            parse_graph({"nodes": -1, "arcs": []})
        assert parse_graph({"nodes": 0, "arcs": []}) == Digraph(0, [])

    # One bad value at a random arc. For each spoil, the message of io's
    # checked route and of the constructor's, with {aid}, {end} ("tail" or
    # "head"), {value} (the bad value's repr), {arc} (the spoiled arc's repr)
    # and {pair} ("t,h" of the spoiled arc) filled in; None where the
    # library reads the value.
    SPOILS = {
        "bool": (lambda arc, end, n: _with(arc, end, True),
                 "expected an integer, got {value}", None),
        "float": (lambda arc, end, n: _with(arc, end, 1.5),
                  "expected an integer, got {value}",
                  "arc {aid} {end} must be an integer, got {value}"),
        "str": (lambda arc, end, n: _with(arc, end, "1"),
                "expected an integer, got {value}",
                "arc {aid} {end} must be an integer, got {value}"),
        "none": (lambda arc, end, n: _with(arc, end, None),
                 "expected an integer, got {value}",
                 "arc {aid} {end} must be an integer, got {value}"),
        "negative": (lambda arc, end, n: _with(arc, end, -1),
                     "arc {aid} = ({pair}) out of range", "arc {aid} = ({pair}) out of range"),
        "past-end": (lambda arc, end, n: _with(arc, end, n),
                     "arc {aid} = ({pair}) out of range", "arc {aid} = ({pair}) out of range"),
        "single": (lambda arc, end, n: arc[:1],
                   "malformed graph: arc {aid} is not a [tail, head] pair: {arc}",
                   "arc {aid} must be a (tail, head) pair, got {arc}"),
        "triple": (lambda arc, end, n: arc + arc[:1],
                   "malformed graph: arc {aid} is not a [tail, head] pair: {arc}",
                   "arc {aid} must be a (tail, head) pair, got {arc}"),
        "object": (lambda arc, end, n: {"t": arc[0], "h": arc[1]},
                   "malformed graph: arc {aid} is not a [tail, head] pair: {arc}",
                   "arc {aid} tail must be an integer, got 't'"),
        "two-chars": (lambda arc, end, n: "01",
                      "expected an integer, got '0'",
                      "arc {aid} tail must be an integer, got '0'"),
    }

    @pytest.mark.parametrize("spoil", list(SPOILS))
    def test_a_spoiled_arc_gets_the_checked_routes_message(self, spoil):
        make, io_message, library_message = self.SPOILS[spoil]
        rng = random.Random(f"45/{spoil}")
        for g, _ in seeded_multigraphs(60, seed=45, allow_self_loops=True):
            n, arcs = g.node_count, [list(a) for a in g.arcs]
            aid, end = rng.randrange(len(arcs)), rng.randrange(2)
            arcs[aid] = bad = make(arcs[aid], end, n)
            fields = {"aid": aid, "end": ("tail", "head")[end], "arc": repr(bad),
                      "value": repr(bad[end]) if type(bad) is list and len(bad) == 2 else "",
                      "pair": ",".join(map(str, bad)) if type(bad) is list else ""}
            with pytest.raises(InvalidInstance,
                               match=f"^{re.escape(io_message.format(**fields))}$"):
                parse_graph({"nodes": n, "arcs": arcs})
            if library_message is None:
                assert Digraph(n, arcs).arcs == tuple(map(tuple, arcs))
                continue
            with pytest.raises(InvalidInstance,
                               match=f"^{re.escape(library_message.format(**fields))}$"):
                Digraph(n, arcs)

    @pytest.mark.parametrize("bad, io_message, library_message", [
        ([0, -1], r"^arc 0 = \(0,-1\) out of range$", r"^arc 0 = \(0,-1\) out of range$"),
        ([0, "x"], r"^expected an integer, got 'x'$", r"^arc 0 head must be an integer, got 'x'$"),
    ], ids=["negative", "str"])
    def test_a_huge_node_count_with_a_bad_arc_is_refused_before_any_lists(
            self, bad, io_message, library_message):
        # The arc is refused before a list per node is made: 400,000 nodes
        # would take tens of MB of adjacency lists.
        nodes = 400_000
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInstance, match=io_message):
                parse_graph({"nodes": nodes, "arcs": [bad]})
            with pytest.raises(InvalidInstance, match=library_message):
                Digraph(nodes, [bad])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_an_outsized_node_count_still_builds(self):
        g = parse_graph({"nodes": 9, "arcs": [[0, 8], [8, 3]]})
        assert g == Digraph(9, [(0, 8), (8, 3)])
        assert (g.out_arcs(), g.in_arcs()) == (((0,), (), (), (), (), (), (), (), (1,)),
                                               ((), (), (), (1,), (), (), (), (), (0,)))

    @pytest.mark.parametrize("arcs, message", [
        ([[0, 1.5], [0]], "expected an integer, got 1.5"),
        ([[0, 1.5], 5], "expected an integer, got 1.5"),
        ([["x", 0], [0, 1, 2]], "expected an integer, got 'x'"),
    ], ids=["float-then-single", "float-then-scalar", "str-then-triple"])
    def test_of_two_faults_io_names_the_earlier_arc(self, arcs, message):
        # io's refusal route reads each arc's shape, then its ends, in arc order.
        with pytest.raises(InvalidInstance, match=f"^{re.escape(message)}$"):
            parse_graph({"nodes": 3, "arcs": arcs})

    @pytest.mark.parametrize("spoil", list(SPOILS))
    def test_an_outsized_node_count_names_a_spoil_as_in_bounds(self, spoil):
        # Above 2m + 2 nodes the filing walk is not tried, so io's refusal
        # route names every spoil, with the message the walk's refusal gets.
        make, io_message, _ = self.SPOILS[spoil]
        rng = random.Random(f"49/{spoil}")
        for g, _ in seeded_multigraphs(60, seed=49, allow_self_loops=True):
            arcs = [list(a) for a in g.arcs]
            n = max(g.node_count, 2 * len(arcs) + rng.randint(3, 10))
            assert Digraph._filed(n, arcs) is None
            built, want = parse_graph({"nodes": n, "arcs": arcs}), Digraph(n, g.arcs)
            assert built == want
            assert (built.out_arcs(), built.in_arcs()) == (want.out_arcs(), want.in_arcs())
            aid, end = rng.randrange(len(arcs)), rng.randrange(2)
            arcs[aid] = bad = make(arcs[aid], end, n)
            fields = {"aid": aid, "arc": repr(bad),
                      "value": repr(bad[end]) if type(bad) is list and len(bad) == 2 else "",
                      "pair": ",".join(map(str, bad)) if type(bad) is list else ""}
            with pytest.raises(InvalidInstance,
                               match=f"^{re.escape(io_message.format(**fields))}$"):
                parse_graph({"nodes": n, "arcs": arcs})


def _with(arc: list, end: int, value) -> list:
    """`arc` with its tail (end 0) or head (end 1) replaced by `value`."""
    arc = list(arc)
    arc[end] = value
    return arc


class TestWeightsMatchTheGround:
    """Every weighted solver takes a WeightedGroundSet of one weight per
    element; a wrong length or a plain list is InvalidInstance."""

    SOLVERS = [
        (2, lambda w: greedy_identifying(
            from_strings(["01", "10", "11"]), w)),
        (2, lambda w: exact_identifying(
            from_strings(["01", "10", "11"]), w)),
        (3, lambda w: exact_min_path_identifying(
            Digraph(3, [(0, 1), (1, 2), (0, 2)]), StPair(0, 2), w)),
        (3, lambda w: approx_min_path_identifying_dag(
            Digraph(3, [(0, 1), (1, 2), (0, 2)]), StPair(0, 2), w)),
        (3, lambda w: min_weight_flow_identifying(
            Digraph(3, [(0, 1), (1, 2), (0, 2)]), StPair(0, 2), w)),
        (2, lambda w: min_weight_identifying_from_basis(
            AffineBasis([[1, 0], [0, 1]]), w)),
        (3, lambda w: min_weight_matroid_identifying(
            uniform_matroid(2, 3), w)),
        (3, lambda w: min_weight_polymatroid_identifying(
            PolymatroidOracle(3, lambda t: Fraction(min(len(t), 2))), w)),
    ]

    def _refused_by_all(self, weights_for, message):
        for size, solve in self.SOLVERS:
            solve(WeightedGroundSet.uniform(size))
            with pytest.raises(InvalidInstance, match=message(size)):
                solve(weights_for(size))

    def test_too_few_weights(self):
        self._refused_by_all(lambda size: WeightedGroundSet([1] * (size - 1)),
                             lambda size: rf"^{size - 1} weights for {size} elements$")

    def test_too_many_weights(self):
        # A longer vector used to pass: the flow solver on 3 arcs returned weight 1.
        self._refused_by_all(lambda size: WeightedGroundSet([1] * (size + 2)),
                             lambda size: rf"^{size + 2} weights for {size} elements$")

    def test_a_plain_list(self):
        self._refused_by_all(lambda size: [1] * size,
                             lambda size: "^weights must be a WeightedGroundSet, got list$")


class TestIntegerCaps:
    def test_caps_refuse_a_fraction_of_a_path(self):
        with pytest.raises(InvalidInstance, match=r"^max_paths must be an integer, got 1\.5$"):
            Caps(max_paths=1.5)

    def test_caps_refuse_a_string(self):
        with pytest.raises(InvalidInstance, match="^max_paths must be an integer, got '3'$"):
            Caps(max_paths="3")
        assert Caps(max_paths=True).max_paths == 1 and type(Caps(max_paths=True).max_paths) is int
        with pytest.raises(InvalidInstance, match=r"^max_paths = 0 \(.*\): must be >= 1$"):
            Caps(max_paths=0)

    def test_enumerate_refuses_a_fractional_cap(self):
        g = Digraph(2, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(InvalidInstance, match=r"^max_paths must be an integer, got 2\.5$"):
            enumerate_st_paths(g, StPair(0, 1), 2.5)
        with pytest.raises(InvalidInstance, match=r"^max_paths = 0 \(IDSETS_MAX_PATHS / "
                                                  r"--max-paths\): must be >= 1$"):
            enumerate_st_paths(g, StPair(0, 1), 0)
        with pytest.raises(PathExplosion):
            enumerate_st_paths(g, StPair(0, 1), 2)


def test_validate_ids_rejects_non_integers():
    assert validate_ids(3, [2, 0, 2]) == {0, 2}
    for ids in ([1.5], [1.0], ["1"]):
        with pytest.raises(InvalidInstance):
            validate_ids(3, ids)


def test_st_pair_rejects_equal_endpoints():
    with pytest.raises(InvalidInstance):
        StPair(1, 1)


def test_st_pair_rejects_non_integer_endpoints():
    # 0.0 would pass `validate` and fail later inside the solvers.
    for source, sink in ((0.0, 2), (0, "2"), (Fraction(1), 2)):
        with pytest.raises(InvalidInstance, match="must be an integer"):
            StPair(source, sink)
    st = StPair(True, 2)
    assert (st.source, st.sink) == (1, 2) and type(st.source) is int


def test_weights_reject_negative():
    with pytest.raises(InvalidInstance, match="^negative weight at element 2$"):
        WeightedGroundSet([1, 0, "-1/2", Fraction(1, 7)])


def test_weights_reject_a_string():
    # A string would iterate one weight per character: "123" as 1, 2, 3.
    for raw in ("123", ""):
        with pytest.raises(InvalidInstance, match="^weights must be a sequence, not the string"):
            WeightedGroundSet(raw)


@pytest.mark.parametrize("raw, kind", [
    (b"12", "byte string"), (bytearray(b"12"), "byte string"), ({"0": 1, "1": 2}, "mapping"),
], ids=["bytes", "bytearray", "mapping"])
def test_weights_reject_bytes_and_mappings(raw, kind):
    # Bytes iterate as their codes (49, 50) and a mapping as its keys.
    with pytest.raises(InvalidInstance, match=f"^weights must be a sequence, not the {kind} "):
        WeightedGroundSet(raw)


@pytest.mark.parametrize("size, message", [
    (-1, "^size must be nonnegative$"), (2.5, "^size must be an integer, got 2.5$")])
def test_uniform_reads_size_as_a_count(size, message):
    # -1 once gave zero weights, and 2.5 a bare TypeError.
    with pytest.raises(InvalidInstance, match=message):
        WeightedGroundSet.uniform(size)


def test_weights_reject_floats():
    # Fraction(0.1) is a binary rational, not 1/10; no float enters an answer.
    with pytest.raises(InvalidInstance, match="floats are not exact"):
        WeightedGroundSet([0.1, 1])


class TestWeightRepresentation:
    """`scaled` is one int per element over `scale`, the lcm of the
    denominators, and sums and compares exactly; `w[e]` is the Fraction."""

    def test_only_the_ints_are_kept(self):
        assert set(vars(WeightedGroundSet([1, "1/2"]))) == {"scaled", "scale"}
        assert set(vars(WeightedGroundSet.uniform(3))) == {"scaled", "scale"}

    def test_scale_and_scaled_on_mixed_input(self):
        w = WeightedGroundSet([2, "3/4", Fraction(5, 6), "0", "007", "2/4"])
        assert w.size == 6
        assert [w[e] for e in range(w.size)] == [2, Fraction(3, 4), Fraction(5, 6), 0, 7,
                                                 Fraction(1, 2)]
        assert all(type(w[e]) is Fraction for e in range(w.size))
        assert w.scale == 12
        assert w.scaled == (24, 9, 10, 0, 84, 6)
        assert all(type(v) is int for v in w.scaled)

    def test_integer_weights_keep_their_numerators(self):
        w = WeightedGroundSet(iter([3, Fraction(0), "5", Fraction(8, 4)]))
        assert w.scale == 1
        assert w.scaled == (3, 0, 5, 2)
        assert all(type(v) is int for v in w.scaled)

    def test_first_negative_index_is_named(self):
        with pytest.raises(InvalidInstance, match="^negative weight at element 1$"):
            WeightedGroundSet([Fraction(1, 3), Fraction(-1), "-2/3", 0.5])

    @staticmethod
    def seeded_inputs():
        """200 seeded weight lists, each with a random subset of its ids."""
        rng = random.Random(12)
        for _ in range(200):
            size = rng.randint(0, 12)
            values = random_weights(rng, size, max_num=20, max_den=7)
            yield values, [e for e in range(size) if rng.random() < 0.5]

    def test_total_is_the_fraction_sum(self):
        for values, subset in self.seeded_inputs():
            total = WeightedGroundSet(values).total(subset)
            assert type(total) is Fraction
            assert total == sum((values[e] for e in subset), Fraction(0))

    def test_each_weight_reads_back_as_given(self):
        for values, _ in self.seeded_inputs():
            w = WeightedGroundSet(values)
            assert w.size == len(values)
            assert [w[e] for e in range(w.size)] == values
            assert all(type(w[e]) is Fraction for e in range(w.size))

    @pytest.mark.parametrize("value", [0, 1, "007", "3/7", Fraction(5, 2), "4/6"])
    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_uniform_equals_repeated_list(self, size, value):
        # uniform(size) is `size` ones; `size` copies of another value are
        # its ints times the value's numerator, over its denominator.
        u, ones = WeightedGroundSet.uniform(size), WeightedGroundSet([1] * size)
        assert (u.scale, u.scaled) == (ones.scale, ones.scaled)
        num, den = Fraction(value).as_integer_ratio()
        w = WeightedGroundSet([value] * size)
        assert (w.scale, w.scaled) == (den if size else 1, tuple(num * v for v in u.scaled))


class TestStronglyConnectedComponents:
    def test_mutual_reachability_merges(self):
        comp = strongly_connected_components(Digraph(2, [(0, 1), (1, 0)]))
        assert comp[0] == comp[1]

    def test_one_way_arc_separates(self):
        comp = strongly_connected_components(Digraph(2, [(0, 1)]))
        assert comp[0] != comp[1]

    def test_gap_family_is_a_dag(self):
        inst = gen_tight_gap_family(3)
        comp = strongly_connected_components(inst.graph)
        assert len(set(comp)) == inst.graph.node_count

    def test_matches_networkx_on_random_multigraphs(self):
        for g, _ in seeded_multigraphs(60, seed=11, allow_self_loops=True):
            dg = nx.MultiDiGraph()
            dg.add_nodes_from(range(g.node_count))
            dg.add_edges_from((t, h) for t, h in g.arcs)
            expected = {frozenset(c) for c in nx.strongly_connected_components(dg)}
            comp = strongly_connected_components(g)
            groups: dict[int, set[int]] = {}
            for v, c in enumerate(comp):
                groups.setdefault(c, set()).add(v)
            assert {frozenset(c) for c in groups.values()} == expected

    def test_ids_follow_the_arcs(self):
        # Ids are 0..k-1 in a topological order of the components.
        for g, _ in seeded_multigraphs(200, seed=29, allow_self_loops=True):
            comp = strongly_connected_components(g)
            assert set(comp) == set(range(max(comp) + 1))
            assert all(comp[tail] <= comp[head] for tail, head in g.arcs)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(Digraph(3, [(0, 1), (1, 2)])) == (0, 1, 2)

    def test_two_cycle_witness(self):
        with pytest.raises(NotAcyclic) as exc:
            topological_order(Digraph(2, [(0, 1), (1, 0)]))
        assert sorted(exc.value.cycle) == [0, 1]

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(NotAcyclic) as exc:
            topological_order(Digraph(1, [(0, 0)]))
        assert exc.value.cycle == [0]

    def test_gap_family_k1_order(self):
        inst = gen_tight_gap_family(1)
        ranks = {v: r for r, v in enumerate(topological_order(inst.graph))}
        # chain s < v1 < v2 < t is one of the valid orders; ranks must respect arcs
        for tail, head in inst.graph.arcs:
            assert ranks[tail] < ranks[head]

    def test_cycle_witness_is_a_directed_cycle(self):
        for g, _ in seeded_multigraphs(80, seed=5, allow_self_loops=True):
            try:
                order = topological_order(g)
            except NotAcyclic as exc:
                cyc = exc.cycle
                for aid, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                    assert g.heads[aid] == g.tails[nxt]
            else:
                assert sorted(order) == list(range(g.node_count))
                ranks = {v: r for r, v in enumerate(order)}
                for tail, head in g.arcs:
                    if tail != head:
                        assert ranks[tail] < ranks[head]

    # sha256 of each graph's order, or its NotAcyclic message, one line
    # each, recorded with the rank array that the returned order replaced.
    DIGEST = "a306ab791343d2203f2b556f5da6709dd61b47d5815576e77206c855a882ea70"

    def test_order_and_cycles_are_pinned(self):
        digest = hashlib.sha256()
        for g, _ in seeded_multigraphs(500, seed=23, min_nodes=2, max_nodes=8,
                                       max_arcs=10, allow_self_loops=True):
            try:
                line = f"order {topological_order(g)}"
            except NotAcyclic as exc:
                line = f"cycle {exc}"
            digest.update(f"{line}\n".encode())
        assert digest.hexdigest() == self.DIGEST


class TestDeepGraphs:
    # A 20,000-node path, open and closed into a cycle: every walk is
    # iterative, so none of these reaches the recursion limit.
    N = 20_000

    def test_path(self):
        n = self.N
        g, st = Digraph(n, [(v, v + 1) for v in range(n - 1)]), StPair(0, n - 1)
        assert strongly_connected_components(g) == list(range(n))
        assert topological_order(g) == tuple(range(n))
        assert relevant_arcs(g, st) == frozenset(range(n - 1))
        assert verify_path_identifying_dag(g, st, []) == (True, None)

    def test_cycle(self):
        n = self.N
        g, st = Digraph(n, [(v, (v + 1) % n) for v in range(n)]), StPair(0, n - 1)
        assert strongly_connected_components(g) == [0] * n
        for check in (topological_order, lambda g: verify_path_identifying_dag(g, st, [])):
            with pytest.raises(NotAcyclic) as exc:
                check(g)
            assert exc.value.cycle == list(range(n))
        assert relevant_arcs(g, st) == frozenset(range(n))


class TestReachability:
    def test_chain_full(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert set(bfs_tree(g, 0)) == {0, 1, 2}

    def test_chain_restricted(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert set(bfs_tree(g, 0, {1})) == {0}

    def test_restriction_subset_of_full(self):
        rng = random.Random(3)
        for g, _ in seeded_multigraphs(40, seed=7):
            allowed = {a for a in range(g.arc_count) if rng.random() < 0.6}
            start = rng.randrange(g.node_count)
            assert set(bfs_tree(g, start, allowed)) <= set(bfs_tree(g, start))


class TestTraversalOracles:
    GRAPHS = seeded_multigraphs(300, seed=11, min_nodes=2, max_nodes=7, max_arcs=14,
                                allow_self_loops=True)

    def test_family_has_parallel_arcs_and_self_loops(self):
        assert sum(len(set(g.arcs)) < g.arc_count for g, _ in self.GRAPHS) > 100
        assert sum(g.has_self_loop() for g, _ in self.GRAPHS) > 100

    def test_adjacency_is_ascending_tuples(self):
        for g, _ in self.GRAPHS:
            for lists, end in ((g.out_arcs(), 0), (g.in_arcs(), 1)):
                assert isinstance(lists, tuple) and len(lists) == g.node_count
                for v, arc_ids in enumerate(lists):
                    assert isinstance(arc_ids, tuple)
                    assert list(arc_ids) == [a for a in range(g.arc_count)
                                             if g.arcs[a][end] == v]

    def test_traversals_match_per_call_adjacency(self):
        rng = random.Random(5)
        for g, _ in self.GRAPHS:
            for _ in range(3):
                allowed = (None if rng.random() < 0.3 else
                           {a for a in range(g.arc_count) if rng.random() < 0.6})
                start, goal = rng.randrange(g.node_count), rng.randrange(g.node_count)
                assert (set(bfs_tree(g, start, allowed))
                        == oracle_reachable_from(g, start, allowed))
                assert (shortest_arc_path(g, start, goal, allowed)
                        == oracle_shortest_arc_path(g, start, goal, allowed))

    def test_goal_tree_paths_match_the_full_tree(self):
        # A tree that stops at its goal holds the goal's full-tree path, and
        # each node it holds has its full-tree arc; a goal never reached
        # leaves the full tree.
        rng = random.Random(23)
        graphs = seeded_multigraphs(600, seed=19, min_nodes=2, max_nodes=7, max_arcs=14,
                                    allow_self_loops=True)
        assert sum(len(set(g.arcs)) < g.arc_count for g, _ in graphs) > 200
        stopped = 0
        for g, _ in graphs:
            allowed = (None if rng.random() < 0.4 else
                       {a for a in range(g.arc_count) if rng.random() < 0.6})
            start, goal = rng.randrange(g.node_count), rng.randrange(g.node_count)
            for follow in ("out", "both"):
                full = bfs_tree(g, start, allowed, follow)
                part = bfs_tree(g, start, allowed, follow, goal=goal)
                assert tree_path(g, part, goal) == tree_path(g, full, goal)
                assert part.items() <= full.items()
                assert part == full or goal in part
                stopped += len(part) < len(full)
        assert stopped >= 100, stopped

    def test_reach_marks_match_the_oracles(self):
        for g, _ in self.GRAPHS:
            for v in range(g.node_count):
                for marks, oracle in ((reach_marks(g, v), oracle_reachable_from),
                                      (reach_marks(g, v, "in"), oracle_reverse_reachable_to)):
                    assert isinstance(marks, bytearray) and len(marks) == g.node_count
                    assert {w for w in range(g.node_count) if marks[w]} == oracle(g, v)

    @pytest.mark.parametrize("follow", ["in", "Out", None])
    def test_bfs_tree_refuses_an_unknown_direction(self, follow):
        # Reverse reach is reach_marks(g, v, "in"); bfs_tree walks out or both ways.
        with pytest.raises(ValueError, match="^follow must be 'out' or 'both'"):
            bfs_tree(Digraph(2, [(0, 1)]), 1, follow=follow)


class TestSpanningForest:
    def test_parallel_arcs_pick_heavier(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        w = WeightedGroundSet([1, 2])
        assert spanning_forest_max_weight(g, {0, 1}, w) == {1}

    def test_triangle_drops_lightest(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        w = WeightedGroundSet([3, 2, 1])
        assert spanning_forest_max_weight(g, {0, 1, 2}, w) == {0, 1}

    def test_gap_family_unit_weights_has_tree_size(self):
        inst = gen_tight_gap_family(3)
        g = inst.graph
        forest = spanning_forest_max_weight(g, range(g.arc_count),
                                            WeightedGroundSet.uniform(g.arc_count))
        assert len(forest) == g.node_count - 1

    def test_forest_spans_and_is_acyclic(self):
        rng = random.Random(12)
        for g, _ in seeded_multigraphs(60, seed=13, allow_self_loops=True):
            restrict = {a for a in range(g.arc_count) if rng.random() < 0.8}
            w = WeightedGroundSet([rng.randint(0, 5) for _ in range(g.arc_count)])
            forest = spanning_forest_max_weight(g, restrict, w)
            # acyclic: re-run a union-find; spanning: adding any restrict arc
            # inside one component closes a cycle
            uf = UnionFind(g.node_count)
            for aid in forest:
                assert uf.union(*g.arcs[aid])
            for aid in restrict - forest:
                tail, head = g.arcs[aid]
                assert tail == head or uf.find(tail) == uf.find(head)

    def test_matches_networkx_max_weight(self):
        rng = random.Random(21)
        for g, _ in seeded_multigraphs(40, seed=22):
            w = WeightedGroundSet([rng.randint(1, 8) for _ in range(g.arc_count)])
            forest = spanning_forest_max_weight(g, range(g.arc_count), w)
            mg = nx.MultiGraph()
            mg.add_nodes_from(range(g.node_count))
            for aid, (t, h) in enumerate(g.arcs):
                mg.add_edge(t, h, weight=int(w[aid]))
            expected = sum(edge[-1]["weight"] for edge in
                           nx.maximum_spanning_edges(mg, data=True))
            assert w.total(forest) == expected

    @pytest.mark.parametrize("restrict, message", [
        ([-1], "^element id -1 out of range$"),  # once read as the last arc
        ([99], "^element id 99 out of range$"),  # once a bare IndexError
        (["a"], "^element ids must be integers"),  # once a bare TypeError
    ], ids=["negative", "past-the-end", "string"])
    def test_refuses_ids_outside_the_arcs(self, restrict, message):
        g = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidInstance, match=message):
            spanning_forest_max_weight(g, restrict, WeightedGroundSet.uniform(2))


class TestLeanWalksMatchReferences:
    """The out-walk of `bfs_tree` and Kruskal's batch of joins against plain
    references, on seeded multigraphs with self-loops and parallel arcs."""

    GRAPHS = seeded_multigraphs(500, seed=54, min_nodes=2, max_nodes=8, max_arcs=16,
                                allow_self_loops=True)

    def test_family_has_parallel_arcs_and_self_loops(self):
        assert sum(len(set(g.arcs)) < g.arc_count for g, _ in self.GRAPHS) > 200
        assert sum(g.has_self_loop() for g, _ in self.GRAPHS) > 200

    def test_out_tree_matches_a_plain_bfs(self):
        rng = random.Random(541)
        stopped = 0
        for g, _ in self.GRAPHS:
            for allowed in (None, {a for a in range(g.arc_count) if rng.random() < 0.6},
                            [a for a in range(g.arc_count) if rng.random() < 0.6]):
                start = rng.randrange(g.node_count)
                for goal in (None, rng.randrange(g.node_count)):
                    tree = bfs_tree(g, start, allowed, goal=goal)
                    assert list(tree.items()) == list(
                        oracle_bfs_out_tree(g, start, allowed, goal).items())
                    stopped += goal is not None and len(tree) < len(bfs_tree(g, start, allowed))
        assert stopped >= 100, stopped

    def test_forest_matches_a_union_find_kruskal(self):
        rng = random.Random(542)
        zeros = 0
        for g, _ in self.GRAPHS:
            w = WeightedGroundSet([Fraction(rng.randint(0, 3), rng.randint(1, 3))
                                   for _ in range(g.arc_count)])
            restrict = {a for a in range(g.arc_count) if rng.random() < 0.8}
            assert (spanning_forest_max_weight(g, restrict, w)
                    == oracle_kruskal_forest(g, restrict, w))
            zeros += 0 in w.scaled
        assert zeros >= 300, zeros

    def test_union_is_a_join_of_one_arc(self):
        uf = UnionFind(4)
        assert [uf.union(0, 1), uf.union(1, 0), uf.union(2, 2), uf.union(1, 2)] == [
            True, False, False, True]
        assert uf.joins([0, 1, 2], (0, 3, 3), (3, 2, 3)) == [0]


class TestEnumerateStPaths:
    def test_two_parallel_arcs(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        assert enumerate_st_paths(g, StPair(0, 1)) == [frozenset({0}), frozenset({1})]

    def test_gap_family_k1_has_two_paths(self):
        inst = gen_tight_gap_family(1)
        assert len(enumerate_st_paths(inst.graph, inst.st)) == 2

    def test_vc_dag_path_count(self):
        from idsets.instances import gen_vertex_cover_dag

        for ell in (1, 2, 3):
            inst = gen_vertex_cover_dag(3, [(0, 1), (1, 2)], ell)
            assert len(enumerate_st_paths(inst.graph, inst.st)) == 4 * ell

    def test_cap_raises(self):
        g = Digraph(2, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(PathExplosion):
            enumerate_st_paths(g, StPair(0, 1), cap=2)

    def test_no_path_raises(self):
        with pytest.raises(NoStPath):
            enumerate_st_paths(Digraph(2, []), StPair(0, 1))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInstance):
            enumerate_st_paths(Digraph(2, [(0, 1), (0, 0)]), StPair(0, 1))

    def test_agrees_with_recursive_oracle(self):
        for g, st in seeded_multigraphs(120, seed=31):
            try:
                got = set(enumerate_st_paths(g, st, cap=10_000))
            except NoStPath:
                got = None
            expected = oracle_enumerate_paths(g, st)
            if got is None:
                assert expected == set()
            else:
                assert got == expected

    def test_agrees_with_oracle_exhaustive_three_nodes(self):
        from .helpers import all_simple_digraphs

        for g in all_simple_digraphs(3):
            for s_node in range(3):
                for t_node in range(3):
                    if s_node == t_node:
                        continue
                    st = StPair(s_node, t_node)
                    expected = oracle_enumerate_paths(g, st)
                    try:
                        got = set(enumerate_st_paths(g, st, cap=1_000))
                    except NoStPath:
                        got = set()
                    assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st_.data())
    def test_paths_are_simple_and_connected(self, data):
        n = data.draw(st_.integers(2, 5), label="nodes")
        m = data.draw(st_.integers(1, 8), label="arcs")
        arcs = [
            (data.draw(st_.integers(0, n - 1)), data.draw(st_.integers(0, n - 1)))
            for _ in range(m)
        ]
        arcs = [(t, h) for t, h in arcs if t != h]
        if not arcs:
            return
        g = Digraph(n, arcs)
        st = StPair(0, n - 1)
        try:
            paths = enumerate_st_paths(g, st, cap=5_000)
        except NoStPath:
            return
        for path in paths:
            # walk the arcs: each path is a connected s-t walk without repeats
            heads = {g.heads[a] for a in path}
            tails = {g.tails[a] for a in path}
            assert st.source in tails and st.sink in heads
            assert len(heads) == len(path) and len(tails) == len(path)
            nodes = tails | heads
            assert len(nodes) == len(path) + 1


class TestStPairValidate:
    def test_end_out_of_range(self):
        with pytest.raises(InvalidInstance, match="^node id 3 out of range$"):
            StPair(0, 3).validate(Digraph(3, [(0, 1), (1, 2)]))

    def test_self_loop_is_refused_before_the_range(self):
        with pytest.raises(InvalidInstance, match="^self-loops are not allowed in s-t settings$"):
            StPair(0, 3).validate(Digraph(2, [(0, 1), (1, 1)]))

    @pytest.mark.parametrize("solve", [
        relevant_arcs,
        enumerate_st_paths,
        min_weight_flow_identifying,
        lambda g, st: verify_flow_identifying(g, st, []),
        lambda g, st: verify_path_identifying_dag(g, st, []),
        lambda g, st: verify_path_identifying_general(g, st, []),
        exact_min_path_identifying,
        approx_min_path_identifying_dag,
    ], ids=["relevant-arcs", "enumerate", "flow-identify", "flow-verify", "path-verify-dag",
            "path-verify-general", "path-exact", "path-approx"])
    def test_every_st_solver_refuses_a_self_loop(self, solve):
        g = Digraph(3, [(0, 1), (1, 2), (2, 2)])
        with pytest.raises(InvalidInstance, match="^self-loops are not allowed in s-t settings$"):
            solve(g, StPair(0, 2))
