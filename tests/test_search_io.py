"""Subset-search determinism, JSON round-trips and the JSON writer."""

from __future__ import annotations

import ast
import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from idsets.caps import Caps
from idsets.errors import InvalidInstance, SubsetExplosion
from idsets.graphs import Digraph, StPair, WeightedGroundSet, enumerate_st_paths
from idsets.io import (
    fraction_from_json,
    fraction_to_json,
    fractions_to_json,
    instance_to_json,
    int_from_json,
    parse_affine_basis,
    parse_graph,
    parse_instance,
    parse_polymatroid_table,
    parse_rationals,
    parse_solution_list,
    parse_weights,
    to_json,
)
from idsets.instances import gen_tight_gap_family, gen_vertex_cover_dag
from idsets.search import _cover_masks, min_weight_hitting_set, pair_demands

from .helpers import (
    oracle_min_weight_hitting_set,
    solution_list_to_json,
    subsets_in_weight_order,
)


class TestHittingSet:
    def test_prefers_lighter(self):
        w = WeightedGroundSet([3, 1])
        weight, elems = min_weight_hitting_set(2, w, [0b11])
        assert elems == (1,) and weight == 1

    def test_lexicographic_ties(self):
        w = WeightedGroundSet([1, 1, 1])
        _, elems = min_weight_hitting_set(3, w, [0b110, 0b011])
        assert elems == (1,)

    def test_multi_demand(self):
        w = WeightedGroundSet([1, 1, 1, 1])
        weight, elems = min_weight_hitting_set(
            4, w, [0b0011, 0b1100, 0b0110])
        assert weight == 2
        assert elems == (0, 2)  # the lexicographically first optimum

    def test_no_demands_empty(self):
        w = WeightedGroundSet([1])
        assert min_weight_hitting_set(1, w, []) == (Fraction(0), ())

    def test_state_cap(self):
        w = WeightedGroundSet([1] * 10)
        with pytest.raises(SubsetExplosion):
            min_weight_hitting_set(10, w, [1 << 9], max_states=3)

    @pytest.mark.parametrize("cap, message", [
        (0, r"^max_subsets = 0 \(IDSETS_MAX_SUBSETS / --max-subsets\): must be >= 1$"),
        (1.5, r"^max_subsets must be an integer, got 1\.5$"),
        ("x", r"^max_subsets must be an integer, got 'x'$"),
    ], ids=["zero", "fraction", "string"])
    def test_state_cap_is_read_as_a_cap(self, cap, message):
        # 0 and 1.5 were once taken as caps, and "x" raised a bare TypeError.
        with pytest.raises(InvalidInstance, match=message):
            min_weight_hitting_set(2, WeightedGroundSet([1, 1]), [0b11], max_states=cap)

    def test_zero_weight_tie_break(self):
        # {0, 1} is not inclusion-minimal, but it ties {1} on weight and comes
        # first lexicographically.
        w = WeightedGroundSet([0, 1])
        got = min_weight_hitting_set(2, w, [0b11, 0b10])
        assert got == (Fraction(1), (0, 1))

    def test_matches_weight_order_oracle(self):
        rng = random.Random(303)
        values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
        for _ in range(600):
            n = rng.randint(1, 10)
            w = WeightedGroundSet([rng.choice(values) for _ in range(n)])
            demands: list[frozenset[int]] = []
            for _ in range(rng.randint(0, 12)):
                roll = rng.random()
                if demands and roll < 0.2:
                    demands.append(rng.choice(demands))
                elif demands and roll < 0.4:
                    demands.append(rng.choice(demands) | {rng.randrange(n)})
                else:
                    demands.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
            want = next((weight, elems) for weight, elems in subsets_in_weight_order(n, w)
                        if all(d.intersection(elems) for d in demands))
            masks = [sum(1 << e for e in d) for d in demands]
            assert min_weight_hitting_set(n, w, masks) == want, (w.scaled, demands)

    @pytest.mark.parametrize("demands", [[0b01, 0], [0b100]], ids=["zero-mask", "bit-n"])
    def test_rejects_masks_outside_range(self, demands):
        with pytest.raises(ValueError):
            min_weight_hitting_set(2, WeightedGroundSet([1, 1]), demands)

    def test_weight_order_enumeration(self):
        w = WeightedGroundSet([2, 1])
        seen = list(subsets_in_weight_order(2, w))
        weights = [float(x) for x, _ in seen]
        assert weights == sorted(weights)
        assert len(seen) == 4


def visited_nodes(engine, n: int, w: WeightedGroundSet, demands) -> int:
    """The least max_states under which `engine` does not raise SubsetExplosion:
    the number of nodes its search visits."""
    low, high = 1, 1
    while True:
        try:
            engine(n, w, demands, high)
            break
        except SubsetExplosion:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            engine(n, w, demands, mid)
            high = mid
        except SubsetExplosion:
            low = mid + 1
    return low


def _path_demands(inst) -> set[int]:
    paths = enumerate_st_paths(inst.graph, inst.st)
    return pair_demands([sum(1 << a for a in p) for p in paths])


class TestEngineMatchesListWalk:
    """The cover-mask engine walks the nodes of the demand-list walk it
    replaced: the same answer, and the same count against `max_states`."""

    def assert_same_walk(self, n, w, demands):
        assert (min_weight_hitting_set(n, w, demands)
                == oracle_min_weight_hitting_set(n, w, demands)), (w.scaled, demands)
        visited = visited_nodes(oracle_min_weight_hitting_set, n, w, demands)
        min_weight_hitting_set(n, w, demands, visited)
        if visited > 1:
            with pytest.raises(SubsetExplosion, match=f"visited {visited} nodes"):
                min_weight_hitting_set(n, w, demands, visited - 1)

    def test_seeded_demand_sets(self):
        rng = random.Random(1515)
        values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
        for _ in range(1000):
            n = rng.randint(1, 14)
            w = WeightedGroundSet([rng.choice(values) for _ in range(n)])
            demands: list[int] = []
            for _ in range(rng.randint(0, 24)):
                roll = rng.random()
                if demands and roll < 0.2:
                    demands.append(rng.choice(demands))
                elif demands and roll < 0.4:
                    demands.append(rng.choice(demands) | 1 << rng.randrange(n))
                else:
                    demands.append(sum(1 << e for e in rng.sample(range(n), rng.randint(1, n))))
            self.assert_same_walk(n, w, demands)

    @pytest.mark.parametrize("inst", [
        gen_tight_gap_family(6),
        gen_vertex_cover_dag(3, [(0, 1), (1, 2), (0, 2)], 2),
    ], ids=["tight-gap-k6", "vc-dag-triangle-ell2"])
    def test_path_families(self, inst):
        n = inst.graph.arc_count
        self.assert_same_walk(n, WeightedGroundSet.uniform(n), _path_demands(inst))

    def test_explicit_lists_of_the_workload_shape(self):
        # 40 distinct rows of width 16, as `explicit-identify --exact` gets
        # them in the benchmark: about 777 pair demands each.
        rng = random.Random(4016)
        for _ in range(4):
            rows: set[int] = set()
            while len(rows) < 40:
                rows.add(rng.getrandbits(16))
            demands = pair_demands(sorted(rows))
            assert len(demands) > 700
            self.assert_same_walk(16, WeightedGroundSet.uniform(16), demands)

    def test_weighted_vc_dag_path4(self):
        inst = gen_vertex_cover_dag(4, [(0, 1), (1, 2), (2, 3)], 1)
        n = inst.graph.arc_count
        demands = _path_demands(inst)
        rng = random.Random(413)
        for _ in range(20):
            self.assert_same_walk(n, WeightedGroundSet([rng.randint(1, 3) for _ in range(n)]),
                                  demands)


class TestGreedyStartOnlyPrunes(TestEngineMatchesListWalk):
    """Starting the list walk from the greedy cover's weight keeps every
    `(weight, elems)` and visits no more nodes than starting it with no
    incumbent, on each input of the engine's comparison above."""

    def assert_same_walk(self, n, w, demands):
        plain = functools.partial(oracle_min_weight_hitting_set, greedy_start=False)
        visited = visited_nodes(plain, n, w, demands)
        assert (oracle_min_weight_hitting_set(n, w, demands, visited)
                == plain(n, w, demands)), (w.scaled, demands)


class TestShallowMemoOnlyPrunes(TestEngineMatchesListWalk):
    """Skipping a node whose (depth, unhit demands) the list walk already
    expanded at no higher weight keeps every `(weight, elems)` and visits no
    more nodes than expanding it, on each input of the engine's comparison."""

    def assert_same_walk(self, n, w, demands):
        plain = functools.partial(oracle_min_weight_hitting_set, memo=False)
        visited = visited_nodes(plain, n, w, demands)
        assert (oracle_min_weight_hitting_set(n, w, demands, visited)
                == plain(n, w, demands)), (w.scaled, demands)


def _workload_list_demands(i: int) -> set[int]:
    """The pair demands of `explicit-exact/i` in a seed-1 `search` pass: 40
    distinct rows of width 16 drawn as the benchmark draws them."""
    rng = random.Random(f"1/explicit-exact-{i}")
    vectors: dict[str, None] = {}
    while len(vectors) < 40:
        vectors["".join(rng.choice("01") for _ in range(16))] = None
    x = parse_solution_list({"dim": 16, "vectors": list(vectors)})
    return pair_demands(x.rows())


class TestShallowMemoCounts:
    """The nodes the engine visits on the seed-1 `search` inputs, against the
    list walk without the shallow memo: the vc-dag walks fall, and the walks
    where no state repeats keep their counts."""

    @pytest.mark.parametrize("inst,plain,memo", [
        (gen_vertex_cover_dag(3, [(0, 1), (1, 2), (0, 2)], 2), 2269, 1387),
        (gen_vertex_cover_dag(3, [(0, 1), (1, 2)], 2), 301, 222),
        (gen_vertex_cover_dag(3, [(0, 1), (1, 2), (0, 2)], 1), 147, 119),
        (gen_tight_gap_family(4), 46, 46),
        (gen_tight_gap_family(5), 62, 62),
    ], ids=["vc-dag-triangle-ell2", "vc-dag-path3-ell2", "vc-dag-triangle-ell1",
            "tight-gap-k4", "tight-gap-k5"])
    def test_path_families(self, inst, plain, memo):
        n = inst.graph.arc_count
        self.assert_counts(n, WeightedGroundSet.uniform(n), _path_demands(inst), plain, memo)

    @pytest.mark.parametrize("i,count", [(0, 447), (1, 286), (2, 295)])
    def test_explicit_lists_keep_their_counts(self, i, count):
        self.assert_counts(16, WeightedGroundSet.uniform(16), _workload_list_demands(i),
                           count, count)

    def assert_counts(self, n, w, demands, plain, memo):
        walk = functools.partial(oracle_min_weight_hitting_set, memo=False)
        assert visited_nodes(walk, n, w, demands) == plain
        assert visited_nodes(min_weight_hitting_set, n, w, demands) == memo


class TestCoverMasks:
    """`_cover_masks` numbers the demands in reverse: bit m - 1 - j of
    cover[e] is set when demand j of the m sorted demands holds id e."""

    def test_matches_bit_by_bit_reference(self):
        rng = random.Random(3117)
        cases = [(1, [1])]
        for _ in range(600):
            n = rng.randint(1, 12)
            m = rng.randint(1, min(40, (1 << n) - 1))
            cases.append((n, sorted(rng.sample(range(1, 1 << n), m))))
        for n, masks in cases:
            m = len(masks)
            want = [sum(1 << m - 1 - j for j, d in enumerate(masks) if d >> e & 1)
                    for e in range(n)]
            assert _cover_masks(masks, n) == want, (n, masks)
        assert sum(len(masks) == 1 for _, masks in cases) > 10
        assert sum(n == 1 for n, _ in cases) > 10
        assert sum(masks[-1] >> n - 1 for n, masks in cases) > 500


class TestRationalJson:
    def test_integer_stays_plain(self):
        assert fraction_to_json(Fraction(6)) == "6"

    def test_ratio(self):
        assert fraction_to_json(Fraction(1, 2)) == "1/2"
        assert fraction_from_json("1/2") == Fraction(1, 2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(InvalidInstance):
            fraction_from_json(True)
        with pytest.raises(InvalidInstance):
            fraction_from_json(1.5)

    # Plain ASCII digits take a shortcut through int(); everything else,
    # signs, spaces, underscores and other digit scripts included, must read
    # exactly as Fraction reads it, and fail exactly where Fraction fails.
    @pytest.mark.parametrize("token", [
        "0", "00", "007", "1" * 30, "-3", "+3", " 3", "3 ", "1_0", "\u0663", "3/4",
        "1e3", "", "5" * 5000,
    ], ids=lambda t: repr(t)[:12])
    def test_string_reads_as_fraction_does(self, token):
        try:
            expected = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InvalidInstance, match="cannot parse rational"):
                fraction_from_json(token)
            return
        got = fraction_from_json(token)
        assert type(got) is Fraction and got == expected


class TestIntegerJson:
    def test_plain_integer(self):
        assert int_from_json(3) == 3 and int_from_json(-1) == -1

    @pytest.mark.parametrize("value", [True, 1.0, 1.9, "1", None])
    def test_rejects_everything_else(self, value):
        with pytest.raises(InvalidInstance):
            int_from_json(value)


class TestBoundaryParsers:
    """Seeded files through the parsers that check each value once, against
    values built here from the raw JSON."""

    def test_graph_arcs_and_adjacency(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            arcs = [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(0, 40))]
            g = parse_graph(json.loads(json.dumps({"nodes": n, "arcs": arcs})))
            assert g.node_count == n
            assert g.arcs == tuple((t, h) for t, h in arcs)
            assert {type(v) for arc in g.arcs for v in arc} <= {int}
            assert g.out_arcs() == tuple(tuple(i for i, a in enumerate(arcs) if a[0] == v)
                                         for v in range(n))
            assert g.in_arcs() == tuple(tuple(i for i, a in enumerate(arcs) if a[1] == v)
                                        for v in range(n))

    def test_solution_vectors_and_rows(self):
        for seed in range(60):
            rng = random.Random(seed)
            dim = rng.randint(0, 10)
            bits = [[rng.randint(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 12))]
            bits += rng.sample(bits, min(2, len(bits)))
            spellings = [lambda b: "".join(map(str, b)), list,
                         lambda b: [str(v) for v in b],
                         lambda b: [v if i % 2 else str(v) for i, v in enumerate(b)]]
            vectors = [rng.choice(spellings)(b) for b in bits]
            x = parse_solution_list(json.loads(json.dumps({"dim": dim, "vectors": vectors})))
            expected = list(dict.fromkeys(tuple(b) for b in bits))
            assert x.dimension == dim and x.vectors == tuple(expected)
            assert {type(v) for vec in x.vectors for v in vec} <= {int}
            assert x.rows() == [sum(v << e for e, v in enumerate(b)) for b in expected]


    GOOD = [0, 1, 7, "0", "1", "3/4", "5/9", "06", " 2", "10/4"]
    BAD = [True, False, 1.0, 0.5, None, [1], "x", "1/0"]

    def test_rationals_parse_once_per_token(self):
        # Each distinct token is parsed once per call. The values, and the
        # first refusal with its message, are those of one
        # fraction_from_json per token: a bool or float never reuses the
        # Fraction of the int it equals.
        def weights_of(w):
            return tuple(w[e] for e in range(w.size))

        for seed in range(200):
            rng = random.Random(seed)
            raw = [rng.choice(self.GOOD) for _ in range(rng.randint(1, 30))]
            if seed % 2:
                raw.insert(rng.randint(0, len(raw)), rng.choice(self.BAD))
            instance = {"nodes": 2, "arcs": [[0, 1]] * len(raw), "s": 0, "t": 1,
                        "weights": raw}
            parsers = [lambda: weights_of(parse_weights(raw, len(raw))),
                       lambda: weights_of(parse_instance(instance)[2]),
                       lambda: parse_affine_basis({"points": [raw]}).points[0]]
            try:
                expected = tuple(fraction_from_json(v) for v in raw)
            except InvalidInstance as exc:
                for parse in parsers:
                    with pytest.raises(InvalidInstance) as got:
                        parse()
                    assert str(got.value) == str(exc)
                continue
            for parse in parsers:
                assert parse() == expected
            text = [str(v) for v in raw]
            assert parse_rationals(",".join(text)) == [fraction_from_json(v) for v in text]

    def test_each_reader_parses_each_distinct_token_once(self, monkeypatch):
        # One fraction_from_json per distinct token, in first-seen order:
        # one table across all the points of a basis, and across the values
        # of a polymatroid table.
        calls = []

        def counted(value):
            calls.append(value)
            return fraction_from_json(value)

        monkeypatch.setattr("idsets.io.fraction_from_json", counted)
        raw = ["1/2", 3, "1/2", "0", 3, "0", "7/3"]
        instance = {"nodes": 2, "arcs": [[0, 1]] * len(raw), "s": 0, "t": 1, "weights": raw}
        points = [["1/2", 3], [3, "1/2"], ["0", "1/2"]]
        table = {"": "0", "0": "1/2", "1": "1/2", "0,1": 1}
        readers = [(lambda: parse_rationals("1/2,3,1/2,0,3"), ["1/2", "3", "0"]),
                   (lambda: parse_weights(raw, len(raw)), ["1/2", 3, "0", "7/3"]),
                   (lambda: parse_instance(instance), ["1/2", 3, "0", "7/3"]),
                   (lambda: parse_affine_basis({"points": points}), ["1/2", 3, "0"]),
                   (lambda: parse_polymatroid_table({"size": 2, "values": table}),
                    ["0", "1/2", 1])]
        for read, distinct in readers:
            calls.clear()
            read()
            assert calls == distinct

    def test_the_first_of_two_malformed_tokens_is_named(self):
        for raw, first in ((["1", "x", "2", "y"], "x"), (["y", "1", "x", "y"], "y")):
            instance = {"nodes": 2, "arcs": [[0, 1]] * len(raw), "s": 0, "t": 1,
                        "weights": raw}
            values = dict(zip(["", "0", "1", "0,1"], raw))
            for read in (lambda: parse_rationals(",".join(raw)),
                         lambda: parse_weights(raw, len(raw)),
                         lambda: parse_instance(instance),
                         lambda: parse_affine_basis({"points": [raw[:2], raw[2:]]}),
                         lambda: parse_polymatroid_table({"size": 2, "values": values})):
                with pytest.raises(InvalidInstance) as got:
                    read()
                assert str(got.value) == f"cannot parse rational from {first!r}"

    def test_table_keys_read_as_ids(self):
        # Digits and commas alone skip parse_ids; every other spelling still
        # goes through it, with its refusals, which come before that of a
        # malformed value in a later entry.
        values = {"": "0", "1": "1", "0,1": "2"}
        for key in ("0", "00", " 0", "0 "):
            oracle = parse_polymatroid_table({"size": 2, "values": {key: "1", **values}})
            assert oracle.value(frozenset({0, 1})) == 2
        for key, bad in (("0,,1", "''"), ("-1", "'-1'"), ("0,x", "'x'"), ("\uff10", "'\uff10'")):
            with pytest.raises(InvalidInstance) as got:
                parse_polymatroid_table({"size": 2, "values": {key: "1", **values, "1": "x"}})
            assert str(got.value) == f"malformed id list {key!r}: {bad} is not a decimal id"

    def test_flow_texts_once_per_object(self):
        shared = [Fraction(k, 7) for k in range(4)]
        values = [shared[k % 4] for k in range(50)] + [Fraction(2, 7), Fraction(3)]
        assert fractions_to_json(values) == [fraction_to_json(v) for v in values]
        assert fractions_to_json(()) == []


def _weights_or_error(read):
    """(scale, scaled) of the weights `read` returns, or its refusal's text."""
    try:
        w = read()
    except InvalidInstance as exc:
        return str(exc)
    return w.scale, w.scaled


class TestWeightsByToken:
    """The weights of a file or instance, split once per distinct token,
    against one `fraction_from_json` and one split per element."""

    @staticmethod
    def reference(raw):
        return _weights_or_error(lambda: WeightedGroundSet(list(map(fraction_from_json, raw))))

    @staticmethod
    def both_readers(raw):
        instance = {"nodes": 2, "arcs": [[0, 1]] * len(raw), "s": 0, "t": 1, "weights": raw}
        return (_weights_or_error(lambda: parse_weights({"weights": raw}, len(raw))),
                _weights_or_error(lambda: parse_instance(instance)[2]))

    @pytest.mark.parametrize("raw, expected", [
        (["2/4", "1/2", 1, "1"], (2, (1, 1, 2, 2))),
        (["0", 0, "0/3", "5"], (1, (0, 0, 0, 5))),
        ([3, "3", "6/2", "-0"], (1, (3, 3, 3, 0))),
        ([], (1, ())),
        (["1/3", "-1/6", "1/3", "-2"], "negative weight at element 1"),
        ([1, "-2/4", "x"], "cannot parse rational from 'x'"),
        (["1", 2.5, "-1"], "cannot parse rational from 2.5"),
        ([True, "1"], "cannot parse rational from True"),
    ], ids=["unreduced", "zeros", "mixed", "empty", "negative", "unparseable", "float",
            "bool"])
    def test_cases_match_the_reference(self, raw, expected):
        assert self.reference(raw) == expected
        assert self.both_readers(raw) == (expected, expected)

    def test_seeded_token_lists_match_the_reference(self):
        rng = random.Random(54)
        refused = negative = 0
        pool = ["0", "1", "2/4", "1/2", "3/6", "-1/3", "7", 0, 2, 5, "5", "x", None, "1/0"]
        for _ in range(400):
            raw = [rng.choice(pool[:rng.choice((7, 10, 14))]) for _ in range(rng.randint(0, 12))]
            expected = self.reference(raw)
            assert self.both_readers(raw) == (expected, expected)
            refused += isinstance(expected, str) and "parse" in expected
            negative += isinstance(expected, str) and "negative" in expected
        assert refused >= 50 and negative >= 50, (refused, negative)

    def test_a_count_mismatch_comes_after_a_refusal_and_before_a_sign(self):
        with pytest.raises(InvalidInstance, match="^cannot parse rational from 'x'$"):
            parse_weights(["x"], 2)
        with pytest.raises(InvalidInstance, match="^expected 2 weights, got 1$"):
            parse_weights(["-1"], 2)
        instance = {"nodes": 2, "arcs": [[0, 1]] * 2, "s": 0, "t": 1, "weights": ["-1"]}
        with pytest.raises(InvalidInstance, match="^one weight per arc required$"):
            parse_instance(instance)


class TestFlowText:
    """`fractions_to_json`, once per run of one object, against `str` of
    each value, on shared and distinct objects and on one-shot iterables."""

    def test_seeded_runs_of_shared_and_equal_objects(self):
        rng = random.Random(54)
        for _ in range(300):
            shared = [Fraction(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(4)]
            values = []
            for _ in range(rng.randint(0, 12)):
                item = (rng.choice(shared) if rng.random() < 0.7
                        else Fraction(rng.randint(0, 9), rng.randint(1, 4)))
                values += [item] * rng.randint(1, 5)
            assert fractions_to_json(values) == [str(v) for v in values]
            assert fractions_to_json(tuple(values)) == [str(v) for v in values]

    def test_one_shot_iterables_keep_each_text(self):
        # Each Fraction here is freed once read, so its id can come back on
        # the next one: a text cached by id alone would repeat '0' and '1/3'.
        expected = [str(Fraction(i, 3)) for i in range(8)]
        assert fractions_to_json(Fraction(i, 3) for i in range(8)) == expected
        assert fractions_to_json(map(Fraction, range(8), [3] * 8)) == expected


class TestInstanceRoundTrip:
    def test_full_cycle(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        st = StPair(0, 2)
        raw = ["1/2", 3, "7/3"]
        w = WeightedGroundSet(raw)
        data = json.loads(json.dumps(instance_to_json(g, st)))
        data["weights"] = raw
        g2, st2, w2 = parse_instance(data)
        assert g2.arcs == g.arcs and st2 == st
        assert [w2[i] for i in range(3)] == [w[i] for i in range(3)]

    def test_default_weights(self):
        g2, _, w2 = parse_instance({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1})
        assert w2[0] == 1

    def test_weight_count_mismatch(self):
        with pytest.raises(InvalidInstance):
            parse_instance({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1,
                            "weights": ["1", "2"]})

    def test_solution_list_round_trip(self):
        x = parse_solution_list({"dim": 3, "vectors": ["010", "101"]})
        assert solution_list_to_json(x) == {"dim": 3, "vectors": ["010", "101"]}

    def test_affine_basis(self):
        basis = parse_affine_basis({"points": [["1", "0"], ["0", "1"]]})
        assert basis.hull_dimension == 1

    def test_polymatroid_table_requires_all_subsets(self):
        with pytest.raises(InvalidInstance):
            parse_polymatroid_table({"size": 2, "values": {"": "0"}})


# Characters a JSON string escapes, or ensure_ascii spells as \u escapes
# (one outside the BMP, as a surrogate pair), among plain ones.
_CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "€",
          "\U0001f600", " ", "a", "Z", "0", ":", ","]
_FLOATS = [0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]


def _random_str(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return _random_str(rng)
    if kind == 1:  # small, 64-bit edge and far beyond 64 bits, either sign
        return rng.choice([1, -1]) * rng.choice([rng.randrange(10), 2**63 + rng.randrange(3),
                                                 rng.randrange(2**200)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(_FLOATS)
    return rng.randrange(-3, 1000)


def _random_value(rng: random.Random, depth: int = 0):
    """A nested value: containers (often empty, often all str and int, so
    that either list path runs) down to depth 4, then scalars."""
    kind = rng.randrange(7) if depth < 4 else 6
    size = rng.choice([0, 1, 2, 3, 5])
    if kind in (0, 1):  # str and int only, maybe with one other scalar mixed in
        items = [rng.choice([_random_str(rng), rng.randrange(-5, 2**70)]) for _ in range(size)]
        if size and kind == 1:
            items[rng.randrange(size)] = _random_scalar(rng)
        return items if rng.random() < 0.7 else tuple(items)
    if kind in (2, 3):
        items = [_random_value(rng, depth + 1) for _ in range(size)]
        return items if kind == 2 else tuple(items)
    if kind in (4, 5):
        return {_random_str(rng): _random_value(rng, depth + 1) for _ in range(size)}
    return _random_scalar(rng)


class TestJsonWriter:
    """`to_json` is json.dumps(indent=2, sort_keys=True), byte for byte."""

    @staticmethod
    def assert_same(value):
        assert to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_seeded_nested_values(self):
        rng = random.Random(19)
        for _ in range(2500):
            self.assert_same(_random_value(rng))

    @pytest.mark.parametrize("value", [
        [1, True], [True, 1], [0, False, "x"], ["a", None], [1, 2.0], [[], {}], ([], ()),
        {"b": [], "a": {}, "": [{}]}, [[1, True]], {"k": [2**64, -2**100]}, (), {},
        "", 'q"\\\n\x00é\U0001f600', 2**80, -0.0, float("nan"), None, True,
        ["a", 'q"'], ["\\"], ["a", "\n"], ["\x7f"], ["é"], ["a", "\u2028"],
        ["", ""], ["a", 1], [1, "a"], ("a", "b c"), ["a"],
    ], ids=repr)
    def test_edge_values(self, value):
        self.assert_same(value)

    def test_flow_witness_shape(self):
        payload = {"S": list(range(0, 3000, 3)), "cycle": [4, 9, 2], "identifying": False,
                   "flow_a": fractions_to_json([Fraction(k % 5, 3) for k in range(2000)]),
                   "flow_b": fractions_to_json([Fraction(k % 7, 3) for k in range(2000)])}
        self.assert_same(payload)

    def test_no_other_indenting_writer(self):
        # The output format lives in `to_json` alone; it passes no indent.
        src = Path(__file__).resolve().parents[1] / "src" / "idsets"
        calls = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("dump", "dumps")
                 and any(k.arg == "indent" for k in node.keywords)]
        assert calls == []

    @pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{2.5: "x"}], {True: 0}],
                             ids=repr)
    def test_keys_that_are_not_str_are_refused(self, value):
        # json would print these keys quoted ("1", "null", "2.5", "true"); no
        # payload has one, so the writer refuses them instead.
        with pytest.raises(TypeError, match="keys must be str"):
            to_json(value)


class TestCapsFromEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("IDSETS_MAX_PATHS", "123")
        assert Caps.from_env().max_paths == 123

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("IDSETS_MAX_PATHS", raising=False)
        assert Caps.from_env().max_paths == 100_000
