"""End-to-end CLI checks: JSON I/O, exit codes, deterministic reruns."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from idsets import cli
from idsets.caps import Caps
from idsets.cli import main
from idsets.errors import CAP_KNOBS, CapExceeded
from idsets.io import dump_json, fractions_to_json, instance_to_json

from .helpers import oracle_rank, seeded_negative_flow_verdicts


TRIANGLE = {"nodes": 3, "arcs": [[0, 1], [1, 2], [0, 2]], "s": 0, "t": 2}
BASIS = {"points": [["1", "0"], ["0", "1"]]}
X2 = {"dim": 2, "vectors": ["10", "01"]}
TABLE = {"size": 2, "values": {"": "0", "0": "1", "1": "1", "0,1": "1"}}
CONVEX = ["tolls", "--mode", "convex", "--basis", "{b}", "--S", "0"]
DISCRETE = ["tolls", "--mode", "discrete", "--solutions", "{x}", "--S", "0", "--target", "01"]

# (id, JSON files by name, argv with {name} for each file's path, stderr substring)
MALFORMED = [
    ("table-values", {"t": {"size": 2, "values": 5}},
     ["polymatroid-identify", "--table", "{t}"], "malformed table"),
    ("table-key-range", {"t": {"size": 2, "values": {"": "0", "0": "1", "5": "1", "0,1": "1"}}},
     ["polymatroid-identify", "--table", "{t}"], "table keys"),
    ("solutions-vectors", {"x": {"dim": 2, "vectors": 5}},
     ["explicit-identify", "--solutions", "{x}"], "malformed solution list"),
    ("solutions-bare-list", {"x": ["01", "10"]},
     ["explicit-identify", "--solutions", "{x}"], "malformed solution list"),
    ("basis-points", {"b": {"points": 5}},
     ["linear-identify", "--basis", "{b}"], "malformed basis"),
    ("graph-arcs", {"g": {"nodes": 3, "arcs": 5}},
     ["matroid-identify", "--kind", "graphic", "--graph", "{g}"], "malformed graph"),
    ("weights-value", {"w": {"weights": 5}},
     ["matroid-identify", "--kind", "free", "--n", "2", "--weights", "{w}"],
     "malformed weights"),
    ("weights-string-one-then-true", {"w": {"weights": ["1", True]}},
     ["matroid-identify", "--kind", "free", "--n", "2", "--weights", "{w}"],
     "cannot parse rational from True"),
    ("weights-one-then-float-one", {"w": {"weights": [1, 1.0]}},
     ["matroid-identify", "--kind", "free", "--n", "2", "--weights", "{w}"],
     "cannot parse rational from 1.0"),
    # A string or object where an array belongs would be read one character
    # or one key per value.
    ("instance-weights-string", {"i": {**TRIANGLE, "weights": "123"}},
     ["flow-identify", "{i}"], "malformed weights: expected an array, got str"),
    ("instance-weights-object",
     {"i": {"nodes": 2, "arcs": [[0, 1], [0, 1]], "s": 0, "t": 1, "weights": {"0": 1, "1": 2}}},
     ["flow-identify", "{i}"], "malformed weights: expected an array, got dict"),
    ("weights-string", {"w": {"weights": "12"}},
     ["matroid-identify", "--kind", "free", "--n", "2", "--weights", "{w}"],
     "malformed weights: expected an array, got str"),
    ("basis-point-string", {"b": {"points": ["00", "10", "01"]}},
     ["linear-identify", "--basis", "{b}"], "malformed basis: expected an array, got str"),
    ("basis-points-object", {"b": {"points": {"00": 1, "10": 1, "01": 1}}},
     ["linear-identify", "--basis", "{b}"], "malformed basis: expected an array, got dict"),
    ("solutions-vectors-string", {"x": {"dim": 1, "vectors": "01"}},
     ["explicit-identify", "--solutions", "{x}"],
     "malformed solution list: expected an array, got str"),
    ("solutions-vector-object", {"x": {"dim": 2, "vectors": [{"0": 5, "1": 7}]}},
     ["explicit-identify", "--solutions", "{x}"],
     "malformed solution list: expected an array, got dict"),
    ("verify-file", {"i": TRIANGLE, "s": {"S": 5}},
     ["flow-identify", "{i}", "--verify", "{s}"], "malformed id set"),
    ("graph-arcs-object", {"i": {"nodes": 3, "arcs": {"01": 1, "12": 1}, "s": 0, "t": 2}},
     ["flow-identify", "{i}"], "malformed graph: expected an array, got dict"),
    ("graph-arcs-string", {"i": {"nodes": 3, "arcs": "0112", "s": 0, "t": 2}},
     ["flow-identify", "{i}"], "malformed graph: expected an array, got str"),
    ("verify-file-string", {"i": TRIANGLE, "s": {"S": "01"}},
     ["flow-identify", "{i}", "--verify", "{s}"], "malformed id set: expected an array, got str"),
    ("path-verify-S-object", {"i": TRIANGLE, "s": {"S": {"0": 1}}},
     ["path-verify", "{i}", "--S", "{s}"], "malformed id set: expected an array, got dict"),
    ("cap-rational", {},
     ["polymatroid-identify", "--family", "budget-additive", "--cap", "1/0", "--gains", "1,2"],
     "'1/0'"),
    ("target-rational", {"b": BASIS}, CONVEX + ["--target", "1/0,1"], "'1/0'"),
    ("cost-rational", {"b": BASIS}, CONVEX + ["--target", "1,0", "--cost", "linear:1,1/0"],
     "'1/0'"),
    ("margin-rational", {"x": X2}, DISCRETE + ["--margin", "1/0"], "'1/0'"),
    # Convex mode does not use the margin, but it is parsed before the mode split.
    ("margin-rational-convex", {"b": BASIS}, CONVEX + ["--target", "1,0", "--margin", "1/0"],
     "'1/0'"),
    # With margin -5, state 001 would cost -4 and the target 010 cost 4.
    ("margin-negative", {"x": {"dim": 3, "vectors": ["010", "110", "001"]}},
     ["tolls", "--mode", "discrete", "--solutions", "{x}", "--S", "0,1,2", "--target", "010",
      "--margin=-5"], "margin must be >= 0, got -5"),
    ("tolls-solutions", {"x": {"dim": 2, "vectors": 5}}, DISCRETE, "malformed solution list"),
    ("vc-edges", {}, ["gen", "--family", "vc-dag", "--vc-vertices", "2", "--vc-edges", "0-x"],
     "malformed edge list"),
    ("target-not-bits", {"x": X2}, DISCRETE + ["--target", "02"],
     "expected a 0/1 string of length 2, got '02'"),
    ("target-length", {"x": X2}, DISCRETE + ["--target", "011"],
     "expected a 0/1 string of length 2, got '011'"),
    ("target-digits", {"x": X2}, DISCRETE + ["--target", "012"],
     "expected a 0/1 string of length 2, got '012'"),
    # The dimension is a count, refused with the message every count has.
    ("solutions-negative-dim", {"x": {"dim": -1, "vectors": []}},
     ["explicit-identify", "--solutions", "{x}"], "invalid input: dimension must be nonnegative"),
    ("solutions-half", {"x": {"dim": 2, "vectors": [[0.5, 1], [1, 0]]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got 0.5"),
    ("solutions-three-halves", {"x": {"dim": 2, "vectors": [["3/2", "0"], ["1", "0"]]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got '3/2'"),
    ("solutions-string-two", {"x": {"dim": 2, "vectors": ["10", "02"]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got '2'"),
    ("solutions-string-space", {"x": {"dim": 2, "vectors": ["1 ", "01"]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got ' '"),
    ("solutions-list-true", {"x": {"dim": 2, "vectors": [[0, True], [1, 0]]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got True"),
    ("solutions-list-float-one", {"x": {"dim": 2, "vectors": [[0, 1], [1.0, 0]]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got 1.0"),
    ("solutions-list-string-two", {"x": {"dim": 2, "vectors": [["1", "0"], ["0", "2"]]}},
     ["explicit-identify", "--solutions", "{x}"],
     "solution coordinates must be 0 or 1, got '2'"),
    ("arc-endpoint-float", {"i": {"nodes": 3, "arcs": [[0, 1.9], [1, 2]], "s": 0, "t": 2}},
     ["flow-identify", "{i}"], "expected an integer, got 1.9"),
    ("arc-endpoint-bool", {"i": {"nodes": 3, "arcs": [[0, True], [1, 2]], "s": 0, "t": 2}},
     ["flow-identify", "{i}"], "expected an integer, got True"),
    # [1, 2, 9] was once read as the arc 1 -> 2, its 9 dropped.
    ("arc-triple", {"i": dict(TRIANGLE, arcs=[[0, 1], [1, 2, 9]])},
     ["flow-identify", "{i}"], "malformed graph: arc 1 is not a [tail, head] pair: [1, 2, 9]"),
    ("arc-single", {"i": dict(TRIANGLE, arcs=[[0, 1], [1]])},
     ["path-exact", "{i}"], "malformed graph: arc 1 is not a [tail, head] pair: [1]"),
    ("arc-empty", {"g": dict(TRIANGLE, arcs=[[0, 1], []])},
     ["matroid-identify", "--kind", "graphic", "--graph", "{g}"],
     "malformed graph: arc 1 is not a [tail, head] pair: []"),
    # A two-key object once passed the length check and read as "missing graph key: 0".
    ("arc-object", {"i": dict(TRIANGLE, arcs=[[0, 1], {"t": 1, "h": 2}])},
     ["flow-identify", "{i}"],
     "malformed graph: arc 1 is not a [tail, head] pair: {'h': 2, 't': 1}"),
    ("arc-object-digit-keys", {"i": dict(TRIANGLE, arcs=[[0, 1], {"0": 1, "1": 2}])},
     ["flow-identify", "{i}"],
     "malformed graph: arc 1 is not a [tail, head] pair: {'0': 1, '1': 2}"),
    ("arc-integer", {"i": dict(TRIANGLE, arcs=[[0, 1], 5])},
     ["path-verify", "{i}", "--S", "0"], "malformed graph"),
    ("arc-string", {"i": dict(TRIANGLE, arcs=[[0, 1], "12"])},
     ["flow-identify", "{i}"], "expected an integer, got '1'"),
    ("nodes-float", {"i": dict(TRIANGLE, nodes=3.5)},
     ["flow-identify", "{i}"], "expected an integer, got 3.5"),
    ("source-float", {"i": dict(TRIANGLE, s=0.5)},
     ["flow-identify", "{i}"], "expected an integer, got 0.5"),
    ("id-set-float", {"i": TRIANGLE, "s": {"S": [1.7]}},
     ["path-verify", "{i}", "--S", "{s}"], "expected an integer, got 1.7"),
    ("dim-float", {"x": dict(X2, dim=2.0)},
     ["explicit-identify", "--solutions", "{x}"], "expected an integer, got 2.0"),
    ("size-float", {"t": dict(TABLE, size=2.0)},
     ["polymatroid-identify", "--table", "{t}"], "expected an integer, got 2.0"),
    ("ids-underscore-sign", {"i": TRIANGLE}, ["path-verify", "{i}", "--S", "+0,0_1,2"],
     "'+0' is not a decimal id"),
    ("capacities-sign-underscore", {},
     ["matroid-identify", "--kind", "partition", "--blocks", "0,1;2", "--capacities", "+1,0_1"],
     "'+1' is not a decimal id"),
    ("blocks-underscore", {},
     ["matroid-identify", "--kind", "partition", "--blocks", "0,1;0_2", "--capacities", "1,1"],
     "'0_2' is not a decimal id"),
    ("table-key-sign", {"t": {"size": 2, "values": {"": "0", "+0": "1", "1": "1", "0,1": "1"}}},
     ["polymatroid-identify", "--table", "{t}"], "'+0' is not a decimal id"),
    ("vc-edges-sign-underscore", {},
     ["gen", "--family", "vc-dag", "--vc-vertices", "3", "--vc-edges", "+0-1,0_1-2"],
     "'+0' is not a decimal id"),
    ("cost-count", {"b": BASIS}, CONVEX + ["--target", "1,0", "--cost", "linear:1"],
     "cost needs 2 coefficients"),
    ("weights-length", {"w": {"weights": ["1", "2", "3"]}},
     ["matroid-identify", "--kind", "free", "--n", "2", "--weights", "{w}"],
     "expected 2 weights, got 3"),
]
# Every subcommand that reads an s-t instance, with {i} for its path.
ST_COMMANDS = [
    ["flow-identify", "{i}"],
    ["path-verify", "{i}", "--S", "0"],
    ["path-verify", "{i}", "--S", "0", "--general"],
    ["path-exact", "{i}"],
    ["path-approx", "{i}"],
    ["path-gap", "{i}"],
    ["gen", "--family", "bundle", "--instance", "{i}", "--arc", "0", "--size", "2"],
]
# (id, environment, argv with {i} for an instance path, stderr line)
CAPS_BELOW_ONE = [
    ("max-subsets-flag", {}, ["path-exact", "{i}", "--max-subsets", "-1"],
     "max_subsets = -1 (IDSETS_MAX_SUBSETS / --max-subsets): must be >= 1"),
    ("max-paths-flag", {}, ["path-exact", "{i}", "--max-paths", "0"],
     "max_paths = 0 (IDSETS_MAX_PATHS / --max-paths): must be >= 1"),
    ("max-subsets-variable", {"IDSETS_MAX_SUBSETS": "-5"},
     ["polymatroid-identify", "--family", "coverage", "--sets", "0,1;1,2"],
     "max_subsets = -5 (IDSETS_MAX_SUBSETS / --max-subsets): must be >= 1"),
]


def run_cli(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "idsets.cli", *args],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


@pytest.fixture()
def tight_k3(tmp_path):
    path = tmp_path / "tight_k3.json"
    code = main(["gen", "--family", "tight-gap", "--k", "3", "--out", str(path)])
    assert code == 0
    return str(path)


class TestFlowIdentify:
    def test_weight_six(self, tight_k3, capsys):
        code = main(["flow-identify", tight_k3])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["weight"] == "6"
        assert len(out["S"]) == 6
        assert len(out["E_prime"]) == 13
        assert len(out["forest"]) == 7

    def test_verify_false_with_witness(self, tight_k3, capsys):
        code = main(["flow-identify", tight_k3, "--verify", "10,11,12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["identifying"] is False
        assert "cycle" in out

    @pytest.mark.parametrize("ids", ["0,99", "-1"])
    def test_verify_out_of_range_is_usage_error(self, tight_k3, capsys, ids):
        assert main(["flow-identify", tight_k3, "--verify", ids]) == 2
        assert capsys.readouterr().out == ""


class TestFlowWitnessText:
    def test_flow_b_text_is_flow_a_text_with_the_cycle_reprinted(self, tmp_path, capsys):
        # The CLI copies flow_a's text and reprints the cycle arcs alone, so
        # flow_b may differ from flow_a, object for object, on those arcs only.
        instance, ids = tmp_path / "g.json", tmp_path / "s.json"
        for g, st, s, witness in seeded_negative_flow_verdicts(150, seed=67):
            changed = {i for i, (a, b) in enumerate(zip(witness.flow_a, witness.flow_b))
                       if a is not b}
            assert changed <= set(witness.cycle)
            dump_json(str(instance), instance_to_json(g, st))
            dump_json(str(ids), {"S": s})
            assert main(["flow-identify", str(instance), "--verify", str(ids)]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["flow_a"] == fractions_to_json(witness.flow_a)
            assert out["flow_b"] == fractions_to_json(witness.flow_b)


class TestEchoedSet:
    # A verifier echoes S as the set it checked: sorted, each id once.
    @pytest.mark.parametrize("argv", [
        ["path-verify", "{i}", "--S", "12,10,12,11,10"],
        ["path-verify", "{i}", "--S", "12,10,12,11,10", "--general"],
        ["flow-identify", "{i}", "--verify", "12,10,12,11,10"],
    ], ids=["path-verify", "path-verify-general", "flow-identify"])
    def test_repeated_ids_are_echoed_once(self, tight_k3, capsys, argv):
        main([a.format(i=tight_k3) for a in argv])
        assert json.loads(capsys.readouterr().out)["S"] == [10, 11, 12]

    def test_repeated_ids_from_a_file(self, tight_k3, tmp_path, capsys):
        sfile = str(tmp_path / "s.json")
        dump_json(sfile, {"S": [0, 0]})
        assert main(["path-verify", tight_k3, "--S", sfile]) == 1
        assert json.loads(capsys.readouterr().out)["S"] == [0]


class TestParserReuse:
    def argvs(self, tmp_path, instance):
        paths_ = {}
        for name, data in (("x", X2), ("b", BASIS), ("t", TABLE)):
            paths_[name] = str(tmp_path / f"{name}.json")
            dump_json(paths_[name], data)
        x, b, t = paths_["x"], paths_["b"], paths_["t"]
        return [
            ["flow-identify", instance, "--verify", "10,11,12"],
            ["flow-identify", instance],
            ["path-verify", instance, "--S", "10,11,12", "--general", "--max-paths", "5"],
            ["path-verify", instance, "--S", "10,11,12"],
            ["path-exact", instance, "--max-paths", "5"],
            ["path-exact", instance],
            ["path-approx", instance],
            ["path-gap", instance],
            ["matroid-identify", "--kind", "partition", "--blocks", "0,1;2",
             "--capacities", "1,1"],
            ["matroid-identify", "--kind", "uniform", "--k", "1", "--n", "3"],
            ["polymatroid-identify", "--table", t],
            ["linear-identify", "--basis", b],
            ["explicit-identify", "--solutions", x, "--exact", "--max-subsets", "9"],
            ["explicit-identify", "--solutions", x],
            ["tolls", "--mode", "discrete", "--solutions", x, "--S", "0,1",
             "--target", "01", "--nonnegative"],
            ["tolls", "--mode", "convex", "--basis", b, "--S", "0", "--target", "1,0"],
            ["gen", "--family", "tight-gap", "--k", "2"],
            ["path-verify", instance],
            ["path-exact", "--help"],
            ["--help"],
        ]

    def test_shared_parser_answers_like_a_fresh_one(self, tight_k3, tmp_path, capsys):
        argvs = self.argvs(tmp_path, tight_k3)
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr().out))
        assert {code for code, _ in fresh} == {0, 1, 2, 3}
        cli.build_parser.cache_clear()
        shared = [(main(argv), capsys.readouterr().out) for argv in argvs + argvs]
        assert shared == fresh + fresh
        assert cli.build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        code = ("import idsets.cli as c, sys; "
                "sys.exit(c.build_parser.cache_info().currsize)")
        assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


class TestPathCommands:
    def test_verify_marked_arcs_true(self, tight_k3, capsys):
        code = main(["path-verify", tight_k3, "--S", "10,11,12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["identifying"] is True

    def test_verify_empty_false(self, tight_k3, capsys):
        code = main(["path-verify", tight_k3, "--S", ""])
        assert code == 1

    def test_general_flag(self, tight_k3, capsys):
        code = main(["path-verify", tight_k3, "--S", "10,11,12", "--general"])
        assert code == 0

    def test_exact_and_gap(self, tight_k3, capsys):
        code = main(["path-exact", tight_k3])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["S"]) == 3
        code = main(["path-gap", tight_k3])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ratio"] == "2"

    def test_approx(self, tight_k3, capsys):
        code = main(["path-approx", tight_k3])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["S"]) == 6

    def test_subset_cap_exit_three(self, tight_k3):
        code = main(["path-exact", tight_k3, "--max-subsets", "4"])
        assert code == 3

    def test_subset_cap_names_cap_and_count(self, tight_k3, capsys):
        code = main(["path-exact", tight_k3, "--max-subsets", "5"])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert "max_subsets = 5" in out.err and "visited 6 nodes" in out.err


class TestLongPaths:
    @pytest.mark.parametrize("flags, key, value", [
        ([], "S", []),
        (["--S", "", "--general"], "identifying", True),
    ], ids=["path-exact", "path-verify-general"])
    def test_chain_of_1500_nodes(self, tmp_path, capsys, flags, key, value):
        # One s-t path of 1,499 arcs, longer than the default recursion limit.
        path = str(tmp_path / "chain.json")
        dump_json(path, {"nodes": 1500, "arcs": [[v, v + 1] for v in range(1499)],
                         "s": 0, "t": 1499})
        command = "path-exact" if key == "S" else "path-verify"
        assert main([command, path, *flags]) == 0
        assert json.loads(capsys.readouterr().out)[key] == value


class TestCapMessages:
    @pytest.mark.parametrize("env, argv, line", [
        ({}, ["path-verify", "{i}", "--S", "10,11,12", "--general", "--max-paths", "1"],
         "max_paths = 1 (IDSETS_MAX_PATHS / --max-paths): found 2 s-t paths"),
        ({}, ["path-exact", "{i}", "--max-subsets", "5"],
         "max_subsets = 5 (IDSETS_MAX_SUBSETS / --max-subsets): "
         "the exact hitting-set search visited 6 nodes"),
    ], ids=["max_paths", "max_subsets"])
    def test_line_names_cap_knobs_and_count(self, tight_k3, capsys, monkeypatch,
                                             env, argv, line):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main([arg.format(i=tight_k3) for arg in argv]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"cap exceeded: {line}\n"

    def test_every_cap_has_one_knob(self):
        # A retired cap leaves no stale entry, and a new one needs its knob.
        assert set(CAP_KNOBS) == {cap.name for cap in fields(Caps)}

    def test_every_cap_error_names_a_live_cap(self):
        # A retired cap leaves no error class behind naming its knob.
        assert {cap.name for cap in fields(Caps)} == set(CAP_KNOBS)
        subclasses = CapExceeded.__subclasses__()
        assert subclasses
        for error in subclasses:
            message = str(error(7, "reached"))
            name = message.split(" = ")[0]
            assert name in CAP_KNOBS, error.__name__
            assert message == f"{name} = 7 ({CAP_KNOBS[name]}): reached"

    def test_summary_line_shows_only_the_caps_the_cli_reads(self, tight_k3, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("IDSETS_MAX_PATHS", "7")
        assert main(["flow-identify", tight_k3, "--verify", "10,11,12"]) == 1
        err = capsys.readouterr().err
        summary, = err.splitlines()
        assert summary.startswith("# flow-identify digest=")
        assert summary.endswith(f" max_paths=7 max_subsets={2**24}")
        assert "max_ground" not in err and "max_fm_vars" not in err


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _ = run_cli(["flow-identify", "--bogus"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = run_cli(["fly-identify"])
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["flow-identify", "/nonexistent.json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("invalid input:")

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["flow-identify", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["path-verify", "{deep}", "--S", "0"],
        ["flow-identify", "{deep}"],
        ["path-verify", "{instance}", "--S", "{deep}"],
    ], ids=["path-verify", "flow-identify", "S-file"])
    def test_deeply_nested_json_is_usage_error(self, tight_k3, tmp_path, capsys, argv):
        # The decoder's RecursionError once escaped as a traceback, exit 1.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main([arg.format(deep=deep, instance=tight_k3) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"invalid input: {deep} nests too deeply to read\n"

    @pytest.mark.parametrize("instance", [
        {"nodes": 2, "arcs": 5, "s": 0, "t": 1},
        {"nodes": 2, "arcs": [[0]], "s": 0, "t": 1},
        {"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "weights": ["1/0"]},
    ], ids=["arcs-not-a-list", "short-arc", "zero-denominator"])
    def test_malformed_instance_is_usage_error(self, tmp_path, capsys, instance):
        path = tmp_path / "instance.json"
        dump_json(str(path), instance)
        assert main(["flow-identify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid input:")

    @pytest.mark.parametrize("files, argv, message",
                             [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, files, argv, message):
        paths = {}
        for name, data in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            dump_json(paths[name], data)
        assert main([arg.format(**paths) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid input:") and message in out.err

    @pytest.mark.parametrize("env, argv, line", [case[1:] for case in CAPS_BELOW_ONE],
                             ids=[case[0] for case in CAPS_BELOW_ONE])
    def test_cap_below_one_is_usage_error(self, tight_k3, capsys, monkeypatch, env, argv, line):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main([arg.format(i=tight_k3) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"invalid input: {line}\n"

    @pytest.mark.parametrize("argv", ST_COMMANDS, ids=[
        "flow-identify", "path-verify", "path-verify-general", "path-exact", "path-approx",
        "path-gap", "gen-bundle"])
    def test_self_loop_is_usage_error(self, tmp_path, capsys, argv):
        # path-approx once sorted the graph first and exited 1 on the loop's cycle.
        path = tmp_path / "loop.json"
        dump_json(str(path), {"nodes": 3, "arcs": [[0, 1], [1, 2], [1, 1]], "s": 0, "t": 2})
        assert main([arg.format(i=path) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "invalid input: self-loops are not allowed in s-t settings\n"

    def test_malformed_cap_variable_is_usage_error(self, tight_k3, capsys, monkeypatch):
        monkeypatch.setenv("IDSETS_MAX_PATHS", "abc")
        assert main(["flow-identify", tight_k3]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid input: IDSETS_MAX_PATHS")

    @pytest.mark.parametrize("argv, line", [
        # Without --kind, matroid-rank once fell through to the partition kind and exited 0.
        (["polymatroid-identify", "--family", "matroid-rank", "--blocks", "0,1",
          "--capacities", "1"], "--kind required for --family matroid-rank"),
        (["matroid-identify", "--kind", "graphic"], "--graph required for --kind graphic"),
        (["polymatroid-identify", "--family", "budget-additive", "--gains", "1"],
         "--cap and --gains required for --family budget-additive"),
        (["gen", "--family", "bundle", "--instance", "", "--arc", "1"],
         "--instance, --arc and --size required for --family bundle"),
    ], ids=["matroid-rank", "graphic", "budget-additive", "bundle"])
    def test_missing_flag_is_named(self, capsys, argv, line):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"invalid input: {line}\n"


class TestInternalError:
    @pytest.mark.parametrize("target, argv", [
        ("idsets.paths.verify_path_identifying_dag", ["path-verify", "{i}", "--S", "0"]),
        ("idsets.matroids.min_weight_matroid_identifying",
         ["matroid-identify", "--kind", "free", "--n", "2"]),
    ], ids=["path-verify", "matroid-identify"])
    def test_non_library_exception_exits_4(self, tight_k3, capsys, monkeypatch, target, argv):
        # Such an exception once escaped main, and its exit 1 read as
        # "not identifying".
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(target, broken)
        assert main([arg.format(i=tight_k3) for arg in argv]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("Traceback (most recent call last):\n")
        assert out.err.endswith("RuntimeError: solver bug\n"
                                "internal error: RuntimeError: solver bug\n")


class TestSummaryDigest:
    def test_digest_covers_every_file_read(self, tight_k3, tmp_path, capsys):
        # Two --S files that differ only in whitespace: the same answer, but
        # each digest is that of the instance bytes followed by its own file.
        runs = []
        for name, text in (("tight.json", '{"S": [10, 11, 12]}'),
                           ("loose.json", '{ "S" : [10,11,12] }\n')):
            path = tmp_path / name
            path.write_text(text)
            assert main(["path-verify", tight_k3, "--S", str(path)]) == 0
            out = capsys.readouterr()
            digest = out.err.split("digest=")[1].split()[0]
            read = Path(tight_k3).read_bytes() + text.encode()
            assert digest == hashlib.sha256(read).hexdigest()[:16]
            runs.append((out.out, digest))
        assert runs[0][0] == runs[1][0] and runs[0][1] != runs[1][1]


class TestPayloadReVerifies:
    def test_flow_result_round_trips_through_verify(self, tight_k3, capsys):
        assert main(["flow-identify", tight_k3]) == 0
        s = json.loads(capsys.readouterr().out)["S"]
        ids = ",".join(str(a) for a in s)
        assert main(["flow-identify", tight_k3, "--verify", ids]) == 0
        capsys.readouterr()

    def test_exact_path_result_verifies(self, tight_k3, capsys):
        assert main(["path-exact", tight_k3]) == 0
        s = json.loads(capsys.readouterr().out)["S"]
        ids = ",".join(str(a) for a in s)
        assert main(["path-verify", tight_k3, "--S", ids]) == 0
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_reruns(self, tight_k3):
        first = run_cli(["flow-identify", tight_k3])
        second = run_cli(["flow-identify", tight_k3])
        assert first == second

    def test_gen_seeded_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--family", "random-dag", "--nodes", "6", "--seed", "7",
              "--out", str(a)])
        main(["gen", "--family", "random-dag", "--nodes", "6", "--seed", "7",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def witness_instances(count: int = 40):
    """Seeded digraphs (odd seeds) and DAGs (even seeds) on 3-9 nodes with two
    repeated arcs, weights on every third, plus three random id sets each."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        arcs = []
        for _ in range(rng.randint(n, min(2 * n, 14))):
            a, b = rng.sample(range(n), 2)
            arcs.append([min(a, b), max(a, b)] if seed % 2 == 0 else [a, b])
        arcs += [list(a) for a in rng.sample(arcs, 2)]
        instance = {"nodes": n, "arcs": arcs, "s": 0, "t": n - 1}
        if seed % 3 == 0:
            instance["weights"] = [f"{rng.randint(1, 5)}/{rng.randint(1, 3)}" for _ in arcs]
        subsets = [",".join(map(str, sorted(rng.sample(range(len(arcs)),
                                                       rng.randint(0, len(arcs))))))
                   for _ in range(3)]
        yield instance, subsets


class TestWitnessBytes:
    # sha256 of every exit code and stdout below, recorded before adjacency
    # caching and the shared BFS replaced the per-call traversals.
    DIGEST = "694674f257fe533a0cfb3526da78e4daf915118268bb4060cc934716ca730a9a"

    def test_flow_and_path_witnesses_are_pinned(self, tmp_path):
        path = str(tmp_path / "instance.json")
        digest = hashlib.sha256()
        for instance, subsets in witness_instances():
            dump_json(path, instance)
            argvs = [["flow-identify", path], ["path-approx", path], ["path-exact", path]]
            for s in subsets:
                argvs += [["flow-identify", path, "--verify", s],
                          ["path-verify", path, "--S", s],
                          ["path-verify", path, "--S", s, "--general"]]
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                digest.update(f"{argv[0]} {code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == self.DIGEST


def graphic_instances(count: int = 30):
    """Seeded undirected multigraphs on 1-9 nodes for `matroid-identify --kind
    graphic`: repeated arcs, some self-loops, often an isolated node, and
    weights on every other graph."""
    for seed in range(count):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 9)
        arcs = [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(0, 2 * n + 2))]
        arcs += [list(a) for a in rng.sample(arcs, min(2, len(arcs)))]
        weights = None
        if seed % 2:
            weights = [f"{rng.randint(1, 6)}/{rng.randint(1, 2)}" for _ in arcs]
        yield {"nodes": n + rng.randint(0, 1), "arcs": arcs}, weights


class TestGraphicComponentBytes:
    # sha256 of every exit code and stdout below, recorded before graphic
    # matroids read their fundamental circuits from a spanning forest.
    DIGEST = "ba719e3428ce2b129d8ffd49ffd1c1b122afa69ed619a02a0c9c6b3b5ef58761"

    def test_graphic_components_are_pinned(self, tmp_path):
        graph, wfile = str(tmp_path / "graph.json"), str(tmp_path / "w.json")
        digest = hashlib.sha256()
        for instance, weights in graphic_instances():
            dump_json(graph, instance)
            argv = ["matroid-identify", "--kind", "graphic", "--graph", graph]
            if weights is not None:
                dump_json(wfile, {"weights": weights})
                argv += ["--weights", wfile]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digest.update(f"{code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == self.DIGEST


def explicit_lists(count: int = 48):
    """Seeded 0/1 lists in dimension 1-16 with 1-24 vectors (duplicates
    possible) for `explicit-identify`, weights on every third list."""
    for seed in range(count):
        rng = random.Random(2000 + seed)
        dim = rng.randint(1, 16)
        vectors = ["".join(rng.choice("01") for _ in range(dim))
                   for _ in range(rng.randint(1, 24))]
        weights = None
        if seed % 3 == 0:
            weights = [f"{rng.randint(0, 6)}/{rng.randint(1, 3)}" for _ in range(dim)]
        yield {"dim": dim, "vectors": vectors}, weights


class TestExplicitBytes:
    # sha256 of every exit code and stdout below, recorded before explicit
    # lists and general paths moved onto one bitmask core in idsets.search.
    DIGEST = "fb6651cbff299f73b21ae6564804c09d66f5635defbc70677f8903dbc3bf0b19"

    def test_greedy_and_exact_are_pinned(self, tmp_path):
        xfile, wfile = str(tmp_path / "x.json"), str(tmp_path / "w.json")
        digest = hashlib.sha256()
        for solutions, weights in explicit_lists():
            dump_json(xfile, solutions)
            argv = ["explicit-identify", "--solutions", xfile]
            if weights is not None:
                dump_json(wfile, {"weights": weights})
                argv += ["--weights", wfile]
            for flags in ([], ["--exact"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv + flags)
                digest.update(f"{code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == self.DIGEST


# Zeros, one value spelled three ways, leading-zero integers and coprime
# denominators up to 7: every tie that a weight comparison can break.
WEIGHT_TOKENS = ("0", "00", "0/5", "1/2", "2/4", "3/6", "007", "7", "1", "01", "1/3",
                 "2/6", "1/5", "2/7", "3/4", "5/6", "6/7", "12/7", "4/1", "3/2")


def weighted_commands(count: int = 24):
    """Seeded (files by name, argv with {name} per file) for every subcommand
    that reads weights: flow-identify and path-approx on a weighted DAG,
    linear-identify, matroid-identify (uniform, partition),
    polymatroid-identify (budget-additive) and explicit-identify (greedy,
    exact). Weight files alternate between a bare list and {"weights": [...]}."""
    for seed in range(count):
        rng = random.Random(3000 + seed)

        def weights(size: int):
            tokens = [rng.choice(WEIGHT_TOKENS) for _ in range(size)]
            return tokens if seed % 2 else {"weights": tokens}

        n = rng.randint(2, 8)
        spine = [0, *sorted(rng.sample(range(1, n - 1), rng.randint(0, n - 2))), n - 1]
        arcs = [list(a) for a in zip(spine, spine[1:])]
        arcs += [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        rng.shuffle(arcs)
        dag = {"nodes": n, "arcs": arcs, "s": 0, "t": n - 1,
               "weights": [rng.choice(WEIGHT_TOKENS) for _ in arcs]}
        yield {"i": dag}, ["flow-identify", "{i}"]
        yield {"i": dag}, ["path-approx", "{i}"]

        dim, k = rng.randint(1, 7), rng.randint(0, 4)
        points = [[rng.choice(["0", "1", "-1", "2", "1/2"]) for _ in range(dim)]
                  for _ in range(min(k, dim) + 1)]
        while oracle_rank([[Fraction(a) - Fraction(b) for a, b in zip(p, points[0])]
                           for p in points[1:]]) < len(points) - 1:
            points.pop()
        yield ({"b": {"points": points}, "w": weights(dim)},
               ["linear-identify", "--basis", "{b}", "--weights", "{w}"])

        n = rng.randint(1, 9)
        yield ({"w": weights(n)},
               ["matroid-identify", "--kind", "uniform", "--k", str(rng.randint(0, n)),
                "--n", str(n), "--weights", "{w}"])
        ids = list(range(n))
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        blocks = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        yield ({"w": weights(n)},
               ["matroid-identify", "--kind", "partition",
                "--blocks", ";".join(",".join(map(str, b)) for b in blocks),
                "--capacities", ",".join(str(rng.randint(0, len(b))) for b in blocks),
                "--weights", "{w}"])
        yield ({"w": weights(n)},
               ["polymatroid-identify", "--family", "budget-additive",
                "--cap", rng.choice(WEIGHT_TOKENS),
                "--gains", ",".join(rng.choice(WEIGHT_TOKENS) for _ in range(n)),
                "--weights", "{w}"])

        dim = rng.randint(1, 10)
        x = {"dim": dim, "vectors": ["".join(rng.choice("01") for _ in range(dim))
                                     for _ in range(rng.randint(1, 16))]}
        w = weights(dim)
        yield {"x": x, "w": w}, ["explicit-identify", "--solutions", "{x}", "--weights", "{w}"]
        yield ({"x": x, "w": w},
               ["explicit-identify", "--solutions", "{x}", "--weights", "{w}", "--exact"])


class TestWeightBytes:
    # sha256 of every argv, exit code and stdout below, recorded before
    # WeightedGroundSet kept one integer vector over the lcm of its
    # denominators and the solvers compared those integers.
    DIGEST = "027f4d08d8da6f6e6fc356960063242e581b4c801526dc502f17ffba23396591"

    def test_weighted_answers_are_pinned(self, tmp_path):
        digest = hashlib.sha256()
        for files, argv in weighted_commands():
            paths_ = {name: str(tmp_path / f"{name}.json") for name in files}
            for name, data in files.items():
                with open(paths_[name], "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            argv = [a.format(**paths_) if a.startswith("{") else a for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            shown = " ".join(a for a in argv if not a.endswith(".json"))
            digest.update(f"{shown} {code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == self.DIGEST


class TestGenRoundTrip:
    def test_every_family_feeds_solvers(self, tmp_path, capsys):
        specs = [
            ["gen", "--family", "tight-gap", "--k", "2"],
            ["gen", "--family", "vc-dag", "--vc-vertices", "3",
             "--vc-edges", "0-1,1-2", "--ell", "1"],
            ["gen", "--family", "random-dag", "--nodes", "5", "--seed", "3"],
        ]
        for i, spec in enumerate(specs):
            path = tmp_path / f"inst{i}.json"
            assert main(spec + ["--out", str(path)]) == 0
            capsys.readouterr()
            for cmd in (["flow-identify"], ["path-exact"], ["path-approx"],
                        ["path-gap"]):
                code = main(cmd + [str(path)])
                capsys.readouterr()
                assert code in (0, 1)

    def test_bundle_family(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        dump_json(str(base), {"nodes": 4, "arcs": [[0, 1], [1, 2], [2, 3]],
                              "s": 0, "t": 3})
        out = tmp_path / "bundle.json"
        code = main(["gen", "--family", "bundle", "--instance", str(base),
                     "--arc", "1", "--size", "3", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code = main(["path-exact", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and len(payload["S"]) == 2


class TestGenOut:
    # --out writes the bytes that stdout would show: one writer, one format.
    @pytest.mark.parametrize("spec", [
        ["--family", "tight-gap", "--k", "3"],
        ["--family", "vc-dag", "--vc-vertices", "3", "--vc-edges", "0-1,1-2", "--ell", "2"],
        ["--family", "bundle", "--instance", "{base}", "--arc", "1", "--size", "3"],
        ["--family", "random-dag", "--nodes", "7", "--seed", "4"],
        ["--family", "random-digraph", "--nodes", "6", "--seed", "2", "--arc-prob", "0.3"],
    ], ids=["tight-gap", "vc-dag", "bundle", "random-dag", "random-digraph"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, spec):
        base = tmp_path / "base.json"
        dump_json(str(base), {"nodes": 4, "arcs": [[0, 1], [1, 2], [2, 3]], "s": 0, "t": 3})
        argv = ["gen"] + [arg.format(base=base) for arg in spec]
        assert main(argv) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(shown)["arcs"]
        assert out.read_bytes() == shown.encode()

    def test_out_under_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert main(["gen", "--family", "tight-gap", "--k", "1", "--out", str(out)]) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and not out.parent.exists()
        assert shown.err == f"invalid input: cannot write {out}: No such file or directory\n"


class TestOtherSolvers:
    def test_matroid_graphic(self, tmp_path, capsys):
        g = tmp_path / "triangle.json"
        dump_json(str(g), {"nodes": 3, "arcs": [[0, 1], [1, 2], [0, 2]],
                           "s": 0, "t": 2})
        w = tmp_path / "w.json"
        dump_json(str(w), {"weights": ["5", "2", "1"]})
        code = main(["matroid-identify", "--kind", "graphic", "--graph", str(g),
                     "--weights", str(w)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["S"] == [1, 2] and out["weight"] == "3"

    def test_matroid_uniform(self, capsys):
        code = main(["matroid-identify", "--kind", "uniform", "--k", "1", "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["S"]) == 1

    def test_polymatroid_table(self, tmp_path, capsys):
        table = tmp_path / "f.json"
        dump_json(str(table), {"size": 2, "values":
                               {"": "0", "0": "1", "1": "1", "0,1": "1"}})
        code = main(["polymatroid-identify", "--table", str(table)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["S"]) == 1

    def test_non_submodular_table_over_13_elements(self, tmp_path, capsys):
        # f({0, 1}) = 1 and f(T) = |T| otherwise: at T = {0}, f(T+1) + f(T+2)
        # = 3 < 4 = f(T+1+2) + f(T). A table is swept at every size, so 13
        # elements are refused as 12 are.
        values = {",".join(map(str, t)): str(1 if t == (0, 1) else len(t))
                  for k in range(14) for t in combinations(range(13), k)}
        table = tmp_path / "f.json"
        dump_json(str(table), {"size": 13, "values": values})
        code = main(["polymatroid-identify", "--table", str(table)])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == "invalid input: polymatroid rank must be submodular\n"

    def test_polymatroid_matroid_rank(self, capsys):
        code = main(["polymatroid-identify", "--family", "matroid-rank", "--kind", "uniform",
                     "--k", "2", "--n", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"S": [1, 2, 3], "components": [[0, 1, 2, 3]], "weight": "3"}

    def test_polymatroid_family(self, capsys):
        code = main(["polymatroid-identify", "--family", "budget-additive",
                     "--cap", "5/2", "--gains", "1,2,1/2"])
        assert code == 0
        capsys.readouterr()

    def test_coverage_of_25_elements(self, capsys):
        # 25 elements: the components are the overlap classes of the sets,
        # found without a subset loop.
        rng = random.Random(25)
        sets = [rng.sample(range(40), rng.randint(0, 3)) for _ in range(25)]
        code = main(["polymatroid-identify", "--family", "coverage",
                     "--sets", ";".join(",".join(map(str, s)) for s in sets)])
        out = json.loads(capsys.readouterr().out)
        overlaps = nx.Graph()
        overlaps.add_nodes_from(range(25))
        overlaps.add_edges_from((e, ("item", i)) for e, s in enumerate(sets) for i in s)
        classes = sorted(sorted(v for v in c if isinstance(v, int))
                         for c in nx.connected_components(overlaps))
        assert code == 0 and out["components"] == classes
        assert max(map(len, classes)) > 1 and len(classes) > 1

    def test_linear_identify(self, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        dump_json(str(basis), {"points": [["1", "0"], ["0", "1"]]})
        w = tmp_path / "w.json"
        dump_json(str(w), {"weights": ["1", "5"]})
        code = main(["linear-identify", "--basis", str(basis), "--weights", str(w)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["S"] == [0] and out["dimension"] == 1

    def test_explicit_identify(self, tmp_path, capsys):
        x = tmp_path / "x.json"
        dump_json(str(x), {"dim": 2, "vectors": ["00", "01", "10", "11"]})
        code = main(["explicit-identify", "--solutions", str(x)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["S"] == [0, 1]
        code = main(["explicit-identify", "--solutions", str(x), "--exact"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["weight"] == "2"

    def test_explicit_exact_in_dimension_thirty(self, tmp_path, capsys):
        x = tmp_path / "x.json"
        dump_json(str(x), {"dim": 30, "vectors": ["1" + "0" * 29, "0" * 29 + "1",
                                                 "0" * 5 + "1" + "0" * 23 + "1"]})
        code = main(["explicit-identify", "--solutions", str(x), "--exact"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["S"] == [0, 5] and out["weight"] == "2"

    def test_tolls_discrete(self, tmp_path, capsys):
        x = tmp_path / "x.json"
        dump_json(str(x), {"dim": 2, "vectors": ["10", "01"]})
        code = main(["tolls", "--mode", "discrete", "--solutions", str(x),
                     "--S", "0", "--target", "01", "--cost", "zero"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["gamma"] == {"0": "1"}

    def test_tolls_convex_closed_form(self, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        dump_json(str(basis), {"points": [["1", "0"], ["0", "1"]]})
        code = main(["tolls", "--mode", "convex", "--basis", str(basis),
                     "--S", "0", "--target", "3/4,1/4",
                     "--cost", "quadratic:1,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["gamma"] == {"0": "-1/2"}

    def test_tolls_convex_refuses_a_negative_resistance(self, tmp_path, capsys):
        # A concave cost: the zero-subgradient tolls {0: 0} would certify the
        # midpoint, which maximizes it on the segment.
        basis = tmp_path / "basis.json"
        dump_json(str(basis), {"points": [[1, 0], [0, 1]]})
        code = main(["tolls", "--mode", "convex", "--basis", str(basis),
                     "--S", "0", "--target", "1/2,1/2", "--cost", "quadratic:-1,-1"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "resistances must be >= 0, got -1" in out.err

    def test_tolls_nonnegative_flag(self, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        dump_json(str(basis), {"points": [["1", "0"], ["0", "1"]]})
        code = main(["tolls", "--mode", "convex", "--basis", str(basis),
                     "--S", "0", "--target", "3/4,1/4",
                     "--cost", "quadratic:1,1", "--nonnegative"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["nonnegative_violation"] is True

    def test_tolls_not_identifying_exit_one(self, tmp_path, capsys):
        x = tmp_path / "x.json"
        dump_json(str(x), {"dim": 2, "vectors": ["00", "01"]})
        code = main(["tolls", "--mode", "discrete", "--solutions", str(x),
                     "--S", "0", "--target", "00"])
        assert code == 1


# ---------------------------------------------------------------- fuzzing

JSON_KEYS = ["", "0", "0,1", "S", "arcs", "dim", "nodes", "points", "s", "size", "t",
             "values", "vectors", "weights"]
JSON_VALUES = st_.recursive(
    st_.one_of(st_.none(), st_.booleans(), st_.integers(-2, 5),
               st_.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "x", "01", "0,1", "0,5"])),
    lambda inner: st_.one_of(st_.lists(inner, max_size=4),
                             st_.dictionaries(st_.sampled_from(JSON_KEYS), inner, max_size=4)),
    max_leaves=8)


@st_.composite
def files(draw, valid: dict):
    """("file", JSON) for a file holding `valid`, `valid` with one field
    replaced or dropped, or any JSON value; or the name of a missing file."""
    how = draw(st_.sampled_from(["keep", "keep", "replace", "replace", "drop", "random",
                                 "missing"]))
    if how == "missing":
        return "missing.json"
    if how == "random":
        return "file", draw(JSON_VALUES)
    doc = dict(valid)
    key = draw(st_.sampled_from(sorted(doc)))
    if how == "replace":
        doc[key] = draw(JSON_VALUES)
    elif how == "drop":
        del doc[key]
    return "file", doc


INSTANCE = files(TRIANGLE)
WEIGHTS = files({"weights": ["1", "2", "3"]})
ID_SETS = st_.one_of(st_.sampled_from(["", "0", "0,1", "2,1,0", "-1", "9", "x", "0,,1"]),
                     files({"S": [0, 1]}))
IDS = st_.sampled_from(["", "0", "0,1", "2,1,0", "1,1", "-1", "x", "1/2"])
ID_LISTS = st_.sampled_from(["0;1", "0,1;2", "0;0", "", "x;1", "0,1,2", "1;0", "0,1;1,2"])
RATIONALS = st_.sampled_from(["0", "1", "5/2", "-1", "1/0", "x", "", "1,2", "1,2,1/2",
                              "3/4,1/4", "1,1/0"])
INTS = st_.sampled_from(["-1", "0", "1", "2", "3", "x"])
CAP_VALUES = st_.sampled_from(["-1", "0", "1", "7", "100000", "x", ""])
KINDS = st_.sampled_from(["uniform", "graphic", "partition", "free"])
MATROID_FLAGS = [("--graph", INSTANCE), ("--k", INTS), ("--n", INTS),
                 ("--blocks", ID_LISTS), ("--capacities", IDS), ("--weights", WEIGHTS)]
# Per subcommand, (flag, strategy for its value or None for a switch); a
# flag is always given when it is argparse-required or positional (a
# bracketed name), otherwise drawn present or absent.
COMMANDS = {
    "flow-identify": [("[instance]", INSTANCE), ("--verify", ID_SETS)],
    "path-verify": [("[instance]", INSTANCE), ("[--S]", ID_SETS), ("--general", None),
                    ("--max-paths", CAP_VALUES)],
    "path-exact": [("[instance]", INSTANCE), ("--max-paths", CAP_VALUES),
                   ("--max-subsets", CAP_VALUES)],
    "path-approx": [("[instance]", INSTANCE)],
    "path-gap": [("[instance]", INSTANCE), ("--max-paths", CAP_VALUES),
                 ("--max-subsets", CAP_VALUES)],
    "matroid-identify": [("[--kind]", KINDS)] + MATROID_FLAGS,
    "polymatroid-identify": [
        ("--table", files(TABLE)), ("--kind", KINDS),
        ("--family", st_.sampled_from(["matroid-rank", "coverage", "budget-additive"])),
        ("--sets", ID_LISTS), ("--cap", RATIONALS), ("--gains", RATIONALS),
    ] + MATROID_FLAGS,
    "linear-identify": [("[--basis]", files(BASIS)), ("--weights", WEIGHTS)],
    "explicit-identify": [("[--solutions]", files(X2)), ("--exact", None),
                          ("--weights", WEIGHTS), ("--max-subsets", CAP_VALUES)],
    "tolls": [
        ("[--mode]", st_.sampled_from(["discrete", "convex"])), ("--solutions", files(X2)),
        ("--basis", files(BASIS)), ("[--S]", ID_SETS),
        ("[--target]", st_.sampled_from(["01", "10", "012", "x", "", "1/0,1", "3/4,1/4",
                                         "1,0"])),
        ("--cost", st_.sampled_from(["zero", "linear:1,2", "quadratic:1,1", "linear:1",
                                     "cubic:1,1", "linear:", "linear:1,1/0"])),
        ("--margin", RATIONALS), ("--nonnegative", None),
    ],
    "gen": [
        ("[--family]", st_.sampled_from(["tight-gap", "vc-dag", "bundle", "random-dag",
                                         "random-digraph"])),
        ("--k", INTS), ("--vc-vertices", INTS),
        ("--vc-edges", st_.sampled_from(["0-1", "0-1,1-2", "0-x", "1-1", "0-5", "01", ""])),
        ("--ell", INTS), ("--instance", INSTANCE), ("--arc", INTS), ("--size", INTS),
        ("--nodes", INTS), ("--arc-prob", st_.sampled_from(["0", "0.5", "1", "2", "nan"])),
        ("--out", st_.sampled_from(["out.json", "no/such/dir/out.json"])),
    ],
}


@settings(max_examples=150, deadline=None)
@given(data=st_.data())
def test_main_returns_a_documented_exit_code(data):
    command = data.draw(st_.sampled_from(sorted(COMMANDS)), label="command")
    env = data.draw(st_.dictionaries(
        st_.sampled_from(["IDSETS_MAX_PATHS", "IDSETS_MAX_SUBSETS", "IDSETS_MAX_GROUND"]),
        CAP_VALUES, max_size=1), label="env")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, values in COMMANDS[command]:
            given_always = flag.startswith("[")
            if not given_always and not data.draw(st_.booleans(), label=flag):
                continue
            value = None if values is None else data.draw(values, label=flag)
            if isinstance(value, tuple):
                value, content = os.path.join(tmp, f"input{len(argv)}.json"), value[1]
                dump_json(value, content)
            elif value is not None and value.endswith(".json"):
                value = os.path.join(tmp, value)
            name = flag.strip("[]")
            argv += [a for a in (None if name == "instance" else name, value) if a is not None]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == "", argv


RATIONAL_TOKENS = ["0", "1", "-1", "2", "1/2", "-3/4", "5/3"]
# What the input boundary refuses in place of a rational: a zero
# denominator, a string that is no number, a float, null, a bool, a list.
BAD_TOKENS = ["1/0", "x", "", 0.5, None, True, [1]]


@st_.composite
def linear_argv(draw, path) -> list[str]:
    """argv for `linear-identify` or `tolls --mode convex` on k + 1 points of
    Q^n, each input (basis, weights, S, target, cost) drawn well formed or
    spoilt: a bad token, a wrong length, an id out of range or a bad file."""
    n = draw(st_.integers(0, 4), label="n")
    k = draw(st_.integers(0, n if draw(st_.integers(0, 9)) else 4), label="k")

    def values(length: int, tokens=RATIONAL_TOKENS) -> list:
        how = draw(st_.integers(0, 19))
        out = [draw(st_.sampled_from(tokens)) for _ in range(length + (how == 0))]
        if out and how == 1:
            out[draw(st_.integers(0, len(out) - 1))] = draw(st_.sampled_from(BAD_TOKENS))
        return out

    def spoilt(valid: dict) -> str:
        return path(("file", valid) if draw(st_.integers(0, 9)) else draw(files(valid)))

    points = [values(n) for _ in range(k + 1)]
    argv = ["--basis", spoilt({"points": points})]
    if draw(st_.booleans(), label="linear-identify"):
        if draw(st_.booleans(), label="has weights"):
            weights = values(n, ["0", "1", "2", "1/2", "3", "-1"])
            argv += ["--weights", spoilt({"weights": weights})]
        return ["linear-identify", *argv]
    ids = sorted(draw(st_.sets(st_.integers(0, n - 1) if n and draw(st_.integers(0, 5))
                               else st_.integers(-1, n), max_size=n + 1), label="S"))
    argv += ["--S", ",".join(map(str, ids)) if draw(st_.integers(0, 3)) else spoilt({"S": ids})]
    target = draw(st_.sampled_from(points), label="target") if draw(st_.booleans()) else values(n)
    argv += ["--target=" + ",".join(map(str, target))]
    if draw(st_.integers(0, 3)):
        kind = draw(st_.sampled_from(["linear", "quadratic", "quadratic", "cubic"]), label="cost")
        argv += ["--cost", f"{kind}:" + ",".join(map(str, values(n)))]
    return ["tolls", "--mode", "convex", *argv]


def test_linear_and_convex_tolls_fuzz_exits_documented_codes_quickly():
    """Malformed bases, weights, S, targets and costs through the two CLI
    paths that run `echelon`: every exit is 0, 1 or 2, none is a traceback
    (4), and the whole fuzz takes under 3 s."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st_.data())
    def run(data):
        with tempfile.TemporaryDirectory() as tmp:
            def path(value):
                if isinstance(value, tuple):
                    name = os.path.join(tmp, f"input{len(os.listdir(tmp))}.json")
                    dump_json(name, value[1])
                    return name
                return os.path.join(tmp, value)

            argv = data.draw(linear_argv(path), label="argv")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", argv
        seen.add((argv[0], code))

    start = time.perf_counter()
    run()
    assert time.perf_counter() - start < 3
    assert {code for _, code in seen} >= {0, 1, 2}, seen
