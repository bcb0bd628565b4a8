"""End-to-end CLI checks: JSON I/O, exit codes, deterministic reruns."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from idsets.cli import main
from idsets.io import dump_json


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


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _ = run_cli(["flow-identify", "--bogus"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = run_cli(["fly-identify"])
        assert code == 2

    def test_missing_file_is_infeasible(self):
        assert main(["flow-identify", "/nonexistent.json"]) == 1

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["flow-identify", str(bad)]) == 2

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

    def test_malformed_cap_variable_is_usage_error(self, tight_k3, capsys, monkeypatch):
        monkeypatch.setenv("IDSETS_MAX_PATHS", "abc")
        assert main(["flow-identify", tight_k3]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid input: IDSETS_MAX_PATHS")


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

    def test_polymatroid_family(self, capsys):
        code = main(["polymatroid-identify", "--family", "budget-additive",
                     "--cap", "5/2", "--gains", "1,2,1/2"])
        assert code == 0
        capsys.readouterr()

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
