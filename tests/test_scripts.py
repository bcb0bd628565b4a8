"""The experiment scripts still run against the library they import."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("gap_family_report.py", ["--max-exact-k", "4", "--max-flow-k", "6"]),
    ("greedy_cover_experiment.py", ["--instances", "10"]),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(pair: int, side: str, pass_s: float, tail_ms: float, failed: int = 0) -> dict:
    metrics = {"pass_s": {"value": pass_s, "unit": "s"},
               "req_tail_ms": {"value": tail_ms, "unit": "ms"}}
    return {"pair": pair, "side": side,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


class TestBenchPairsSummary:
    summarize = staticmethod(load_script("bench_pairs").summarize)

    def test_medians_quartiles_and_lower_counts(self):
        runs = [canned_run(0, "parent", 0.010, 2.0), canned_run(0, "change", 0.008, 2.0),
                canned_run(1, "change", 0.009, 1.5), canned_run(1, "parent", 0.012, 1.8),
                canned_run(2, "parent", 0.011, 1.6), canned_run(2, "change", 0.013, 1.4),
                canned_run(3, "parent", 0.014, 1.9), canned_run(3, "change", 0.007, 1.7)]
        summary = self.summarize(runs)
        assert summary["pass_s"] == {
            "parent_median": 0.0115, "change_median": 0.0085,
            "parent_iqr": 0.00175, "change_iqr": 0.00225,
            "change_lower_in_pairs": "3/4", "claim_met": False, "regressed": False,
            "unresolved": False,
        }
        # Pair 0 ties at 2.0 ms and counts for neither side.
        assert summary["req_tail_ms"]["change_lower_in_pairs"] == "3/4"
        assert summary["req_tail_ms"]["parent_median"] == 1.85
        assert summary["correct_all"] is True and summary["failed_total"] == 0
        assert list(summary) == ["pass_s", "req_tail_ms", "correct_all", "failed_total",
                                 "attempted", "failed"]

    def test_a_run_without_result_drops_its_pair(self):
        crashed = {"pair": 1, "side": "change", "result": None}
        runs = [canned_run(0, "parent", 0.010, 2.0), canned_run(0, "change", 0.009, 1.0, 2),
                crashed, canned_run(1, "parent", 0.001, 0.1)]
        summary = self.summarize(runs)
        assert summary["pass_s"]["change_lower_in_pairs"] == "1/1"
        assert summary["pass_s"]["parent_iqr"] == 0.0
        assert summary["correct_all"] is False and summary["failed_total"] == 2

    def test_claim_met_and_regressed(self):
        # pass_s: lower in 10/10 pairs, medians 0.002 apart against a parent
        # IQR of 0.001. req_tail_ms: a median of 1.3 against 1.0 is worse by
        # more than its relative bound of 0.2 in BENCHMARK.json.
        runs = [run for pair in range(10)
                for run in (canned_run(pair, "parent", 0.010 + pair % 2 * 0.001, 1.0),
                            canned_run(pair, "change", 0.008 + pair % 2 * 0.001, 1.3))]
        summary = self.summarize(runs)
        assert summary["pass_s"] == {
            "parent_median": 0.0105, "change_median": 0.0085,
            "parent_iqr": 0.001, "change_iqr": 0.001,
            "change_lower_in_pairs": "10/10", "claim_met": True, "regressed": False,
            "unresolved": False,
        }
        assert summary["req_tail_ms"]["claim_met"] is False
        assert summary["req_tail_ms"]["regressed"] is True
        assert list(summary["req_tail_ms"]) == [
            "parent_median", "change_median", "parent_iqr", "change_iqr",
            "change_lower_in_pairs", "claim_met", "regressed", "unresolved"]

    def test_failures_and_attempts_per_side(self):
        # A run without a result counts for neither side; one whose pair is
        # incomplete still counts for its own.
        runs = [canned_run(0, "parent", 0.010, 2.0), canned_run(0, "change", 0.009, 1.0, 2),
                {"pair": 1, "side": "parent", "result": None},
                canned_run(1, "change", 0.001, 0.1, 3), canned_run(2, "parent", 0.01, 1.0, 1)]
        summary = self.summarize(runs)
        assert summary["attempted"] == {"parent": 20, "change": 20}
        assert summary["failed"] == {"parent": 1, "change": 5}
        assert summary["failed_total"] == 6

    def test_a_higher_is_better_metric_claims_a_rise(self):
        # BENCHMARK.json lists matroids.oracle.hit_ratio as better higher: a
        # ratio that rises 0.5 -> 0.9 in 10 of 10 pairs meets the claim, and
        # one that falls does not.
        def runs(before: float, after: float) -> list[dict]:
            out = []
            for pair in range(10):
                for side, ratio in (("parent", before), ("change", after)):
                    run = canned_run(pair, side, 0.01, 1.0)
                    run["result"]["metrics"]["matroids.oracle.hit_ratio"] = {
                        "value": ratio + pair % 2 * 0.01, "unit": "ratio"}
                    out.append(run)
            return out
        rise = self.summarize(runs(0.5, 0.9))["matroids.oracle.hit_ratio"]
        assert rise["change_lower_in_pairs"] == "0/10"
        assert rise["claim_met"] is True and rise["regressed"] is False
        fall = self.summarize(runs(0.9, 0.5))["matroids.oracle.hit_ratio"]
        assert fall["change_lower_in_pairs"] == "10/10"
        assert fall["claim_met"] is False

    def test_per_command_medians_per_side(self):
        # Each run's context line holds per_command_s; the summary keeps each
        # side's median per request kind that ran, and no key without contexts.
        def run(pair, side, flow, path):
            out = canned_run(pair, side, 0.1, 15.0)
            out["context"] = {"per_command_s": {"flow_identify": flow, "path_verify": path,
                                                "path_exact": 0}}
            return out
        runs = [run(0, "parent", 0.0040, 0.0030), run(0, "change", 0.0036, 0.0027),
                run(1, "change", 0.0034, 0.0029), run(1, "parent", 0.0044, 0.0031),
                run(2, "parent", 0.0042, 0.0032), run(2, "change", 0.0038, 0.0028)]
        summary = self.summarize(runs)
        assert summary["per_command_s"] == {
            "flow_identify": {"parent_median": 0.0042, "change_median": 0.0036},
            "path_verify": {"parent_median": 0.0031, "change_median": 0.0028},
        }
        assert list(summary)[-1] == "per_command_s"
        for r in runs:
            del r["context"]
        assert "per_command_s" not in self.summarize(runs)

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        # The parent's pass_s alternates 0.010 and 0.020 s: an IQR of 0.01 s
        # against a bound of 0.2 x 0.015 s. A change that reads 0.016 s is
        # unresolved; one that beats every parent run, at 0.009 s, is not.
        # req_tail_ms has the same spread over a median of 100 ms, well
        # within its bound.
        def runs(change_s: float) -> list[dict]:
            return [run for pair in range(10)
                    for run in (canned_run(pair, "parent", 0.010 + pair % 2 * 0.010,
                                           100 + pair % 2 * 0.010),
                                canned_run(pair, "change", change_s, 100.0))]
        spread = self.summarize(runs(0.016))
        assert spread["pass_s"]["parent_iqr"] == 0.01
        assert spread["pass_s"]["unresolved"] is True
        assert spread["pass_s"]["regressed"] is False
        assert spread["req_tail_ms"]["unresolved"] is False
        assert self.summarize(runs(0.009))["pass_s"]["unresolved"] is False


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="git archive needs a git checkout")
def test_interleave_head_against_head():
    # Both sides are the same commit, so the outputs match and one line of
    # timings comes out for the one request kept.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "interleave.py"), "--parent", "HEAD",
         "--change", "HEAD", "--workload", "search", "--rounds", "3",
         "--request", "path-exact/tight-gap-k4"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    header, line = proc.stdout.splitlines()
    assert header.split() == ["request", "parent_ms", "change_ms", "change", "change_won"]
    rid, parent_ms, change_ms, _, won = line.split()
    assert rid == "path-exact/tight-gap-k4"
    assert float(parent_ms) > 0 and float(change_ms) > 0
    assert won.endswith("/3")
