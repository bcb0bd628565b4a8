"""Run the benchmark on two commits in alternating pairs and summarise them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --workload algebra \
        --pairs 10 --seed 1 --seconds 24

Each run extracts its commit with `git archive` into a fresh temporary
directory, runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace T` there with PYTHONDONTWRITEBYTECODE=1, and removes the directory, so
no run sees another's `__pycache__` or `.perfbench`. Pair i runs the parent
first when i is even and the change first when it is odd. Progress goes to
stderr. stdout gets one JSON object: `runs`, one record per run holding the
two final lines the harness prints (`context` and `result`), and `summary`,
per metric each side's median and interquartile range (inclusive quartiles),
the number of pairs in which the change read lower (ties count for neither
side), `claim_met` (better in at least 9 of 10 pairs, and the change median
better than the parent's by more than the parent IQR), `regressed` (the
change median worse than the parent's by more than the metric's relative
`bound`) and `unresolved` (the parent IQR wider than that bound times the
parent median, so the runs spread too widely to show the change within its
bound, unless every change run reads better than every parent run); the
last two are false for a metric without a bound. Better is lower unless the
metric's `better` in BENCHMARK.json, which the script only reads, is
"higher" (an end-to-end or a per-layer metric). The summary also holds
`attempted` and `failed`, the harness's request counts summed per side,
and, when the runs carry the harness's context line, `per_command_s`: per
request kind the workload ran, each side's median of the per-command
seconds that line reports, so a summary shows which kinds moved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(runs: list[dict]) -> dict:
    """Medians, IQRs, change-lower counts, `claim_met`, `regressed` and
    `unresolved` per metric over the complete pairs of `runs`, plus whether
    every run was correct and the requests attempted and failed, in all and
    per side."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            sides.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for p in sides.values() if len(p) == 2]
    summary: dict = {}
    for name in pairs[0]["parent"] if pairs else ():
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        lower = sum(c < p for p, c in zip(parent, change))
        better, bound = bounds.get(name, ("lower", None))
        sign = 1 if better == "lower" else -1
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        worse = (change_median - parent_median) * sign
        parent_iqr = _iqr(parent)
        summary[name] = {
            "parent_median": round(parent_median, 5),
            "change_median": round(change_median, 5),
            "parent_iqr": parent_iqr,
            "change_iqr": _iqr(change),
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "claim_met": 10 * wins >= 9 * len(pairs) and -worse > parent_iqr,
            "regressed": bound is not None and worse > bound * abs(parent_median),
            "unresolved": bound is not None and parent_iqr > bound * abs(parent_median)
            and max(sign * c for c in change) >= min(sign * p for p in parent),
        }
    summary["correct_all"] = all(r["result"] is not None and r["result"]["correct"]
                                 for r in runs)
    summary["failed_total"] = sum(r["result"]["failed"] for r in runs if r["result"] is not None)
    for key in ("attempted", "failed"):
        summary[key] = {side: sum(r["result"][key] for r in runs
                                  if r["result"] is not None and r["side"] == side)
                        for side in ("parent", "change")}
    per_command = _per_command(runs)
    if per_command:
        summary["per_command_s"] = per_command
    return summary


def _per_command(runs: list[dict]) -> dict:
    """Per request kind with a nonzero time in some run, each side's median
    of the `per_command_s` on the runs' context lines (runs without one are
    left out)."""
    times = {side: [r["context"]["per_command_s"] for r in runs
                    if r["side"] == side and (r.get("context") or {}).get("per_command_s")]
             for side in ("parent", "change")}
    kinds = {kind for rows in times.values() for row in rows for kind, t in row.items() if t}
    return {kind: {f"{side}_median": round(statistics.median(row.get(kind, 0) for row in rows), 7)
                   for side, rows in times.items() if rows}
            for kind in sorted(kinds)}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(q3 - q1, 5)


def _commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def _run(commit: str, args: argparse.Namespace) -> tuple[int, dict | None, dict | None]:
    """(exit code, context, result) of one harness run on a fresh checkout."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=tmp, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        context, result = (json.loads(line) for line in lines[-2:])
    except ValueError:
        sys.stderr.write(proc.stderr)
        return proc.returncode, None, None
    return proc.returncode, context, result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    commits = {"parent": _commit(args.parent), "change": _commit(args.change)}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            code, context, result = _run(commits[side], args)
            runs.append({"workload": args.workload, "seed": args.seed, "pair": pair,
                         "side": side, "first": order[0], "trace": args.trace, "exit": code,
                         "commit": commits[side], "context": context, "result": result})
            metrics = result["metrics"] if result else {}
            print(f"pair {pair} {side}: exit {code} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                  file=sys.stderr, flush=True)
    print(json.dumps({"runs": runs, "summary": summarize(runs)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
