"""Closed-loop benchmark of the idsets CLI and library, one workload per run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One client in one process and one thread sends the workload's
requests in order, each after the last has answered, through
`idsets.cli.main(argv)` or, where no subcommand exists, the public library
function. A first pass warms up and is checked in full (outside any timed
region); later passes are timed and must repeat its outputs byte for byte.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics (see tracing.py). The
line before the last holds the run context (Python, nproc, seed, pass and
sample counts); the last line is the result. The exit code is 1 when any
answer is wrong, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_RUNS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10
# Pass times on the 2-core host the benchmark was defined on. The pass count
# is --seconds over this, fixed per workload so that the latency tail is the
# same order statistic in every run.
NOMINAL_PASS_S = {"search": 4.0, "algebra": 3.3, "polytime": 1.6}

COMMANDS = ("path_exact", "path_gap", "explicit_exact", "explicit_greedy",
            "linear_identify", "tolls_convex", "matroid_identify", "matroid_verify",
            "polymatroid_identify", "controlling_check", "flow_identify", "path_verify")

LAYER_METRICS = [
    ("search.hitting_set.calls", "count"), ("search.hitting_set.self_ms", "ms"),
    ("search.hitting_set.demands_in", "count"), ("paths.exact.self_ms", "ms"),
    ("graphs.enumerate_st_paths.calls", "count"),
    ("graphs.enumerate_st_paths.self_ms", "ms"),
    ("graphs.enumerate_st_paths.paths", "count"), ("explicit.exact.self_ms", "ms"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_ms", "ms"),
    ("linalg.rref.cells", "count"), ("linear.identify.self_ms", "ms"),
    ("linear.verify.self_ms", "ms"), ("linear.basis_init.self_ms", "ms"),
    ("matroids.oracle.calls", "count"), ("matroids.oracle.distinct", "count"),
    ("matroids.oracle.hit_ratio", "ratio"), ("matroids.components.self_ms", "ms"),
    ("matroids.circuits.self_ms", "ms"), ("matroids.spot_check.self_ms", "ms"),
    ("polymatroids.oracle.calls", "count"), ("polymatroids.oracle.distinct", "count"),
    ("polymatroids.oracle.hit_ratio", "ratio"), ("polymatroids.construct.self_ms", "ms"),
    ("polymatroids.components.self_ms", "ms"),
    ("tolls.fm.calls", "count"), ("tolls.fm.self_ms", "ms"), ("tolls.fm.rows_in", "count"),
    ("tolls.check.self_ms", "ms"), ("tolls.convex.self_ms", "ms"),
    ("graphs.reach.calls", "count"), ("graphs.reach.self_ms", "ms"),
    ("graphs.scc.calls", "count"), ("graphs.scc.self_ms", "ms"),
    ("graphs.forest.calls", "count"), ("graphs.forest.self_ms", "ms"),
    ("graphs.topo.calls", "count"), ("graphs.topo.self_ms", "ms"),
    ("graphs.shortest_arc_path.calls", "count"), ("graphs.shortest_arc_path.self_ms", "ms"),
    ("graphs.adjacency.calls", "count"),
    ("flows.relevant_arcs.self_ms", "ms"), ("flows.identify.self_ms", "ms"),
    ("flows.verify.self_ms", "ms"), ("paths.verify_dag.self_ms", "ms"),
    ("io.load_json.self_ms", "ms"), ("io.parse.self_ms", "ms"), ("io.bytes_in", "B"),
    ("cli.self_ms", "ms"), ("explicit.greedy.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
] + [(f"cmd.{c}_s", "s") for c in COMMANDS]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store the exit codes and output digests of this workload "
                        "at the default seed in golden.json")
    return p.parse_args(argv)


def _fix_environment(argv: list[str]) -> None:
    """Re-execute with IDSETS_MAX_* cleared and a fixed PYTHONHASHSEED."""
    caps = [k for k in os.environ if k.startswith("IDSETS_MAX_")]
    if os.environ.get("PYTHONHASHSEED") == "0" and not caps:
        return
    env = {k: v for k, v in os.environ.items() if k not in caps}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Cold set-up times, each measured by a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        scratch = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), scratch],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _answer(cli, req: workloads.Request) -> tuple[int, str]:
    """Exit code and output text of one request; a raised error is code -1."""
    try:
        if req.call is not None:
            return req.call()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req.argv)
        return code, out.getvalue()
    except Exception as exc:  # a crash is a failed request, not a failed run
        return -1, f"{type(exc).__name__}: {exc}"


@dataclass
class Pass:
    """One pass over the requests: raw and speed-scaled seconds per request,
    the answers, and for a traced pass its per-layer figures."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    answers: list[tuple[int, str]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def _run_pass(cli, reqs, clock: SpeedClock, tracer=None) -> Pass:
    gc.collect()
    done = Pass()
    for req in reqs:
        if tracer is not None:
            tracer.request = req.rid
        answer, raw, scaled = clock.time(lambda: _answer(cli, req))
        done.raw.append(raw)
        done.scaled.append(scaled)
        done.answers.append(answer)
    return done


def _digest(answer: tuple[int, str]) -> tuple[int, str]:
    return answer[0], hashlib.sha256(answer[1].encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _check_first_pass(reqs, answers, golden: dict) -> list[str]:
    """Problems found in the warm-up pass, one per failed request (or ''),
    comparing with `golden` digests where it has them."""
    problems = []
    for req, answer in zip(reqs, answers):
        code, text = answer
        if code != req.expect_exit:
            problem = f"exit {code}, expected {req.expect_exit}: {text[:200]}"
        else:
            try:
                problem = req.check(json.loads(text)) or ""
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable answer: {exc!r}"
        if not problem and req.rid in golden and list(_digest(answer)) != golden[req.rid]:
            problem = "output differs from the recorded default-seed output"
        problems.append(problem)
    return problems


def _tail(samples: list[float]) -> float:
    """Highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "idsets" / "cli.py").is_file():
        print(f"perfbench: no idsets sources under {SRC}", file=sys.stderr)
        return 2
    _fix_environment(argv)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace or args.record_golden else _setup_seconds(args.workload, args.seed)

    import idsets.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "idsets":
        print(f"perfbench: idsets imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        reqs = workloads.build(args.workload, args.seed, work)
        passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            passes = max(MIN_PASSES, round(passes / 2))
        timed, traced = [], []
        with SpeedClock() as clock:
            first = _run_pass(cli, reqs, clock).answers
            if args.record_golden:
                return _record_golden(args, reqs, first)
            for _ in range(passes):
                timed.append(_run_pass(cli, reqs, clock))
                if tracer is not None:
                    first_span = len(tracer.spans)
                    tracer.install()
                    try:
                        done = _run_pass(cli, reqs, clock, tracer)
                    finally:
                        tracer.uninstall()
                    factor = sum(done.scaled) / sum(done.raw)
                    done.layers = {k: v * factor if k.endswith("_ms") else v
                                   for k, v in tracer.take_pass(first_span).items()}
                    traced.append(done)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        golden = _golden().get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
        problems = _check_first_pass(reqs, first, golden)
        expected = [None if p else _digest(a) for p, a in zip(problems, first)]
        repeats = [p.answers for p in timed + traced]
        failed = sum(1 for p in problems if p) + sum(
            1 for answers in repeats for want, answer in zip(expected, answers)
            if want is None or _digest(answer) != want)
        attempted = len(reqs) * (1 + len(repeats))
        for req, problem in zip(reqs, problems):
            if problem:
                print(f"perfbench: {req.rid}: {problem}", file=sys.stderr)

        if tracer is None:
            samples = [x for p in timed for x in p.scaled]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (statistics.median(sum(p.scaled) for p in timed), "s"),
                "req_tail_ms": (_tail(samples) * 1e3, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = _layer_metrics(reqs, timed, traced)
            tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        context = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "passes": len(timed), "traced_passes": len(traced),
            "requests_per_pass": len(reqs), "latency_samples": len(timed) * len(reqs),
            "setup_runs": len(setup), "fail_ratio": failed / attempted,
            "raw_pass_s": statistics.median(sum(p.raw) for p in timed),
            "speed_samples": len(clock.samples),
            "per_command_s": _per_command(reqs, timed),
        }
        print(json.dumps(context, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _per_command(reqs, timed) -> dict[str, float]:
    """Median over passes of the seconds each subcommand's requests took."""
    out = {}
    for cmd in COMMANDS:
        idx = [i for i, r in enumerate(reqs) if r.cmd == cmd]
        out[cmd] = statistics.median(sum(p.scaled[i] for i in idx) for p in timed)
    return out


def _layer_metrics(reqs, timed, traced) -> dict[str, tuple[float, str]]:
    values = {name: statistics.median(p.layers.get(name, 0.0) for p in traced)
              for name, _ in LAYER_METRICS}
    values["trace.overhead_ratio"] = (statistics.median(sum(p.scaled) for p in traced)
                                      / statistics.median(sum(p.scaled) for p in timed))
    for cmd, seconds in _per_command(reqs, timed).items():
        values[f"cmd.{cmd}_s"] = seconds
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def _record_golden(args, reqs, answers) -> int:
    if args.seed != DEFAULT_SEED:
        print(f"perfbench: golden outputs are recorded at seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    problems = _check_first_pass(reqs, answers, {})
    if any(problems):
        for req, problem in zip(reqs, problems):
            if problem:
                print(f"perfbench: {req.rid}: {problem}", file=sys.stderr)
        return 1
    golden = _golden()
    golden[args.workload] = {r.rid: list(_digest(a)) for r, a in zip(reqs, answers)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
