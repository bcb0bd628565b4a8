"""Time two commits' CLI side by side in one process, request by request.

    python3 scripts/interleave.py --parent HEAD~1 --change HEAD --workload polytime \
        --seed 1 --rounds 20 [--request flow-verify/dag-500-short ...]

Each commit is extracted with `git archive` into a temporary directory and
its `src/idsets` imported under its own package name (`idsets_parent`,
`idsets_change`); the package imports itself only relatively, so the two
copies share no module. The change's `perfbench/workloads.py`, which the
script only reads, writes the workload's inputs for the seed and lists its
requests; `--request` keeps only the named ones. Requests that call the
library by name rather than the CLI are listed as skipped.

Every request first runs once on each side: its exit code and stdout must be
identical, or the script prints both exit codes and where the stdouts first
part, and exits 1. Then each round calls every request on both sides, the
parent first in even rounds and the change first in odd ones, after a
`gc.collect()`, timing each call with `perf_counter`. Per request stdout
gets one line: the parent's and the change's median in ms, the change in
%, and the rounds in which the change was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _import_cli(checkout: Path, name: str):
    """`cli` of the checkout's `src/idsets`, imported as package `name`."""
    package = checkout / "src" / "idsets"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _answer(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; a raised error is code -1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--request", action="append", help="request id to keep (repeatable)")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        base = Path(tmp)
        clis = {}
        for side in SIDES:
            (base / side).mkdir()
            _extract(getattr(args, side), base / side)
            clis[side] = _import_cli(base / side, f"idsets_{side}")
        sys.path.insert(0, str(base / "change" / "perfbench"))
        import workloads
        (base / "inputs").mkdir()
        reqs = workloads.build(args.workload, args.seed, str(base / "inputs"))
        if args.request:
            reqs = [r for r in reqs if r.rid in args.request]
        for req in reqs:
            if req.argv is None:
                print(f"skipped (library call): {req.rid}")
        reqs = [r for r in reqs if r.argv is not None]
        for req in reqs:
            answers = {side: _answer(clis[side], req.argv) for side in SIDES}
            if answers["parent"] != answers["change"]:
                (pcode, ptext), (ccode, ctext) = answers.values()
                at = next((i for i, (a, b) in enumerate(zip(ptext, ctext)) if a != b),
                          min(len(ptext), len(ctext)))
                print(f"{req.rid}: the sides differ: exit {pcode} against {ccode}, "
                      f"stdout from character {at}: {ptext[at:at + 60]!r} against "
                      f"{ctext[at:at + 60]!r}")
                return 1
        times: dict[str, dict[str, list[float]]] = {r.rid: {s: [] for s in SIDES} for r in reqs}
        for rnd in range(args.rounds):
            order = SIDES if rnd % 2 == 0 else SIDES[::-1]
            gc.collect()
            for req in reqs:
                for side in order:
                    start = time.perf_counter()
                    _answer(clis[side], req.argv)
                    times[req.rid][side].append(time.perf_counter() - start)
    print(f"{'request':<36} {'parent_ms':>10} {'change_ms':>10} {'change':>8}  change_won")
    for rid, sides in times.items():
        parent, change = (statistics.median(sides[s]) * 1e3 for s in SIDES)
        won = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        print(f"{rid:<36} {parent:>10.3f} {change:>10.3f} "
              f"{(change - parent) / parent:>+8.1%}  {won}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
