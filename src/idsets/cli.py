"""Command-line interface: one subcommand per solver/verifier/generator.

Results go to stdout as JSON (deterministic: sorted keys, no timestamps);
diagnostics including a one-line run summary go to stderr. Exit codes: 0 success,
1 infeasible-or-false, 2 usage error, 3 cap exceeded, 4 internal error (any
exception that is not an `IdsetsError`, its traceback kept on stderr). Files
and flag values are turned into domain objects by `idsets.io` only, each input
file read once through the run's reader, whose bytes make up the summary's digest.
The flow, path, explicit, toll and gen handlers import their own module;
the linear and (poly)matroid modules are registered at import and execute
on their first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import sys
import time
from fractions import Fraction
from typing import Any, Callable

from . import io
from .caps import Caps
from .errors import CapExceeded, IdsetsError, InvalidInstance
from .graphs import WeightedGroundSet

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPS = 3
EXIT_INTERNAL = 4

Reader = Callable[[str], Any]


def _lazy(name: str):
    """`idsets.<name>`, registered in `sys.modules` but compiled and executed
    on its first attribute read (`importlib.util.LazyLoader`). A registered
    module is returned as it is: `find_spec` would read its `__spec__`, and
    that read executes a lazy module."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Registered now, executed on first use: perfbench's tracer patches their classes.
linear, matroids, polymatroids = map(_lazy, ("linear", "matroids", "polymatroids"))

# The flags each --kind, --family and --mode value needs beyond argparse's own.
_NEEDS = {
    "graphic": "--graph", "uniform": "--k --n", "free": "--n",
    "partition": "--blocks --capacities", "matroid-rank": "--kind", "coverage": "--sets",
    "budget-additive": "--cap --gains", "discrete": "--solutions", "convex": "--basis",
    "tight-gap": "--k", "vc-dag": "--vc-vertices --vc-edges",
    "bundle": "--instance --arc --size", "random-dag": "--nodes", "random-digraph": "--nodes",
}


def _require(args: argparse.Namespace, option: str) -> str:
    """The value of `option` (--kind, --family or --mode), once every flag
    that value needs is given; a blank string is not."""
    choice = getattr(args, option[2:])
    *rest, last = flags = _NEEDS[choice].split()
    if any(getattr(args, flag[2:].replace("-", "_")) in (None, "") for flag in flags):
        names = f"{', '.join(rest)} and {last}" if rest else last
        raise InvalidInstance(f"{names} required for {option} {choice}")
    return choice


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it:
    `parse_args` keeps no state between calls, so in-process callers of
    `main` pay for the tree once. Each subcommand carries its handler as
    `run`."""
    parser = argparse.ArgumentParser(prog="idsets")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    p = command("flow-identify", _cmd_flow_identify,
                help="minimum-weight identifying set for s-t flows")
    p.add_argument("instance")
    p.add_argument("--verify", help="file or comma list of arc ids to verify instead")

    for name, run in (("path-verify", _cmd_path_verify), ("path-exact", _cmd_path_minimize),
                      ("path-approx", _cmd_path_minimize), ("path-gap", _cmd_path_gap)):
        p = command(name, run)
        p.add_argument("instance")
        if name == "path-verify":
            p.add_argument("--S", required=True, help="comma-separated arc ids")
            p.add_argument("--general", action="store_true",
                           help="brute-force enumeration instead of the DAG criterion")
        if name in ("path-verify", "path-exact", "path-gap"):
            p.add_argument("--max-paths", type=int, default=None)
        if name in ("path-exact", "path-gap"):
            p.add_argument("--max-subsets", type=int, default=None)

    for name, run in (("matroid-identify", _cmd_matroid_identify),
                      ("polymatroid-identify", _cmd_polymatroid_identify)):
        p = command(name, run)
        p.add_argument("--kind", required=name == "matroid-identify",
                       choices=["uniform", "graphic", "partition", "free"])
        p.add_argument("--graph", help="instance JSON for the graphic kind")
        p.add_argument("--k", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--blocks", help='semicolon-separated comma lists, e.g. "0,1;2"')
        p.add_argument("--capacities", help="comma-separated block capacities")
        p.add_argument("--weights", help="weights JSON file")
        if name == "polymatroid-identify":
            p.add_argument("--table", help="explicit value table JSON")
            p.add_argument("--family",
                           choices=["matroid-rank", "coverage", "budget-additive"])
            p.add_argument("--sets", help='coverage: semicolon-separated comma lists')
            p.add_argument("--cap", help="budget-additive cap (rational)")
            p.add_argument("--gains", help="budget-additive per-element gains")

    p = command("linear-identify", _cmd_linear_identify)
    p.add_argument("--basis", required=True, help='{"points": [[rationals...]]}')
    p.add_argument("--weights")

    p = command("explicit-identify", _cmd_explicit_identify)
    p.add_argument("--solutions", required=True, help='{"dim": n, "vectors": ["0101"]}')
    p.add_argument("--exact", action="store_true")
    p.add_argument("--weights")
    p.add_argument("--max-subsets", type=int, default=None)

    p = command("tolls", _cmd_tolls)
    p.add_argument("--mode", required=True, choices=["discrete", "convex"])
    p.add_argument("--solutions", help="discrete mode solution list JSON")
    p.add_argument("--basis", help="convex mode affine basis JSON")
    p.add_argument("--S", required=True)
    p.add_argument("--target", required=True,
                   help='discrete: bit string "010"; convex: comma rationals')
    p.add_argument("--cost", default="zero", help="zero | linear:c0,.. | quadratic:r0,..")
    p.add_argument("--margin", default="0", help="discrete: margin >= 0 for a unique minimizer")
    p.add_argument("--nonnegative", action="store_true",
                   help="fail (exit 1) if any synthesized toll is negative")

    p = command("gen", _cmd_gen)
    p.add_argument("--family", required=True,
                   choices=["tight-gap", "vc-dag", "bundle", "random-dag",
                            "random-digraph"])
    p.add_argument("--k", type=int)
    p.add_argument("--vc-vertices", type=int)
    p.add_argument("--vc-edges", help='comma list of "a-b" pairs, e.g. "0-1,1-2"')
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--instance", help="base instance for the bundle family")
    p.add_argument("--arc", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--arc-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (stdout when omitted)")
    return parser


def _caps(args: argparse.Namespace) -> Caps:
    """The environment's caps, with each cap flag given in its place."""
    caps = Caps.from_env()
    flags = {name: v for name in ("max_paths", "max_subsets")
             if (v := getattr(args, name, None)) is not None}
    return dataclasses.replace(caps, **flags) if flags else caps


def _weights(args, size: int, read: Reader) -> WeightedGroundSet:
    """The --weights file, or unit weights without one."""
    if not args.weights:
        return WeightedGroundSet.uniform(size)
    return io.parse_weights(read(args.weights), size)


def _verdict(ok: bool, s: list[int], witness: dict) -> tuple[int, dict]:
    """A verifier's exit code and payload: the verdict, the set it judged and,
    when the set is not identifying, the witness fields."""
    return (EXIT_OK if ok else EXIT_FALSE), {"identifying": ok, "S": sorted(set(s)), **witness}


def _cmd_flow_identify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import flows
    g, st, w = io.parse_instance(read(args.instance))
    if args.verify is not None:
        s = io.read_id_set(args.verify, read)
        ok, witness = flows.verify_flow_identifying(g, st, s)
        if witness is None:
            return _verdict(ok, s, {})
        # flow_b is flow_a with only the cycle arcs changed.
        flow_a = io.fractions_to_json(witness.flow_a)
        flow_b = flow_a.copy()
        for a in witness.cycle:
            flow_b[a] = io.fraction_to_json(witness.flow_b[a])
        return _verdict(ok, s, {"cycle": sorted(witness.cycle), "flow_a": flow_a,
                                "flow_b": flow_b})
    result = flows.min_weight_flow_identifying(g, st, w)
    return EXIT_OK, {
        "S": sorted(result.identifying_set),
        "E_prime": sorted(result.relevant_arcs),
        "forest": sorted(result.forest_certificate),
        "weight": io.fraction_to_json(result.total_weight),
    }


def _cmd_path_verify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import paths
    g, st, _ = io.parse_instance(read(args.instance))
    s = io.read_id_set(args.S, read)
    if args.general:
        ok, witness = paths.verify_path_identifying_general(g, st, s, caps.max_paths)
    else:
        ok, witness = paths.verify_path_identifying_dag(g, st, s)
    return _verdict(ok, s, {} if witness is None else {
        "path_a": sorted(witness.path_a), "path_b": sorted(witness.path_b)})


def _cmd_path_minimize(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    """path-exact or path-approx: the set and weight, and the bound if any."""
    from . import paths
    g, st, w = io.parse_instance(read(args.instance))
    if args.command == "path-exact":
        result = paths.exact_min_path_identifying(g, st, w, caps)
    else:
        result = paths.approx_min_path_identifying_dag(g, st, w)
    payload = {"S": sorted(result.identifying_set), "method": result.method,
               "weight": io.fraction_to_json(result.total_weight)}
    if result.approx_bound is not None:
        payload["approx_bound"] = io.fraction_to_json(result.approx_bound)
    return EXIT_OK, payload


def _cmd_path_gap(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import paths
    g, st, _ = io.parse_instance(read(args.instance))
    unit = WeightedGroundSet.uniform(g.arc_count)
    exact = paths.exact_min_path_identifying(g, st, unit, caps)
    approx = paths.approx_min_path_identifying_dag(g, st, unit)
    opt = len(exact.identifying_set)
    return EXIT_OK, {
        "ratio": io.fraction_to_json(paths.size_ratio(exact, approx)),
        "exact_size": opt,
        "approx_size": len(approx.identifying_set),
        "gap_bound": io.fraction_to_json(Fraction((opt + 1) * opt, 2)),
    }


def _build_matroid(args, read: Reader) -> matroids.MatroidOracle:
    kind = _require(args, "--kind")
    if kind == "graphic":
        return matroids.graphic_matroid(io.parse_graph(read(args.graph)))
    if kind == "uniform":
        return matroids.uniform_matroid(args.k, args.n)
    if kind == "free":
        return matroids.free_matroid(args.n)
    return matroids.partition_matroid(io.parse_id_lists(args.blocks),
                                      io.parse_ids(args.capacities))


def _components(args, read: Reader, oracle, solve) -> tuple[int, dict]:
    """The matroid and polymatroid minimizers' answer: `solve` on `oracle`."""
    w = _weights(args, oracle.ground_size, read)
    s, components = solve(oracle, w)
    return EXIT_OK, {
        "S": sorted(s),
        "weight": io.fraction_to_json(w.total(s)),
        "components": [sorted(p) for p in components],
    }


def _cmd_matroid_identify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    return _components(args, read, _build_matroid(args, read),
                       matroids.min_weight_matroid_identifying)


def _build_polymatroid(args, read: Reader) -> polymatroids.PolymatroidOracle:
    if args.table:
        return io.parse_polymatroid_table(read(args.table))
    if args.family is None:
        raise InvalidInstance("provide --table or --family")
    family = _require(args, "--family")
    if family == "matroid-rank":
        return polymatroids.PolymatroidOracle.from_matroid(_build_matroid(args, read))
    if family == "coverage":
        sets = io.parse_id_lists(args.sets)
        return polymatroids.PolymatroidOracle.coverage(len(sets), sets)
    return polymatroids.PolymatroidOracle.budget_additive(
        io.fraction_from_json(args.cap), io.parse_rationals(args.gains))


def _cmd_polymatroid_identify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    return _components(args, read, _build_polymatroid(args, read),
                       polymatroids.min_weight_polymatroid_identifying)


def _cmd_linear_identify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    basis = io.parse_affine_basis(read(args.basis))
    w = _weights(args, basis.ground_size, read)
    s = linear.min_weight_identifying_from_basis(basis, w)
    return EXIT_OK, {
        "S": sorted(s),
        "weight": io.fraction_to_json(w.total(s)),
        "dimension": basis.hull_dimension,
    }


def _cmd_explicit_identify(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import explicit
    x = io.parse_solution_list(read(args.solutions))
    w = _weights(args, x.dimension, read)
    if args.exact:
        s, weight = explicit.exact_identifying(x, w, caps)
        payload = {"S": sorted(s), "weight": io.fraction_to_json(weight),
                   "method": "exact"}
    else:
        result = explicit.greedy_identifying(x, w)
        payload = {
            "S": sorted(result.identifying_set),
            "weight": io.fraction_to_json(result.total_weight),
            "method": "greedy",
            "trace": [[e, n] for e, n in result.trace],
        }
    return EXIT_OK, payload


def _cmd_tolls(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import tolls
    s = io.read_id_set(args.S, read)
    margin = io.fraction_from_json(args.margin)
    if _require(args, "--mode") == "discrete":
        x = io.parse_solution_list(read(args.solutions))
        target = io.parse_bits(args.target, x.dimension)
        cost = io.parse_cost(args.cost, x.dimension)
        toll = tolls.discrete_tolls(x, s, cost, target, margin)
    else:
        basis = io.parse_affine_basis(read(args.basis))
        target = io.parse_rationals(args.target)
        cost = io.parse_cost(args.cost, basis.ground_size)
        toll = tolls.convex_tolls(basis, s, cost, target)
    payload = {"gamma": {str(e): io.fraction_to_json(v) for e, v in sorted(toll.gamma.items())}}
    if args.nonnegative and any(v < 0 for v in toll.gamma.values()):
        payload["nonnegative_violation"] = True
        return EXIT_FALSE, payload
    return EXIT_OK, payload


def _cmd_gen(args, caps: Caps, read: Reader) -> tuple[int, dict]:
    from . import instances
    family = _require(args, "--family")
    if family == "tight-gap":
        inst = instances.gen_tight_gap_family(args.k)
    elif family == "vc-dag":
        inst = instances.gen_vertex_cover_dag(args.vc_vertices, io.parse_edges(args.vc_edges),
                                              args.ell)
    elif family == "bundle":
        g, st, _ = io.parse_instance(read(args.instance))
        inst = instances.gen_bundle_instance(g, st, args.arc, args.size)
    elif family == "random-dag":
        inst = instances.gen_random_dag(args.nodes, args.arc_prob, args.seed)
    else:
        inst = instances.gen_random_digraph(args.nodes, args.arc_prob, args.seed)
    payload = io.instance_to_json(inst.graph, inst.st, metadata=inst.metadata)
    if args.out:
        io.dump_json(args.out, payload)
        return EXIT_OK, {"written": args.out}
    return EXIT_OK, payload


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    inputs, read_paths = hashlib.sha256(), []

    def read(path: str) -> Any:
        """The run's one reader: loads an input file, its bytes joining the digest."""
        read_paths.append(path)
        return io.load_json(path, inputs)

    started = time.monotonic()
    try:
        caps = _caps(args)
        code, payload = args.run(args, caps, read)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except InvalidInstance as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IdsetsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except Exception as exc:
        import traceback  # a bug, not a verdict: exit 1 would read as "not identifying"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.monotonic() - started
    digest = inputs.hexdigest() if read_paths else ""
    print(io.to_json(payload))
    print(f"# {args.command} digest={digest[:16]} time={elapsed:.3f}s "
          f"max_paths={caps.max_paths} max_subsets={caps.max_subsets}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
