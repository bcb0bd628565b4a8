"""Command-line interface: one subcommand per solver/verifier/generator.

Results go to stdout as JSON (deterministic: sorted keys, no timestamps);
diagnostics including a one-line run summary go to stderr. Exit codes: 0 success,
1 infeasible-or-false, 2 usage error, 3 cap exceeded. Files and flag values
are turned into domain objects by `idsets.io` only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
import time
from fractions import Fraction

from . import explicit as explicit_mod
from . import flows, instances, io, linear, matroids, paths, polymatroids, tolls
from .caps import Caps
from .errors import CapExceeded, IdsetsError, InvalidInstance
from .graphs import WeightedGroundSet

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPS = 3


def _digest(paths_: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths_:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it:
    `parse_args` keeps no state between calls, so in-process callers of
    `main` pay for the tree once."""
    parser = argparse.ArgumentParser(prog="idsets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow-identify", help="minimum-weight identifying set for s-t flows")
    p.add_argument("instance")
    p.add_argument("--verify", help="file or comma list of arc ids to verify instead")

    for name in ("path-verify", "path-exact", "path-approx", "path-gap"):
        p = sub.add_parser(name)
        p.add_argument("instance")
        if name == "path-verify":
            p.add_argument("--S", required=True, help="comma-separated arc ids")
            p.add_argument("--general", action="store_true",
                           help="brute-force enumeration instead of the DAG criterion")
        if name in ("path-verify", "path-exact", "path-gap"):
            p.add_argument("--max-paths", type=int, default=None)
        if name in ("path-exact", "path-gap"):
            p.add_argument("--max-subsets", type=int, default=None)

    for name in ("matroid-identify", "polymatroid-identify"):
        p = sub.add_parser(name)
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

    p = sub.add_parser("linear-identify")
    p.add_argument("--basis", required=True, help='{"points": [[rationals...]]}')
    p.add_argument("--weights")

    p = sub.add_parser("explicit-identify")
    p.add_argument("--solutions", required=True, help='{"dim": n, "vectors": ["0101"]}')
    p.add_argument("--exact", action="store_true")
    p.add_argument("--weights")
    p.add_argument("--max-subsets", type=int, default=None)

    p = sub.add_parser("tolls")
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

    p = sub.add_parser("gen")
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
    flags = {name: getattr(args, name, None) for name in ("max_paths", "max_subsets")}
    return dataclasses.replace(Caps.from_env(),
                               **{name: v for name, v in flags.items() if v is not None})


def _weights(args, size: int, files: list[str]) -> WeightedGroundSet:
    """The --weights file (recorded in `files`), or unit weights without one."""
    if not args.weights:
        return WeightedGroundSet.uniform(size)
    files.append(args.weights)
    return io.parse_weights(io.load_json(args.weights), size)


def _cmd_flow_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = io.parse_instance(io.load_json(args.instance))
    if args.verify is not None:
        s = io.read_id_set(args.verify)
        ok, witness = flows.verify_flow_identifying(g, st, s)
        payload = {"identifying": ok, "S": sorted(set(s))}
        if witness is not None:
            payload["cycle"] = sorted(witness.cycle)
            payload["flow_a"] = io.fractions_to_json(witness.flow_a)
            payload["flow_b"] = io.fractions_to_json(witness.flow_b)
        return (EXIT_OK if ok else EXIT_FALSE), payload, [args.instance]
    result = flows.min_weight_flow_identifying(g, st, w)
    payload = {
        "S": sorted(result.identifying_set),
        "E_prime": sorted(result.relevant_arcs),
        "forest": sorted(result.forest_certificate),
        "weight": io.fraction_to_json(result.total_weight),
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_verify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, _ = io.parse_instance(io.load_json(args.instance))
    s = io.read_id_set(args.S)
    if args.general:
        ok, witness = paths.verify_path_identifying_general(g, st, s, caps.max_paths)
    else:
        ok, witness = paths.verify_path_identifying_dag(g, st, s)
    payload = {"identifying": ok, "S": sorted(set(s))}
    if witness is not None:
        payload["path_a"] = sorted(witness.path_a)
        payload["path_b"] = sorted(witness.path_b)
    return (EXIT_OK if ok else EXIT_FALSE), payload, [args.instance]


def _cmd_path_exact(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = io.parse_instance(io.load_json(args.instance))
    result = paths.exact_min_path_identifying(g, st, w, caps)
    payload = {
        "S": sorted(result.identifying_set),
        "weight": io.fraction_to_json(result.total_weight),
        "method": result.method,
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_approx(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = io.parse_instance(io.load_json(args.instance))
    result = paths.approx_min_path_identifying_dag(g, st, w)
    payload = {
        "S": sorted(result.identifying_set),
        "weight": io.fraction_to_json(result.total_weight),
        "method": result.method,
        "approx_bound": io.fraction_to_json(result.approx_bound),
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_gap(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, _ = io.parse_instance(io.load_json(args.instance))
    unit = WeightedGroundSet.uniform(g.arc_count)
    exact = paths.exact_min_path_identifying(g, st, unit, caps)
    approx = paths.approx_min_path_identifying_dag(g, st, unit)
    opt = len(exact.identifying_set)
    payload = {
        "ratio": io.fraction_to_json(paths.size_ratio(exact, approx)),
        "exact_size": opt,
        "approx_size": len(approx.identifying_set),
        "gap_bound": io.fraction_to_json(Fraction((opt + 1) * opt, 2)),
    }
    return EXIT_OK, payload, [args.instance]


def _build_matroid(args) -> tuple[matroids.MatroidOracle, list[str]]:
    if args.kind == "graphic":
        if not args.graph:
            raise InvalidInstance("--graph required for the graphic kind")
        return matroids.graphic_matroid(io.parse_graph(io.load_json(args.graph))), [args.graph]
    if args.kind == "uniform":
        if args.k is None or args.n is None:
            raise InvalidInstance("--k and --n required for the uniform kind")
        return matroids.uniform_matroid(args.k, args.n), []
    if args.kind == "free":
        if args.n is None:
            raise InvalidInstance("--n required for the free kind")
        return matroids.free_matroid(args.n), []
    if not args.blocks or not args.capacities:
        raise InvalidInstance("--blocks and --capacities required for partition")
    return matroids.partition_matroid(io.parse_id_lists(args.blocks),
                                      io.parse_ids(args.capacities)), []


def _components_payload(s, w: WeightedGroundSet, components) -> dict:
    return {
        "S": sorted(s),
        "weight": io.fraction_to_json(w.total(s)),
        "components": [sorted(p) for p in components],
    }


def _cmd_matroid_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    oracle, files = _build_matroid(args)
    w = _weights(args, oracle.ground_size, files)
    s, components = matroids.min_weight_matroid_identifying(oracle, w)
    return EXIT_OK, _components_payload(s, w, components), files


def _build_polymatroid(args) -> tuple[polymatroids.PolymatroidOracle, list[str]]:
    if args.table:
        return io.parse_polymatroid_table(io.load_json(args.table)), [args.table]
    if args.family == "matroid-rank":
        oracle, files = _build_matroid(args)
        return polymatroids.PolymatroidOracle.from_matroid(oracle), files
    if args.family == "coverage":
        if not args.sets:
            raise InvalidInstance("--sets required for coverage")
        sets = io.parse_id_lists(args.sets)
        return polymatroids.PolymatroidOracle.coverage(len(sets), sets), []
    if args.family == "budget-additive":
        if args.cap is None or not args.gains:
            raise InvalidInstance("--cap and --gains required for budget-additive")
        return polymatroids.PolymatroidOracle.budget_additive(
            io.fraction_from_json(args.cap), io.parse_rationals(args.gains)), []
    raise InvalidInstance("provide --table or --family")


def _cmd_polymatroid_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    oracle, files = _build_polymatroid(args)
    w = _weights(args, oracle.ground_size, files)
    s, components = polymatroids.min_weight_polymatroid_identifying(oracle, w)
    return EXIT_OK, _components_payload(s, w, components), files


def _cmd_linear_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    basis = io.parse_affine_basis(io.load_json(args.basis))
    files = [args.basis]
    w = _weights(args, basis.ground_size, files)
    s = linear.min_weight_identifying_from_basis(basis, w)
    payload = {
        "S": sorted(s),
        "weight": io.fraction_to_json(w.total(s)),
        "dimension": basis.hull_dimension,
    }
    return EXIT_OK, payload, files


def _cmd_explicit_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    x = io.parse_solution_list(io.load_json(args.solutions))
    files = [args.solutions]
    w = _weights(args, x.dimension, files)
    if args.exact:
        s, weight = explicit_mod.exact_identifying(x, w, caps)
        payload = {"S": sorted(s), "weight": io.fraction_to_json(weight),
                   "method": "exact"}
    else:
        result = explicit_mod.greedy_identifying(x, w)
        payload = {
            "S": sorted(result.identifying_set),
            "weight": io.fraction_to_json(result.total_weight),
            "method": "greedy",
            "trace": [[e, n] for e, n in result.trace],
        }
    return EXIT_OK, payload, files


def _cmd_tolls(args, caps: Caps) -> tuple[int, dict, list[str]]:
    s = io.read_id_set(args.S)
    margin = io.fraction_from_json(args.margin)
    if args.mode == "discrete":
        if not args.solutions:
            raise InvalidInstance("--solutions required in discrete mode")
        x = io.parse_solution_list(io.load_json(args.solutions))
        target = io.parse_bits(args.target, x.dimension)
        cost = io.parse_cost(args.cost, x.dimension)
        toll = tolls.discrete_tolls(x, s, cost, target, margin)
        files = [args.solutions]
    else:
        if not args.basis:
            raise InvalidInstance("--basis required in convex mode")
        basis = io.parse_affine_basis(io.load_json(args.basis))
        target = io.parse_rationals(args.target)
        cost = io.parse_cost(args.cost, basis.ground_size)
        toll = tolls.convex_tolls(basis, s, cost, target)
        files = [args.basis]
    payload = {"gamma": {str(e): io.fraction_to_json(v) for e, v in sorted(toll.gamma.items())}}
    if args.nonnegative and any(v < 0 for v in toll.gamma.values()):
        payload["nonnegative_violation"] = True
        return EXIT_FALSE, payload, files
    return EXIT_OK, payload, files


def _cmd_gen(args, caps: Caps) -> tuple[int, dict, list[str]]:
    files: list[str] = []
    if args.family == "tight-gap":
        if args.k is None:
            raise InvalidInstance("--k required for tight-gap")
        inst = instances.gen_tight_gap_family(args.k)
    elif args.family == "vc-dag":
        if args.vc_vertices is None or not args.vc_edges:
            raise InvalidInstance("--vc-vertices and --vc-edges required for vc-dag")
        inst = instances.gen_vertex_cover_dag(args.vc_vertices, io.parse_edges(args.vc_edges),
                                              args.ell)
    elif args.family == "bundle":
        if not args.instance or args.arc is None or args.size is None:
            raise InvalidInstance("--instance, --arc, --size required for bundle")
        g, st, _ = io.parse_instance(io.load_json(args.instance))
        files.append(args.instance)
        inst = instances.gen_bundle_instance(g, st, args.arc, args.size)
    elif args.family == "random-dag":
        if args.nodes is None:
            raise InvalidInstance("--nodes required for random-dag")
        inst = instances.gen_random_dag(args.nodes, args.arc_prob, args.seed)
    else:
        if args.nodes is None:
            raise InvalidInstance("--nodes required for random-digraph")
        inst = instances.gen_random_digraph(args.nodes, args.arc_prob, args.seed)
    meta = {k: v for k, v in inst.metadata.items()
            if isinstance(v, (str, int, float, list))}
    payload = io.instance_to_json(inst.graph, inst.st, metadata=meta)
    if args.out:
        io.dump_json(args.out, payload)
        return EXIT_OK, {"written": args.out}, files
    return EXIT_OK, payload, files


_HANDLERS = {
    "flow-identify": _cmd_flow_identify,
    "path-verify": _cmd_path_verify,
    "path-exact": _cmd_path_exact,
    "path-approx": _cmd_path_approx,
    "path-gap": _cmd_path_gap,
    "matroid-identify": _cmd_matroid_identify,
    "polymatroid-identify": _cmd_polymatroid_identify,
    "linear-identify": _cmd_linear_identify,
    "explicit-identify": _cmd_explicit_identify,
    "tolls": _cmd_tolls,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    handler = _HANDLERS[args.command]
    started = time.monotonic()
    try:
        caps = _caps(args)
        code, payload, input_files = handler(args, caps)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except InvalidInstance as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IdsetsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FALSE
    elapsed = time.monotonic() - started
    digest = _digest(input_files) if input_files else ""
    print(io.to_json(payload))
    print(f"# {args.command} digest={digest[:16]} time={elapsed:.3f}s "
          f"max_paths={caps.max_paths} max_subsets={caps.max_subsets}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
