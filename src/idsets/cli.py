"""Command-line interface: one subcommand per solver/verifier/generator.

Results go to stdout as JSON (deterministic: sorted keys, no timestamps);
diagnostics including a one-line run summary go to stderr. Exit codes: 0 success,
1 infeasible-or-false, 2 usage error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import explicit as explicit_mod
from . import flows, instances, linear, matroids, paths, polymatroids, tolls
from .caps import Caps
from .errors import CapExceeded, IdsetsError, InvalidInstance
from .graphs import Digraph, WeightedGroundSet
from .io import (
    dump_json,
    fraction_to_json,
    instance_to_json,
    load_json,
    parse_affine_basis,
    parse_instance,
    parse_polymatroid_table,
    parse_solution_list,
    parse_weights,
)

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


def _parse_ids(raw: str) -> list[int]:
    if raw.strip() == "":
        return []
    return [int(part) for part in raw.split(",")]


def _sorted_ids(s) -> list[int]:
    return sorted(int(e) for e in s)


def _parse_cost(spec: str, dim: int) -> tolls.CostOracle:
    if spec == "zero":
        return tolls.linear_cost([0] * dim)
    kind, _, rest = spec.partition(":")
    values = [Fraction(v) for v in rest.split(",")] if rest else []
    if len(values) != dim:
        raise InvalidInstance(f"cost needs {dim} coefficients")
    if kind == "linear":
        return tolls.linear_cost(values)
    if kind == "quadratic":
        return tolls.quadratic_cost(values)
    raise InvalidInstance(f"unknown cost spec {spec!r}")


def _parse_target_vector(raw: str) -> list[Fraction]:
    return [Fraction(v) for v in raw.split(",")]


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("matroid-identify")
    p.add_argument("--kind", required=True,
                   choices=["uniform", "graphic", "partition", "free"])
    p.add_argument("--graph", help="instance JSON for the graphic kind")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--blocks", help='semicolon-separated comma lists, e.g. "0,1;2"')
    p.add_argument("--capacities", help="comma-separated block capacities")
    p.add_argument("--weights", help="weights JSON file")

    p = sub.add_parser("polymatroid-identify")
    p.add_argument("--table", help="explicit value table JSON")
    p.add_argument("--family", choices=["matroid-rank", "coverage", "budget-additive"])
    p.add_argument("--kind", choices=["uniform", "graphic", "partition", "free"])
    p.add_argument("--graph")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--blocks")
    p.add_argument("--capacities")
    p.add_argument("--sets", help='coverage: semicolon-separated comma lists')
    p.add_argument("--cap", help="budget-additive cap (rational)")
    p.add_argument("--gains", help="budget-additive per-element gains")
    p.add_argument("--weights")

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
    p.add_argument("--margin", default="0", help="extra margin for a unique minimizer")
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
    caps = Caps.from_env()
    max_paths = getattr(args, "max_paths", None)
    max_subsets = getattr(args, "max_subsets", None)
    if max_paths is not None or max_subsets is not None:
        caps = Caps(
            max_paths=max_paths if max_paths is not None else caps.max_paths,
            max_subsets=max_subsets if max_subsets is not None else caps.max_subsets,
            max_ground=caps.max_ground,
            max_fm_vars=caps.max_fm_vars,
        )
    return caps


def _load_arc_set(raw: str) -> list[int]:
    if raw.endswith(".json"):
        data = load_json(raw)
        return [int(a) for a in (data["S"] if isinstance(data, dict) else data)]
    return _parse_ids(raw)


def _cmd_flow_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = parse_instance(load_json(args.instance))
    if args.verify is not None:
        s = _load_arc_set(args.verify)
        ok, witness = flows.verify_flow_identifying(g, st, s)
        payload = {"identifying": ok, "S": _sorted_ids(s)}
        if witness is not None:
            payload["cycle"] = _sorted_ids(witness.cycle)
            payload["flow_a"] = [fraction_to_json(v) for v in witness.flow_a]
            payload["flow_b"] = [fraction_to_json(v) for v in witness.flow_b]
        return (EXIT_OK if ok else EXIT_FALSE), payload, [args.instance]
    result = flows.min_weight_flow_identifying(g, st, w)
    payload = {
        "S": _sorted_ids(result.identifying_set),
        "E_prime": _sorted_ids(result.relevant_arcs),
        "forest": _sorted_ids(result.forest_certificate),
        "weight": fraction_to_json(result.total_weight),
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_verify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, _ = parse_instance(load_json(args.instance))
    s = _load_arc_set(args.S)
    if args.general:
        ok, witness = paths.verify_path_identifying_general(g, st, s, caps.max_paths)
    else:
        ok, witness = paths.verify_path_identifying_dag(g, st, s)
    payload = {"identifying": ok, "S": _sorted_ids(s)}
    if witness is not None:
        payload["path_a"] = _sorted_ids(witness.path_a)
        payload["path_b"] = _sorted_ids(witness.path_b)
    return (EXIT_OK if ok else EXIT_FALSE), payload, [args.instance]


def _cmd_path_exact(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = parse_instance(load_json(args.instance))
    result = paths.exact_min_path_identifying(g, st, w, caps)
    payload = {
        "S": _sorted_ids(result.identifying_set),
        "weight": fraction_to_json(result.total_weight),
        "method": result.method,
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_approx(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, w = parse_instance(load_json(args.instance))
    result = paths.approx_min_path_identifying_dag(g, st, w)
    payload = {
        "S": _sorted_ids(result.identifying_set),
        "weight": fraction_to_json(result.total_weight),
        "method": result.method,
        "approx_bound": fraction_to_json(result.approx_bound),
    }
    return EXIT_OK, payload, [args.instance]


def _cmd_path_gap(args, caps: Caps) -> tuple[int, dict, list[str]]:
    g, st, _ = parse_instance(load_json(args.instance))
    unit = WeightedGroundSet.uniform(g.arc_count)
    exact = paths.exact_min_path_identifying(g, st, unit, caps)
    approx = paths.approx_min_path_identifying_dag(g, st, unit)
    opt = len(exact.identifying_set)
    payload = {
        "ratio": fraction_to_json(paths.size_ratio(exact, approx)),
        "exact_size": opt,
        "approx_size": len(approx.identifying_set),
        "gap_bound": fraction_to_json(Fraction((opt + 1) * opt, 2)),
    }
    return EXIT_OK, payload, [args.instance]


def _build_matroid(args) -> tuple[matroids.MatroidOracle, list[str]]:
    files = []
    if args.kind == "graphic":
        if not args.graph:
            raise InvalidInstance("--graph required for the graphic kind")
        data = load_json(args.graph)
        g = Digraph(int(data["nodes"]), [(a[0], a[1]) for a in data["arcs"]])
        files.append(args.graph)
        return matroids.graphic_matroid(g), files
    if args.kind == "uniform":
        if args.k is None or args.n is None:
            raise InvalidInstance("--k and --n required for the uniform kind")
        return matroids.uniform_matroid(args.k, args.n), files
    if args.kind == "free":
        if args.n is None:
            raise InvalidInstance("--n required for the free kind")
        return matroids.free_matroid(args.n), files
    if not args.blocks or not args.capacities:
        raise InvalidInstance("--blocks and --capacities required for partition")
    blocks = [_parse_ids(b) for b in args.blocks.split(";")]
    capacities = _parse_ids(args.capacities)
    return matroids.partition_matroid(blocks, capacities), files


def _cmd_matroid_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    oracle, files = _build_matroid(args)
    w = None
    if args.weights:
        w = parse_weights(load_json(args.weights), oracle.ground_size)
        files.append(args.weights)
    s, components = matroids.min_weight_matroid_identifying(oracle, w)
    weights = w or WeightedGroundSet.uniform(oracle.ground_size)
    payload = {
        "S": _sorted_ids(s),
        "weight": fraction_to_json(weights.total(s)),
        "components": [_sorted_ids(p) for p in components.partition],
    }
    return EXIT_OK, payload, files


def _build_polymatroid(args) -> tuple[polymatroids.PolymatroidOracle, list[str]]:
    if args.table:
        return parse_polymatroid_table(load_json(args.table)), [args.table]
    if args.family == "matroid-rank":
        oracle, files = _build_matroid(args)
        return polymatroids.PolymatroidOracle.from_matroid(oracle), files
    if args.family == "coverage":
        if not args.sets:
            raise InvalidInstance("--sets required for coverage")
        sets = [_parse_ids(s) for s in args.sets.split(";")]
        return polymatroids.PolymatroidOracle.coverage(len(sets), sets), []
    if args.family == "budget-additive":
        if args.cap is None or not args.gains:
            raise InvalidInstance("--cap and --gains required for budget-additive")
        gains = [Fraction(v) for v in args.gains.split(",")]
        return polymatroids.PolymatroidOracle.budget_additive(Fraction(args.cap), gains), []
    raise InvalidInstance("provide --table or --family")


def _cmd_polymatroid_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    oracle, files = _build_polymatroid(args)
    w = None
    if args.weights:
        w = parse_weights(load_json(args.weights), oracle.ground_size)
        files.append(args.weights)
    s, components = polymatroids.min_weight_polymatroid_identifying(oracle, w, caps)
    weights = w or WeightedGroundSet.uniform(oracle.ground_size)
    payload = {
        "S": _sorted_ids(s),
        "weight": fraction_to_json(weights.total(s)),
        "components": [_sorted_ids(p) for p in components.partition],
    }
    return EXIT_OK, payload, files


def _cmd_linear_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    basis = parse_affine_basis(load_json(args.basis))
    files = [args.basis]
    w = None
    if args.weights:
        w = parse_weights(load_json(args.weights), basis.ground_size)
        files.append(args.weights)
    s = linear.min_weight_identifying_from_basis(basis, w)
    weights = w or WeightedGroundSet.uniform(basis.ground_size)
    payload = {
        "S": _sorted_ids(s),
        "weight": fraction_to_json(weights.total(s)),
        "dimension": basis.hull_dimension,
    }
    return EXIT_OK, payload, files


def _cmd_explicit_identify(args, caps: Caps) -> tuple[int, dict, list[str]]:
    x = parse_solution_list(load_json(args.solutions))
    files = [args.solutions]
    w = None
    if args.weights:
        w = parse_weights(load_json(args.weights), x.dimension)
        files.append(args.weights)
    if args.exact:
        s, weight = explicit_mod.exact_identifying(x, w, caps)
        payload = {"S": _sorted_ids(s), "weight": fraction_to_json(weight),
                   "method": "exact"}
    else:
        result = explicit_mod.greedy_identifying(x, w)
        payload = {
            "S": _sorted_ids(result.identifying_set),
            "weight": fraction_to_json(result.total_weight),
            "method": "greedy",
            "trace": [[e, n] for e, n in result.trace],
        }
    return EXIT_OK, payload, files


def _cmd_tolls(args, caps: Caps) -> tuple[int, dict, list[str]]:
    s = _load_arc_set(args.S)
    if args.mode == "discrete":
        if not args.solutions:
            raise InvalidInstance("--solutions required in discrete mode")
        x = parse_solution_list(load_json(args.solutions))
        target = tuple(int(ch) for ch in args.target)
        cost = _parse_cost(args.cost, x.dimension)
        toll = tolls.discrete_tolls(x, s, cost, target, Fraction(args.margin))
        files = [args.solutions]
    else:
        if not args.basis:
            raise InvalidInstance("--basis required in convex mode")
        basis = parse_affine_basis(load_json(args.basis))
        target = _parse_target_vector(args.target)
        cost = _parse_cost(args.cost, basis.ground_size)
        toll = tolls.convex_tolls(basis, s, cost, target)
        files = [args.basis]
    payload = {"gamma": {str(e): fraction_to_json(v) for e, v in sorted(toll.gamma.items())}}
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
        edges = []
        for part in args.vc_edges.split(","):
            a, _, b = part.partition("-")
            edges.append((int(a), int(b)))
        inst = instances.gen_vertex_cover_dag(args.vc_vertices, edges, args.ell)
    elif args.family == "bundle":
        if not args.instance or args.arc is None or args.size is None:
            raise InvalidInstance("--instance, --arc, --size required for bundle")
        g, st, _ = parse_instance(load_json(args.instance))
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
    payload = instance_to_json(inst.graph, inst.st, metadata=meta)
    if args.out:
        dump_json(args.out, payload)
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
    except (InvalidInstance, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IdsetsError, FileNotFoundError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FALSE
    elapsed = time.monotonic() - started
    digest = _digest(input_files) if input_files else ""
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"# {args.command} digest={digest[:16]} time={elapsed:.3f}s caps={caps}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
