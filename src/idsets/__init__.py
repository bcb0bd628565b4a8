"""Identifying and controlling sets for combinatorial solution systems.

Solvers for minimum-weight identifying sets over s-t flows, s-t paths,
matroid bases, polymatroid base polyhedra, affinely described convex sets,
and explicit binary solution lists, plus toll synthesis that steers each
system into a chosen target state. Brute-force oracles back every
polynomial algorithm at desk scale.

Each exported name is imported from its module on first use (PEP 562), so
`import idsets` loads no solver.
"""

from importlib import import_module

_EXPORTS = {
    "caps": ("Caps", "DEFAULT_CAPS"),
    "errors": (),
    "explicit": ("SolutionList", "exact_identifying", "greedy_identifying",
                 "verify_explicit_identifying"),
    "flows": ("FlowIdentifyResult", "min_weight_flow_identifying", "relevant_arcs",
              "verify_flow_identifying"),
    "graphs": ("Digraph", "StPair", "WeightedGroundSet", "enumerate_st_paths",
               "topological_order"),
    "linalg": (),
    "linear": ("AffineBasis", "min_weight_identifying_from_basis",
               "verify_identifying_from_basis"),
    "matroids": ("MatroidOracle", "matroid_components", "min_weight_matroid_identifying",
                 "verify_matroid_identifying"),
    "paths": ("PathIdentifyResult", "approx_min_path_identifying_dag",
              "exact_min_path_identifying", "verify_path_identifying_dag",
              "verify_path_identifying_general"),
    "polymatroids": ("PolymatroidOracle", "min_weight_polymatroid_identifying",
                     "polymatroid_components", "verify_polymatroid_identifying"),
    "search": (),
    "tolls": ("CostOracle", "TollVector", "controlling_counterexample_check",
              "convex_tolls", "discrete_tolls", "linear_cost", "quadratic_cost"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
