"""Identifying and controlling sets for combinatorial solution systems.

Solvers for minimum-weight identifying sets over s-t flows, s-t paths,
matroid bases, polymatroid base polyhedra, affinely described convex sets,
and explicit binary solution lists, plus toll synthesis that steers each
system into a chosen target state. Brute-force oracles back every
polynomial algorithm at desk scale.
"""

from .caps import Caps, DEFAULT_CAPS
from .explicit import (
    SolutionList,
    exact_identifying,
    greedy_identifying,
    verify_explicit_identifying,
)
from .flows import (
    FlowIdentifyResult,
    min_weight_flow_identifying,
    relevant_arcs,
    verify_flow_identifying,
)
from .graphs import (
    Digraph,
    StPair,
    WeightedGroundSet,
    enumerate_st_paths,
    spanning_forest_max_weight,
    strongly_connected_components,
    topological_order,
)
from .linear import (
    AffineBasis,
    ax_independent,
    min_weight_identifying_from_basis,
    verify_identifying_from_basis,
)
from .matroids import (
    MatroidOracle,
    fundamental_circuit,
    matroid_components,
    min_weight_matroid_identifying,
    verify_matroid_identifying,
)
from .paths import (
    PathIdentifyResult,
    approx_min_path_identifying_dag,
    exact_min_path_identifying,
    verify_path_identifying_dag,
    verify_path_identifying_general,
)
from .polymatroids import (
    PolymatroidOracle,
    min_weight_polymatroid_identifying,
    polymatroid_components,
    verify_polymatroid_identifying,
)
from .tolls import (
    CostOracle,
    TollVector,
    controlling_counterexample_check,
    convex_tolls,
    discrete_tolls,
    linear_cost,
    quadratic_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
