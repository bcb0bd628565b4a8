"""Per-layer tracing of `idsets`, installed from outside the program.

`Tracer.install()` replaces every binding of each traced function in every
loaded `idsets` module (a function re-exported by `idsets`, `idsets.cli` or
`idsets.paths` is patched under each name), plus methods on the oracle and
graph classes. Layer boundaries record spans; hot oracle and adjacency
methods only count. Spans stay in memory, with their parent span and the
request that caused them, until `write()` saves them.

A layer's self time is its span duration minus the time its child spans
cover. Memo hit ratio is 1 - distinct subsets / calls, counted per oracle.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer, work counter or None) for each spanned function.
SPANNED = [
    ("idsets.cli", "main", "cli", None),
    ("idsets.io", "load_json", "io.load_json", "io.bytes_in"),
    ("idsets.io", "parse_instance", "io.parse", None),
    ("idsets.io", "parse_weights", "io.parse", None),
    ("idsets.io", "parse_solution_list", "io.parse", None),
    ("idsets.io", "parse_affine_basis", "io.parse", None),
    ("idsets.io", "parse_polymatroid_table", "io.parse", None),
    ("idsets.graphs", "enumerate_st_paths", "graphs.enumerate_st_paths",
     "graphs.enumerate_st_paths.paths"),
    ("idsets.graphs", "reachable_from", "graphs.reach", None),
    ("idsets.graphs", "reverse_reachable_to", "graphs.reach", None),
    ("idsets.graphs", "strongly_connected_components", "graphs.scc", None),
    ("idsets.graphs", "spanning_forest_max_weight", "graphs.forest", None),
    ("idsets.graphs", "topological_order", "graphs.topo", None),
    ("idsets.graphs", "shortest_arc_path", "graphs.shortest_arc_path", None),
    ("idsets.search", "min_weight_hitting_set", "search.hitting_set",
     "search.hitting_set.demands_in"),
    ("idsets.paths", "exact_min_path_identifying", "paths.exact", None),
    ("idsets.paths", "verify_path_identifying_dag", "paths.verify_dag", None),
    ("idsets.flows", "relevant_arcs", "flows.relevant_arcs", None),
    ("idsets.flows", "min_weight_flow_identifying", "flows.identify", None),
    ("idsets.flows", "verify_flow_identifying", "flows.verify", None),
    ("idsets.explicit", "exact_identifying", "explicit.exact", None),
    ("idsets.explicit", "greedy_identifying", "explicit.greedy", None),
    ("idsets.linalg", "rref", "linalg.rref", "linalg.rref.cells"),
    ("idsets.linear", "min_weight_identifying_from_basis", "linear.identify", None),
    ("idsets.linear", "verify_identifying_from_basis", "linear.verify", None),
    ("idsets.linear", "AffineBasis.__init__", "linear.basis_init", None),
    ("idsets.matroids", "matroid_components", "matroids.components", None),
    ("idsets.matroids", "enumerate_circuits", "matroids.circuits", None),
    ("idsets.matroids", "spot_check", "matroids.spot_check", None),
    ("idsets.polymatroids", "PolymatroidOracle.__init__", "polymatroids.construct", None),
    ("idsets.polymatroids", "polymatroid_components", "polymatroids.components", None),
    ("idsets.tolls", "fourier_motzkin_feasible", "tolls.fm", "tolls.fm.rows_in"),
    ("idsets.tolls", "controlling_counterexample_check", "tolls.check", None),
    ("idsets.tolls", "convex_tolls", "tolls.convex", None),
]

# (module, method, layer, count distinct subsets) for count-only methods.
COUNTED = [
    ("idsets.matroids", "MatroidOracle.is_independent", "matroids.oracle", True),
    ("idsets.polymatroids", "PolymatroidOracle.value", "polymatroids.oracle", True),
    ("idsets.graphs", "Digraph.out_arcs", "graphs.adjacency", False),
    ("idsets.graphs", "Digraph.in_arcs", "graphs.adjacency", False),
]


def _count_hook(hook: str, args, kwargs, result) -> int:
    """Work counted at a layer boundary; 0 when the call no longer fits."""
    try:
        if hook == "io.bytes_in":
            return os.path.getsize(args[0] if args else kwargs["path"])
        if hook.endswith(".paths"):
            return len(result)
        if hook.endswith(".demands_in"):
            return len(args[2] if len(args) > 2 else kwargs["demands"])
        if hook.endswith(".cells"):
            matrix = args[0] if args else kwargs["matrix"]
            return len(matrix) * (len(matrix[0]) if matrix else 0)
        if hook.endswith(".rows_in"):
            return len(args[0] if args else kwargs["rows"])
    except (IndexError, KeyError, OSError, TypeError):
        pass
    return 0


class Tracer:
    def __init__(self):
        # (span id, parent span id, layer, request id, start ns, end ns)
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.request = ""
        self._stack = [0]
        self._next_id = 1
        self._distinct: dict[str, dict[int, tuple[object, set]]] = defaultdict(dict)
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, fn, layer: str, hook: str | None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, layer, tracer.request, start, end))
                tracer.counts[layer + ".calls"] += 1
            if hook:
                tracer.counts[hook] += _count_hook(hook, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, layer: str, distinct: bool):
        counts, seen = self.counts, self._distinct[layer]

        def wrapper(obj, subset=None):
            counts[layer + ".calls"] += 1
            if not distinct:
                return fn(obj)
            key = frozenset(subset)
            seen.setdefault(id(obj), (obj, set()))[1].add(key)
            return fn(obj, key)
        return wrapper

    def install(self) -> None:
        """Patch every binding; `uninstall()` restores the originals.

        A function the program no longer has is skipped, and its layer
        reads 0.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "idsets" or name.startswith("idsets."))]
        for modname, qualname, layer, hook in SPANNED:
            self._patch(modules, modname, qualname,
                        lambda fn: self._spanned(fn, layer, hook))
        for modname, qualname, layer, distinct in COUNTED:
            self._patch(modules, modname, qualname,
                        lambda fn: self._counted(fn, layer, distinct))

    def _patch(self, modules, modname: str, qualname: str, wrap) -> None:
        owner = sys.modules.get(modname)
        *cls_name, attr = qualname.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0], None)
            modules = [owner]
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = wrap(original)
        for target in modules:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapped)
                    self._undo.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def take_pass(self, first_span: int) -> dict[str, float]:
        """Per-layer figures for the spans from index `first_span` on and
        the counts since the last call; resets the counters."""
        spans = self.spans[first_span:]
        child_ns: Counter[int] = Counter()
        for _, parent, _, _, start, end in spans:
            child_ns[parent] += end - start
        figures: dict[str, float] = defaultdict(float)
        for sid, _, layer, _, start, end in spans:
            figures[layer + ".self_ms"] += (end - start - child_ns[sid]) / 1e6
        figures.update(self.counts)
        for layer, seen in self._distinct.items():
            distinct = sum(len(keys) for _, keys in seen.values())
            calls = self.counts[layer + ".calls"]
            figures[layer + ".distinct"] = distinct
            figures[layer + ".hit_ratio"] = 1 - distinct / calls if calls else 0.0
            seen.clear()
        self.counts.clear()
        return figures

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
