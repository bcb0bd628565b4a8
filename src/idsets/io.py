"""JSON (de)serialization for instances, weights, bases, and solution lists.

Rationals travel as strings "p/q" (plain "n" for integers) so exactness
survives the wire; arc order in a file defines the arc ids.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InvalidInstance
from .explicit import SolutionList
from .graphs import Digraph, StPair, WeightedGroundSet
from .linear import AffineBasis
from .polymatroids import PolymatroidOracle


def fraction_from_json(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise InvalidInstance("booleans are not rationals")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse rational from {value!r}") from exc
    raise InvalidInstance(f"cannot parse rational from {value!r}")


def fraction_to_json(value: Fraction) -> str:
    return str(value)


def parse_instance(data: dict) -> tuple[Digraph, StPair, WeightedGroundSet]:
    """Instance format: {"nodes": n, "arcs": [[t,h],...], "s": id, "t": id,
    "weights": ["p/q", ...] (optional, default all 1)}."""
    try:
        g = Digraph(int(data["nodes"]), [(a[0], a[1]) for a in data["arcs"]])
        st = StPair(int(data["s"]), int(data["t"]))
    except KeyError as exc:
        raise InvalidInstance(f"missing instance key: {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInstance(f"malformed instance: {exc}") from exc
    st.validate(g)
    if "weights" in data and data["weights"] is not None:
        raw = data["weights"]
        if len(raw) != g.arc_count:
            raise InvalidInstance("one weight per arc required")
        w = WeightedGroundSet([fraction_from_json(v) for v in raw])
    else:
        w = WeightedGroundSet.uniform(g.arc_count)
    return g, st, w


def instance_to_json(g: Digraph, st: StPair,
                     w: WeightedGroundSet | None = None,
                     metadata: dict | None = None) -> dict:
    data: dict[str, Any] = {
        "nodes": g.node_count,
        "arcs": [[t, h] for t, h in g.arcs],
        "s": st.source,
        "t": st.sink,
    }
    if w is not None:
        data["weights"] = [fraction_to_json(w[e]) for e in range(w.size)]
    if metadata:
        data["metadata"] = metadata
    return data


def parse_weights(data: dict | list, size: int) -> WeightedGroundSet:
    """Either a bare list of rationals or {"weights": [...]}."""
    raw = data["weights"] if isinstance(data, dict) else data
    if len(raw) != size:
        raise InvalidInstance(f"expected {size} weights, got {len(raw)}")
    return WeightedGroundSet([fraction_from_json(v) for v in raw])


def parse_solution_list(data: dict) -> SolutionList:
    """Format: {"dim": n, "vectors": ["0101", ...]}."""
    try:
        dim = int(data["dim"])
        vectors = data["vectors"]
    except KeyError as exc:
        raise InvalidInstance(f"missing solution-list key: {exc}") from exc
    rows = []
    for vec in vectors:
        if isinstance(vec, str):
            rows.append(tuple(int(ch) for ch in vec))
        else:
            rows.append(tuple(int(v) for v in vec))
    return SolutionList(dim, rows)


def solution_list_to_json(x: SolutionList) -> dict:
    return {"dim": x.dimension,
            "vectors": ["".join(str(v) for v in vec) for vec in x.vectors]}


def parse_affine_basis(data: dict) -> AffineBasis:
    """Format: {"points": [["p/q", ...], ...]}."""
    try:
        points = data["points"]
    except KeyError as exc:
        raise InvalidInstance(f"missing basis key: {exc}") from exc
    return AffineBasis([[fraction_from_json(v) for v in p] for p in points])


def parse_polymatroid_table(data: dict) -> PolymatroidOracle:
    """Format: {"size": n, "values": {"": "0", "0": ..., "0,2": ...}}.

    Keys are comma-joined sorted element ids; every subset must be present.
    """
    try:
        size = int(data["size"])
        values = data["values"]
    except KeyError as exc:
        raise InvalidInstance(f"missing table key: {exc}") from exc
    table: dict[frozenset[int], Fraction] = {}
    for key, value in values.items():
        ids = frozenset(int(p) for p in key.split(",") if p != "")
        table[ids] = fraction_from_json(value)
    return PolymatroidOracle.from_table(size, table)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
