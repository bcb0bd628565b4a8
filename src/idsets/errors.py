"""Exceptions shared across the solver modules.

The two exponential searches distinguish "the instance is infeasible or the
answer is no" (a regular return value) from "the instance is too large for
brute force": PathExplosion past `Caps.max_paths` and SubsetExplosion past
`Caps.max_subsets`. No other solver has a cap.

Every sequence argument of the library, an arc list, a weight vector, a 0/1
vector or a rational point, is indexed by the ground set, so `as_sequence`
reads it in its own order and refuses with InvalidInstance the kinds that
`non_vector_kind` names, which iterate in some other order.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any


class IdsetsError(Exception):
    """Base class for all library errors."""


class InvalidInstance(IdsetsError):
    """Malformed input: bad node/arc ids, self-loops where forbidden, ..."""


def non_vector_kind(values: Any) -> str | None:
    """"string", "byte string", "mapping" or "set" for a value that iterates
    one character, byte or key per item, or in hash order; None for anything
    else. A list or tuple, what the parsers and solvers pass, skips the
    slower Mapping check."""
    if isinstance(values, (list, tuple)):
        return None
    if isinstance(values, str):
        return "string"
    if isinstance(values, (bytes, bytearray)):
        return "byte string"
    if isinstance(values, (set, frozenset)):
        return "set"
    return "mapping" if isinstance(values, Mapping) else None


def as_sequence(values: Any, what: str) -> list | tuple:
    """A list or tuple as it is, any other iterable as the list of its items.
    InvalidInstance naming `what` for a kind `non_vector_kind` names, and
    for a value that cannot be iterated."""
    if isinstance(values, (list, tuple)):
        return values
    kind = non_vector_kind(values)
    if kind:
        raise InvalidInstance(f"{what} must be a sequence, not the {kind} {values!r}")
    try:
        return list(values)
    except TypeError as exc:
        raise InvalidInstance(f"{what} must be iterable: {exc}") from None


class NoStPath(IdsetsError):
    """The sink is unreachable from the source."""


class NotAcyclic(IdsetsError):
    """A DAG-only operation received a digraph with a directed cycle."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"digraph contains a directed cycle, arc ids {cycle}")
        self.cycle = cycle


# Where each cap is set: its environment variable and flag.
CAP_KNOBS = {
    "max_paths": "IDSETS_MAX_PATHS / --max-paths",
    "max_subsets": "IDSETS_MAX_SUBSETS / --max-subsets",
}


class CapExceeded(IdsetsError):
    """Base class for brute-force budget violations.

    The message names the cap, where it is set and the count reached, e.g.
    "max_subsets = 5 (IDSETS_MAX_SUBSETS / --max-subsets): visited 6 nodes".
    """

    def __init__(self, cap: str, value: int, knobs: str, reached: str):
        super().__init__(f"{cap} = {value} ({knobs}): {reached}")


class PathExplosion(CapExceeded):
    """More simple s-t paths than the max_paths cap."""

    def __init__(self, cap: int, reached: str):
        super().__init__("max_paths", cap, CAP_KNOBS["max_paths"], reached)


class SubsetExplosion(CapExceeded):
    """Subset search exceeded the max_subsets cap; `reached` says how far it got."""

    def __init__(self, cap: int, reached: str):
        super().__init__("max_subsets", cap, CAP_KNOBS["max_subsets"], reached)


class NotIdentifying(IdsetsError):
    """A toll construction was asked for a set that is not identifying."""

    def __init__(self, witness=None):
        super().__init__("the given set is not identifying")
        self.witness = witness


class TargetNotInX(IdsetsError):
    """The target state is not a member of the explicit solution list."""


class TargetOutsideAffineHull(IdsetsError):
    """The target point does not lie in the affine hull of the basis."""


class NoSubgradient(IdsetsError):
    """The cost oracle cannot produce a subgradient at the target."""
