"""Budgets for the two exponential searches, s-t path enumeration and the
exact hitting-set search, each set by an environment variable or a CLI flag."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import CAP_KNOBS, InvalidInstance
from .graphs import _integer


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidInstance(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Caps:
    """Resource limits for the enumeration-based solvers.

    max_paths      limit on enumerated simple s-t paths
    max_subsets    limit on nodes visited by the exact hitting-set search

    Every cap must be at least 1; a smaller one is InvalidInstance, whether
    it comes from the environment, a flag or a library caller.
    """

    max_paths: int = 100_000
    max_subsets: int = 2**24

    def __post_init__(self):
        for cap in fields(self):
            object.__setattr__(self, cap.name, value := _integer(getattr(self, cap.name), cap.name))
            if value < 1:
                raise InvalidInstance(
                    f"{cap.name} = {value} ({CAP_KNOBS[cap.name]}): must be >= 1")

    @classmethod
    def from_env(cls) -> "Caps":
        return cls(
            max_paths=_env_int("IDSETS_MAX_PATHS", cls.max_paths),
            max_subsets=_env_int("IDSETS_MAX_SUBSETS", cls.max_subsets),
        )


DEFAULT_CAPS = Caps()
