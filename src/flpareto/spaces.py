"""Decoders binding unit-interval genes to named hyperparameters.

Optimizers work on genes in [0, 1]^d; a SearchSpace decodes a gene vector
into the real, integer, and categorical values the FL evaluator consumes,
and validates explicit values against their declared ranges.  `_coerce`
is the one rule by which a JSON value becomes a config number, in a
manifest and in a dataset spec alike.
"""

from __future__ import annotations

import numbers
import types
import typing
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = ["Var", "SearchSpace"]


def _coerce(value, hint):
    """A JSON value as a config field annotated `hint` takes it."""
    if isinstance(hint, types.UnionType):  # `int | None`
        return None if value is None else _coerce(value, typing.get_args(hint)[0])
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(v, typing.get_args(hint)[0]) for v in value)
    if hint in (int, float):
        # JSON numbers only (a bool is also a numbers.Real), integral for int, finite for float
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if ok and not (hint is int and isinstance(value, numbers.Integral)):
            # in a float's finite range: not NaN, not +-inf, no integer past 2**1024
            ok = abs(value) <= float(np.finfo(float).max) and (hint is float or float(value).is_integer())
        if not ok:
            raise ValueError(f"must be {'an integer' if hint is int else 'a finite number'}, got {value!r}")
        return hint(value)
    return value


@dataclass(frozen=True)
class Var:
    """One decision variable: real/int range or categorical choices."""

    name: str
    kind: str  # "real" | "int" | "cat"
    low: float = 0.0
    high: float = 1.0
    choices: tuple = ()

    def __post_init__(self):
        if self.kind not in ("real", "int", "cat"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "cat" and not self.choices:
            raise ValueError(f"categorical variable {self.name!r} needs choices")
        if self.kind != "cat" and not self.low < self.high:
            raise ValueError(f"variable {self.name!r} needs low < high")

    def decode(self, gene: float) -> Any:
        g = min(max(float(gene), 0.0), 1.0)
        if self.kind == "real":
            return self.low + g * (self.high - self.low)
        if self.kind == "int":
            n_levels = int(self.high) - int(self.low) + 1
            return int(self.low) + min(int(g * n_levels), n_levels - 1)
        idx = min(int(g * len(self.choices)), len(self.choices) - 1)
        return self.choices[idx]

    def validate(self, value) -> None:
        """Raise ValueError naming the variable and its range when invalid."""
        if self.kind == "cat":
            if value not in self.choices:
                raise ValueError(
                    f"{self.name}={value!r} invalid: must be one of {list(self.choices)}"
                )
            return
        try:
            v = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{self.name}={value!r} must be a number") from None
        if not (self.low <= v <= self.high):
            raise ValueError(
                f"{self.name}={value!r} out of range [{self.low}, {self.high}]"
            )
        if self.kind == "int" and v != int(v):
            raise ValueError(f"{self.name}={value!r} must be an integer")


@dataclass(frozen=True)
class SearchSpace:
    """An ordered tuple of variables; one gene per variable."""

    variables: tuple[Var, ...]

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def decode(self, genes: Sequence[float]) -> dict[str, Any]:
        genes = np.asarray(genes, dtype=float)
        if genes.shape != (self.dim,):
            raise ValueError(
                f"gene vector has shape {genes.shape}, expected ({self.dim},)"
            )
        return {v.name: v.decode(g) for v, g in zip(self.variables, genes)}

    def validate(self, values: dict[str, Any]) -> None:
        for v in self.variables:
            if v.name not in values:
                raise ValueError(f"missing value for variable {v.name!r}")
            v.validate(values[v.name])
        extra = set(values) - set(self.names)
        if extra:
            raise ValueError(f"unknown variables: {sorted(extra)}")
