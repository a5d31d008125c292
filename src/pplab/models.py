"""Coefficient families and the periodically forced delayed recursion.

The recursion under study is

    x[n+1] = x[n] * f_n(x[n-1]),    n = 0, 1, 2, ...

with initial data x[0] > 0, x[-1] >= 0, where the coefficient functions f_n
repeat with period k.  Every family here is positive and bounded on
[0, +inf), strictly decreasing, and has strictly increasing x * f(x); those
two monotonicity properties are what make the global dynamics of the
recursion classifiable from the period products alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _require_point(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"evaluation point must be a finite real >= 0, got {x!r}")
    return x


class CoefficientFamily(ABC):
    """One coefficient function f of the recursion.

    Implementations must be positive and bounded on [0, +inf).
    """

    @abstractmethod
    def value(self, x: float) -> float:
        """Evaluate f(x) for x >= 0."""

    @abstractmethod
    def at_zero(self) -> float:
        """f(0), the factor that enters the extinction threshold."""

    @abstractmethod
    def limit_at_infinity(self) -> float:
        """lim of f(x) as x grows without bound."""


@dataclass(frozen=True)
class Pielou(CoefficientFamily):
    """f(x) = beta / (1 + x), the delayed-logistic style saturation."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))

    def value(self, x: float) -> float:
        return self.beta / (1.0 + _require_point(x))

    def at_zero(self) -> float:
        return self.beta

    def limit_at_infinity(self) -> float:
        return 0.0


@dataclass(frozen=True)
class BevertonHolt(CoefficientFamily):
    """f(x) = lam / (1 + (lam - 1) * x / capacity).

    Density-dependent growth with per-period rate ``lam`` > 1 and carrying
    capacity ``capacity``; f(capacity) = 1, so a constant-capacity schedule
    has the capacity itself as equilibrium.
    """

    lam: float
    capacity: float

    def __post_init__(self):
        lam = float(self.lam)
        if not math.isfinite(lam) or lam <= 1.0:
            raise ValueError(f"lam must be a finite real > 1, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "capacity", _require_positive("capacity", self.capacity))

    def value(self, x: float) -> float:
        return self.lam / (1.0 + (self.lam - 1.0) * _require_point(x) / self.capacity)

    def at_zero(self) -> float:
        return self.lam

    def limit_at_infinity(self) -> float:
        return 0.0


@dataclass(frozen=True)
class RationalSaturating(CoefficientFamily):
    """f(x) = beta / (1 + alpha1 * x / (1 + alpha2 * x)).

    The inhibition term saturates, so f decreases to the positive limit
    beta / (1 + alpha1 / alpha2) instead of zero.
    """

    beta: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))
        object.__setattr__(self, "alpha1", _require_positive("alpha1", self.alpha1))
        object.__setattr__(self, "alpha2", _require_positive("alpha2", self.alpha2))

    def value(self, x: float) -> float:
        x = _require_point(x)
        return self.beta / (1.0 + self.alpha1 * x / (1.0 + self.alpha2 * x))

    def at_zero(self) -> float:
        return self.beta

    def limit_at_infinity(self) -> float:
        return self.beta / (1.0 + self.alpha1 / self.alpha2)


@dataclass(frozen=True, init=False)
class PeriodicSystem:
    """Period-k schedule of coefficient functions for the delayed recursion.

    Recursion index n maps to the 1-based coefficient slot ((n - 1) mod k) + 1,
    with the mathematical (always nonnegative) modulus.  Products over one
    period therefore run over slots 1..k, and negative indices wrap around:
    the slot for index h equals the slot for index k + h.
    """

    coefficients: tuple[CoefficientFamily, ...]

    def __init__(self, coefficients: Sequence[CoefficientFamily] | Iterable[CoefficientFamily]):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise ValueError("a periodic system needs at least one coefficient family")
        for i, fam in enumerate(coefficients):
            if not isinstance(fam, CoefficientFamily):
                raise TypeError(f"coefficient {i + 1} is not a CoefficientFamily: {fam!r}")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def period(self) -> int:
        return len(self.coefficients)

    def family_at(self, n: int) -> CoefficientFamily:
        """Coefficient family active at recursion index n (any integer)."""
        return self.coefficients[(n - 1) % self.period]

    def growth_factor(self, n: int, x: float) -> float:
        """f_n(x): the per-step growth factor at index n and delayed density x."""
        return self.family_at(n).value(x)


# Tagged-record wire format used by scenario files:
# tag -> (class, {record field: attribute}).

_FAMILIES = {
    "pielou": (Pielou, {"beta": "beta"}),
    "beverton_holt": (BevertonHolt, {"lambda": "lam", "capacity": "capacity"}),
    "rational": (RationalSaturating, {"beta": "beta", "alpha1": "alpha1", "alpha2": "alpha2"}),
}


def family_from_record(record: dict) -> CoefficientFamily:
    """Build a family from a tagged record, e.g. {"family": "pielou", "beta": 2.0}."""
    if not isinstance(record, dict):
        raise ValueError(f"family record must be an object, got {record!r}")
    tag = record.get("family")
    if not isinstance(tag, str) or tag not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family tag {tag!r} (expected one of: {known})")
    cls, fields = _FAMILIES[tag]
    extra = set(record) - {"family", *fields}
    missing = [f for f in fields if f not in record]
    if missing or extra:
        problems = []
        if missing:
            problems.append(f"missing {sorted(missing)}")
        if extra:
            problems.append(f"unexpected {sorted(extra)}")
        raise ValueError(f"family {tag!r}: " + "; ".join(problems))
    params = {}
    for field, attr in fields.items():
        raw = record[field]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"family {tag!r}: parameter {field!r} must be a number, got {raw!r}")
        try:
            params[attr] = float(raw)
        except OverflowError:  # an integer beyond the range of doubles; the class rejects inf
            params[attr] = math.inf
    return cls(**params)


def family_to_record(family: CoefficientFamily) -> dict:
    """Inverse of :func:`family_from_record` for the built-in families."""
    for tag, (cls, fields) in _FAMILIES.items():
        if isinstance(family, cls):
            params = {field: getattr(family, attr) for field, attr in fields.items()}
            return {"family": tag, **params}
    raise ValueError(f"no record form for custom family {family!r}")
