"""Boundary data of the Dirichlet problem on the region {A < V < B}.

A datum is a function of arc fraction on one boundary component
(ConstantData, BumpData) or a table of values along it (TabulatedData).
BoundaryData gives one datum to each essential tag of the section: the
outer level, the inner level and the cusp cap.  The FEM, the walker and
the probes read the same objects.  two_constant_oracle is the exact
solution for data constant on each component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .mesh import CAP, INNER, OUTER


@dataclass(frozen=True)
class ConstantData:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError(f"constant datum must be finite, got {self.value}")

    def __call__(self, s):
        return self.value + 0.0 * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class BumpData:
    """Smooth compactly supported bump in normalized arc length:
    amplitude * exp(1 - 1/(1 - x^2)) for x = (s - center)/width inside
    |x| < 1, zero outside."""

    center: float
    width: float
    amplitude: float

    def __post_init__(self):
        for name in ("center", "width", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"bump {name} must be finite")
        if self.width <= 0:
            raise InputError("bump width must be positive")

    def __call__(self, s):
        x = (np.asarray(s, dtype=float) - self.center) / self.width
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out


@dataclass(frozen=True)
class TabulatedData:
    """Values listed along a boundary component, bound two ways.  The FEM
    gives them to the component's nodes in arc order, one value per node.
    The arc-length form, the call, places them at equally spaced arc
    fractions from 0 to 1 and interpolates linearly between them.  An empty
    table suits only a component without nodes: the call, the walker and
    the cap refuse it."""

    values: tuple

    def __post_init__(self):
        if not all(map(math.isfinite, self.values)):
            raise InputError("tabulated data must be finite")

    def __call__(self, s):
        if not len(self.values):
            raise InputError("an empty table has no arc-length form")
        return np.interp(s, np.linspace(0.0, 1.0, len(self.values)), self.values)


class BoundaryData:
    """Per-tag boundary data for the essential tags.

    Unless a cap datum is given, the cusp cap takes the constant value the
    inner datum reads at arc fraction 0, the cap-corner end of the inner
    arc, where the walker and the probes read it too (the continuous datum
    is B on the whole inner component including the tip).
    """

    def __init__(self, outer, inner, cap=None):
        if cap is None:
            if isinstance(inner, TabulatedData) and not len(inner.values):
                raise InputError("an empty inner table has no value for the cap")
            cap = ConstantData(float(inner(0.0)))
        self.spec = {OUTER: outer, INNER: inner, CAP: cap}

    @classmethod
    def constants(cls, outer_value, inner_value):
        return cls(ConstantData(outer_value), ConstantData(inner_value))


def _two_constant(field, A, B, alpha, beta, log_r, z):
    """The two-constant solution at the points (e^log_r, z), on arrays:
    alpha + (beta - alpha) (V - A)/(B - A).  DomainError names the first
    point where V is not inside (A, B), nan included; rod points raise it
    from the field."""
    v = field.value_slope_log_r(log_r, z)[0]
    outside = ~((A < v) & (v < B))
    if outside.any():
        k = int(np.argmax(outside))
        raise DomainError(f"point (r={np.exp(log_r[k])}, z={z[k]}) lies "
                          f"outside the region (V = {v[k]})")
    return alpha + (beta - alpha) * (v - A) / (B - A)


def two_constant_oracle(field, A, B, alpha, beta, points):
    """Exact solution for data constant on each boundary component:
    alpha + (beta - alpha) (V - A)/(B - A), the harmonic affine image of V
    with the right boundary limits quasi-everywhere."""
    r, z = np.asarray(points, dtype=float).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(r)
    return _two_constant(field, A, B, alpha, beta, log_r, z).tolist()
