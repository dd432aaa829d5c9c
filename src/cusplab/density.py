"""Mass density profiles on a rod and their modulus-of-continuity machinery.

A profile is the function rho on [0, L] that weights the rod.  Admissible
profiles vanish at 0, are positive on (0, L], and have a finite criticality
integral  integral_0^L rho(zeta)/zeta dzeta  (that integral is the on-axis
potential value at the rod's light end).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from . import tails

LEBESGUE = "lebesgue"
POWER = "power"
TABULATED = "tabulated"


@dataclass(frozen=True)
class DensityProfile:
    """Rod mass density rho on [0, L].

    kind is one of "lebesgue" (rho(z) = z on [0, 1]), "power" (rho(z) = z**p)
    or "tabulated" (linear interpolation between ordered (z, rho) samples).
    """

    kind: str
    length: float = 1.0
    power: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == LEBESGUE:
            if self.length != 1.0:
                raise InputError("the lebesgue profile is rho(z) = z on [0, 1]")
        elif self.kind == POWER:
            if self.power is None or self.power <= 0:
                raise InputError("power profile needs an exponent p > 0")
        elif self.kind == TABULATED:
            if self.samples is None:
                raise InputError("tabulated profile needs (z, rho) samples")
            pts = np.asarray(self.samples, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
                raise InputError("tabulated samples must be an (n, 2) array, n >= 2")
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise InputError("tabulated z values must be strictly increasing")
            object.__setattr__(self, "samples", pts)
            object.__setattr__(self, "length", float(pts[-1, 0]))
        else:
            raise InputError(f"unknown density kind {self.kind!r}")
        if not 0.0 < self.length < np.inf:
            raise InputError(f"rod length must be positive and finite, got {self.length}")
        self._check_invariants()

    def _check_invariants(self):
        # rho(0) = 0, rho > 0 on (0, L] (sampled), criticality integral finite.
        if self(0.0) != 0.0:
            raise InputError("density must vanish at z = 0")
        grid = np.geomspace(1e-9, 1.0, 64) * self.length
        vals = self(grid)
        if np.any(vals <= 0):
            bad = grid[np.argmax(vals <= 0)]
            raise InputError(f"density must be positive on (0, L]; rho({bad}) <= 0")
        if self.kind == TABULATED:
            if self.samples[0, 0] > 0 and self.samples[0, 1] != 0:
                raise InputError("tabulated density must start from rho = 0")
            if not np.isfinite(self.criticality):
                raise InputError("criticality integral of rho(z)/z diverges")

    @property
    def criticality(self):
        """The criticality integral  integral_0^L rho(zeta)/zeta dzeta, exact:
        1 for the lebesgue profile, L^p / p for z^p, and for a tabulated
        profile the sum of its linear pieces rho = a + b z, each giving
        a log(z1/z0) + b (z1 - z0) (the leading piece has a = 0)."""
        if self.kind == LEBESGUE:
            return 1.0
        if self.kind == POWER:
            return self.length ** self.power / self.power
        z0, z1 = self.samples[:-1, 0], self.samples[1:, 0]
        r0, r1 = self.samples[:-1, 1], self.samples[1:, 1]
        b = (r1 - r0) / (z1 - z0)
        a = r0 - b * z0
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(z0 > 0, np.log(np.where(z0 > 0, z1 / z0, 1.0)), 0.0)
        return float(np.sum(a * logs + b * (z1 - z0)))

    def __call__(self, z):
        """Evaluate rho at z (scalar or array), z in [0, L]."""
        zz = np.asarray(z, dtype=float)
        # a nan argument reads nan; a nan among the others hides no bad one
        bad = (zz < 0.0) | (zz > self.length * (1 + 1e-12))
        if np.count_nonzero(bad):
            raise DomainError(f"density argument {zz[bad][0]} outside [0, {self.length}]")
        if self.kind == LEBESGUE:
            out = zz
        elif self.kind == POWER:
            out = zz ** self.power
        else:
            out = np.interp(zz, self.samples[:, 0], self.samples[:, 1])
        return float(out) if np.isscalar(z) or zz.ndim == 0 else out


def lebesgue_profile():
    return DensityProfile(LEBESGUE)


def power_profile(p, length=1.0):
    return DensityProfile(POWER, length=length, power=p)


def tabulated_profile(samples):
    return DensityProfile(TABULATED, samples=np.asarray(samples, dtype=float))


@dataclass
class DiniReport:
    """Modulus-of-continuity samples and the scale-integral diagnosis.

    classification is "dini" when integral_0^1 omega(t)/t dt is judged
    convergent, "not-dini" when divergent, else "inconclusive".
    """

    modulus: np.ndarray          # columns t, omega(t), t increasing
    integral_estimate: float     # partial integral over the sampled scales
    classification: str
    fit: tails.TailFit


def _modulus_from_points(z, rho, t_grid):
    """sup |rho(x)-rho(y)| over sampled pairs with |x-y| <= t, per t."""
    n = len(z)
    iu = np.triu_indices(n, k=1)
    dist = np.abs(z[iu[0]] - z[iu[1]])
    diff = np.abs(rho[iu[0]] - rho[iu[1]])
    order = np.argsort(dist)
    dist, diff = dist[order], diff[order]
    running = np.maximum.accumulate(diff)
    idx = np.searchsorted(dist, t_grid, side="right") - 1
    omega = np.where(idx >= 0, running[np.clip(idx, 0, None)], 0.0)
    return np.maximum.accumulate(omega)   # enforce monotonicity across ties


def dini_report(profile, t_grid=None):
    """Estimate the modulus of continuity of rho near 0 and test whether
    integral_0^1 omega(t)/t dt converges.

    The modulus is scanned from pairs of profile samples; the integral is
    accumulated over log-spaced scales and the per-step increments are fed
    to the shared tail classifier (increments decaying geometrically or
    faster than 1/k mean convergence; increments ~ 1/k mean divergence).
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-8, 1.0, 65)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= 0:
        raise InputError("t grid must be positive")

    if profile.kind == TABULATED:
        z = profile.samples[:, 0]
        rho = profile.samples[:, 1]
    else:
        z = np.unique(np.concatenate([
            [0.0],
            np.geomspace(t_grid[0] / 4, profile.length, 1200),
            np.linspace(0.0, profile.length, 600),
        ]))
        rho = profile(z)

    omega = _modulus_from_points(np.asarray(z, float), np.asarray(rho, float),
                                 t_grid)
    # integral over [t_k, t_{k+1}] of omega/t dt, trapezoid in log t
    log_t = np.log(t_grid)
    increments = 0.5 * (omega[1:] + omega[:-1]) * np.diff(log_t)
    total = float(np.sum(increments))

    # Increments toward t -> 0 indexed k = 1, 2, ... from the largest scale.
    dec = increments[::-1]
    dec = dec[dec > 0]
    if len(dec) >= 8:
        fit = tails.fit_tail(dec, first_index=1)
    else:
        fit = tails.TailFit(tails.INCONCLUSIVE, np.nan, np.nan, np.nan,
                            "too few positive increments")
    mapping = {tails.CONVERGENT: "dini", tails.DIVERGENT: "not-dini",
               tails.INCONCLUSIVE: "inconclusive"}
    return DiniReport(
        modulus=np.column_stack([t_grid, omega]),
        integral_estimate=total,
        classification=mapping[fit.classification],
        fit=fit,
    )
