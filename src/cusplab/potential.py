"""The rod potential V(r, z) and its closed forms.

V(r, z) = integral_0^L rho(zeta) / sqrt((zeta - z)^2 + r^2) dzeta in meridian
coordinates (r = distance to the axis).  For the linear density on [0, 1]
("lebesgue") the integral has a closed form; for everything else we use
adaptive quadrature with the interval split at the near-singular point
zeta = clamp(z, 0, L).

The closed forms are evaluated in log-space wherever a difference
sqrt(w^2 + r^2) - w with w > 0 would cancel: the identity

    log(sqrt(w^2 + r^2) - w) = 2 log r - log(sqrt(w^2 + r^2) + w)

keeps radii down to (and below) 1e-300 exact, which the cusp work needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import integrate

from .density import LEBESGUE, TABULATED, lebesgue_profile
from .errors import AccuracyError, DomainError, InputError

INF = math.inf

# raw quadrature cannot resolve an integrand peak of width r below this
MIN_QUADRATURE_RADIUS = 1e-12


def _on_rod(profile_length, r, z):
    return r == 0.0 and 0.0 < z <= profile_length


def _log_radius_of(r, log_r):
    if log_r is not None:
        return float(log_r)
    if r < 0:
        raise DomainError("radius must be nonnegative")
    return math.log(r) if r > 0 else -INF


def lebesgue_closed_form(r, z, log_r=None):
    """Closed form of V for rho(z) = z on [0, 1].

    Pass log_r for radii too small to represent; r is then ignored.
    """
    t = _log_radius_of(r, log_r)
    if t == -INF and 0.0 < z <= 1.0:
        raise DomainError(f"rod point (r=0, z={z}) is outside the domain of V")
    r = math.exp(t) if t > -745 else 0.0       # underflow to 0 is harmless here
    # far field: the exact formula cancels its leading terms to O(M/s), so
    # switch to the multipole expansion about the center of mass 2/3
    # (M = 1/2, quadrupole 1/36; truncation error O((1/s)^3) relative)
    s = math.hypot(r, z - 2.0 / 3.0)
    if s > 300.0:
        cos_t = (z - 2.0 / 3.0) / s
        return 0.5 / s + (1.0 / 36.0) * (1.5 * cos_t * cos_t - 0.5) / s ** 3
    if z == 0.0:
        return math.hypot(1.0, r) - r
    # T_A = log(sqrt((1-z)^2 + r^2) + 1 - z), T_B = log(sqrt(z^2 + r^2) - z)
    if z > 1.0:
        # both T_A and T_B need the log-space identity; their 2 log r cancels
        diff = math.log((math.hypot(z, r) + z) / (math.hypot(z - 1.0, r) + z - 1.0))
    elif z == 1.0:
        diff = math.log(math.hypot(1.0, r) + 1.0) - t
    elif z > 0.0:
        diff = (math.log(math.hypot(1.0 - z, r) + 1.0 - z)
                + math.log(math.hypot(z, r) + z) - 2.0 * t)
    else:
        diff = math.log((math.hypot(1.0 - z, r) + 1.0 - z) / (math.hypot(z, r) - z))
    return z * diff + math.hypot(1.0 - z, r) - math.hypot(z, r)


def lebesgue_value_slope(t, z):
    """V(e^t, z) of rho(z) = z on [0, 1] and its slope dV/dt = r dV/dr, on
    arrays of log-radius t and height z (broadcast against each other).

    Same branches and underflow handling as lebesgue_closed_form.  With
    a = |(r, z - 1)| and b = |(r, z)| the slope is
    r^2 (1/a - 1/b) - z ((1 - z)/a + z/b); both terms cancel to O(r^2) off
    the rod (z < 0 or z > 1), so there the r^2 is taken out exactly:
    -r^2 (2z - 1) / (a (a + b) (z a + (z - 1) b)).
    """
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    if t.shape != z.shape:
        t, z = np.broadcast_arrays(t, z)
    if np.any((t == -INF) & (z > 0.0) & (z <= 1.0)):
        raise DomainError("rod point (r=0, 0 < z <= 1) is outside the domain of V")
    with np.errstate(all="ignore"):
        r = np.where(t > -745.0, np.exp(t), 0.0)
        a = np.hypot(1.0 - z, r)
        b = np.hypot(z, r)
        r2 = r * r
        # 0 <= z <= 1 (the ends are patched below)
        diff = np.log(a + 1.0 - z) + np.log(b + z) - 2.0 * t
        slope = r2 * (2.0 * z - 1.0) / (a * b * (a + b)) - z * ((1.0 - z) / a + z / b)
        off = (z < 0.0) | (z > 1.0)
        if off.any():
            diff = np.where(z > 1.0, np.log((b + z) / (a + z - 1.0)),
                            np.where(z < 0.0, np.log((a + 1.0 - z) / (b - z)), diff))
            slope = np.where(off, -r2 * (2.0 * z - 1.0)
                             / (a * (a + b) * (z * a + (z - 1.0) * b)), slope)
        ends = (z == 0.0) | (z == 1.0)
        if ends.any():
            diff = np.where(z == 1.0, np.log(b + 1.0) - t, diff)
            slope = np.where(z == 1.0, -1.0 / (r + b),
                             np.where(z == 0.0, -r / (a * (a + r)), slope))
        v = np.where(z == 0.0, a - r, z * diff + a - b)
        s = np.hypot(r, z - 2.0 / 3.0)
        far = s > 300.0
        if far.any():
            cos_t = (z - 2.0 / 3.0) / s
            v = np.where(far, 0.5 / s + (1.0 / 36.0) * (1.5 * cos_t * cos_t - 0.5)
                         / s ** 3, v)
            slope = np.where(far, -((r / s) ** 2 / s)
                             * (0.5 + (2.5 * cos_t * cos_t - 0.5) / (12.0 * s * s)),
                             slope)
    return v, slope


def kellogg_closed_form(r, z, log_r=None):
    """The half-line variant  z log(sqrt(z^2+r^2) - z) + sqrt(z^2+r^2),
    harmonic off the ray {r = 0, z >= 0}."""
    t = _log_radius_of(r, log_r)
    if t == -INF and z >= 0.0:
        raise DomainError(f"point (r=0, z={z}) lies on the singular ray")
    r = math.exp(t) if t > -745 else 0.0
    if z == 0.0:
        return r
    if z > 0.0:
        log_term = 2.0 * t - math.log(math.hypot(z, r) + z)
    else:
        log_term = math.log(math.hypot(z, r) - z)
    return z * log_term + math.hypot(z, r)


def eval_closed_form(r, z, variant="lebesgue", log_r=None):
    if variant == "lebesgue":
        return lebesgue_closed_form(r, z, log_r=log_r)
    if variant == "kellogg":
        return kellogg_closed_form(r, z, log_r=log_r)
    raise InputError(f"unknown closed-form variant {variant!r}")


class PotentialField:
    """Evaluator for V(r, z) with the value V(0, 0) cached.

    All evaluations are pure; a field can be shared across threads.
    """

    def __init__(self, density=None, rel_tol=1e-10, max_subdivisions=200):
        self.density = density if density is not None else lebesgue_profile()
        self.rel_tol = float(rel_tol)
        self.max_subdivisions = int(max_subdivisions)
        self.v00 = self._quadrature(0.0, 0.0, criticality=True)

    # -- core evaluation -------------------------------------------------

    def value(self, r, z):
        """V(r, z); +inf on the rod limit (r = 0, 0 < z <= L)."""
        r, z = float(r), float(z)
        if r < 0:
            raise DomainError("radius must be nonnegative")
        if _on_rod(self.density.length, r, z):
            return INF
        if self.density.kind == LEBESGUE:
            return lebesgue_closed_form(r, z)
        return self._quadrature(r, z)

    def value_log_r(self, t, z):
        """V(e^t, z) with the radius given in log space (t may be far below
        the underflow threshold; handled exactly for the lebesgue profile)."""
        z = float(z)
        if self.density.kind == LEBESGUE:
            return lebesgue_closed_form(0.0, z, log_r=t)
        if t == -INF and 0.0 < z <= self.density.length:
            return INF
        return self._quadrature(math.exp(t) if t > -745 else 0.0, z)

    @property
    def has_closed_form(self):
        return self.density.kind == LEBESGUE

    def value_slope_log_r(self, t, z):
        """V(e^t, z) and dV/dt on arrays of log-radius t and height z, from
        the closed form (fields without one have no slope; evaluate those
        point by point with value_log_r)."""
        if not self.has_closed_form:
            raise InputError("only the lebesgue profile has a closed-form slope")
        return lebesgue_value_slope(t, z)

    def value_by_quadrature(self, r, z):
        """Force the quadrature path (used to cross-check the closed form)."""
        r, z = float(r), float(z)
        if _on_rod(self.density.length, r, z):
            return INF
        return self._quadrature(r, z)

    def _quadrature(self, r, z, criticality=False):
        L = self.density.length
        rho = self.density
        if criticality:
            f = lambda zeta: rho(zeta) / zeta
        else:
            if r < MIN_QUADRATURE_RADIUS and 0.0 < z <= L:
                raise AccuracyError(
                    f"integrand peak of width r={r} near zeta={z} is not "
                    "resolvable by quadrature; use a closed form")
            f = lambda zeta: rho(zeta) / math.sqrt((zeta - z) ** 2 + r * r)
        split = min(max(z, 0.0), L)
        points = [split] if 0.0 < split < L else []
        if rho.kind == TABULATED:
            # the interpolant has a kink at every interior knot
            points = sorted(set(points).union(rho.samples[1:-1, 0]))
        # QUADPACK rejects fewer subintervals than the breakpoints make
        limit = max(self.max_subdivisions, len(points) + 1)
        with warnings.catch_warnings():
            # accuracy is judged from abserr below; the warning is redundant
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, abserr = integrate.quad(
                f, 0.0, L, points=points or None, epsabs=0.0,
                epsrel=self.rel_tol, limit=limit)
        if abserr > 10.0 * self.rel_tol * max(abs(val), 1e-300):
            raise AccuracyError(
                f"quadrature for V({r}, {z}) reached error {abserr:.2e} only",
                best_estimate=val)
        return val


@dataclass
class SectorReport:
    """Check of V <= sec(alpha) V(0,0) on the sector z <= tan(alpha) r."""

    alpha: float
    bound: float
    max_observed: float
    passed: bool
    values: np.ndarray = dataclass_field(repr=False, default=None)


def sector_bound_check(field, alpha, sample_points):
    """Verify the sector bound at the given (r, z) samples.

    Every sample must satisfy z <= tan(alpha) r (input error naming the first
    offender otherwise); the check passes when all values stay below
    sec(alpha) V(0,0) up to the quadrature tolerance.
    """
    if not 0.0 <= alpha < math.pi / 2:
        raise InputError("alpha must lie in [0, pi/2)")
    tan_a = math.tan(alpha)
    pts = [(float(r), float(z)) for r, z in sample_points]
    for r, z in pts:
        if z > tan_a * r + 1e-12 * max(1.0, abs(r)):
            raise InputError(f"sample (r={r}, z={z}) lies outside the sector "
                             f"z <= tan({alpha}) r")
    values = np.array([field.value(r, z) for r, z in pts])
    bound = field.v00 / math.cos(alpha)
    max_observed = float(values.max()) if len(values) else 0.0
    passed = bool(max_observed <= bound * (1.0 + 10.0 * field.rel_tol) + 1e-12)
    return SectorReport(alpha=alpha, bound=bound, max_observed=max_observed,
                        passed=passed, values=values)
