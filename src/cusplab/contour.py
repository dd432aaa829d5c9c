"""Level sets of the rod potential: axis crossings, contour tracing, and the
cusp-rate band checks.

All radial root-finding happens in t = log r.  The cusp of a level c above
V(0,0) spans hundreds of decades in r (r ~ e^{-alpha/rho(z)}), so bisection
in r itself would stall at double-precision resolution, while t stays a
perfectly ordinary float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import AccuracyError, InputError, RangeError

INF = math.inf

# residual target |V - c| for roots on a contour
CONTOUR_RTOL = 1e-10
# smallest radius radius_at() will report as a plain float
MIN_RADIUS = 1e-300
# geometric grading ratio toward the cusp endpoint
GRADING_RATIO = 0.7
# log-radius beyond which exp(t) would be subnormal/zero; traced samples stay above
LOG_RADIUS_FLOOR = -650.0


def _bisect_axis(g, lo, hi, target):
    """Bisect the decreasing function g on [lo, hi] for g = target."""
    flo, fhi = g(lo) - target, g(hi) - target
    if not (flo > 0 > fhi):
        raise RangeError("axis bracket lost its sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = g(mid) - target
        if fm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(mid)) and abs(fm) <= CONTOUR_RTOL:
            break
    return 0.5 * (lo + hi)


def axis_crossings(field, c, search_radius=1e9):
    """The z-axis crossings (z1, z2) of the level set V = c.

    z2 > L always exists (V(0, .) falls from infinity to 0 on (L, inf)); z1
    is the crossing below 0 when c < V(0,0) and exactly 0 otherwise.  Both
    are found by bracketing bisection in log-offset from the rod ends.
    """
    if c <= 0:
        raise InputError("level must be positive")
    L = field.density.length

    def axis_value(z):
        # quadrature cannot certify values right at the rod ends where the
        # integrand spike is unresolvably narrow, but monotonicity says the
        # value there exceeds everything certifiable further out
        try:
            return field.value(0.0, z)
        except AccuracyError:
            return INF

    # upper crossing: z = L + e^s, V strictly decreasing in s
    g_hi = lambda s: axis_value(L + math.exp(s))
    s_lo, s_hi = math.log(1e-14 * max(1.0, L)), 0.0
    while g_hi(s_hi) > c:
        s_hi += 1.0
        if math.exp(s_hi) > search_radius:
            raise RangeError(f"no axis crossing above the rod within {search_radius}")
    if g_hi(s_lo) < c:   # enormous level: crossing closer to the rod end
        raise RangeError("level too large for the axis bracket")
    z2 = L + math.exp(_bisect_axis(g_hi, s_lo, s_hi, c))

    if c >= field.v00:
        z1 = 0.0
    else:
        # lower crossing: z = -e^s, V(0, -e^s) strictly decreasing in s
        g_lo = lambda s: axis_value(-math.exp(s))
        s_lo, s_hi = math.log(1e-14), 0.0
        while g_lo(s_hi) > c:
            s_hi += 1.0
            if math.exp(s_hi) > search_radius:
                raise RangeError(f"no axis crossing below the rod within {search_radius}")
        z1 = -math.exp(_bisect_axis(g_lo, s_lo, s_hi, c))
    return z1, z2


def log_radius_at(field, c, z, t_cap=1e300):
    """log of the contour radius: the unique t with V(e^t, z) = c.

    Works arbitrarily deep in the cusp; the returned t can be far below the
    underflow threshold of r itself.
    """
    if c <= 0:
        raise InputError("level must be positive")
    on_rod_side = 0.0 < z <= field.density.length

    def val(t):
        try:
            return field.value_log_r(t, z)
        except AccuracyError:
            # unresolvable peak at tiny r; by monotonicity the value is
            # already above any level once z sits over the rod
            if on_rod_side:
                return INF
            raise

    t_hi = 0.0
    while val(t_hi) > c:
        t_hi += 2.0
        if t_hi > 710.0:
            raise RangeError(f"no contour radius below e^710 at z={z}")
    t_lo = min(t_hi - 2.0, -1.0)
    while val(t_lo) < c:
        t_lo *= 2.0
        if -t_lo > t_cap:
            raise RangeError(f"no contour bracket for level {c} at z={z} "
                             f"within log-radius {t_cap}")

    res_target = 0.5 * CONTOUR_RTOL * max(1.0, c)
    t, fm = t_lo, None
    for _ in range(300):
        t = 0.5 * (t_lo + t_hi)
        fm = val(t) - c
        if fm > 0:
            t_lo = t
        else:
            t_hi = t
        if abs(fm) <= res_target and t_hi - t_lo <= 1e-14 * max(1.0, abs(t)):
            break
    if abs(fm) > CONTOUR_RTOL * max(1.0, c):
        raise AccuracyError(f"contour residual {abs(fm):.2e} at z={z}",
                            best_estimate=math.exp(t) if t > -745 else 0.0)
    return 0.5 * (t_lo + t_hi)


def radius_at(field, c, z):
    """The contour radius r_c(z) > 0 as a plain float.

    Range error when the root lies outside [1e-300, e^710]; use
    log_radius_at for the regime beyond double-precision radii.
    """
    t = log_radius_at(field, c, z)
    if t < math.log(MIN_RADIUS):
        raise RangeError(f"contour radius at z={z} is below {MIN_RADIUS}; "
                         "use log_radius_at")
    return math.exp(t)


@dataclass
class ContourCurve:
    """A traced level set in the meridian half-plane.

    samples holds (z, r) rows with z strictly increasing; the two endpoint
    rows carry r = 0 exactly (the curve closes on the axis) and are skipped
    by the residual bookkeeping.  log_r mirrors the radii in log space so
    the cusp tail stays usable when r itself is subnormal.
    """

    level: float
    z1: float
    z2: float
    samples: np.ndarray
    log_r: np.ndarray = dataclass_field(repr=False)
    residuals: np.ndarray = dataclass_field(repr=False)

    @property
    def interior(self):
        return self.samples[1:-1]

    def max_residual(self):
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def polyline_arcs(pts):
    """Cumulative arc length at each row of an (n, 2) polyline, from 0."""
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    return np.concatenate([[0.0], np.cumsum(seg)])


def _geometric_offsets(field, c, z1, z2, n):
    """Offsets from z1, graded geometrically toward the cusp endpoint but
    floored so every traced radius stays representable."""
    span = z2 - z1
    d_max = span * GRADING_RATIO
    d_min = d_max * GRADING_RATIO ** (n - 1)
    floor = span * 1e-8        # below this offset the root is pure noise
    if c > field.v00:
        # keep log r above the subnormal floor: walk z down until the radius
        # leaves the representable range, then refine the threshold
        deep = lambda d: log_radius_at(field, c, z1 + d) <= LOG_RADIUS_FLOOR
        probe, bad = d_min, None
        while probe < d_max:
            if not deep(probe):
                break
            bad = probe
            probe *= 4.0
        if probe >= d_max:
            raise RangeError("entire cusp tail lies below the radius floor")
        if bad is not None:
            for _ in range(12):
                mid = math.sqrt(bad * probe)
                if deep(mid):
                    bad = mid
                else:
                    probe = mid
        floor = max(floor, probe)
    if d_min < floor:
        d_min = floor
    ratio = (d_min / d_max) ** (1.0 / (n - 1)) if n > 1 else 1.0
    return d_max * ratio ** np.arange(n)


def trace_contour(field, c, n=64, grading="geometric"):
    """Trace the level curve V = c with n interior stations plus endpoints.

    grading "geometric" concentrates stations toward z1 (ratio 0.7) so a
    cusp is resolved over many decades of r; "uniform" spaces stations
    evenly in z; "blended" unions a uniform grid with a geometric tail,
    resolving the cusp without starving the rest of the curve.
    """
    if n < 16:
        raise InputError("need at least 16 interior stations")
    if grading not in ("geometric", "uniform", "blended"):
        raise InputError(f"unknown grading {grading!r}")
    z1, z2 = axis_crossings(field, c)
    if grading == "uniform":
        zs = z1 + (z2 - z1) * np.arange(1, n + 1) / (n + 1)
    elif grading == "geometric":
        zs = z1 + _geometric_offsets(field, c, z1, z2, n)
    else:
        half = n // 2
        uni = (z2 - z1) * np.arange(1, n - half + 1) / (n - half + 1)
        geo = _geometric_offsets(field, c, z1, z2, half)
        zs = z1 + np.unique(np.concatenate([uni, geo]))
    zs = np.sort(zs)
    n = len(zs)

    ts = np.array([log_radius_at(field, c, z) for z in zs])
    rs = np.exp(ts)
    res = np.array([abs(field.value_log_r(t, z) - c) for t, z in zip(ts, zs)])

    samples = np.zeros((n + 2, 2))
    samples[0] = (z1, 0.0)
    samples[-1] = (z2, 0.0)
    samples[1:-1, 0] = zs
    samples[1:-1, 1] = rs
    log_r = np.concatenate([[-math.inf], ts, [-math.inf]])
    return ContourCurve(level=c, z1=z1, z2=z2, samples=samples,
                        log_r=log_r, residuals=res)


@dataclass
class CuspRateReport:
    """Station-by-station check of the cusp band
    e^{-beta/rho(.)} < r_c(z) < e^{-alpha/rho(.)} plus the trend of
    V(e^{-alpha/rho(z)}, z) toward V(0,0) + 2 alpha."""

    level: float
    alpha: float
    beta: float
    delta: float | None
    z_grid: np.ndarray
    log_r: np.ndarray
    lower_exponent: np.ndarray
    upper_exponent: np.ndarray
    band_pass: np.ndarray
    trend_values: np.ndarray
    trend_target: float

    @property
    def all_pass(self):
        return bool(np.all(self.band_pass))


def cusp_rate_bounds(field, c, alpha, beta, delta=None, z_grid=None):
    """Evaluate the cusp band on a z grid.

    delta None selects the Dini variant (band exponents use rho(z)); a delta
    in (0, 1) selects the monotone variant (rho((1 -+ delta) z), requiring
    the density to be monotone near 0).
    """
    v00 = field.v00
    if not (0.0 < alpha < (c - v00) / 2.0 < beta):
        raise InputError(
            f"need 0 < alpha < (c - V(0,0))/2 < beta; got alpha={alpha}, "
            f"beta={beta}, (c - V(0,0))/2 = {(c - v00) / 2.0}")
    if delta is not None:
        if not 0.0 < delta < 1.0:
            raise InputError("delta must lie in (0, 1)")
        probe = np.geomspace(1e-8, 1e-2, 25) * field.density.length
        if np.any(np.diff(field.density(probe)) < 0):
            raise InputError("monotone variant needs a density increasing near 0")
    if z_grid is None:
        z_grid = np.geomspace(1e-1, 1e-3, 7)
    z_grid = np.asarray(z_grid, dtype=float)

    rho = field.density
    if delta is None:
        rho_lo = rho(z_grid)          # Dini variant: both exponents use rho(z)
        rho_hi = rho_lo
    else:
        rho_lo = rho((1.0 - delta) * z_grid)
        rho_hi = rho((1.0 + delta) * z_grid)

    log_r = np.array([log_radius_at(field, c, z) for z in z_grid])
    lower = -beta / rho_lo
    upper = -alpha / rho_hi
    band = (lower < log_r) & (log_r < upper)
    trend = np.array([field.value_log_r(-alpha / rho(z), z) for z in z_grid])
    return CuspRateReport(level=c, alpha=alpha, beta=beta, delta=delta,
                          z_grid=z_grid, log_r=log_r,
                          lower_exponent=lower, upper_exponent=upper,
                          band_pass=band, trend_values=trend,
                          trend_target=v00 + 2.0 * alpha)
