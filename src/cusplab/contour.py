"""Level sets of the rod potential: axis crossings, contour tracing, and the
cusp-rate band checks.

All radial root-finding happens in t = log r.  The cusp of a level c above
V(0,0) spans hundreds of decades in r (r ~ e^{-alpha/rho(z)}), so bisection
in r itself would stall at double-precision resolution, while t stays a
perfectly ordinary float.  Over the rod V is nearly linear in t
(V ~ -2 rho(z) t), so Newton steps in t on V and its slope converge in a
few steps.  There is one root path for every density: log_radius_at solves
any number of (level, station) lanes in one batch of array evaluations of
PotentialField.value_slope_log_r (the closed form of the lebesgue profile,
the panel quadrature of every other density), and trace_contours solves
the stations of all its levels in one such batch.  Where only the side of a
root matters, no root is solved: V falls strictly in r, so the level-c
radius at z lies below e^t exactly when V(e^t, z) < c (radius_below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.optimize import brentq

from .errors import AccuracyError, InputError, RangeError
from .potential import MIN_QUADRATURE_RADIUS

INF = math.inf
EPS = np.finfo(float).eps

# residual target |V - c| for roots on a contour
CONTOUR_RTOL = 1e-10
# smallest radius radius_at() will report as a plain float
MIN_RADIUS = 1e-300
# geometric grading ratio toward the cusp endpoint
GRADING_RATIO = 0.7
# log-radius beyond which exp(t) would be subnormal/zero; traced samples stay above
LOG_RADIUS_FLOOR = -650.0


def _root_in(f, lo, hi):
    """The root of f on the bracket [lo, hi] by Brent's method: bisection's
    worst case, superlinear convergence where f is smooth.  f must change
    sign over the bracket (RangeError otherwise); +inf values count as
    positive.  The ends are evaluated once, for the sign check, and handed
    on to the solver, which stops within 4 eps relative of the root."""
    ends = {lo: f(lo), hi: f(hi)}
    if not min(ends.values()) <= 0.0 <= max(ends.values()):
        raise RangeError(f"bracket [{lo!r}, {hi!r}] has no sign change")
    return brentq(lambda x: ends[x] if x in ends else f(x), lo, hi,
                  xtol=1e-300, rtol=4.0 * EPS)


def axis_crossings(field, c, search_radius=1e9):
    """The z-axis crossings (z1, z2) of the level set V = c.

    z2 > L always exists (V(0, .) falls from infinity to 0 on (L, inf)); z1
    is the crossing below 0 when c < V(0,0) and exactly 0 otherwise.  Both
    are bracketed in log-offset from the rod ends and solved by _root_in.
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
    z2 = L + math.exp(_root_in(lambda s: g_hi(s) - c, s_lo, s_hi))

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
        z1 = -math.exp(_root_in(lambda s: g_lo(s) - c, s_lo, s_hi))
    return z1, z2


def _level_value(field, t, z):
    """V(e^t, z), or +inf where quadrature cannot resolve the peak at tiny r
    over the rod: by monotonicity the value there is above any level."""
    try:
        return field.value_log_r(t, z)
    except AccuracyError:
        if 0.0 < z <= field.density.length:
            return INF
        raise


def log_radius_at(field, c, z, t_cap=1e300):
    """log of the contour radius: the unique t with V(e^t, z) = c.

    Levels c and stations z are arrays broadcast against each other, one
    root per (level, station) lane; the result is a float only when both
    are scalars.  Works arbitrarily deep in the cusp; the returned t can be
    far below the underflow threshold of r itself.

    Every lane brackets its root by stepping t up from 0 and then
    doubling it down from -1.  All lanes are solved together: Newton
    steps in t on V and its slope, bisecting whenever a step leaves the
    bracket, does not halve the previous step or has no finite slope.  A
    lane is done once |V - c| <= CONTOUR_RTOL max(1, c) / 2 and either
    the Newton step (the bracket, without a finite slope) is below
    1e-14 max(1, |t|) or Newton has stalled after a step: |V - c| did not
    halve or the next step is refused.  That happens only at the rounding
    floor of V, where the steps are noise (a root of slope dV/dt is then
    known to about 1e-16 max(1, c) / |dV/dt|).  Each lane keeps its own
    level, bracket and Newton state and its arithmetic is elementwise, so
    its root is the one it finds alone, bit for bit.  Where quadrature
    cannot resolve V over the rod (r below MIN_QUADRATURE_RADIUS) it reads
    +inf, above every level, as V is there.  A lane whose root lies below
    that floor sees its bracket collapse onto the floor with the residual
    off target; it is retired at once with an AccuracyError that names the
    floor.  A failing lane raises its RangeError or AccuracyError; with
    several, the first lane in (level, station) order does.
    """
    cs, zs = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(z, dtype=float))
    shape = cs.shape
    cs, zs = cs.ravel(), zs.ravel()
    if not np.all(cs > 0):
        raise InputError("level must be positive")
    n = len(zs)
    errors = {}

    def values(lanes, t):
        return field.value_slope_log_r(t, zs[lanes], strict=False)

    # bracket: t_hi steps up until V(t_hi) <= c, t_lo doubles down until
    # V(t_lo) >= c
    t_hi = np.zeros(n)
    lanes = np.arange(n)
    while len(lanes):
        lanes = lanes[values(lanes, t_hi[lanes])[0] > cs[lanes]]
        t_hi[lanes] += 2.0
        for k in lanes[t_hi[lanes] > 710.0]:
            errors[k] = RangeError(f"no contour radius below e^710 at z={zs[k]}")
        lanes = lanes[t_hi[lanes] <= 710.0]
    t_lo = np.minimum(t_hi - 2.0, -1.0)
    lanes = np.array([k for k in range(n) if k not in errors], dtype=int)
    while len(lanes):
        lanes = lanes[values(lanes, t_lo[lanes])[0] < cs[lanes]]
        t_lo[lanes] *= 2.0
        for k in lanes[-t_lo[lanes] > t_cap]:
            errors[k] = RangeError(f"no contour bracket for level {cs[k]} at z={zs[k]} "
                                   f"within log-radius {t_cap}")
        lanes = lanes[-t_lo[lanes] <= t_cap]

    out = np.zeros(n)
    lanes = np.array([k for k in range(n) if k not in errors], dtype=int)
    c = cs[lanes]
    res_accept = CONTOUR_RTOL * np.maximum(1.0, c)
    lo, hi = t_lo[lanes], t_hi[lanes]
    t = t_next = 0.5 * (lo + hi)
    f = np.zeros(len(lanes))
    last = hi - lo                       # length of the previous step
    f_last = np.full(len(lanes), INF)    # |V - c| before a Newton step
    for _ in range(300):
        if not len(lanes):
            break
        t = t_next
        v, slope = values(lanes, t)
        f = v - c
        up = f > 0
        lo = np.where(up, t, lo)
        hi = np.where(up, hi, t)
        with np.errstate(all="ignore"):
            step = -f / slope
            t_new = t + step
        finite = np.isfinite(step)
        take = finite & (np.abs(step) <= 0.5 * last) & (lo < t_new) & (t_new < hi)
        af = np.abs(f)
        stalled = (f_last < INF) & ((af >= 0.5 * f_last) | ~take)
        tol = 1e-14 * np.maximum(1.0, np.abs(t))
        collapsed = hi - lo <= tol
        done = (af <= 0.5 * res_accept) & np.where(
            finite, (np.abs(step) <= tol) | stalled, collapsed)
        out[lanes[done]] = t[done]
        # V jumps across a collapsed bracket: the root is below the floor
        floored = collapsed & (af > res_accept)
        if floored.any():
            for k, tk, fk in zip(lanes[floored], t[floored], af[floored]):
                errors[k] = AccuracyError(
                    f"no contour root for level {cs[k]} at z={zs[k]}: its bracket "
                    f"collapsed at r = {math.exp(tk):.3e} with residual {fk:.2e}; "
                    f"over the rod quadrature does not resolve V below "
                    f"MIN_QUADRATURE_RADIUS = {MIN_QUADRATURE_RADIUS:g}",
                    best_estimate=math.exp(tk) if tk > -745 else 0.0)
            done |= floored
        t_next = np.where(take, t_new, 0.5 * (lo + hi))
        f_last = np.where(take, af, INF)
        last = np.abs(t_next - t)
        if done.any():          # drop finished lanes
            keep = ~done
            lanes, c, res_accept, lo, hi, t, f, t_next, f_last, last = (
                lanes[keep], c[keep], res_accept[keep], lo[keep], hi[keep], t[keep],
                f[keep], t_next[keep], f_last[keep], last[keep])
    # lanes still open after 300 steps keep their last point if its
    # residual is on target
    for k, tk, fk, acc in zip(lanes, t, f, res_accept):
        if abs(fk) > acc:
            errors[k] = AccuracyError(f"contour residual {abs(fk):.2e} at z={zs[k]}",
                                      best_estimate=math.exp(tk) if tk > -745 else 0.0)
        out[k] = tk
    if errors:
        raise errors[min(errors)]
    return float(out[0]) if not shape else out.reshape(shape)


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


def radius_below(field, c, t, z):
    """True when the level-c contour radius at z lies below e^t, i.e.
    log_radius_at(field, c, z) < t, told by one evaluation V(e^t, z) < c
    (V falls strictly in r) instead of a root."""
    return _level_value(field, t, z) < c


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
        deep = lambda d: radius_below(field, c, LOG_RADIUS_FLOOR, z1 + d)
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


def _stations(field, c, z1, z2, n, grading):
    """Sorted interior station heights of the level-c curve on (z1, z2)."""
    if grading == "uniform":
        zs = z1 + (z2 - z1) * np.arange(1, n + 1) / (n + 1)
    elif grading == "geometric":
        zs = z1 + _geometric_offsets(field, c, z1, z2, n)
    else:
        half = n // 2
        uni = (z2 - z1) * np.arange(1, n - half + 1) / (n - half + 1)
        geo = _geometric_offsets(field, c, z1, z2, half)
        zs = z1 + np.unique(np.concatenate([uni, geo]))
    return np.sort(zs)


def trace_contours(field, levels, n=64, grading="geometric"):
    """Trace the level curves V = c of every c in levels, each with n
    interior stations plus endpoints; one ContourCurve per level, in order.

    grading "geometric" concentrates stations toward z1 (ratio 0.7) so a
    cusp is resolved over many decades of r; "uniform" spaces stations
    evenly in z; "blended" unions a uniform grid with a geometric tail,
    resolving the cusp without starving the rest of the curve.  Axis
    crossings and stations are found level by level; the radii of all
    stations of all levels are solved in one log_radius_at batch.
    """
    if n < 16:
        raise InputError("need at least 16 interior stations")
    if grading not in ("geometric", "uniform", "blended"):
        raise InputError(f"unknown grading {grading!r}")
    levels = [float(c) for c in levels]
    if not levels:
        return []
    ends, stations = [], []
    for c in levels:
        z1, z2 = axis_crossings(field, c)
        ends.append((z1, z2))
        stations.append(_stations(field, c, z1, z2, n, grading))
    sizes = [len(zs) for zs in stations]
    cs = np.repeat(levels, sizes)
    zs = np.concatenate(stations)
    ts = log_radius_at(field, cs, zs)
    res = np.abs(field.value_slope_log_r(ts, zs)[0] - cs)

    curves = []
    splits = np.cumsum(sizes)[:-1]
    for c, (z1, z2), z, t, r in zip(levels, ends, stations,
                                    np.split(ts, splits), np.split(res, splits)):
        samples = np.zeros((len(z) + 2, 2))
        samples[0] = (z1, 0.0)
        samples[-1] = (z2, 0.0)
        samples[1:-1, 0] = z
        samples[1:-1, 1] = np.exp(t)
        log_r = np.concatenate([[-math.inf], t, [-math.inf]])
        curves.append(ContourCurve(level=c, z1=z1, z2=z2, samples=samples,
                                   log_r=log_r, residuals=r))
    return curves


def trace_contour(field, c, n=64, grading="geometric"):
    """Trace the one level curve V = c (see trace_contours)."""
    return trace_contours(field, [c], n, grading)[0]


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

    log_r = log_radius_at(field, c, z_grid)
    lower = -beta / rho_lo
    upper = -alpha / rho_hi
    band = (lower < log_r) & (log_r < upper)
    trend = field.value_slope_log_r(-alpha / rho(z_grid), z_grid)[0]
    return CuspRateReport(level=c, alpha=alpha, beta=beta, delta=delta,
                          z_grid=z_grid, log_r=log_r,
                          lower_exponent=lower, upper_exponent=upper,
                          band_pass=band, trend_values=trend,
                          trend_target=v00 + 2.0 * alpha)
