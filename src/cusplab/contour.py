"""Level sets of the rod potential: axis crossings, contour tracing, and the
cusp-rate band checks.

All radial root-finding happens in t = log r.  The cusp of a level c above
V(0,0) spans hundreds of decades in r (r ~ e^{-alpha/rho(z)}), so bisection
in r itself would stall at double-precision resolution, while t stays a
perfectly ordinary float.  Over the rod V is nearly linear in t
(V ~ -2 rho(z) t), and off it, next to the axis, V(0, z) - V grows like
e^{2t}; a step on the matching model of V and its slope lands close to
the root from far away, so each lane brackets its root by jumping past
it along that step and then converges by Newton steps from the better
bracket end, in a few evaluations.  There is one root path for every
density: log_radius_at solves any number of (level, station) lanes in
one batch of array evaluations of PotentialField.value_slope_log_r (the
closed form of the lebesgue profile, the panel quadrature of every other
density, continued linearly in t next to the rod), and trace_contours
solves the stations of all its levels in one such batch, whose accepted
residuals it keeps.  The inverse question, the height at which a cusp
thins to a given radius, is one bracketed root in z (thinning_height):
it places the trace's radius floor and every cusp cut of the mesh.

The root loop is one array path for any number of lanes, and at one lane
its cost is numpy's fixed cost per call, so it makes few calls.  The rule
here and in the field's evaluations: flags are tested with np.count_nonzero
(not .any(), .min() or .max(), which also read a nan lane as no flag), and
index lists come from .nonzero()[0].  Finished roots are stored only on the
evaluations that finish one, and a step in which every open lane still
seeks its bracket runs on the whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .errors import AccuracyError, InputError, RangeError

INF = math.inf
EPS = float(np.finfo(float).eps)

# residual target |V - c| for roots on a contour
CONTOUR_RTOL = 1e-10
# a root's bracket reaches down in log-radius no further than -BRACKET_DEPTH
BRACKET_DEPTH = 1e300
# smallest radius radius_at() will report as a plain float
MIN_RADIUS = 1e-300
# geometric grading ratio toward the cusp endpoint
GRADING_RATIO = 0.7
# log-radius beyond which exp(t) would be subnormal/zero; traced samples stay above
LOG_RADIUS_FLOOR = -650.0
# farthest offset from the rod ends at which axis_crossings looks for a crossing
AXIS_SEARCH_RADIUS = 1e9


def _root_in(f, lo, hi):
    """The root of f on the bracket [lo, hi] by Brent's method (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4):
    bisection's worst case, superlinear convergence where f is smooth.  f
    must change sign over the bracket (RangeError otherwise, a nan end
    included).  The iteration is that of SciPy's brentq, step for step and
    bit for bit, with xtol = 1e-300, rtol = 4 eps and at most 100 steps:
    it stops once half the bracket is below (xtol + rtol |x|) / 2 and
    returns the end with the smaller |f|.  AccuracyError when f reads nan
    inside the bracket or the steps run out."""
    x_pre, x_cur = float(lo), float(hi)
    f_pre, f_cur = float(f(x_pre)), float(f(x_cur))
    if not (f_pre <= 0.0 <= f_cur or f_cur <= 0.0 <= f_pre):
        raise RangeError(f"bracket [{lo!r}, {hi!r}] has no sign change")
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    xtol, rtol = 1e-300, 4.0 * EPS
    for _ in range(100):
        # x_blk is the bracket end opposite x_cur, set on the first pass;
        # s_cur is the last step and s_pre the one before it
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = INF                      # bisect unless a short step is found
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            try:
                if x_pre == x_blk:       # secant
                    s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
                else:                    # inverse quadratic interpolation
                    d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                    d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                    s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) \
                        / (d_blk * d_pre * (f_blk - f_pre))
            except ZeroDivisionError:    # an infinite or nan step: bisect
                pass
        if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = float(f(x_cur))
        if math.isnan(f_cur):
            raise AccuracyError(f"nan at x={x_cur!r} inside the bracket "
                                f"[{lo!r}, {hi!r}]", best_estimate=x_pre)
    raise AccuracyError(f"no convergence in 100 steps on [{lo!r}, {hi!r}]",
                        best_estimate=x_cur)


def axis_crossings(field, c):
    """The z-axis crossings (z1, z2) of the level set V = c.

    z2 > L always exists (V(0, .) falls from infinity to 0 on (L, inf)); z1
    is the crossing below 0 when c < V(0,0) and exactly 0 otherwise.  Both
    are bracketed in log-offset from the rod ends and solved by _root_in.
    """
    if c <= 0:
        raise InputError("level must be positive")
    L = field.density.length

    def log_offset(g, s_lo, side):
        # the root of g = c, g strictly decreasing in s: walk the upper end
        # up from 0 by unit steps until g falls to c; an enormous level has
        # its crossing below s_lo and _root_in finds no sign change
        s_hi = 0.0
        while g(s_hi) > c:
            s_hi += 1.0
            if math.exp(s_hi) > AXIS_SEARCH_RADIUS:
                raise RangeError(f"no axis crossing {side} the rod within "
                                 f"{AXIS_SEARCH_RADIUS}")
        return _root_in(lambda s: g(s) - c, s_lo, s_hi)

    # upper crossing z = L + e^s, lower crossing z = -e^s
    z2 = L + math.exp(log_offset(lambda s: field.value(0.0, L + math.exp(s)),
                                 math.log(1e-14 * max(1.0, L)), "above"))
    if c >= field.v00:
        return 0.0, z2
    z1 = -math.exp(log_offset(lambda s: field.value(0.0, -math.exp(s)),
                              math.log(1e-14), "below"))
    return z1, z2


def log_radius_at(field, c, z):
    """log of the contour radius: the unique t with V(e^t, z) = c.

    Levels c and stations z are arrays broadcast against each other, one
    root per (level, station) lane; the result is a float only when both
    are scalars.  Works arbitrarily deep in the cusp of every density; the
    returned t can be far below the underflow threshold of r itself.

    Every lane starts at t = 0 and steps toward its root by the model
    step of V and its slope there: the Newton step Delta, as V is nearly
    linear in t next to the rod, except off the rod at radii below the
    station's distance d to it (t < log d), where V(0, z) - V ~ e^{2t}
    and the step is the root log1p(2 Delta) / 2 of that r^2 model (the
    Newton step where the model has no root, Delta <= -1/2).  While its
    root is not bracketed, a lane jumps twice the step, up by at most 2
    (by 2 without a positive step), down by any length (doubling
    min(t, -1) without a negative step).  Once the root is bracketed,
    Newton starts at the model root of the bracket end with the smaller
    residual and takes the model step each time, bisecting whenever a
    step leaves the bracket, does not halve the previous step or is not
    finite.  A lane is done once |V - c| <= CONTOUR_RTOL max(1, c) / 2
    and either the step (the bracket, without a finite step) is below
    1e-14 max(1, |t|) or Newton has stalled after a step: |V - c| did not
    halve or the next step is refused.  That happens only at the rounding
    floor of V, where the steps are noise (a root of slope dV/dt is then
    known to about 1e-16 max(1, c) / |dV/dt|).  Each lane keeps its own
    level, bracket and Newton state and its arithmetic is elementwise, so
    its root is the one it finds alone, bit for bit.  A level at or below
    CONTOUR_RTOL, where the residual target is at least half the level, or
    a station that is not finite raises InputError before any evaluation.
    A radius beyond the field's range makes the field raise its RangeError
    while a lane steps up, for the whole batch.  Otherwise a failing lane
    raises its RangeError (no bracket above t = -BRACKET_DEPTH) or
    AccuracyError (its residual is off target, or nan, after 300
    evaluations); with several, the first lane in (level, station) order
    does.
    """
    cs, zs = np.asarray(c, dtype=float), np.asarray(z, dtype=float)
    if cs.shape != zs.shape:
        cs, zs = np.broadcast_arrays(cs, zs)
    ts = _log_radius_residual(field, cs.ravel(), zs.ravel())[0]
    return float(ts[0]) if not cs.shape else ts.reshape(cs.shape)


def _log_radius_residual(field, cs, zs):
    """log_radius_at on 1-d arrays of levels and stations: the roots t and
    the residuals |V(e^t, z) - c| of the evaluations that accepted them."""
    n = len(zs)
    if np.count_nonzero(cs > CONTOUR_RTOL) < n:
        raise InputError(f"level must be positive, above the residual target "
                         f"CONTOUR_RTOL = {CONTOUR_RTOL}")
    finite = np.isfinite(zs)
    if np.count_nonzero(finite) < n:
        raise InputError(f"station height must be finite, not {zs[~finite][0]}")
    out, res = np.zeros(n), np.zeros(n)
    if not n:
        return out, res
    errors = {}
    # per open lane: the next point to evaluate, t_next; the bracket
    # lo < root <= hi, V(lo) > c >= V(hi), infinite until found; the
    # residual and model root at the last point evaluated, the other end
    # when a bracket closes at the next one; the length of the previous
    # Newton step (inf until the bracket closes) and |V - c| before it
    # (inf unless it was a Newton step)
    lanes, z, c = np.arange(n), zs, cs
    target = 0.5 * CONTOUR_RTOL * np.maximum(1.0, c)
    t = t_next = np.zeros(n)
    lo, hi = np.full(n, -INF), np.full(n, INF)
    af_prev = root_prev = last = f_last = np.full(n, INF)
    L = field.density.length
    # what the field's evaluations need of the open lanes' heights, and
    # each lane's panel layout (bit for bit what an evaluation builds);
    # None where the field needs none
    state = field._lane_state(zs)
    # steps on a zero or infinite slope read inf or nan
    with np.errstate(all="ignore"):
        # log of the station's distance to the rod, -inf over the rod
        log_d = np.where((z > 0.0) & (z <= L), -INF, np.log(np.maximum(-z, z - L)))
        for _ in range(300):
            t = t_next
            v, slope = field.value_slope_log_r(t, z, _lanes=state)
            f = v - c
            af = np.abs(f)
            step = -f / slope
            r2 = t < log_d
            if np.count_nonzero(r2):
                r2 &= step > -0.5
                step[r2] = 0.5 * np.log1p(2.0 * step[r2])
            root = t + step
            up = f > 0
            lo, hi = np.where(up, t, lo), np.where(up, hi, t)
            size = np.abs(step)
            tol = 1e-14 * np.maximum(1.0, np.abs(t))
            # the lanes that had no closed bracket before this evaluation;
            # only the others take Newton steps, which may stall
            seeking = (last == INF).nonzero()[0]
            newton = len(seeking) < len(lanes)
            if newton:
                take = (size <= 0.5 * last) & (lo < root) & (root < hi)
                stalled = (f_last < INF) & ((af >= 0.5 * f_last) | ~take)
                close = (size <= tol) | stalled
                t_next = np.where(take, root, 0.5 * (lo + hi))
                last = np.abs(t_next - t)
                f_last = np.where(take, af, INF)
            else:
                close = size <= tol
            done = (af <= target) & np.where(np.isfinite(step), close, hi - lo <= tol)
            if len(seeking):
                # a bracket closed at t starts Newton at the model root of the
                # end with the smaller residual; an open one jumps on.  When
                # every lane seeks, the step runs on the whole arrays
                at = seeking if newton else slice(None)
                s_lo, s_hi, s_t, s_step = lo[at], hi[at], t[at], step[at]
                start = np.where(af_prev[at] < af[at], root_prev[at], root[at])
                start = np.where((s_lo < start) & (start < s_hi), start, 0.5 * (s_lo + s_hi))
                jump = np.where(up[at],
                                s_t + np.where(s_step > 0, np.minimum(2.0 * s_step, 2.0), 2.0),
                                np.where(s_step < 0, s_t + 2.0 * s_step,
                                         2.0 * np.minimum(s_t, -1.0)))
                is_open = np.isinf(s_lo) | np.isinf(s_hi)
                if newton:
                    t_next[at] = np.where(is_open, jump, start)
                    last[at] = s_hi - s_lo
                    f_last[at] = INF
                else:
                    t_next = np.where(is_open, jump, start)
                    last = s_hi - s_lo
                    f_last = np.full(len(lanes), INF)
                lost = is_open & (jump < -BRACKET_DEPTH) & ~done[at]
                if np.count_nonzero(lost):
                    lost = seeking[lost]
                    for k in lanes[lost]:
                        errors[k] = RangeError(f"no contour bracket for level {cs[k]} at "
                                               f"z={zs[k]} within log-radius {BRACKET_DEPTH}")
                    done[lost] = True
            af_prev, root_prev = af, root
            n_done = np.count_nonzero(done)
            if n_done == len(lanes):
                out[lanes], res[lanes] = t, af
                break
            if n_done:              # store and drop finished lanes
                out[lanes[done]], res[lanes[done]] = t[done], af[done]
                keep = ~done
                if state is not None:
                    state.drop(keep)
                (lanes, z, c, target, log_d, t, t_next, lo, hi, af_prev, root_prev, last,
                 f_last) = (a[keep] for a in (lanes, z, c, target, log_d, t, t_next, lo, hi,
                                              af_prev, root_prev, last, f_last))
        else:
            # lanes open after 300 evaluations keep their last point if its
            # residual is on target (a nan residual is not)
            for k, tk, fk, half in zip(lanes, t, af_prev, target):
                if not fk <= 2.0 * half:
                    errors[k] = AccuracyError(f"contour residual {fk:.2e} at z={zs[k]}",
                                              best_estimate=math.exp(tk) if tk > -745 else 0.0)
                out[k], res[k] = tk, fk
    if errors:
        raise errors[min(errors)]
    return out, res


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


def thinning_height(field, c, t, lo, hi):
    """The height where the level-c curve thins to radius e^t: the root in
    z of V(e^t, z) = c on the bracket [lo, hi], by _root_in (RangeError
    unless V - c changes sign over it).  t may lie far below the underflow
    threshold of e^t."""
    return _root_in(lambda z: field.value_log_r(t, z) - c, lo, hi)


def _read_only(a, dtype=float):
    """A read-only copy of the array a."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _rebuild(value):
    """__reduce__ of a frozen dataclass: a copy or pickle is rebuilt through
    __init__ from the fields it takes, so it is frozen again and carries no
    private state."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value)
                              if f.init)


@dataclass(frozen=True)
class ContourCurve:
    """A traced level set in the meridian half-plane, a frozen value whose
    arrays are read-only copies.

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

    def __post_init__(self):
        for name in ("samples", "log_r", "residuals"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    __reduce__ = _rebuild

    @property
    def interior(self):
        return self.samples[1:-1]

    def max_residual(self):
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def polyline_arcs(pts):
    """Cumulative arc length at each row of an (n, 2) polyline, from 0, or
    of each polyline of an (m, n, 2) stack, as an (m, n) array."""
    step = np.diff(pts, axis=-2)
    arc = np.cumsum(np.hypot(step[..., 0], step[..., 1]), axis=-1)
    return np.concatenate([np.zeros(arc.shape[:-1] + (1,)), arc], axis=-1)


def _geometric_offsets(field, c, z1, z2, n):
    """Offsets from z1, graded geometrically toward the cusp endpoint but
    floored so every traced radius stays representable: at the radius
    floor, the thinning height of e^LOG_RADIUS_FLOOR bracketed by the
    ladder's own ends (RangeError when the top end lies below it too)."""
    span = z2 - z1
    d_max = span * GRADING_RATIO
    d_min = d_max * GRADING_RATIO ** (n - 1)
    floor = span * 1e-8        # below this offset the root is pure noise
    if c > field.v00 and field.value_log_r(LOG_RADIUS_FLOOR, z1 + d_min) < c:
        # the bottom end lies below the floor: no sign change means the top does too
        try:
            z = thinning_height(field, c, LOG_RADIUS_FLOOR, z1 + d_min, z1 + d_max)
        except RangeError:
            raise RangeError("entire cusp tail lies below the radius floor") from None
        floor = max(floor, z - z1)
    d_min = max(d_min, floor)
    ratio = (d_min / d_max) ** (1.0 / (n - 1)) if n > 1 else 1.0
    return d_max * ratio ** np.arange(n)


def _stations(field, c, z1, z2, n, grading):
    """Sorted interior station heights of the level-c curve on (z1, z2)."""
    if grading == "geometric":
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
    cusp is resolved over many decades of r (the mesh rails use it);
    "blended" unions a uniform grid with a geometric tail, resolving the
    cusp without starving the rest of the curve (the section, the contour
    command and the figures use it).  Axis crossings and stations are
    found level by level; the radii of all stations of all levels are
    solved in one log_radius_at batch.
    """
    if n < 16:
        raise InputError("need at least 16 interior stations")
    if grading not in ("geometric", "blended"):
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
    ts, res = _log_radius_residual(field, cs, zs)

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
