"""The rod potential V(r, z), its closed forms and its panel quadrature.

V(r, z) = integral_0^L rho(zeta) / sqrt((zeta - z)^2 + r^2) dzeta in meridian
coordinates (r = distance to the axis).  PotentialField has a scalar door
(value, value_log_r, value_by_quadrature), which reads +inf on the rod
(r = 0, 0 < z <= L), and an array door (value_slope_log_r), which raises
DomainError there; both raise RangeError where e^t overflows.  For the linear
density on [0, 1] ("lebesgue") V has a closed form in t = log r and z.  Every
density, that one included, also has one quadrature rule: Gauss rules of 20
and 28 nodes on panels graded geometrically (ratio 0.15) toward the split
point zeta = clamp(z, 0, L), down to the distance of (r, z) from it, and for
power densities toward zeta = 0 as well, where the panel touching 0 takes the
Gauss-Jacobi rule of the weight zeta^p; tabulated densities split at their
knots.  The 28-node sum is the value, its distance to the 20-node sum the
error estimate.  Panel ends are offsets from the split point, so zeta - z
does not cancel at small radii; the rule raises RangeError where the peak
width is below MIN_PEAK_WIDTH (about 4.5e-162, where its square underflows)
or beyond MAX_DISTANCE.  Over the rod (0 < z < L), below
the switch radius r_sw = NEAR_ROD min(z, L - z), V is linear in t = log r to
within about 0.05 (r/z)^2 relative, with slope -2 rho(z): there the rule runs
at r_sw and V continues as V(r_sw) - 2 rho(z) (t - log r_sw), which holds
also where e^t underflows.  The panel layout (ends, nodes, rules and
density values) depends only on z and on the ladder depth of the peak
width, the number of grading steps from L down to it.  A contour root batch
prepares its stations once, in a lane state that holds the arrays that
depend only on the heights and each station's layout under its own ladder
depth; an evaluation builds only the layouts of the stations whose depth
changed, which gives the same bits as building every layout again.

The closed forms are evaluated in log-space wherever a difference
sqrt(w^2 + r^2) - w with w > 0 would cancel: the identity

    log(sqrt(w^2 + r^2) - w) = 2 log r - log(sqrt(w^2 + r^2) + w)

keeps radii down to (and below) 1e-300 exact, which the cusp work needs.
The exact form sums terms of size 1 to s into V ~ 1/2s, so its relative
error grows like s^2 (3e-14 at s = |(r, z - 2/3)| = 8, 5e-11 at s = 300);
beyond MULTIPOLE_RADIUS the lebesgue V is summed from its multipole
expansion instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .density import LEBESGUE, POWER, TABULATED, lebesgue_profile
from .errors import AccuracyError, DomainError, InputError, RangeError

INF = math.inf
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
MAX_LOG_RADIUS = math.log(np.finfo(float).max)   # e^t overflows above it

# over the rod V is continued linearly in log r below NEAR_ROD min(z, L - z)
NEAR_ROD = 1e-12
# panel rule: the HIGH-node sum is the value, |HIGH - LOW| its error estimate
LOW_NODES, HIGH_NODES = 20, 28
# length ratio of neighbouring panels graded toward a peak or a singularity
PANEL_GRADING = 0.15
# beyond this distance to the rod the quadrature's slope terms
# rho / q^(3/2) underflow (and beyond about 1e154 so do V's, as q overflows)
MAX_DISTANCE = float(np.finfo(float).max) ** (1.0 / 3.0)
# below this peak width the quadrature's squared distance q = u^2 + r^2 to a
# node may round to 0: q >= max(u^2, r^2) >= peak^2 / 2 = 2^-1073
MIN_PEAK_WIDTH = 2.0 ** -536
# lanes per array pass of the quadrature, which bounds its scratch memory
QUADRATURE_CHUNK = 256
# distance from (2/3, 0) beyond which the lebesgue V is a multipole sum:
# at 8 the exact form is good to 3e-14 and 14 multipole terms to 3e-18
MULTIPOLE_RADIUS = 8.0


def _multipole_moments(n_terms):
    """M_n = integral_0^1 zeta (zeta - 2/3)^n dzeta, the moments of the
    lebesgue rod about its centre of mass."""
    a, b = Fraction(1, 3), Fraction(-2, 3)
    return tuple(float((a ** (n + 2) - b ** (n + 2)) / (n + 2)
                       + Fraction(2, 3) * (a ** (n + 1) - b ** (n + 1)) / (n + 1))
                 for n in range(n_terms))


_MOMENTS = _multipole_moments(14)


def _lebesgue_multipole(r, z, s):
    """V and dV/dt of rho(z) = z on [0, 1] for s = |(r, z - 2/3)| at or
    beyond MULTIPOLE_RADIUS, on floats or arrays alike (only + - * /):
    V = sum_n M_n P_n(u) / s^(n+1) and, with r d/dr,
    dV/dt = -(r/s)^2 sum_n M_n P'_(n+1)(u) / s^(n+1), u = (z - 2/3)/s."""
    u = (z - 2.0 / 3.0) / s
    inv = 1.0 / s
    scale = inv
    p_prev, p, dp = 0.0, 1.0, 1.0        # P_(n-1), P_n, P'_(n+1)
    v = g = 0.0
    for n, m in enumerate(_MOMENTS):
        v = v + m * p * scale
        g = g + m * dp * scale
        p_prev, p = p, ((2 * n + 1) * u * p - n * p_prev) / (n + 1)
        dp = u * dp + (n + 2) * p
        scale = scale * inv
    return v, -(r * inv) ** 2 * g


def lebesgue_closed_form(t, z):
    """V(e^t, z) of rho(z) = z on [0, 1] at log-radius t <= MAX_LOG_RADIUS,
    which may lie far below the underflow threshold of e^t; +inf on the rod
    (t = -inf, 0 < z <= 1)."""
    r = math.exp(t) if t > -745 else 0.0       # underflow to 0 is harmless here
    # far field: the exact formula cancels its leading terms to O(1/s)
    s = math.hypot(r, z - 2.0 / 3.0)
    if s > MULTIPOLE_RADIUS:
        return _lebesgue_multipole(r, z, s)[0]
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
    arrays of log-radius t <= MAX_LOG_RADIUS and height z (broadcast
    against each other), off the rod.

    Same branches, multipole and underflow handling as
    lebesgue_closed_form.  With
    a = |(r, z - 1)| and b = |(r, z)| the slope is
    r^2 (1/a - 1/b) - z ((1 - z)/a + z/b); both terms cancel to O(r^2) off
    the rod (z < 0 or z > 1), so there the r^2 is taken out exactly:
    -r^2 (2z - 1) / (a (a + b) (z a + (z - 1) b)).
    """
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    if t.shape != z.shape:
        t, z = np.broadcast_arrays(t, z)
    with np.errstate(all="ignore"):
        r = np.where(t > -745.0, np.exp(t), 0.0)
        a = np.hypot(1.0 - z, r)
        b = np.hypot(z, r)
        r2 = r * r
        # 0 <= z <= 1 (the ends are patched below)
        diff = np.log(a + 1.0 - z) + np.log(b + z) - 2.0 * t
        slope = r2 * (2.0 * z - 1.0) / (a * b * (a + b)) - z * ((1.0 - z) / a + z / b)
        off = (z < 0.0) | (z > 1.0)
        if np.count_nonzero(off):
            diff = np.where(z > 1.0, np.log((b + z) / (a + z - 1.0)),
                            np.where(z < 0.0, np.log((a + 1.0 - z) / (b - z)), diff))
            slope = np.where(off, -r2 * (2.0 * z - 1.0)
                             / (a * (a + b) * (z * a + (z - 1.0) * b)), slope)
        ends = (z == 0.0) | (z == 1.0)
        if np.count_nonzero(ends):
            diff = np.where(z == 1.0, np.log(b + 1.0) - t, diff)
            slope = np.where(z == 1.0, -1.0 / (r + b),
                             np.where(z == 0.0, -r / (a * (a + r)), slope))
        v = np.where(z == 0.0, a - r, z * diff + a - b)
        s = np.hypot(r, z - 2.0 / 3.0)
        far = s > MULTIPOLE_RADIUS
        if np.count_nonzero(far):
            v, slope = np.array(v), np.array(slope)
            v[far], slope[far] = _lebesgue_multipole(r[far], z[far], s[far])
    return v, slope


def _gauss_jacobi(n, beta):
    """Nodes and weights of the n-point Gauss rule of the weight (1 + x)^beta
    on [-1, 1]: the eigenvalues of its Jacobi matrix by Sturm-sequence
    bisection, the weights as Christoffel numbers 1 / sum_k p_k(x)^2 of the
    orthonormal polynomials.  No LAPACK call, whose code pages would cost
    about 1 MB of resident memory."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(k == 0, beta / (beta + 2.0), beta * beta / (s * (s + 2.0)))
    kk, ss = k[1:], s[1:]
    b = np.sqrt(4.0 * kk * kk * (kk + beta) ** 2 / (ss * ss * (ss + 1.0) * (ss - 1.0)))
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    for _ in range(60):
        x = 0.5 * (lo + hi)
        below = np.zeros(n, dtype=int)     # eigenvalues below x: negative pivots
        d = a[0] - x
        for j in range(n):
            if j:
                d = a[j] - x - b[j - 1] ** 2 / d
            d = np.where(d == 0.0, -1e-300, d)
            below += d < 0.0
        up = below > k                     # node k lies below x
        hi, lo = np.where(up, x, hi), np.where(up, lo, x)
    x = 0.5 * (lo + hi)
    p_prev, p = 0.0, np.full(n, math.sqrt((beta + 1.0) / 2.0 ** (beta + 1.0)))
    total = p * p
    for j in range(n - 1):
        p_prev, p = p, ((x - a[j]) * p - (b[j - 1] * p_prev if j else 0.0)) / b[j]
        total += p * p
    return x, 1.0 / total


@functools.lru_cache(maxsize=None)
def _gauss_rules(beta=0.0):
    """The points 1 + x of the nodes x of the LOW_NODES- and HIGH_NODES-point
    Gauss rules of the weight (1 + x)^beta on [-1, 1], side by side, and the
    weights of each rule."""
    x_lo, w_lo = _gauss_jacobi(LOW_NODES, beta)
    x_hi, w_hi = _gauss_jacobi(HIGH_NODES, beta)
    return 1.0 + np.concatenate([x_lo, x_hi]), w_lo, w_hi


def _out_of_range(x, lo, hi, r, z, why):
    """RangeError naming the first lane (r, z) whose x does not lie in
    [lo, hi] (nan included), if any."""
    inside = (lo <= x) & (x <= hi)
    if np.count_nonzero(inside) < len(x):
        k = int(inside.argmin())
        raise RangeError(f"V({r[k]}, {z[k]}): {why}")


def _ladder_depth(top, depth):
    """The ladder depths k: the fewest grading steps from top whose last
    point top * PANEL_GRADING^k lies at or below depth (0 at or above top)."""
    return np.maximum(np.ceil(np.log(top / depth) / -math.log(PANEL_GRADING)), 0.0)


def _graded_offsets(top, k):
    """Rows of the points top * PANEL_GRADING^j, j = 1, 2, ..., each row
    ending at its ladder depth k (nan beyond)."""
    ks = np.arange(1, int(k.max()) + 1)
    return np.where(ks <= k[:, None], top * PANEL_GRADING ** ks, np.nan)


class _LaneState:
    """The lanes of a batch at fixed heights z (1-d): what depends only on
    the heights, computed once, and each lane's kept panel layout.

    Per lane: the split point s = clamp(z, 0, L), the offset z - s, the
    switch radius r_sw = NEAR_ROD min(z, L - z), whether it lies over the
    rod (0 < z <= L) and whether z = 0.  depth holds the ladder depth of
    each lane's kept layout and panels the layout itself (see _layout),
    None until one is built; a lane's layout depends only on its height
    and depth, so a kept one has the bits of a new one.  drop removes
    lanes, kept layouts included."""

    __slots__ = ("z", "s", "offset", "r_sw", "on_rod", "at_zero", "depth", "panels")

    def __init__(self, z, length):
        self.z = z
        self.s = np.clip(z, 0.0, length)
        self.offset = z - self.s
        self.r_sw = NEAR_ROD * np.minimum(z, length - z)
        self.on_rod = (z > 0.0) & (z <= length)
        self.at_zero = z == 0.0
        self.depth = self.panels = None

    def drop(self, keep):
        """Keep only the lanes that the boolean array keep flags."""
        for name in ("z", "s", "offset", "r_sw", "on_rod", "at_zero"):
            setattr(self, name, getattr(self, name)[keep])
        if self.depth is not None:
            lane = self.panels[0]
            rows = keep[lane]
            renumber = np.cumsum(keep) - 1
            self.panels = (renumber[lane[rows]], *(a[rows] for a in self.panels[1:]))
            self.depth = self.depth[keep]


class PotentialField:
    """Evaluator for V(r, z); V(0, 0) is the density's exact criticality
    integral.

    All evaluations are pure; a field can be shared across threads.
    """

    def __init__(self, density=None, rel_tol=1e-10):
        self.density = density if density is not None else lebesgue_profile()
        self.rel_tol = float(rel_tol)
        self.v00 = self.density.criticality
        # the panel rules, one row each (see _gauss_rules): Gauss, and for
        # power densities Gauss-Jacobi for the weight zeta^p on the panel at 0
        rules = [_gauss_rules()]
        if self.density.kind == POWER:
            rules.append(_gauss_rules(self.density.power))
        self._rules = tuple(np.stack(table) for table in zip(*rules))

    # -- core evaluation -------------------------------------------------

    def value(self, r, z):
        """V(r, z) for r >= 0; +inf on the rod (r = 0, 0 < z <= L)."""
        return self._scalar(float(r), None, float(z))

    def value_log_r(self, t, z):
        """V(e^t, z) at log-radius t, also far below the underflow threshold
        of e^t; +inf on the rod (t = -inf, 0 < z <= L)."""
        return self._scalar(None, float(t), float(z))

    def value_by_quadrature(self, r, z):
        """V(r, z) by the panel quadrature, also for the lebesgue profile
        (the cross-check of its closed form); +inf on the rod."""
        return self._scalar(float(r), None, float(z), closed_form=False)

    def _scalar(self, r, t, z, closed_form=True):
        """The scalar door: V at the radius r (t None) or the log-radius t
        (r None), by the lebesgue closed form or else the one-lane
        quadrature.  +inf on the rod, DomainError for a negative or nan
        radius, RangeError where e^t overflows."""
        if t is None:
            if not r >= 0:
                raise DomainError(f"radius must be nonnegative, not {r}")
            t = math.log(r) if r > 0 else -INF
        if t == -INF and 0.0 < z <= self.density.length:
            return INF
        if t > MAX_LOG_RADIUS:
            raise RangeError(f"radius e^{t} at z={z} overflows")
        if closed_form and self.density.kind == LEBESGUE:
            return lebesgue_closed_form(t, z)
        if r is None:
            r = math.exp(t) if t > -745 else 0.0
        lanes = _LaneState(np.array([z]), self.density.length)
        return float(self._evaluate(np.array([r]), np.array([t]), lanes)[0][0])

    def _lane_state(self, z):
        """The lane state of a root batch at the heights z (1-d), for
        value_slope_log_r's _lanes; None for the lebesgue profile, whose
        closed form needs none."""
        return None if self.density.kind == LEBESGUE else _LaneState(z, self.density.length)

    def value_slope_log_r(self, t, z, _lanes=None):
        """The array door: V(e^t, z) and its slope dV/dt = r dV/dr on arrays
        of log-radius t and height z (broadcast against each other), by the
        closed form of the lebesgue profile and the panel quadrature of every
        other density.  DomainError on the rod (t = -inf, 0 < z <= L),
        RangeError where e^t overflows.  _lanes, the lane state of 1-d
        heights z (see _lane_state), lets the evaluations of a root batch
        share what depends only on the heights and keep each lane's panel
        layout; it changes no bit of the result (see _evaluate)."""
        t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
        if t.shape != z.shape:
            t, z = np.broadcast_arrays(t, z)
        L = self.density.length
        on_rod = (z > 0.0) & (z <= L) if _lanes is None else _lanes.on_rod
        if np.count_nonzero((t == -INF) & on_rod):
            raise DomainError("rod point (r=0, 0 < z <= L) is outside the domain of V")
        over = t > MAX_LOG_RADIUS
        if np.count_nonzero(over):
            k = int(over.argmax())
            raise RangeError(f"radius e^{t.flat[k]} at z={z.flat[k]} overflows")
        if self.density.kind == LEBESGUE:
            return lebesgue_value_slope(t, z)
        r = np.where(t > -745.0, np.exp(t), 0.0)
        if t.ndim == 1:
            return self._evaluate(r, t, _lanes if _lanes is not None else _LaneState(z, L))
        v, slope = self._evaluate(r.ravel(), t.ravel(), _LaneState(z.ravel(), L))
        return v.reshape(t.shape), slope.reshape(t.shape)

    def _evaluate(self, r, t, lanes):
        """V and dV/dt on 1-d arrays of radius r and its log t (r = 0 where
        e^t underflows) at the lanes of the lane state lanes: the
        quadrature, continued linearly in t below the switch radius over the
        rod; the light end (0, 0) reads V(0,0).  AccuracyError where the
        error estimate is not within 10 rel_tol |V|, nan included (first
        such lane).  At most QUADRATURE_CHUNK lanes, none at (0, 0), run in
        one pass through the layouts lanes keeps; any other batch runs its
        open lanes in chunks of QUADRATURE_CHUNK, each with a lane state of
        its own, so a lane state never holds more than one chunk's panels."""
        n = len(r)
        deep = r < lanes.r_sw              # never off the rod, where r_sw <= 0
        r = np.where(deep, lanes.r_sw, r)
        tip = (r == 0.0) & lanes.at_zero
        if 0 < n <= QUADRATURE_CHUNK and not np.count_nonzero(tip):
            v, slope = self._quadrature(r, lanes)
        else:
            v = np.where(tip, self.v00, 0.0)
            slope = np.zeros(n)
            # in chunks: a lane holds about 15 panels of 48 nodes
            open_lanes = (~tip).nonzero()[0]
            for start in range(0, len(open_lanes), QUADRATURE_CHUNK):
                chunk = open_lanes[start:start + QUADRATURE_CHUNK]
                v[chunk], slope[chunk] = self._quadrature(
                    r[chunk], _LaneState(lanes.z[chunk], self.density.length))
        deep = deep.nonzero()[0]
        if len(deep):
            slope[deep] = -2.0 * self.density(lanes.z[deep])
            v[deep] += slope[deep] * (t[deep] - np.log(r[deep]))
        return v, slope

    def _quadrature(self, r, lanes):
        """V and dV/dt on a 1-d array of radii r at the lanes of the lane
        state lanes, none at (0, 0), through the panel layouts of _panels.
        The error estimate of V is |HIGH - LOW| summed over the panels, plus
        one rounding unit of V.  RangeError for the first lane out of range,
        AccuracyError for the first whose error estimate is not within
        10 rel_tol |V|, nan included."""
        L = self.density.length
        n = len(r)
        peak = np.hypot(r, lanes.offset)   # distance of (r, z) from (0, s)
        # graded below TINY max(L, 1), panel ends turn subnormal or L / depth
        # overflows; below MIN_PEAK_WIDTH the integrand may divide by 0
        _out_of_range(peak, max(TINY * max(L, 1.0), MIN_PEAK_WIDTH), MAX_DISTANCE, r,
                      lanes.z, "the peak width is below MIN_PEAK_WIDTH or beyond "
                      "MAX_DISTANCE")
        lane, u2, dens, scale, w_lo, w_hi = self._panels(r, lanes, _ladder_depth(L, peak))
        r2 = r * r
        q = u2 + r2[lane, None]
        f = dens / np.sqrt(q)
        v_lo = scale * (f[:, :LOW_NODES] * w_lo).sum(axis=1)
        v_hi = scale * (f[:, LOW_NODES:] * w_hi).sum(axis=1)
        g_hi = scale * (f[:, LOW_NODES:] / q[:, LOW_NODES:] * w_hi).sum(axis=1)
        v = np.bincount(lane, v_hi, minlength=n)
        err = np.bincount(lane, np.abs(v_hi - v_lo), minlength=n) + EPS * v
        good = err <= 10.0 * self.rel_tol * v
        if np.count_nonzero(good) < n:
            k = int(good.argmin())
            raise AccuracyError(f"quadrature for V({r[k]}, {lanes.z[k]}) reached "
                                f"error {err[k]:.2e} only", best_estimate=float(v[k]))
        # the slope is r^2 times a sum that overflows within about 1e-103 of
        # a rod end; where r^2 underflows (below r = 1e-162, off the rod) it
        # reads 0, exact on the axis
        return v, -r2 * np.where(r2 > 0.0, np.bincount(lane, g_hi, minlength=n), 0.0)

    def _panels(self, r, lanes, k):
        """The panel layout (see _layout) of the lanes of the lane state
        lanes at radii r and ladder depths k.  lanes keeps each lane's
        layout under its depth, so only the lanes whose depth changed are
        built, and their panels replace their kept ones.  A lane's panels
        keep the order _layout gives them, wherever they sit among the other
        lanes' panels, so its sums (np.bincount, in panel order) run as over
        a layout built anew."""
        if lanes.depth is None:
            lanes.panels = self._layout(r, lanes, k)
        else:
            new = k != lanes.depth
            idx = new.nonzero()[0]
            if not len(idx):
                return lanes.panels
            if len(idx) == len(k):
                lanes.panels = self._layout(r, lanes, k)
            else:
                built = self._layout(r[idx], _LaneState(lanes.z[idx], self.density.length),
                                     k[idx])
                kept = ~new[lanes.panels[0]]
                lanes.panels = (np.concatenate([lanes.panels[0][kept], idx[built[0]]]),
                                *(np.concatenate([a[kept], b])
                                  for a, b in zip(lanes.panels[1:], built[1:])))
        lanes.depth = k
        return lanes.panels

    def _layout(self, r, lanes, k):
        """The panel layout of the lanes of the lane state lanes whose peak
        widths have ladder depths k below L: per panel its lane, the squared
        node offsets u^2 = (zeta - z)^2, the density at the nodes, the
        panel's scale and the weights of both rules, one row per panel.
        Panel ends are offsets x = zeta - s from the split point
        s = clamp(z, 0, L), so zeta - z does not cancel at small radii; they
        are graded toward s by k steps, down to the distance of (r, z) from
        (0, s), where the integrand has its peak, and for power densities
        toward zeta = 0 down to below the nearest of those ends, so that no
        panel but the ones at s and at 0 is longer than 5.67 times its
        distance from either point.  r only names a lane in a RangeError."""
        rho = self.density
        L = rho.length
        s = lanes.s
        rod_lo, rod_hi = -s[:, None], (L - s)[:, None]     # the rod's ends
        toward_peak = _graded_offsets(L, k)
        ends = np.concatenate([rod_lo, rod_hi, np.zeros_like(rod_lo), toward_peak,
                               -toward_peak], axis=1)
        if rho.kind == POWER:
            # grade toward the branch point of zeta^p at 0 down to the
            # nearest other panel end, so that only the panel at 0 touches it
            others = s[:, None] + ends
            nearest = np.where(others > 0.0, others, L).min(axis=1)
            _out_of_range(nearest, TINY * max(L, 1.0), INF, r, lanes.z, "the panel "
                          "ends near zeta = 0 are below the smallest normal float")
            ends = np.concatenate([ends, _graded_offsets(L, _ladder_depth(L, nearest))
                                   + rod_lo], axis=1)
        elif rho.kind == TABULATED:
            ends = np.concatenate([ends, rho.samples[None, :, 0] + rod_lo], axis=1)  # kinks
        # ends beyond the rod move onto its ends, and a repeated end makes no panel
        np.minimum(np.maximum(ends, rod_lo, out=ends), rod_hi, out=ends)
        ends.sort(axis=1)
        lo, hi = ends[:, :-1], ends[:, 1:]
        lane, col = (hi > lo).nonzero()    # nan and repeated ends drop out
        a = lo[lane, col]
        half = 0.5 * (hi[lane, col] - a)
        # each panel's rule: Gauss, but Gauss-Jacobi for the weight zeta^p on
        # a power density's panels at zeta = 0, the first of each lane (every
        # lane has one, as no end lies below zeta = 0)
        rule = np.zeros(len(lane), dtype=np.intp)
        if rho.kind == POWER:
            at_zero = np.searchsorted(lane, np.arange(len(s)))
            rule[at_zero] = 1
        points, w_lo, w_hi = (table[rule] for table in self._rules)
        x = half[:, None] * points
        x += a[:, None]                    # in place: the layout's arrays are large
        dens = rho(s[lane, None] + x)
        if rho.kind == POWER:
            # the panel at 0 integrates zeta^p f: rho(x) = x^p is in its weights
            half[at_zero] **= rho.power + 1.0
            dens[at_zero] = 1.0            # a new array
        u = np.subtract(x, lanes.offset[lane, None], out=x)
        return lane, np.multiply(u, u, out=u), dens, half, w_lo, w_hi


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
