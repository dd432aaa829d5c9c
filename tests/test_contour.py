import math

import numpy as np
import pytest

from cusplab import contour, density, potential
from cusplab.errors import AccuracyError, InputError, RangeError

# frozen bisection oracles on the axis closed forms (400-digit arithmetic):
#   z log(z/(z-1)) - 1 = 2    ->  z2(2)
#   z log(z/(z-1)) - 1 = 1/2  ->  z2(1/2)
#   s log(1 + 1/s) = 1/2      ->  z1(1/2) = -s
Z2_OF_2 = 1.06328706887776254
Z2_OF_HALF = 1.71582021485871949
Z1_OF_HALF = -0.39795254731591654

# frozen log-space roots of V(r, z) = c (independent high-precision bisection)
LOG_R2 = {0.1: -6.51084678550861, 0.05: -11.8303656058,
          0.02: -27.2729656758, 0.01: -52.6144630804}


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


def test_axis_crossings_level_two(leb):
    z1, z2 = contour.axis_crossings(leb, 2.0)
    assert z1 == 0.0
    assert z2 == pytest.approx(Z2_OF_2, abs=1e-6)


def test_axis_crossings_level_half(leb):
    z1, z2 = contour.axis_crossings(leb, 0.5)
    assert z1 == pytest.approx(Z1_OF_HALF, abs=1e-6)
    assert z2 == pytest.approx(Z2_OF_HALF, abs=1e-6)


def test_axis_crossing_at_critical_level(leb):
    z1, _ = contour.axis_crossings(leb, leb.v00)
    assert z1 == 0.0


def test_axis_crossing_residuals(leb):
    for c in (0.5, 1.3, 2.0, 3.7):
        z1, z2 = contour.axis_crossings(leb, c)
        assert abs(leb.value(0.0, z2) - c) <= 1e-10
        if c < leb.v00:
            assert abs(leb.value(0.0, z1) - c) <= 1e-10


def test_log_radius_matches_oracle(leb):
    for z, t_ref in LOG_R2.items():
        assert contour.log_radius_at(leb, 2.0, z) == pytest.approx(t_ref, abs=1e-8)


def test_radius_at_example_band(leb):
    r = contour.radius_at(leb, 2.0, 0.1)
    assert math.exp(-6.0) > r > math.exp(-7.0)
    assert abs(leb.value(r, 0.1) - 2.0) <= 1e-10 * 2.0


def test_radius_residual_definition(leb):
    for z in (0.3, 0.9, 1.05):
        r = contour.radius_at(leb, 0.5, z)
        assert abs(leb.value(r, z) - 0.5) <= 1e-10


def test_radius_uniqueness_under_bracket_perturbation(leb):
    # re-solving after shifting the initial bracket must give the same root
    t_a = contour.log_radius_at(leb, 2.0, 0.07)
    t_b = contour.log_radius_at(leb, 2.0, 0.07, t_cap=1e14)
    assert math.exp(t_a) == pytest.approx(math.exp(t_b), rel=1e-12)


def test_radius_range_error_off_curve(leb):
    # z beyond z2: V(., z) never reaches the level
    with pytest.raises(RangeError):
        contour.radius_at(leb, 2.0, 1.5)


def test_radius_below_float_range(leb):
    # at z = 5e-4 the cusp radius is near e^{-1000}: representable only in log space
    with pytest.raises(RangeError):
        contour.radius_at(leb, 2.0, 5e-4)
    t = contour.log_radius_at(leb, 2.0, 5e-4)
    assert -1300.0 < t < -800.0


def test_trace_contour_cusp(leb):
    curve = contour.trace_contour(leb, 2.0, n=64, grading="geometric")
    assert curve.z1 == 0.0
    assert curve.z2 == pytest.approx(Z2_OF_2, abs=1e-6)
    assert np.all(np.diff(curve.samples[:, 0]) > 0)
    assert np.all(curve.interior[:, 1] > 0)
    assert curve.samples[0, 1] == 0.0 and curve.samples[-1, 1] == 0.0
    assert curve.max_residual() <= 1e-10
    # tangency at sample level: r/(z - z1) drops below any fixed epsilon
    z, r = curve.interior[:, 0], curve.interior[:, 1]
    slope = r / (z - curve.z1)
    assert np.all(np.diff(slope[:12]) > 0)      # decreasing toward the cusp
    assert slope[0] < 1e-10


def test_trace_contour_closed_level(leb):
    curve = contour.trace_contour(leb, 0.5, n=32)
    assert curve.z1 == pytest.approx(Z1_OF_HALF, abs=1e-6)
    assert curve.z2 == pytest.approx(Z2_OF_HALF, abs=1e-6)
    # the c < V(0,0) curve stays away from the rod segment {r=0, 0<=z<=1}
    z, r = curve.interior[:, 0], curve.interior[:, 1]
    inside = (z >= 0.0) & (z <= 1.0)
    assert np.all(r[inside] > 0.1)


def test_trace_contour_preconditions(leb):
    with pytest.raises(InputError):
        contour.trace_contour(leb, 2.0, n=8)
    with pytest.raises(InputError):
        contour.trace_contour(leb, 2.0, n=32, grading="sideways")


def test_cusp_band_small_z(leb):
    # Dini-variant band holds strictly below the threshold z0 ~ 0.055
    rep = contour.cusp_rate_bounds(leb, 2.0, 0.4, 0.6,
                                   z_grid=[0.05, 0.02, 0.01])
    assert rep.all_pass


def test_cusp_band_threshold_exists(leb):
    # the bound is only asymptotic: z = 0.1 violates the beta side, smaller z pass
    rep = contour.cusp_rate_bounds(leb, 2.0, 0.4, 0.6,
                                   z_grid=[0.1, 0.05, 0.02, 0.01])
    assert not rep.band_pass[0]
    assert np.all(rep.band_pass[1:])


def test_cusp_trend_toward_limit(leb):
    rep = contour.cusp_rate_bounds(leb, 2.0, 0.25, 0.6,
                                   z_grid=np.geomspace(1e-1, 1e-3, 5))
    dev = np.abs(rep.trend_values - rep.trend_target)
    assert np.all(np.diff(dev) < 0)
    assert dev[-1] <= 0.05
    assert rep.trend_target == pytest.approx(1.5, abs=1e-9)


def test_cusp_band_monotone_variant(leb):
    rep = contour.cusp_rate_bounds(leb, 2.0, 0.4, 0.6, delta=0.3,
                                   z_grid=[0.1, 0.05, 0.02, 0.01])
    assert rep.all_pass            # the delta slack absorbs the z=0.1 station


def test_cusp_band_parameter_validation(leb):
    with pytest.raises(InputError):
        contour.cusp_rate_bounds(leb, 2.0, 0.6, 0.7)    # alpha >= (c-1)/2
    with pytest.raises(InputError):
        contour.cusp_rate_bounds(leb, 2.0, 0.4, 0.45)   # beta <= (c-1)/2
    with pytest.raises(InputError):
        contour.cusp_rate_bounds(leb, 2.0, 0.4, 0.6, delta=1.5)


def test_tiny_level_exceeds_search_radius(leb):
    # the upper crossing for c = 1e-12 sits near 5e11, past the bracket cap
    with pytest.raises(RangeError):
        contour.axis_crossings(leb, 1e-12)


def test_quadrature_backed_field_traces():
    # no closed form here: axis crossings and radii come from quadrature,
    # and the near-rod bracket must survive uncertifiable endpoint spikes
    field = potential.PotentialField(density.power_profile(1.5))
    curve = contour.trace_contour(field, 0.9 * field.v00, n=24)
    assert curve.z1 < 0 < 1.0 < curve.z2
    assert curve.max_residual() <= 1e-10
    rep = contour.cusp_rate_bounds(field, 1.3 * field.v00, 0.05, 0.25,
                                   z_grid=[0.1, 0.06])
    assert rep.trend_target == pytest.approx(field.v00 + 0.1)


# -- batched roots ------------------------------------------------------------

def bisection_log_radius(field, c, z):
    """Reference root of V(e^t, z) = c: the scalar bisection of the same
    bracket, halved up to 300 times until |V - c| <= CONTOUR_RTOL max(1, c)/2
    and the bracket is below 1e-14 max(1, |t|); returns its midpoint."""
    def val(t):
        try:
            return field.value_log_r(t, z)
        except AccuracyError:
            if 0.0 < z <= field.density.length:
                return math.inf
            raise

    t_hi = 0.0
    while val(t_hi) > c:
        t_hi += 2.0
    t_lo = min(t_hi - 2.0, -1.0)
    while val(t_lo) < c:
        t_lo *= 2.0
    res_target = 0.5 * contour.CONTOUR_RTOL * max(1.0, c)
    for _ in range(300):
        t = 0.5 * (t_lo + t_hi)
        fm = val(t) - c
        if fm > 0:
            t_lo = t
        else:
            t_hi = t
        if abs(fm) <= res_target and t_hi - t_lo <= 1e-14 * max(1.0, abs(t)):
            break
    return 0.5 * (t_lo + t_hi)


def test_batched_roots_match_bisection(leb):
    # traced stations of a closed and a cusp level, cusp stations down to
    # log r near -600, and a low level spanning |z| ~ 10, where Newton from
    # the bracket midpoint would leave the bracket
    cases = [(0.5, contour.trace_contour(leb, 0.5, n=64, grading="blended")),
             (2.0, contour.trace_contour(leb, 2.0, n=64, grading="blended"))]
    cases = [(c, curve.interior[:, 0]) for c, curve in cases]
    cases.append((2.0, np.geomspace(1e-2, 8.4e-4, 6)))
    z1, z2 = contour.axis_crossings(leb, 0.05)
    cases.append((0.05, np.linspace(z1, z2, 82)[1:-1]))
    deepest = 0.0
    for c, zs in cases:
        ts = contour.log_radius_at(leb, c, zs)
        ref = np.array([bisection_log_radius(leb, c, z) for z in zs])
        v, slope = leb.value_slope_log_r(ts, zs)
        assert np.all(np.abs(v - c) <= contour.CONTOUR_RTOL * max(1.0, c))
        # a root is known to the rounding floor of V over its slope
        floor = 4.0 * np.finfo(float).eps * max(1.0, c) / np.abs(slope)
        assert np.all(np.abs(ts - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)) + floor)
        deepest = min(deepest, ts.min())
    assert deepest < -590.0


def test_batched_roots_do_not_depend_on_the_batch(leb):
    # a station's arithmetic is elementwise: in a batch it finds the root it
    # finds alone, and a scalar station gives a float
    for c, zs in ((2.0, np.concatenate([np.linspace(0.01, 1.06, 9), [1.0, 1e-3]])),
                  (0.5, np.concatenate([np.linspace(-0.39, 1.7, 17), [0.0, 1.0]]))):
        alone = [contour.log_radius_at(leb, c, z) for z in zs]
        assert all(isinstance(t, float) for t in alone)
        assert contour.log_radius_at(leb, c, zs).tolist() == alone


def _assert_lanes_match_per_level_roots(field, levels, stations):
    """The (level, station) lanes, interleaved, solved in one call find the
    roots each level finds on its own stations, bit for bit."""
    cs = np.repeat(levels, [len(zs) for zs in stations])
    zs = np.concatenate(stations)
    order = np.random.default_rng(7).permutation(len(zs))
    ts = np.empty(len(zs))
    ts[order] = contour.log_radius_at(field, cs[order], zs[order])
    alone = np.concatenate([contour.log_radius_at(field, c, z)
                            for c, z in zip(levels, stations)])
    assert ts.tolist() == alone.tolist()
    return ts


def test_level_lanes_match_per_level_roots(leb):
    # closed and cusp levels in one batch, cusp stations down to log r ~ -600
    curves = contour.trace_contours(leb, [0.5, 2.0, 1.2, 0.95], n=64,
                                    grading="blended")
    ts = _assert_lanes_match_per_level_roots(
        leb, [curve.level for curve in curves], [curve.interior[:, 0] for curve in curves])
    assert ts.min() < -590.0


def test_quadrature_level_lanes_match_per_level_roots():
    field = potential.PotentialField(density.power_profile(0.5))
    _assert_lanes_match_per_level_roots(
        field, [0.8 * field.v00, 1.3 * field.v00, 0.5 * field.v00],
        [np.array([0.2, 0.6, 1.02]), np.array([0.3, 0.7]), np.array([-0.1, 0.5, 1.3])])


def test_levels_broadcast_against_stations(leb):
    zs = np.linspace(0.05, 0.95, 7)
    row = contour.log_radius_at(leb, 2.0, zs)
    assert contour.log_radius_at(leb, np.full(7, 2.0), zs).tolist() == row.tolist()
    grid = contour.log_radius_at(leb, np.array([[0.5], [2.0]]), zs)
    assert grid.shape == (2, 7)
    assert grid[1].tolist() == row.tolist()
    assert grid[0].tolist() == contour.log_radius_at(leb, 0.5, zs).tolist()
    column = contour.log_radius_at(leb, np.array([0.5, 2.0]), 0.3)
    assert column.shape == (2,)
    assert column.tolist() == [contour.log_radius_at(leb, c, 0.3) for c in (0.5, 2.0)]
    assert isinstance(contour.log_radius_at(leb, np.float64(2.0), np.float64(0.3)), float)


@pytest.mark.parametrize("levels", [[0.5, 0.0, 2.0], [2.0, -1.0], [-0.5]])
def test_nonpositive_level_lanes_raise(leb, levels):
    with pytest.raises(InputError, match="level must be positive"):
        contour.log_radius_at(leb, np.array(levels), 0.3)


def test_first_failing_level_lane_raises(leb):
    # z2(2.0) ~ 1.063 and z2(0.5) ~ 1.716: both later lanes have no root
    with pytest.raises(RangeError, match="level 2.0 at z=1.5"):
        contour.log_radius_at(leb, np.array([0.5, 2.0, 0.5]),
                              np.array([1.0, 1.5, 1.9]), t_cap=1e3)
    with pytest.raises(RangeError, match="level 0.5 at z=1.9"):
        contour.log_radius_at(leb, np.array([0.5, 0.5, 2.0]),
                              np.array([1.0, 1.9, 1.5]), t_cap=1e3)


def _assert_roots_match_mpmath(field, c, zs, mp_log_radius):
    """Roots within 1e-12 max(1, |t|) of the 30-digit mpmath root, plus the
    rounding floor 4e-16 max(1, c) / |dV/dt| of a root of V = c."""
    ts = contour.log_radius_at(field, c, np.array(zs))
    v, slope = field.value_slope_log_r(ts, zs)
    assert np.all(np.abs(v - c) <= contour.CONTOUR_RTOL * max(1.0, c))
    for t, z, g in zip(ts, zs, slope):
        ref = mp_log_radius(field.density, c, z, t)
        floor = 4.0 * np.finfo(float).eps * max(1.0, c) / abs(g)
        assert abs(t - ref) <= 1e-12 * max(1.0, abs(ref)) + floor


@pytest.mark.parametrize("p, c_over_v00, zs", [
    (0.5, 0.8, [0.2, 1.02]),
    (2.0, 1.5, [0.3, 0.7, 1.05]),
])
def test_quadrature_roots_match_mpmath(p, c_over_v00, zs, mp_log_radius):
    # the quadrature fields take the same Newton path as the closed form
    field = potential.PotentialField(density.power_profile(p))
    _assert_roots_match_mpmath(field, c_over_v00 * field.v00, zs, mp_log_radius)


def test_quadrature_root_bracket_below_the_rod_floor(mp_log_radius):
    # the bracket doubles t down to -32, below log 1e-12, where quadrature
    # reads +inf over the rod; the root lies at t = -18.8
    field = potential.PotentialField(density.power_profile(0.5))
    _assert_roots_match_mpmath(field, 9.0, [0.05], mp_log_radius)


def test_root_below_the_rod_floor_fails_fast(monkeypatch):
    # the root of c = 3 at z = 1e-4 lies far below MIN_QUADRATURE_RADIUS,
    # where V reads +inf: the bracket collapses onto the floor with the
    # residual off target, and the station is retired then, not after 300
    # steps with a bare residual
    field = potential.PotentialField(density.power_profile(0.5))
    calls = []
    value_slope = field.value_slope_log_r

    def counted(*args, **kwargs):
        calls.append(args)
        return value_slope(*args, **kwargs)

    monkeypatch.setattr(field, "value_slope_log_r", counted)
    with pytest.raises(AccuracyError, match="MIN_QUADRATURE_RADIUS = 1e-12"):
        contour.log_radius_at(field, 3.0, 1e-4)
    assert len(calls) <= 80


def test_tabulated_roots_match_mpmath(mp_log_radius):
    knots = np.linspace(0.0, 1.0, 17)
    field = potential.PotentialField(
        density.tabulated_profile(np.column_stack([knots, knots ** 1.5])))
    _assert_roots_match_mpmath(field, 0.9 * field.v00, [0.125, 0.55, 1.01],
                               mp_log_radius)


def test_first_failing_station_raises(leb):
    # z = 1.5 and 3.0 lie beyond z2(2.0) ~ 1.063: no radius reaches the level
    with pytest.raises(RangeError, match="z=1.5"):
        contour.log_radius_at(leb, 2.0, np.array([0.5, 1.5, 3.0]), t_cap=1e3)


def test_axis_crossings_match_mpmath(leb, mp_level_height, root_evaluations):
    counts = root_evaluations
    for c in np.linspace(0.3, 3.0, 7):
        z1, z2 = contour.axis_crossings(leb, c)
        assert z2 == pytest.approx(mp_level_height(leb.density, c, -math.inf, z2),
                                   rel=1e-14, abs=0.0)
        if c < leb.v00:
            assert z1 == pytest.approx(mp_level_height(leb.density, c, -math.inf, z1),
                                       rel=1e-14, abs=0.0)
        else:
            assert z1 == 0.0
    # nine brackets (two levels lie below V(0,0)), each solved in at most
    # 20 evaluations where bisection to adjacent doubles took about 55
    assert len(counts) == 9
    assert max(counts) <= 20


def test_root_in_brackets_across_unresolved_values(mp_level_height):
    # V(1e-13, z) of a power-2 rod is beyond the quadrature over the rod,
    # where it reads +inf, above every level; above the rod end z = 1 it is
    # the axis value up to O(r^2), so the root is the axis crossing z2
    field = potential.PotentialField(density.power_profile(2.0))
    f = lambda z: contour._level_value(field, math.log(1e-13), z) - 10.0
    assert f(0.5) == math.inf
    z = contour._root_in(f, 0.5, 3.0)
    assert z == pytest.approx(mp_level_height(field.density, 10.0, -math.inf, z),
                              rel=1e-14, abs=0.0)


def test_root_in_needs_a_sign_change():
    with pytest.raises(RangeError, match="no sign change"):
        contour._root_in(lambda x: x * x + 1.0, -1.0, 1.0)
    assert contour._root_in(lambda x: x - 0.25, 0.25, 1.0) == 0.25
