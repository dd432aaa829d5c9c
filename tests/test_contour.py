import hashlib
import math

import numpy as np
import pytest

from cusplab import contour, density, mesh, potential
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


@pytest.fixture(scope="module")
def power_half():
    return potential.PotentialField(density.power_profile(0.5))


FLOOR_CASES = [("lebesgue", 1.05), ("lebesgue", 2.0), ("lebesgue", 3.0), ("power", 3.0)]


@pytest.mark.parametrize("rod, c", FLOOR_CASES)
def test_geometric_trace_stops_on_the_radius_floor(leb, power_half, rod, c):
    # the deepest station of a cusp trace sits where log r falls to the
    # floor, at a height that does not depend on the number of stations
    field = leb if rod == "lebesgue" else power_half
    heights = []
    for n in (64, 128, 192):
        curve = contour.trace_contour(field, c, n=n, grading="geometric")
        assert abs(curve.log_r[1] - contour.LOG_RADIUS_FLOOR) <= 1e-9
        heights.append(curve.samples[1, 0])
    assert heights == pytest.approx([heights[0]] * 3, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rod, c", FLOOR_CASES)
def test_radius_floor_is_one_root(leb, power_half, rod, c, monkeypatch):
    # the floor is one bracketed root between the ladder's own ends: a few
    # scalar V calls (one-lane quadratures on the power rod), however many
    # stations the ladder has
    field = leb if rod == "lebesgue" else power_half
    budget = 10 if rod == "lebesgue" else 14
    z1, z2 = contour.axis_crossings(field, c)
    calls = []
    value_log_r = potential.PotentialField.value_log_r

    def counted(self, t, z):
        calls.append(z)
        return value_log_r(self, t, z)

    monkeypatch.setattr(potential.PotentialField, "value_log_r", counted)
    for n in (64, 128, 192):
        calls.clear()
        contour._geometric_offsets(field, c, z1, z2, n)
        assert 0 < len(calls) <= budget


def test_cusp_tail_below_the_radius_floor_raises(leb, monkeypatch):
    # with the floor at log r = -1 even the ladder's top station lies below it
    monkeypatch.setattr(contour, "LOG_RADIUS_FLOOR", -1.0)
    with pytest.raises(RangeError, match="entire cusp tail lies below the radius floor"):
        contour.trace_contour(leb, 2.0)


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
    """Reference root of V(e^t, z) = c: the scalar bisection of a bracket
    stepped up from t = 0 by 2 and doubled down from -1, halved up to 300
    times until |V - c| <= CONTOUR_RTOL max(1, c)/2 and the bracket is
    below 1e-14 max(1, |t|); returns its midpoint."""
    val = lambda t: field.value_log_r(t, z)
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


def _assert_roots_match_bisection(field, c, zs):
    ts = contour.log_radius_at(field, c, zs)
    ref = np.array([bisection_log_radius(field, c, z) for z in zs])
    v, slope = field.value_slope_log_r(ts, zs)
    assert np.all(np.abs(v - c) <= contour.CONTOUR_RTOL * max(1.0, c))
    floor = 4.0 * np.finfo(float).eps * max(1.0, c) / np.abs(slope)
    assert np.all(np.abs(ts - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)) + floor)
    return ts


def test_model_steps_match_bisection(leb):
    # each step of the root search against the scalar bisection: roots at
    # t > 0, found by stepping up; stations above the rod and below it next
    # to the axis (r << |z|), where the steps follow the r^2 model
    z1, z2 = contour.axis_crossings(leb, 0.2)
    ts = _assert_roots_match_bisection(leb, 0.2, np.linspace(z1, z2, 12)[1:-1])
    assert ts.max() > 0.9
    _assert_roots_match_bisection(leb, 2.0, 1.0 + np.geomspace(1e-12, 0.06, 6))
    z1, z2 = contour.axis_crossings(leb, 0.5)
    zs = np.concatenate([z1 + np.geomspace(1e-9, 1e-2, 5), z2 - np.geomspace(1e-9, 0.5, 5)])
    ts = _assert_roots_match_bisection(leb, 0.5, zs)
    assert np.all(ts[:4] < np.log(-zs[:4]) - 3.0)


@pytest.mark.parametrize("rod, c_over_v00, zs", [
    ("power 2", 0.8, [-0.05, 0.5, 1.02, 1.3]),
    ("power 2", 1.5, [0.3, 1.05]),
    ("tabulated", 0.9, [-0.01, 0.55, 1.01]),
])
def test_quadrature_model_steps_match_bisection(rod, c_over_v00, zs):
    if rod == "power 2":
        rho = density.power_profile(2.0)
    else:
        knots = np.linspace(0.0, 1.0, 17)
        rho = density.tabulated_profile(np.column_stack([knots, knots ** 1.5]))
    field = potential.PotentialField(rho)
    _assert_roots_match_bisection(field, c_over_v00 * field.v00, np.array(zs))


def _count_evaluations(monkeypatch, field):
    calls = []
    value_slope = field.value_slope_log_r

    def counted(*args, **kwargs):
        calls.append(args)
        return value_slope(*args, **kwargs)

    monkeypatch.setattr(field, "value_slope_log_r", counted)
    return calls


def test_root_batches_keep_their_evaluation_budget(leb, monkeypatch):
    # array evaluations of V per root batch, each the slowest lane's count:
    # the rail trace of a 24x96 triangulate (26 levels, 192 geometric
    # stations each), the 512-lane trace of a cross-section and one root
    # of the power-1/2 rod.  Brackets stepped up by 2 and doubled down from
    # -1, Newton from the bracket midpoint and one more evaluation for the
    # traced residuals took 31, 24 and 7
    calls = _count_evaluations(monkeypatch, leb)
    levels = [0.5, *mesh._level_values(leb, 0.5, 2.0, 24), 2.0]
    contour.trace_contours(leb, levels, n=192, grading="geometric")
    assert 1 <= len(calls) <= 10
    calls.clear()
    contour.trace_contours(leb, [0.5, 2.0], n=256, grading="blended")
    assert 1 <= len(calls) <= 9
    field = potential.PotentialField(density.power_profile(0.5))
    calls = _count_evaluations(monkeypatch, field)
    contour.log_radius_at(field, 0.8 * field.v00, 1.02)
    assert 1 <= len(calls) <= 6


def _traced(curves):
    """The roots and residuals of traced curves, level after level."""
    return (np.concatenate([curve.log_r[1:-1] for curve in curves]),
            np.concatenate([curve.residuals for curve in curves]))


def test_root_bits_are_frozen(leb, monkeypatch):
    # a SHA-256 of the roots and then the residuals of four root batches,
    # and each batch's array evaluations of V, with the values the root
    # loop gave when this test was written: a change to the loop's
    # arithmetic, to the quadrature or to its kept layouts fails here.  The
    # batches are the lebesgue rail trace of
    # test_root_batches_keep_their_evaluation_budget, the power-1/2 root at
    # 0.8 V(0,0), z = 1.02, a 64-station power-1/2 batch at c = 3 from
    # z = 1e-3 and a blended trace of the 17-knot z^1.5 table
    half = potential.PotentialField(density.power_profile(0.5))
    table = potential.PotentialField(QUADRATURE_RODS["tabulated"])
    levels = [0.5, *mesh._level_values(leb, 0.5, 2.0, 24), 2.0]
    z2 = contour.axis_crossings(half, 3.0)[1]
    batches = (
        (leb, lambda: _traced(contour.trace_contours(leb, levels, n=192)),
         "0efbc5eaa5b59de0b35504c4701a8c2f8cce93f24a8d7247784b4a731a8f6b15", 10),
        (half, lambda: contour._log_radius_residual(half, np.array([0.8 * half.v00]),
                                                    np.array([1.02])),
         "480221d8765024b65be1c2db9beddd7d35465849a41d6e9ddba4aeaa8c39ad77", 6),
        (half, lambda: contour._log_radius_residual(half, np.full(64, 3.0),
                                                    np.linspace(1e-3, z2, 65)[:-1]),
         "7d61c906afd9329eb4d2e65aba9bde515a64916eb47754aa997bbfcc0b14ae9b", 8),
        (table, lambda: _traced(contour.trace_contours(
            table, [0.6 * table.v00, 1.4 * table.v00], n=64, grading="blended")),
         "a888a7ebbee1f89d3873631185964616ef45c4f476436cffc0a85f7a6e414b0e", 8),
    )
    for field, solve, digest, evaluations in batches:
        calls = _count_evaluations(monkeypatch, field)
        ts, res = solve()
        monkeypatch.undo()
        assert hashlib.sha256(np.concatenate([ts, res]).tobytes()).hexdigest() == digest
        assert len(calls) == evaluations
    # one V of each quadrature rod
    values = {"power 1/2": 1.648786930754398, "power 2": 0.730260925417326,
              "tabulated": 0.912481128794926}
    for name, v in values.items():
        assert potential.PotentialField(QUADRATURE_RODS[name]).value(0.3, 0.4) == v


KNOTS = np.linspace(0.0, 1.0, 17)
QUADRATURE_RODS = {
    "power 1/2": density.power_profile(0.5),
    "power 2": density.power_profile(2.0),
    "tabulated": density.tabulated_profile(np.column_stack([KNOTS, KNOTS ** 1.5])),
}


def test_traced_residuals_are_those_of_the_roots(leb):
    # the residuals a trace keeps come from the evaluations that accepted
    # its roots: the same bits as evaluating V at the roots again, also
    # where the batch reused its quadrature layouts and the fresh
    # evaluation builds its own; uniform stations too
    fields = [(leb, [0.5, 2.0], "blended"), (leb, [0.5, 2.0], "uniform")]
    for rod in QUADRATURE_RODS.values():
        field = potential.PotentialField(rod)
        fields.append((field, [0.6 * field.v00, 1.4 * field.v00], "blended"))
    for field, levels, grading in fields:
        curves = contour.trace_contours(field, levels, n=64, grading=grading)
        for curve in curves:
            z, t = curve.interior[:, 0], curve.log_r[1:-1]
            v = field.value_slope_log_r(t, z)[0]
            assert curve.residuals.tolist() == np.abs(v - curve.level).tolist()


@pytest.mark.parametrize("name", sorted(QUADRATURE_RODS))
def test_layout_memo_changes_no_root(name):
    # a root batch of at most QUADRATURE_CHUNK lanes keeps the last panel
    # layout across its evaluations, a larger one builds every layout: the
    # roots are those each station finds alone, bit for bit
    field = potential.PotentialField(QUADRATURE_RODS[name])
    for c in (0.6 * field.v00, 1.4 * field.v00):
        z1, z2 = contour.axis_crossings(field, c)
        zs = np.append(np.linspace(z1, z2, 9)[1:-1], z1 + 1e-3)
        alone = [contour.log_radius_at(field, c, z) for z in zs]
        assert contour.log_radius_at(field, c, zs).tolist() == alone
        many = np.tile(zs, potential.QUADRATURE_CHUNK // len(zs) + 1)
        assert len(many) > potential.QUADRATURE_CHUNK
        assert contour.log_radius_at(field, c, many).tolist() == alone * (len(many) // len(zs))


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_non_finite_stations_are_refused(leb, monkeypatch, z):
    # a station that is not finite has no contour root: it is refused before
    # any evaluation (a nan one took 300 evaluations and returned t = -1e90)
    for field in (leb, potential.PotentialField(density.power_profile(0.5))):
        calls = _count_evaluations(monkeypatch, field)
        for zs in (z, [0.5, z]):
            with pytest.raises(InputError):
                contour.log_radius_at(field, 1.5, zs)
        assert calls == []


def test_a_nan_residual_is_off_target(monkeypatch):
    # a lane whose residual is nan after 300 evaluations raises AccuracyError
    # (nan > target is False, so it used to return its last point)
    field = potential.PotentialField(density.power_profile(0.5))
    monkeypatch.setattr(field, "value_slope_log_r",
                        lambda t, z, _lanes=None: (np.full(len(t), np.nan),) * 2)
    with pytest.raises(AccuracyError):
        contour.log_radius_at(field, 1.5, 0.5)


def test_root_reuses_its_station_layout(monkeypatch):
    # every panel layout reads the density once at its nodes: one root of
    # the power-1/2 rod builds at most 3 layouts over its 7 evaluations
    field = potential.PotentialField(density.power_profile(0.5))
    calls = _count_evaluations(monkeypatch, field)
    layouts = []
    rho = density.DensityProfile.__call__

    def counted(self, x):
        layouts.append(len(x))
        return rho(self, x)

    monkeypatch.setattr(density.DensityProfile, "__call__", counted)
    contour.log_radius_at(field, 0.6 * field.v00, 0.4)
    assert len(calls) == 7
    assert len(layouts) <= 3


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


# levels at or below CONTOUR_RTOL, whose residual target is at least half
# the level, are refused with the nonpositive ones
@pytest.mark.parametrize("levels", [[0.5, 0.0, 2.0], [2.0, -1.0], [-0.5],
                                    [0.5, 1e-10], [1e-90], [1e-310, 2.0]])
def test_nonpositive_level_lanes_raise(leb, levels):
    with pytest.raises(InputError, match="level must be positive"):
        contour.log_radius_at(leb, np.array(levels), 0.3)


def test_first_failing_level_lane_raises(leb):
    # z2(2.0) ~ 1.063 and z2(0.5) ~ 1.716: both later lanes have no root
    with pytest.raises(RangeError, match="level 2.0 at z=1.5"):
        contour.log_radius_at(leb, np.array([0.5, 2.0, 0.5]),
                              np.array([1.0, 1.5, 1.9]))
    with pytest.raises(RangeError, match="level 0.5 at z=1.9"):
        contour.log_radius_at(leb, np.array([0.5, 0.5, 2.0]),
                              np.array([1.0, 1.9, 1.5]))


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
    # the bracket doubles t down to -32, below the switch radius 5e-14 at
    # z = 0.05, where V is continued linearly in log r; the root lies at
    # t = -18.8, above it
    field = potential.PotentialField(density.power_profile(0.5))
    _assert_roots_match_mpmath(field, 9.0, [0.05], mp_log_radius)


def test_root_far_below_the_switch_radius(monkeypatch):
    # the root of c = 3 at z = 1e-4 lies at r ~ 2e-26, far below the switch
    # radius 1e-16, where V is linear in t: Newton finds it in a few steps
    field = potential.PotentialField(density.power_profile(0.5))
    calls = []
    value_slope = field.value_slope_log_r

    def counted(*args, **kwargs):
        calls.append(args)
        return value_slope(*args, **kwargs)

    monkeypatch.setattr(field, "value_slope_log_r", counted)
    assert contour.log_radius_at(field, 3.0, 1e-4) == pytest.approx(-59.14090, abs=5e-6)
    assert len(calls) <= 80


def test_power_rod_roots_reach_the_cusp():
    # the near-rod closed form t_c(z) = (rho log 4z(L - z) + H(z) - c) / 2 rho
    # at the level V(0,0) + 0.5 of the power-1/2 rod
    field = potential.PotentialField(density.power_profile(0.5))
    t = contour.log_radius_at(field, field.v00 + 0.5, [1e-3, 1e-4])
    assert t[0] == pytest.approx(-14.765641, abs=5e-7)
    assert t[1] == pytest.approx(-34.14090, abs=5e-6)


def test_tabulated_roots_match_mpmath(mp_log_radius):
    knots = np.linspace(0.0, 1.0, 17)
    field = potential.PotentialField(
        density.tabulated_profile(np.column_stack([knots, knots ** 1.5])))
    _assert_roots_match_mpmath(field, 0.9 * field.v00, [0.125, 0.55, 1.01],
                               mp_log_radius)


def test_first_failing_station_raises(leb):
    # z = 1.5 and 3.0 lie beyond z2(2.0) ~ 1.063: no radius reaches the level
    with pytest.raises(RangeError, match="z=1.5"):
        contour.log_radius_at(leb, 2.0, np.array([0.5, 1.5, 3.0]))


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


def test_root_in_brackets_across_finite_values(mp_level_height):
    # V(1e-13, z) of a power-2 rod is finite over the rod, where it is
    # continued below the switch radius, and above every level there; above
    # the rod end z = 1 it is the axis value up to O(r^2), so the root is the
    # axis crossing z2
    field = potential.PotentialField(density.power_profile(2.0))
    f = lambda z: field.value_log_r(math.log(1e-13), z) - 10.0
    assert math.isfinite(f(0.5)) and f(0.5) > 0.0
    z = contour._root_in(f, 0.5, 3.0)
    assert z == pytest.approx(mp_level_height(field.density, 10.0, -math.inf, z),
                              rel=1e-14, abs=0.0)


def test_root_in_needs_a_sign_change():
    with pytest.raises(RangeError, match="no sign change"):
        contour._root_in(lambda x: x * x + 1.0, -1.0, 1.0)
    assert contour._root_in(lambda x: x - 0.25, 0.25, 1.0) == 0.25


def _brentq_root(f, lo, hi):
    """The root scipy's brentq finds with _root_in's tolerances, with the
    bracket ends evaluated once, and its count of evaluations of f."""
    from scipy.optimize import brentq

    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    ends = {lo: counted(lo), hi: counted(hi)}
    root = brentq(lambda x: ends[x] if x in ends else counted(x), lo, hi,
                  xtol=1e-300, rtol=4.0 * contour.EPS)
    return root, len(calls)


def test_root_in_steps_like_brentq(leb, power_half, root_evaluations, monkeypatch):
    # every root of a triangulate and of a power-1/2 trace has the bits of
    # scipy's brentq and takes as many evaluations
    counts, solve, pairs = root_evaluations, contour._root_in, []

    def compared(f, lo, hi):
        root = solve(f, lo, hi)
        ref, n_ref = _brentq_root(f, lo, hi)
        pairs.append(((root.hex(), counts[-1]), (ref.hex(), n_ref)))
        return root

    monkeypatch.setattr(contour, "_root_in", compared)
    monkeypatch.setattr(mesh, "_root_in", compared)
    mesh.triangulate(mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-4),
                     n_levels=8, n_stations=32)
    n_mesh = len(pairs)
    contour.trace_contours(power_half, [1.0, 2.5, 3.0], n=64)
    # the trace: three upper axis crossings, the lower one of level 1 and
    # the radius floors of the two cusp levels
    assert n_mesh >= 50 and len(pairs) - n_mesh == 6
    assert [port for port, _ in pairs] == [ref for _, ref in pairs]


def test_root_in_failures_are_accuracy_errors():
    from scipy.optimize import brentq

    # x^3 on [-1, 2] needs more than 100 steps to shrink its bracket to
    # 1e-300 about the root 0, where brentq raises RuntimeError; the best
    # estimate is brentq's last point
    cube = lambda x: x ** 3
    tols = dict(xtol=1e-300, rtol=4.0 * contour.EPS)
    with pytest.raises(RuntimeError):
        brentq(cube, -1.0, 2.0, **tols)
    with pytest.raises(AccuracyError, match="no convergence in 100 steps") as err:
        contour._root_in(cube, -1.0, 2.0)
    assert err.value.best_estimate == brentq(cube, -1.0, 2.0, disp=False, **tols)
    # a nan inside the bracket, where brentq raises ValueError
    holed = lambda x: math.nan if abs(x) < 0.5 else x
    with pytest.raises(ValueError):
        brentq(holed, -1.0, 1.0)
    with pytest.raises(AccuracyError, match="nan at x=0.0"):
        contour._root_in(holed, -1.0, 1.0)
