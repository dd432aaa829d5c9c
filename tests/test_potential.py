import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cusplab import contour, density, potential
from cusplab.errors import AccuracyError, DomainError, InputError, RangeError

# frozen oracle values: antiderivative of the linear density gives
# V(r, 0) = sqrt(1 + r^2) - r, and on the axis above the rod
# V(0, z) = z log(z / (z - 1)) - 1
SQRT2_M1 = math.sqrt(2.0) - 1.0
V_AXIS_2 = 2.0 * math.log(2.0) - 1.0
V_FAR = math.sqrt(10001.0) - 100.0
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


def test_v00_is_one(leb):
    assert leb.v00 == pytest.approx(1.0, abs=1e-10)


def test_value_at_unit_radius(leb):
    assert leb.value(1.0, 0.0) == pytest.approx(SQRT2_M1, rel=1e-12)
    assert potential.lebesgue_closed_form(0.0, 0.0) == pytest.approx(SQRT2_M1, rel=1e-12)


def test_axis_value_above_rod(leb):
    assert leb.value(0.0, 2.0) == pytest.approx(V_AXIS_2, rel=1e-12)


def test_far_field_decay(leb):
    assert leb.value(100.0, 0.0) == pytest.approx(V_FAR, rel=1e-10)


def test_rod_points_hit_infinity_sentinel(leb):
    assert leb.value(0.0, 0.5) == math.inf
    assert leb.value(0.0, 1.0) == math.inf


RODS = {"lebesgue": density.lebesgue_profile(), "power 1/2": density.power_profile(0.5)}


@pytest.mark.parametrize("name", sorted(RODS))
def test_scalar_door_reads_inf_and_array_door_raises_on_the_rod(name):
    field = potential.PotentialField(RODS[name])
    assert field.value(0.0, 0.5) == math.inf
    assert field.value_log_r(-math.inf, 0.5) == math.inf
    assert field.value_by_quadrature(0.0, 0.5) == math.inf
    with pytest.raises(DomainError):
        field.value_slope_log_r(-math.inf, 0.5)


def test_monotone_decrease_in_r(leb):
    assert leb.value(0.5, 0.0) > leb.value(1.0, 0.0)
    for z in (-0.3, 0.0, 0.4, 1.2):
        r = np.geomspace(1e-3, 10.0, 25)
        vals = [leb.value(ri, z) for ri in r]
        assert np.all(np.diff(vals) < 0), f"V(., {z}) not strictly decreasing"


def test_quadrature_matches_closed_form(leb):
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(0.0, 3.0)
        z = rng.uniform(-1.0, 3.0)
        if r < 1e-3 and 0.0 <= z <= 1.0:
            continue
        ref = leb.value(r, z)
        quad = leb.value_by_quadrature(r, z)
        assert quad == pytest.approx(ref, rel=1e-8)


def test_tiny_radius_is_stable(leb):
    # deep in the cusp the log-space identity must keep the value finite;
    # oracle (400-digit arithmetic): V(e^{-250}, 1e-3) = 1.49247753858180417
    v = leb.value(math.exp(-250.0), 1e-3)
    assert math.isfinite(v)
    assert v == pytest.approx(1.49247753858180417, rel=1e-12)
    # and far below the underflow threshold via the log-radius entry
    v2 = leb.value_log_r(-2500.0, 1e-4)
    assert math.isfinite(v2)


def test_lanes_next_to_the_rod_match_mpmath(mp_value_slope):
    # r = 1e-13 lies below the switch radius 5e-13 at z = 0.5, where V is
    # continued linearly in log r, and on the axis above the rod at z = 2
    field = potential.PotentialField(density.power_profile(2.0))
    t = np.log([1e-13, 1e-13, 1e-3])
    z = [0.5, 2.0, 0.5]
    v, slope = field.value_slope_log_r(t, z)
    for tk, zk, vk, sk in zip(t, z, v, slope):
        v_ref, slope_ref = mp_value_slope(field.density, tk, zk)
        assert vk == pytest.approx(v_ref, rel=1e-12, abs=0.0)
        assert sk == pytest.approx(slope_ref, rel=1e-12, abs=0.0)
    assert v.tolist() == [field.value(1e-13, 0.5), field.value(1e-13, 2.0),
                          field.value(1e-3, 0.5)]


def test_nan_estimate_raises():
    # a density of up to 1e308 overflows both panel rules: their sums read
    # inf, so the error estimate is nan, which must not pass the accuracy
    # check
    field = potential.PotentialField(density.tabulated_profile([(0.0, 0.0),
                                                                (1.0, 1e308)]))
    with np.errstate(all="ignore"):
        with pytest.raises(AccuracyError, match="error nan"):
            field.value(0.5, 0.5)
        with pytest.raises(AccuracyError, match="error nan"):
            field.value_slope_log_r(math.log(1e-3), 0.2)


def test_underflowing_peak_square_raises_range_error():
    # the peak widths 1e-300 and 1e-170 are normal, but their squares
    # underflow, so the integrand would divide by 0 and its estimate read
    # nan: the range check names the lane before numpy warns
    field = potential.PotentialField(density.power_profile(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"V\(9\.8\d*e-305, -1e-300\): "
                                             "the peak width is below"):
            field.value_slope_log_r(-700.0, -1e-300)
        with pytest.raises(RangeError, match=r"V\(0\.0, -1e-300\)"):
            field.value(0.0, -1e-300)
        with pytest.raises(RangeError, match=r"-1e-170\)"):
            field.value_slope_log_r(math.log(1e-200), -1e-170)
    # at twice the floor V is the limit V(0,0); the slope sum that r^2 = 0
    # multiplies overflows
    with np.errstate(over="ignore"):
        v = field.value(0.0, -2.0 * potential.MIN_PEAK_WIDTH)
    assert v == pytest.approx(field.v00, rel=1e-12)


def test_power_field_quadrature():
    # rho = z^2: V(0, 2) = integral z^2/(2 - z) dz over [0,1] = 4 log 2 - 5/2
    field = potential.PotentialField(density.power_profile(2.0))
    assert field.value(0.0, 2.0) == pytest.approx(4.0 * math.log(2.0) - 2.5, rel=1e-14)
    assert field.value(0.0, 0.0) == field.v00


@pytest.mark.parametrize("p", [0.3, 0.5, 2.0])
def test_v00_is_the_exact_criticality_integral(p):
    # integral_0^L zeta^(p-1) dzeta = L^p / p
    for length in (1.0, 2.5):
        field = potential.PotentialField(density.power_profile(p, length=length))
        assert field.v00 == pytest.approx(length ** p / p, rel=2 * EPS, abs=0.0)


def test_tabulated_field_matches_mpmath_split_at_knots(mp_value_slope):
    # z^1.5 at 17 knots: a quadrature split only at z stops near 2e-7
    knots = np.linspace(0.0, 1.0, 17)
    rod = density.tabulated_profile(np.column_stack([knots, knots ** 1.5]))
    field = potential.PotentialField(rod)
    for r, z in [(0.5, 0.07), (0.05, 0.5), (0.01, 0.3), (0.3, 1.2),
                 (0.2, -0.3)]:
        ref = mp_value_slope(rod, math.log(r), z)[0]
        assert field.value(r, z) == pytest.approx(ref, rel=1e-10)


def test_tabulated_v00_split_at_knots():
    # z^1.5 at 250 knots: V(0,0) = integral rho(zeta)/zeta, exact per piece
    knots = np.linspace(0.0, 1.0, 250)
    samples = np.column_stack([knots, knots ** 1.5])
    field = potential.PotentialField(density.tabulated_profile(samples))
    total = 0.0
    for (z0, v0), (z1, v1) in zip(samples[:-1], samples[1:]):
        b = (v1 - v0) / (z1 - z0)
        a = v0 - b * z0
        total += b * (z1 - z0) + (a * math.log(z1 / z0) if z0 > 0 else 0.0)
    assert field.v00 == pytest.approx(total, rel=1e-14, abs=0.0)


def test_sector_bound_alpha_zero(leb):
    rng = np.random.default_rng(3)
    pts = [(rng.uniform(0.05, 3.0), -rng.uniform(0.0, 2.0)) for _ in range(100)]
    rep = potential.sector_bound_check(leb, 0.0, pts)
    assert rep.passed
    assert rep.bound == pytest.approx(1.0, abs=1e-10)
    assert rep.max_observed <= 1.0 + 1e-9


def test_sector_bound_quarter_pi(leb):
    rng = np.random.default_rng(4)
    pts = []
    while len(pts) < 100:
        r = rng.uniform(0.01, 2.0)
        z = rng.uniform(-1.0, r)      # z <= tan(pi/4) r = r
        pts.append((r, z))
    rep = potential.sector_bound_check(leb, math.pi / 4.0, pts)
    assert rep.passed
    assert rep.bound == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_sector_precondition_violation(leb):
    with pytest.raises(InputError):
        potential.sector_bound_check(leb, 0.0, [(1.0, -0.5), (0.5, 0.2)])


def test_sector_continuity_at_origin(leb):
    # V along a sector sequence approaching (0,0) converges to V(0,0)
    scale = 2.0 ** -np.arange(2, 24)
    dev = np.array([abs(leb.value(s, -0.5 * s) - leb.v00) for s in scale])
    assert dev[-1] < 1e-5
    assert dev[-1] < dev[0]


# -- array closed form: V and its slope dV/dt in t = log r -------------------

# heights covering every branch: over the rod, both rod ends exactly, below
# and above it, and on both sides of the multipole switch at s = 8
HEIGHTS = st.one_of(st.floats(-2.0, 3.0), st.just(0.0), st.just(1.0),
                    st.floats(4.0, 20.0), st.floats(-20.0, -4.0),
                    st.floats(20.0, 1000.0), st.floats(-1000.0, -20.0))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def _rounding_scale(t, z, v):
    """Size of the terms V is summed from; its rounding error is a few
    ulps of this (the multipole is a short sum of terms of size V)."""
    r = math.exp(t) if t > -745 else 0.0
    if math.hypot(r, z - 2.0 / 3.0) > potential.MULTIPOLE_RADIUS:
        return abs(v)
    return abs(v) + math.hypot(1.0 - z, r) + math.hypot(z, r) \
        + abs(z) * (2.0 * abs(t) + 10.0)


def _mpmath_value_slope(t, z):
    """V = a - b + z (asinh((1 - z)/r) + asinh(z/r)) and r dV/dr at
    enough working digits to keep 50 through the O(r^2) cancellation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(70 + int(2.0 * abs(t) / math.log(10.0))):
        t, z = mpmath.mpf(t), mpmath.mpf(z)
        r = mpmath.exp(t)
        a = mpmath.sqrt((1 - z) ** 2 + r * r)
        b = mpmath.sqrt(z * z + r * r)
        v = a - b + z * (mpmath.asinh((1 - z) / r) + mpmath.asinh(z / r))
        slope = r * r / a - r * r / b - z * ((1 - z) / a + z / b)
        return float(v), float(slope)


@PROPERTY
@given(t=st.floats(-700.0, 7.0), z=HEIGHTS)
def test_array_closed_form_matches_scalar(t, z):
    v, slope = potential.lebesgue_value_slope(t, z)
    ref = potential.lebesgue_closed_form(t, z)
    # numpy's exp/hypot/log round differently from math's in rare last bits
    assert abs(float(v) - ref) <= 4.0 * EPS * _rounding_scale(t, z, ref)
    assert math.isfinite(float(slope)) and float(slope) <= 0.0


@PROPERTY
@given(t=st.floats(-60.0, 7.0), z=HEIGHTS)
def test_array_closed_form_matches_mpmath(t, z):
    v, slope = potential.lebesgue_value_slope(t, z)
    v_ref, slope_ref = _mpmath_value_slope(t, z)
    assert abs(float(v) - v_ref) <= 1e-13 * max(1.0, abs(v_ref))
    # also where V ~ 1/2s is small: the exact form up to s = 8, the
    # multipole beyond
    assert float(v) == pytest.approx(v_ref, rel=1e-12, abs=0.0)
    assert float(slope) == pytest.approx(slope_ref, rel=1e-8, abs=0.0)


def test_slope_off_the_rod_keeps_its_r_squared():
    # off the rod r^2 (1/a - 1/b) - z((1 - z)/a + z/b) cancels to O(r^2):
    # at log r = -20 the plain form even has the wrong sign
    t, z = -20.0, 2.0
    r = math.exp(t)
    a, b = math.hypot(1.0 - z, r), math.hypot(z, r)
    naive = r * r / a - r * r / b - z * ((1.0 - z) / a + z / b)
    _, slope_ref = _mpmath_value_slope(t, z)
    _, slope = potential.lebesgue_value_slope(t, z)
    assert abs(naive - slope_ref) > abs(slope_ref)
    assert float(slope) == pytest.approx(slope_ref, rel=1e-14, abs=0.0)


def test_array_closed_form_broadcasts_and_guards_the_rod(leb):
    t = np.array([-700.0, -20.0, 0.5])
    v, slope = leb.value_slope_log_r(t, 0.25)
    assert v.shape == slope.shape == (3,)
    np.testing.assert_allclose(v, [leb.value_log_r(tk, 0.25) for tk in t],
                               rtol=4.0 * EPS, atol=0.0)
    with pytest.raises(DomainError):
        leb.value_slope_log_r(-math.inf, 0.5)
    # every density has the array form; over the rod it is the quadrature's
    field = potential.PotentialField(density.power_profile(2.0))
    v, slope = field.value_slope_log_r(t[1:, None], np.array([0.25, 1.5]))
    assert v.shape == slope.shape == (2, 2)
    assert v[0, 0] == field.value_log_r(t[1], 0.25)
    with pytest.raises(DomainError):
        field.value_slope_log_r(-math.inf, 0.5)


# -- panel quadrature: V and dV/dt of every other density ----------------------

KNOTS = np.linspace(0.0, 1.0, 17)
QUADRATURE_PROFILES = {
    "power 1/2": density.power_profile(0.5),
    "power 2": density.power_profile(2.0),
    "z^1.5 at 17 knots": density.tabulated_profile(np.column_stack([KNOTS, KNOTS ** 1.5])),
}
# over the rod, at its ends and knots, just off either end and well off it
ROD_HEIGHTS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(KNOTS.tolist()),
                        st.floats(1e-12, 1e-2).map(lambda e: -e),
                        st.floats(1e-12, 1e-2).map(lambda e: 1.0 + e),
                        st.floats(-3.0, 4.0))


@pytest.mark.parametrize("name", sorted(QUADRATURE_PROFILES))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(t=st.floats(math.log(1e-12), math.log(3.0)),
       z=ROD_HEIGHTS)
@example(t=math.log(1e-12), z=1.0)
@example(t=math.log(1e-12), z=0.0)
@example(t=math.log(1e-12), z=0.3125)
@example(t=math.log(1e-12), z=0.7)
@example(t=math.log(1e-12), z=-1e-12)
def test_quadrature_matches_mpmath(name, t, z, mp_value_slope):
    rod = QUADRATURE_PROFILES[name]
    v, slope = potential.PotentialField(rod).value_slope_log_r(t, z)
    v_ref, slope_ref = mp_value_slope(rod, t, z)
    assert float(v) == pytest.approx(v_ref, rel=1e-12, abs=0.0)
    assert float(slope) == pytest.approx(slope_ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(QUADRATURE_PROFILES))
def test_deep_lanes_match_mpmath(name, mp_rod_value_slope):
    # over the rod far below the switch radius NEAR_ROD min(z, L - z), where
    # e^t underflows for t <= -746, at a knot (z = 0.5) and between knots
    rod = QUADRATURE_PROFILES[name]
    field = potential.PotentialField(rod)
    t = np.array([-30.0, -200.0, -600.0, -1000.0])
    for z in [1e-8, 1e-3, 0.3, 0.5, 1.0 - 1e-6]:
        v, slope = field.value_slope_log_r(t, z)
        for tk, vk, sk in zip(t, v, slope):
            v_ref, slope_ref = mp_rod_value_slope(rod, tk, z)
            assert vk == pytest.approx(v_ref, rel=1e-12, abs=0.0), (tk, z)
            assert sk == pytest.approx(slope_ref, rel=1e-12, abs=0.0), (tk, z)
        assert v.tolist() == [field.value_log_r(tk, z) for tk in t]


def test_quadrature_one_lane_forms_agree_with_the_array_form():
    field = potential.PotentialField(QUADRATURE_PROFILES["power 1/2"])
    t = np.array([-25.0, -3.0, 0.5])
    z = np.array([0.5, 1.0 + 1e-9, -0.2])
    v, _ = field.value_slope_log_r(t, z)
    assert v.tolist() == [field.value_log_r(tk, zk) for tk, zk in zip(t, z)]
    assert v.tolist() == [field.value(math.exp(tk), zk) for tk, zk in zip(t, z)]
    assert v.tolist() == [field.value_by_quadrature(math.exp(tk), zk)
                          for tk, zk in zip(t, z)]


# mixed lanes of a root batch: the light end (0, 0), deep lanes far below the
# switch radius (r = 0 where e^t underflows), lanes over the rod, at its ends
# and off it; then steps as a root batch takes them: one that keeps every
# lane's ladder depth, one that moves some, and one that keeps them again
LANE_Z = np.array([0.3, 0.0, 0.5, 0.5, 1e-3, 0.9, -0.4, 1.7, 1.0, 0.7, 0.0])
LANE_T = np.array([-2.0, -np.inf, -60.0, -900.0, -5.0, 0.3, -1.0, -20.0, -8.0, -3.0, -1.5])
LANE_SHIFT = np.where(np.arange(len(LANE_T)) % 2, 0.0, 4.0)
LANE_STEPS = [LANE_T, LANE_T, LANE_T - LANE_SHIFT, LANE_T - LANE_SHIFT]


@pytest.mark.parametrize("name", sorted(QUADRATURE_PROFILES))
def test_lane_state_changes_no_bit(name, monkeypatch):
    # a root batch evaluates through its lane state, which keeps each lane's
    # panel layout under its ladder depth and drops finished lanes: V and
    # dV/dt are those of a stateless evaluation, bit for bit, in chunks (over
    # QUADRATURE_CHUNK lanes or with a lane at (0, 0)) and in one pass, which
    # builds the layouts of only the lanes whose depth moved
    field = potential.PotentialField(QUADRATURE_PROFILES[name])
    built = []
    layout = field._layout
    monkeypatch.setattr(field, "_layout", lambda r, lanes, k: built.append(len(r))
                        or layout(r, lanes, k))
    for reps in (1, potential.QUADRATURE_CHUNK // len(LANE_Z) + 1):
        z = np.tile(LANE_Z, reps)
        lanes = field._lane_state(z)
        open_lanes = np.arange(len(z))
        for step, t in enumerate(LANE_STEPS):
            t = np.tile(t, reps)[open_lanes]
            built.clear()
            got = field.value_slope_log_r(t, z[open_lanes], _lanes=lanes)
            if step == 1:
                assert built == [len(open_lanes)]
            elif step == 2:
                assert 0 < sum(built) < len(open_lanes)
            elif step == 3:
                assert built == []
            want = field.value_slope_log_r(t, z[open_lanes])
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            # drop the (0, 0) lanes and every third lane
            keep = (lanes.z != 0.0) & (np.arange(len(open_lanes)) % 3 != 2)
            lanes.drop(keep)
            open_lanes = open_lanes[keep]
        assert lanes.z.tolist() == z[open_lanes].tolist()


def test_lane_state_raises_as_the_stateless_door():
    # the rod point t = -inf, a radius beyond MAX_LOG_RADIUS and a quadrature
    # short of its target raise the same errors through a lane state, fresh
    # or keeping its layouts, as without one
    rod = QUADRATURE_PROFILES["power 1/2"]
    z = np.array([0.3, 0.5, -0.2])
    fine = np.array([-1.0, -2.0, -3.0])
    cases = [(potential.PotentialField(rod), np.array([-1.0, -np.inf, -3.0]), DomainError),
             (potential.PotentialField(rod), np.array([-1.0, 720.0, -3.0]), RangeError),
             (potential.PotentialField(rod, rel_tol=1e-18), fine, AccuracyError)]
    for field, t, error in cases:
        with pytest.raises(error):
            field.value_slope_log_r(t, z)
        lanes = field._lane_state(z)
        with pytest.raises(error):
            field.value_slope_log_r(t, z, _lanes=lanes)
        if error is not AccuracyError:
            field.value_slope_log_r(fine, z, _lanes=lanes)
            assert lanes.panels is not None
            with pytest.raises(error):
                field.value_slope_log_r(t, z, _lanes=lanes)


@pytest.mark.parametrize("name", sorted(RODS))
def test_nan_radius_is_outside_the_domain(name):
    # a nan radius used to read as r = 0, which is +inf over the rod
    field = potential.PotentialField(RODS[name])
    for door in (field.value, field.value_by_quadrature):
        for z in (0.5, 2.0):
            with pytest.raises(DomainError):
                door(math.nan, z)


@pytest.mark.parametrize("name", sorted(RODS))
def test_a_nan_lane_hides_no_overflow(name):
    # a nan lane once read nan as the largest log-radius, so the overflow
    # check let e^800 pass: the lebesgue rod returned (nan, 0.0) and the
    # power rod failed later, on the peak width of V(inf, 0.5)
    field = potential.PotentialField(RODS[name])
    for t in ([math.nan, 800.0], [800.0, math.nan]):
        with pytest.raises(RangeError, match=r"radius e\^800\.0 at z=0\.5 overflows"):
            field.value_slope_log_r(t, [0.5, 0.5])


def test_single_nan_lanes_keep_their_answers():
    # what a lone nan, or a lone bad lane, reads on the power-1/2 rod
    field = potential.PotentialField(density.power_profile(0.5))
    v, slope = field.value_slope_log_r(math.nan, 0.5)
    assert math.isnan(v) and slope == -2.0 * math.sqrt(0.5)
    with pytest.raises(DomainError, match="rod point"):
        field.value_slope_log_r(-math.inf, 0.5)
    with pytest.raises(RangeError, match=r"radius e\^800\.0 at z=0\.5 overflows"):
        field.value_slope_log_r(800.0, 0.5)
    with pytest.raises(RangeError, match=r"V\(0\.36787944117144233, nan\): the peak width"):
        field.value_slope_log_r(-1.0, math.nan)
    assert math.isnan(field.density(math.nan))
    with pytest.raises(InputError, match="level must be positive"):
        contour.log_radius_at(field, math.nan, 0.5)


def test_unmeetable_tolerance_raises():
    # the estimate is never below one rounding unit of V
    rod = QUADRATURE_PROFILES["power 1/2"]
    with pytest.raises(AccuracyError) as info:
        potential.PotentialField(rod, rel_tol=1e-18).value(0.3, 0.5)
    assert info.value.best_estimate == potential.PotentialField(rod).value(0.3, 0.5)
    # a 1e-12 target is met over the rod, near its ends and off it
    field = potential.PotentialField(rod, rel_tol=1e-12)
    for r, z in [(1e-12, 0.5), (1e-12, 1.0), (1e-9, 1e-9), (1e-3, -1e-9), (2.0, 3.0)]:
        assert math.isfinite(field.value(r, z))


def test_slope_is_zero_next_to_the_axis_off_the_rod():
    # within about 1e-103 of a rod end the quadrature's slope sum overflows;
    # where r^2 underflows it used to read 0 * inf = nan.  V(0, z) tends to
    # V(0,0) = 2 below the power-1/2 rod.  Above the rod the nearest station,
    # 1 + 2.2e-16 (1 + 1e-110 rounds to the rod end 1.0), reads 0 as well
    field = potential.PotentialField(QUADRATURE_PROFILES["power 1/2"])
    zs = np.array([-1e-103, -1e-110, -1e-130, -1e-160, np.nextafter(1.0, 2.0)])
    for t in (-800.0, -460.0):            # r = 0, and r = 1e-200 with r^2 = 0
        with np.errstate(over="ignore"):  # the sum that r^2 multiplies
            v, slope = field.value_slope_log_r(np.full(len(zs), t), zs)
        assert v[:4] == pytest.approx(field.v00, rel=1e-12, abs=0.0)
        assert slope.tolist() == [0.0] * len(zs)


def test_subnormal_grading_depth_raises_range_error():
    # the peak width is 1e-310 off the rod end and NEAR_ROD * 1e-300 = 1e-312
    # over it: top / depth would overflow the panel count
    field = potential.PotentialField(QUADRATURE_PROFILES["power 1/2"])
    with pytest.raises(RangeError, match=r"V\(0\.0, -1e-310\)"):
        field.value(0.0, -1e-310)
    with pytest.raises(RangeError, match=r"1e-300\)"):
        field.value_slope_log_r(-800.0, 1e-300)


@pytest.mark.parametrize("name", sorted(RODS))
@pytest.mark.parametrize("t", [300.0, 356.0, 400.0, 710.0, 800.0])
def test_doors_agree_at_huge_radii(name, t):
    # the quadrature's r^3 overflows from t = 236.6 (its slope terms would
    # underflow, and from t = 355 so would V's) and e^t from t = 709.8; the
    # lebesgue closed form reads V ~ 1/(2 e^t) until e^t overflows
    field = potential.PotentialField(RODS[name])
    if name == "lebesgue" and t < potential.MAX_LOG_RADIUS:
        v, slope = field.value_slope_log_r(t, 0.5)
        assert float(v) == pytest.approx(field.value_log_r(t, 0.5), rel=4.0 * EPS)
        assert float(v) == pytest.approx(0.5 * math.exp(-t), rel=1e-12)
        assert float(slope) == pytest.approx(-float(v), rel=1e-12)
        return
    with pytest.raises(RangeError):
        field.value_log_r(t, 0.5)
    with pytest.raises(RangeError):
        field.value_slope_log_r(t, 0.5)


@pytest.mark.parametrize("name", sorted(QUADRATURE_PROFILES))
def test_error_estimate_stays_at_the_rounding_level(name):
    # 1000 seeded lanes over the rod, near its ends and off it meet a 1e-13
    # target; r = 0.474 at z = 0.1548 once put a grading point 0.0048 from
    # the branch point of zeta^p with a long panel beyond it (error 4e-14,
    # estimate 2.4e-11)
    rng = np.random.default_rng(11)
    n = 1000
    t = np.append(rng.uniform(math.log(1e-12), math.log(30.0), n), -0.7461296042688413)
    z = np.append(np.select(
        [np.arange(n) % 4 == k for k in range(3)],
        [rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-12.0, 0.0, n),
         1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 0.0, n)],
        rng.uniform(-3.0, 4.0, n)), 0.15479854499049944)
    field = potential.PotentialField(QUADRATURE_PROFILES[name], rel_tol=1e-14)
    v, _ = field.value_slope_log_r(t, z)
    assert np.all(np.isfinite(v))


def test_error_estimate_flags_an_ungraded_rule(monkeypatch):
    # without the graded panels the peak of width r = 1e-6 is missed, and the
    # estimate says so
    field = potential.PotentialField(QUADRATURE_PROFILES["power 2"])
    assert math.isfinite(field.value(1e-6, 0.5))
    monkeypatch.setattr(potential, "_graded_offsets",
                        lambda top, depth: np.empty((len(depth), 0)))
    with pytest.raises(AccuracyError):
        field.value(1e-6, 0.5)
