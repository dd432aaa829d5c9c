import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab import density, potential
from cusplab.errors import AccuracyError, DomainError, InputError

# frozen oracle values: antiderivative of the linear density gives
# V(r, 0) = sqrt(1 + r^2) - r, and on the axis above the rod
# V(0, z) = z log(z / (z - 1)) - 1
SQRT2_M1 = math.sqrt(2.0) - 1.0
V_AXIS_2 = 2.0 * math.log(2.0) - 1.0
V_FAR = math.sqrt(10001.0) - 100.0


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


def test_v00_is_one(leb):
    assert leb.v00 == pytest.approx(1.0, abs=1e-10)


def test_value_at_unit_radius(leb):
    assert leb.value(1.0, 0.0) == pytest.approx(SQRT2_M1, rel=1e-12)
    assert potential.eval_closed_form(1.0, 0.0) == pytest.approx(SQRT2_M1, rel=1e-12)


def test_axis_value_above_rod(leb):
    assert leb.value(0.0, 2.0) == pytest.approx(V_AXIS_2, rel=1e-12)


def test_far_field_decay(leb):
    assert leb.value(100.0, 0.0) == pytest.approx(V_FAR, rel=1e-10)


def test_rod_points_hit_infinity_sentinel(leb):
    assert leb.value(0.0, 0.5) == math.inf
    assert leb.value(0.0, 1.0) == math.inf


def test_closed_form_raises_on_rod():
    with pytest.raises(DomainError):
        potential.lebesgue_closed_form(0.0, 0.5)


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


def test_kellogg_variant():
    assert potential.eval_closed_form(1.0, 0.0, variant="kellogg") == pytest.approx(1.0)
    with pytest.raises(DomainError):
        potential.kellogg_closed_form(0.0, 0.5)
    with pytest.raises(InputError):
        potential.eval_closed_form(1.0, 0.0, variant="nope")


def test_quadrature_refuses_unresolvable_peak():
    field = potential.PotentialField(density.power_profile(2.0))
    with pytest.raises(AccuracyError):
        field.value(1e-13, 0.5)


def test_power_field_quadrature():
    # rho = z^2: V(0, 2) = integral z^2/(2 - z) dz over [0,1] = 4 log 2 - 5/2
    field = potential.PotentialField(density.power_profile(2.0))
    assert field.value(0.0, 2.0) == pytest.approx(4.0 * math.log(2.0) - 2.5, rel=1e-10)
    assert field.v00 == pytest.approx(0.5, abs=1e-10)


def test_tabulated_field_matches_mpmath_split_at_knots():
    # z^1.5 at 17 knots: a quadrature split only at z stops near 2e-7
    mpmath = pytest.importorskip("mpmath")
    knots = np.linspace(0.0, 1.0, 17)
    samples = np.column_stack([knots, knots ** 1.5])
    field = potential.PotentialField(density.tabulated_profile(samples))
    for r, z in [(0.5, 0.07), (0.05, 0.5), (0.01, 0.3), (0.3, 1.2),
                 (0.2, -0.3)]:
        with mpmath.workdps(30):
            r, z = mpmath.mpf(r), mpmath.mpf(z)
            total = mpmath.mpf(0)
            for (z0, v0), (z1, v1) in zip(samples[:-1], samples[1:]):
                z0, z1, v0 = mpmath.mpf(z0), mpmath.mpf(z1), mpmath.mpf(v0)
                slope = (mpmath.mpf(v1) - v0) / (z1 - z0)
                cuts = [z0, z, z1] if z0 < z < z1 else [z0, z1]
                total += mpmath.quad(lambda s: (v0 + slope * (s - z0))
                                     / mpmath.sqrt((s - z) ** 2 + r * r), cuts)
        assert field.value(float(r), float(z)) == \
            pytest.approx(float(total), rel=1e-10)


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
    assert field.v00 == pytest.approx(total, rel=1e-10)


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

EPS = np.finfo(float).eps
# heights covering every branch: over the rod, both rod ends exactly, below
# and above it, and far enough out for the multipole (s > 300)
HEIGHTS = st.one_of(st.floats(-2.0, 3.0), st.just(0.0), st.just(1.0),
                    st.floats(300.0, 1000.0), st.floats(-1000.0, -300.0))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def _rounding_scale(t, z, v):
    """Size of the terms V is summed from; its rounding error is a few
    ulps of this (the multipole is a short sum of terms of size V)."""
    r = math.exp(t) if t > -745 else 0.0
    if math.hypot(r, z - 2.0 / 3.0) > 300.0:
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
@given(t=st.floats(-700.0, 1.0), z=HEIGHTS)
def test_array_closed_form_matches_scalar(t, z):
    v, slope = potential.lebesgue_value_slope(t, z)
    ref = potential.lebesgue_closed_form(0.0, z, log_r=t)
    # numpy's exp/hypot/log round differently from math's in rare last bits
    assert abs(float(v) - ref) <= 4.0 * EPS * _rounding_scale(t, z, ref)
    assert math.isfinite(float(slope)) and float(slope) <= 0.0


@PROPERTY
@given(t=st.floats(-60.0, 1.0), z=HEIGHTS)
def test_array_closed_form_matches_mpmath(t, z):
    v, slope = potential.lebesgue_value_slope(t, z)
    v_ref, slope_ref = _mpmath_value_slope(t, z)
    if abs(z) < 250.0:
        assert abs(float(v) - v_ref) <= 1e-13 * max(1.0, abs(v_ref))
    else:
        # the multipole (s > 300) truncates at O(s^-3) relative, and just
        # inside s = 300 the exact form cancels a - b of size s to V ~ 1/2s
        assert float(v) == pytest.approx(v_ref, rel=1e-9, abs=0.0)
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
        potential.lebesgue_value_slope(-math.inf, 0.5)
    with pytest.raises(InputError):
        potential.PotentialField(density.power_profile(2.0)).value_slope_log_r(t, 0.25)
