import math

import numpy as np
import pytest

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
