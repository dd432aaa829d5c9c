import math
import re
import warnings

import numpy as np
import pytest

from cusplab import density
from cusplab.errors import DomainError, InputError


def test_lebesgue_midpoint():
    assert density.lebesgue_profile()(0.5) == 0.5


def test_density_vanishes_at_origin():
    assert density.lebesgue_profile()(0.0) == 0.0


def test_power_profile():
    assert density.power_profile(2.0)(0.5) == 0.25


def test_out_of_range_argument():
    with pytest.raises(DomainError):
        density.lebesgue_profile()(1.5)
    with pytest.raises(DomainError):
        density.lebesgue_profile()(-0.1)


def test_a_nan_argument_hides_no_bad_one():
    # a nan among the arguments once read nan as their min and max, so the
    # range check let -0.1 and 2.0 pass; a lone nan still reads nan
    for rho in (density.power_profile(0.5), density.lebesgue_profile()):
        for bad in (-0.1, 2.0):
            with pytest.raises(DomainError, match=f"argument {bad} outside"):
                rho(np.array([np.nan, bad]))
        assert np.isnan(rho(np.nan))
        assert np.isnan(rho(np.array([np.nan, 0.25]))[0])


def test_tabulated_interpolates_linearly():
    prof = density.tabulated_profile([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)])
    assert prof(0.25) == pytest.approx(0.5)
    assert prof.length == 1.0


def test_invalid_profiles_rejected():
    with pytest.raises(InputError):
        density.power_profile(-1.0)
    with pytest.raises(InputError):
        density.tabulated_profile([(0.0, 0.1), (1.0, 1.0)])   # rho(0) != 0
    with pytest.raises(InputError):
        density.tabulated_profile([(0.0, 0.0), (0.5, -1.0), (1.0, 1.0)])


@pytest.mark.parametrize("make, detail", [
    (lambda: density.power_profile(math.nan), "finite exponent p > 0, got nan"),
    (lambda: density.power_profile(math.inf), "finite exponent p > 0, got inf"),
    (lambda: density.power_profile(0.0), "finite exponent p > 0, got 0.0"),
    (lambda: density.tabulated_profile([(0.0, 0.0), (0.5, math.nan), (1.0, 1.0)]),
     "tabulated samples must be finite"),
    (lambda: density.tabulated_profile([(0.0, 0.0), (0.5, math.inf), (1.0, 1.0)]),
     "tabulated samples must be finite"),
    (lambda: density.tabulated_profile([(0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)]),
     "tabulated samples must be finite"),
], ids=["nan-p", "inf-p", "zero-p", "nan-rho", "inf-rho", "nan-z"])
def test_non_finite_parameters_are_named(make, detail):
    # each was refused before, but for a fault it does not have (rho(0) != 0,
    # rho <= 0 somewhere, a divergent integral after RuntimeWarnings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(detail)):
            make()


@pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -1.0])
def test_rod_length_must_be_positive_and_finite(length):
    # a nan or infinite length would make V(0, 0) read nan or inf
    with pytest.raises(InputError, match="rod length must be positive and finite"):
        density.power_profile(0.5, length=length)


def test_lebesgue_is_dini_with_unit_integral():
    # omega(t) = t, so the scale integral over (0, 1] equals 1
    rep = density.dini_report(density.lebesgue_profile())
    assert rep.classification == "dini"
    assert rep.integral_estimate == pytest.approx(1.0, abs=0.05)
    t = rep.modulus[:, 0]
    assert np.allclose(rep.modulus[:, 1], t, rtol=0.05)


def test_power_half_is_dini():
    # Hoelder 1/2 continuity implies Dini continuity
    rep = density.dini_report(density.power_profile(0.5))
    assert rep.classification == "dini"


def _log_profile_samples():
    z = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 400)])
    rho = np.concatenate([[0.0], 1.0 / np.maximum(1.0, -np.log(z[1:]))])
    return np.column_stack([z, rho])


def test_reciprocal_log_profile_is_not_dini():
    # oracle: omega(t) ~ 1/|log t| and sum of per-step increments
    # integral_{t/step}^{t} dt/(t |log t|) ~ const/k grows like a harmonic sum
    grid = np.geomspace(1e-12, 1.0, 97)
    prof = density.tabulated_profile(_log_profile_samples())
    rep = density.dini_report(prof, t_grid=grid)
    assert rep.classification == "not-dini"


def test_modulus_is_monotone_nonnegative():
    prof = density.tabulated_profile([(0.0, 0.0), (0.3, 0.7), (0.6, 0.2), (1.0, 0.9)])
    rep = density.dini_report(prof)
    omega = rep.modulus[:, 1]
    assert np.all(omega >= 0)
    assert np.all(np.diff(omega) >= 0)
