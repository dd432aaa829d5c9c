import math
import warnings

import numpy as np
import pytest

from cusplab import density, potential, tails, wiener
from cusplab.errors import DomainError, InputError


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


def test_term_formula_squared_log():
    # r(z) = z^{-log z}: t_j = 1/(j log(1/q))^2, a convergent p-series
    rep = wiener.log_series(wiener.named_profile("z^-logz"), 0.5,
                            j_start=1, j_stop=40)
    expect = 1.0 / (np.arange(1, 41) * math.log(2.0)) ** 2
    assert np.allclose(rep.terms, expect, rtol=1e-12)


def test_underflowing_height_refused_before_the_profile_is_read():
    # 0.5^j underflows to 0 from j = 1075, where log r(0) would warn
    profile = wiener.named_profile("z^-logz")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="underflows to 0"):
            wiener.log_series(profile, 0.5, j_stop=1075)
        assert len(wiener.log_series(profile, 0.5, j_stop=1074).terms) == 1073


def test_term_formula_log_power():
    # r(z) = (-log z)^{log z}: t_j = 1/(j log(1/q) log(j log(1/q)))
    rep = wiener.log_series(wiener.named_profile("(-logz)^logz"), 0.5,
                            j_start=2, j_stop=40)
    j = np.arange(2, 41) * math.log(2.0)
    assert np.allclose(rep.terms, 1.0 / (j * np.log(j)), rtol=1e-12)


def test_singular_profile():
    rep = wiener.analyze(wiener.named_profile("z^-logz"), 0.5,
                         j_start=1, j_stop=80)
    assert rep.classification == "singular"


def test_regular_profile():
    rep = wiener.analyze(wiener.named_profile("(-logz)^logz"), 0.5,
                         j_start=2, j_stop=160)
    assert rep.classification == "regular"


def test_polynomial_profile_regular():
    rep = wiener.analyze(wiener.named_profile("z^3"), 0.5,
                         j_start=1, j_stop=80)
    assert rep.classification == "regular"


def test_lebesgue_cusp_singular(leb):
    prof = wiener.lebesgue_contour_profile(leb, 2.0)
    rep = wiener.analyze(prof, 0.5, j_start=2, j_stop=40)
    assert rep.classification == "singular"
    # the cusp band makes the terms eventually geometric: t_j <= q^j / alpha
    tail = rep.terms[10:]
    js = np.arange(2, 41)[10:]
    assert np.all(tail <= 0.5 ** js / 0.4)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_q_robustness(q, leb):
    j0 = {0.3: 1, 0.5: 2, 0.7: 3}[q]   # first j with r(q^j) < 1
    assert wiener.analyze(wiener.named_profile("z^-logz"), q,
                          j_start=1, j_stop=80).classification == "singular"
    assert wiener.analyze(wiener.named_profile("(-logz)^logz"), q,
                          j_start=j0, j_stop=160).classification == "regular"
    assert wiener.analyze(wiener.named_profile("z^3"), q,
                          j_start=1, j_stop=80).classification == "regular"
    prof = wiener.lebesgue_contour_profile(leb, 2.0)
    assert wiener.analyze(prof, q, j_start=j0 + 1,
                          j_stop=45).classification == "singular"


def test_partial_sums_monotone():
    rep = wiener.log_series(wiener.named_profile("z^3"), 0.5, j_start=1, j_stop=30)
    assert np.all(rep.terms > 0)
    assert np.all(np.diff(rep.partial_sums) > 0)


def test_extension_never_flips_singular_to_regular():
    short = wiener.analyze(wiener.named_profile("z^-logz"), 0.5, j_start=1, j_stop=40)
    long = wiener.analyze(wiener.named_profile("z^-logz"), 0.5, j_start=1, j_stop=120)
    assert short.classification == long.classification == "singular"


def test_radius_above_one_rejected():
    # (-log z)^{log z} exceeds 1 for z > 1/e, i.e. for j too small
    with pytest.raises(DomainError):
        wiener.log_series(wiener.named_profile("(-logz)^logz"), 0.5,
                          j_start=1, j_stop=30)


def test_too_few_terms_rejected():
    rep = wiener.log_series(wiener.named_profile("z^3"), 0.5, j_start=1, j_stop=15)
    with pytest.raises(InputError):
        wiener.classify(rep)


@pytest.mark.parametrize("j_stop", [11, 5])
def test_refused_report_keeps_no_verdict(j_stop):
    # 10 and 4 terms: the length check comes before any tail fit, so the
    # report keeps no fit and its verdict stays inconclusive
    rep = wiener.log_series(wiener.named_profile("z^-logz"), 0.5, 2, j_stop)
    with pytest.raises(InputError, match="at least 20 terms"):
        wiener.classify(rep)
    assert rep.fit is None
    assert rep.classification == wiener.INCONCLUSIVE


def test_tail_rules_after_the_power_rule():
    # fit_tail reads the second half of its terms; first_index = -19 puts
    # it at j = 1..20.  Each step shrinks by the factor 0.96, the one after
    # j = 15 by 0.096: too steep at the end for the floor rule (floor ratio
    # 0.77 < 0.85), too shallow in log j for the power rule (p ~ 0.98), so
    # the geometric rule answers.  One step that does not shrink leaves no
    # rule to answer
    j = np.arange(1, 21)
    tail = 0.96 ** j * np.where(j > 15, 0.1, 1.0)
    fit = tails.fit_tail(np.concatenate([np.ones(20), tail]), first_index=-19)
    assert fit.classification == tails.CONVERGENT
    assert fit.notes.startswith("dominated by c*rho^j")
    assert fit.power_exponent <= 1.1 and fit.floor_ratio < 0.85
    tail[5] = tail[4]
    fit = tails.fit_tail(np.concatenate([np.ones(20), tail]), first_index=-19)
    assert fit.classification == tails.INCONCLUSIVE
    assert fit.notes == "no rule matched; refusing to guess"
    assert fit.geometric_ratio <= 0.97


def test_q_validation():
    with pytest.raises(InputError):
        wiener.log_series(wiener.named_profile("z^3"), 1.5)
