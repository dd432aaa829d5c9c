"""Dyadic log-series regularity test for rotational cusp profiles.

For a domain in R^3 whose inward cusp is the surface of revolution of a
monotone contour function r(z), the tip is singular exactly when the series
sum_j 1/|log r(q^j)| converges (q in (0,1) arbitrary).  The raw logarithms
are negative because r < 1 near the tip; we take absolute values, which is
the evident sign convention for the test.

Profiles are given in log space, so radii may dive below the
double-precision floor (e.g. the lebesgue level-2 contour): as a
LogRadiusProfile (log r on arrays of heights) or a traced ContourCurve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tails
from .contour import ContourCurve, log_radius_at
from .errors import DomainError, InputError

SINGULAR = "singular"
REGULAR = "regular"
INCONCLUSIVE = "inconclusive"

_CLASS_OF_TAIL = {tails.CONVERGENT: SINGULAR, tails.DIVERGENT: REGULAR,
                  tails.INCONCLUSIVE: INCONCLUSIVE}


@dataclass
class WienerReport:
    """Terms 1/|log r(q^j)|, their partial sums, and the verdict."""

    profile_name: str
    q: float
    j_start: int
    terms: np.ndarray
    partial_sums: np.ndarray
    classification: str
    fit: tails.TailFit | None = None


@dataclass(frozen=True)
class LogRadiusProfile:
    """A contour profile given in log space: log_r maps an array of heights
    z to the array of log r(z)."""

    name: str
    log_r: Callable


def _as_log_radius_fn(profile):
    """Normalize the profile argument to (name, callable z -> log r(z) on
    arrays of z)."""
    if isinstance(profile, LogRadiusProfile):
        return profile.name, profile.log_r
    if isinstance(profile, ContourCurve):
        zs = profile.interior[:, 0]
        ts = profile.log_r[1:-1]

        def log_r(z):
            outside = (z < zs[0]) | (z > zs[-1])
            if outside.any():
                raise DomainError(f"z={z[np.argmax(outside)]} outside the "
                                  "traced contour range")
            return np.interp(z, zs, ts)

        return f"contour-level-{profile.level:g}", log_r
    raise InputError("profile must be a LogRadiusProfile or a ContourCurve")


def named_profile(name):
    """Example contour profiles, all in log space.

    "z^-logz"    : r(z) = z^{-log z} = e^{-(log z)^2}   (singular tip)
    "(-logz)^logz": r(z) = (-log z)^{log z}             (regular tip)
    "z^3"        : polynomial decay                     (regular tip)
    """
    if name == "z^-logz":
        return LogRadiusProfile(name, lambda z: -np.log(z) ** 2)
    if name == "(-logz)^logz":
        return LogRadiusProfile(name, lambda z: np.log(z) * np.log(-np.log(z)))
    if name == "z^3":
        return LogRadiusProfile(name, lambda z: 3.0 * np.log(z))
    raise InputError(f"unknown example profile {name!r}")


def lebesgue_contour_profile(field, c):
    """log r_c(z) for a level c > V(0,0) of a rod potential, resolved by the
    log-space root-finder (valid arbitrarily deep in the cusp), all heights
    in one batch."""
    if c <= field.v00:
        raise InputError("cusp profiles need a level above V(0,0)")
    return LogRadiusProfile(f"rod-contour-{c:g}",
                            lambda z: log_radius_at(field, c, z))


def log_series(profile, q, j_start=2, j_stop=64):
    """Terms t_j = 1/|log r(q^j)| for j in [j_start, j_stop]."""
    if not 0.0 < q < 1.0:
        raise InputError("q must lie in (0, 1)")
    if j_stop < j_start:
        raise InputError("empty j range")
    if q ** j_stop == 0.0:
        raise InputError(f"q^j_stop = {q}^{j_stop} underflows to 0: no "
                         "profile height to read there")
    name, log_r = _as_log_radius_fn(profile)
    js = np.arange(j_start, j_stop + 1)
    ts = log_r(q ** js.astype(float))
    above = ts >= 0.0
    if above.any():
        raise DomainError(f"r(q^{js[np.argmax(above)]}) >= 1; the log-series "
                          "test needs radii below 1")
    terms = 1.0 / np.abs(ts)
    return WienerReport(profile_name=name, q=q, j_start=int(j_start),
                        terms=terms, partial_sums=np.cumsum(terms),
                        classification=INCONCLUSIVE)


def classify(rep):
    """Attach a convergence verdict to a WienerReport's terms (>= 20 terms)
    and return it.

    Convergence of the series means a *singular* tip; divergence means a
    regular one.
    """
    if len(rep.terms) < 20:
        raise InputError("classification needs at least 20 terms")
    rep.fit = tails.fit_tail(rep.terms, first_index=rep.j_start)
    rep.classification = _CLASS_OF_TAIL[rep.fit.classification]
    return rep.classification


def analyze(profile, q, j_start=2, j_stop=64):
    """log_series followed by classify, returning the full report."""
    rep = log_series(profile, q, j_start=j_start, j_stop=j_stop)
    classify(rep)
    return rep
