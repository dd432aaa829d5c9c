"""Shared high-precision oracles: V(e^t, z), its slope dV/dt, contour
roots and level heights of any density profile, by mpmath quadrature."""

import numpy as np
import pytest


def _cuts(mpmath, density, z, w):
    """Cut points of [0, L]: the ends, the split point s = clamp(z, 0, L), the
    points s -+ w 100^k (w the distance of the field point from (0, s)), so
    each piece holds the integrand's peak only at an end, and the knots of a
    tabulated density."""
    L = mpmath.mpf(density.length)
    s = min(max(z, mpmath.mpf(0)), L)
    cuts = {mpmath.mpf(0), L, s}
    step = w
    while step < L:
        cuts.update(c for c in (s - step, s + step) if 0 < c < L)
        step *= 100
    if density.kind == "tabulated":
        cuts.update(mpmath.mpf(float(k)) for k in density.samples[:, 0])
    return sorted(c for c in cuts if 0 <= c <= L)


def _rho(mpmath, density, a, b):
    """rho at mpf arguments on the piece [a, b]; a tabulated density is one
    linear function there."""
    if density.kind == "lebesgue":
        return lambda x: x
    if density.kind == "power":
        p = mpmath.mpf(density.power)
        return lambda x: x ** p
    knots = density.samples
    i = min(int(np.searchsorted(knots[:, 0], float((a + b) / 2))), len(knots) - 1)
    (z0, v0), (z1, v1) = [[mpmath.mpf(float(x)) for x in row] for row in knots[i - 1:i + 1]]
    return lambda x: v0 + (v1 - v0) * (x - z0) / (z1 - z0)


def _integral(mpmath, density, t, z, power):
    """integral_0^L rho(zeta) ((zeta - z)^2 + r^2)^(-power) dzeta, r = e^t,
    at the working precision."""
    r = mpmath.exp(t)
    L = mpmath.mpf(density.length)
    w = mpmath.sqrt(r * r + (z - min(max(z, 0), L)) ** 2)
    cuts = _cuts(mpmath, density, z, w)
    total = mpmath.mpf(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        rho = _rho(mpmath, density, a, b)
        total += mpmath.quad(lambda x: rho(x) / ((x - z) ** 2 + r * r) ** power, [a, b])
    return total


def _mp_value_slope(density, t, z, dps=50):
    """V(e^t, z) and dV/dt = -r^2 integral rho ((zeta - z)^2 + r^2)^(-3/2),
    computed at dps digits and returned as floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        t, z = mpmath.mpf(t), mpmath.mpf(z)
        half, three_halves = mpmath.mpf(1) / 2, mpmath.mpf(3) / 2
        return (float(_integral(mpmath, density, t, z, half)),
                float(-mpmath.exp(2 * t) * _integral(mpmath, density, t, z, three_halves)))


def _mp_log_radius(density, c, z, t0, dps=30):
    """The root t of V(e^t, z) = c at dps digits, by the secant method from
    t0, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        z, c, half = mpmath.mpf(z), mpmath.mpf(c), mpmath.mpf(1) / 2
        return float(mpmath.findroot(
            lambda t: _integral(mpmath, density, t, z, half) - c, mpmath.mpf(t0)))


def _mp_level_height(density, c, t, z0, dps=30):
    """The root z of V(e^t, z) = c at dps digits, by the secant method from
    z0 and a point 1e-9 relative from it, as a float; t = -inf puts the
    points on the axis (r = 0)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        t, c, half = mpmath.mpf(t), mpmath.mpf(c), mpmath.mpf(1) / 2
        return float(mpmath.findroot(
            lambda z: _integral(mpmath, density, t, z, half) - c,
            (mpmath.mpf(z0), mpmath.mpf(z0) * (1 + mpmath.mpf(1e-9)))))


@pytest.fixture(scope="session")
def mp_value_slope():
    """(density, t, z) -> V(e^t, z) and dV/dt from 50-digit mpmath."""
    return _mp_value_slope


@pytest.fixture(scope="session")
def mp_log_radius():
    """(density, c, z, t0) -> the 30-digit root of V(e^t, z) = c near t0."""
    return _mp_log_radius


@pytest.fixture(scope="session")
def mp_level_height():
    """(density, c, t, z0) -> the 30-digit height z of V(e^t, z) = c near z0."""
    return _mp_level_height


@pytest.fixture
def root_evaluations(monkeypatch):
    """Route cusplab's bracketed scalar solver through a wrapper that
    records, per solve, how often it evaluates its function (the two
    bracket ends included); the fixture is that list of counts."""
    from cusplab import contour, mesh

    counts = []
    solve = contour._root_in

    def counted(f, lo, hi):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)

        return solve(g, lo, hi)

    monkeypatch.setattr(contour, "_root_in", counted)
    monkeypatch.setattr(mesh, "_root_in", counted)
    return counts
