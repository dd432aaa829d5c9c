import math

import numpy as np
import pytest

from cusplab import density, fem, mesh, potential, wos
from cusplab.errors import DomainError, InputError, ReliabilityError


class Ball:
    """Synthetic meridian section: the unit ball."""

    def __init__(self, n=720):
        th = np.linspace(0.0, math.pi, n)
        self.pl = np.column_stack([np.sin(th), np.cos(th)])

    def boundary_polylines(self):
        return [("outer-level", self.pl)]

    def contains(self, r, z):
        return math.hypot(r, z) < 1.0


@pytest.fixture(scope="module")
def ball():
    return Ball()


@pytest.fixture(scope="module")
def ball_data(ball):
    # datum phi(x) = x3: tabulated z along the meridian polyline
    return {"outer-level": fem.TabulatedData(tuple(ball.pl[:, 1]))}


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


@pytest.fixture(scope="module")
def cs(leb):
    return mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-6, n_trace=256)


def test_distance_on_contour_sample(cs):
    z, r = cs.outer.interior[40]
    assert wos.distance_to_boundary(cs, (r, z)) < 1e-9


def test_distance_synthetic_midpoint():
    class TwoWalls:
        def boundary_polylines(self):
            return [("outer-level", np.array([[0.0, -1.0], [0.0, 1.0]])),
                    ("inner-level", np.array([[1.0, -1.0], [1.0, 1.0]]))]
    assert wos.distance_to_boundary(TwoWalls(), (0.5, 0.0)) == pytest.approx(0.5)


def test_distance_axis_point_vs_brute_force(cs, leb):
    d = wos.distance_to_boundary(cs, (0.0, -0.2))
    # brute force: dense resampling of both polylines
    best = math.inf
    for _, pl in cs.boundary_polylines():
        for k in range(len(pl) - 1):
            for t in np.linspace(0.0, 1.0, 50):
                p = pl[k] + t * (pl[k + 1] - pl[k])
                best = min(best, math.hypot(p[0], p[1] + 0.2))
    assert d == pytest.approx(best, abs=1e-6)
    assert d > 0.1


def test_step_shrink_covers_resample_gap(cs):
    # a step shorter than the nearest-vertex distance by half of every gap
    # between consecutive resampled points of a component stays inside
    class OneComponent:
        def __init__(self, part):
            self.part = part

        def boundary_polylines(self):
            return [self.part]

    data = fem.BoundaryData.constants(0.5, 2.0)
    for eps in (5e-5, 1e-4):
        model = wos._BoundaryModel(cs, data, eps)
        for part in cs.boundary_polylines():
            pts = wos._BoundaryModel(OneComponent(part), data, eps).points
            gaps = np.hypot(*np.diff(pts, axis=0).T)
            assert model.shrink >= 0.5 * gaps.max()


def test_distance_rejects_exterior(cs):
    with pytest.raises(DomainError):
        wos.distance_to_boundary(cs, (3.0, 3.0))


def test_ball_mean_value_property(ball, ball_data):
    est = wos.estimate(ball, ball_data, (0.0, 0.0, 0.0), walks=20000,
                       eps=1e-3, seed=7)
    assert abs(est.mean) <= 3.0 * est.stderr + 1e-3


def test_ball_linear_datum(ball, ball_data):
    est = wos.estimate(ball, ball_data, (0.0, 0.0, 0.5), walks=20000,
                       eps=1e-3, seed=8)
    assert est.mean == pytest.approx(0.5, abs=3.0 * est.stderr + 2e-3)


def test_seed_determinism(ball, ball_data):
    a = wos.estimate(ball, ball_data, (0.3, 0.0, 0.2), walks=5000,
                     eps=1e-3, seed=11)
    b = wos.estimate(ball, ball_data, (0.3, 0.0, 0.2), walks=5000,
                     eps=1e-3, seed=11)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_estimates_respect_datum_bounds(cs):
    data = fem.BoundaryData.constants(0.5, 2.0)
    est = wos.estimate(cs, data, (0.4, 0.0, 0.3), walks=3000, eps=2e-4, seed=2)
    assert 0.5 <= est.mean <= 2.0


def test_canonical_cross_check(cs, leb):
    data = fem.BoundaryData.constants(0.5, 2.0)
    est = wos.estimate(cs, data, (0.5, 0.0, 0.5), walks=20000, eps=1e-4,
                       seed=3)
    v = leb.value(0.5, 0.5)
    assert abs(est.mean - v) <= 3.0 * est.stderr + 1e-3


def test_stderr_scales_with_walks(ball, ball_data):
    e1 = wos.estimate(ball, ball_data, (0.0, 0.0, 0.5), walks=4000,
                      eps=1e-3, seed=13)
    e2 = wos.estimate(ball, ball_data, (0.0, 0.0, 0.5), walks=16000,
                      eps=1e-3, seed=13)
    ratio = e2.stderr / e1.stderr
    assert 0.4 <= ratio <= 0.6


def test_preconditions(cs, ball, ball_data):
    with pytest.raises(DomainError):
        wos.estimate(cs, fem.BoundaryData.constants(0.5, 2.0),
                     (2.0, 0.0, 3.0), walks=10)
    with pytest.raises(InputError):
        wos.estimate(ball, ball_data, (0.0, 0.0, 0.0), walks=10, eps=-1.0)


def test_step_cap_reliability_error(ball, ball_data, monkeypatch):
    monkeypatch.setattr(wos, "STEP_CAP", 2)
    with pytest.raises(wos.ReliabilityError):
        wos.estimate(ball, ball_data, (0.0, 0.0, 0.0), walks=1000,
                     eps=1e-6, seed=1)
