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


def _offsets(rng, n, lo, hi):
    """n seeded (r, z) offsets with log-uniform lengths in [10^lo, 10^hi]."""
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    length = 10.0 ** rng.uniform(lo, hi, n)
    return length[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


def _near_polylines(sec, rng, n, lo, hi):
    pts = []
    for _, pl in sec.boundary_polylines():
        k = rng.integers(0, len(pl) - 1, n)
        t = rng.uniform(0.0, 1.0, n)[:, None]
        pts.append(pl[k] + t * (pl[k + 1] - pl[k]) + _offsets(rng, n, lo, hi))
    return np.vstack(pts)


def _interior(sec, pts):
    return np.array([p for p in pts if p[0] >= 0.0 and sec.contains(*p)])


@pytest.fixture(scope="module")
def cs_probes(cs):
    """Seeded interior points near both polylines, near the cap corner
    (r_min, z_cut) and in the bulk."""
    rng = np.random.default_rng(20)
    cap = np.array([cs.r_min, cs.z_cut]) + _offsets(rng, 400, -7.0, -3.0)
    bulk = np.column_stack([rng.uniform(0.0, 1.5, 400),
                            rng.uniform(-0.6, 2.0, 400)])
    return {"polylines": _interior(cs, _near_polylines(cs, rng, 400, -7.5, -1.0)),
            "cap": _interior(cs, cap), "bulk": _interior(cs, bulk)}


def test_step_bound_is_a_lower_bound(cs, cs_probes):
    eps = 1e-4
    model = wos._SegmentModel(cs, fem.BoundaryData.constants(0.5, 2.0))
    for name, pts in cs_probes.items():
        radius, exact, _, _ = model.query(pts, eps)
        true = np.array([wos.distance_to_boundary(cs, p) for p in pts])
        assert np.all(radius <= true), name
        assert np.array_equal(radius[exact], true[exact]), name
        assert np.all(exact[radius < eps]), name
        assert np.all(true[radius < eps] < eps), name
        if name != "bulk":
            assert np.any(radius < eps) and np.any(true < eps), name
    radius, exact, _, _ = model.query(cs_probes["bulk"], eps)
    assert np.any(~exact) and np.all(radius > 0.0)


def test_step_bound_when_candidates_miss_the_nearest_segment():
    # a long wall at r = 1 and a crowd of tiny segments 6e-4 inside it:
    # from points next to the wall, midway between two of its index points,
    # every index point queried belongs to the crowd
    class Crowd:
        def boundary_polylines(self):
            crowd = np.column_stack([np.full(17, 1.0 - 6e-4),
                                     np.linspace(-5e-6, 5e-6, 17)])
            return [("outer-level", np.array([[1.0, -1.0], [1.0, 1.0]])),
                    ("inner-level", crowd)]

    sec = Crowd()
    model = wos._SegmentModel(sec, {"outer-level": fem.ConstantData(0.0),
                                    "inner-level": fem.ConstantData(1.0)})
    pts = np.column_stack([1.0 - np.geomspace(1e-6, 2e-4, 12), np.zeros(12)])
    _, idx = model.tree.query(pts, k=wos.NEAREST)
    assert np.all(model.index_seg[idx] >= 1)
    for eps in (1e-7, 1e-5):
        radius, exact, seg, t = model.query(pts, eps)
        true = np.array([wos.distance_to_boundary(sec, p) for p in pts])
        assert np.all(radius <= true)
        assert np.array_equal(radius[exact], true[exact])
        assert np.all(true[radius < eps] < eps)
        assert np.all(model.score(seg[radius < eps], t[radius < eps]) == 0.0)


def _step_landings(model, pts, eps, rng, n_dirs=8):
    radius, _, _, _ = model.query(pts, eps)
    dirs = rng.standard_normal((len(pts), n_dirs, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    pos = np.column_stack([pts[:, 0], np.zeros(len(pts)), pts[:, 1]])
    land = pos[:, None, :] + radius[:, None, None] * dirs
    return np.column_stack([np.hypot(land[..., 0], land[..., 1]).ravel(),
                            land[..., 2].ravel()])


def _in_polygon(poly, pts):
    """Crossing-number test of (r, z) points against a closed polygon."""
    a, b = poly, np.roll(poly, -1, axis=0)
    r, z = pts[:, None, 0], pts[:, None, 1]
    straddle = (a[:, 1] > z) != (b[:, 1] > z)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = a[:, 0] + (z - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return (straddle & (r < cross)).sum(axis=1) % 2 == 1


def test_bound_steps_stay_inside(cs, cs_probes, ball, ball_data):
    # the walk's domain is the region the polylines bound: inside the outer
    # polyline closed along the axis, outside the inner polyline closed by
    # the axis and the cap.  The polylines are chords of the level curves,
    # up to about 2e-3 off the level-B curve near its top, so this region,
    # not cs.contains, is what a conservative step must respect.  Cap points
    # below z_cut are left out: the cap is not a boundary of the walk.
    rng = np.random.default_rng(21)
    (_, outer), (_, inner) = cs.boundary_polylines()
    inner = np.vstack([inner, [[0.0, cs.z_cut]]])
    model = wos._SegmentModel(cs, fem.BoundaryData.constants(0.5, 2.0))
    inside = lambda p: _in_polygon(outer, p) & ~_in_polygon(inner, p)
    cap = cs_probes["cap"][cs_probes["cap"][:, 1] >= cs.z_cut]
    for pts in (cs_probes["polylines"], cap, cs_probes["bulk"]):
        pts = pts[inside(pts)]
        assert len(pts) and np.all(inside(_step_landings(model, pts, 1e-4, rng)))
    # the ball's polyline is inscribed in the sphere: inside the polygon it
    # bounds, steps land in the ball itself
    apothem = math.cos(math.pi / (2 * (len(ball.pl) - 1)))
    near = _near_polylines(ball, rng, 800, -8.0, -1.0)
    pts = near[(near[:, 0] >= 0.0) & (np.hypot(*near.T) < apothem)]
    model = wos._SegmentModel(ball, ball_data)
    assert len(pts) and all(ball.contains(r, z)
               for r, z in _step_landings(model, pts, 1e-3, rng))


def test_hit_scores_datum_at_projection(ball, ball_data):
    # the datum tabulates z at the polyline vertices, equally spaced in
    # arc length, so the interpolated datum at a projection point is the
    # z of that point
    rng = np.random.default_rng(22)
    pl = ball.pl
    th = rng.uniform(0.0, math.pi, 300)
    depth = 10.0 ** rng.uniform(-8.0, -4.0, 300)
    pts = (np.cos(math.pi / (2 * (len(pl) - 1))) - depth)[:, None] \
        * np.column_stack([np.sin(th), np.cos(th)])
    model = wos._SegmentModel(ball, ball_data)
    radius, exact, seg, t = model.query(pts, 1e-3)
    assert np.all(exact & (radius < 1e-3))
    expected = []
    for p in pts:
        best = (math.inf, 0.0)
        for a, b in zip(pl[:-1], pl[1:]):
            u = min(max(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0), 1.0)
            q = a + u * (b - a)
            best = min(best, (math.hypot(*(q - p)), q[1]))
        expected.append(best[1])
    assert model.score(seg, t) == pytest.approx(expected, abs=1e-12)


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
