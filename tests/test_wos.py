import copy
import dataclasses
import math
import pickle

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


@pytest.fixture(scope="module")
def deep_cs(leb):
    # the section of acceptance criteria 11 and 12
    return mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-6, n_trace=384)


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
    geo = wos._geometry(cs)
    for name, pts in cs_probes.items():
        radius, exact, _, _ = geo.query(pts, eps)
        true = np.array([wos.distance_to_boundary(cs, p) for p in pts])
        assert np.all(radius <= true), name
        assert np.array_equal(radius[exact], true[exact]), name
        assert np.all(exact[radius < eps]), name
        assert np.all(true[radius < eps] < eps), name
        if name != "bulk":
            assert np.any(radius < eps) and np.any(true < eps), name
    radius, exact, _, _ = geo.query(cs_probes["bulk"], eps)
    assert np.any(~exact) and np.all(radius > 0.0)


def _check_bound(geo, sec, pts, eps):
    radius, exact, seg, t = geo.query(pts, eps)
    true = np.array([wos.distance_to_boundary(sec, p) for p in pts])
    assert np.all(radius <= true)
    assert np.array_equal(radius[exact], true[exact])
    assert np.all(exact[radius < eps])
    assert np.all(true[radius < eps] < eps)
    return radius, exact, seg, t


def test_step_bound_when_candidates_miss_the_nearest_segment():
    # a long wall at r = 1 and, 6e-4 inside it, a crowd of 24 tiny segments
    # (12 spokes out and back) meeting at one vertex: every cell that holds
    # the vertex lists all 24, so the tree splits the cells around it down
    # to the depth limit, where each leaf keeps its whole list; the first K
    # of a list miss the spokes nearest to many points around the vertex
    hub = np.array([1.0 - 6e-4, 0.0])
    ang = 2.0 * math.pi * np.arange(12) / 12
    tips = hub + 1e-6 * np.column_stack([np.cos(ang), np.sin(ang)])
    crowd = np.vstack([hub] + [row for tip in tips for row in (tip, hub)])

    class Crowd:
        def boundary_polylines(self):
            return [("outer-level", np.array([[1.0, -1.0], [1.0, 1.0]])),
                    ("inner-level", crowd)]

    sec = Crowd()
    geo = wos._geometry(sec)
    datums = [fem.ConstantData(0.0), fem.ConstantData(1.0)]
    assert geo.full and all(len(full) > wos.K for full in geo.full.values())
    assert len(geo.full[geo.slot[geo.leaf(hub[None, :])[0]]]) == 24
    rng = np.random.default_rng(23)
    around = hub + _offsets(rng, 200, -12.0, -9.5)
    slots = geo.slot[geo.leaf(around)]
    assert all(k in geo.full for k in slots)
    nearest = wos._nearest(around, geo.segs)[1]
    assert not all(j in geo.table[k] for j, k in zip(nearest, slots))
    between = np.column_stack([1.0 - np.geomspace(1e-6, 2e-4, 12), np.zeros(12)])
    for eps in (1e-11, 1e-7, 1e-5):
        for pts, datum in ((between, 0.0), (around, 1.0)):
            radius, exact, seg, t = _check_bound(geo, sec, pts, eps)
            hit = radius < eps
            assert np.all(wos._scores(geo, datums, seg[hit], t[hit]) == datum)
    radius, exact, _, _ = geo.query(around, 1e-12)
    assert np.all(exact)


class Open:
    """Three open polylines: a floor, a short top edge and, just below the
    top, a short segment."""

    def boundary_polylines(self):
        return [("a", np.array([[0.0, 0.0], [1.0, 0.0]])),
                ("b", np.column_stack([np.linspace(0.7, 0.8, 11),
                                       np.ones(11)])),
                ("c", np.array([[0.38, 0.99], [0.42, 0.99]]))]


def test_step_bound_outside_the_tree():
    # the tree covers the square that bounds the segments; a point outside
    # it is looked up in the nearest border leaf.  Above the top edge at
    # r = 0.4 that leaf lists only the short segment 0.01 below the edge,
    # while from high enough above, the top-edge polyline 0.3 to the side
    # is nearer: the leaf does not certify such points, and they still get
    # a bound
    sec = Open()
    geo = wos._geometry(sec)
    high = np.array([[0.4, 11.0]])
    slot = geo.slot[geo.leaf(high)[0]]
    assert slot >= 0 and set(geo.table[slot]) == {11}
    assert wos._nearest(high, geo.segs)[1][0] == 1
    rng = np.random.default_rng(26)
    pts = np.vstack([high, rng.uniform(-10.0, 11.0, (400, 2))])
    for eps in (1e-3, 1.0):
        _check_bound(geo, sec, pts, eps)


def _leaf_sizes(geo):
    """Each leaf's share of the 4**DEPTH codes: 4**(DEPTH - level)."""
    return np.diff(np.append(geo.start, np.uint64(4) ** np.uint64(wos.DEPTH)))


def _deeper_than_grid(geo):
    """Which leaves lie deeper than level G."""
    return _leaf_sizes(geo) < np.uint64(4) ** np.uint64(wos.DEPTH - wos.G)


def _edges_and_corners(geo, leaves):
    """The midpoints of the edges and the corners of the given leaves."""
    half = 0.5 * np.sqrt(_leaf_sizes(geo).astype(float)) / geo.scale
    steps = np.array([[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1],
                      [1, -1], [1, 0], [1, 1]])
    return (geo.centre[leaves][:, None, :]
            + half[leaves][:, None, None] * steps).reshape(-1, 2)


def test_step_bound_on_leaf_edges_and_corners(cs):
    # points exactly on the edges and corners of seeded leaves, where
    # rounding may put a point in a neighbouring cell, and points within
    # 1e-9 of the cap corner
    geo = wos._geometry(cs)
    rng = np.random.default_rng(24)
    leaves = rng.choice(len(geo.start), 300, replace=False)
    pts = _interior(cs, _edges_and_corners(geo, leaves))
    cap = _interior(cs, np.array([cs.r_min, cs.z_cut])
                    + _offsets(rng, 300, -12.0, -9.0))
    assert len(pts) > 1000 and len(cap) > 50
    for eps in (1e-4, 1e-8):
        _check_bound(geo, cs, pts, eps)
        radius, exact, _, _ = _check_bound(geo, cs, cap, eps)
        assert np.all(exact)


def test_step_bound_in_the_criterion_11_section(deep_cs):
    geo = wos._geometry(deep_cs)
    rng = np.random.default_rng(25)
    pts = np.column_stack([rng.uniform(0.0, 1.5, 6000),
                           rng.uniform(-0.6, 2.0, 6000)])
    pts = _interior(deep_cs, pts)[:2000]
    assert len(pts) == 2000
    radius, exact, _, _ = _check_bound(geo, deep_cs, pts, 5e-5)
    assert np.any(exact) and np.any(~exact)


def _searched_leaf(geo, pts):
    """The leaf of each point by one search over all leaves' start codes."""
    q = np.clip((pts - geo.origin) * geo.scale, 0.0, 2.0 ** wos.DEPTH - 1.0)
    return np.searchsorted(geo.start, wos._morton(q.astype(np.uint64)),
                           side="right") - 1


def _check_grid(geo, pts):
    """Every point gets the leaf the search over start codes gives, and a
    grid cell holds the leaf that covers it, or -1 where leaves deeper than
    G split it.  Returns which leaves lie deeper than G."""
    assert np.array_equal(geo.leaf(pts), _searched_leaf(geo, pts))
    assert geo.grid.shape == (2 ** wos.G, 2 ** wos.G)
    deep = _deeper_than_grid(geo)
    cells = np.indices(geo.grid.shape).reshape(2, -1).T
    first = np.searchsorted(
        geo.start, wos._morton(cells) << np.uint64(2 * (wos.DEPTH - wos.G)),
        side="right") - 1
    assert np.array_equal(geo.grid.ravel(), np.where(deep[first], -1, first))
    return deep


def test_grid_finds_the_searched_leaf(cs, deep_cs, ball):
    # the bulk points of the criterion-11 test
    rng = np.random.default_rng(25)
    pts = np.column_stack([rng.uniform(0.0, 1.5, 6000),
                           rng.uniform(-0.6, 2.0, 6000)])
    pts = _interior(deep_cs, pts)[:2000]
    assert len(pts) == 2000
    _check_grid(wos._geometry(deep_cs), pts)
    # edges and corners of seeded leaves, half of them deeper than G
    rng = np.random.default_rng(27)
    geo = wos._geometry(cs)
    deep = _deeper_than_grid(geo)
    leaves = np.concatenate([rng.choice(np.flatnonzero(deep), 150, replace=False),
                             rng.choice(np.flatnonzero(~deep), 150, replace=False)])
    pts = _edges_and_corners(geo, leaves)
    _check_grid(geo, pts)
    assert np.any(deep[geo.leaf(pts)]) and np.any(~deep[geo.leaf(pts)])
    # points outside the bounding square
    _check_grid(wos._geometry(Open()), rng.uniform(-10.0, 11.0, (400, 2)))
    # the ball, and a coarse ball whose tree is shallower than G, so that
    # every cell of its grid holds a leaf
    for sec in (ball, Ball(60)):
        deep = _check_grid(wos._geometry(sec),
                           _near_polylines(sec, rng, 400, -8.0, 0.0))
    assert not np.any(deep)
    assert _leaf_sizes(wos._geometry(sec)).min() > \
        np.uint64(4) ** np.uint64(wos.DEPTH - wos.G)


def test_grid_of_a_large_tree_holds_int32_ranks(ball):
    # the grid stores leaf ranks in int16 up to 32,767 leaves; a ball of
    # 4,000 vertices has about 38,600 leaves and needs int32
    assert wos._geometry(ball).grid.dtype == np.int16
    sec = Ball(4000)
    geo = wos._geometry(sec)
    assert len(geo.start) > 2 ** 15 - 1 and geo.grid.dtype == np.int32
    rng = np.random.default_rng(28)
    pts = _near_polylines(sec, rng, 2000, -8.0, 0.0)
    _check_grid(geo, pts)
    assert geo.leaf(pts).max() > 2 ** 15 - 1


def _step_landings(geo, pts, eps, rng, n_dirs=8):
    radius, _, _, _ = geo.query(pts, eps)
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
    geo = wos._geometry(cs)
    inside = lambda p: _in_polygon(outer, p) & ~_in_polygon(inner, p)
    cap = cs_probes["cap"][cs_probes["cap"][:, 1] >= cs.z_cut]
    for pts in (cs_probes["polylines"], cap, cs_probes["bulk"]):
        pts = pts[inside(pts)]
        assert len(pts) and np.all(inside(_step_landings(geo, pts, 1e-4, rng)))
    # the ball's polyline is inscribed in the sphere: inside the polygon it
    # bounds, steps land in the ball itself
    apothem = math.cos(math.pi / (2 * (len(ball.pl) - 1)))
    near = _near_polylines(ball, rng, 800, -8.0, -1.0)
    pts = near[(near[:, 0] >= 0.0) & (np.hypot(*near.T) < apothem)]
    geo = wos._geometry(ball)
    assert len(pts) and all(ball.contains(r, z)
               for r, z in _step_landings(geo, pts, 1e-3, rng))


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
    geo = wos._geometry(ball)
    radius, exact, seg, t = geo.query(pts, 1e-3)
    assert np.all(exact & (radius < 1e-3))
    expected = []
    for p in pts:
        best = (math.inf, 0.0)
        for a, b in zip(pl[:-1], pl[1:]):
            u = min(max(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0), 1.0)
            q = a + u * (b - a)
            best = min(best, (math.hypot(*(q - p)), q[1]))
        expected.append(best[1])
    scores = wos._scores(geo, [ball_data["outer-level"]], seg, t)
    assert scores == pytest.approx(expected, abs=1e-12)


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


@pytest.mark.parametrize("walks, eps", [(0, 1e-3), (-5, 1e-3),
                                        (10, float("nan"))])
def test_estimate_input_contract(ball, ball_data, walks, eps):
    with pytest.raises(InputError):
        wos.estimate(ball, ball_data, (0.0, 0.0, 0.0), walks=walks, eps=eps)


def _counting_queries(monkeypatch):
    rows = []
    query = wos._Geometry.query

    def counted(self, rz, eps):
        rows.append(len(rz))
        return query(self, rz, eps)

    monkeypatch.setattr(wos._Geometry, "query", counted)
    return rows


def test_steps_count_every_query_row(ball, ball_data, monkeypatch):
    rows = _counting_queries(monkeypatch)
    est = wos.estimate(ball, ball_data, (0.0, 0.0, 0.2), walks=500,
                       eps=1e-3, seed=4)
    assert est.steps == sum(rows) and est.steps > 5 * est.walks


def test_missing_datum_raises_before_the_first_walk(cs, monkeypatch):
    rows = _counting_queries(monkeypatch)
    with pytest.raises(InputError):
        wos.estimate(cs, {"outer-level": fem.ConstantData(0.5)},
                     (0.5, 0.0, 0.5), walks=100, seed=1)
    assert rows == []


def test_empty_table_raises_before_the_first_walk(cs, monkeypatch):
    # an empty table has no value to read at an exit point
    rows = _counting_queries(monkeypatch)
    data = fem.BoundaryData(fem.TabulatedData(()), fem.ConstantData(2.0))
    with pytest.raises(InputError, match="has no values to read"):
        wos.estimate(cs, data, (0.5, 0.0, 0.5), walks=100, seed=1)
    assert rows == []


def test_one_walk_scores_every_datum(cs):
    # the exit records of one walk, scored with two data sets, give what
    # two estimates with the walk's seed give, bit for bit
    geo = wos._geometry(cs)
    point, walks, eps, seed = (0.4, 0.0, 0.3), 2000, 1e-4, 5
    seg, t, steps = wos._walk(geo, point, walks, eps, (seed, 0))
    ended = seg >= 0
    means = []
    for data in (fem.BoundaryData.constants(0.5, 2.0),
                 fem.BoundaryData(fem.BumpData(0.5, 0.3, 1.0),
                                  fem.ConstantData(0.0))):
        datums = [data.spec[tag] for tag, _ in geo.polylines]
        good = wos._scores(geo, datums, seg[ended], t[ended])
        done = len(good)
        mean = good.sum() / done
        stderr = math.sqrt(max((good ** 2).sum() / done - mean * mean, 0.0) / done)
        est = wos.estimate(cs, data, point, walks=walks, eps=eps, seed=seed)
        assert (est.mean, est.stderr, est.walks, est.discarded, est.steps) == \
            (mean, stderr, done, walks - done, steps)
        means.append(mean)
    assert 0.5 < means[0] < 2.0 and means[1] > 0.0


def test_walk_bits_are_frozen(deep_cs):
    # two short estimates on the criterion-11 section, with the values the
    # walker gave when this test was written: a change to the walker's
    # arithmetic or to its random streams fails here and states its new
    # values.  The second starts at the level-1.5 station at z = 0.04 and
    # scores criterion 12's bump
    const = fem.BoundaryData.constants(0.5, 2.0)
    bump = fem.BoundaryData(fem.BumpData(0.5, 0.25, 1.0), fem.ConstantData(0.0))
    for data, point, eps, seed, frozen in (
            (const, (0.5, 0.0, 0.5), 5e-5, 17,
             (0.8885, 0.020780224974720558, 1000, 0, 36004)),
            (bump, (0.0002783288397971052, 0.0, 0.04), 1e-4, 19,
             (0.06898170785735368, 0.00711656596485825, 1000, 0, 58702))):
        est = wos.estimate(deep_cs, data, point, walks=1000, eps=eps, seed=seed)
        assert (est.mean, est.stderr, est.walks, est.discarded, est.steps) == frozen


def test_tip_walk_bits_are_frozen(deep_cs):
    # 1000 walks from the level-1.75 station at z = 0.02, r = 7.4e-10, with
    # the values the walker gave when this test was written.  Some of its
    # walkers lie in grid cells that leaves deeper than G split, so the
    # search over start codes takes part in these walks
    est = wos.estimate(deep_cs, fem.BoundaryData.constants(0.5, 2.0),
                       (7.410406188945527e-10, 0.0, 0.02), walks=1000,
                       eps=1e-4, seed=23)
    assert (est.mean, est.stderr, est.walks, est.discarded, est.steps) == \
        (1.058, 0.022926752931891597, 1000, 0, 50250)


def _counting_builds(monkeypatch):
    builds = []

    class Counted(wos._Geometry):
        def __init__(self, polylines):
            builds.append(len(polylines))
            super().__init__(polylines)

    monkeypatch.setattr(wos, "_Geometry", Counted)
    return builds


def test_section_copies_start_without_geometry(deep_cs, monkeypatch):
    builds = _counting_builds(monkeypatch)
    # a section of its own, not yet with a geometry; the points and seeds
    # of criterion 11, with fewer walks
    sec = dataclasses.replace(deep_cs)
    assert sec._wos is None
    data = fem.BoundaryData.constants(0.5, 2.0)
    points = [(0.5, 0.5), (0.3, -0.1), (0.45, 1.0), (0.2, 0.2), (0.6, 0.6)]
    run = lambda s, k, r, z: wos.estimate(s, data, (r, 0.0, z), walks=200,
                                          eps=5e-5, seed=1000 + k)
    first = [run(sec, k, r, z) for k, (r, z) in enumerate(points)]
    assert [run(sec, k, r, z) for k, (r, z) in enumerate(points)] == first
    assert len(builds) == 1
    # a deep copy or pickle is frozen, builds a geometry of its own and
    # gives the same estimates
    for n, twin in enumerate((copy.deepcopy(sec), pickle.loads(pickle.dumps(sec))), 2):
        assert twin._wos is None and not twin.inner_truncated.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.r_min = 1e-4
        assert [run(twin, k, r, z) for k, (r, z) in enumerate(points)] == first
        assert len(builds) == n


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
