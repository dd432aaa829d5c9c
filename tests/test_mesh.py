import math

import numpy as np
import pytest

from cusplab import contour, density, mesh, potential
from cusplab.errors import InputError

# axis-crossing oracles (see test_contour) and the root of r_2(z) = 1e-4
# recomputed by independent high-precision bisection
Z_CUT_1E4 = 0.066541621307


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


@pytest.fixture(scope="module")
def cs(leb):
    return mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-4)


@pytest.fixture(scope="module")
def canonical(cs):
    return mesh.triangulate(cs, n_levels=8, n_stations=32)


def test_cross_section_axis_segments(cs):
    (lo_a, lo_b), (hi_a, hi_b) = cs.axis_segments
    assert lo_a == pytest.approx(-0.39795254731591654, abs=1e-6)
    assert lo_b == 0.0
    assert hi_a == pytest.approx(1.06328706887776254, abs=1e-6)
    assert hi_b == pytest.approx(1.71582021485871949, abs=1e-6)


def test_cross_section_z_cut(cs):
    assert cs.z_cut == pytest.approx(Z_CUT_1E4, abs=1e-6)
    assert cs.inner_truncated[0, 1] == pytest.approx(1e-4, rel=1e-6)
    assert np.all(cs.inner_truncated[:, 0] >= cs.z_cut)


def test_cross_section_level_ordering(leb):
    with pytest.raises(InputError):
        mesh.build_cross_section(leb, 1.5, 2.0)      # A above V(0,0)
    with pytest.raises(InputError):
        mesh.build_cross_section(leb, 0.5, 0.9)      # B below V(0,0)


def test_canonical_mesh_invariants(canonical):
    q = mesh.mesh_quality(canonical)
    assert q.n_flipped == 0
    assert q.min_area > 0
    assert q.euler_characteristic == 1
    assert q.boundary_fully_tagged
    assert q.min_angle >= 15.0
    assert q.passes()


def test_boundary_tags_partition(canonical):
    boundary = canonical.boundary_edges()
    tags = [canonical.edge_tags[e] for e in boundary]
    assert set(tags) <= {"outer-level", "inner-level", "cusp-cap", "axis"}
    assert tags.count("cusp-cap") == 1
    # interior edges carry no tag
    assert len(canonical.edge_tags) == len(boundary)


def test_cap_edge_is_tiny(canonical, cs, leb):
    cap_edge = [e for e, t in canonical.edge_tags.items() if t == "cusp-cap"][0]
    p, q_ = canonical.nodes[list(cap_edge)]
    length = float(np.hypot(*(p - q_)))
    z_cut = canonical.z_cut
    r_mesh = max(p[0], q_[0])
    band = np.exp(-0.4 / z_cut) - np.exp(-0.6 / z_cut)
    assert length <= 2.0 * r_mesh + band


def test_nodes_on_their_contours(canonical, leb):
    for tag, level in (("outer-level", 0.5), ("inner-level", 2.0)):
        ids = canonical.nodes_with_tag(tag)
        vals = np.array([leb.value(r, z) for r, z in canonical.nodes[ids]])
        assert np.abs(vals - level).max() <= 1e-9
    interior = [i for i, t in enumerate(canonical.node_tags) if t == "interior"]
    vals = np.array([leb.value(r, z) for r, z in canonical.nodes[interior]])
    assert vals.min() > 0.5 and vals.max() < 2.0


def test_nodes_with_tag_matches_string_array(canonical):
    for tag in (mesh.OUTER, mesh.INNER, mesh.CAP, mesh.AXIS, mesh.INTERIOR):
        expected = np.flatnonzero(np.asarray(canonical.node_tags) == tag)
        assert len(expected)
        assert np.array_equal(canonical.nodes_with_tag(tag), expected)


def test_rail_nodes_match_per_rail_roots(cs, leb, monkeypatch):
    # one triangulate solves its rail traces in one root batch and its rail
    # nodes in another; each node is the root its rail finds on its own
    batches = []
    solve = contour.log_radius_at

    def counted(*args, **kwargs):
        batches.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(contour, "log_radius_at", counted)
    monkeypatch.setattr(mesh, "log_radius_at", counted)
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    monkeypatch.undo()
    assert len(batches) == 2
    levels = [0.5, *mesh._level_values(leb, 0.5, 2.0, 8), 2.0]
    # rail by rail: anchor, 31 curve nodes, top endpoint; rail B also holds
    # the cap corner after its anchor
    rails = np.split(m.nodes, 33 * np.arange(1, len(levels)))
    rails[-1] = np.delete(rails[-1], 1, axis=0)
    for c, rail in zip(levels, rails):
        r, z = rail[1:-1].T
        assert r.tolist() == np.exp(solve(leb, c, z)).tolist()


def test_refinement_growth(cs, canonical):
    fine = mesh.triangulate(cs, n_levels=16, n_stations=64)
    factor = len(fine.nodes) / len(canonical.nodes)
    assert 3.2 <= factor <= 4.5
    assert mesh.mesh_quality(fine).min_angle >= 15.0


def test_triangulate_preconditions(cs):
    with pytest.raises(InputError):
        mesh.triangulate(cs, n_levels=2, n_stations=32)
    with pytest.raises(InputError):
        mesh.triangulate(cs, n_levels=8, n_stations=4)


def test_quality_single_triangle():
    m = mesh.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 1, 2]]),
                  node_tags=["outer-level"] * 3,
                  edge_tags={(0, 1): "outer-level", (1, 2): "outer-level",
                             (0, 2): "outer-level"})
    q = mesh.mesh_quality(m)
    assert q.min_angle == pytest.approx(45.0)
    assert q.euler_characteristic == 1


def test_quality_detects_flipped_triangle():
    m = mesh.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 2, 1]]),      # clockwise
                  node_tags=["outer-level"] * 3,
                  edge_tags={(0, 1): "outer-level", (1, 2): "outer-level",
                             (0, 2): "outer-level"})
    q = mesh.mesh_quality(m)
    assert q.n_flipped == 1
    assert not q.passes()


def test_rectangle_mesh():
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 4, 4)
    q = mesh.mesh_quality(m)
    assert q.n_flipped == 0
    assert q.euler_characteristic == 1
    assert len(m.nodes) == 25
    assert len(m.triangles) == 32


def _truncation_height_by_roots(field, c, r_min):
    """The same bisection in z, each step solving for the contour radius."""
    target = math.log(r_min)
    hi = 0.5 * field.density.length
    while contour.log_radius_at(field, c, hi) < target:
        hi *= 2.0
    lo = hi / 2.0
    while contour.log_radius_at(field, c, lo) > target:
        hi = lo
        lo /= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contour.log_radius_at(field, c, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("c, r_min", [(2.0, 1e-4), (1.6, 1e-3), (2.4, 1e-6),
                                      (1.05, 1e-2)])
def test_truncation_height_predicate_matches_roots(leb, c, r_min):
    # V falls in r, so "radius below r_min" is V(r_min, z) < c: one value
    # instead of a root, the same steps up to the root tolerance
    z = mesh._truncation_height(leb, c, r_min)
    assert z == pytest.approx(_truncation_height_by_roots(leb, c, r_min), rel=1e-13, abs=0.0)
    assert contour.log_radius_at(leb, c, z) == pytest.approx(math.log(r_min), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c, r_min", [(2.0, 1e-4), (1.6, 1e-3), (2.4, 1e-6),
                                      (1.05, 1e-2), (2.0, 1e-13)])
def test_truncation_height_matches_mpmath(leb, c, r_min, mp_level_height,
                                          root_evaluations):
    counts = root_evaluations
    z = mesh._truncation_height(leb, c, r_min)
    ref = mp_level_height(leb.density, c, math.log(r_min), z)
    assert z == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert len(counts) == 1 and counts[0] <= 20


def test_graded_steps_ramp_sums_to_its_window():
    # the growth rate g solves f0 (g^K - 1)/(g - 1) = K u, so each ramp
    # subdivides exactly the K uniform steps it replaces
    for n, f0 in ((32, 0.01), (64, 1e-5), (12, 0.02)):
        K = n // 4
        steps = mesh._graded_steps(n, f0)
        assert steps[0] == pytest.approx(f0, rel=1e-14)
        assert steps[:K].sum() == pytest.approx(K / n, rel=1e-14)


def test_graded_steps_growth_capped_without_a_root():
    # K = 2, u = 1/8: f0 (1 + g) stays below 2 u for every g <= 8, so the
    # growth rate takes its cap g = 8
    u = 1.0 / 8.0
    steps = np.array([1e-9, 8e-9, u, u, u, u, u, u])
    assert mesh._graded_steps(8, 1e-9).tolist() == (steps / steps.sum()).tolist()
