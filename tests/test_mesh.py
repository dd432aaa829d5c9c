import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from cusplab import contour, density, fem, mesh, potential
from cusplab.errors import InputError, MeshError

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


def test_cross_section_z_cut(cs):
    assert cs.z_cut == pytest.approx(Z_CUT_1E4, abs=1e-6)
    assert cs.inner_truncated[0, 1] == pytest.approx(1e-4, rel=1e-6)
    assert np.all(cs.inner_truncated[:, 0] >= cs.z_cut)


@pytest.mark.parametrize("r_min", [0.0, -1.0, math.nan, math.inf])
def test_cross_section_r_min_must_be_positive_and_finite(leb, r_min):
    with pytest.raises(InputError, match="r_min must be positive and finite"):
        mesh.build_cross_section(leb, 0.5, 2.0, r_min=r_min)


def test_cross_section_level_ordering(leb):
    with pytest.raises(InputError):
        mesh.build_cross_section(leb, 1.5, 2.0)      # A above V(0,0)
    with pytest.raises(InputError):
        mesh.build_cross_section(leb, 0.5, 0.9)      # B below V(0,0)


def test_curves_sections_and_meshes_are_frozen(cs, canonical):
    curve = cs.outer
    writes = [(canonical.nodes, (0, 0), 1.0), (canonical.triangles, (0, 0), 1),
              (canonical.node_tags, 0, mesh.INTERIOR),
              (canonical.edge_tags, (0, 1), mesh.AXIS),
              (canonical.component_arcs, mesh.AXIS, {}),
              (canonical.component_arcs[mesh.OUTER], 0, 0.5),
              (cs.inner_truncated, (5, 1), 1.0), (curve.samples, (1, 1), 1.0),
              (curve.interior, (0, 1), 1.0), (curve.log_r, 1, 0.0),
              (curve.residuals, 0, 0.0)]
    for container, key, value in writes:
        with pytest.raises((ValueError, TypeError)):
            container[key] = value
    for value in (curve, cs, canonical):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, None)
    # a mesh copies the arrays it is given
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh.Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]),
                  node_tags=["outer-level"] * 3, edge_tags={})
    nodes[0, 0] = 5.0
    assert m.nodes[0, 0] == 0.0 and not m.nodes.flags.writeable


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


def test_every_level_node_has_an_arc_of_its_own_component(canonical):
    # the inner arc runs from the cap corner to rail B's top node on the axis
    for tag in (mesh.OUTER, mesh.INNER):
        ids = canonical.nodes_with_tag(tag).tolist()
        assert set(ids) <= canonical.component_arcs[tag].keys(), tag
    inner = canonical.nodes_with_tag(mesh.INNER)
    top = inner[canonical.nodes[inner, 0] == 0.0]
    assert len(top) == 1
    assert canonical.component_arcs[mesh.INNER][int(top[0])] == 1.0


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
    batch = contour._log_radius_residual

    def counted(*args, **kwargs):
        batches.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(contour, "_log_radius_residual", counted)
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    monkeypatch.undo()
    assert len(batches) == 2
    levels = [0.5, *mesh._level_values(leb, 0.5, 2.0, 8), 2.0]
    # rail B's tip, then station by station with the rails fastest: the
    # anchors (rail B's cap corner), 31 rows of curve nodes, the top endpoints
    stations = m.nodes[1:].reshape(33, len(levels), 2)
    for c, rail in zip(levels, stations[1:-1].transpose(1, 0, 2)):
        r, z = rail.T
        assert r.tolist() == np.exp(solve(leb, c, z)).tolist()


def test_fold_at_the_cap_shows_as_a_flipped_cell(cs):
    # from 64x256 up one cell at the cap folds over its neighbours.  Cells
    # are built counter-clockwise and never reoriented, so the fold stays
    # clockwise: the quality census counts it and the FEM refuses the mesh
    m = mesh.triangulate(cs, n_levels=64, n_stations=256)
    q = mesh.mesh_quality(m)
    assert q.n_flipped == 1
    assert not q.passes()
    with pytest.raises(MeshError, match="flipped"):
        fem.solve_dirichlet(m, fem.BoundaryData.constants(0.5, 2.0))


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


def _min_angles_corner_by_corner(p):
    """The minimum angle of each triangle as the smallest of its three corner
    angles, each from its own two edge vectors and lengths."""
    angles = np.empty(p.shape[:2])
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosv = np.sum(a * b, axis=1) / (na * nb)
        angles[:, k] = np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))
        angles[(na == 0.0) | (nb == 0.0), k] = 0.0
    return angles.min(axis=1)


def test_min_angles_match_corner_by_corner(cs):
    # one arccos of the largest cosine per triangle gives the bits of the
    # smallest of the three corner angles: on a 24x96 mesh, on triangles of
    # random node triples of it and on triangles with a zero-length edge or
    # collinear corners (0 and 0 degrees)
    m = mesh.triangulate(cs, n_levels=24, n_stations=96)
    rng = np.random.default_rng(11)
    triples = rng.integers(0, len(m.nodes), size=(20000, 3))
    p = np.concatenate([m.nodes[m.triangles], m.nodes[triples],
                        [[[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]],
                         [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]]])
    angles = mesh._min_angles(p)
    assert angles.tolist() == _min_angles_corner_by_corner(p).tolist()
    assert angles[-2:].tolist() == [0.0, 0.0]


def _edge_counts_by_rows(triangles):
    """Sort each two-wide edge row, then take the unique row keys."""
    t = np.asarray(triangles, dtype=int)
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    n = int(t.max()) + 1
    keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    return np.column_stack(np.divmod(keys, n)), counts


def test_edge_counts_match_sorted_rows(canonical):
    for m in (canonical, mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 5, 7)):
        edges, counts = mesh._edge_counts(m.triangles)
        want_edges, want_counts = _edge_counts_by_rows(m.triangles)
        assert np.array_equal(edges, want_edges)
        assert np.array_equal(counts, want_counts)
        assert set(counts.tolist()) == {1, 2}


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


def test_quality_census_matches_node_and_edge_loops(canonical):
    # the tag census and the boundary check against a count node by node and
    # a lookup edge by edge, on the canonical mesh and with one boundary edge
    # left untagged (a key written unsorted does not count)
    edges, counts = mesh._edge_counts(canonical.triangles)
    boundary = [(int(i), int(j)) for i, j in edges[counts == 1]]
    census = {}
    for t in canonical.node_tags:
        census[t] = census.get(t, 0) + 1
    q = mesh.mesh_quality(canonical)
    assert q.tag_census == census
    assert q.boundary_fully_tagged
    i, j = boundary[7]
    tags = dict(canonical.edge_tags)
    tags[(j, i)] = tags.pop((i, j))
    assert not mesh.mesh_quality(dataclasses.replace(canonical,
                                                     edge_tags=tags)).boundary_fully_tagged



def test_triangulate_and_quality_count_the_edges_once(cs, monkeypatch):
    # the frozen mesh keeps its edge census: triangulate's untagged-edge
    # check and mesh_quality share one count, and a copy or pickle counts
    # its own
    calls = []
    count = mesh._edge_counts

    def counted(triangles):
        calls.append(len(triangles))
        return count(triangles)

    monkeypatch.setattr(mesh, "_edge_counts", counted)
    m = mesh.triangulate(cs, n_levels=4, n_stations=16)
    q = mesh.mesh_quality(m)
    assert len(calls) == 1 and q.boundary_fully_tagged
    edges, counts = m._edge_census()
    with pytest.raises(ValueError):
        counts[0] = 3
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin._edges is None
        assert mesh.mesh_quality(twin) == q
    assert len(calls) == 3

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


def _rail(field, c):
    """The level-c curve as triangulate traces its rails."""
    return contour.trace_contour(field, c, n=128, grading="geometric")


@pytest.mark.parametrize("c, r_min", [(2.0, 1e-4), (1.6, 1e-3), (2.4, 1e-6),
                                      (1.05, 1e-2)])
def test_truncation_height_predicate_matches_roots(leb, c, r_min):
    # the cut on a traced curve, bracketed by the two samples that straddle
    # r_min, is the height the bisection on contour roots finds, up to the
    # root tolerance
    z = mesh._cut_height(leb, _rail(leb, c), r_min)
    assert z == pytest.approx(_truncation_height_by_roots(leb, c, r_min), rel=1e-13, abs=0.0)
    assert contour.log_radius_at(leb, c, z) == pytest.approx(math.log(r_min), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c, r_min", [(2.0, 1e-4), (1.6, 1e-3), (2.4, 1e-6),
                                      (1.05, 1e-2), (2.0, 1e-13)])
def test_truncation_height_matches_mpmath(leb, c, r_min, mp_level_height,
                                          root_evaluations):
    counts = root_evaluations
    curve = _rail(leb, c)
    counts.clear()                # the trace's own axis crossing
    z = mesh._cut_height(leb, curve, r_min)
    ref = mp_level_height(leb.density, c, math.log(r_min), z)
    assert z == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert len(counts) == 1 and counts[0] <= 20


def test_each_cusp_rail_is_cut_once(cs, leb, monkeypatch):
    # one triangulate cuts each (level, radius) pair at most once: rails B
    # and B-1 keep the last two cuts of the truncation-radius loop, and every
    # other cusp rail is cut once, at the mesh's radius
    cuts = []
    cut = mesh._cut_height

    def recorded(field, curve, r):
        z = cut(field, curve, r)
        cuts.append((curve.level, r, z))
        return z

    monkeypatch.setattr(mesh, "_cut_height", recorded)
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    monkeypatch.undo()
    pairs = [(c, r) for c, r, _ in cuts]
    assert len(set(pairs)) == len(pairs)
    levels = [0.5, *mesh._level_values(leb, 0.5, 2.0, 8), 2.0]
    cusp = [c for c in levels if c > leb.v00]
    # node len(levels) is rail B's cap corner (r_mesh, z_cut), the node
    # before it rail B-1's anchor on the axis
    r_mesh = m.nodes[len(levels), 0]
    # the loop's cuts come first, then one cut of each other cusp rail
    n_loop = len(cuts) - (len(cusp) - 2)
    loop, rest = cuts[:n_loop], cuts[n_loop:]
    assert {c for c, _, _ in loop} == {2.0, cusp[-2]}
    assert [pair[:2] for pair in loop[-2:]] == [(2.0, r_mesh), (cusp[-2], r_mesh)]
    assert [pair[:2] for pair in rest] == [(c, r_mesh) for c in cusp[:-2]]
    assert m.nodes[len(levels)].tolist() == [r_mesh, loop[-2][2]] == [r_mesh, m.z_cut]
    assert m.nodes[len(levels) - 1].tolist() == [0.0, loop[-1][2]]


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


def test_rectangle_arcs_run_round_the_perimeter():
    # the arc coordinate of a rectangle's boundary nodes runs counter-clockwise
    # from (r0, z0); each node's fraction is the length travelled over the
    # perimeter.  Sorting the nodes by angle about the centre gives that order
    for r0, r1, z0, z1, nr, nz in ((1.0, 2.0, 0.0, 1.0, 2, 2),
                                   (0.5, 2.0, -1.0, 0.25, 3, 5)):
        m = mesh.rectangle_mesh(r0, r1, z0, z1, nr, nz)
        arcs = m.component_arcs[mesh.OUTER]
        ids = np.array([i for i, t in enumerate(m.node_tags) if t == mesh.OUTER])
        assert sorted(arcs) == ids.tolist()
        p = m.nodes[ids] - [0.5 * (r0 + r1), 0.5 * (z0 + z1)]
        turn = np.mod(np.arctan2(p[:, 1], p[:, 0]) - np.arctan2(z0 - z1, r0 - r1),
                      2.0 * np.pi)
        path = ids[np.argsort(turn)]
        assert path[0] == 0
        s = np.array([arcs[i] for i in path])
        assert np.all(np.diff(s) > 0.0)
        steps = np.hypot(*np.diff(m.nodes[path], axis=0).T)
        travelled = np.concatenate([[0.0], np.cumsum(steps)])
        perimeter = 2.0 * ((r1 - r0) + (z1 - z0))
        assert s == pytest.approx(travelled / perimeter, rel=0.0, abs=1e-15)
    # on the 2x2 square a bump at fraction 1/2 peaks at the corner (2, 1) alone
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 2, 2)
    values = fem.BoundaryData(fem.BumpData(0.5, 0.2, 1.0),
                              fem.ConstantData(0.0)).node_values(m)
    assert m.nodes[8].tolist() == [2.0, 1.0]
    assert values[8] == 1.0
    assert max(v for i, v in values.items() if i != 8) < 1.0
