import math
import re

import numpy as np
import pytest

from cusplab import density, fem, mesh, potential
from cusplab.errors import ConvergenceError, DomainError, InputError, MeshError

THREE_PI = 3.0 * math.pi


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


@pytest.fixture(scope="module")
def cs(leb):
    return mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-4)


@pytest.fixture(scope="module")
def canonical(cs):
    return mesh.triangulate(cs, n_levels=16, n_stations=64)


@pytest.fixture(scope="module")
def canonical_sol(canonical):
    return fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.5, 2.0),
                               tol=1e-10)


def _single_triangle():
    return mesh.Mesh(
        nodes=np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        node_tags=["outer-level"] * 3,
        edge_tags={(0, 1): "outer-level", (1, 2): "outer-level",
                   (0, 2): "outer-level"})


def test_stiffness_matches_planar_for_unit_weight():
    # right triangle with centroid radius scaled to 1
    m = _single_triangle()
    m.nodes[:, 0] -= m.nodes[:, 0].mean() - 1.0   # r_bar = 1
    K = fem.assemble(m).toarray()
    expect = 0.5 * np.array([[2.0, -1.0, -1.0],
                             [-1.0, 1.0, 0.0],
                             [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expect, atol=1e-14)


def test_stiffness_rows_sum_to_zero(canonical):
    K = fem.assemble(canonical)
    ones = np.ones(K.shape[0])
    assert np.abs(K @ ones).max() < 1e-12


def test_stiffness_scales_with_radius():
    m1 = _single_triangle()
    K1 = fem.assemble(m1).toarray()
    m2 = _single_triangle()
    m2.nodes[:, 0] += 4.0 / 3.0    # doubles the centroid radius
    K2 = fem.assemble(m2).toarray()
    assert np.allclose(K2, 2.0 * K1, rtol=1e-12)


def test_constant_data_gives_constant_field(canonical):
    sol = fem.solve_dirichlet(canonical, fem.BoundaryData.constants(1.3, 1.3))
    assert np.allclose(sol.values, 1.3, atol=1e-12)
    assert sol.dirichlet_energy == pytest.approx(0.0, abs=1e-10)


def test_rectangle_quadratic_reproduced_exactly():
    # r^2 - 2 z^2 is axisymmetric-harmonic; the centroid-weight stiffness is
    # exact for the linear weight, so the interpolant solves the discrete
    # system on a structured rectangle and the nodal error sits at the
    # solver tolerance rather than at O(h^2)
    exact = lambda r, z: r * r - 2.0 * z * z
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 8, 8)
    vals = np.array([exact(r, z) for r, z in m.nodes])
    bc = {i: vals[i] for i, t in enumerate(m.node_tags) if t == "outer-level"}
    sol = fem.solve_dirichlet(m, bc, tol=1e-13)
    assert np.abs(sol.values - vals).max() < 1e-9


def test_rectangle_point_source_converges_at_h2():
    # harmonic oracle: the Newtonian kernel of a point source outside the
    # rectangle; P1 interpolation limits convergence to rate ~ 2
    exact = lambda r, z: 1.0 / math.hypot(r, z + 0.5)
    errs = []
    for n in (4, 8, 16):
        m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, n, n)
        vals = np.array([exact(r, z) for r, z in m.nodes])
        bc = {i: vals[i] for i, t in enumerate(m.node_tags) if t == "outer-level"}
        sol = fem.solve_dirichlet(m, bc, tol=1e-13)
        errs.append(np.abs(sol.values - vals).max())
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(1.6 <= r <= 2.6 for r in rates), (errs, rates)


def test_canonical_solution_matches_potential(canonical, canonical_sol, leb):
    sol = canonical_sol
    errs = []
    for i, tag in enumerate(canonical.node_tags):
        r, z = canonical.nodes[i]
        if tag == "interior" and z >= 2.0 * canonical.z_cut:
            v = leb.value(r, z)
            errs.append(abs(sol.values[i] - v) / v)
    assert max(errs) <= 0.01


def test_canonical_energy_near_flux_oracle(canonical_sol):
    # divergence theorem: energy = 2 (2 pi) + (1/2)(-2 pi) = 3 pi for total
    # rod mass 1/2 and flux +-4 pi M through the two boundary components
    assert canonical_sol.dirichlet_energy == pytest.approx(THREE_PI, rel=0.02)


def test_two_constant_energy_scaling(canonical):
    # data (0, 1) is the affine image with slope 1/(B-A) = 2/3
    sol = fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.0, 1.0))
    assert sol.dirichlet_energy == pytest.approx((4.0 / 9.0) * THREE_PI, rel=0.02)


def test_discrete_energy_minimality(canonical, canonical_sol):
    K = fem.assemble(canonical)
    u = canonical_sol.values.copy()
    e0 = u @ (K @ u)
    rng = np.random.default_rng(5)
    free = [i for i, t in enumerate(canonical.node_tags)
            if t in ("interior", "axis")]
    for i in rng.choice(free, size=8, replace=False):
        for delta in (1e-3, -1e-3):
            up = u.copy()
            up[i] += delta
            assert up @ (K @ up) > e0


def test_max_principle_random_data(canonical):
    rng = np.random.default_rng(42)
    for k in range(20):
        if k % 3 == 0:
            data = fem.BoundaryData.constants(rng.uniform(-2, 2),
                                              rng.uniform(-2, 2))
        elif k % 3 == 1:
            data = fem.BoundaryData(
                fem.BumpData(rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3),
                             rng.uniform(-3, 3)),
                fem.ConstantData(rng.uniform(-1, 1)))
        else:
            n_out = len(canonical.nodes_with_tag("outer-level"))
            n_in = len(canonical.nodes_with_tag("inner-level"))
            data = fem.BoundaryData(
                fem.TabulatedData(tuple(rng.uniform(-1, 1, n_out))),
                fem.TabulatedData(tuple(rng.uniform(-1, 1, n_in))),
                fem.ConstantData(rng.uniform(-1, 1)))
        sol = fem.solve_dirichlet(canonical, data, tol=1e-12)
        lo, hi = sol.max_principle_margins()
        assert lo >= -1e-8 and hi >= -1e-8


def test_superposition(canonical):
    d1 = fem.BoundaryData.constants(1.0, 0.0)
    d2 = fem.BoundaryData(fem.BumpData(0.5, 0.2, 1.0), fem.ConstantData(0.5))
    s1 = fem.solve_dirichlet(canonical, d1, tol=1e-12)
    s2 = fem.solve_dirichlet(canonical, d2, tol=1e-12)
    combo = {i: 2.0 * s1.boundary_values[i] + s2.boundary_values[i]
             for i in s1.boundary_values}
    s3 = fem.solve_dirichlet(canonical, combo, tol=1e-12)
    assert np.abs(s3.values - (2.0 * s1.values + s2.values)).max() < 1e-8


def test_two_constant_affine_consistency(canonical):
    alpha, beta = -0.7, 1.9
    base = fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.5, 2.0),
                               tol=1e-12)
    other = fem.solve_dirichlet(canonical,
                                fem.BoundaryData.constants(alpha, beta),
                                tol=1e-12)
    mapped = alpha + (beta - alpha) / 1.5 * (base.values - 0.5)
    assert np.abs(other.values - mapped).max() < 1e-8


def test_two_constant_oracle(leb):
    pts = [(0.5, 0.5), (0.3, -0.1)]
    assert fem.two_constant_oracle(leb, 0.5, 2.0, 0.5, 2.0, pts) == \
        pytest.approx([leb.value(*p) for p in pts])
    assert fem.two_constant_oracle(leb, 0.5, 2.0, 0.9, 0.9, pts) == \
        pytest.approx([0.9, 0.9])
    with pytest.raises(DomainError):
        fem.two_constant_oracle(leb, 0.5, 2.0, 0.0, 1.0, [(3.0, 3.0)])


def test_oracle_on_level_curve(leb):
    from cusplab import contour
    r = contour.radius_at(leb, 1.5, 0.4)
    val = fem.two_constant_oracle(leb, 0.5, 2.0, 0.5, 2.0, [(r, 0.4)])[0]
    assert val == pytest.approx(1.5, abs=1e-9)


def test_missing_tag_data_rejected(canonical):
    bc = {i: 1.0 for i, t in enumerate(canonical.node_tags)
          if t == "outer-level"}
    with pytest.raises(InputError):
        fem.solve_dirichlet(canonical, bc)


def test_residual_certificate_raises(canonical):
    # the direct solve reaches about 1e-15, never 1e-20
    with pytest.raises(ConvergenceError) as err:
        fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.5, 2.0),
                            tol=1e-20)
    assert 0.0 < err.value.stats["residual"] <= 1e-13


def _canonical_data(canonical):
    rng = np.random.default_rng(3)
    n_out = len(canonical.nodes_with_tag("outer-level"))
    n_in = len(canonical.nodes_with_tag("inner-level"))
    return {
        "constant": fem.BoundaryData.constants(0.5, 2.0),
        "bump": fem.BoundaryData(fem.BumpData(0.4, 0.25, 2.5),
                                 fem.ConstantData(-0.5)),
        "tabulated": fem.BoundaryData(
            fem.TabulatedData(tuple(rng.uniform(-1, 1, n_out))),
            fem.TabulatedData(tuple(rng.uniform(-1, 1, n_in))),
            fem.ConstantData(0.3)),
    }


def test_direct_solve_residual(canonical):
    for kind, data in _canonical_data(canonical).items():
        sol = fem.solve_dirichlet(canonical, data, tol=1e-12)
        assert sol.residual <= 1e-13, kind
        assert sol.iterations == 0


def _node_values_reference(data, m):
    """One scalar call of the spec per node, in node order per tag."""
    out = {}
    tags = np.asarray(m.node_tags)
    for tag, spec in data.spec.items():
        arc = m.component_arcs.get(tag)
        ids = np.flatnonzero(tags == tag).tolist()
        if isinstance(spec, fem.TabulatedData):
            ids = sorted(ids, key=lambda i: arc.get(i, 0.0)) if arc else ids
            out.update(zip(ids, map(float, spec.values)))
        else:
            for i in ids:
                out[i] = float(spec(arc.get(i, 0.0) if arc else 0.0))
    return out


def test_node_values_match_scalar_calls(canonical):
    for kind, data in _canonical_data(canonical).items():
        got = data.node_values(canonical).items()
        assert list(got) == list(_node_values_reference(data, canonical).items()), kind


def test_interpolation(canonical, canonical_sol, leb):
    v = canonical_sol(0.5, 0.5)
    assert v == pytest.approx(leb.value(0.5, 0.5), rel=0.01)
    with pytest.raises(DomainError):
        canonical_sol(5.0, 5.0)


def _assemble_reference(m):
    """Per-element loop: the stiffness matrix entry by entry."""
    K = np.zeros((len(m.nodes), len(m.nodes)))
    for tri in m.triangles:
        x, y = m.nodes[tri, 0], m.nodes[tri, 1]
        area2 = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
        bx = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / area2
        by = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / area2
        K[np.ix_(tri, tri)] += x.mean() * 0.5 * area2 * (np.outer(bx, bx)
                                                         + np.outer(by, by))
    return K


def test_assemble_matches_element_loop(canonical):
    K = fem.assemble(canonical).toarray()
    ref = _assemble_reference(canonical)
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()


def test_assemble_names_first_flipped_element():
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 4, 4)
    for k in (5, 9):
        m.triangles[k] = m.triangles[k, [0, 2, 1]]
    with pytest.raises(MeshError, match=re.escape(str(m.triangles[5]))):
        fem.assemble(m)


def _locate_reference(m, r, z, tol=1e-12):
    """Linear scan with one 2x2 solve per triangle."""
    p = np.array([r, z])
    for tri in m.triangles:
        a, b, c = m.nodes[tri]
        try:
            lam12 = np.linalg.solve(np.column_stack([b - a, c - a]), p - a)
        except np.linalg.LinAlgError:
            continue
        lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
        if np.all(lam >= -tol):
            return tri, lam
    return None


def test_locate_matches_linear_scan(cs):
    small = mesh.triangulate(cs, n_levels=4, n_stations=8)
    rng = np.random.default_rng(11)
    inside, outside = [], []
    while len(inside) < 200:
        r, z = rng.uniform(0.0, 1.6), rng.uniform(-0.7, 2.0)
        (inside if _locate_reference(small, r, z) else outside).append((r, z))
    t = small.triangles
    edges = np.unique(np.sort(np.concatenate([t[:, :2], t[:, 1:], t[:, ::2]]),
                              axis=1), axis=0)
    midpoints = 0.5 * (small.nodes[edges[:, 0]] + small.nodes[edges[:, 1]])
    points = inside + outside + [tuple(p) for p in small.nodes] \
        + [tuple(p) for p in midpoints] + [(3.0, 3.0), (0.1, -5.0)]
    assert len(outside) > 10
    for r, z in points:
        got, want = fem._locate(small, r, z), _locate_reference(small, r, z)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got[0], want[0])
            assert np.abs(got[1] - want[1]).max() <= 1e-12
