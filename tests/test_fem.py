import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

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
    m = dataclasses.replace(m, nodes=m.nodes - [m.nodes[:, 0].mean() - 1.0, 0.0])
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
    # doubles the centroid radius
    m2 = dataclasses.replace(m1, nodes=m1.nodes + [4.0 / 3.0, 0.0])
    K2 = fem.assemble(m2).toarray()
    assert np.allclose(K2, 2.0 * K1, rtol=1e-12)


def test_constant_data_gives_constant_field(canonical):
    sol = fem.solve_dirichlet(canonical, fem.BoundaryData.constants(1.3, 1.3))
    assert np.allclose(sol.values, 1.3, atol=1e-12)
    assert sol.dirichlet_energy == pytest.approx(0.0, abs=1e-10)


def _tables(m, values):
    """BoundaryData giving each essential node i of m the value values[i]:
    one table per tag, in arc order."""
    tables = []
    for tag in mesh.ESSENTIAL_TAGS:
        arc = m.component_arcs.get(tag, {})
        ids = sorted(m.nodes_with_tag(tag).tolist(), key=lambda i: arc.get(i, 0.0))
        tables.append(fem.TabulatedData(tuple(float(values[i]) for i in ids)))
    return fem.BoundaryData(*tables)


def test_rectangle_quadratic_reproduced_exactly():
    # r^2 - 2 z^2 is axisymmetric-harmonic; the centroid-weight stiffness is
    # exact for the linear weight, so the interpolant solves the discrete
    # system on a structured rectangle and the nodal error sits at the
    # solver tolerance rather than at O(h^2)
    exact = lambda r, z: r * r - 2.0 * z * z
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 8, 8)
    vals = np.array([exact(r, z) for r, z in m.nodes])
    sol = fem.solve_dirichlet(m, _tables(m, vals), tol=1e-13)
    assert np.abs(sol.values - vals).max() < 1e-9


def test_rectangle_point_source_converges_at_h2():
    # harmonic oracle: the Newtonian kernel of a point source outside the
    # rectangle; P1 interpolation limits convergence to rate ~ 2
    exact = lambda r, z: 1.0 / math.hypot(r, z + 0.5)
    errs = []
    for n in (4, 8, 16):
        m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, n, n)
        vals = np.array([exact(r, z) for r, z in m.nodes])
        sol = fem.solve_dirichlet(m, _tables(m, vals), tol=1e-13)
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
    s3 = fem.solve_dirichlet(canonical, _tables(canonical, combo), tol=1e-12)
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
    # an axis point below the rod lies in the region
    assert fem.two_constant_oracle(leb, 0.5, 2.0, 0.5, 2.0, [(0.0, -0.3)]) == \
        pytest.approx([leb.value(0.0, -0.3)])
    # outside the region, a rod point and nan
    for p in [(3.0, 3.0), (0.0, 0.5), (math.nan, 0.5)]:
        with pytest.raises(DomainError):
            fem.two_constant_oracle(leb, 0.5, 2.0, 0.0, 1.0, [(0.5, 0.5), p])


def test_tabulated_arc_length_form():
    values = (0.3, -1.0, 2.5, 0.0, 4.0)
    s = np.concatenate([np.linspace(0.0, 1.0, 41), [0.123, 0.999]])
    assert np.array_equal(fem.TabulatedData(values)(s),
                          np.interp(s, np.linspace(0.0, 1.0, len(values)), values))


def test_empty_table_has_no_arc_length_form():
    # an empty table has no value to read at any arc fraction
    with pytest.raises(InputError, match="empty table has no arc-length form"):
        fem.TabulatedData(())(0.5)


def test_tabulated_inner_datum_sets_the_cap(cs):
    # with no cap datum, the cap nodes take the inner table's first value,
    # the one at the cap-corner end of the inner arc
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    rng = np.random.default_rng(5)
    n_out = len(m.nodes_with_tag("outer-level"))
    n_in = len(m.nodes_with_tag("inner-level"))
    inner = fem.TabulatedData(tuple(rng.uniform(-1, 1, n_in)))
    data = fem.BoundaryData(fem.TabulatedData(tuple(rng.uniform(-1, 1, n_out))),
                            inner)
    sol = fem.solve_dirichlet(m, data, tol=1e-10)
    cap = m.nodes_with_tag("cusp-cap")
    assert len(cap) and len(cap) != n_in
    assert all(sol.values[i] == inner.values[0] for i in cap)
    # a table needs one value per node of its component
    short = fem.BoundaryData(data.spec["outer-level"],
                             fem.TabulatedData(inner.values[1:]))
    with pytest.raises(InputError, match=f"has {n_in - 1} values for {n_in} tagged nodes"):
        fem.solve_dirichlet(m, short)


def test_oracle_on_level_curve(leb):
    from cusplab import contour
    r = contour.radius_at(leb, 1.5, 0.4)
    val = fem.two_constant_oracle(leb, 0.5, 2.0, 0.5, 2.0, [(r, 0.4)])[0]
    assert val == pytest.approx(1.5, abs=1e-9)


def test_residual_certificate_raises(canonical):
    # the direct solve reaches about 1e-15, never 1e-20
    with pytest.raises(ConvergenceError) as err:
        fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.5, 2.0),
                            tol=1e-20)
    assert 0.0 < err.value.stats["residual"] <= 1e-13


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_tol_must_be_positive_and_finite(canonical, tol):
    # a tol of 0 or below fails every solve and one that is not finite
    # certifies none
    with pytest.raises(InputError, match="tol must be positive and finite"):
        fem.solve_dirichlet(canonical, fem.BoundaryData.constants(0.5, 2.0), tol=tol)


def test_empty_inner_table_gives_the_cap_no_value():
    # an empty table suits only a component without nodes (_tables gives one
    # to each tag a rectangle lacks); as the inner datum it leaves the cap
    # without a value, refused when the data are made
    with pytest.raises(InputError, match="empty inner table"):
        fem.BoundaryData(fem.ConstantData(0.5), fem.TabulatedData(()))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_data_refused(value):
    # a constant or a table that is not finite is refused when it is made
    with pytest.raises(InputError, match="finite"):
        fem.ConstantData(value)
    with pytest.raises(InputError, match="finite"):
        fem.BoundaryData.constants(value, 1.0)
    with pytest.raises(InputError, match="finite"):
        fem.TabulatedData((1.0, value, 2.0))
    # so is each field of a bump: a nan center would read as all-zero data
    # and an infinite width as a constant
    for name in ("center", "width", "amplitude"):
        with pytest.raises(InputError, match=f"bump {name} must be finite"):
            fem.BumpData(**{"center": 0.5, "width": 0.25, "amplitude": 1.0,
                            name: value})
    # a callable datum is checked by the solve: its residual is nan, not 0
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 4, 4)
    data = fem.BoundaryData(lambda s: np.where(np.asarray(s) > 0.5, value, 1.0),
                            fem.ConstantData(0.0))
    with pytest.raises(ConvergenceError) as err:
        fem.solve_dirichlet(m, data)
    assert math.isnan(err.value.stats["residual"])


@pytest.mark.parametrize("n_levels, n_stations", [(16, 64), (32, 128), (48, 192)])
def test_linear_data_reproduced_at_every_node(cs, n_levels, n_stations):
    # patch test: h = z is axisymmetric-harmonic and linear, and the
    # one-point weighted form is exact for linear u, so with h given on
    # every essential component, cap included, the discrete solution is z
    # itself at every node, axis nodes included
    m = mesh.triangulate(cs, n_levels=n_levels, n_stations=n_stations)
    z = m.nodes[:, 1]
    sol = fem.solve_dirichlet(m, _tables(m, z))
    assert np.abs(sol.values - z).max() <= 1e-12


def _canonical_data(canonical):
    rng = np.random.default_rng(3)
    n_out = len(canonical.nodes_with_tag("outer-level"))
    n_in = len(canonical.nodes_with_tag("inner-level"))
    return {
        "constant": fem.BoundaryData.constants(0.5, 2.0),
        "bump": fem.BoundaryData(fem.BumpData(0.4, 0.25, 2.5),
                                 fem.ConstantData(-0.5)),
        # a bump on the inner component gives the cusp cap 0
        "inner-bump": fem.BoundaryData(fem.ConstantData(0.5),
                                       fem.BumpData(0.6, 0.3, 1.5)),
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


def _assert_same_solution(got, want):
    assert np.array_equal(got.values, want.values)
    assert got.dirichlet_energy == want.dirichlet_energy
    assert got.residual == want.residual


def test_reused_factor_is_exact(canonical):
    # a deep copy or pickle of a solved mesh is frozen, starts without FEM
    # state and factors anew; so does the mesh of a copied solution
    data = _canonical_data(canonical)
    first = {kind: fem.solve_dirichlet(canonical, d, tol=1e-12)
             for kind, d in data.items()}
    points = [tuple(canonical.nodes[canonical.triangles[k]].mean(axis=0))
              for k in (10, 40, 90)]
    for twin in (copy.deepcopy(canonical), pickle.loads(pickle.dumps(canonical))):
        assert twin._fem is None
        assert not twin.nodes.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.z_cut = 0.0
        for kind, d in data.items():
            for m in (canonical, twin):
                got = fem.solve_dirichlet(m, d, tol=1e-12)
                _assert_same_solution(got, first[kind])
                assert [got(*p) for p in points] == [first[kind](*p) for p in points]
    sol = copy.deepcopy(first["bump"])
    assert sol.mesh is not canonical and sol.mesh._fem is None
    assert [sol(*p) for p in points] == [first["bump"](*p) for p in points]


def test_solution_reads_the_mesh_it_was_solved_on(cs):
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    sol = fem.solve_dirichlet(m, fem.BoundaryData(fem.BumpData(0.4, 0.25, 2.5),
                                                  fem.ConstantData(-0.5)))
    centroids = [tuple(m.nodes[m.triangles[k]].mean(axis=0)) for k in (10, 40, 90)]
    nodes = [int(m.triangles[k, 0]) for k in (10, 40, 90)]
    before = [sol(r, z) for r, z in centroids]
    with pytest.raises(ValueError):
        m.nodes[:, 0] *= 1.25          # a mesh cannot be moved in place
    # a moved mesh is a new mesh; the solution still reads the one it was
    # solved on
    moved = dataclasses.replace(m, nodes=m.nodes * [1.25, 1.0])
    assert sol.mesh is m
    assert [sol(r, z) for r, z in centroids] == before
    for i in nodes:
        assert sol(*m.nodes[i]) == pytest.approx(sol.values[i], abs=1e-12)
    assert fem.solve_dirichlet(moved, fem.BoundaryData(
        fem.BumpData(0.4, 0.25, 2.5), fem.ConstantData(-0.5))).mesh is moved
    assert m._fem is not moved._fem
    # a copy looks points up in a mesh equal to the one it was solved on
    for twin in (dataclasses.replace(sol), copy.deepcopy(sol)):
        got = [twin(r, z) for r, z in centroids]
        assert got == pytest.approx(before, abs=1e-12)


def _fresh(m, **changes):
    """A mesh built from copies of m's fields, with the given ones changed."""
    fields = dict(nodes=m.nodes.copy(), triangles=m.triangles.copy(),
                  node_tags=list(m.node_tags), edge_tags=dict(m.edge_tags),
                  component_arcs={tag: dict(arc)
                                  for tag, arc in m.component_arcs.items()},
                  z_cut=m.z_cut)
    return mesh.Mesh(**{**fields, **changes})


def test_replaced_mesh_solves_like_a_fresh_one(cs):
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    data = fem.BoundaryData(fem.BumpData(0.4, 0.25, 2.5), fem.ConstantData(-0.5))
    base = fem.solve_dirichlet(m, data)
    # an interior node joins the outer level, at arc fraction 0, and the
    # outer arc's first node moves onto the bump's peak
    tags = list(m.node_tags)
    tags[int(m.nodes_with_tag(mesh.INTERIOR)[5])] = mesh.OUTER
    outer = dict(m.component_arcs[mesh.OUTER])
    outer[min(outer, key=outer.get)] = 0.4
    for changes in ({"nodes": m.nodes * [1.25, 1.0]},
                    {"triangles": m.triangles[::-1].copy()},
                    {"node_tags": tags},
                    {"component_arcs": {**m.component_arcs, mesh.OUTER: outer}}):
        moved = dataclasses.replace(m, **changes)
        assert moved._fem is None
        got = fem.solve_dirichlet(moved, data)
        want = fem.solve_dirichlet(_fresh(m, **changes), data)
        _assert_same_solution(got, want)
        assert got.boundary_values == want.boundary_values
        point = tuple(moved.nodes[moved.triangles[40]].mean(axis=0))
        assert got(*point) == want(*point)
        assert "triangles" in changes or not np.array_equal(got.values, base.values)


def _reduced_system(m, bc):
    """From the node-value dict bc: the stiffness matrix K, the free node
    ids, K_ff (CSR), the right-hand side of the reduced system and the nodal
    vector u holding the fixed values."""
    K = fem.assemble(m)
    n = len(m.nodes)
    ids = np.fromiter(bc, dtype=int, count=len(bc))
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[ids] = True
    free, fixed = np.flatnonzero(~is_fixed), np.flatnonzero(is_fixed)
    u = np.zeros(n)
    u[ids] = np.fromiter(bc.values(), dtype=float, count=len(bc))
    return K, free, K[free][:, free], -(K[free][:, fixed] @ u[fixed]), u


def _solve_reference(m, bc):
    """The solve written out in full from the node-value dict bc: values,
    energy and residual.  The entries on and below the diagonal of K_ff, in
    the mesh's own order, fill the LAPACK lower band storage (entry (i, j)
    in row i - j, column j), and cholesky_banded and cho_solve_banded solve
    in that order.  The free rows of K u are K_ff x - rhs: their norm over
    |rhs| is the residual."""
    K, free, K_ff, rhs, u = _reduced_system(m, bc)
    P = K_ff.tocoo()
    lower = P.row >= P.col
    depth = (P.row - P.col)[lower]
    ab = np.zeros((depth.max() + 1, len(free)))
    ab[depth, P.col[lower]] = P.data[lower]
    u[free] = cho_solve_banded((cholesky_banded(ab, lower=True), True), rhs)
    Ku = K @ u
    residual = float(np.linalg.norm(Ku[free]) / np.linalg.norm(rhs))
    return u, 2.0 * math.pi * float(u @ Ku), residual


def _interpolate_reference(m, values, r, z):
    """Barycentric interpolation in the first triangle, in mesh order, of a
    scan over all triangles with the locator's formula."""
    a = m.nodes[m.triangles[:, 0]]
    e1 = m.nodes[m.triangles[:, 1]] - a
    e2 = m.nodes[m.triangles[:, 2]] - a
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    dr, dz = r - a[:, 0], z - a[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = (dr * e2[:, 1] - e2[:, 0] * dz) / det
        lam2 = (e1[:, 0] * dz - dr * e1[:, 1]) / det
    lam0 = 1.0 - (lam1 + lam2)
    tol = fem._LOCATE_TOL
    k = np.flatnonzero((lam0 >= -tol) & (lam1 >= -tol) & (lam2 >= -tol))[0]
    lam = np.array([lam0[k], lam1[k], lam2[k]])
    return float(np.dot(lam, values[m.triangles[k]]))


def test_solution_matches_reference_bit_for_bit(canonical):
    pick = np.random.default_rng(5).choice(len(canonical.triangles), 8, replace=False)
    points = [tuple(canonical.nodes[canonical.triangles[k]].mean(axis=0)) for k in pick]
    for kind, data in _canonical_data(canonical).items():
        bc = _node_values_reference(data, canonical)
        values, energy, residual = _solve_reference(canonical, bc)
        sol = fem.solve_dirichlet(canonical, data, tol=1e-12)
        assert np.array_equal(sol.values, values), kind
        assert sol.dirichlet_energy == energy, kind
        assert sol.residual == residual, kind
        assert list(sol.boundary_values.items()) == list(bc.items()), kind
        assert [sol(r, z) for r, z in points] == \
            [_interpolate_reference(canonical, values, r, z) for r, z in points], kind


def test_solve_agrees_with_superlu(canonical):
    # SuperLU with its default ordering, an independent direct solver of
    # the same reduced system
    rect = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 12, 12)
    cases = [(canonical, data) for data in _canonical_data(canonical).values()]
    cases.append((rect, fem.BoundaryData(fem.BumpData(0.3, 0.2, 1.5),
                                         fem.ConstantData(0.0))))
    for m, data in cases:
        sol = fem.solve_dirichlet(m, data, tol=1e-12)
        _, free, K_ff, rhs, _ = _reduced_system(m, sol.boundary_values)
        want = splu(K_ff.tocsc()).solve(rhs)
        assert np.abs(sol.values[free] - want).max() <= 1e-12 * np.abs(want).max()


def test_later_solves_reuse_the_factor(canonical, monkeypatch):
    calls = []
    def counted(*args, **kwargs):
        calls.append(1)
        return cholesky_banded(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted)
    m = dataclasses.replace(canonical)
    for data in _canonical_data(canonical).values():
        fem.solve_dirichlet(m, data, tol=1e-12)
    assert len(calls) == 1


def test_certificate_checks_the_solve_it_certifies(cs, monkeypatch):
    # a band solve that is off by one part in 1e9 fails the certificate;
    # a later solve on a factored mesh runs the band solve once and
    # factors nothing
    m = mesh.triangulate(cs, n_levels=8, n_stations=32)
    data = fem.BoundaryData(fem.BumpData(0.4, 0.25, 2.5), fem.ConstantData(-0.5))
    fem.solve_dirichlet(m, data, tol=1e-12)
    state = fem._state(m)
    band_solve, calls, factored = state.pbtrs, [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return band_solve(*args, **kwargs)

    def skewed(*args, **kwargs):
        x, info = band_solve(*args, **kwargs)
        return x * (1.0 + 1e-9), info

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", lambda *a, **k: factored.append(a))
    state.pbtrs = counted
    assert fem.solve_dirichlet(m, data, tol=1e-12).residual <= 1e-12
    assert calls == [1] and factored == []
    state.pbtrs = skewed
    with pytest.raises(ConvergenceError) as err:
        fem.solve_dirichlet(m, data, tol=1e-12)
    assert err.value.stats["residual"] > 1e-12
    assert factored == []


def test_factor_failure_is_a_mesh_error():
    # a free node in no triangle has a zero row in K_ff, so the factor
    # meets a zero pivot and LAPACK's LinAlgError becomes a MeshError
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 4, 4)
    lonely = dataclasses.replace(m, nodes=np.vstack([m.nodes, [[1.5, 0.5]]]),
                                 node_tags=m.node_tags + (mesh.INTERIOR,))
    with pytest.raises(MeshError, match="not positive definite"):
        fem.solve_dirichlet(lonely, fem.BoundaryData.constants(1.0, 2.0))


@pytest.mark.parametrize("n_levels", [8, 16, 24, 32, 64])
def test_own_order_band_is_one_station_wide(cs, n_levels):
    # triangulate numbers its nodes station by station, the rails fastest,
    # so a triangle joins free nodes at most n_levels + 1 apart in K_ff.
    # From the triangles: assemble refuses the folded 64x256 mesh
    m = mesh.triangulate(cs, n_levels=n_levels, n_stations=4 * n_levels)
    is_free = ~np.isin(np.asarray(m.node_tags), mesh.ESSENTIAL_TAGS)
    index = np.cumsum(is_free) - 1                  # free node -> row of K_ff
    t = m.triangles
    band = 0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        both = is_free[t[:, a]] & is_free[t[:, b]]
        band = max(band, np.abs(index[t[both, a]] - index[t[both, b]]).max())
    assert band == n_levels + 1
    if n_levels <= 32:
        fem.solve_dirichlet(m, fem.BoundaryData.constants(0.5, 2.0))
        assert fem._state(m).chol.shape == (band + 1, is_free.sum())


def _renumbered(m, order):
    """The mesh m with its node order[k] renamed k."""
    new = np.empty_like(order)
    new[order] = np.arange(len(order))
    return mesh.Mesh(
        nodes=m.nodes[order], triangles=new[m.triangles],
        node_tags=[m.node_tags[k] for k in order],
        edge_tags={tuple(sorted(new[list(e)].tolist())): tag
                   for e, tag in m.edge_tags.items()},
        component_arcs={tag: {int(new[k]): s for k, s in arc.items()}
                        for tag, arc in m.component_arcs.items()},
        z_cut=m.z_cut)


def test_band_too_wide_is_a_mesh_error(monkeypatch):
    # the factor takes a mesh's own order, so a shuffled numbering widens
    # the band from 14 x 121 entries to about 121 x 121.  Both meshes solve
    # alike; with the cap between the two, the shuffled one is refused
    # before its band is filled and factored
    m = mesh.rectangle_mesh(1.0, 2.0, 0.0, 1.0, 12, 12)
    order = np.random.default_rng(3).permutation(len(m.nodes))
    data = fem.BoundaryData(fem.BumpData(0.3, 0.2, 1.5), fem.ConstantData(0.0))
    want = fem.solve_dirichlet(m, data, tol=1e-12).values
    got = fem.solve_dirichlet(_renumbered(m, order), data, tol=1e-12).values
    assert np.abs(got - want[order]).max() <= 1e-14 * np.abs(want).max()
    monkeypatch.setattr(fem, "_MAX_BAND_ENTRIES", 4000)
    assert np.array_equal(fem.solve_dirichlet(dataclasses.replace(m), data,
                                              tol=1e-12).values, want)
    factored = []
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", lambda *a, **k: factored.append(a))
    with pytest.raises(MeshError, match="exceeds 4000 entries"):
        fem.solve_dirichlet(_renumbered(m, order), data)
    assert factored == []


def test_mesh_with_every_node_fixed():
    # no free node: an empty system, which the ordering cannot take
    sol = fem.solve_dirichlet(_single_triangle(),
                              fem.BoundaryData.constants(1.5, 0.0))
    assert sol.values.tolist() == [1.5, 1.5, 1.5]
    assert sol.residual == 0.0


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
    cap = _canonical_data(canonical)["inner-bump"].node_values(canonical)
    assert {cap[i] for i in canonical.nodes_with_tag("cusp-cap")} == {0.0}


def test_interpolation(canonical, canonical_sol, leb):
    v = canonical_sol(0.5, 0.5)
    assert v == pytest.approx(leb.value(0.5, 0.5), rel=0.01)
    # outside the bucket grid's box, and non-finite coordinates
    for r, z in [(5.0, 5.0), (-1.0, 0.5), (math.nan, 0.5), (1.5, math.inf)]:
        with pytest.raises(DomainError):
            canonical_sol(r, z)


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
    tris = m.triangles.copy()
    for k in (5, 9):
        tris[k] = tris[k, [0, 2, 1]]
    m = dataclasses.replace(m, triangles=tris)
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


def test_locate_matches_linear_scan(cs, canonical):
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
    cases = [(small, points)]

    # the 16x64 mesh: nodes, edge midpoints, the cusp cap and points just
    # outside the outer boundary and beyond the mesh
    t = canonical.triangles
    edges = np.unique(np.sort(np.concatenate([t[:, :2], t[:, 1:], t[:, ::2]]),
                              axis=1), axis=0)
    nodes = canonical.nodes
    cap = nodes[canonical.nodes_with_tag(mesh.CAP)]
    outer = nodes[canonical.nodes_with_tag(mesh.OUTER)]
    pick = np.random.default_rng(12).choice
    points = [tuple(p) for p in nodes[pick(len(nodes), 18, replace=False)]]
    points += [tuple(0.5 * (nodes[i] + nodes[j]))
               for i, j in edges[pick(len(edges), 18, replace=False)]]
    points += [tuple(p) for p in cap] + [tuple(p * (1.0 + d)) for p in cap
                                         for d in (-1e-3, 1e-13, 1e-3)]
    points += [tuple(p) for p in 1.001 * outer[pick(len(outer), 4, replace=False)]]
    points += [(0.0, 0.0), (1.5, -2.0)]
    cases.append((canonical, points))

    for m, points in cases:
        for r, z in points:
            got, want = fem._locate(fem._state(m), r, z), _locate_reference(m, r, z)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got[0], want[0])
                assert np.abs(got[1] - want[1]).max() <= 1e-12
