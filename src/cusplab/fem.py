"""Axisymmetric P1 finite elements for the Dirichlet problem on the
meridian cross-section.

The weak form is the weighted Dirichlet form  integral r grad(u).grad(w),
discretized with linear triangles and one-point quadrature of the weight at
the element centroid.  Dirichlet values are eliminated (not penalized), the
reduced system is solved directly by a banded Cholesky factorisation in the
mesh's own node order (triangulate numbers its nodes station by station, so
the band is about as wide as a station), and the stored energy is the full
2 pi weighted discrete Dirichlet integral.

Every node with an essential tag is fixed, so a mesh is assembled and
factored once: the stiffness matrix K, its free-by-fixed block K_fb and the
Cholesky factor live in private state on the mesh and serve every datum.  A
later solve is one LAPACK band solve and two sparse products: K_fb for the
right-hand side, and K once for both the residual certificate and the
energy.  The state also holds each essential tag's nodes with their arc
fractions and arc order, so a datum is evaluated on arrays and sorts
nothing, and a uniform bucket grid built on the first lookup: point
location scans only the triangles of one of its cells.  A solution keeps
its boundary values as the arrays of essential ids and values.  A mesh is
a frozen value, so its state is built once and never goes stale; a copy or
pickle of a mesh starts without it.

Axis nodes carry no essential condition: the weight r vanishes there, so
the discrete problem needs none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs

from .errors import ConvergenceError, DomainError, InputError, MeshError
from .mesh import CAP, ESSENTIAL_TAGS, INNER, OUTER, _signed_areas

# a point lies in a triangle when its barycentric coordinates are >= -tol
_LOCATE_TOL = 1e-12
# the most entries the band storage of a factor may hold: 2^25 doubles, 256 MiB
_MAX_BAND_ENTRIES = 2 ** 25


@dataclass(frozen=True)
class ConstantData:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError(f"constant datum must be finite, got {self.value}")

    def __call__(self, s):
        return self.value + 0.0 * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class BumpData:
    """Smooth compactly supported bump in normalized arc length:
    amplitude * exp(1 - 1/(1 - x^2)) for x = (s - center)/width inside
    |x| < 1, zero outside."""

    center: float
    width: float
    amplitude: float

    def __post_init__(self):
        for name in ("center", "width", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"bump {name} must be finite")
        if self.width <= 0:
            raise InputError("bump width must be positive")

    def __call__(self, s):
        x = (np.asarray(s, dtype=float) - self.center) / self.width
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out


@dataclass(frozen=True)
class TabulatedData:
    """Values listed along a boundary component, bound two ways.  The FEM
    gives them to the component's nodes in arc order, one value per node.
    The arc-length form, the call, places them at equally spaced arc
    fractions from 0 to 1 and interpolates linearly between them.  An empty
    table suits only a component without nodes: the call, the walker and
    the cap refuse it."""

    values: tuple

    def __post_init__(self):
        if not all(map(math.isfinite, self.values)):
            raise InputError("tabulated data must be finite")

    def __call__(self, s):
        if not len(self.values):
            raise InputError("an empty table has no arc-length form")
        return np.interp(s, np.linspace(0.0, 1.0, len(self.values)), self.values)


class BoundaryData:
    """Per-tag boundary data for the essential tags.

    The cusp cap defaults to the inner-level datum (the continuous datum is
    B on the whole inner component including the tip), except that a bump on
    the inner component evaluates to 0 on the cap, and a table on it gives
    the cap its first value: the one at arc fraction 0, the cap-corner end of
    the inner arc, which is also where the table's arc-length form reads it.
    """

    def __init__(self, outer, inner, cap=None):
        self.spec = {OUTER: outer, INNER: inner}
        if cap is not None:
            self.spec[CAP] = cap
        elif isinstance(inner, BumpData):
            self.spec[CAP] = ConstantData(0.0)
        elif isinstance(inner, TabulatedData):
            if not len(inner.values):
                raise InputError("an empty inner table has no value for the cap")
            self.spec[CAP] = ConstantData(float(inner.values[0]))
        else:
            self.spec[CAP] = inner

    @classmethod
    def constants(cls, outer_value, inner_value):
        return cls(ConstantData(outer_value), ConstantData(inner_value))

    def node_values(self, mesh):
        """Values at every essential node of the mesh, keyed by node id."""
        ids, values = self._node_values(_state(mesh))
        return dict(zip(ids.tolist(), values.tolist()))

    def _node_values(self, state):
        """The essential node ids, tag after tag, and their values: in id
        order for a spec of arc fraction, in arc order for a table."""
        ids, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for tag, spec in self.spec.items():
            tag_ids, s, arc_ids = state.boundary[tag]
            if not len(tag_ids):
                continue
            if isinstance(spec, TabulatedData):
                if len(spec.values) != len(tag_ids):
                    raise InputError(
                        f"tabulated data for {tag} has {len(spec.values)} "
                        f"values for {len(tag_ids)} tagged nodes")
                ids.append(arc_ids)
                values.append(np.asarray(spec.values, dtype=float))
            else:
                ids.append(tag_ids)
                values.append(np.asarray(spec(s), dtype=float))
        return np.concatenate(ids), np.concatenate(values)


def _essential_codes(tags):
    """Each tag's index in ESSENTIAL_TAGS, -1 for any other tag."""
    index = {tag: k for k, tag in enumerate(ESSENTIAL_TAGS)}
    return np.fromiter(map(index.get, tags, repeat(-1)), dtype=np.int8,
                       count=len(tags))


def assemble(mesh):
    """Weighted stiffness matrix: K[i,j] = sum_e r_bar_e area_e b_i.b_j."""
    tris = mesh.triangles
    p = mesh.nodes[tris]                           # (m, 3, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    area2 = 2.0 * _signed_areas(p)
    bad = np.flatnonzero(area2 <= 0)
    if len(bad):
        raise MeshError(f"degenerate or flipped element {tris[bad[0]]}")
    r_bar = x.mean(axis=1)
    # b_k = grad of the k-th hat function: rotated opposite edge / (2 area),
    # the edge from corner k + 1 to corner k + 2
    nxt, opp = [1, 2, 0], [2, 0, 1]
    bx = (y[:, nxt] - y[:, opp]) / area2[:, None]
    by = (x[:, opp] - x[:, nxt]) / area2[:, None]
    weight = r_bar * (0.5 * area2)
    ke = weight[:, None, None] * (bx[:, :, None] * bx[:, None, :]
                                  + by[:, :, None] * by[:, None, :])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(mesh.nodes)
    return sparse.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))


@dataclass
class SolutionField:
    """Nodal solution with its weighted Dirichlet energy and solver stats.

    residual is the relative residual of the reduced system.  The boundary
    values are kept as arrays: essential_ids, tag after tag, and
    essential_values; boundary_values maps one to the other in that order
    and is built on first access.  iterations is always 0, as the solve is
    direct; it stays because the benchmark reports it as fem.cg_iterations.
    """

    mesh: object
    values: np.ndarray
    dirichlet_energy: float
    residual: float
    essential_ids: np.ndarray = dataclass_field(repr=False)
    essential_values: np.ndarray = dataclass_field(repr=False)
    iterations: int = 0

    @cached_property
    def boundary_values(self):
        """The value at each essential node, keyed by node id."""
        return dict(zip(self.essential_ids.tolist(), self.essential_values.tolist()))

    def __call__(self, r, z):
        """Barycentric interpolation at a point inside the mesh."""
        tri = _locate(_state(self.mesh), r, z)
        if tri is None:
            raise DomainError(f"point (r={r}, z={z}) lies outside the mesh")
        idx, lam = tri
        return float(np.dot(lam, self.values[idx]))

    def max_principle_margins(self):
        lo, hi = self.essential_values.min(), self.essential_values.max()
        return (float(self.values.min() - lo), float(hi - self.values.max()))


class _MeshState:
    """What the FEM derives from one mesh.  Built at once: each node's index
    in ESSENTIAL_TAGS (codes) and, per essential tag, its node ids in
    ascending order, their arc fractions and the ids in arc order, ties in
    id order (boundary).  Built on first use: the factored system (see
    factor) and the point-location grid.  It holds the mesh's read-only
    nodes and triangles but not the mesh, so the factor is held in no
    reference cycle and is freed with the mesh."""

    def __init__(self, mesh):
        self.nodes, self.triangles = mesh.nodes, mesh.triangles
        self.codes = _essential_codes(mesh.node_tags)
        self.boundary = {}
        for k, tag in enumerate(ESSENTIAL_TAGS):
            ids = np.flatnonzero(self.codes == k)
            # a node the tag's arc does not list sits at arc fraction 0
            arc = mesh.component_arcs.get(tag, {})
            s = np.array([arc.get(i, 0.0) for i in ids.tolist()], dtype=float)
            self.boundary[tag] = ids, s, ids[np.argsort(s, kind="stable")]
        self.chol = None
        self.grid = None

    def factor(self, mesh):
        """Built on first use: the stiffness matrix K, the free and fixed
        (essential) node ids, the CSR block K_fb of K, the lower Cholesky
        factor chol of the block K_ff in the mesh's own order, in LAPACK band
        storage (entry (i, j), i >= j, of K_ff sits at chol[i - j, j]), and
        LAPACK's band solve pbtrs for it.  triangulate numbers its nodes so
        that this band is narrow.  MeshError when the band would hold more
        than _MAX_BAND_ENTRIES entries, or when K_ff is not positive
        definite."""
        if self.chol is None:
            self.K = assemble(mesh)
            self.free = np.flatnonzero(self.codes < 0)
            self.fixed = np.flatnonzero(self.codes >= 0)
            K_free = self.K[self.free]
            self.K_fb = K_free[:, self.fixed]
            # the stored entries of K_ff on or below the diagonal fill the band
            coo = K_free[:, self.free].tocoo()
            lower = coo.row >= coo.col
            depth, j = coo.row[lower] - coo.col[lower], coo.col[lower]
            shape = (int(depth.max(initial=0)) + 1, len(self.free))
            if shape[0] * shape[1] > _MAX_BAND_ENTRIES:
                raise MeshError(f"the band of the reduced stiffness matrix, "
                                f"{shape[0]} x {shape[1]}, exceeds "
                                f"{_MAX_BAND_ENTRIES} entries")
            band = np.zeros(shape)
            band[depth, j] = coo.data[lower]
            try:
                self.chol = cholesky_banded(band, overwrite_ab=True, lower=True,
                                            check_finite=False)
            except LinAlgError as err:
                raise MeshError(f"reduced stiffness matrix is not positive "
                                f"definite: {err}") from None
            self.pbtrs, = get_lapack_funcs(("pbtrs",), (self.chol,))

    def locator(self):
        if self.grid is None:
            self.grid = _BucketGrid(self.nodes, self.triangles)
        return self.grid


def _state(mesh):
    """The mesh's FEM state, built on first use and kept on the mesh."""
    if mesh._fem is None:
        object.__setattr__(mesh, "_fem", _MeshState(mesh))
    return mesh._fem


class _BucketGrid:
    """Uniform grid over the mesh's bounding box, about one cell per
    triangle.  A cell lists, in mesh order, every triangle with a nonzero
    determinant whose padded bounding box meets it; the padding covers all
    points whose computed barycentric coordinates are >= -_LOCATE_TOL.
    coef holds each triangle's a, e1 = b - a, e2 = c - a and determinant,
    seven floats per triangle.  A lookup reads Python numbers: the cell edges
    are lists, and coef, members and start flat memoryviews of the arrays."""

    def __init__(self, nodes, triangles):
        p = nodes[triangles]
        a = p[:, 0]
        e1, e2 = p[:, 1] - a, p[:, 2] - a
        det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
        self.coef = memoryview(np.column_stack([a, e1, e2, det]).ravel())
        tris = np.flatnonzero(det != 0)
        p, a, det = p[tris], a[tris], np.abs(det[tris])
        # pairwise minimum and maximum: numpy reduces a length-3 axis slowly
        lo = np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
        hi = np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
        extent = np.maximum(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1])
        # {lam >= -t} is the triangle scaled by 1 + 3t about its centroid,
        # inside its box padded by 3t extent; t adds to the tolerance a bound
        # on the rounding of lam, which grows with the aspect extent^2/det and
        # with the size of the coordinates against the triangle
        aspect = extent ** 2 / det
        rounding = 32.0 * np.finfo(float).eps * aspect * (
            aspect + 1.0 + np.maximum(np.abs(a[:, 0]), np.abs(a[:, 1])) / extent)
        pad = (3.0 * (_LOCATE_TOL + rounding) * extent)[:, None]
        lo, hi = lo - pad, hi + pad

        box_lo, box_hi = nodes.min(axis=0), nodes.max(axis=0)
        span = box_hi - box_lo
        n = max(len(tris), 1)
        size = math.sqrt(max(span[0] * span[1], np.finfo(float).tiny) / n)
        shape = np.clip(np.ceil(span / size), 1, n).astype(int)
        # the cell edges strictly inside the box: a coordinate's cell is the
        # number of them at or below it, so points beyond the box and nan
        # fall in the cells at its border
        edges = [np.linspace(box_lo[k], box_hi[k], shape[k] + 1)[1:-1]
                 for k in range(2)]
        self.edges = [e.tolist() for e in edges]
        self.n_z = int(shape[1])
        # cells by the same monotone map as the lookup's bisection, so a
        # point inside a padded box always falls in one of the box's cells
        r0, z0, r1, z1 = (np.searchsorted(edges[k], x, side="right")
                          for k, x in ((0, lo[:, 0]), (1, lo[:, 1]),
                                       (0, hi[:, 0]), (1, hi[:, 1])))
        n_z = z1 - z0 + 1
        count = (r1 - r0 + 1) * n_z
        # one (triangle, cell) pair per cell of each box, box after box
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        row, col = np.divmod(offset, np.repeat(n_z, count))
        cell = (np.repeat(r0, count) + row) * self.n_z + np.repeat(z0, count) + col
        # a stable sort keeps each cell's triangles in mesh order
        self.members = memoryview(np.repeat(tris, count)[np.argsort(cell, kind="stable")])
        self.start = memoryview(np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=shape[0] * shape[1]))]))

    def candidates(self, r, z):
        """The ids of the triangles listed in the cell of the point (r, z)."""
        cell = bisect_right(self.edges[0], r) * self.n_z + bisect_right(self.edges[1], z)
        return self.members[self.start[cell]:self.start[cell + 1]]


def _locate(state, r, z):
    """First triangle in mesh order whose barycentric coordinates of (r, z)
    are all >= -_LOCATE_TOL, with those coordinates; None outside the mesh.
    The mesh is the one the FEM state was built from.  Only the triangles
    listed in the bucket-grid cell of (r, z) are tested, and triangles with
    a zero determinant are never listed.  A cell lists about three, so they
    are tested one by one in Python floats, by the formulas of an array
    test and in the same order, which gives the same bits."""
    grid = state.locator()
    r, z = float(r), float(z)
    coef, low = grid.coef, -_LOCATE_TOL
    for t in grid.candidates(r, z):
        a_r, a_z, e1_r, e1_z, e2_r, e2_z, det = coef[7 * t:7 * t + 7]
        dr, dz = r - a_r, z - a_z
        lam1 = (dr * e2_z - e2_r * dz) / det
        lam2 = (e1_r * dz - dr * e1_z) / det
        lam0 = 1.0 - (lam1 + lam2)
        if lam0 >= low and lam1 >= low and lam2 >= low:
            return state.triangles[t], np.array([lam0, lam1, lam2])
    return None


def solve_dirichlet(mesh, data, tol=1e-10):
    """Solve the discrete Dirichlet problem by energy minimization.

    data is a BoundaryData, which gives a value to every node with an
    essential tag.  Those values are eliminated; the reduced SPD system is
    solved by a banded Cholesky factorisation in the mesh's own node order,
    made once per mesh and reused by later data: a later solve is one LAPACK
    band solve and one product with K, which serves both the certificate
    and the energy.  The free rows of K u are K_ff x - rhs, so the relative
    residual |(K u)[free]| / |rhs| is the solve's certificate:
    ConvergenceError when it exceeds tol.
    """
    state = _state(mesh)
    state.factor(mesh)
    ids, fixed_values = data._node_values(state)
    u = np.zeros(len(state.codes))
    u[ids] = fixed_values
    rhs = -(state.K_fb @ u[state.fixed])
    rhs_norm = np.linalg.norm(rhs)
    # unchecked (as in the factor): non-finite values propagate to the
    # residual; the solve overwrites rhs with x
    x, info = state.pbtrs(state.chol, rhs, lower=1, overwrite_b=1)
    if info:
        raise ConvergenceError(f"LAPACK pbtrs failed with info {info}",
                               stats={"info": info})
    u[state.free] = x
    Ku = state.K @ u
    # a nan norm (non-finite data) gives a nan residual, which fails below
    residual = float(np.linalg.norm(Ku[state.free]) / rhs_norm) \
        if rhs_norm != 0 else 0.0
    if not residual <= tol:             # a nan residual fails too
        raise ConvergenceError(
            f"banded Cholesky residual {residual:.2e} exceeds tol {tol:.1e}",
            stats={"residual": residual})
    energy = 2.0 * math.pi * float(u @ Ku)
    return SolutionField(mesh=mesh, values=u, dirichlet_energy=energy,
                         residual=residual, essential_ids=ids,
                         essential_values=fixed_values)


def _two_constant(field, A, B, alpha, beta, log_r, z):
    """The two-constant solution at the points (e^log_r, z), on arrays:
    alpha + (beta - alpha) (V - A)/(B - A).  DomainError names the first
    point where V is not inside (A, B), nan included; rod points raise it
    from the field."""
    v = field.value_slope_log_r(log_r, z)[0]
    outside = ~((A < v) & (v < B))
    if outside.any():
        k = int(np.argmax(outside))
        raise DomainError(f"point (r={np.exp(log_r[k])}, z={z[k]}) lies "
                          f"outside the region (V = {v[k]})")
    return alpha + (beta - alpha) * (v - A) / (B - A)


def two_constant_oracle(field, A, B, alpha, beta, points):
    """Exact solution for data constant on each boundary component:
    alpha + (beta - alpha) (V - A)/(B - A), the harmonic affine image of V
    with the right boundary limits quasi-everywhere."""
    r, z = np.asarray(points, dtype=float).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(r)
    return _two_constant(field, A, B, alpha, beta, log_r, z).tolist()
