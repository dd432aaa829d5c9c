"""Meridian cross-section of the domain {A < V < B} and its triangulation.

The mesh is a structured contour grid: nodes sit on level curves of V
("rails"), rails are joined into quads by station index, quads split into
triangles along the better diagonal.  Every cusp rail (level above V(0,0))
is truncated where its radius falls to the mesh's truncation radius and
anchored to the axis by a tip node; the exponentially thin sliver below the
truncation is collapsed onto the axis, which confines the modelling error
to cells whose axisymmetric weight r is itself of truncation size.  The
inner boundary keeps a single cap edge of that radius, so the cusp-cap
boundary stays tiny while the surrounding cells keep healthy angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .contour import (ContourCurve, log_radius_at, polyline_arcs, radius_below,
                      trace_contours)
from .errors import InputError, MeshError, RangeError

OUTER = "outer-level"
INNER = "inner-level"
CAP = "cusp-cap"
AXIS = "axis"
INTERIOR = "interior"

ESSENTIAL_TAGS = (OUTER, INNER, CAP)


@dataclass
class CrossSection:
    """The region between the level-A and level-B contours, with the cusp of
    the inner contour truncated at z_cut (where r_B = r_min)."""

    field: object
    A: float
    B: float
    r_min: float
    z_cut: float
    outer: ContourCurve                  # full level-A curve
    inner: ContourCurve                  # level-B curve, traced in full
    inner_truncated: np.ndarray          # (z, r) samples of level B, z >= z_cut
    axis_segments: tuple                 # ((z1(A), 0), (z2(B), z2(A)))
    # private walk-on-spheres geometry (segments, arc fractions, distance
    # quadtree): built by cusplab.wos on first use, rebuilt when the
    # boundary polylines change
    _wos: object = dataclass_field(default=None, init=False, repr=False,
                                   compare=False)

    def boundary_polylines(self):
        """(component, (r, z) polyline) pairs bounding the truncated region.

        The inner polyline starts at the cap station (r_min, z_cut); the
        needle below it is not part of the computational boundary.
        """
        out = self.outer.samples
        inn = self.inner_truncated
        return [
            (OUTER, np.column_stack([out[:, 1], out[:, 0]])),
            (INNER, np.column_stack([inn[:, 1], inn[:, 0]])),
        ]

    def contains(self, r, z, slack=1e-9):
        """True on the closed region (boundary points included up to slack
        in the potential value)."""
        v = self.field.value(r, z)
        return self.A - slack <= v <= self.B + slack


def _bisect(inside, lo, hi):
    """Bisect [lo, hi] for the point where inside(x) turns from True (at lo)
    to False (at hi): at most 80 halvings, stopping once lo and hi are
    adjacent doubles, where no further halving can move either end."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _truncation_height(field, c, r_min, z_hint=None):
    """Height where the level-c cusp radius equals r_min (root in z).

    Each step asks whether the radius at z is below r_min, which one value
    V(r_min, z) < c answers without solving for the radius."""
    target = math.log(r_min)
    thin = lambda z: radius_below(field, c, target, z)
    hi = z_hint if z_hint is not None else 0.5 * field.density.length
    while thin(hi):
        hi *= 2.0
        if hi > 10.0 * field.density.length:
            raise RangeError(f"level {c} never reaches radius {r_min}")
    lo = hi / 2.0
    while not thin(lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-300:
            raise RangeError(f"level {c} is thicker than {r_min} everywhere")
    return _bisect(thin, lo, hi)


def build_cross_section(field, A, B, r_min=None, n_trace=256):
    """Trace the two boundary contours and fix the cusp truncation height."""
    if not (0.0 < A < field.v00 < B):
        raise InputError(f"levels must satisfy 0 < A < V(0,0) < B; got "
                         f"A={A}, B={B}, V(0,0)={field.v00}")
    outer, inner = trace_contours(field, [A, B], n=n_trace, grading="blended")
    if r_min is None:
        r_min = 1e-4 * (outer.z2 - outer.z1)
    z_cut = _truncation_height(field, B, r_min)
    keep = inner.samples[:, 0] > z_cut
    keep[0] = False                       # drop the (0, 0) tip
    trunc = np.vstack([[z_cut, r_min], inner.samples[keep]])
    axis_segments = ((outer.z1, 0.0), (inner.z2, outer.z2))
    return CrossSection(field=field, A=A, B=B, r_min=r_min, z_cut=z_cut,
                        outer=outer, inner=inner, inner_truncated=trunc,
                        axis_segments=axis_segments)


@dataclass
class Mesh:
    """Triangulated cross-section: nodes in (r, z), CCW triangles, and a
    boundary tag per node plus one tag per boundary edge."""

    nodes: np.ndarray                    # (n, 2) columns r, z
    triangles: np.ndarray                # (m, 3) int indices, CCW
    node_tags: list
    edge_tags: dict                      # (i, j) sorted tuple -> tag
    component_arcs: dict = dataclass_field(default_factory=dict)
    z_cut: float = 0.0
    # private FEM state (stiffness, LU factor, point-location grid): built by
    # cusplab.fem on first use, rebuilt when nodes or triangles change
    _fem: object = dataclass_field(default=None, init=False, repr=False,
                                   compare=False)

    def signed_areas(self):
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def min_angles(self):
        return _min_angles(self.nodes[self.triangles])

    def boundary_edges(self):
        edges, counts = _edge_counts(self.triangles)
        return [(int(i), int(j)) for i, j in edges[counts == 1]]

    def nodes_with_tag(self, tag):
        return np.flatnonzero(np.fromiter((t == tag for t in self.node_tags),
                                          bool, len(self.node_tags)))


def _min_angles(p):
    """Minimum angle (degrees) of each triangle of a (k, 3, 2) coordinate
    array; 0 for a triangle with a zero-length edge."""
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


def _edge_counts(triangles):
    """Distinct triangle edges as sorted (i, j) rows, with the number of
    triangles sharing each."""
    t = np.asarray(triangles, dtype=int)
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    # one integer key per edge: a 1-D unique sorts much faster than rows
    n = int(t.max()) + 1
    keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    return np.column_stack(np.divmod(keys, n)), counts


def _graded_steps(n_steps, first_fraction, last_fraction=None):
    """n_steps positive fractions summing to 1.  The first and last quarters
    are geometric ramps starting from the requested end fractions, each
    subdividing exactly the arc the uniform spacing would give that window;
    station fractions therefore agree across rails away from the ends, which
    keeps the quad columns shear-free in the bulk."""
    u = 1.0 / n_steps
    K = max(2, n_steps // 4)
    if last_fraction is None:
        last_fraction = u

    def ramp(f0):
        f0 = max(min(f0, u), 1e-9)
        if f0 >= u * 0.999:
            return [u] * K
        # growth g with f0 (g^K - 1)/(g - 1) = K u
        g = _bisect(lambda g: f0 * (g ** K - 1.0) / (g - 1.0) < K * u, 1.0 + 1e-9, 8.0)
        return [f0 * g ** k for k in range(K)]

    left, right = ramp(first_fraction), ramp(last_fraction)
    middle = n_steps - 2 * K
    steps = np.array(left + [u] * middle + right[::-1])
    return steps / steps.sum()


class _Rail:
    """A traced level curve prepared for meshing: an anchor node on the axis
    (the z1 endpoint, or the truncation tip for cusp levels) plus the
    arc-parameterized curve itself."""

    def __init__(self, field, curve, r_min, center_z):
        self.c = curve.level
        self.is_cusp = self.c > field.v00
        self.z2 = curve.z2
        if self.is_cusp:
            self.tip_z = _truncation_height(field, self.c, r_min)
            keep = curve.samples[:, 0] > self.tip_z
            keep[0] = False
            # arc starts at the truncation corner, never on the axis leg:
            # stations must stay strictly on the contour
            pts = np.vstack([[self.tip_z, r_min], curve.samples[keep]])
            self.anchor = np.array([self.tip_z, 0.0])
        else:
            self.tip_z = curve.z1
            pts = curve.samples
            self.anchor = np.array([curve.z1, 0.0])
        self.polyline = pts                                  # (z, r) rows
        arc = polyline_arcs(pts)
        self.length = arc[-1]
        # station parameter: arc fraction blended with the polar-angle
        # fraction about a point inside the inner contour, so that matched
        # stations of nested rails stay on nearby rays (pure arc matching
        # shears the quads around the curve shoulders)
        phi = np.arctan2(pts[:, 1], pts[:, 0] - center_z)
        p = 1.0 - phi / math.pi
        sigma = 0.5 * (arc / self.length + p)
        sigma -= sigma[0]
        sigma /= sigma[-1]
        self.sigma = np.maximum.accumulate(sigma)
        self.arc = arc

    def param_at_arc(self, a):
        """Station parameter reached at a given arc length from the start."""
        return float(np.interp(a, self.arc, self.sigma))

    def station_heights(self, fractions):
        """Heights of the curve nodes at the given parameter fractions,
        strictly inside the curve's z range."""
        z_lo = self.polyline[0, 0] if self.is_cusp else self.tip_z
        span = self.z2 - z_lo
        return np.clip(np.interp(fractions, self.sigma, self.polyline[:, 0]),
                       z_lo + 1e-12 * abs(span), self.z2 - 1e-12 * abs(span))


def _level_values(field, A, B, n_levels):
    v00 = field.v00
    # half the levels on each side of V(0,0): the outer strips are the wide
    # ones (small |grad V|), so they need the most radial resolution
    n_above = min(max(n_levels // 2, 2), n_levels - 1)
    n_below = n_levels - n_above
    c_plus = v00 + 0.05 * (B - v00)
    c_minus = v00 - 0.1 * (v00 - A)
    below = list(np.linspace(A, c_minus, n_below + 1)[1:])
    # gaps grow geometrically toward B (|grad V| is largest near the inner
    # contour, so wide level gaps there keep the cells from collapsing);
    # the overall gap ratio is fixed so refinement subdivides evenly
    span = B - c_plus
    rho = 0.4 ** (1.0 / max(n_above - 1, 1))
    d_max = span * (1.0 - rho) / (1.0 - rho ** n_above)
    gaps = d_max * rho ** np.arange(n_above)
    above = list(B - np.cumsum(gaps))
    return below + above[::-1]


def _mesh_truncation_radius(field, B, c_last, r_floor):
    """Truncation radius for meshing: large enough that the cap edge and the
    axis gap to the neighbouring rail tip meet at a healthy angle."""
    r = max(r_floor, 1e-3)
    for _ in range(12):
        gap = (_truncation_height(field, B, r)
               - _truncation_height(field, c_last, r))
        r_new = max(r_floor, 0.40 * gap)
        if abs(r_new - r) <= 0.02 * r:
            break
        r = r_new
    return r


def triangulate(cs, n_levels=8, n_stations=32):
    """Structured contour-grid triangulation of the cross-section.

    n_levels intermediate contours between A and B (spacing geometric toward
    B), n_stations arc stations per contour, graded toward the cusp.  The
    mesh truncates the cusp at its own radius (never below the
    cross-section's r_min): the cap edge must match the local cell scale or
    the cells around it degenerate.
    """
    if n_levels < 4:
        raise InputError("need at least 4 intermediate levels")
    if n_stations < 8:
        raise InputError("need at least 8 stations per level")
    field = cs.field
    n_trace = max(128, 2 * n_stations)

    levels = _level_values(field, cs.A, cs.B, n_levels)
    r_mesh = _mesh_truncation_radius(field, cs.B, levels[-1], cs.r_min)
    z_cut = _truncation_height(field, cs.B, r_mesh)
    center_z = 0.5 * field.density.length

    curves = trace_contours(field, [cs.A, *levels, cs.B], n=n_trace,
                            grading="geometric")
    rails = [_Rail(field, curve, r_mesh, center_z) for curve in curves]

    # parameter fractions: N-1 interior stations between the two anchors;
    # steps shrink toward an axis anchor when neighbouring rails anchor
    # nearby (gap scales converted from arc to parameter units per rail)
    N = n_stations
    tip_gaps = np.abs(np.diff([r.tip_z for r in rails]))
    top_gaps = np.abs(np.diff([r.z2 for r in rails]))

    def local_gap(gaps, i):
        cands = [gaps[i - 1] if i > 0 else np.inf,
                 gaps[i] if i < len(gaps) else np.inf]
        return min(cands)

    first_arcs = np.array([0.75 * local_gap(tip_gaps, i)
                           for i in range(len(rails))])
    last_arcs = np.array([0.55 * local_gap(top_gaps, i)
                          for i in range(len(rails))])
    first_arcs[-1] = 1.5 * r_mesh
    # smooth the ramp scales across rails: a strip whose two rails grade at
    # very different rates shears its quads
    for arr in (first_arcs, last_arcs):
        for _ in range(2):
            pad = np.concatenate([[arr[0]], arr, [arr[-1]]])
            arr[:] = np.exp((np.log(pad[:-2]) + np.log(pad[1:-1])
                             + np.log(pad[2:])) / 3.0)

    heights = []
    for i, rail in enumerate(rails):
        first = rail.param_at_arc(min(first_arcs[i], 0.5 * rail.length))
        last = 1.0 - rail.param_at_arc(
            max(rail.length - min(last_arcs[i], 0.5 * rail.length), 0.0))
        fracs = np.cumsum(_graded_steps(N, first, last))[:-1]
        heights.append(rail.station_heights(fracs))
    # the curve nodes of all rails are re-solved onto their contours in one
    # batch, so they satisfy the residual tolerance exactly
    heights = np.array(heights)
    rail_levels = np.array([[rail.c] for rail in rails])
    radii = np.exp(log_radius_at(field, rail_levels, heights))
    rail_nodes = [np.vstack([rail.anchor, np.column_stack([z, r]), [rail.z2, 0.0]])
                  for rail, z, r in zip(rails, heights, radii)]
    # keep the cap edge of rail B: tip (z_cut, 0) -> corner (z_cut, r_mesh)
    rail_nodes[-1] = np.insert(rail_nodes[-1], 1, [z_cut, r_mesh], axis=0)
    offsets = np.cumsum([0] + [len(p) for p in rail_nodes])
    nodes = np.vstack(rail_nodes)                  # (z, r) rows for now

    def gid(i, j):
        return offsets[i] + j

    # quads strip by strip; the last strip pairs station j of its lower rail
    # with station j + 1 of rail B, whose station 1 is the cap corner, and
    # closes the cap with one extra triangle
    m = len(rails)
    quads = []
    for i in range(m - 1):
        shift = 1 if i == m - 2 else 0
        quads += [(gid(i, j), gid(i + 1, j + shift), gid(i + 1, j + 1 + shift),
                   gid(i, j + 1)) for j in range(len(rail_nodes[i]) - 1)]
    q = np.asarray(quads, dtype=int)
    # both diagonal splits, (a, b, c) (a, c, d) and (a, b, d) (b, c, d); take
    # the one with the better worst angle, the first on a tie
    splits = q[:, [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3]]]
    quality = _min_angles(nodes[splits.reshape(-1, 3)]).reshape(-1, 4)
    first = (np.minimum(quality[:, 0], quality[:, 1])
             >= np.minimum(quality[:, 2], quality[:, 3]))
    chosen = np.where(first[:, None, None], splits[:, :2], splits[:, 2:])
    cap = [gid(m - 1, 0), gid(m - 1, 1), gid(m - 2, 0)]
    tris = np.vstack([chosen.reshape(-1, 3), cap])

    # orient all triangles CCW in the (r, z) plane
    rz = np.column_stack([nodes[:, 1], nodes[:, 0]])
    p = rz[tris]
    area = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flat = np.flatnonzero(area == 0.0)
    if len(flat):
        raise MeshError(
            f"degenerate cell at nodes {tuple(tris[flat[0]].tolist())}")
    tris = np.where((area > 0)[:, None], tris, tris[:, [0, 2, 1]])

    # node tags
    node_tags = [INTERIOR] * len(nodes)
    nb = len(rail_nodes[0])
    for j in range(nb):
        node_tags[gid(0, j)] = OUTER
    last = m - 1
    node_tags[gid(last, 0)] = CAP
    node_tags[gid(last, 1)] = CAP
    for j in range(2, len(rail_nodes[last])):
        node_tags[gid(last, j)] = INNER
    for i in range(1, m - 1):
        node_tags[gid(i, 0)] = AXIS
        node_tags[gid(i, len(rail_nodes[i]) - 1)] = AXIS

    # boundary edge tags
    edge_tags = {}

    def tag_edge(u, v, tag):
        edge_tags[tuple(sorted((u, v)))] = tag

    for j in range(nb - 1):
        tag_edge(gid(0, j), gid(0, j + 1), OUTER)
    nlast = len(rail_nodes[last])
    tag_edge(gid(last, 0), gid(last, 1), CAP)
    for j in range(1, nlast - 1):
        tag_edge(gid(last, j), gid(last, j + 1), INNER)
    for i in range(m - 1):
        tag_edge(gid(i, 0), gid(i + 1, 0), AXIS)
        tag_edge(gid(i, len(rail_nodes[i]) - 1),
                 gid(i + 1, len(rail_nodes[i + 1]) - 1), AXIS)

    # normalized arc-length coordinate along each essential component
    component_arcs = {}
    for tag, i in ((OUTER, 0), (INNER, last)):
        js = range(1, nlast - 1) if tag == INNER else range(nb)
        ids = [gid(i, j) for j in js]
        arc = polyline_arcs(nodes[ids])
        arc /= arc[-1]
        component_arcs[tag] = dict(zip(ids, arc))
    component_arcs[CAP] = {gid(last, 0): 0.0, gid(last, 1): 0.0}

    mesh = Mesh(nodes=rz, triangles=tris, node_tags=node_tags,
                edge_tags=edge_tags, component_arcs=component_arcs,
                z_cut=z_cut)
    bad = [e for e in mesh.boundary_edges() if e not in edge_tags]
    if bad:
        raise MeshError(f"untagged boundary edges: {bad[:5]}")
    return mesh


@dataclass
class QualityReport:
    min_angle: float
    min_area: float
    max_area: float
    tag_census: dict
    euler_characteristic: int
    n_flipped: int
    boundary_fully_tagged: bool

    def passes(self, angle_floor=15.0):
        return (self.min_angle >= angle_floor and self.min_area > 0
                and self.n_flipped == 0 and self.euler_characteristic == 1
                and self.boundary_fully_tagged)


def mesh_quality(mesh):
    """Quality census: min angle, area range, boundary tag census, Euler
    characteristic (V - E + F = 1 for a simply connected disk).  Failures
    are reported, never raised."""
    areas = mesh.signed_areas()
    angles = mesh.min_angles()
    edges, counts = _edge_counts(mesh.triangles)
    euler = len(mesh.nodes) - len(edges) + len(mesh.triangles)
    census = {}
    for t in mesh.node_tags:
        census[t] = census.get(t, 0) + 1
    fully_tagged = all((int(i), int(j)) in mesh.edge_tags
                       for i, j in edges[counts == 1])
    return QualityReport(min_angle=float(angles.min()),
                         min_area=float(areas.min()),
                         max_area=float(areas.max()),
                         tag_census=census,
                         euler_characteristic=int(euler),
                         n_flipped=int(np.sum(areas <= 0)),
                         boundary_fully_tagged=fully_tagged)


def rectangle_mesh(r0, r1, z0, z1, nr, nz, tag=OUTER):
    """Structured rectangle in (r, z), all boundary edges carrying one tag.
    Used by solver verification problems."""
    rs = np.linspace(r0, r1, nr + 1)
    zs = np.linspace(z0, z1, nz + 1)
    nodes = np.array([(r, z) for z in zs for r in rs])
    gid = lambda i, j: j * (nr + 1) + i
    tris = []
    for j in range(nz):
        for i in range(nr):
            a, b = gid(i, j), gid(i + 1, j)
            c, d = gid(i + 1, j + 1), gid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    node_tags = [INTERIOR] * len(nodes)
    edge_tags = {}
    for i in range(nr + 1):
        for j in (0, nz):
            node_tags[gid(i, j)] = tag
    for j in range(nz + 1):
        for i in (0, nr):
            node_tags[gid(i, j)] = tag
    for i in range(nr):
        edge_tags[tuple(sorted((gid(i, 0), gid(i + 1, 0))))] = tag
        edge_tags[tuple(sorted((gid(i, nz), gid(i + 1, nz))))] = tag
    for j in range(nz):
        edge_tags[tuple(sorted((gid(0, j), gid(0, j + 1))))] = tag
        edge_tags[tuple(sorted((gid(nr, j), gid(nr, j + 1))))] = tag
    arc = {}
    boundary_ids = [i for i, t in enumerate(node_tags) if t == tag]
    for k, i in enumerate(boundary_ids):
        arc[i] = k / max(1, len(boundary_ids) - 1)
    return Mesh(nodes=np.asarray(nodes, dtype=float),
                triangles=np.asarray(tris, dtype=int),
                node_tags=node_tags, edge_tags=edge_tags,
                component_arcs={tag: arc}, z_cut=0.0)
