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

from .contour import (ContourCurve, _level_value, _root_in, log_radius_at,
                      polyline_arcs, radius_below, trace_contours)
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


def _truncation_height(field, c, r_min):
    """Height where the level-c cusp radius equals r_min: the root in z of
    V(r_min, z) = c, as V falls strictly in r.  The bracket grows by halving
    and doubling from 0.5 L, each step asking only which side of r_min the
    radius at z lies on (radius_below)."""
    target = math.log(r_min)
    thin = lambda z: radius_below(field, c, target, z)
    hi = 0.5 * field.density.length
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
    return _root_in(lambda z: _level_value(field, target, z) - c, lo, hi)


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
        return _signed_areas(self.nodes[self.triangles])

    def min_angles(self):
        return _min_angles(self.nodes[self.triangles])

    def boundary_edges(self):
        edges, counts = _edge_counts(self.triangles)
        return [(int(i), int(j)) for i, j in edges[counts == 1]]

    def nodes_with_tag(self, tag):
        return np.flatnonzero(np.fromiter((t == tag for t in self.node_tags),
                                          bool, len(self.node_tags)))


def _signed_areas(p):
    """Signed area of each triangle of a (k, 3, 2) coordinate array, positive
    when its corners run counter-clockwise."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


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


def _path_edges(ids):
    """The edges (ids[k], ids[k+1]) of the path through the nodes ids."""
    return np.column_stack([ids[:-1], ids[1:]])


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
        # growth g with f0 (g^K - 1)/(g - 1) = K u, capped at 8
        excess = lambda g: f0 * (g ** K - 1.0) / (g - 1.0) - K * u
        g = 8.0 if excess(8.0) < 0.0 else _root_in(excess, 1.0 + 1e-9, 8.0)
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
    center_z = 0.5 * field.density.length

    curves = trace_contours(field, [cs.A, *levels, cs.B], n=n_trace,
                            grading="geometric")
    rails = [_Rail(field, curve, r_mesh, center_z) for curve in curves]
    z_cut = rails[-1].tip_z

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
    # batch, so they satisfy the residual tolerance exactly.  Rail i holds
    # nodes offsets[i] .. offsets[i+1]-1: its anchor, N-1 curve nodes and its
    # top endpoint; rail B also holds the cap corner (z_cut, r_mesh) right
    # after its tip (z_cut, 0), which keeps its cap edge
    m = len(rails)
    heights = np.array(heights)
    grid = np.zeros((m, N + 1, 2))                 # (z, r) rows for now
    grid[:, 0] = [rail.anchor for rail in rails]
    grid[:, 1:-1, 0] = heights
    rail_levels = [[rail.c] for rail in rails]
    grid[:, 1:-1, 1] = np.exp(log_radius_at(field, rail_levels, heights))
    grid[:, -1, 0] = [rail.z2 for rail in rails]
    offsets = np.append((N + 1) * np.arange(m), m * (N + 1) + 1)
    nodes = np.insert(grid.reshape(-1, 2), offsets[-2] + 1, [z_cut, r_mesh], axis=0)
    bottom, top = offsets[:-1], offsets[1:] - 1    # end nodes of each rail

    # quads strip by strip, N per strip; the last strip pairs station j of
    # its lower rail with station j + 1 of rail B, whose station 1 is the
    # cap corner, and closes the cap with one extra triangle
    i, j = np.divmod(np.arange((m - 1) * N), N)
    lower = bottom[i] + j
    upper = bottom[i + 1] + j + (i == m - 2)
    q = np.column_stack([lower, upper, upper + 1, lower + 1])
    # both diagonal splits, (a, b, c) (a, c, d) and (a, b, d) (b, c, d); take
    # the one with the better worst angle, the first on a tie
    splits = q[:, [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3]]]
    quality = _min_angles(nodes[splits.reshape(-1, 3)]).reshape(-1, 4)
    better = (np.minimum(quality[:, 0], quality[:, 1])
              >= np.minimum(quality[:, 2], quality[:, 3]))
    chosen = np.where(better[:, None, None], splits[:, :2], splits[:, 2:])
    cap = [bottom[-1], bottom[-1] + 1, bottom[-2]]
    tris = np.vstack([chosen.reshape(-1, 3), cap])

    # orient all triangles CCW in the (r, z) plane
    rz = nodes[:, ::-1].copy()
    area = _signed_areas(rz[tris])
    flat = np.flatnonzero(area == 0.0)
    if len(flat):
        raise MeshError(
            f"degenerate cell at nodes {tuple(tris[flat[0]].tolist())}")
    tris = np.where((area > 0)[:, None], tris, tris[:, [0, 2, 1]])

    # tags: rail A is the outer level; rail B's tip and cap corner form the
    # cap, the rest of rail B the inner level; the end nodes of the rails
    # between them lie on the axis, and so do the edges joining the end
    # nodes of neighbouring rails
    ids = np.arange(len(nodes))
    tip = offsets[-2]
    rail_a, rail_b = ids[:offsets[1]], ids[tip + 1:]   # rail B from its corner
    node_tags = np.full(len(nodes), INTERIOR, dtype=object)
    node_tags[rail_a] = OUTER
    node_tags[rail_b] = INNER
    node_tags[[tip, tip + 1]] = CAP
    node_tags[bottom[1:-1]] = AXIS
    node_tags[top[1:-1]] = AXIS
    edge_tags = {}
    for tag, edges in ((OUTER, _path_edges(rail_a)), (INNER, _path_edges(rail_b)),
                       (CAP, _path_edges(ids[tip:tip + 2])),
                       (AXIS, _path_edges(bottom)), (AXIS, _path_edges(top))):
        edge_tags.update(dict.fromkeys(map(tuple, edges.tolist()), tag))

    # normalized arc-length coordinate along each essential component; the
    # inner one runs from the cap corner to the last curve node of rail B
    component_arcs = {CAP: {int(tip): 0.0, int(tip) + 1: 0.0}}
    for tag, on in ((OUTER, rail_a), (INNER, rail_b[:-1])):
        arc = polyline_arcs(nodes[on])
        component_arcs[tag] = dict(zip(on.tolist(), (arc / arc[-1]).tolist()))

    mesh = Mesh(nodes=rz, triangles=tris, node_tags=node_tags.tolist(),
                edge_tags=edge_tags, component_arcs=component_arcs,
                z_cut=z_cut)
    bad = sorted(set(mesh.boundary_edges()) - edge_tags.keys())
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
    r, z = np.meshgrid(np.linspace(r0, r1, nr + 1), np.linspace(z0, z1, nz + 1))
    nodes = np.column_stack([r.ravel(), z.ravel()])
    ids = np.arange(len(nodes)).reshape(nz + 1, nr + 1)     # ids[j, i]: (r_i, z_j)
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    on_boundary = np.zeros(ids.shape, dtype=bool)
    on_boundary[[0, -1], :] = True
    on_boundary[:, [0, -1]] = True
    node_tags = np.where(on_boundary.ravel(), tag, INTERIOR).tolist()
    sides = np.vstack([_path_edges(ids[0]), _path_edges(ids[-1]),
                       _path_edges(ids[:, 0]), _path_edges(ids[:, -1])])
    boundary_ids = ids[on_boundary]
    arc = np.arange(len(boundary_ids)) / max(1, len(boundary_ids) - 1)
    return Mesh(nodes=nodes, triangles=tris, node_tags=node_tags,
                edge_tags=dict.fromkeys(map(tuple, sides.tolist()), tag),
                component_arcs={tag: dict(zip(boundary_ids.tolist(), arc.tolist()))},
                z_cut=0.0)
