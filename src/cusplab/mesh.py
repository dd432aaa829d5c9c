"""Meridian cross-section of the domain {A < V < B} and its triangulation.

The mesh is a structured contour grid: nodes sit on level curves of V
("rails"), rails are joined into quads by station index, quads split into
counter-clockwise triangles along the better diagonal.  The rails are
traced first and held as one padded stack of (z, r) samples; every cusp
rail (level above V(0,0)) is then cut, once, where its radius falls to the
mesh's truncation radius: its samples below the cut become the corner
there, and a tip node anchors it to the axis.  Each cut, like the section's
own, is one bracketed root on a traced curve (contour.thinning_height),
between the two samples that straddle the radius.
The exponentially thin sliver below the truncation is collapsed onto the
axis, which confines the modelling error to cells whose axisymmetric
weight r is itself of truncation size.  The inner boundary keeps a single
cap edge of that radius, so the cusp-cap boundary stays tiny while the
surrounding cells keep healthy angles.  Cells are never reoriented: a
folded cell stays clockwise, where mesh_quality counts it as flipped and
the FEM refuses it.  Sections and meshes are frozen values, so the FEM and
walk-on-spheres state kept on them is built once and never goes stale.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType

import numpy as np

from .contour import (ContourCurve, _read_only, _rebuild, _root_in, log_radius_at,
                      polyline_arcs, thinning_height, trace_contours)
from .errors import InputError, MeshError, RangeError

OUTER = "outer-level"
INNER = "inner-level"
CAP = "cusp-cap"
AXIS = "axis"
INTERIOR = "interior"

ESSENTIAL_TAGS = (OUTER, INNER, CAP)

# smallest triangle angle, in degrees, of a mesh that passes its quality check
MIN_ANGLE_FLOOR = 15.0
# CrossSection.contains admits points up to this far outside [A, B] in V
CONTAINS_TOL = 1e-9


@dataclass(frozen=True)
class CrossSection:
    """The region between the level-A and level-B contours, with the cusp of
    the inner contour truncated at z_cut (where r_B = r_min).  A frozen
    value: inner_truncated is a read-only copy."""

    field: object
    A: float
    B: float
    r_min: float
    z_cut: float
    outer: ContourCurve                  # full level-A curve
    inner_truncated: np.ndarray          # (z, r) samples of level B, z >= z_cut
    # private walk-on-spheres geometry (segments, arc fractions, distance
    # quadtree): built by cusplab.wos on first use and kept for the
    # section's life
    _wos: object = dataclass_field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inner_truncated",
                           _read_only(self.inner_truncated))

    __reduce__ = _rebuild

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

    def contains(self, r, z):
        """True on the closed region (boundary points included up to
        CONTAINS_TOL in the potential value)."""
        v = self.field.value(r, z)
        return self.A - CONTAINS_TOL <= v <= self.B + CONTAINS_TOL


def _cut_height(field, curve, r):
    """The height where the traced level curve's cusp thins to radius r,
    its thinning_height bracketed by the first traced sample at or above r
    and the sample before it (the tip on the axis at the first)."""
    t = math.log(r)
    k = int(np.argmax(curve.log_r >= t))
    if curve.log_r[k] < t:
        raise RangeError(f"level {curve.level} never reaches radius {r}")
    return thinning_height(field, curve.level, t, curve.samples[k - 1, 0],
                           curve.samples[k, 0])


def build_cross_section(field, A, B, r_min=None, n_trace=256):
    """Trace the two boundary contours and fix the cusp truncation height
    z_cut, where the inner contour thins to r_min (InputError unless
    0 < r_min < inf; by default 1e-4 of the outer contour's z span)."""
    if not (0.0 < A < field.v00 < B):
        raise InputError(f"levels must satisfy 0 < A < V(0,0) < B; got "
                         f"A={A}, B={B}, V(0,0)={field.v00}")
    outer, inner = trace_contours(field, [A, B], n=n_trace, grading="blended")
    if r_min is None:
        r_min = 1e-4 * (outer.z2 - outer.z1)
    if not 0.0 < r_min < math.inf:
        raise InputError(f"r_min must be positive and finite, got {r_min}")
    # the inner boundary starts at the corner (z_cut, r_min): the needle
    # below it, the tip on the axis included, is cut off
    z_cut = _cut_height(field, inner, r_min)
    trunc = np.vstack([[z_cut, r_min], inner.samples[inner.samples[:, 0] > z_cut]])
    return CrossSection(field=field, A=A, B=B, r_min=r_min, z_cut=z_cut,
                        outer=outer, inner_truncated=trunc)


@dataclass(frozen=True)
class Mesh:
    """Triangulated cross-section: nodes in (r, z), triangles, and a
    boundary tag per node plus one tag per boundary edge.  triangulate
    writes every triangle counter-clockwise in (r, z); a cell that folds
    over its neighbours is then clockwise and shows as n_flipped in
    mesh_quality.  The FEM factors its stiffness matrix in the node order,
    so a numbering that keeps neighbours close keeps the factor's band
    narrow: triangulate's and rectangle_mesh's do.

    A frozen value: nodes and triangles are read-only copies, node_tags a
    tuple, and edge_tags and component_arcs (tag -> node id -> arc
    fraction) read-only mappings.  A mesh with other fields is a new mesh,
    made by dataclasses.replace."""

    nodes: np.ndarray                    # (n, 2) columns r, z
    triangles: np.ndarray                # (m, 3) int indices
    node_tags: tuple
    edge_tags: Mapping                   # (i, j) sorted tuple -> tag
    component_arcs: Mapping = dataclass_field(default_factory=dict)
    z_cut: float = 0.0
    # private FEM state (stiffness, Cholesky factor, point-location grid):
    # built by cusplab.fem on first use and kept for the mesh's life
    _fem: object = dataclass_field(default=None, init=False, repr=False,
                                   compare=False)
    # private edge census (_edge_counts): built on first use and kept
    _edges: object = dataclass_field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        arcs = {tag: MappingProxyType(dict(arc))
                for tag, arc in self.component_arcs.items()}
        for name, value in (("nodes", _read_only(self.nodes)),
                            ("triangles", _read_only(self.triangles, None)),
                            ("node_tags", tuple(self.node_tags)),
                            ("edge_tags", MappingProxyType(dict(self.edge_tags))),
                            ("component_arcs", MappingProxyType(arcs))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # mapping proxies cannot be pickled: rebuilt from plain dicts
        arcs = {tag: dict(arc) for tag, arc in self.component_arcs.items()}
        return Mesh, (self.nodes, self.triangles, self.node_tags,
                      dict(self.edge_tags), arcs, self.z_cut)

    def signed_areas(self):
        return _signed_areas(self.nodes[self.triangles])

    def min_angles(self):
        return _min_angles(self.nodes[self.triangles])

    def boundary_edges(self):
        edges, counts = self._edge_census()
        return list(map(tuple, edges[counts == 1].tolist()))

    def _edge_census(self):
        """_edge_counts of the triangles, read-only, counted once per mesh;
        a copy or pickle counts again."""
        if self._edges is None:
            edges, counts = _edge_counts(self.triangles)
            edges.flags.writeable = counts.flags.writeable = False
            object.__setattr__(self, "_edges", (edges, counts))
        return self._edges

    def nodes_with_tag(self, tag):
        return np.flatnonzero(np.array(self.node_tags, dtype=object) == tag)


def _signed_areas(p):
    """Signed area of each triangle of a (k, 3, 2) coordinate array, positive
    when its corners run counter-clockwise."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _min_angles(p):
    """Minimum angle (degrees) of each triangle of a (k, 3, 2) coordinate
    array; 0 for a triangle with a zero-length edge.  Edge k runs from
    corner k to corner k + 1, so the angle at corner k has the cosine
    -(e_k . e_(k-1)) / (|e_k| |e_(k-1)|); arccos falls, so the smallest
    angle is the arccos of the largest cosine."""
    e = [p[:, (k + 1) % 3] - p[:, k] for k in range(3)]
    x, y = [a[:, 0] for a in e], [a[:, 1] for a in e]
    length = [np.sqrt(x[k] * x[k] + y[k] * y[k]) for k in range(3)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cosv = [-(x[k] * x[k - 1] + y[k] * y[k - 1]) / (length[k] * length[k - 1])
                for k in range(3)]
    angle = np.degrees(np.arccos(np.clip(np.maximum.reduce(cosv), -1.0, 1.0)))
    return np.where(np.minimum.reduce(length) == 0.0, 0.0, angle)


def _path_edges(ids):
    """The edges (ids[k], ids[k+1]) of the path through the nodes ids."""
    return np.column_stack([ids[:-1], ids[1:]])


def _edge_counts(triangles):
    """Distinct triangle edges as sorted (i, j) rows, with the number of
    triangles sharing each."""
    t = np.asarray(triangles, dtype=int)
    a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
    # one integer key per edge, min * n + max: a 1-D unique of the keys is
    # much faster than sorting the two-wide rows first
    n = int(t.max()) + 1
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                             return_counts=True)
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


def _mesh_truncation_radius(field, inner, last, r_floor):
    """Truncation radius for meshing: large enough that the cap edge and the
    axis gap to the neighbouring rail tip meet at a healthy angle.  The tip
    heights are cut on the traced inner rail and on the cusp rail next to
    it; returns the radius and those two cut heights at it."""
    r = max(r_floor, 1e-3)
    for _ in range(12):
        cuts = _cut_height(field, inner, r), _cut_height(field, last, r)
        r_new = max(r_floor, 0.40 * (cuts[0] - cuts[1]))
        if abs(r_new - r) <= 0.02 * r:
            return r, cuts
        r = r_new
    return r, (_cut_height(field, inner, r), _cut_height(field, last, r))


def triangulate(cs, n_levels=8, n_stations=32):
    """Structured contour-grid triangulation of the cross-section.

    n_levels intermediate contours between A and B (spacing geometric toward
    B), n_stations arc stations per contour, graded toward the cusp.  The
    mesh truncates the cusp at its own radius (never below the
    cross-section's r_min), cut on the traced rails: the cap edge must match
    the local cell scale or the cells around it degenerate.  The cells are
    built counter-clockwise and never reoriented, so a fold shows in
    mesh_quality as a flipped cell.  Nodes are numbered station by station,
    the rails fastest (rail B's tip first), so no triangle joins free nodes
    more than n_levels + 1 apart: the band of the FEM's reduced system.
    """
    if n_levels < 4:
        raise InputError("need at least 4 intermediate levels")
    if n_stations < 8:
        raise InputError("need at least 8 stations per level")
    field = cs.field
    n_trace = max(128, 2 * n_stations)

    levels = _level_values(field, cs.A, cs.B, n_levels)
    curves = trace_contours(field, [cs.A, *levels, cs.B], n=n_trace,
                            grading="geometric")
    r_mesh, (z_cut, z_last) = _mesh_truncation_radius(field, curves[-1], curves[-2],
                                                      cs.r_min)
    # the rails as one (m, n_trace + 2, 2) stack of (z, r) rows: geometric
    # grading gives every curve that many samples.  The cusp rails (levels
    # above V(0,0), the last ones) start at their cut: the rows at or below
    # it, the tip on the axis included, become the corner (z_cut, r_mesh),
    # whose repeats add nothing to arc length or to the station parameter.
    # Stations must stay strictly on the contour, never on the axis leg
    pts = np.array([curve.samples for curve in curves])
    cuts = [_cut_height(field, curve, r_mesh) for curve in curves[:-2]
            if curve.level > field.v00] + [z_last, z_cut]
    for rail, z in zip(pts[-len(cuts):], cuts):
        rail[rail[:, 0] <= z] = z, r_mesh
    m = len(curves)
    tips, tops = pts[:, 0, 0], pts[:, -1, 0]
    arc = polyline_arcs(pts)
    length = arc[:, -1]
    # station parameter: arc fraction blended with the polar-angle fraction
    # about a point inside the inner contour, so that matched stations of
    # nested rails stay on nearby rays (pure arc matching shears the quads
    # around the curve shoulders)
    phi = np.arctan2(pts[..., 1], pts[..., 0] - 0.5 * field.density.length)
    sigma = 0.5 * (arc / length[:, None] + (1.0 - phi / math.pi))
    sigma -= sigma[:, :1]
    sigma /= sigma[:, -1:]
    sigma = np.maximum.accumulate(sigma, axis=1)

    # parameter fractions: N-1 interior stations between the two anchors;
    # steps shrink toward an axis anchor when neighbouring rails anchor
    # nearby (gap scales converted from arc to parameter units per rail)
    N = n_stations

    def local_gaps(ends):
        # each rail's smaller axis gap to the ends of its neighbours
        gaps = np.concatenate([[np.inf], np.abs(np.diff(ends)), [np.inf]])
        return np.minimum(gaps[:-1], gaps[1:])

    first_arcs = 0.75 * local_gaps(tips)
    last_arcs = 0.55 * local_gaps(tops)
    first_arcs[-1] = 1.5 * r_mesh
    # smooth the ramp scales across rails: a strip whose two rails grade at
    # very different rates shears its quads
    for arr in (first_arcs, last_arcs):
        for _ in range(2):
            pad = np.concatenate([[arr[0]], arr, [arr[-1]]])
            arr[:] = np.exp((np.log(pad[:-2]) + np.log(pad[1:-1])
                             + np.log(pad[2:])) / 3.0)

    # station heights at the graded parameter fractions, strictly inside
    # each rail's z range
    heights = []
    for i in range(m):
        half = 0.5 * length[i]
        first = np.interp(min(first_arcs[i], half), arc[i], sigma[i])
        last = 1.0 - np.interp(max(length[i] - min(last_arcs[i], half), 0.0),
                               arc[i], sigma[i])
        fracs = np.cumsum(_graded_steps(N, first, last))[:-1]
        heights.append(np.interp(fracs, sigma[i], pts[i, :, 0]))
    margin = 1e-12 * np.abs(tops - tips)
    heights = np.clip(heights, (tips + margin)[:, None], (tops - margin)[:, None])
    # the curve nodes of all rails are re-solved onto their contours in one
    # batch, so they satisfy the residual tolerance exactly.  Nodes are
    # numbered station by station, the rails fastest: node 1 + s m + i is
    # station s of rail i, where station 0 is the rail's anchor, stations
    # 1 .. N-1 its curve nodes and station N its top endpoint.  Rail B's
    # station 0 is the cap corner (z_cut, r_mesh), and its tip (z_cut, 0) is
    # node 0.  Every quad then joins nodes at most m + 1 apart, so the FEM
    # factors its band in this order
    grid = np.zeros((N + 1, m, 2))                 # (z, r) rows for now
    grid[0, :, 0] = tips
    grid[0, -1] = z_cut, r_mesh
    grid[1:-1, :, 0] = heights.T
    grid[1:-1, :, 1] = np.exp(log_radius_at(field, [[c.level] for c in curves],
                                            heights)).T
    grid[-1, :, 0] = tops
    nodes = np.vstack([[[z_cut, 0.0]], grid.reshape(-1, 2)])
    ids = 1 + np.arange((N + 1) * m).reshape(N + 1, m)      # ids[s, i]
    tip = 0

    # quads strip by strip, N per strip, between stations j and j + 1 of
    # rails i and i + 1; the cap closes with one extra triangle
    i, j = np.divmod(np.arange((m - 1) * N), N)
    q = np.column_stack([ids[j, i], ids[j, i + 1], ids[j + 1, i + 1], ids[j + 1, i]])
    # the quad a, b, c, d runs clockwise in (r, z): inward, up, outward.  Both
    # diagonal splits, counter-clockwise: (a, c, b) (a, d, c) and (a, d, b)
    # (b, d, c); take the one with the better worst angle, the first on a tie
    splits = q[:, [[0, 2, 1], [0, 3, 2], [0, 3, 1], [1, 3, 2]]]
    quality = _min_angles(nodes[splits.reshape(-1, 3)]).reshape(-1, 4)
    better = (np.minimum(quality[:, 0], quality[:, 1])
              >= np.minimum(quality[:, 2], quality[:, 3]))
    chosen = np.where(better[:, None, None], splits[:, :2], splits[:, 2:])
    # the cap: rail B's tip, its lower neighbour's anchor, the cap corner
    tris = np.vstack([chosen.reshape(-1, 3), [tip, ids[0, -2], ids[0, -1]]])

    # tags: rail A is the outer level; rail B's tip and cap corner form the
    # cap, the rest of rail B the inner level; the end nodes of the rails
    # between them lie on the axis, and so do the edges joining the end
    # nodes of neighbouring rails
    rail_a, rail_b = ids[:, 0], ids[:, -1]             # rail B from its corner
    bottom = np.append(ids[0, :-1], tip)               # the rail anchors
    node_tags = np.full(len(nodes), INTERIOR, dtype=object)
    node_tags[rail_a] = OUTER
    node_tags[rail_b] = INNER
    node_tags[[tip, rail_b[0]]] = CAP
    node_tags[bottom[1:-1]] = AXIS
    node_tags[ids[-1, 1:-1]] = AXIS
    edge_tags = {}
    for tag, edges in ((OUTER, _path_edges(rail_a)), (INNER, _path_edges(rail_b)),
                       (CAP, [[tip, rail_b[0]]]),
                       (AXIS, _path_edges(bottom)), (AXIS, _path_edges(ids[-1]))):
        edge_tags.update(dict.fromkeys(map(tuple, np.sort(edges, axis=1).tolist()), tag))

    # normalized arc-length coordinate along each essential component; the
    # inner one runs from the cap corner to rail B's top node on the axis
    component_arcs = {CAP: {tip: 0.0, int(rail_b[0]): 0.0}}
    for tag, on in ((OUTER, rail_a), (INNER, rail_b)):
        arc = polyline_arcs(nodes[on])
        component_arcs[tag] = dict(zip(on.tolist(), (arc / arc[-1]).tolist()))

    mesh = Mesh(nodes=nodes[:, ::-1], triangles=tris, node_tags=node_tags.tolist(),
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

    def passes(self):
        return (self.min_angle >= MIN_ANGLE_FLOOR and self.min_area > 0
                and self.n_flipped == 0 and self.euler_characteristic == 1
                and self.boundary_fully_tagged)


def mesh_quality(mesh):
    """Quality census: min angle, area range, boundary tag census, Euler
    characteristic (V - E + F = 1 for a simply connected disk).  Failures
    are reported, never raised."""
    areas = mesh.signed_areas()
    angles = mesh.min_angles()
    edges, counts = mesh._edge_census()
    euler = len(mesh.nodes) - len(edges) + len(mesh.triangles)
    # a Counter tallies in C; numpy's unique sorts the strings, which is slower
    census = dict(Counter(mesh.node_tags))
    fully_tagged = mesh.edge_tags.keys() >= set(map(tuple, edges[counts == 1].tolist()))
    return QualityReport(min_angle=float(angles.min()),
                         min_area=float(areas.min()),
                         max_area=float(areas.max()),
                         tag_census=census,
                         euler_characteristic=int(euler),
                         n_flipped=int(np.sum(areas <= 0)),
                         boundary_fully_tagged=fully_tagged)


def rectangle_mesh(r0, r1, z0, z1, nr, nz):
    """Structured rectangle in (r, z), all boundary edges tagged OUTER, whose
    arc coordinate runs counter-clockwise round the perimeter from (r0, z0)
    as a fraction of the perimeter.  Used by solver verification problems."""
    r, z = np.meshgrid(np.linspace(r0, r1, nr + 1), np.linspace(z0, z1, nz + 1))
    nodes = np.column_stack([r.ravel(), z.ravel()])
    ids = np.arange(len(nodes)).reshape(nz + 1, nr + 1)     # ids[j, i]: (r_i, z_j)
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    # the closed boundary path: bottom, right, top and left sides in turn
    ring = np.concatenate([ids[0, :-1], ids[:-1, -1], ids[-1, :0:-1],
                           ids[::-1, 0]])
    arc = polyline_arcs(nodes[ring])
    node_tags = np.full(len(nodes), INTERIOR, dtype=object)
    node_tags[ring] = OUTER
    edges = np.sort(_path_edges(ring), axis=1)
    return Mesh(nodes=nodes, triangles=tris, node_tags=node_tags.tolist(),
                edge_tags=dict.fromkeys(map(tuple, edges.tolist()), OUTER),
                component_arcs={OUTER: dict(zip(ring[:-1].tolist(),
                                                (arc[:-1] / arc[-1]).tolist()))},
                z_cut=0.0)
