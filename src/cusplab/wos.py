"""Walk-on-spheres Monte Carlo solver for the Dirichlet problem.

Walks live in R^3; the axisymmetric boundary is represented by its meridian
polylines, and the distance from a walker to the surfaces of revolution
equals the meridian-plane distance to the polylines (the closest point of a
coaxial surface of revolution lies in the meridian half-plane through the
query point).  A walker jumps to a uniform point on a sphere no larger than
its boundary distance until it comes within eps of the boundary, then
scores the boundary datum at the arc fraction of its closest boundary point.

Distances come from the polyline segments themselves, through a small
candidate index (a conservative distance query in the sense of Sawhney &
Crane, Monte Carlo Geometry Processing, 2020): a KD-tree over about
INDEX_POINTS points spaced evenly along the segments, each point recording
its segment.  Every point of a segment lies within `slack` of an index
point of that segment, so a segment none of whose index points is among
the NEAREST nearest ones lies at least d_k - slack away, d_k being the
distance to the farthest of those.  The step radius
min(exact distance to the candidate segments, d_k - slack) is therefore a
lower bound on the boundary distance; it is exact wherever the candidates
certify it.  A walker whose bound falls below eps without that
certificate gets the exact distance over all segments, so no walk ever
stops farther than eps from the boundary.

Randomness is counter-based: walks are processed in fixed-size chunks, each
chunk drawing from its own Philox stream keyed by (seed, chunk index), so
chunk results are independent of execution order and the combined mean is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .contour import polyline_arcs
from .errors import DomainError, InputError, ReliabilityError
from .fem import BoundaryData, TabulatedData

CHUNK = 32768
STEP_CAP = 100_000
# the candidate index holds about this many points in total
INDEX_POINTS = 1024
# index points queried per walker and step
NEAREST = 8
# walkers per block when measuring the distance to every segment
_BLOCK = 256


def _project(p, a, d):
    """Distance from points p to the segments a + t d, 0 <= t <= 1, and the
    parameter t of the closest point.  The arrays broadcast over their
    leading axes; the last axis holds (r, z)."""
    w = p - a
    dd = np.maximum((d * d).sum(axis=-1), np.finfo(float).tiny)
    t = np.clip((w * d).sum(axis=-1) / dd, 0.0, 1.0)
    e = t[..., None] * d - w
    return np.hypot(e[..., 0], e[..., 1]), t


def _nearest(p, a, d):
    """Exact distance from each row of p to the nearest of all segments
    (a, d), with that segment's index and the parameter of the closest
    point."""
    dist = np.empty(len(p))
    seg = np.empty(len(p), dtype=np.intp)
    t = np.empty(len(p))
    for i in range(0, len(p), _BLOCK):
        dk, tk = _project(p[i:i + _BLOCK, None, :], a, d)
        j = dk.argmin(axis=1)
        rows = np.arange(len(j))
        dist[i:i + _BLOCK] = dk[rows, j]
        seg[i:i + _BLOCK] = j
        t[i:i + _BLOCK] = tk[rows, j]
    return dist, seg, t


def segment_distance(pts, p):
    """Exact distance from point p (r, z) to a polyline given as (n, 2)."""
    pts = np.asarray(pts, dtype=float)
    p = np.asarray(p, dtype=float).reshape(1, 2)
    return float(_nearest(p, pts[:-1], np.diff(pts, axis=0))[0][0])


def _segments(cs):
    """(tag, start points, direction vectors, cumulative arc) per boundary
    polyline of the cross-section."""
    out = []
    for tag, pl in cs.boundary_polylines():
        pl = np.asarray(pl, dtype=float)
        out.append((tag, pl[:-1], np.diff(pl, axis=0), polyline_arcs(pl)))
    return out


def distance_to_boundary(cs, point):
    """Minimum meridian-plane distance from (r, z) to the boundary
    polylines; valid as the 3D distance to the surfaces of revolution."""
    r, z = float(point[0]), float(point[1])
    if hasattr(cs, "contains") and not cs.contains(r, z):
        raise DomainError(f"point (r={r}, z={z}) is not interior")
    parts = _segments(cs)
    a = np.vstack([part[1] for part in parts])
    d = np.vstack([part[2] for part in parts])
    return float(_nearest(np.array([[r, z]]), a, d)[0][0])


def _datum(spec, tag):
    """The boundary datum of one component as a function of arc fraction."""
    if spec is None:
        raise InputError(f"no boundary datum for component {tag!r}")
    if isinstance(spec, TabulatedData):
        grid = np.linspace(0.0, 1.0, len(spec.values))
        values = np.asarray(spec.values, dtype=float)
        return lambda s: np.interp(s, grid, values)
    return lambda s: np.asarray(spec(s), dtype=float)


class _SegmentModel:
    """The boundary segments, their data and a conservative candidate index
    for distance queries."""

    def __init__(self, cs, data):
        spec = dict(data.spec) if isinstance(data, BoundaryData) else dict(data)
        parts = _segments(cs)
        self.a = np.vstack([part[1] for part in parts])
        self.d = np.vstack([part[2] for part in parts])
        # segment k covers arc fractions s0[k] .. s0[k] + ds[k] of comp[k]
        self.comp = np.concatenate([np.full(len(part[1]), k)
                                    for k, part in enumerate(parts)])
        self.s0 = np.concatenate([arc[:-1] / arc[-1]
                                  for _, _, _, arc in parts])
        self.ds = np.concatenate([np.diff(arc) / arc[-1]
                                  for _, _, _, arc in parts])
        self.datums = [_datum(spec.get(tag), tag) for tag, _, _, _ in parts]

        # index points at the midpoints of m equal pieces of each segment,
        # m = ceil(length / h): every segment point lies within half a
        # piece of an index point of its own segment
        length = np.hypot(self.d[:, 0], self.d[:, 1])
        h = length.sum() / INDEX_POINTS
        m = np.maximum(np.ceil(length / h), 1.0).astype(np.intp)
        self.index_seg = np.repeat(np.arange(len(m)), m)
        first = np.cumsum(m) - m
        frac = (np.arange(len(self.index_seg)) - first[self.index_seg]
                + 0.5) / m[self.index_seg]
        self.tree = cKDTree(self.a[self.index_seg]
                            + frac[:, None] * self.d[self.index_seg])
        self.slack = 0.5 * float((length / m).max())

    def query(self, rz, eps):
        """Step radius for each row of rz, with the closest boundary point.

        Returns (radius, exact, seg, t): radius never exceeds the distance
        to the boundary and equals it where exact is True, which holds
        wherever radius < eps; seg and t locate the closest point on the
        best candidate segment (the closest boundary point where exact).
        """
        dk, idx = self.tree.query(rz, k=NEAREST, workers=-1)
        cand = self.index_seg[idx]
        dist, t = _project(rz[:, None, :], self.a[cand], self.d[cand])
        j = dist.argmin(axis=1)
        rows = np.arange(len(j))
        best, seg, t = dist[rows, j], cand[rows, j], t[rows, j]
        # no segment without an index point among the candidates lies
        # closer than this
        lower = dk[:, -1] - self.slack
        exact = best <= lower
        radius = np.where(exact, best, lower)
        rare = np.flatnonzero(~exact & (radius < eps))
        if len(rare):
            radius[rare], seg[rare], t[rare] = _nearest(rz[rare], self.a,
                                                        self.d)
            exact[rare] = True
        return radius, exact, seg, t

    def score(self, seg, t):
        """Boundary datum at the point t of each segment seg."""
        s = self.s0[seg] + t * self.ds[seg]
        comp = self.comp[seg]
        out = np.empty(len(seg))
        for k, datum in enumerate(self.datums):
            mine = comp == k
            if mine.any():
                out[mine] = datum(s[mine])
        return out


@dataclass
class WosEstimate:
    point: tuple
    mean: float
    stderr: float
    walks: int
    eps: float
    seed: int
    discarded: int = 0


def estimate(cs, data, point3d, walks=10_000, eps=1e-4, seed=0):
    """Monte Carlo estimate of the harmonic function with the given boundary
    data at a 3D interior point.  Deterministic for a fixed seed."""
    x, y, z = (float(v) for v in point3d)
    r0 = math.hypot(x, y)
    if hasattr(cs, "contains") and not cs.contains(r0, z):
        raise DomainError(f"point (r={r0}, z={z}) is not interior")
    if eps <= 0:
        raise InputError("eps must be positive")
    model = _SegmentModel(cs, data)

    total, total_sq, done, discarded = 0.0, 0.0, 0, 0
    for j in range(0, walks, CHUNK):
        n = min(CHUNK, walks - j)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed & 0xFFFFFFFFFFFFFFFF, j], dtype=np.uint64)))
        pos = np.tile([x, y, z], (n, 1))
        scores = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        for _ in range(STEP_CAP):
            active = np.flatnonzero(alive)
            if len(active) == 0:
                break
            rz = np.column_stack([np.hypot(pos[active, 0], pos[active, 1]),
                                  pos[active, 2]])
            radius, _, seg, t = model.query(rz, eps)
            hit = radius < eps
            dead = active[hit]
            scores[dead] = model.score(seg[hit], t[hit])
            alive[dead] = False
            movers = active[~hit]
            if len(movers):
                dirs = rng.standard_normal((len(movers), 3))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                pos[movers] += radius[~hit][:, None] * dirs
        n_lost = int(alive.sum())
        discarded += n_lost
        good = scores[~alive] if n_lost else scores
        total += good.sum()
        total_sq += (good ** 2).sum()
        done += len(good)

    if discarded > 0.01 * walks:
        raise ReliabilityError(
            f"{discarded} of {walks} walks exceeded the step cap")
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    stderr = math.sqrt(var / done)
    return WosEstimate(point=(x, y, z), mean=mean, stderr=stderr, walks=done,
                       eps=eps, seed=seed, discarded=discarded)
