"""Walk-on-spheres Monte Carlo solver for the Dirichlet problem.

Walks live in R^3; the axisymmetric boundary is represented by its meridian
polylines, and the distance from a walker to the surfaces of revolution
equals the meridian-plane distance to the polylines (the closest point of a
coaxial surface of revolution lies in the meridian half-plane through the
query point).  A walker jumps to a uniform point on the sphere of its
boundary distance until it lands inside the eps shell, then scores the
boundary datum at the nearest meridian point.

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

from .errors import DomainError, InputError, ReliabilityError
from .fem import BoundaryData, TabulatedData

CHUNK = 32768
STEP_CAP = 100_000


def _polyline_arcs(pts):
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    return arc / arc[-1] if arc[-1] > 0 else arc


def segment_distance(pts, p):
    """Exact distance from point p (r, z) to a polyline given as (n, 2)."""
    a = pts[:-1]
    d = pts[1:] - a
    t = np.clip(((p - a) * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    proj = a + t[:, None] * d
    return float(np.sqrt(((proj - p) ** 2).sum(axis=1).min()))


def distance_to_boundary(cs, point):
    """Minimum meridian-plane distance from (r, z) to the boundary
    polylines; valid as the 3D distance to the surfaces of revolution."""
    r, z = float(point[0]), float(point[1])
    if hasattr(cs, "contains") and not cs.contains(r, z):
        raise DomainError(f"point (r={r}, z={z}) is not interior")
    p = np.array([r, z])
    return min(segment_distance(np.asarray(pl, dtype=float), p)
               for _, pl in cs.boundary_polylines())


class _BoundaryModel:
    """Dense resampling of the boundary polylines with a KD-tree, datum
    values precomputed per resampled vertex."""

    def __init__(self, cs, data, eps):
        spacing = max(eps, 1e-6)
        if isinstance(data, BoundaryData):
            spec = dict(data.spec)
        else:
            spec = dict(data)
        pts_all, val_all, gap = [], [], 0.0
        for tag, pl in cs.boundary_polylines():
            pl = np.asarray(pl, dtype=float)
            arcs = _polyline_arcs(pl)
            total = np.hypot(np.diff(pl[:, 0]), np.diff(pl[:, 1])).sum()
            n = max(int(total / spacing), len(pl))
            s = np.linspace(0.0, 1.0, n)
            rr = np.interp(s, arcs, pl[:, 0])
            zz = np.interp(s, arcs, pl[:, 1])
            # arc gap between resampled points; the measured chords also
            # cover the rounding of the resample
            gap = max(gap, total / (n - 1),
                      np.hypot(np.diff(rr), np.diff(zz)).max())
            pts_all.append(np.column_stack([rr, zz]))
            val_all.append(self._datum_values(spec.get(tag), s, pl, arcs, tag))
        self.points = np.vstack(pts_all)
        self.values = np.concatenate(val_all)
        self.tree = cKDTree(self.points)
        # the true nearest boundary point lies within half a gap of a
        # resampled vertex
        self.shrink = gap / 2.0

    @staticmethod
    def _datum_values(spec, s, pl, arcs, tag):
        if spec is None:
            raise InputError(f"no boundary datum for component {tag!r}")
        if isinstance(spec, TabulatedData):
            grid = np.linspace(0.0, 1.0, len(spec.values))
            return np.interp(s, grid, np.asarray(spec.values, dtype=float))
        return np.asarray(spec(s), dtype=float)

    def query(self, rz):
        d, idx = self.tree.query(rz, workers=-1)
        return d, idx


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
    model = _BoundaryModel(cs, data, eps)

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
            d, idx = model.query(rz)
            hit = d < eps
            dead = active[hit]
            scores[dead] = model.values[idx[hit]]
            alive[dead] = False
            movers = active[~hit]
            if len(movers):
                # the nearest resampled vertex overestimates the true
                # distance by at most the resampling half-spacing
                radius = d[~hit] - model.shrink
                dirs = rng.standard_normal((len(movers), 3))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                pos[movers] += radius[:, None] * dirs
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
