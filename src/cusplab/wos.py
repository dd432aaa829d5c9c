"""Walk-on-spheres Monte Carlo solver for the Dirichlet problem.

Walks live in R^3; the axisymmetric boundary is represented by its meridian
polylines, and the distance from a walker to the surfaces of revolution
equals the meridian-plane distance to the polylines (the closest point of a
coaxial surface of revolution lies in the meridian half-plane through the
query point).  A walker jumps to a uniform point on a sphere no larger than
its boundary distance until it comes within eps of the boundary.  There it
exits, and the walk records the exit: the segment of its closest boundary
point and the parameter t of that point on it (segment -1 for a walk that
STEP_CAP stopped).  The exits sample the harmonic measure of the start
point (Kakutani 1944), so the walk needs no boundary data: one scoring pass
per chunk maps the records to arc fractions of their components and applies
each component's datum, a callable on arc fractions.

Distances come from the polyline segments themselves, through a linear
quadtree over the square that bounds them: adaptively sampled distance
cells (Frisken, Perry, Rockwood & Jones, Adaptively Sampled Distance
Fields, SIGGRAPH 2000) queried conservatively in the sense of Sawhney &
Crane, Monte Carlo Geometry Processing, 2020.  Each leaf has a centre c,
half-diagonal rho and the exact distance d(c) from c to the boundary, and
is one of two kinds:

* a near leaf lists every segment within d(c) + 2 rho of c, which holds
  every segment that can be nearest to a point of the leaf: at most K of
  them, more only at the depth limit.  A walker x gets the exact distance
  to the listed segments; no unlisted one lies closer than
  d(c) + 2 rho - |x - c|, so the smaller of the two is a lower bound on the
  boundary distance, exact when the listed distance is the smaller.
* a far leaf, d(c) > F rho, stores only d(c); its walkers step by the
  1-Lipschitz bound d(c) - |x - c|.

A cell that is neither far nor lists at most K segments is split in four,
down to DEPTH levels.

A walker's leaf is read from a dense grid over the cells of level G
(G = 10: 1024 x 1024 entries), built with the tree: each entry holds the
index of the leaf that covers its cell, or -1 where leaves deeper than G
split the cell.  The entries are int16 for a tree of up to 32,767 leaves
(2 MB), else int32 (4 MB).  Only a walker in a split cell is located by its
Morton code at depth DEPTH and one searchsorted over the leaves' sorted
start codes; both give the leaf whose code range holds the walker's code.
On the criterion-11 section (5,701 leaves, down to level 17) the grid
answers 99.98% of the walker-steps from bulk starts and 99.4% from tip
starts (95% and 68% at G = 8).  Both bounds hold for any x, in
the leaf or not (rounding can put a point on a cell edge into its
neighbour), so a step never passes the boundary; a walker whose bound falls
below eps without a certificate of exactness gets the exact distance over
all segments, so no walk ever stops farther than eps from the boundary.
The segments, their arc fractions and the tree depend on the cross-section
alone, a frozen value: they are built on its first estimate and kept on it
for its life (see _geometry); the boundary data meet only the exit records.

Randomness is counter-based (Salmon, Moraes, Dror & Shaw, Parallel random
numbers: as easy as 1, 2, 3, SC 2011), and this module alone decides the
streams.  Each chunk of CHUNK walks draws from the Philox stream with key
(seed mod 2**64, chunk start) and counter (0, x, y, z), the start point's
float64 bits after + 0.0 (so -0.0 keys like 0.0).  Only the low word
advances, and no chunk draws 2**64 blocks, so distinct chunks and start
points draw disjoint streams: an estimate is a function of (seed, point,
walks, eps) alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryData, TabulatedData
from .contour import polyline_arcs
from .errors import DomainError, InputError, ReliabilityError

CHUNK = 32768
STEP_CAP = 100_000
# segments a near leaf lists, more only at the depth limit
K = 8
# a leaf whose centre lies more than F half-diagonals from the boundary
# stores only that distance
F = 3.0
# depth limit of the quadtree: Morton codes of 2 * DEPTH bits
DEPTH = 31
# level of the dense grid that finds a walker's leaf: 4**G entries of
# int16, or int32 for a tree of more than 32,767 leaves (2 MB or 4 MB)
G = 10
# point-segment pairs measured per block, to bound the temporary arrays
_PAIRS = 4096


def _project(px, pz, s):
    """Squared distance from the points (px, pz) to the segments s, and the
    parameter t of the closest point.  s stacks (ax, az, dx, dz, dd) on its
    first axis: the segment a + t d, 0 <= t <= 1, with dd = |d|^2 floored
    at the smallest normal float.  The arrays broadcast.  Callers take the
    root of the least square only: every distance comes from this one
    kernel, so a distance found among a few candidates equals the one found
    among all segments bit for bit.  Squares underflow below about 1e-154,
    far inside any stopping shell."""
    ax, az, dx, dz, dd = s
    wx, wz = px - ax, pz - az
    t = wx * dx
    t += wz * dz
    t /= dd
    np.clip(t, 0.0, 1.0, out=t)
    ex, ez = t * dx, t * dz
    ex -= wx
    ez -= wz
    ex *= ex
    ez *= ez
    ex += ez
    return ex, t


def _least(sq, t):
    """Per row of the squared distances sq: the distance to the nearest
    segment, its column and the parameter t there; ties go to the first
    column."""
    j = sq.argmin(axis=1)
    rows = np.arange(len(j))
    return np.sqrt(sq[rows, j]), j, t[rows, j]


def _nearest(p, s):
    """Exact distance from each row of p to the nearest of all segments s,
    with that segment's index and the parameter of the closest point."""
    dist = np.empty(len(p))
    seg = np.empty(len(p), dtype=np.intp)
    t = np.empty(len(p))
    block = max(1, _PAIRS // s.shape[1])
    for i in range(0, len(p), block):
        q = p[i:i + block]
        dist[i:i + block], seg[i:i + block], t[i:i + block] = _least(
            *_project(q[:, :1], q[:, 1:], s))
    return dist, seg, t


# the shifts and masks of _spread, and the shift of _morton's odd bits
_SPREAD = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
    (1, 0x5555555555555555)))
_ODD = np.uint64(1)


def _spread(v):
    """The bits of each uint64 v < 2**32 moved to the even bit positions."""
    for shift, mask in _SPREAD:
        v = v | (v << shift)
        v &= mask
    return v


def _morton(ij):
    """Morton codes of the rows (i, j) of integer cell coordinates below
    2**DEPTH."""
    v = _spread(ij.astype(np.uint64))
    return v[:, 0] | (v[:, 1] << _ODD)


def _polylines(cs):
    """The cross-section's (tag, (r, z) polyline) pairs as float arrays."""
    return [(tag, np.asarray(pl, dtype=float))
            for tag, pl in cs.boundary_polylines()]


def _segments(polylines):
    """The segments of all polylines stacked for _project, shape (5, n)."""
    a = np.vstack([pl[:-1] for _, pl in polylines])
    d = np.vstack([np.diff(pl, axis=0) for _, pl in polylines])
    dd = np.maximum(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1],
                    np.finfo(float).tiny)
    return np.stack([a[:, 0], a[:, 1], d[:, 0], d[:, 1], dd])


def distance_to_boundary(cs, point):
    """Minimum meridian-plane distance from (r, z) to the boundary
    polylines; valid as the 3D distance to the surfaces of revolution."""
    r, z = float(point[0]), float(point[1])
    if hasattr(cs, "contains") and not cs.contains(r, z):
        raise DomainError(f"point (r={r}, z={z}) is not interior")
    segs = _segments(_polylines(cs))
    return float(_nearest(np.array([[r, z]]), segs)[0][0])


class _Geometry:
    """The boundary segments of one cross-section, their arc fractions and
    the quadtree of distance cells over them (see the module docstring)."""

    def __init__(self, polylines):
        self.polylines = polylines
        self.segs = _segments(polylines)
        # segment k covers arc fractions s0[k] .. s0[k] + ds[k] of comp[k]
        arcs = [polyline_arcs(pl) for _, pl in polylines]
        self.comp = np.concatenate([np.full(len(arc) - 1, k)
                                    for k, arc in enumerate(arcs)])
        self.s0 = np.concatenate([arc[:-1] / arc[-1] for arc in arcs])
        self.ds = np.concatenate([np.diff(arc) / arc[-1] for arc in arcs])
        self._build_tree()

    def _build_tree(self):
        """Split cells level by level, carrying each cell's candidate
        segments as ragged (cell, segment) pairs sorted by cell, then by
        segment."""
        vertices = np.vstack([pl for _, pl in self.polylines])
        lo = vertices.min(axis=0)
        size = float((vertices.max(axis=0) - lo).max()) or 1.0
        self.origin, self.scale = lo, 2.0 ** DEPTH / size
        # absorbs rounding in the distances: a list holds every segment
        # within d(c) + 2 rho + tol, and a bound leaves tol to spare
        tol = size * 2.0 ** -40
        quad = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        ij = np.zeros((1, 2), dtype=np.int64)
        seg = np.arange(self.segs.shape[1])
        cell = np.zeros_like(seg)
        leaves = []                  # (level, ij, centre, reach, count, segs)
        for level in range(DEPTH + 1):
            h = size / 2.0 ** level
            rho = h * math.sqrt(0.5)
            centre = lo + (ij + 0.5) * h
            dist = np.empty(len(cell))
            for i in range(0, len(cell), _PAIRS):
                c = cell[i:i + _PAIRS]
                dist[i:i + _PAIRS] = _project(centre[c, 0], centre[c, 1],
                                              self.segs[:, seg[i:i + _PAIRS]])[0]
            np.sqrt(dist, out=dist)
            count = np.bincount(cell, minlength=len(ij))
            dc = np.minimum.reduceat(dist, np.cumsum(count) - count)
            keep = dist <= dc[cell] + (2.0 * rho + tol)
            cell, seg = cell[keep], seg[keep]
            count = np.bincount(cell, minlength=len(ij))
            far = dc > F * rho
            split = ~far & (count > K) & (level < DEPTH)
            count[far] = 0
            leaves.append((level, ij[~split], centre[~split],
                           np.where(far, dc - tol, dc + 2.0 * rho)[~split],
                           count[~split], seg[~split[cell] & ~far[cell]]))
            if not split.any():
                break
            # the pairs of each split cell, repeated for its four children
            # and put in the order (child, segment)
            mine = split[cell]
            child = (4 * (np.cumsum(split) - 1)[cell[mine]][:, None]
                     + np.arange(4)).ravel()
            order = np.argsort(child, kind="stable")
            cell, seg = child[order], np.repeat(seg[mine], 4)[order]
            ij = (2 * ij[split][:, None, :] + quad).reshape(-1, 2)

        level = np.concatenate([np.full(len(lv[1]), lv[0]) for lv in leaves])
        ij = np.vstack([lv[1] for lv in leaves]) << (DEPTH - level)[:, None]
        start = _morton(ij)
        order = np.argsort(start)
        self.start = start[order]
        # the grid of level G: each leaf of level g <= G, by its index in
        # start order, fills its s x s block of cells, s = 2**(G - g),
        # written through a (2**g, s, 2**g, s) view; cells that deeper
        # leaves split keep -1
        small = len(order) <= np.iinfo(np.int16).max
        rank = np.empty(len(order), dtype=np.int16 if small else np.int32)
        rank[order] = np.arange(len(order))
        end = np.cumsum([len(lv[1]) for lv in leaves])
        self.grid = np.full((2 ** G, 2 ** G), -1, dtype=rank.dtype)
        for g in range(min(G + 1, len(leaves))):
            i, j = leaves[g][1].T
            s = 2 ** (G - g)
            self.grid.reshape(2 ** g, s, 2 ** g, s)[i, :, j, :] = \
                rank[end[g] - len(i):end[g], None, None]
        self.centre = np.vstack([lv[2] for lv in leaves])[order]
        self.reach = np.concatenate([lv[3] for lv in leaves])[order]
        count = np.concatenate([lv[4] for lv in leaves])
        first = (np.cumsum(count) - count)[order]
        count = count[order]
        lists = np.concatenate([lv[5] for lv in leaves])
        # near leaves by their row in the candidate tables, far ones -1
        near = count > 0
        self.slot = np.where(near, np.cumsum(near) - 1, -1)
        # each near leaf's segments, its first K padded with its last,
        # and all of them for a leaf at the depth limit that has more
        first, count = first[near], count[near]
        self.table = lists[first[:, None]
                           + np.minimum(np.arange(K), count[:, None] - 1)]
        self.cells = self.segs[:, self.table]
        self.full = {int(k): lists[first[k]:first[k] + count[k]]
                     for k in np.flatnonzero(count > K)}

    def leaf(self, rz):
        """The leaf of each row of rz: the one whose Morton code range holds
        the row's code, for a point clamped into the square.  The grid
        answers rows whose leaf has level G or less; the others search the
        leaves' start codes."""
        # origin is subtracted column by column into the rows of q: numpy
        # broadcasts it over an (n, 2) array with an inner loop of two
        # elements, about three times slower at 4,000 rows.  np.clip costs
        # several times a ufunc call on the few rows of a late walk step
        q = np.empty((2, len(rz)))
        np.subtract(rz[:, 0], self.origin[0], out=q[0])
        np.subtract(rz[:, 1], self.origin[1], out=q[1])
        q *= self.scale
        q = np.minimum(np.maximum(q, 0.0, out=q), 2.0 ** DEPTH - 1.0,
                       out=q).astype(np.int64)
        cell = q >> (DEPTH - G)
        leaf = self.grid[cell[0], cell[1]].astype(np.intp)
        deep = np.flatnonzero(leaf < 0)
        if len(deep):
            leaf[deep] = np.searchsorted(self.start, _morton(q[:, deep].T),
                                         side="right") - 1
        return leaf

    def query(self, rz, eps):
        """Step radius for each row of rz, with the closest boundary point.

        Returns (radius, exact, seg, t): radius never exceeds the distance
        to the boundary and equals it where exact is True, which holds
        wherever radius < eps; where exact, seg and t locate the closest
        boundary point on segment seg.
        """
        leaf = self.leaf(rz)
        # np.take gathers rows of a two-column array several times faster
        # than indexing does
        off = rz - np.take(self.centre, leaf, axis=0)
        off *= off
        radius = self.reach[leaf] - np.sqrt(off[:, 0] + off[:, 1])
        exact = np.zeros(len(rz), dtype=bool)
        seg = np.zeros(len(rz), dtype=np.intp)
        t = np.zeros(len(rz))
        slot = self.slot[leaf]
        near = np.flatnonzero(slot >= 0)
        if len(near):
            slot = slot[near]
            p = np.take(rz, near, axis=0)
            best, j, t[near] = _least(*_project(p[:, :1], p[:, 1:],
                                                 self.cells[:, slot]))
            seg[near] = self.table[slot, j]
            for k, full in self.full.items():
                # a leaf at the depth limit keeps all of its segments
                mine = np.flatnonzero(slot == k)
                if len(mine):
                    best[mine], j, t[near[mine]] = _nearest(p[mine],
                                                            self.segs[:, full])
                    seg[near[mine]] = full[j]
            exact[near] = best <= radius[near]
            radius[near] = np.minimum(best, radius[near])
        rare = np.flatnonzero(~exact & (radius < eps))
        if len(rare):
            radius[rare], seg[rare], t[rare] = _nearest(rz[rare], self.segs)
            exact[rare] = True
        return radius, exact, seg, t


def _geometry(cs):
    """The cross-section's _Geometry, built on first use and kept in its
    _wos field.  A section without that field gets a new one on every
    call."""
    geo = getattr(cs, "_wos", None)
    if geo is None:
        geo = _Geometry(_polylines(cs))
        if hasattr(cs, "_wos"):
            object.__setattr__(cs, "_wos", geo)
    return geo


def _walk(geo, point, n, eps, key):
    """Exit records of n walks from the 3D point, drawn from the Philox
    stream with key (seed mod 2**64, chunk start) and the point's counter
    (0, x, y, z) in float64 bits: the segment of each walk's closest
    boundary point when it stopped, the parameter t there, -1 and 0 for a
    walk that STEP_CAP stopped; with the distance queries made, one per
    walker and loop step."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array(key, dtype=np.uint64),
        counter=(np.array([0.0, *point]) + 0.0).view(np.uint64)))
    seg = np.full(n, -1, dtype=np.intp)
    t = np.zeros(n)
    # the live walkers: their indices and positions
    live = np.arange(n)
    pos = np.tile(point, (n, 1))
    # the meridian-plane (r, z) of the live walkers in its first rows
    meridian = np.empty((n, 2))
    steps = 0
    for _ in range(STEP_CAP):
        if len(live) == 0:
            break
        steps += len(live)
        rz = meridian[:len(live)]
        np.hypot(pos[:, 0], pos[:, 1], out=rz[:, 0])
        rz[:, 1] = pos[:, 2]
        radius, _, at, u = geo.query(rz, eps)
        hit = radius < eps
        if hit.any():
            done = live[hit]
            seg[done], t[done] = at[hit], u[hit]
            move = ~hit
            live, radius = live[move], radius[move]
            pos = np.compress(move, pos, axis=0)
        if len(live):
            dirs = rng.standard_normal((len(live), 3))
            # the axis-1 sum of the squares, (x^2 + y^2) + z^2, in columns:
            # the same bits, without a reduction over rows of three
            sq = dirs * dirs
            norm = sq[:, 0] + sq[:, 1]
            norm += sq[:, 2]
            dirs /= np.sqrt(norm)[:, None]
            pos += radius[:, None] * dirs
    return seg, t, steps


def _scores(geo, datums, seg, t):
    """The datum at each exit record (seg >= 0): datums[k], a callable on
    arc fractions, for the records on the geometry's component k."""
    s = geo.s0[seg] + t * geo.ds[seg]
    comp = geo.comp[seg]
    out = np.empty(len(seg))
    for k, datum in enumerate(datums):
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
    # distance queries summed over all walkers: one per walker and loop
    # step, the step that stops it included
    steps: int = 0


def estimate(cs, data, point3d, walks=10_000, eps=1e-4, seed=0):
    """Monte Carlo estimate of the harmonic function with the given boundary
    data at a 3D interior point, a function of (seed, point, walks, eps)
    alone: its walks draw from streams keyed by (seed, point, chunk).  walks
    must be a positive integer and eps finite and positive (InputError)."""
    if (isinstance(walks, bool) or not isinstance(walks, numbers.Integral)
            or walks <= 0):
        raise InputError(f"walks must be a positive integer; got {walks!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and positive; got {eps!r}")
    x, y, z = (float(v) for v in point3d)
    r0 = math.hypot(x, y)
    if hasattr(cs, "contains") and not cs.contains(r0, z):
        raise DomainError(f"point (r={r0}, z={z}) is not interior")
    geo = _geometry(cs)
    spec = data.spec if isinstance(data, BoundaryData) else dict(data)
    datums = [spec.get(tag) for tag, _ in geo.polylines]
    for (tag, _), datum in zip(geo.polylines, datums):
        if datum is None:
            raise InputError(f"no boundary datum for component {tag!r}")
        if isinstance(datum, TabulatedData) and not len(datum.values):
            raise InputError(f"tabulated data for {tag!r} has no values to read")

    total, total_sq, done, steps = 0.0, 0.0, 0, 0
    for j in range(0, walks, CHUNK):
        n = min(CHUNK, walks - j)
        seg, t, chunk_steps = _walk(geo, (x, y, z), n, eps,
                                    (seed & 0xFFFFFFFFFFFFFFFF, j))
        steps += chunk_steps
        ended = seg >= 0
        good = _scores(geo, datums, seg[ended], t[ended])
        total += good.sum()
        total_sq += (good ** 2).sum()
        done += len(good)

    discarded = walks - done
    if discarded > 0.01 * walks:
        raise ReliabilityError(
            f"{discarded} of {walks} walks exceeded the step cap")
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    stderr = math.sqrt(var / done)
    return WosEstimate(point=(x, y, z), mean=mean, stderr=stderr, walks=done,
                       eps=eps, seed=seed, discarded=discarded, steps=steps)
