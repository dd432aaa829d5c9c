"""Boundary-approach probes: sample a solution along paths shrinking into
the singular tip, estimate the attainable limit set, and run the
non-locality experiment (a far-away boundary bump keeps the solution away
from zero arbitrarily close to the tip).

Both probes place their stations with _stations and walk them with
_walk_stations, so a station reads the same in either probe and both
refuse the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import wos as wos_mod
from .boundary import BoundaryData, BumpData, ConstantData, _two_constant
from .contour import log_radius_at
from .errors import DomainError, InputError

REGULAR_LIKE = "regular-like"
SEMIREGULAR_LIKE = "semiregular-like"
STRONGLY_IRREGULAR_LIKE = "strongly-irregular-like"

DEFAULT_STATIONS = 10
# ratio of successive station distances along a path
FACTOR = 0.5
# how far apart two limit estimates, or a limit and the datum, may lie and
# still count as agreeing
LIMIT_TOLERANCE = 0.02


@dataclass
class ProbePath:
    """Samples along a path approaching the tip (0, 0).

    Stations carry log-space radii: a level-curve path for c well above
    V(0,0) dives below the representable radius range long before the
    distances become small.
    """

    kind: str
    stations: np.ndarray          # (n, 2) rows (r, z); r may underflow to 0
    log_r: np.ndarray
    distances: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray = dataclass_field(default=None)

    @property
    def limit_estimate(self):
        return float(self.values[-1])


def _stations(field, spec, scales):
    """(z, log r, r, distance) arrays of a path's stations, one per scale.

    Specs: ("level-curve", c) with c in (V(0,0), B), at heights z = scales;
    ("axis-below",) for r = 0, z = -scales; ("ray", dr, dz) for a straight
    approach at distances = scales along the finite, nonzero direction
    (dr, dz) with dr >= 0 (dr = 0 runs up or down the axis, at r = 0).  The
    distances must fall strictly.
    """
    kind = spec[0]
    if kind == "level-curve":
        c = float(spec[1])
        if not c > field.v00:
            raise InputError("level-curve probes need a level above V(0,0)")
        zs, ts = scales, log_radius_at(field, c, scales)
    elif kind == "axis-below":
        zs, ts = -scales, np.full(len(scales), -math.inf)
    elif kind == "ray":
        dr, dz = float(spec[1]), float(spec[2])
        norm = math.hypot(dr, dz)
        if not (0.0 < norm < math.inf and dr >= 0.0):
            raise InputError(f"a ray needs a finite, nonzero direction with "
                             f"dr >= 0, got ({dr}, {dz})")
        zs = scales * dz / norm
        with np.errstate(divide="ignore"):
            ts = np.log(scales * dr / norm)
    else:
        raise InputError(f"unknown path kind {kind!r}")
    rs = np.exp(ts)
    dists = np.hypot(rs, zs)
    if np.any(np.diff(dists) >= 0):
        raise InputError("path stations must approach the tip strictly")
    return zs, ts, rs, dists


def _walk_stations(rs, zs, cross_section, data, **options):
    """Means and standard errors of one wos.estimate per station, each with
    the caller's seed.  options go to estimate as given, so the walk
    defaults are estimate's own."""
    ests = [wos_mod.estimate(cross_section, data, (r, 0.0, z), **options)
            for r, z in zip(rs, zs)]
    return np.array([e.mean for e in ests]), np.array([e.stderr for e in ests])


def sample_path(source, field, A, B, alpha, beta, path_spec,
                n_stations=DEFAULT_STATIONS, start=0.2, **source_options):
    """Evaluate a solution source along a tip-approach path.

    source is "oracle" (the exact two-constant affine image of the
    potential), "fem" (a SolutionField passed as fem_field, refused inside
    the truncation zone z < 2 z_cut), or "wos" (Monte Carlo, needs
    cross_section and data options, and takes walks/eps/seed as estimate
    does; every station takes the seed).
    """
    zs, ts, rs, dists = _stations(field, path_spec,
                                  start * FACTOR ** np.arange(n_stations))

    stderrs = None
    if source == "oracle":
        vals = _two_constant(field, A, B, alpha, beta, ts, zs)
    elif source == "fem":
        sol = source_options["fem_field"]
        bad = zs < 2.0 * sol.mesh.z_cut
        if np.any(bad):
            raise DomainError(
                f"fem source refused at z={zs[bad][0]}: inside the "
                f"truncation zone z < {2.0 * sol.mesh.z_cut}")
        vals = np.array([sol(r, z) for r, z in zip(rs, zs)])
    elif source == "wos":
        vals, stderrs = _walk_stations(rs, zs, **source_options)
    else:
        raise InputError(f"unknown source {source!r}")

    return ProbePath(kind=path_spec[0], stations=np.column_stack([rs, zs]),
                     log_r=ts, distances=dists, values=vals, stderrs=stderrs)


@dataclass
class LimitSetEstimate:
    lo: float
    hi: float
    classification: str
    per_path: list


def limit_set_estimate(paths, datum_at_tip):
    """Interval of per-path limit estimates and a boundary-behaviour verdict.

    regular-like: all limits agree (within LIMIT_TOLERANCE) with the datum
    at the tip; semiregular-like: limits agree with each other but not with
    the datum; strongly-irregular-like: the limits genuinely spread out.
    """
    if len(paths) < 3:
        raise InputError("need at least 3 paths")
    limits = [p.limit_estimate for p in paths]
    lo, hi = min(limits), max(limits)
    if hi - lo <= LIMIT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        cls = REGULAR_LIKE if abs(mid - datum_at_tip) <= LIMIT_TOLERANCE \
            else SEMIREGULAR_LIKE
    else:
        cls = STRONGLY_IRREGULAR_LIKE
    return LimitSetEstimate(lo=lo, hi=hi, classification=cls,
                            per_path=limits)


@dataclass
class NonlocalityReport:
    bump: BumpData
    levels: list
    stations: list                # per level: (z, value, stderr) triples
    floor: float
    verdict: str


def nonlocality_experiment(field, cs, bump, probe_levels, walks=20_000,
                           eps=1e-4, seed=0, z_stations=None):
    """Non-locality of the singular tip, checked by Monte Carlo.

    Boundary data = a positive bump on the outer component, zero elsewhere.
    The solution is sampled along level curves approaching the tip at
    sample_path's stations and walks, so a station reads the same in both
    and both refuse the same inputs (InputError).  The verdict is
    "non-vanishing" when every last-station value stays above 3 standard
    errors away from zero, which evidences that the solution does not
    converge to 0 at the tip.  Every station takes the seed.  Every level's
    stations are placed before the first walk, so a refused input, no
    level or no station included, costs no walk.
    """
    if bump.amplitude < 0:
        raise InputError("bump amplitude must be nonnegative")
    if z_stations is None:
        z_stations = [0.32, 0.16, 0.08, 0.04, 0.02]
    scales = np.asarray(z_stations, dtype=float)
    if not len(probe_levels) or not len(scales):
        raise InputError("the non-locality experiment needs at least one probe "
                         "level and one station")
    placed = [(c, _stations(field, ("level-curve", c), scales)) for c in probe_levels]
    data = BoundaryData(bump, ConstantData(0.0))
    all_stations = []
    for c, (zs, _, rs, _) in placed:
        vals, errs = _walk_stations(rs, zs, cs, data, walks=walks, eps=eps,
                                    seed=seed)
        all_stations.append(
            (c, list(zip(zs.tolist(), vals.tolist(), errs.tolist()))))
    floor = min(rows[-1][1] - 3.0 * rows[-1][2] for _, rows in all_stations)
    verdict = "non-vanishing" if floor > 0 else "vanishing"
    return NonlocalityReport(bump=bump, levels=list(probe_levels),
                             stations=all_stations, floor=floor,
                             verdict=verdict)
