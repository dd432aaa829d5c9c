"""The four seeded workloads of the cusplab benchmark.

Each workload draws its inputs from a seed, builds what its ops share
(``setup``), runs one op against cusplab's public API (``run``) and checks
the op's output against an independent reference (``check``).  Ops come in
rounds: a round holds one op of every stratum of the workload (mesh size,
datum kind, start kind and walk count, density profile), in seeded order.
A run's ops are the first ``ROUNDS_PER_PASS`` rounds (``pass_ops``); the
benchmark runs that pass as often as its time allows and takes each op's
median time.  ``GAUGE`` names the gauge of ``run.py`` whose reading
follows the workload's speed: ``python`` (a pure-Python loop) or ``kdtree``
(threaded KD-tree queries).  ``GAUGE_EXPONENT`` says how the times are
scaled by it: by (reference / reading) to that power, fitted on the box the
benchmark was written on.
Within a stratum, discrete inputs cycle through seeded permutations and
continuous ones follow a randomly shifted low-discrepancy sequence, so one
pass covers the input space evenly and its timings do not hinge on the
inputs one seed happened to draw.

Layers are called through their modules (``mesh.triangulate``, never a name
imported from them), so the traced run sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from cusplab import contour, density, fem, mesh, potential, wos
from cusplab.errors import CuspLabError

TWO_PI = 2.0 * math.pi


@dataclass
class Outcome:
    """Result of checking one op.

    ``rel_err`` is the op's error against the workload's reference (None when
    the op has no reference value); ``counters`` feed the traced run's
    per-layer metrics; ``stderr`` is set by Monte Carlo ops.
    """

    ok: bool
    detail: str = ""
    rel_err: float | None = None
    stderr: float | None = None
    counters: dict = dataclass_field(default_factory=dict)


def cycle(rng, values):
    """Endless sequence of seeded permutations of values."""
    while True:
        for k in rng.permutation(len(values)):
            yield values[k]


def unit_square(rng):
    """Endless low-discrepancy sequence in [0, 1)^2: the additive recurrence
    on the plastic number (Roberts' R2 sequence), shifted by a seeded offset."""
    g = 1.324717957244746             # real root of g^3 = g + 1
    step = np.array([1.0 / g, 1.0 / g ** 2])
    point = rng.random(2)
    while True:
        yield point
        point = (point + step) % 1.0


def pass_ops(wl, seed):
    """The ops of one pass of workload ``wl``: its first rounds, in order."""
    rounds = wl.rounds(seed)
    return [op for _ in range(wl.ROUNDS_PER_PASS) for op in next(rounds)]


def interior_points(field, A, B, unit, n):
    """Endless sequence of n-tuples of meridian points (r, z) with
    A + m < V < B - m, m = 5% of B - A, at least 0.01 from the axis and 0.3
    from the cusp tip (0, 0); drawn from the unit-square sequence by
    rejection.  Within 0.3 of the tip the mesh truncation, not the solver,
    sets the FEM error: it reaches 3.5% of the data range at distance
    0.1-0.2 on the 32x128 mesh, and at most 0.53% beyond 0.3.

    The i-th point of a tuple lies in the i-th of n equal bands of V.  The
    mesh numbers its triangles level by level, and point location scans
    them in order, so a point's cost grows with its V; one point per band
    gives every tuple the same cost."""
    lo, hi = A + 0.05 * (B - A), B - 0.05 * (B - A)
    while True:
        bands = [None] * n
        while None in bands:
            u, v = next(unit)
            r, z = 0.01 + 1.29 * u, -0.4 + 2.1 * v
            if math.hypot(r, z) < 0.3:
                continue
            value = field.value(r, z)
            if lo < value < hi:
                band = int(n * (value - lo) / (hi - lo))
                if bands[band] is None:
                    bands[band] = (float(r), float(z))
        yield tuple(bands)


class MeshSolve:
    """The ``cusplab solve`` path: cross-section, triangulation, quality
    census and a two-constant FEM solve, on seeded levels and mesh sizes."""

    name = "mesh-solve"
    LEVELS_A = (0.4, 0.5, 0.6)
    LEVELS_B = (1.6, 2.0, 2.4)
    SIZES = ((8, 32), (16, 64), (24, 96))
    # three rounds give every mesh size each inner and each outer level once;
    # the inner level alone moves an op's cost by about 25%
    ROUNDS_PER_PASS = 3
    # unscaled ops_per_s, latency_p50_ms and setup_s grew as the gauge
    # reading to the powers 1.38, 1.46 and 1.30 over 30 runs
    GAUGE = "python"
    GAUGE_EXPONENT = 1.4
    WARMUP = (0.5, 2.0, 8, 32)
    # worst errors over all 27 inputs in cusplab 0.1.0: energy 3.97% (A=0.6,
    # B=2.4, 8x32), nodal 1.33% (A=0.4, B=2.4, 8x32)
    ENERGY_TOL = 0.06
    NODE_TOL = 0.02

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 1])
        levels = {size: (cycle(rng, self.LEVELS_A), cycle(rng, self.LEVELS_B))
                  for size in self.SIZES}
        while True:
            ops = []
            for k in rng.permutation(len(self.SIZES)):
                inner, outer = levels[self.SIZES[k]]
                ops.append((next(inner), next(outer), *self.SIZES[k]))
            yield ops

    def setup(self):
        return {"field": potential.PotentialField(density.lebesgue_profile())}

    def run(self, state, op):
        A, B, n_levels, n_stations = op
        cs = mesh.build_cross_section(state["field"], A, B, r_min=1e-4)
        m = mesh.triangulate(cs, n_levels=n_levels, n_stations=n_stations)
        quality = mesh.mesh_quality(m)
        sol = fem.solve_dirichlet(m, fem.BoundaryData.constants(A, B), tol=1e-12)
        return m, quality, sol

    def check(self, state, op, result):
        A, B = op[0], op[1]
        m, quality, sol = result
        oracle = TWO_PI * (B - A)
        e_energy = abs(sol.dirichlet_energy - oracle) / oracle
        # constant data A, B: the exact solution is V itself
        field, z_floor = state["field"], 2.0 * m.z_cut
        e_node = 0.0
        for i, (r, z) in enumerate(m.nodes):
            if m.node_tags[i] == mesh.INTERIOR and z >= z_floor:
                v = field.value(r, z)
                e_node = max(e_node, abs(sol.values[i] - v) / v)
        ok = e_energy <= self.ENERGY_TOL and e_node <= self.NODE_TOL
        return Outcome(ok, f"energy err {e_energy:.2e}, nodal err {e_node:.2e}",
                       rel_err=max(e_energy, e_node),
                       counters={"triangles": len(m.triangles),
                                 "quality_failures": int(not quality.passes()),
                                 "cg_iterations": sol.iterations})


class FemReuse:
    """Many data sets on one refined mesh: a solve per datum, then point
    evaluation of the solution."""

    name = "fem-reuse"
    A, B = 0.5, 2.0
    N_POINTS = 8
    KINDS = ("constant", "bump", "tabulated")
    ROUNDS_PER_PASS = 2
    # fitted powers 1.04, 1.11 and 0.89, as for mesh-solve
    GAUGE = "python"
    GAUGE_EXPONENT = 1.0
    WARMUP = ("constant", (0.5, 2.0), ((0.5, 0.5),))
    # the 32x128 mesh reads energy err 0.62% and point err at most 0.53% of
    # the data range in cusplab 0.1.0
    ENERGY_TOL = 0.02
    POINT_TOL = 0.01
    MARGIN_TOL = -1e-8

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 2])
        field = potential.PotentialField(density.lebesgue_profile())
        points = interior_points(field, self.A, self.B, unit_square(rng), self.N_POINTS)
        while True:
            yield [self._op(kind, rng, points) for kind in self.KINDS]

    def _op(self, kind, rng, points):
        # the data draws of acceptance criterion 8
        if kind == "constant":
            datum = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        elif kind == "bump":
            datum = (rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3),
                     rng.uniform(-3, 3), rng.uniform(-1, 1))
        else:
            datum = (int(rng.integers(2 ** 32)), rng.uniform(-1, 1))
        return (kind, tuple(float(x) for x in datum), next(points))

    def setup(self):
        field = potential.PotentialField(density.lebesgue_profile())
        cs = mesh.build_cross_section(field, self.A, self.B, r_min=1e-4)
        m = mesh.triangulate(cs, n_levels=32, n_stations=128)
        return {"field": field, "mesh": m,
                "n_outer": len(m.nodes_with_tag(mesh.OUTER)),
                "n_inner": len(m.nodes_with_tag(mesh.INNER))}

    def boundary_data(self, state, kind, datum):
        if kind == "constant":
            return fem.BoundaryData.constants(*datum)
        if kind == "bump":
            center, width, amplitude, inner = datum
            return fem.BoundaryData(fem.BumpData(center, width, amplitude),
                                    fem.ConstantData(inner))
        sub_seed, cap = datum
        rng = np.random.default_rng(int(sub_seed))
        return fem.BoundaryData(
            fem.TabulatedData(tuple(rng.uniform(-1, 1, state["n_outer"]))),
            fem.TabulatedData(tuple(rng.uniform(-1, 1, state["n_inner"]))),
            fem.ConstantData(cap))

    def run(self, state, op):
        kind, datum, points = op
        data = self.boundary_data(state, kind, datum)
        sol = fem.solve_dirichlet(state["mesh"], data, tol=1e-12)
        return sol, [sol(r, z) for r, z in points]

    def check(self, state, op, result):
        kind, datum, points = op
        sol, values = result
        counters = {"cg_iterations": sol.iterations}
        lo_margin, hi_margin = sol.max_principle_margins()
        lo, hi = min(sol.boundary_values.values()), max(sol.boundary_values.values())
        ok = (min(lo_margin, hi_margin) >= self.MARGIN_TOL
              and all(lo + self.MARGIN_TOL <= v <= hi - self.MARGIN_TOL for v in values))
        detail = f"margins {lo_margin:.1e}, {hi_margin:.1e}"
        if kind != "constant":
            return Outcome(ok, detail, counters=counters)
        alpha, beta = datum
        oracle_energy = TWO_PI * (beta - alpha) ** 2 / (self.B - self.A)
        e_energy = abs(sol.dirichlet_energy - oracle_energy) / oracle_energy
        exact = fem.two_constant_oracle(state["field"], self.A, self.B, alpha, beta,
                                        points)
        e_point = max(abs(v - x) for v, x in zip(values, exact)) / abs(beta - alpha)
        ok = ok and e_energy <= self.ENERGY_TOL and e_point <= self.POINT_TOL
        return Outcome(ok, f"{detail}; energy err {e_energy:.2e}, point err {e_point:.2e}",
                       rel_err=max(e_energy, e_point), counters=counters)


class WosProbe:
    """walk-on-spheres estimates on the deep cross-section of acceptance
    criteria 11-12, from bulk points and from level-curve stations that
    approach the cusp tip."""

    name = "wos-probe"
    A, B = 0.5, 2.0
    BULK_EPS, TIP_EPS = 5e-5, 1e-4
    # bulk starts: four of the five points of criterion 11, each moved by a
    # seeded offset of at most JITTER in r and z.  1000 walks take 0.62-0.97
    # s over these points, so a pass starts the same number of ops at each
    # (three of 1000 walks, one of 4000) to keep its cost the same from seed
    # to seed.  (0.6, 0.6) is left out: it lies nearest to (0.5, 0.5).
    BULK_POINTS = ((0.5, 0.5), (0.3, -0.1), (0.45, 1.0), (0.2, 0.2))
    JITTER = 0.02
    TIP_LEVELS = (1.25, 1.5, 1.75)
    TIP_Z = (0.32, 0.16, 0.08, 0.04, 0.02)
    # (start, walks) per op of a round.  1000 bulk walks take 0.6-0.9 s,
    # 1000 tip walks 0.3-0.5 s, 4000 tip walks 0.8-1.4 s and 4000 bulk walks
    # 2.1-2.9 s, so three 1000-walk bulk ops put the median op inside that
    # stratum instead of between two; the 4000-walk ops dominate ops_per_s.
    STRATA = (("bulk", 1000), ("bulk", 1000), ("bulk", 1000), ("tip", 1000),
              ("bulk", 4000), ("tip", 4000))
    # four rounds take about 25 s
    ROUNDS_PER_PASS = 4
    # the time goes to numpy and the threaded KD-tree query, which the
    # pure-Python gauge does not follow.  With another process busy on one
    # of two cores, a 1000-walk bulk op slowed by 58% and the kdtree gauge
    # by 52%, while the pure-Python gauge did not move.
    GAUGE = "kdtree"
    GAUGE_EXPONENT = 1.0
    BUMP = (0.5, 0.25, 1.0)          # the outer bump of criterion 12
    WARMUP = ("bulk", (0.5, 0.5), "constant", 1000, 0)
    # bulk starts must agree with the oracle within this many standard errors
    N_SIGMA = 5.0
    # tip starts read low because the truncated needle carries no datum:
    # worst in cusplab 0.1.0: -39% (c = 1.75, z = 0.02)
    TIP_TOL = 0.5

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 3])
        # each stratum cycles through its own points, levels, heights and data
        cycles = {}
        for stratum in dict.fromkeys(self.STRATA):
            if stratum[0] == "bulk":
                cycles[stratum] = (cycle(rng, self.BULK_POINTS),)
            else:
                cycles[stratum] = (cycle(rng, self.TIP_LEVELS), cycle(rng, self.TIP_Z),
                                   cycle(rng, ("constant", "bump")))
        while True:
            ops = []
            for k in rng.permutation(len(self.STRATA)):
                start, walks = stratum = self.STRATA[k]
                op_seed = int(rng.integers(2 ** 31))
                if start == "bulk":
                    r, z = next(cycles[stratum][0]) + rng.uniform(-self.JITTER, self.JITTER, 2)
                    ops.append(("bulk", (float(r), float(z)), "constant", walks, op_seed))
                else:
                    levels, heights, data = cycles[stratum]
                    station = (float(next(levels)), float(next(heights)))
                    ops.append(("tip", station, next(data), walks, op_seed))
            yield ops

    def setup(self):
        field = potential.PotentialField(density.lebesgue_profile())
        cs = mesh.build_cross_section(field, self.A, self.B, r_min=1e-6, n_trace=384)
        center, width, amplitude = self.BUMP
        return {"field": field, "cs": cs,
                "constant": fem.BoundaryData.constants(self.A, self.B),
                "bump": fem.BoundaryData(fem.BumpData(center, width, amplitude),
                                         fem.ConstantData(0.0))}

    def run(self, state, op):
        start, where, datum, walks, op_seed = op
        if start == "bulk":
            (r, z), eps = where, self.BULK_EPS
        else:
            c, z = where
            r, eps = math.exp(contour.log_radius_at(state["field"], c, z)), self.TIP_EPS
        return wos.estimate(state["cs"], state[datum], (r, 0.0, z), walks=walks,
                            eps=eps, seed=op_seed)

    def check(self, state, op, est):
        start, where, datum, walks, _ = op
        counters = {"walks": est.walks, "discarded": est.discarded}
        if datum == "bump":
            amplitude = self.BUMP[2]
            ok = 0.0 <= est.mean <= amplitude and est.stderr >= 0.0
            return Outcome(ok, f"mean {est.mean:.4f}", stderr=est.stderr, counters=counters)
        oracle = (state["field"].value(*where) if start == "bulk" else where[0])
        rel = abs(est.mean - oracle) / oracle
        slack = self.N_SIGMA * est.stderr
        if start == "bulk":
            ok = abs(est.mean - oracle) <= slack
        else:
            ok = (self.A - slack <= est.mean <= oracle + slack) and rel <= self.TIP_TOL
        ok = ok and est.walks == walks - est.discarded and math.isfinite(est.stderr)
        return Outcome(ok, f"mean {est.mean:.4f} vs {oracle:.4f} (stderr {est.stderr:.4f})",
                       rel_err=rel, stderr=est.stderr, counters=counters)


class QuadContour:
    """Contour roots of non-closed-form densities: every V evaluation is an
    adaptive quadrature over the density."""

    name = "quad-contour"
    # per round: two roots of the z^0.5 rod and one of the z^2 rod, so the
    # median op is a z^0.5 root (its quadrature costs 5-10x more)
    PROFILES = (0.5, 0.5, 2.0)
    ROUNDS_PER_PASS = 12
    # fitted powers 1.31, 1.43 and 1.31, as for mesh-solve
    GAUGE = "python"
    GAUGE_EXPONENT = 1.4
    WARMUP = (2.0, 0.6, 0.5)
    CHECK_REL_TOL = 1e-12
    # root residual target is 1e-10 max(1, c); the recheck reads at most
    # 3e-13 in cusplab 0.1.0
    RESID_TOL = 1e-9
    # z^1.5 at 17 knots: every root of it raises AccuracyError in cusplab 0.1.0
    # and takes 9-18 s, so it is probed outside the timed ops (``defect_probe``)
    TABULATED_KNOTS = 17

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 4])
        unit = {p: unit_square(rng) for p in dict.fromkeys(self.PROFILES)}
        while True:
            ops = []
            for k in rng.permutation(len(self.PROFILES)):
                u, v = next(unit[self.PROFILES[k]])
                ops.append((self.PROFILES[k], 0.3 + 0.6 * float(u), 0.05 + 0.9 * float(v)))
            yield ops

    def setup(self):
        state = {}
        for p in dict.fromkeys(self.PROFILES):
            rod = density.power_profile(p)
            state[p] = potential.PotentialField(rod)
            state[p, "check"] = potential.PotentialField(rod, rel_tol=self.CHECK_REL_TOL)
        knots = np.linspace(0.0, 1.0, self.TABULATED_KNOTS)
        state["tabulated"] = potential.PotentialField(
            density.tabulated_profile(np.column_stack([knots, knots ** 1.5])))
        return state

    def run(self, state, op):
        p, c_frac, z_frac = op
        field = state[p]
        return contour.radius_at(field, c_frac * field.v00, z_frac * field.density.length)

    def check(self, state, op, r):
        p, c_frac, z_frac = op
        field = state[p]
        c = c_frac * field.v00
        v = state[p, "check"].value(r, z_frac * field.density.length)
        resid = abs(v - c) / c
        return Outcome(resid <= self.RESID_TOL, f"residual {resid:.2e}", rel_err=resid)

    def defect_probe(self, state, seed):
        """One V of the tabulated rod by quadrature at a seeded off-rod point.

        Known defect: the quadrature is split only at z, not at the knots, so
        it stops near 1e-7 against its 1e-10 target and raises AccuracyError.
        Returns None once that is fixed, else the error message.
        """
        rng = np.random.default_rng([seed, 5])
        r, z = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 0.95))
        try:
            state["tabulated"].value(r, z)
        except CuspLabError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


WORKLOADS = {w.name: w for w in (MeshSolve(), FemReuse(), WosProbe(), QuadContour())}
