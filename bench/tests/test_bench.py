"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

No test asserts on a timing.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import dataclasses
import importlib
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cusplab  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cusplab import fem, mesh  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_rounds(wl, seed, n=3):
    return list(itertools.islice(wl.rounds(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    wl = workloads.WORKLOADS[name]
    assert first_rounds(wl, 11) == first_rounds(wl, 11)
    assert first_rounds(wl, 11) != first_rounds(wl, 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_holds_every_stratum_once(name):
    wl = workloads.WORKLOADS[name]
    strata = {
        "mesh-solve": lambda op: op[2:],
        "fem-reuse": lambda op: op[0],
        "wos-probe": lambda op: (op[0], op[3]),
        "quad-contour": lambda op: op[0],
    }[name]
    kinds = [sorted(map(str, map(strata, ops))) for ops in first_rounds(wl, 5, 4)]
    assert all(k == kinds[0] for k in kinds)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pass_is_the_first_rounds(name):
    wl = workloads.WORKLOADS[name]
    rounds = first_rounds(wl, 8, wl.ROUNDS_PER_PASS)
    assert workloads.pass_ops(wl, 8) == [op for ops in rounds for op in ops]


def test_mesh_solve_pass_gives_every_size_each_level_once():
    wl = workloads.WORKLOADS["mesh-solve"]
    for seed in range(5):
        ops = workloads.pass_ops(wl, seed)
        for size in wl.SIZES:
            levels = [op[:2] for op in ops if op[2:] == size]
            assert sorted(a for a, _ in levels) == sorted(wl.LEVELS_A)
            assert sorted(b for _, b in levels) == sorted(wl.LEVELS_B)


def test_wos_probe_pass_starts_the_same_ops_at_every_bulk_point():
    wl = workloads.WORKLOADS["wos-probe"]
    for seed in range(5):
        starts = []
        for start, (r, z), _, walks, _ in workloads.pass_ops(wl, seed):
            if start == "bulk":
                base = min(wl.BULK_POINTS, key=lambda p: math.hypot(p[0] - r, p[1] - z))
                assert max(abs(base[0] - r), abs(base[1] - z)) <= wl.JITTER
                starts.append((base, walks))
        assert sorted(starts) == sorted(
            (p, w) for p in wl.BULK_POINTS for w in (1000, 1000, 1000, 4000))


def test_fem_reuse_points_lie_one_per_band_of_v():
    wl = workloads.WORKLOADS["fem-reuse"]
    field = cusplab.PotentialField(cusplab.lebesgue_profile())
    lo, hi = wl.A + 0.05 * (wl.B - wl.A), wl.B - 0.05 * (wl.B - wl.A)
    for _, _, points in workloads.pass_ops(wl, 4):
        bands = [int(wl.N_POINTS * (field.value(r, z) - lo) / (hi - lo)) for r, z in points]
        assert bands == list(range(wl.N_POINTS))


class Recorder:
    """A stand-in workload whose ops are numbers and never fail."""

    WARMUP = 0
    GAUGE = "python"
    GAUGE_EXPONENT = 1.0

    def setup(self):
        return None

    def run(self, state, op):
        return op

    def check(self, state, op, result):
        return workloads.Outcome(result == op)


def test_run_passes_repeats_the_op_list():
    ops = [1, 2, 3]
    passes = run.run_passes(Recorder(), None, ops, budget_s=0.0)
    assert len(passes) == 1
    assert all([rec["op"] for rec in p] == ops for p in passes)
    assert len(run.run_passes(Recorder(), None, ops, passes=3)) == 3


def test_measure_sets_up_every_time_and_runs_the_least_passes():
    _, setups, warmups, passes = run.measure(Recorder(), [1, 2], budget_s=0.0)
    assert len(setups) == len(warmups) == run.SETUP_REPEATS
    assert len(passes) == 1
    assert all(rec["outcome"].ok for rec in warmups)
    # the workload's gauge is read around every set-up and every op
    assert all(set(slow) == {"python"} and slow["python"] > 0 for _, slow in setups)
    assert all(rec["gauge"] > 0 for p in passes for rec in p)


def test_every_gauge_reads_a_positive_slowness():
    assert all(run.slowness(gauge) > 0 for gauge in run.GAUGES)
    assert all(w.GAUGE in run.GAUGES for w in workloads.WORKLOADS.values())


def test_op_seconds_is_the_median_of_scaled_times():
    passes = [[{"latency": 3.0, "gauge": None}, {"latency": 1.0, "gauge": 2.0}],
              [{"latency": 2.0, "gauge": None}, {"latency": 4.0, "gauge": 1.0}]]
    assert run.op_seconds(passes, 1.0) == [2.5, 2.25]
    assert run.op_seconds(passes, 2.0) == [2.5, 2.125]
    assert run.op_seconds(passes, 0.0) == [2.5, 2.5]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


# -- output checks reject corrupted results ---------------------------------

def test_mesh_solve_check_rejects_corruption():
    wl = workloads.WORKLOADS["mesh-solve"]
    state = wl.setup()
    op = wl.WARMUP
    m, quality, sol = wl.run(state, op)
    assert wl.check(state, op, (m, quality, sol)).ok
    scaled = dataclasses.replace(sol, dirichlet_energy=1.1 * sol.dirichlet_energy)
    assert not wl.check(state, op, (m, quality, scaled)).ok
    interior = next(i for i, (r, z) in enumerate(m.nodes)
                    if m.node_tags[i] == mesh.INTERIOR and z >= 2 * m.z_cut)
    values = sol.values.copy()
    values[interior] *= 1.1
    assert not wl.check(state, op, (m, quality, dataclasses.replace(sol, values=values))).ok


@pytest.fixture(scope="module")
def fem_state():
    # a coarser mesh than the workload's keeps the test quick; the checks do
    # not depend on the mesh size
    wl = workloads.FemReuse()
    field = cusplab.PotentialField(cusplab.lebesgue_profile())
    cs = mesh.build_cross_section(field, wl.A, wl.B, r_min=1e-4)
    m = mesh.triangulate(cs, n_levels=16, n_stations=64)
    return wl, {"field": field, "mesh": m,
                "n_outer": len(m.nodes_with_tag(mesh.OUTER)),
                "n_inner": len(m.nodes_with_tag(mesh.INNER))}


def test_fem_reuse_check_rejects_corruption(fem_state):
    wl, state = fem_state
    constant, bump, tabulated = first_rounds(wl, 3, 1)[0]
    sol, values = wl.run(state, constant)
    assert wl.check(state, constant, (sol, values)).ok
    scaled = dataclasses.replace(sol, dirichlet_energy=1.1 * sol.dirichlet_energy)
    assert not wl.check(state, constant, (scaled, values)).ok
    alpha, beta = constant[1]
    shifted = [values[0] + 0.05 * abs(beta - alpha)] + values[1:]
    assert not wl.check(state, constant, (sol, shifted)).ok
    for op in (bump, tabulated):
        sol, values = wl.run(state, op)
        assert wl.check(state, op, (sol, values)).ok
        hi = max(sol.boundary_values.values())
        assert not wl.check(state, op, (sol, [hi + 1e-3] + values[1:])).ok
        raised = sol.values.copy()
        raised[np.argmax(raised)] = hi + 1e-3
        assert not wl.check(state, op, (dataclasses.replace(sol, values=raised), values)).ok


def test_wos_probe_check_rejects_corruption():
    wl = workloads.WORKLOADS["wos-probe"]
    state = wl.setup()
    bulk = wl.WARMUP
    est = wl.run(state, bulk)
    assert wl.check(state, bulk, est).ok
    off = dataclasses.replace(est, mean=est.mean + 10 * est.stderr)
    assert not wl.check(state, bulk, off).ok
    tip = ("tip", (1.5, 0.32), "constant", 1000, 7)
    est = wl.run(state, tip)
    assert wl.check(state, tip, est).ok
    assert not wl.check(state, tip, dataclasses.replace(est, mean=1.1 * 1.5)).ok
    bump = ("tip", (1.5, 0.32), "bump", 1000, 7)
    est = wl.run(state, bump)
    assert wl.check(state, bump, est).ok
    assert not wl.check(state, bump, dataclasses.replace(est, mean=-0.01)).ok


def test_quad_contour_check_rejects_corruption():
    wl = workloads.WORKLOADS["quad-contour"]
    state = wl.setup()
    for op in ((2.0, 0.6, 0.5), (0.5, 0.4, 0.3)):
        r = wl.run(state, op)
        assert wl.check(state, op, r).ok
        assert not wl.check(state, op, 1.1 * r).ok
        assert not wl.check(state, op, r * (1 + 1e-6)).ok


# -- tracing -----------------------------------------------------------------

def attribute_snapshot():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "cusplab" or name.startswith("cusplab."):
            out[name] = dict(vars(module))
    for cls in (cusplab.PotentialField, cusplab.DensityProfile, fem.SolutionField):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_tracer_wraps_every_lookup_and_restores_it():
    importlib.import_module("cusplab.cli")        # a module with its own imports
    before = attribute_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        targets = {(getattr(o, "__name__", o), a) for o, a in tracer.patched_targets()}
        for module in ("cusplab.contour", "cusplab.mesh", "cusplab.probe",
                       "cusplab.wiener", "cusplab"):
            assert (module, "log_radius_at") in targets
        assert ("cusplab.cli", "trace_contour") in targets
        assert ("PotentialField", "value") in targets
        assert ("DensityProfile", "__call__") in targets
        wl = workloads.WORKLOADS["mesh-solve"]
        state = wl.setup()
        tracer.op_id, tracer.active = 0, True
        wl.run(state, wl.WARMUP)
        tracer.active = False
    finally:
        tracer.remove()
    assert attribute_snapshot() == before
    assert tracer.patched_targets() == []

    sp = tracer.spans()
    names = [tracer.names[i] for i in sp["name"]]
    assert names[0] == "mesh.build_cross_section" and sp["parent"][0] == -1
    # every root under triangulate is a child (at some depth) of its span
    tri = names.index("mesh.triangulate")
    roots = np.array([n == "contour.log_radius_at" for n in names])
    under = spans.inside(sp["parent"], np.arange(len(names)) == tri)
    assert under[roots].sum() > 1000
    assert np.all(sp["end"] >= sp["start"])
    assert np.all(spans.self_times(sp["parent"], sp["end"] - sp["start"]) >= -1e-9)


def test_self_times_subtract_direct_children():
    parent = np.array([-1, 0, 1, 0, -1])
    duration = np.array([10.0, 4.0, 1.0, 2.0, 3.0])
    assert spans.self_times(parent, duration).tolist() == [4.0, 3.0, 1.0, 2.0, 3.0]
    assert spans.inside(parent, np.array([False, True, False, False, False])).tolist() == \
        [False, False, True, False, False]


# -- the command ---------------------------------------------------------------

def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    out = run_bench("--workload", "quad-contour", "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("--workload", "mesh-solve", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
