#!/usr/bin/env python3
"""cusplab benchmark: one seeded workload per run, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload draws a fixed list of ops from the seed (a *pass*).  With
``--trace 0`` the run sets the workload up several times, runs the pass
again and again until ``--seconds`` is spent, checks every op's output and
reports the end-to-end metrics from each op's median time over the passes.
Every time is first scaled by a gauge of the machine's speed read around
it, because the speed of a shared machine drifts (see README.md).  With
``--trace 1`` it runs the passes for half the time untraced, runs as many
passes again with spans recorded around every layer entry point (see
``spans.py``), and reports the per-layer metrics and the tracing overhead.  Every line but the last is
for people; the last is one JSON object.  Each run is also appended to
``.bench_out/results.jsonl`` together with the environment it ran in; the
spans of the last traced run of a workload go to
``.bench_out/spans-<workload>.npz``.

Run it from the repository root; it imports cusplab from ``src/``.
"""

import argparse
import functools
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
# cusplab's dependencies are imported before set-up is timed: loading them
# takes 0.6-1.0 s on a shared 2-core box, varies more than cusplab's whole
# set-up on three workloads, and is not cusplab's own work.  A dependency
# cusplab starts to import later is not in this list, so it is timed.
DEPENDENCIES = ("numpy", "scipy.integrate", "scipy.sparse", "scipy.sparse.linalg",
                "scipy.spatial")
MC_TARGET_STDERR = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed):
    """Commit, seed, machine and library versions recorded with every result."""
    import numpy
    import scipy

    sources = sorted((SRC / "cusplab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"commit": git_commit(), "source_sha256": digest.hexdigest()[:16],
            "seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository (the source digest still identifies the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def python_loop_ms():
    """Time of a fixed pure-Python loop, in ms: how fast the interpreter
    runs at the moment.  It runs no cusplab code."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    return 1e3 * (time.perf_counter() - t)


@functools.cache
def _gauge_tree():
    import numpy as np
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(0)
    return cKDTree(rng.random((20_000, 2))), rng.random((4_000, 2))


def kdtree_query_ms():
    """Time of fixed nearest-point queries on a fixed KD-tree, in ms: how
    fast threaded numeric code runs at the moment.  It queries with
    ``workers=-1`` as ``wos.estimate`` does, so it slows down as much when
    another process takes a core.  It runs no cusplab code."""
    tree, queries = _gauge_tree()
    t = time.perf_counter()
    for _ in range(12):
        tree.query(queries, workers=-1)
    return 1e3 * (time.perf_counter() - t)


# each gauge, by the name a workload gives as its GAUGE, with what it reads
# on the 2-vCPU box the benchmark was written on
GAUGES = {"python": (python_loop_ms, 8.0), "kdtree": (kdtree_query_ms, 47.0)}


def slowness(gauge):
    """The named gauge's reading over its reference reading: 1 at the speed
    of the reference box, 2 at half that speed."""
    read_ms, ref_ms = GAUGES[gauge]
    return read_ms() / ref_ms


def gauged(fn, gauges):
    """Call fn() between two readings of each named gauge.  Returns (fn's
    result, its seconds, {gauge: mean slowness of its two readings})."""
    before = {g: slowness(g) for g in gauges}
    t = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t
    return result, seconds, {g: 0.5 * (before[g] + slowness(g)) for g in gauges}


def scaled(seconds, slow, exponent):
    """Seconds at the reference speed (slowness 1), for work whose time
    grows as the slowness to the power ``exponent``; unchanged when there is
    no gauge reading."""
    return seconds if slow is None else seconds / slow ** exponent


def import_cusplab():
    """Import cusplab afresh, dropping any earlier import.  Returns
    (seconds, slowness by gauge), read on every gauge, because the workload
    and so its gauge are known only once cusplab is imported."""
    for name in [n for n in sys.modules if n == "cusplab" or n.startswith("cusplab.")]:
        del sys.modules[name]
    _, seconds, slow = gauged(lambda: importlib.import_module("cusplab"), GAUGES)
    return seconds, slow


def set_up(wl):
    """Build the workload's shared state and run one warm-up op.  Returns
    the state, the seconds this took, the slowness by gauge around it and
    the warm-up op's record."""
    def build():
        state = wl.setup()
        return state, wl.run(state, wl.WARMUP)

    (state, warm), seconds, slow = gauged(build, (wl.GAUGE,))
    record = {"op": wl.WARMUP, "error": None, "outcome": wl.check(state, wl.WARMUP, warm)}
    return state, seconds, slow, record


def run_pass(wl, state, ops, tracer=None, first_id=0, gauge=None):
    """Run every op once, closed loop, and check its output afterwards.
    With a ``gauge`` name, that gauge is read before the first op and after
    each op, and each record holds the mean slowness around its op.
    Returns one record per op."""
    from cusplab.errors import CuspLabError

    records = []
    before = slowness(gauge) if gauge else None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id, tracer.active = first_id + i, True
        start = time.perf_counter()
        try:
            result, error = wl.run(state, op), None
        except CuspLabError as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        after = slowness(gauge) if gauge else None
        outcome = wl.check(state, op, result) if error is None else None
        records.append({"op": op, "latency": latency, "error": error, "outcome": outcome,
                        "gauge": 0.5 * (before + after) if gauge else None})
        before = after
    return records


def more_passes(passes, elapsed_s, budget_s):
    """True until one pass has run, then while the passes so far predict
    that one more pass ends the run nearer the budget than stopping now."""
    n = len(passes)
    if n == 0:
        return True
    pass_s = sum(rec["latency"] for p in passes for rec in p) / n
    return elapsed_s + pass_s / 2 < budget_s


def measure(wl, ops, budget_s):
    """The untraced run: SETUP_REPEATS set-ups, each followed by a pass of
    the ops while ``more_passes`` allows, then further passes on the last
    state.
    Spreading the set-ups over the run keeps one slow spell of the machine
    from slowing all of them.  Returns (last state, set-ups as (seconds,
    slowness by gauge), warm-up records, passes)."""
    setups, warmups, passes = [], [], []
    t0 = time.perf_counter()
    while True:
        if len(setups) < SETUP_REPEATS:
            state, seconds, slow, warm = set_up(wl)
            setups.append((seconds, slow))
            warmups.append(warm)
        if more_passes(passes, time.perf_counter() - t0, budget_s):
            passes.append(run_pass(wl, state, ops, gauge=wl.GAUGE))
        elif len(setups) == SETUP_REPEATS:
            return state, setups, warmups, passes


def run_passes(wl, state, ops, budget_s=None, passes=None, tracer=None):
    """Run the op list again and again on one state: while ``more_passes``
    allows within the budget, or exactly ``passes`` times.  Returns one list
    of op records per pass."""
    done = []
    t0 = time.perf_counter()
    while (len(done) < passes if passes is not None
           else more_passes(done, time.perf_counter() - t0, budget_s)):
        done.append(run_pass(wl, state, ops, tracer, first_id=len(done) * len(ops)))
    return done


def op_seconds(passes, exponent):
    """Each op's time: the median over the passes of its seconds, scaled by
    the slowness read around it with the given exponent (0: unscaled)."""
    return [statistics.median(scaled(p[i]["latency"], p[i]["gauge"], exponent)
                              for p in passes)
            for i in range(len(passes[0]))]


def summarize(records):
    """attempted, failed (raised or failed the check) and their details."""
    failures = []
    for rec in records:
        if rec["error"] is not None:
            failures.append(f"{rec['op']}: raised {rec['error']}")
        elif not rec["outcome"].ok:
            failures.append(f"{rec['op']}: check failed, {rec['outcome'].detail}")
    return len(records), failures


def end_to_end(passes, setup_s, exponent):
    times = op_seconds(passes, exponent)
    good = [rec for rec in passes[0] if rec["error"] is None]
    errs = [rec["outcome"].rel_err for rec in good if rec["outcome"].rel_err is not None]
    costs = [t * (rec["outcome"].stderr / MC_TARGET_STDERR) ** 2
             for t, rec in zip(times, passes[0])
             if rec["error"] is None and rec["outcome"].stderr is not None]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"latency_max_ms": (1e3 * max(times), "ms"),
            "ops": (len(times), f"count, {len(passes)} passes"),
            "max_rel_err": (max(errs) if errs else float("nan"), "1")}
    if costs:
        info["mc_cost_s"] = (statistics.median(costs), "s")
    return metrics, info


def per_layer(tracer, records, untraced_s, traced_s, n_pass):
    """Per-op medians of the per-layer metrics from the recorded spans."""
    import numpy as np

    from spans import LAYERS, inside, self_times

    sp = tracer.spans()
    n_ops = len(records)
    layer = np.asarray(tracer.layer_of, dtype=np.int64)[sp["name"]]
    duration = sp["end"] - sp["start"]
    own = self_times(sp["parent"], duration)
    key = sp["op"] * len(LAYERS) + layer
    size = n_ops * len(LAYERS)
    calls = np.bincount(key, minlength=size).reshape(n_ops, len(LAYERS))
    self_ms = 1e3 * np.bincount(key, weights=own, minlength=size).reshape(n_ops, len(LAYERS))

    def med(values):
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def named(name):
        return sp["name"] == tracer.names.index(name)

    out = {}
    for j, lay in enumerate(LAYERS):
        out[f"{lay}.calls"] = (med(calls[:, j]), "count")
        out[f"{lay}.self_ms"] = (med(self_ms[:, j]), "ms")
    pot = LAYERS.index("potential")
    out["potential.us_per_call"] = (
        med(1e3 * self_ms[i, pot] / calls[i, pot] for i in range(n_ops) if calls[i, pot]), "us")
    roots = named("contour.log_radius_at")
    in_root = (layer == pot) & inside(sp["parent"], roots)
    per_root = [np.sum(in_root & (sp["op"] == i)) / np.sum(roots & (sp["op"] == i))
                for i in range(n_ops) if np.any(roots & (sp["op"] == i))]
    out["contour.values_per_root"] = (med(per_root), "count")

    counters = [rec["outcome"].counters for rec in records if rec["outcome"] is not None]
    out["mesh.triangles"] = (med(c["triangles"] for c in counters if "triangles" in c), "count")
    quality = [c["quality_failures"] for c in counters if "quality_failures" in c]
    out["mesh.quality_failures"] = (sum(quality) / len(quality) if quality else 0.0, "ratio")
    out["fem.assemble_ms"] = (med(1e3 * duration[named("fem.assemble")]), "ms")
    out["fem.cg_iterations"] = (
        med(c["cg_iterations"] for c in counters if "cg_iterations" in c), "count")
    out["fem.locate_ms"] = (med(1e3 * duration[named("fem.SolutionField.__call__")]), "ms")
    est = named("wos.estimate")
    wos_s = np.bincount(sp["op"][est], weights=duration[est], minlength=n_ops)
    walked = [(rec["outcome"].counters, wos_s[i]) for i, rec in enumerate(records)
              if rec["outcome"] is not None and "walks" in rec["outcome"].counters]
    out["wos.walks_per_s"] = (med(c["walks"] / s for c, s in walked), "1/s")
    discarded = sum(c["discarded"] for c, _ in walked)
    requested = sum(c["walks"] for c, _ in walked) + discarded
    out["wos.discarded_ratio"] = (discarded / requested if requested else 0.0, "ratio")
    out["trace.ops_per_s_untraced"] = (n_pass / untraced_s, "1/s")
    out["trace.ops_per_s_traced"] = (n_pass / traced_s, "1/s")
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    out["trace.spans_per_op"] = (len(duration) / n_ops, "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cusplab" / "__init__.py").is_file():
        print(f"error: no cusplab sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in DEPENDENCIES:
        importlib.import_module(name)
    imports = [import_cusplab() for _ in range(1 if args.trace else SETUP_REPEATS)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"# workload {wl.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, one caller")
    print("# env " + json.dumps(env, sort_keys=True))

    ops = workloads.pass_ops(wl, args.seed)
    info, layer = {}, {}
    if args.trace:
        import spans
        state, _, _, warmup = set_up(wl)
        warmups = [warmup]
        passes = run_passes(wl, state, ops, budget_s=args.seconds / 2)
        untraced_s = sum(op_seconds(passes, 0.0))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, state, ops, passes=len(passes), tracer=tracer)
        finally:
            tracer.remove()
        flat = [rec for p in traced for rec in p]
        layer = per_layer(tracer, flat, untraced_s, sum(op_seconds(traced, 0.0)), len(ops))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{wl.name}.npz", [rec["op"] for rec in flat])
        records = [rec for p in passes for rec in p] + flat
    else:
        state, setups, warmups, passes = measure(wl, ops, args.seconds)
        records = [rec for p in passes for rec in p]
    attempted, failures = summarize(warmups + records)
    for line in failures[:20]:
        print("# failed " + line)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        # set-up: the median import of cusplab plus the median set-up, each
        # scaled by the workload's gauge read around it, as its ops are
        def setup_seconds(exponent):
            return sum(statistics.median(scaled(t, slow[wl.GAUGE], exponent)
                                         for t, slow in runs)
                       for runs in (imports, setups))

        exponent = wl.GAUGE_EXPONENT
        values, info = end_to_end(passes, setup_seconds(exponent), exponent)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        raw, _ = end_to_end(passes, setup_seconds(0.0), 0.0)
        for k in ("setup_s", "ops_per_s", "latency_p50_ms"):
            info[k + "_unscaled"] = (raw[k], dict(END_TO_END)[k])
        readings = [GAUGES[wl.GAUGE][1] * rec["gauge"] for rec in records]
        info["machine_gauge_ms"] = (statistics.median(readings),
                                    f"ms, {wl.GAUGE} gauge, median over {len(readings)} ops")
        info["failed_ratio"] = (len(failures) / attempted, f"of {attempted} ops")
        info["setup_runs_s"] = ([t for t, _ in setups], "s")
        info["import_runs_s"] = ([t for t, _ in imports], "s")
    if hasattr(wl, "defect_probe"):
        info["known_defect_tabulated_quadrature"] = (
            wl.defect_probe(state, args.seed) or "fixed", "")
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    for k, (v, u) in info.items():
        shown = f"{v:.6g}" if isinstance(v, float) and math.isfinite(v) else v
        print(f"info {k} = {shown} {u}".rstrip())

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": wl.name, "seconds": args.seconds,
                             "trace": args.trace, "env": env, "result": result,
                             "info": info}, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
