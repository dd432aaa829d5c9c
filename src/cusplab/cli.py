"""Command-line orchestration: one subcommand per module, JSON config in,
CSV/SVG/JSON artifacts out.

Every run validates its configuration up front (unknown keys rejected),
echoes the effective config next to the artifacts for reproducibility, and
exits 0 on success, 1 on a validation error, 2 on a numerical failure.
Errors go to stderr as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, density, fem, mesh, probe, svgplot, wiener, wos
from .contour import trace_contour, trace_contours
from .errors import CuspLabError, InputError
from .potential import PotentialField

OUTDIR_ENV = "CUSPLAB_OUTDIR"

# configuration schema: allowed keys per subcommand (unknown keys rejected)
_COMMON_KEYS = {"density", "output_dir", "seed"}
_SCHEMA = {
    "potential-grid": _COMMON_KEYS | {"r_range", "z_range", "n_r", "n_z"},
    "contour": _COMMON_KEYS | {"levels", "n_stations", "grading",
                               "highlight"},
    "mesh": _COMMON_KEYS | {"levels", "r_min", "n_levels", "n_stations"},
    "solve": _COMMON_KEYS | {"levels", "r_min", "n_levels", "n_stations",
                             "data", "tol"},
    "probe": _COMMON_KEYS | {"levels", "data", "probe_levels", "n_stations",
                             "start", "source", "walks", "eps", "r_min"},
    "wiener": _COMMON_KEYS | {"profile", "level", "q", "j_start", "j_stop"},
    "wos": _COMMON_KEYS | {"levels", "r_min", "data", "points", "walks",
                           "eps"},
    "reproduce-figures": _COMMON_KEYS | {"levels"},
}

_DEFAULTS = {
    "density": {"kind": "lebesgue"},
    "seed": 0,
    "levels": [0.5, 2.0],
    "data": {"outer": {"constant": 0.5}, "inner": {"constant": 2.0}},
}


def validate_config(cmd, cfg):
    allowed = _SCHEMA[cmd]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise InputError(f"unknown config keys for {cmd!r}: {unknown} "
                         f"(allowed: {sorted(allowed)})")
    merged = {k: v for k, v in _DEFAULTS.items() if k in allowed}
    merged.update(cfg)
    return merged


def _build_density(spec):
    kind = spec.get("kind", "lebesgue")
    if kind == "lebesgue":
        return density.lebesgue_profile()
    if kind == "power":
        return density.power_profile(float(spec["p"]),
                                     length=float(spec.get("L", 1.0)))
    if kind == "tabulated":
        return density.tabulated_profile(spec["samples"])
    raise InputError(f"unknown density kind {kind!r}")


def _build_datum(spec):
    if "constant" in spec:
        return fem.ConstantData(float(spec["constant"]))
    if "bump" in spec:
        b = spec["bump"]
        return fem.BumpData(float(b["center"]), float(b["width"]),
                            float(b["amplitude"]))
    if "tabulated" in spec:
        return fem.TabulatedData(tuple(float(v) for v in spec["tabulated"]))
    raise InputError(f"datum spec needs constant/bump/tabulated: {spec}")


def _build_data(spec):
    cap = _build_datum(spec["cap"]) if "cap" in spec else None
    return fem.BoundaryData(_build_datum(spec["outer"]),
                            _build_datum(spec["inner"]), cap)


def _outdir(cfg):
    out = cfg.get("output_dir") or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(cmd, cfg, out):
    path = os.path.join(out, f"{cmd.replace('-', '_')}_config.json")
    with open(path, "w") as fh:
        json.dump({"subcommand": cmd, **cfg}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_potential_grid(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    r0, r1 = cfg.get("r_range", [0.01, 1.5])
    z0, z1 = cfg.get("z_range", [-0.6, 2.0])
    n_r, n_z = int(cfg.get("n_r", 60)), int(cfg.get("n_z", 80))
    rows = []
    for z in np.linspace(z0, z1, n_z):
        for r in np.linspace(r0, r1, n_r):
            rows.append((float(r), float(z), field.value(r, z)))
    _write_csv(os.path.join(out, "potential_grid.csv"), "r,z,V", rows)
    _echo_config("potential-grid", cfg, out)
    return {"file": "potential_grid.csv", "points": len(rows), "pass": True}


def cmd_contour(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    levels = [float(c) for c in cfg.get("levels", [0.5, 2.0])]
    n = int(cfg.get("n_stations", 96))
    grading = cfg.get("grading", "blended")
    curves = trace_contours(field, levels, n=n, grading=grading)
    max_res = max([0.0] + [curve.max_residual() for curve in curves])
    rows = [(curve.level, float(z), float(r))
            for curve in curves for z, r in curve.samples]
    _write_csv(os.path.join(out, "contours.csv"), "level,z,r", rows)
    highlight = cfg.get("highlight", [0.5, 2.0])
    svgplot.contour_map_svg(curves, highlight,
                            os.path.join(out, "contour_map.svg"))
    _echo_config("contour", cfg, out)
    return {"file": "contours.csv", "max_residual": max_res,
            "pass": max_res <= 1e-10}


def _cross_section(cfg, field):
    A, B = (float(v) for v in cfg.get("levels", [0.5, 2.0]))
    r_min = cfg.get("r_min")
    return mesh.build_cross_section(field, A, B,
                                    r_min=None if r_min is None else float(r_min))


def cmd_mesh(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    cs = _cross_section(cfg, field)
    m = mesh.triangulate(cs, n_levels=int(cfg.get("n_levels", 8)),
                         n_stations=int(cfg.get("n_stations", 32)))
    q = mesh.mesh_quality(m)
    _write_csv(os.path.join(out, "nodes.csv"), "id,r,z,tag",
               [(i, p[0], p[1], m.node_tags[i])
                for i, p in enumerate(m.nodes)])
    _write_csv(os.path.join(out, "tris.csv"), "id,n0,n1,n2",
               [(i, *map(int, t)) for i, t in enumerate(m.triangles)])
    svgplot.mesh_wireframe_svg(m, os.path.join(out, "mesh.svg"))
    _echo_config("mesh", cfg, out)
    return {"nodes": len(m.nodes), "triangles": len(m.triangles),
            "min_angle": q.min_angle, "euler": q.euler_characteristic,
            "z_cut": m.z_cut, "pass": q.passes()}


def cmd_solve(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    cs = _cross_section(cfg, field)
    m = mesh.triangulate(cs, n_levels=int(cfg.get("n_levels", 8)),
                         n_stations=int(cfg.get("n_stations", 32)))
    data = _build_data(cfg["data"])
    sol = fem.solve_dirichlet(m, data, tol=float(cfg.get("tol", 1e-10)))
    _write_csv(os.path.join(out, "solution.csv"), "id,r,z,value",
               [(i, p[0], p[1], float(sol.values[i]))
                for i, p in enumerate(m.nodes)])
    lo, hi = sol.max_principle_margins()
    report = {"energy": sol.dirichlet_energy, "residual": sol.residual,
              "max_principle_margins": [lo, hi],
              "pass": lo >= -1e-8 and hi >= -1e-8}
    with open(os.path.join(out, "solve_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config("solve", cfg, out)
    return report


def cmd_probe(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    A, B = (float(v) for v in cfg.get("levels", [0.5, 2.0]))
    data_spec = cfg["data"]
    source = cfg.get("source", "oracle")
    if source == "oracle" and not ("constant" in data_spec["outer"]
                                   and "constant" in data_spec["inner"]):
        raise InputError("the oracle source is exact only for data constant "
                         "per boundary component")
    alpha = float(data_spec["outer"].get("constant", 0.0))
    beta = float(data_spec["inner"].get("constant", 0.0))
    probe_levels = cfg.get("probe_levels", [1.05, 1.25, 1.5, 1.75, 1.95])
    n_st = int(cfg.get("n_stations", 10))
    start = float(cfg.get("start", 0.2))
    kwargs = {}
    if source == "wos":
        kwargs = dict(cross_section=_cross_section(cfg, field),
                      data=_build_data(data_spec),
                      walks=int(cfg.get("walks", 10000)),
                      eps=float(cfg.get("eps", 1e-4)),
                      seed=int(cfg.get("seed", 0)))
    paths, rows = [], []
    specs = [("level-curve", c) for c in probe_levels] + [("axis-below",)]
    for pid, spec in enumerate(specs):
        p = probe.sample_path(source, field, A, B, alpha, beta, spec,
                              n_stations=n_st, start=start, **kwargs)
        paths.append(p)
        for k in range(len(p.values)):
            err = p.stderrs[k] if p.stderrs is not None else 0.0
            rows.append((pid, k, float(p.stations[k, 0]),
                         float(p.stations[k, 1]), float(p.values[k]),
                         float(err)))
    _write_csv(os.path.join(out, "probe.csv"),
               "path,station,r,z,value,stderr", rows)
    est = probe.limit_set_estimate(paths, datum_at_tip=beta)
    verdict = {"limit_lo": est.lo, "limit_hi": est.hi,
               "classification": est.classification, "pass": True}
    with open(os.path.join(out, "probe_verdict.json"), "w") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config("probe", cfg, out)
    return verdict


def cmd_wiener(cfg):
    out = _outdir(cfg)
    q = float(cfg.get("q", 0.5))
    j0, j1 = int(cfg.get("j_start", 2)), int(cfg.get("j_stop", 64))
    name = cfg.get("profile", "z^-logz")
    if name == "rod-contour":
        field = PotentialField(_build_density(cfg["density"]))
        prof = wiener.lebesgue_contour_profile(field,
                                               float(cfg.get("level", 2.0)))
    else:
        prof = wiener.named_profile(name)
    rep = wiener.analyze(prof, q, j_start=j0, j_stop=j1)
    report = {"profile": rep.profile_name, "q": rep.q,
              "j_start": rep.j_start,
              "classification": rep.classification,
              "terms": [float(t) for t in rep.terms],
              "partial_sums": [float(s) for s in rep.partial_sums],
              "fit": {"power_exponent": rep.fit.power_exponent,
                      "geometric_ratio": rep.fit.geometric_ratio,
                      "floor_ratio": rep.fit.floor_ratio,
                      "notes": rep.fit.notes},
              "pass": rep.classification != "inconclusive"}
    with open(os.path.join(out, "wiener_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_config("wiener", cfg, out)
    return report


def cmd_wos(cfg):
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    cs = _cross_section(cfg, field)
    data = _build_data(cfg["data"])
    walks = int(cfg.get("walks", 10000))
    eps = float(cfg.get("eps", 1e-4))
    seed = int(cfg.get("seed", 0))
    rows = []
    for k, pt in enumerate(cfg.get("points", [[0.5, 0.0, 0.5]])):
        est = wos.estimate(cs, data, tuple(pt), walks=walks, eps=eps,
                           seed=seed + k)
        rows.append((f"({pt[0]};{pt[1]};{pt[2]})", est.mean, est.stderr,
                     est.walks))
    _write_csv(os.path.join(out, "wos.csv"), "point,mean,stderr,walks", rows)
    _echo_config("wos", cfg, out)
    return {"file": "wos.csv", "points": len(rows), "pass": True}


def cmd_reproduce_figures(cfg):
    """Regenerate the data behind the three figures: the potential surface
    grid, the meridian contour map, and the cut-open 3D point cloud of the
    two boundary surfaces."""
    out = _outdir(cfg)
    field = PotentialField(_build_density(cfg["density"]))
    A, B = (float(v) for v in cfg.get("levels", [0.5, 2.0]))

    grid_report = cmd_potential_grid({**{k: cfg[k] for k in cfg
                                         if k in _SCHEMA["potential-grid"]},
                                      "output_dir": out})

    levels = sorted(set([A, 0.65, 0.8, 0.95, 1.1, 1.3, 1.5, 1.7, B]))
    contour_report = cmd_contour({"density": cfg["density"],
                                  "levels": levels, "highlight": [A, B],
                                  "n_stations": 128, "output_dir": out})

    # cut-open surfaces of revolution: the outer surface misses a wedge so
    # the inner cusp is visible
    rows = []
    for name, level, th_lo in (("outer", A, math.pi / 3), ("inner", B, 0.0)):
        curve = trace_contour(field, level, n=96, grading="blended")
        thetas = np.linspace(th_lo, 2.0 * math.pi, 40)
        for z, r in curve.samples:
            for th in thetas:
                rows.append((name, float(r * math.cos(th)),
                             float(r * math.sin(th)), float(z)))
    _write_csv(os.path.join(out, "domain_cloud.csv"), "surface,x,y,z", rows)
    _echo_config("reproduce-figures", cfg, out)
    return {"grid": grid_report, "contours": contour_report,
            "cloud_points": len(rows),
            "pass": grid_report["pass"] and contour_report["pass"]}


_COMMANDS = {
    "potential-grid": cmd_potential_grid,
    "contour": cmd_contour,
    "mesh": cmd_mesh,
    "solve": cmd_solve,
    "probe": cmd_probe,
    "wiener": cmd_wiener,
    "wos": cmd_wos,
    "reproduce-figures": cmd_reproduce_figures,
}


def run(cmd, cfg):
    """Validate and execute one subcommand; returns its report dict."""
    cfg = validate_config(cmd, cfg)
    return _COMMANDS[cmd](cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description="rod-potential domain laboratory: contours, meshes, "
                    "Dirichlet solvers and boundary-behaviour probes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=JSON",
                       help="override a config key with a JSON value")
        p.add_argument("--output-dir", help="artifact directory "
                       f"(default ${OUTDIR_ENV} or '.')")
    args = parser.parse_args(argv)

    cfg = {}
    try:
        if args.config:
            with open(args.config) as fh:
                cfg.update(json.load(fh))
        for item in args.set:
            key, _, raw = item.partition("=")
            if not _:
                raise InputError(f"--set needs KEY=JSON, got {item!r}")
            cfg[key] = json.loads(raw)
        if args.output_dir:
            cfg["output_dir"] = args.output_dir
        report = run(args.command, cfg)
    except (InputError, json.JSONDecodeError, FileNotFoundError, KeyError) as e:
        sys.stderr.write(json.dumps(
            {"error": "validation", "detail": str(e)}) + "\n")
        return 1
    except CuspLabError as e:
        sys.stderr.write(json.dumps(
            {"error": "numerical", "detail": str(e)}) + "\n")
        return 2
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True,
                                default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
