"""Command-line orchestration: one subcommand per module, JSON config in,
CSV/SVG/JSON artifacts out.

_SCHEMA declares each subcommand's keys and their defaults once.  run() is
the one frame every subcommand goes through: it lays the given keys over
the defaults (unknown keys rejected), resolves the output directory, runs
the subcommand there and, when it succeeds, echoes the effective config
next to the artifacts as <cmd>_config.json.  The echo lists every key with
the value the run used, so passing it back with --config reruns the run.
Exit codes: 0 on success, 1 on a validation error, 2 on a numerical
failure.  Errors go to stderr as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__, boundary, density, fem, mesh, probe, svgplot, wiener, wos
from .contour import trace_contour, trace_contours
from .errors import CuspLabError, InputError
from .potential import PotentialField

OUTDIR_ENV = "CUSPLAB_OUTDIR"

# every subcommand's keys and their defaults.  Each subcommand also takes
# output_dir (default $CUSPLAB_OUTDIR, then '.') and subcommand, which an
# echoed config carries and which must name the command being run
_DENSITY = {"kind": "lebesgue"}
_DATA = {"outer": {"constant": 0.5}, "inner": {"constant": 2.0}}
_SECTION = {"density": _DENSITY, "levels": [0.5, 2.0], "r_min": None}
_SCHEMA = {
    "potential-grid": {"density": _DENSITY, "r_range": [0.01, 1.5],
                       "z_range": [-0.6, 2.0], "n_r": 60, "n_z": 80},
    "contour": {"density": _DENSITY, "levels": [0.5, 2.0], "n_stations": 96,
                "grading": "blended", "highlight": [0.5, 2.0]},
    "mesh": {**_SECTION, "n_levels": 8, "n_stations": 32},
    "solve": {**_SECTION, "n_levels": 8, "n_stations": 32, "data": _DATA,
              "tol": 1e-10},
    "probe": {**_SECTION, "data": _DATA,
              "probe_levels": [1.05, 1.25, 1.5, 1.75, 1.95],
              "n_stations": 10, "start": 0.2, "source": "oracle",
              "walks": 10000, "eps": 1e-4, "seed": 0},
    "wiener": {"density": _DENSITY, "profile": "z^-logz", "level": 2.0,
               "q": 0.5, "j_start": 2, "j_stop": 64},
    "wos": {**_SECTION, "data": _DATA, "points": [[0.5, 0.0, 0.5]],
            "walks": 10000, "eps": 1e-4, "seed": 0},
    "reproduce-figures": {"density": _DENSITY, "levels": [0.5, 2.0]},
}


# the JSON type a key with a null default takes when it is given a value
_NULLABLE = {"r_min": "number", "output_dir": "string"}
# the probe sources a config can name: the FEM one needs a solution object
_SOURCES = ("oracle", "wos")
# keys read as a pair (lo, hi); contour's levels are any number of levels
_PAIRS = ("levels", "r_range", "z_range")
# lists whose entries a run reports on one by one (contour's levels, wos's
# start points): an empty one would make a run with nothing to report
_RUN_LISTS = ("levels", "points")
# the keys nested in density and data objects, each with a value of its type
_NESTED = {"p": 0.5, "L": 1.0, "samples": [[0.0, 0.0]], "outer": {},
           "inner": {}, "cap": {}, "constant": 0.5, "bump": {}, "center": 0.5,
           "width": 0.5, "amplitude": 0.5, "tabulated": [0.5]}


def _json_type(value):
    """The JSON type name of a config value; a bool is not a number."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, numbers.Real):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "array"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _numbers(value, n=None):
    """True for a JSON array of numbers, of n of them if n is given."""
    return (_json_type(value) == "array" and len(value) == (n or len(value))
            and all(_json_type(v) == "number" for v in value))


def _check_type(cmd, key, value, default):
    """InputError unless value has the JSON type of its default: a number
    for a number, a finite integral one for an integer, null or the
    _NULLABLE type for null, numbers only in an array whose default holds
    numbers, two of them for a pair, and arrays of as many numbers as the
    default's in an array of such arrays."""
    got = _json_type(value)
    allowed = ["null", _NULLABLE[key]] if default is None else [_json_type(default)]
    if got not in allowed:
        raise InputError(f"config key {key!r} must be a JSON "
                         f"{' or '.join(allowed)}, got {got} {value!r}")
    if (got == "number" and isinstance(default, int)
            and not (isinstance(value, numbers.Integral)
                     or float(value).is_integer())):
        raise InputError(f"config key {key!r} must be a finite integer, "
                         f"got {value!r}")
    if got == "array" and _numbers(default):
        n = 2 if key in _PAIRS and (cmd, key) != ("contour", "levels") else None
        if not _numbers(value, n):
            raise InputError(f"config key {key!r} must hold "
                             f"{'two numbers' if n else 'numbers'}, got {value!r}")
    elif got == "array" and _numbers(default[0]):
        n = len(default[0])
        if not all(_numbers(v, n) for v in value):
            raise InputError(f"config key {key!r} must hold arrays of {n} "
                             f"numbers, got {value!r}")


def _entry(spec, key, name):
    """spec[name], checked against the type of _NESTED[name] by _check_type,
    whose InputError names the key path key.name (a missing key reads null)."""
    _check_type(None, f"{key}.{name}", spec.get(name), _NESTED[name])
    return spec.get(name)


def validate_config(cmd, cfg):
    """A fresh copy of cmd's defaults with the keys of cfg laid over them,
    output_dir included (None when not given).  Each given value must have
    its default's JSON type (see _check_type), and each value nested in the
    density and data objects that of its _NESTED entry."""
    cfg = dict(cfg)
    named = cfg.pop("subcommand", cmd)
    if named != cmd:
        raise InputError(f"config key 'subcommand' names {named!r}, "
                         f"but the command run is {cmd!r}")
    defaults = {**_SCHEMA[cmd], "output_dir": None}
    unknown = sorted(set(cfg) - defaults.keys())
    if unknown:
        raise InputError(f"unknown config keys for {cmd!r}: {unknown} "
                         f"(allowed: {sorted(defaults.keys() | {'subcommand'})})")
    for key, value in cfg.items():
        _check_type(cmd, key, value, defaults[key])
        if key.startswith("n_") and value < 1:
            raise InputError(f"config key {key!r} is a count and must be at "
                             f"least 1, got {value!r}")
        if key in _RUN_LISTS and not value:
            raise InputError(f"config key {key!r} is empty: the run would "
                             "have nothing to report")
    if cfg.get("source", "oracle") not in _SOURCES:
        raise InputError(f"config key 'source' must be one of {list(_SOURCES)}, "
                         f"got {cfg['source']!r}")
    cfg = copy.deepcopy({**defaults, **cfg})
    _field(cfg)                # building the objects checks the nested values
    if "data" in cfg:
        _build_data(cfg["data"])
    return cfg


def _field(cfg):
    """The potential of the config's rod density."""
    spec = cfg["density"]
    kind = spec.get("kind", "lebesgue")
    if kind == "lebesgue":
        rho = density.lebesgue_profile()
    elif kind == "power":
        length = float(_entry(spec, "density", "L")) if "L" in spec else 1.0
        rho = density.power_profile(float(_entry(spec, "density", "p")),
                                    length=length)
    elif kind == "tabulated":
        rho = density.tabulated_profile(_entry(spec, "density", "samples"))
    else:
        raise InputError(f"unknown density kind {kind!r}")
    return PotentialField(rho)


def _build_datum(spec, key):
    if "constant" in spec:
        return boundary.ConstantData(float(_entry(spec, key, "constant")))
    if "bump" in spec:
        b = _entry(spec, key, "bump")
        return boundary.BumpData(*(float(_entry(b, f"{key}.bump", name))
                                   for name in ("center", "width", "amplitude")))
    if "tabulated" in spec:
        values = _entry(spec, key, "tabulated")
        return boundary.TabulatedData(tuple(float(v) for v in values))
    raise InputError(f"config key {key!r} needs constant, bump or tabulated, "
                     f"got {spec!r}")


def _build_data(spec):
    """The boundary data of a config's data object: outer, inner and an
    optional cap datum."""
    datum = lambda name: _build_datum(_entry(spec, "data", name), f"data.{name}")
    return boundary.BoundaryData(datum("outer"), datum("inner"),
                                 datum("cap") if "cap" in spec else None)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, *columns):
    """Write a CSV table from its columns, arrays or sequences of equal
    length, one row per index.  An array is read through .tolist(), so a
    float cell is the repr of a Python float (a numpy float's repr names its
    type); every cell is written with str, which is repr for a float."""
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c)
             for c in columns]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the validated config and the
# output directory and returns its report

def cmd_potential_grid(cfg, out):
    field = _field(cfg)
    # z-major rows through the scalar door, which reads inf on the rod
    zs = np.linspace(*cfg["z_range"], int(cfg["n_z"]))
    rs = np.linspace(*cfg["r_range"], int(cfg["n_r"]))
    z, r = (g.ravel() for g in np.meshgrid(zs, rs, indexing="ij"))
    v = np.fromiter(map(field.value, r, z), float, r.size)
    _write_csv(os.path.join(out, "potential_grid.csv"), "r,z,V", r, z, v)
    return {"file": "potential_grid.csv", "points": r.size, "pass": True}


def cmd_contour(cfg, out):
    field = _field(cfg)
    levels = [float(c) for c in cfg["levels"]]
    curves = trace_contours(field, levels, n=int(cfg["n_stations"]),
                            grading=cfg["grading"])
    max_residuals = [curve.max_residual() for curve in curves]
    max_res = max([0.0] + max_residuals)
    samples = np.concatenate([c.samples for c in curves] or [np.empty((0, 2))])
    _write_csv(os.path.join(out, "contours.csv"), "level,z,r",
               np.repeat(levels, [len(c.samples) for c in curves]), *samples.T)
    svgplot.contour_map_svg(curves, cfg["highlight"], field.density.length,
                            os.path.join(out, "contour_map.svg"))
    return {"file": "contours.csv", "max_residual": max_res,
            "max_residuals": max_residuals, "pass": max_res <= 1e-10}


def _cross_section(cfg, field):
    A, B = (float(v) for v in cfg["levels"])
    r_min = cfg["r_min"]
    return mesh.build_cross_section(field, A, B,
                                    r_min=None if r_min is None else float(r_min))


def _mesh(cfg):
    return mesh.triangulate(_cross_section(cfg, _field(cfg)),
                            n_levels=int(cfg["n_levels"]),
                            n_stations=int(cfg["n_stations"]))


def cmd_mesh(cfg, out):
    m = _mesh(cfg)
    q = mesh.mesh_quality(m)
    _write_csv(os.path.join(out, "nodes.csv"), "id,r,z,tag",
               range(len(m.nodes)), *m.nodes.T, m.node_tags)
    _write_csv(os.path.join(out, "tris.csv"), "id,n0,n1,n2",
               range(len(m.triangles)), *m.triangles.T)
    svgplot.mesh_wireframe_svg(m, os.path.join(out, "mesh.svg"))
    return {"nodes": len(m.nodes), "triangles": len(m.triangles),
            "min_angle": q.min_angle, "euler": q.euler_characteristic,
            "z_cut": m.z_cut, "pass": q.passes()}


def cmd_solve(cfg, out):
    m = _mesh(cfg)
    sol = fem.solve_dirichlet(m, _build_data(cfg["data"]),
                              tol=float(cfg["tol"]))
    _write_csv(os.path.join(out, "solution.csv"), "id,r,z,value",
               range(len(m.nodes)), *m.nodes.T, sol.values)
    lo, hi = sol.max_principle_margins()
    q = mesh.mesh_quality(m)
    report = {"energy": sol.dirichlet_energy, "residual": sol.residual,
              "max_principle_margins": [lo, hi], "min_angle": q.min_angle,
              "n_flipped": q.n_flipped, "quality_pass": q.passes(),
              "pass": lo >= -1e-8 and hi >= -1e-8}
    _write_json(os.path.join(out, "solve_report.json"), report)
    return report


def cmd_probe(cfg, out):
    field = _field(cfg)
    A, B = (float(v) for v in cfg["levels"])
    data_spec = cfg["data"]
    source = cfg["source"]
    if source == "oracle" and not ("constant" in data_spec["outer"]
                                   and "constant" in data_spec["inner"]):
        raise InputError("the oracle source is exact only for data constant "
                         "per boundary component")
    alpha = float(data_spec["outer"].get("constant", 0.0))
    beta = float(data_spec["inner"].get("constant", 0.0))
    data = _build_data(data_spec)
    kwargs = {}
    if source == "wos":
        kwargs = dict(cross_section=_cross_section(cfg, field), data=data,
                      walks=int(cfg["walks"]), eps=float(cfg["eps"]),
                      seed=int(cfg["seed"]))
    n = int(cfg["n_stations"])
    specs = [("level-curve", c) for c in cfg["probe_levels"]] + [("axis-below",)]
    paths = [probe.sample_path(source, field, A, B, alpha, beta, spec,
                               n_stations=n, start=float(cfg["start"]), **kwargs)
             for spec in specs]
    # the tip is the inner arc's end at arc fraction 0; a refused estimate
    # leaves no table behind
    tip = float(data.spec[mesh.INNER](0.0))
    est = probe.limit_set_estimate(paths, datum_at_tip=tip)
    _write_csv(os.path.join(out, "probe.csv"), "path,station,r,z,value,stderr",
               np.repeat(np.arange(len(paths)), n), np.tile(np.arange(n), len(paths)),
               *np.concatenate([p.stations for p in paths]).T,
               np.concatenate([p.values for p in paths]),
               np.concatenate([np.zeros(n) if p.stderrs is None else p.stderrs
                               for p in paths]))
    verdict = {"limit_lo": est.lo, "limit_hi": est.hi,
               "classification": est.classification, "pass": True}
    _write_json(os.path.join(out, "probe_verdict.json"), verdict)
    return verdict


def cmd_wiener(cfg, out):
    name = cfg["profile"]
    if name == "rod-contour":
        prof = wiener.lebesgue_contour_profile(_field(cfg), float(cfg["level"]))
    else:
        prof = wiener.named_profile(name)
    rep = wiener.analyze(prof, float(cfg["q"]), j_start=int(cfg["j_start"]),
                         j_stop=int(cfg["j_stop"]))
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
    _write_json(os.path.join(out, "wiener_report.json"), report)
    return report


def cmd_wos(cfg, out):
    cs = _cross_section(cfg, _field(cfg))
    data = _build_data(cfg["data"])
    for x, y, z in cfg["points"]:
        if not cs.contains(math.hypot(x, y), z):
            raise InputError(f"wos start point [{x}, {y}, {z}] lies outside "
                             "the domain")
    ests = [wos.estimate(cs, data, tuple(pt), walks=int(cfg["walks"]),
                         eps=float(cfg["eps"]), seed=int(cfg["seed"]))
            for pt in cfg["points"]]
    # steps and discarded depend on the config alone, like the estimates
    _write_csv(os.path.join(out, "wos.csv"), "point,mean,stderr,walks,steps,discarded",
               [f"({x};{y};{z})" for x, y, z in cfg["points"]],
               np.array([e.mean for e in ests]), np.array([e.stderr for e in ests]),
               [e.walks for e in ests], [e.steps for e in ests],
               [e.discarded for e in ests])
    return {"file": "wos.csv", "points": len(ests), "pass": True}


def cmd_reproduce_figures(cfg, out):
    """Regenerate the data behind the three figures: the potential surface
    grid, the meridian contour map, and the cut-open 3D point cloud of the
    two boundary surfaces."""
    field = _field(cfg)
    A, B = (float(v) for v in cfg["levels"])
    grid_report = run("potential-grid",
                      {"density": cfg["density"], "output_dir": out})
    levels = sorted(set([A, 0.65, 0.8, 0.95, 1.1, 1.3, 1.5, 1.7, B]))
    contour_report = run("contour", {"density": cfg["density"],
                                     "levels": levels, "highlight": [A, B],
                                     "n_stations": 128, "output_dir": out})

    # cut-open surfaces of revolution: the outer surface misses a wedge so
    # the inner cusp is visible
    cloud = []
    for name, level, th_lo in (("outer", A, math.pi / 3), ("inner", B, 0.0)):
        z, r = trace_contour(field, level, n=96, grading="blended").samples.T
        thetas = np.linspace(th_lo, 2.0 * math.pi, 40)
        cloud.append(([name] * (r.size * thetas.size),
                      np.multiply.outer(r, np.cos(thetas)).ravel(),
                      np.multiply.outer(r, np.sin(thetas)).ravel(),
                      np.repeat(z, thetas.size)))
    names, x, y, z = (np.concatenate(c) for c in zip(*cloud))
    _write_csv(os.path.join(out, "domain_cloud.csv"), "surface,x,y,z", names, x, y, z)
    return {"grid": grid_report, "contours": contour_report,
            "cloud_points": names.size,
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
    """Validate cfg, run one subcommand in its output directory (output_dir,
    then $CUSPLAB_OUTDIR, then '.') and, when it succeeds, echo the
    effective config there; returns the subcommand's report.  When the
    subcommand fails with a CuspLabError, a directory this run made is
    removed again if it is still empty."""
    cfg = validate_config(cmd, cfg)
    out = cfg["output_dir"] = (cfg["output_dir"] or os.environ.get(OUTDIR_ENV)
                               or ".")
    made = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)
    try:
        report = _COMMANDS[cmd](cfg, out)
    except CuspLabError:
        if made and not os.listdir(out):
            os.rmdir(out)
        raise
    _write_json(os.path.join(out, f"{cmd.replace('-', '_')}_config.json"),
                {"subcommand": cmd, **cfg})
    return report


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
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise InputError(f"--config {args.config} holds a JSON "
                                 f"{_json_type(cfg)}, not an object")
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
