import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cusplab
from cusplab import cli, contour, density, fem, mesh, potential
from cusplab.errors import InputError

# the directory holding the cusplab package this process imported
PACKAGE_ROOT = str(Path(cusplab.__file__).resolve().parents[1])
SVG = "{http://www.w3.org/2000/svg}"


def run_cli(args, cwd):
    # cwd is a temporary directory, where a relative PYTHONPATH no longer
    # resolves: put the imported package first so the child runs the same
    # cusplab, and drop CUSPLAB_OUTDIR so the shell cannot redirect output
    env = {k: v for k, v in os.environ.items() if k != cli.OUTDIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cusplab"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)



# imports the CLI, then runs each command small in the same process, and
# prints how many scipy modules are loaded after the import and after each
# command, one line each
_SCIPY_PROBE = """
import contextlib, io, sys
from cusplab import cli

def scipy_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

print(len(scipy_modules()), file=sys.stderr)
for cmd, *sets in [("potential-grid", "n_r=6", "n_z=5"), ("contour", "n_stations=16"),
                   ("wiener",), ("probe", "n_stations=4"),
                   ("mesh", "n_levels=4", "n_stations=8"), ("wos", "walks=200"),
                   ("solve", "n_levels=4", "n_stations=8")]:
    args = [cmd, "--output-dir", f"{sys.argv[1]}/{cmd}"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args + [a for s in sets for a in ("--set", s)])
    print(cmd, code, len(scipy_modules()), file=sys.stderr)
"""


def test_cli_import_leaves_the_optimizer_unloaded(tmp_path):
    # SciPy serves the FEM alone: importing the CLI and running every
    # command but solve loads no scipy module, and solve still works
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stderr.splitlines()]
    assert lines[:-1] == [["0"]] + [[cmd, "0", "0"] for cmd in (
        "potential-grid", "contour", "wiener", "probe", "mesh", "wos")]
    cmd, code, loaded = lines[-1]
    assert (cmd, code) == ("solve", "0") and int(loaded) > 0

def test_contour_subcommand_and_exit_codes(tmp_path):
    res = run_cli(["contour", "--output-dir", str(tmp_path)], tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["max_residual"] <= 1e-10
    # one largest residual per level, in level order (the default levels
    # are 0.5 and 2.0)
    assert len(report["max_residuals"]) == 2
    assert max(report["max_residuals"]) == report["max_residual"]
    assert (tmp_path / "contours.csv").exists()
    assert (tmp_path / "contour_map.svg").exists()
    assert (tmp_path / "contour_config.json").exists()


def test_contour_rows_match_per_level_traces(tmp_path):
    # the levels share one root batch; the rows are those of one trace per
    # level, byte for byte
    levels = [0.5, 0.8, 1.2, 2.0]
    cli.run("contour", {"levels": levels, "n_stations": 32, "output_dir": str(tmp_path)})
    field = potential.PotentialField(density.lebesgue_profile())
    lines = ["level,z,r"]
    for c in levels:
        curve = contour.trace_contour(field, c, n=32, grading="blended")
        lines += [f"{c!r},{float(z)!r},{float(r)!r}" for z, r in curve.samples]
    assert (tmp_path / "contours.csv").read_text() == "\n".join(lines) + "\n"


def test_unknown_key_rejected(tmp_path):
    res = run_cli(["contour", "--set", "nonsense=1"], tmp_path)
    assert res.returncode == 1
    err = json.loads(res.stderr)
    assert err["error"] == "validation"
    assert "nonsense" in err["detail"]


def test_malformed_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["contour", "--config", str(bad)], tmp_path)
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"] == "validation"


def test_numerical_failure_exit_code(tmp_path):
    # a level of 1e9 exceeds the axis bracket search radius
    res = run_cli(["contour", "--set", "levels=[1e9]"], tmp_path)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "numerical"
    # a peak width of 1e-310 is subnormal: the quadrature's RangeError keeps
    # the contract of one JSON line on stderr
    res = run_cli(["potential-grid", "--set", 'density={"kind":"power","p":0.5}',
                   "--set", "r_range=[0.0,1.0]", "--set", "z_range=[-1e-310,-1e-310]",
                   "--set", "n_r=2", "--set", "n_z=2"], tmp_path)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numerical"


def test_numerical_failure_removes_the_directory_it_made(tmp_path, capsys):
    # the subnormal run of test_numerical_failure_exit_code: the directory
    # the run made is empty when the RangeError propagates, so it goes; one
    # that was there before stays
    out = tmp_path / "subnormal"
    args = ["potential-grid", "--set", 'density={"kind":"power","p":0.5}',
            "--set", "r_range=[0.0,1.0]", "--set", "z_range=[-1e-310,-1e-310]",
            "--set", "n_r=2", "--set", "n_z=2", "--output-dir", str(out)]
    assert cli.main(args) == 2
    assert not out.exists()
    out.mkdir()
    assert cli.main(args) == 2
    assert out.is_dir()
    errors = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in errors] == ["numerical"] * 2


def test_round_trip_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    res = run_cli(["contour", "--output-dir", str(out1),
                   "--set", "levels=[0.5,2.0]", "--set", "n_stations=32"],
                  tmp_path)
    assert res.returncode == 0
    echoed = out1 / "contour_config.json"
    cfg = json.loads(echoed.read_text())
    cfg.pop("subcommand")
    out2 = tmp_path / "b"
    cfg["output_dir"] = str(out2)
    cfg_file = tmp_path / "echo.json"
    cfg_file.write_text(json.dumps(cfg))
    res2 = run_cli(["contour", "--config", str(cfg_file)], tmp_path)
    assert res2.returncode == 0
    assert (out1 / "contours.csv").read_bytes() == \
        (out2 / "contours.csv").read_bytes()
    assert (out1 / "contour_map.svg").read_bytes() == \
        (out2 / "contour_map.svg").read_bytes()


def test_potential_grid_schema(tmp_path):
    res = run_cli(["potential-grid", "--output-dir", str(tmp_path),
                   "--set", "n_r=5", "--set", "n_z=5"], tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "potential_grid.csv").read_text().splitlines()
    assert lines[0] == "r,z,V"
    assert len(lines) == 26
    # z-major rows of the scalar door, whose value on the rod (r = 0,
    # 0 < z <= 1) is inf
    cli.run("potential-grid", {"r_range": [0.0, 1.5], "z_range": [-0.5, 1.5],
                               "n_r": 4, "n_z": 5, "output_dir": str(tmp_path / "rod")})
    field = potential.PotentialField(density.lebesgue_profile())
    rows = [f"{r!r},{z!r},{field.value(r, z)!r}"
            for z in np.linspace(-0.5, 1.5, 5).tolist()
            for r in np.linspace(0.0, 1.5, 4).tolist()]
    text = (tmp_path / "rod" / "potential_grid.csv").read_text()
    assert text == "\n".join(["r,z,V", *rows]) + "\n"
    assert [row for row in rows if row.endswith(",inf")] == ["0.0,0.5,inf", "0.0,1.0,inf"]


def test_wiener_subcommand(tmp_path):
    res = run_cli(["wiener", "--output-dir", str(tmp_path),
                   "--set", 'profile="z^3"', "--set", "j_start=1",
                   "--set", "j_stop=40"], tmp_path)
    assert res.returncode == 0
    rep = json.loads((tmp_path / "wiener_report.json").read_text())
    assert rep["classification"] == "regular"
    # the traced cusp of the Lebesgue rod's level 2
    rep = cli.run("wiener", {"profile": "rod-contour", "j_stop": 40,
                             "output_dir": str(tmp_path / "rod")})
    assert (rep["profile"], rep["classification"]) == ("rod-contour-2", "singular")


def test_mesh_subcommand(tmp_path):
    res = run_cli(["mesh", "--output-dir", str(tmp_path),
                   "--set", "n_levels=8", "--set", "n_stations=32"], tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    tris = (tmp_path / "tris.csv").read_text().splitlines()
    assert report["nodes"] == len(nodes) - 1
    assert report["triangles"] == len(tris) - 1
    # the report's quality keys are those of mesh_quality on the same mesh
    field = potential.PotentialField(density.lebesgue_profile())
    q = mesh.mesh_quality(mesh.triangulate(mesh.build_cross_section(field, 0.5, 2.0),
                                           n_levels=8, n_stations=32))
    assert report["n_flipped"] == q.n_flipped == 0
    assert report["min_area"] == q.min_area > 0.0
    assert report["max_area"] == q.max_area >= q.min_area
    assert report["min_angle"] == q.min_angle
    assert report["pass"] is q.passes() is True
    assert nodes[0] == "id,r,z,tag"
    assert tris[0] == "id,n0,n1,n2"
    # the wireframe is one path with one M...L run per mesh edge
    corners = [tuple(map(int, row.split(",")[1:])) for row in tris[1:]]
    edges = {tuple(sorted(e)) for a, b, c in corners for e in ((a, b), (b, c), (c, a))}
    paths = ET.parse(tmp_path / "mesh.svg").getroot().findall(f"{SVG}path")
    assert len(paths) == 1
    d = paths[0].get("d")
    assert d.count("M") == d.count("L") == len(edges)


def test_mesh_and_solution_tables_are_the_arrays(tmp_path):
    # one row per node and per triangle, each cell read from the mesh and
    # solution arrays
    cli.run("solve", {"n_levels": 4, "n_stations": 8, "output_dir": str(tmp_path)})
    cli.run("mesh", {"n_levels": 4, "n_stations": 8, "output_dir": str(tmp_path)})
    field = potential.PotentialField(density.lebesgue_profile())
    m = mesh.triangulate(mesh.build_cross_section(field, 0.5, 2.0),
                         n_levels=4, n_stations=8)
    sol = fem.solve_dirichlet(m, fem.BoundaryData(fem.ConstantData(0.5),
                                                  fem.ConstantData(2.0)))
    for name, header, rows in [
            ("nodes.csv", "id,r,z,tag",
             [f"{r!r},{z!r},{tag}" for (r, z), tag in zip(m.nodes.tolist(), m.node_tags)]),
            ("tris.csv", "id,n0,n1,n2",
             [f"{a},{b},{c}" for a, b, c in m.triangles.tolist()]),
            ("solution.csv", "id,r,z,value",
             [f"{r!r},{z!r},{v!r}" for (r, z), v in zip(m.nodes.tolist(),
                                                        sol.values.tolist())])]:
        lines = [header] + [f"{i},{row}" for i, row in enumerate(rows)]
        assert (tmp_path / name).read_text() == "\n".join(lines) + "\n", name


def test_contour_map_draws_the_rod_to_its_length(tmp_path):
    # the rod of a z^(1/2) density of length 2 runs from z = 0 to z = 2:
    # its path, read back to data space through the frame and its labels
    cli.run("contour", {"density": {"kind": "power", "p": 0.5, "L": 2.0},
                        "n_stations": 16, "output_dir": str(tmp_path)})
    root = ET.parse(tmp_path / "contour_map.svg").getroot()
    frame = root.findall(f"{SVG}rect")[1]
    top = float(frame.get("y"))
    bottom = top + float(frame.get("height"))
    # the title, then the labels x0, x1, z0 and z1 to three digits
    z0, z1 = (float(t.text) for t in root.findall(f"{SVG}text")[3:])
    rod, = (p for p in root.findall(f"{SVG}path") if p.get("stroke") == "#2244cc")
    ys = [float(y) for y in re.findall(r"[ML][-\d.]+,([-\d.]+)", rod.get("d"))]
    zs = [z0 + (bottom - y) / (bottom - top) * (z1 - z0) for y in ys]
    assert zs == pytest.approx([0.0, 2.0], abs=0.02)


def test_solve_subcommand(tmp_path):
    res = run_cli(["solve", "--output-dir", str(tmp_path)], tmp_path)
    assert res.returncode == 0
    rep = json.loads((tmp_path / "solve_report.json").read_text())
    assert rep["pass"] is True
    assert rep["residual"] <= 1e-10
    assert "iterations" not in rep
    # the mesh's quality census: the 8x32 mesh clears the angle floor
    assert rep["min_angle"] >= mesh.MIN_ANGLE_FLOOR
    assert rep["n_flipped"] == 0 and rep["quality_pass"] is True
    # constant data 0.5, 2.0 on levels 0.5, 2.0: the solution is V, whose
    # energy is 2 pi (B - A); 6% is the mesh-solve bound at 8x32
    assert rep["energy"] == pytest.approx(2.0 * np.pi * 1.5, rel=0.06)
    assert (tmp_path / "solution.csv").exists()
    # no direct solve meets a 1e-20 residual: a numerical failure
    res = run_cli(["solve", "--output-dir", str(tmp_path),
                   "--set", "tol=1e-20"], tmp_path)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "numerical"


def test_csv_cells_are_plain_numbers(tmp_path):
    # numpy floats are written as plain floats, so every numeric cell of
    # the node, solution and walk tables reads back with float()
    small = {"n_levels": 4, "n_stations": 8}
    for cmd, cfg, name, columns in [
            ("mesh", small, "nodes.csv", ("id", "r", "z")),
            ("solve", small, "solution.csv", ("id", "r", "z", "value")),
            ("wos", {"walks": 200}, "wos.csv",
             ("mean", "stderr", "walks", "steps", "discarded"))]:
        cli.run(cmd, {**cfg, "output_dir": str(tmp_path / cmd)})
        with open(tmp_path / cmd / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for col in columns:
                float(row[col])


def _assert_refused(argv, detail, tmp_path, capsys):
    """argv exits 1 before leaving an output directory behind, with one JSON
    line on stderr: a validation error whose detail holds detail."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--output-dir", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "validation"
    assert detail in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("cmd, data", [
    ("solve", '{"outer":{"constant":NaN},"inner":{"constant":2.0}}'),
    ("wos", '{"outer":{"constant":0.5},"inner":{"constant":Infinity}}'),
    ("solve", '{"outer":{"constant":0.5},"inner":{"tabulated":[2.0,NaN]}}'),
    ("solve", '{"outer":{"bump":{"center":NaN,"width":0.2,"amplitude":1.0}},'
              '"inner":{"constant":2.0}}'),
    ("solve", '{"outer":{"constant":0.5},'
              '"inner":{"bump":{"center":0.5,"width":Infinity,"amplitude":1.0}}}'),
])
def test_non_finite_data_exit_1(tmp_path, cmd, data, capsys):
    _assert_refused([cmd, "--set", f"data={data}"], "finite", tmp_path, capsys)


@pytest.mark.parametrize("cmd, r_min", [("mesh", "0"), ("solve", "-1"),
                                        ("wos", "NaN"), ("mesh", "Infinity")])
def test_r_min_out_of_range_exit_1(tmp_path, cmd, r_min, capsys):
    _assert_refused([cmd, "--set", f"r_min={r_min}"],
                    "r_min must be positive and finite", tmp_path, capsys)


@pytest.mark.parametrize("cmd", ["mesh", "solve"])
def test_unreachable_r_min_exit_2(tmp_path, cmd, capsys):
    # the section takes r_min = 10 without tracing; triangulate's own cut
    # finds level B never that wide, a numerical failure that leaves no
    # directory behind
    out = tmp_path / "out"
    assert cli.main([cmd, "--set", "r_min=10", "--output-dir", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "numerical"
    assert "never reaches radius 10.0" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("cmd, setting, detail", [
    ("wos", 'data={"outer":{"tabulated":[]},"inner":{"constant":2.0}}',
     "tabulated data for 'outer-level' has no values to read"),
    ("wos", 'data={"outer":{"constant":0.5},"inner":{"tabulated":[]}}',
     "empty inner table has no value for the cap"),
    ("contour", 'density={"kind":"power","p":0.5,"L":NaN}',
     "rod length must be positive and finite"),
    ("contour", 'density={"kind":"power","p":NaN}',
     "power profile needs a finite exponent p > 0, got nan"),
    # contour traces blended stations only: an old echo naming them is refused
    ("contour", 'grading="uniform"', "unknown config keys for 'contour': ['grading']"),
    ("potential-grid", "n_r=-1", "'n_r' is a count and must be at least 1"),
    ("potential-grid", "n_z=-2", "'n_z' is a count and must be at least 1"),
    ("probe", "n_stations=-1", "'n_stations' is a count and must be at least 1"),
    ("probe", "n_stations=0", "'n_stations' is a count and must be at least 1"),
    ("probe", "probe_levels=[1.5]", "need at least 3 paths"),
    # the FEM source needs a solution object, which no config can give
    ("probe", 'source="fem"', "['oracle', 'wos']"),
    # checked inside the directory, which is removed again
    ("probe", 'data={"outer":{"bump":{"center":0.5,"width":0.2,"amplitude":1.0}},'
              '"inner":{"constant":2.0}}', "exact only for data constant"),
    ("wiener", "j_stop=2000", "0.5^2000 underflows to 0"),
    ("contour", "levels=[]", "config key 'levels' is empty"),
    ("wos", "points=[]", "config key 'points' is empty"),
    ("wos", "points=[[0.5,0.0,0.5],[0,0,-0.5],[0,0,0.5]]",
     "wos start point [0, 0, -0.5] lies outside the domain"),
    ("solve", "tol=0", "tol must be positive and finite"),
    ("solve", "tol=-1", "tol must be positive and finite"),
    ("solve", "tol=1e400", "tol must be positive and finite"),
], ids=["empty-outer-table", "empty-inner-table", "nan-rod-length",
        "nan-power-exponent", "grading-key", "negative-n_r",
        "negative-n_z", "negative-probe-stations", "no-probe-stations",
        "two-probe-paths", "fem-probe-source", "oracle-probe-of-a-bump",
        "underflowing-height", "no-levels", "no-points",
        "outside-point", "zero-tol", "negative-tol", "infinite-tol"])
def test_refused_input_leaves_no_directory(tmp_path, cmd, setting, detail, capsys):
    _assert_refused([cmd, "--set", setting], detail, tmp_path, capsys)


def test_probe_wos_passes_r_min(tmp_path, monkeypatch):
    seen = []

    def fake_estimate(cs, data, point, walks, eps, seed):
        seen.append(cs.r_min)
        return cli.wos.WosEstimate(point=point, mean=2.0, stderr=0.0,
                                   walks=walks, eps=eps, seed=seed)

    monkeypatch.setattr(cli.wos, "estimate", fake_estimate)
    cli.run("probe", {"output_dir": str(tmp_path), "source": "wos",
                      "r_min": 3e-5, "probe_levels": [1.25, 1.5], "n_stations": 3,
                      "walks": 10})
    assert seen and set(seen) == {3e-5}


def test_probe_judges_the_tip_against_the_inner_datum(tmp_path):
    # a table of equal values and a constant give the same boundary
    # function, so the same verdict: the tip datum is the inner datum at
    # arc fraction 0, not a constant read from the config
    verdicts = []
    for k, inner in enumerate(({"tabulated": [2.0, 2.0]}, {"constant": 2.0})):
        out = tmp_path / str(k)
        cli.run("probe", {"output_dir": str(out), "source": "wos", "walks": 200,
                          "n_stations": 2,
                          "data": {"outer": {"constant": 2.0}, "inner": inner}})
        verdicts.append(json.loads((out / "probe_verdict.json").read_text()))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0]["classification"] == "regular-like"


def test_reproduce_figures(tmp_path):
    report = cli.run("reproduce-figures", {"output_dir": str(tmp_path)})
    assert report["pass"]
    for name in ("potential_grid.csv", "contours.csv", "contour_map.svg",
                 "domain_cloud.csv"):
        assert (tmp_path / name).exists(), name
    rows = (tmp_path / "contours.csv").read_text().splitlines()[1:]
    levels = {float(r.split(",")[0]) for r in rows}
    assert 0.5 in levels and 2.0 in levels


def test_outdir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("CUSPLAB_OUTDIR", str(tmp_path / "envout"))
    cli.run("potential-grid", {"n_r": 4, "n_z": 4})
    assert (tmp_path / "envout" / "potential_grid.csv").exists()


# one small run of every subcommand; probe walks, so its seed matters
SMALL_RUNS = {
    "potential-grid": ["n_r=6", "n_z=5"],
    "contour": ["n_stations=16"],
    "mesh": ["n_levels=4", "n_stations=8"],
    "solve": ["n_levels=4", "n_stations=8"],
    "probe": ['source="wos"', "walks=100", "n_stations=2",
              "probe_levels=[1.25,1.5,1.75]", "seed=3"],
    "wiener": ["j_stop=30"],
    "wos": ["walks=200"],
    "reproduce-figures": [],
}


def _echo(out, cmd):
    return json.loads((out / f"{cmd.replace('-', '_')}_config.json").read_text())


@pytest.mark.parametrize("cmd", sorted(SMALL_RUNS))
def test_echo_reruns_as_given(tmp_path, cmd, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    a, b = tmp_path / "a", tmp_path / "b"
    sets = [arg for item in SMALL_RUNS[cmd] for arg in ("--set", item)]
    assert cli.main([cmd, "--output-dir", str(a)] + sets) == 0
    # the echo lists every key the subcommand takes, with the value used
    echo = _echo(a, cmd)
    given = {item.partition("=")[0]: json.loads(item.partition("=")[2])
             for item in SMALL_RUNS[cmd]}
    assert set(echo) == set(cli._SCHEMA[cmd]) | {"output_dir", "subcommand"}
    assert echo == {**cli.validate_config(cmd, {}), **given,
                    "output_dir": str(a), "subcommand": cmd}
    # passed back verbatim it reruns the run: every artifact is the same
    assert cli.main([cmd, "--config", str(a / f"{cmd.replace('-', '_')}_config.json"),
                     "--output-dir", str(b)]) == 0
    artifacts = sorted(p.name for p in a.iterdir()
                       if not p.name.endswith("_config.json"))
    assert artifacts
    assert artifacts == sorted(p.name for p in b.iterdir()
                               if not p.name.endswith("_config.json"))
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_echo_names_the_defaults_used(tmp_path):
    cli.run("probe", {"output_dir": str(tmp_path)})
    echo = _echo(tmp_path, "probe")
    assert echo["source"] == "oracle"
    assert echo["walks"] == 10000
    assert echo["eps"] == 0.0001
    assert echo["seed"] == 0
    cli.run("contour", {"output_dir": str(tmp_path)})
    assert _echo(tmp_path, "contour")["n_stations"] == 96
    # the table's defaults are copied: a run cannot change them
    cfg = cli.validate_config("contour", {})
    cfg["levels"].append(3.0)
    assert cli.validate_config("contour", {})["levels"] == [0.5, 2.0]


def test_seed_belongs_to_probe_and_wos(tmp_path, capsys):
    assert cli.main(["contour", "--set", "seed=1",
                     "--output-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "seed" in err["detail"]
    assert not list(tmp_path.iterdir())


def test_echo_of_another_subcommand_rejected(tmp_path, capsys):
    # solve takes every key of mesh; the echo's subcommand alone tells them apart
    cli.run("mesh", {"n_levels": 4, "n_stations": 8,
                     "output_dir": str(tmp_path / "a")})
    echo = tmp_path / "a" / "mesh_config.json"
    assert cli.main(["solve", "--config", str(echo),
                     "--output-dir", str(tmp_path / "b")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "'subcommand' names 'mesh'" in err["detail"]
    assert not (tmp_path / "b").exists()


# each case is the command line and a substring of the error's detail
@pytest.mark.parametrize("args", [
    (["contour", "--set", 'n_stations="abc"'],
     "'n_stations' must be a JSON number, got string 'abc'"),
    (["probe", "--set", "levels=[0.5]"], "'levels' must hold two numbers"),
    (["contour", "--config", "list.json"], "holds a JSON array, not an object"),
    (["wos", "--set", "seed=1e400"], "'seed' must be a finite integer, got inf"),
    (["wos", "--set", "walks=NaN"], "'walks' must be a finite integer, got nan"),
    (["mesh", "--set", "n_levels=1e400"],
     "'n_levels' must be a finite integer, got inf"),
    (["wos", "--set", "seed=2.7"], "'seed' must be a finite integer, got 2.7"),
])
def test_wrong_type_exits_with_json_error(tmp_path, args, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    _assert_refused(*args, tmp_path, capsys)


@pytest.mark.parametrize("args, key", [
    (["solve", "--set", 'data={"outer":{"constant":"x"},"inner":{"constant":2}}'],
     "data.outer.constant"),
    (["wos", "--set", "points=[[0.5,0.5]]"], "points"),
    (["contour", "--set", 'density={"kind":"power"}'], "density.p"),
])
def test_nested_values_checked(tmp_path, args, key, capsys):
    _assert_refused(args, f"config key {key!r}", tmp_path, capsys)


def test_nested_values_of_every_form_checked():
    for key, value, path in [
            ("density", {"kind": "power", "p": 0.5, "L": "2"}, "density.L"),
            ("density", {"kind": "tabulated", "samples": [[0, 0], [1, "a"]]},
             "density.samples"),
            ("data", {"inner": {"constant": 2}}, "data.outer"),
            ("data", {"outer": {"bump": {"center": 0.5}}, "inner": {"constant": 2}},
             "data.outer.bump.width"),
            ("data", {"outer": {"tabulated": [1, "a"]}, "inner": {"constant": 2}},
             "data.outer.tabulated"),
            ("data", {"outer": {"constant": 1}, "inner": {"constant": 2}, "cap": 3},
             "data.cap")]:
        with pytest.raises(InputError, match=f"config key '{path}'"):
            cli.validate_config("solve", {key: value})
    data = {"outer": {"bump": {"center": 0.5, "width": 0.2, "amplitude": 1}},
            "inner": {"tabulated": [1, 2]}, "cap": {"constant": 3}}
    assert cli.validate_config("solve", {"data": data})["data"] == data


def test_power_rod_contour_reaches_its_cusp(tmp_path):
    # the level 2.5 lies above V(0,0) = 2 of the z^(1/2) rod: its cusp
    # stations lie far below r = 1e-12 next to the rod
    res = run_cli(["contour", "--set", 'density={"kind":"power","p":0.5}',
                   "--set", "levels=[1.0,2.5]", "--output-dir", str(tmp_path)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["max_residual"] <= 1e-10
    assert len(report["max_residuals"]) == 2
    assert all(0.0 <= r <= 1e-10 for r in report["max_residuals"])


def test_values_checked_against_default_types():
    ok = {"r_min": 1e-4, "levels": [0.5, 2], "tol": 1, "output_dir": None}
    assert cli.validate_config("solve", ok)["levels"] == [0.5, 2]
    assert cli.validate_config("solve", {"r_min": None})["r_min"] is None
    # contour traces any number of levels
    assert cli.validate_config("contour", {"levels": [0.5]})["levels"] == [0.5]
    for key, value in [("n_levels", True), ("tol", "1e-10"), ("r_min", "0"),
                       ("levels", [0.5, 1.0, 2.0]), ("levels", [0.5, "2"]),
                       ("data", [0.5]), ("output_dir", 3)]:
        with pytest.raises(InputError, match=key):
            cli.validate_config("solve", {key: value})
