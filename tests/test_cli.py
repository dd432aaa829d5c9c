import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cusplab
from cusplab import cli, contour, density, potential

# the directory holding the cusplab package this process imported
PACKAGE_ROOT = str(Path(cusplab.__file__).resolve().parents[1])


def run_cli(args, cwd):
    # cwd is a temporary directory, where a relative PYTHONPATH no longer
    # resolves: put the imported package first so the child runs the same
    # cusplab, and drop CUSPLAB_OUTDIR so the shell cannot redirect output
    env = {k: v for k, v in os.environ.items() if k != cli.OUTDIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cusplab"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_contour_subcommand_and_exit_codes(tmp_path):
    res = run_cli(["contour", "--output-dir", str(tmp_path)], tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["max_residual"] <= 1e-10
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


def test_wiener_subcommand(tmp_path):
    res = run_cli(["wiener", "--output-dir", str(tmp_path),
                   "--set", 'profile="z^3"', "--set", "j_start=1",
                   "--set", "j_stop=40"], tmp_path)
    assert res.returncode == 0
    rep = json.loads((tmp_path / "wiener_report.json").read_text())
    assert rep["classification"] == "regular"


def test_mesh_subcommand(tmp_path):
    res = run_cli(["mesh", "--output-dir", str(tmp_path),
                   "--set", "n_levels=8", "--set", "n_stations=32"], tmp_path)
    assert res.returncode == 0
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    tris = (tmp_path / "tris.csv").read_text().splitlines()
    assert nodes[0] == "id,r,z,tag"
    assert tris[0] == "id,n0,n1,n2"
    assert (tmp_path / "mesh.svg").exists()


def test_solve_subcommand(tmp_path):
    res = run_cli(["solve", "--output-dir", str(tmp_path)], tmp_path)
    assert res.returncode == 0
    rep = json.loads((tmp_path / "solve_report.json").read_text())
    assert rep["pass"] is True
    assert rep["residual"] <= 1e-10
    assert "iterations" not in rep
    # constant data 0.5, 2.0 on levels 0.5, 2.0: the solution is V, whose
    # energy is 2 pi (B - A); 6% is the mesh-solve bound at 8x32
    assert rep["energy"] == pytest.approx(2.0 * np.pi * 1.5, rel=0.06)
    assert (tmp_path / "solution.csv").exists()
    # no direct solve meets a 1e-20 residual: a numerical failure
    res = run_cli(["solve", "--output-dir", str(tmp_path),
                   "--set", "tol=1e-20"], tmp_path)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "numerical"


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
