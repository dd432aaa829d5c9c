import csv

import numpy as np
import pytest

from cusplab import cli, density, fem, mesh, potential, probe, wos
from cusplab.errors import DomainError, InputError


@pytest.fixture(scope="module")
def leb():
    return potential.PotentialField(density.lebesgue_profile())


@pytest.fixture(scope="module")
def cs(leb):
    return mesh.build_cross_section(leb, 0.5, 2.0, r_min=1e-6, n_trace=256)


def test_oracle_level_curve_path_is_constant(leb):
    p = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                          ("level-curve", 1.5))
    assert p.values == pytest.approx([1.5] * 10, abs=1e-9)
    assert np.all(np.diff(p.distances) < 0)


def test_oracle_axis_path_approaches_v00(leb):
    p = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0, ("axis-below",))
    assert np.all(np.diff(p.values) > 0)          # climbing toward V(0,0)
    assert p.limit_estimate == pytest.approx(0.99693, abs=1e-4)


def test_deep_level_path_uses_log_radii(leb):
    # at c = 1.95 the tenth station has log r ~ -1200: below the float
    # range for r, but the value is still exactly the level
    p = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                          ("level-curve", 1.95))
    assert p.values[-1] == pytest.approx(1.95, abs=1e-9)
    assert p.log_r[-1] < -1000.0
    assert p.stations[-1, 0] == 0.0               # underflowed radius


def test_limit_set_canonical(leb):
    paths = [probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                               ("level-curve", c))
             for c in (1.05, 1.25, 1.5, 1.75, 1.95)]
    paths.append(probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                                   ("axis-below",)))
    est = probe.limit_set_estimate(paths, datum_at_tip=2.0)
    assert abs(est.lo - 1.0) <= 0.01
    assert abs(est.hi - 1.95) <= 0.01
    assert est.classification == "strongly-irregular-like"


def test_limit_set_constant_data(leb):
    paths = [probe.sample_path("oracle", leb, 0.5, 2.0, 0.7, 0.7,
                               ("level-curve", c)) for c in (1.2, 1.5, 1.8)]
    est = probe.limit_set_estimate(paths, datum_at_tip=0.7)
    assert est.lo == pytest.approx(0.7) and est.hi == pytest.approx(0.7)
    assert est.classification == "regular-like"


def test_limit_set_semiregular_classification(leb):
    paths = [probe.sample_path("oracle", leb, 0.5, 2.0, 0.7, 0.7,
                               ("level-curve", c)) for c in (1.2, 1.5, 1.8)]
    est = probe.limit_set_estimate(paths, datum_at_tip=2.0)
    assert est.classification == "semiregular-like"


def test_limit_set_needs_three_paths(leb):
    p = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0, ("axis-below",))
    with pytest.raises(InputError):
        probe.limit_set_estimate([p, p], datum_at_tip=2.0)


def test_ray_path(leb):
    p = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                          ("ray", 1.0, -1.0), start=0.1)
    # along a sector ray the potential tends to V(0,0) = 1
    assert abs(p.limit_estimate - 1.0) < 0.01


@pytest.mark.filterwarnings("error")
def test_ray_down_the_axis_is_the_axis_path(leb):
    ray = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0, ("ray", 0.0, -1.0))
    axis = probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0, ("axis-below",))
    assert np.array_equal(ray.stations, axis.stations)
    assert np.array_equal(ray.log_r, axis.log_r)
    assert np.array_equal(ray.values, axis.values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dr, dz", [(0.0, 0.0), (np.nan, -1.0), (-1.0, -1.0)],
                         ids=["zero-length", "not-finite", "off-the-half-plane"])
def test_ray_direction_refused_before_any_evaluation(leb, dr, dz, monkeypatch):
    evaluations = []
    monkeypatch.setattr(probe, "_two_constant", lambda *a: evaluations.append(a))
    with pytest.raises(InputError, match="a ray needs a finite, nonzero direction"):
        probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0, ("ray", dr, dz))
    assert not evaluations


def test_fem_source_and_truncation_refusal(leb, cs):
    m = mesh.triangulate(cs, n_levels=16, n_stations=64)
    sol = fem.solve_dirichlet(m, fem.BoundaryData.constants(0.5, 2.0))
    p = probe.sample_path("fem", leb, 0.5, 2.0, 0.5, 2.0,
                          ("level-curve", 1.5), n_stations=2, start=0.8,
                          fem_field=sol)
    assert p.values == pytest.approx([1.5, 1.5], rel=0.02)
    with pytest.raises(DomainError):
        probe.sample_path("fem", leb, 0.5, 2.0, 0.5, 2.0,
                          ("level-curve", 1.5), n_stations=4, start=0.8,
                          fem_field=sol)


def test_wos_source_agrees_with_oracle(leb, cs):
    p = probe.sample_path("wos", leb, 0.5, 2.0, 0.5, 2.0,
                          ("level-curve", 1.5), n_stations=2, start=0.64,
                          cross_section=cs,
                          data=fem.BoundaryData.constants(0.5, 2.0),
                          walks=4000, eps=2e-4, seed=21)
    for v, e in zip(p.values, p.stderrs):
        assert abs(v - 1.5) <= 3.0 * e + 0.01


def test_nonlocality_zero_amplitude(leb, cs):
    rep = probe.nonlocality_experiment(
        leb, cs, fem.BumpData(0.5, 0.2, 0.0), [1.5], walks=10)
    assert rep.verdict == "vanishing"
    assert all(v == 0.0 for _, rows in rep.stations for _, v, _ in rows)


def test_nonlocality_bump_floor_positive(leb, cs):
    rep = probe.nonlocality_experiment(
        leb, cs, fem.BumpData(0.5, 0.25, 1.0), [1.5],
        walks=4000, eps=2e-4, seed=5, z_stations=[0.16, 0.04])
    assert rep.verdict == "non-vanishing"
    assert rep.floor > 0


def test_nonlocality_amplitude_scaling(leb, cs):
    # common random numbers: doubling the amplitude doubles every estimate
    kw = dict(walks=2000, eps=2e-4, seed=9, z_stations=[0.08])
    r1 = probe.nonlocality_experiment(leb, cs, fem.BumpData(0.5, 0.25, 1.0),
                                      [1.5], **kw)
    r2 = probe.nonlocality_experiment(leb, cs, fem.BumpData(0.5, 0.25, 2.0),
                                      [1.5], **kw)
    v1 = r1.stations[0][1][0][1]
    v2 = r2.stations[0][1][0][1]
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_nonlocality_stations_read_as_probe_stations(leb, cs):
    # both probes start a station's walks from the same point, bit for bit
    bump = fem.BumpData(0.5, 0.25, 1.0)
    kw = dict(walks=200, eps=2e-4, seed=9)
    path = probe.sample_path("wos", leb, 0.5, 2.0, 0.0, 0.0,
                             ("level-curve", 1.5), n_stations=2, start=0.32,
                             cross_section=cs,
                             data=fem.BoundaryData(bump, fem.ConstantData(0.0)),
                             **kw)
    rep = probe.nonlocality_experiment(leb, cs, bump, [1.5],
                                       z_stations=[0.32, 0.16], **kw)
    assert [(v, e) for _, v, e in rep.stations[0][1]] == \
        list(zip(path.values.tolist(), path.stderrs.tolist()))


@pytest.mark.parametrize("levels, z_stations", [
    ([0.9], [0.16, 0.08]),        # a level curve below V(0,0) = 1
    ([1.5], [0.02, 0.32]),        # stations that move away from the tip
    ([], [0.16, 0.08]),
    ([1.5], []),
    ([1.5, 0.9], [0.16, 0.08]),   # refused before the first level walks
], ids=["level-below-tip", "receding-stations", "no-levels", "no-stations",
        "second-level-below-tip"])
def test_nonlocality_refuses_what_probes_refuse(leb, cs, levels, z_stations, monkeypatch):
    walks = []
    monkeypatch.setattr(probe.wos_mod, "estimate", lambda *a, **kw: walks.append(a))
    with pytest.raises(InputError):
        probe.nonlocality_experiment(leb, cs, fem.BumpData(0.5, 0.25, 1.0),
                                     levels, walks=10, z_stations=z_stations)
    assert not walks


def _recorded_streams(monkeypatch):
    """(start point, key, counter) of every chunk wos walks: the point of
    each _walk and the state of the Philox generator it builds."""
    streams = []
    walk, philox = wos._walk, np.random.Philox

    def recorded_walk(geo, point, n, eps, key):
        streams.append([tuple(point)])
        return walk(geo, point, n, eps, key)

    def recorded_philox(*args, **kwargs):
        bitgen = philox(*args, **kwargs)
        state = bitgen.state["state"]
        streams[-1] += [tuple(state["key"].tolist()),
                        tuple(state["counter"].tolist())]
        return bitgen

    monkeypatch.setattr(wos, "_walk", recorded_walk)
    monkeypatch.setattr(np.random, "Philox", recorded_philox)
    return streams


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_each_start_point_walks_streams_of_its_own(leb, cs, tmp_path,
                                                   monkeypatch):
    streams = _recorded_streams(monkeypatch)
    seed, walks = 3, 50
    cli.run("probe", {"source": "wos", "probe_levels": [1.25, 1.5, 1.75],
                      "n_stations": 2, "walks": walks, "seed": seed,
                      "output_dir": str(tmp_path / "probe")})
    bump = fem.BumpData(0.5, 0.25, 1.0)
    # int(100 c) is 150 for both levels
    both = probe.nonlocality_experiment(leb, cs, bump, [1.5, 1.505],
                                        walks=walks, eps=2e-4, seed=seed,
                                        z_stations=[0.16, 0.08])
    # a stream is its Philox start state; only the counter's low word
    # advances, so streams that start apart in the other words are disjoint
    points = {}
    for point, key, counter in streams:
        assert counter[0] == 0
        points.setdefault((key, counter), set()).add(point)
    # four probe paths and two non-locality levels, of two stations each
    assert len(points) == len(streams) == 4 * 2 + 2 * 2
    assert all(len(p) == 1 for p in points.values())

    # a start point's estimate is the same whatever call, or place in the
    # call, it comes from: the probe stations walked again by the wos
    # subcommand in reverse order, the first of them twice
    stations = _rows(tmp_path / "probe" / "probe.csv")
    pts = [[float(row["r"]), 0.0, float(row["z"])] for row in stations][::-1]
    cli.run("wos", {"points": pts + pts[:1], "walks": walks, "seed": seed,
                    "output_dir": str(tmp_path / "wos")})
    again = _rows(tmp_path / "wos" / "wos.csv")
    assert [(row["mean"], row["stderr"]) for row in again] == \
        [(row["value"], row["stderr"]) for row in stations[::-1] + stations[-1:]]
    # and the non-locality station of the second level, walked alone
    one = probe.nonlocality_experiment(leb, cs, bump, [1.505], walks=walks,
                                       eps=2e-4, seed=seed, z_stations=[0.08])
    assert one.stations[0][1][0] == both.stations[1][1][1]


def test_oracle_station_outside_region_rejected(leb):
    # a ray that leaves the region before its stations finish shrinking
    with pytest.raises(DomainError):
        probe.sample_path("oracle", leb, 0.5, 2.0, 0.5, 2.0,
                          ("ray", 1.0, 0.1), start=2.5)
