import math

import numpy as np
import pytest
from scipy import stats

from tessperc.diagnostics import estimate_laplace_functional, estimate_void_probability
from tessperc.errors import EstimatorFailure, ParameterError
from tessperc.experiment import ExperimentSpec
from tessperc.geometry import Window
from tessperc.point_process import (PointConfiguration, ProcessSpec,
                                    sample_cluster_process,
                                    sample_matern_hardcore,
                                    sample_perturbed_lattice, sample_poisson,
                                    sample_poisson_lines, sample_process)
from tessperc.streams import stream

WIN10 = Window((0, 0), (10, 10))


def run_spec(process, replicates, seed):
    """A spec of replicates samples of process; the process-level estimators
    do not read its window."""
    return ExperimentSpec(process=process, window=WIN10, replicates=replicates,
                          master_seed=seed)


def test_process_spec_validation():
    with pytest.raises(ParameterError):
        ProcessSpec("nope", {})
    with pytest.raises(ParameterError):
        ProcessSpec("poisson", {})
    with pytest.raises(ParameterError):
        ProcessSpec("poisson", {"gamma": -1.0})
    with pytest.raises(ParameterError):
        ProcessSpec("poisson", {"gamma": 1.0, "extra": 2})
    spec = ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.1})
    assert spec.intensity() == pytest.approx(2.0)
    # exact lattice (zero perturbation) is allowed
    ProcessSpec("perturbed_lattice", {"spacing": 1.0, "perturbation_scale": 0.0})
    # each optional flag only on the kinds that read it
    with pytest.raises(ParameterError):
        ProcessSpec("poisson", {"gamma": 1.0, "include_parents": True})
    ProcessSpec("thomas_cluster", {"gamma0": 1.0, "mu": 2.0, "sigma": 0.1,
                                   "include_parents": True})
    with pytest.raises(ParameterError):
        ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.1,
                                       "random_shift": True})
    ProcessSpec("hexagonal_lattice", {"spacing": 1.0, "random_shift": True})
    # every parameter is finite and every flag a boolean
    for bad in ({"gamma": math.nan}, {"gamma": math.inf}):
        with pytest.raises(ParameterError, match="must be finite and positive"):
            ProcessSpec("poisson", bad)
    with pytest.raises(ParameterError, match="must be finite and positive"):
        ProcessSpec("square_lattice", {"spacing": math.inf})
    # a numeric parameter is a number, not a string or a boolean
    for bad in ({"gamma": "1.5"}, {"gamma": True}):
        with pytest.raises(ParameterError, match="must be a number"):
            ProcessSpec("poisson", bad)
    with pytest.raises(ParameterError, match="must be true or false"):
        ProcessSpec("square_lattice", {"spacing": 1.0, "random_shift": "no"})
    with pytest.raises(ParameterError, match="must be true or false"):
        ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.1,
                                       "include_parents": 1})


def test_process_spec_json_roundtrip():
    spec = ProcessSpec("thomas_cluster", {"gamma0": 0.5, "mu": 3.0, "sigma": 0.2})
    again = ProcessSpec.from_json({"kind": spec.kind, "params": dict(spec.params)})
    assert again == spec


def test_poisson_determinism_and_mean():
    cfg1 = sample_poisson(1.0, WIN10, stream(5, 0, "pp"))
    cfg2 = sample_poisson(1.0, WIN10, stream(5, 0, "pp"))
    assert np.array_equal(cfg1.points, cfg2.points)
    counts = [len(sample_poisson(1.0, WIN10, stream(5, r, "pp"))) for r in range(10_000)]
    mean = np.mean(counts)
    # Poisson(100): sd of the sample mean is 10/sqrt(10^4) = 0.1
    assert abs(mean - 100.0) < 3 * 0.1


def test_poisson_unit_window_mean():
    counts = [len(sample_poisson(1.0, Window((0, 0), (1, 1)), stream(6, r, "pp")))
              for r in range(4000)]
    assert abs(np.mean(counts) - 1.0) < 3 * 1.0 / math.sqrt(4000)


def test_poisson_spatial_independence():
    # counts in two disjoint sub-windows: chi-square independence at 1%
    left = Window((0, 0), (5, 10))
    right = Window((5, 0), (10, 10))
    pairs = []
    for r in range(10_000):
        pts = sample_poisson(0.2, WIN10, stream(17, r, "ind")).points
        nl = int(left.contains_points(pts, closed=False).sum()) if len(pts) else 0
        nr = int(right.contains_points(pts, closed=False).sum()) if len(pts) else 0
        pairs.append((min(nl, 4), min(nr, 4)))
    pairs = np.array(pairs)
    table = np.zeros((5, 5))
    for a, b in pairs:
        table[a, b] += 1
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    _, pval, _, _ = stats.chi2_contingency(table)
    assert pval > 0.01


def test_poisson_superposition():
    # union of independent samples at g1, g2 has Poisson(g1+g2) count moments
    counts = []
    for r in range(4000):
        a = sample_poisson(0.7, WIN10, stream(21, r, "a")).points
        b = sample_poisson(0.5, WIN10, stream(21, r, "b")).points
        counts.append(len(a) + len(b))
    counts = np.array(counts)
    lam = 1.2 * 100
    assert abs(counts.mean() - lam) < 3 * math.sqrt(lam / 4000)
    assert abs(counts.var() - lam) < 4 * lam * math.sqrt(2 / 4000)


def test_cluster_process_intensity():
    spec = ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.1})
    counts = [len(sample_cluster_process(spec, WIN10, stream(9, r, "cl")))
              for r in range(1000)]
    mean = np.mean(counts)
    sd = np.std(counts) / math.sqrt(1000)
    assert abs(mean - 200.0) < 3 * max(sd, 1e-9)


def test_cluster_process_edge_cases():
    spec = ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 1e-12, "radius": 0.1})
    cfg = sample_cluster_process(spec, WIN10, stream(9, 0, "cl"))
    assert len(cfg) == 0


def test_matern_cluster_diameter_bound():
    # offspring offsets stay inside the disc, so cluster diameter <= 2R
    from tessperc.point_process import _cluster_offsets
    spec = ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 5.0, "radius": 0.3})
    offs = _cluster_offsets(spec, 500, stream(3, 0, "off"))
    assert (np.linalg.norm(offs, axis=1) <= 0.3 + 1e-12).all()


def test_thomas_truncation_records_metadata():
    spec = ProcessSpec("thomas_cluster", {"gamma0": 1.0, "mu": 2.0, "sigma": 0.1})
    cfg = sample_cluster_process(spec, WIN10, stream(9, 1, "cl"))
    assert cfg.meta["truncation_sigmas"] == 6.0


def test_matern_hardcore_distance():
    for r in range(20):
        cfg = sample_matern_hardcore(2.0, 0.3, WIN10, stream(31, r, "m2"))
        pts = cfg.points
        if len(pts) > 1:
            d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
            np.fill_diagonal(d, np.inf)
            assert d.min() >= 0.3 - 1e-12


def test_matern_hardcore_intensity_formula():
    # classical Matern II retained intensity as oracle
    gamma, r = 2.0, 0.3
    lam = (1 - math.exp(-gamma * math.pi * r * r)) / (math.pi * r * r)
    win = Window((0, 0), (20, 20))
    counts = [len(sample_matern_hardcore(gamma, r, win, stream(8, k, "m2")))
              for k in range(300)]
    se = np.std(counts) / math.sqrt(300)
    assert abs(np.mean(counts) - lam * 400) < 3 * se


def test_matern_hardcore_no_competition_limit():
    # negligible thinning when the hard-core radius is tiny
    counts = [len(sample_matern_hardcore(1.0, 1e-6, WIN10, stream(12, k, "m2")))
              for k in range(500)]
    assert abs(np.mean(counts) - 100.0) < 4 * 10 / math.sqrt(500)


def test_perturbed_lattice_exact_when_unperturbed():
    win = Window((-0.5, -0.5), (9.5, 9.5))
    cfg = sample_perturbed_lattice(1.0, 0.0, win, stream(1, 0, "pl"))
    assert len(cfg) == 100
    assert set(map(tuple, cfg.points)) == {(float(i), float(j))
                                           for i in range(10) for j in range(10)}


def test_perturbed_lattice_count_with_margin():
    # window edges sit between lattice lines; jitter below the margin cannot
    # move sites across, so the count is exact
    win = Window((-0.5, -0.5), (9.5, 9.5))
    for rep in range(5):
        cfg = sample_perturbed_lattice(1.0, 0.9, win, stream(2, rep, "pl"))
        assert len(cfg) == 100


def test_perturbed_lattice_determinism():
    win = Window((0, 0), (5, 5))
    a = sample_perturbed_lattice(1.0, 0.5, win, stream(3, 0, "pl"))
    b = sample_perturbed_lattice(1.0, 0.5, win, stream(3, 0, "pl"))
    assert np.array_equal(a.points, b.points)


def test_poisson_lines_basics():
    assert len(sample_poisson_lines(0.0, 5.0, stream(4, 0, "ln"))) == 0
    a = sample_poisson_lines(1.0, 5.0, stream(4, 1, "ln"))
    b = sample_poisson_lines(1.0, 5.0, stream(4, 1, "ln"))
    assert np.array_equal(a, b)
    counts = [len(sample_poisson_lines(1.0, 5.0, stream(4, r, "ln"))) for r in range(2000)]
    lam = 1.0 * 2 * 5.0 * math.pi
    assert abs(np.mean(counts) - lam) < 3 * math.sqrt(lam / 2000)


def test_poisson_lines_segment_hit_constant():
    # documented normalization: E[# lines hitting a segment of length L] = 2*intensity*L
    hits = []
    for r in range(2000):
        lines = sample_poisson_lines(1.0, 6.0, stream(4, r, "seg"))
        if len(lines) == 0:
            hits.append(0)
            continue
        th, rr = lines[:, 0], lines[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = rr / np.cos(th)
        hits.append(int(np.sum(np.abs(x) <= 2.0)))
    se = np.std(hits) / math.sqrt(len(hits))
    assert abs(np.mean(hits) - 8.0) < 3 * se


def test_point_configuration_validation():
    with pytest.raises(ParameterError):
        PointConfiguration(np.array([[20.0, 0.0]]), WIN10)
    cfg = PointConfiguration(np.array([[1.0, 2.0], [3.0, 4.0]]), WIN10)
    assert len(cfg) == 2


def test_void_probability_poisson_oracle():
    spec = ProcessSpec("poisson", {"gamma": 1.0})
    res = estimate_void_probability(run_spec(spec, 3000, 41), Window((0, 0), (1, 1)),
                                    [0, 1, 2])
    by_t = {r["t"]: r for r in res}
    assert by_t[0]["estimate"] == 1.0
    for t in (1, 2):
        truth = math.exp(-float(t) ** 2)
        lo, hi = by_t[t]["ci"]
        width = (hi - lo) / 2
        assert abs(by_t[t]["estimate"] - truth) < 3 * max(width / 1.96, 1e-4)


def test_void_probability_monotone_for_cluster():
    spec = ProcessSpec("matern_cluster", {"gamma0": 0.5, "mu": 2.0, "radius": 0.2})
    res = estimate_void_probability(run_spec(spec, 300, 4), Window((0, 0), (1, 1)),
                                    [0.5, 1, 1.5, 2])
    ests = [r["estimate"] for r in res]
    assert all(b <= a + 1e-12 for a, b in zip(ests, ests[1:]))


def test_void_probability_counts_a_repeated_t_once_per_entry():
    spec = run_spec(ProcessSpec("poisson", {"gamma": 1.0}), 100, 5)
    res = estimate_void_probability(spec, Window((0, 0), (1, 1)), [0.2, 0, 0.2])
    assert res[0] == res[2]
    assert res[0]["estimate"] <= 1.0
    assert res[1]["estimate"] == 1.0


# the four unit boxes (0, 0), (0, 1), (1, 0) and (1, 1) of the grid of side 1
BOXES_2X2 = Window((-0.5, -0.5), (1.5, 1.5))


def test_laplace_trivial_and_poisson_oracle():
    spec = ProcessSpec("poisson", {"gamma": 1.0})
    res0 = estimate_laplace_functional(run_spec(spec, 1000, 2), 0.0, 1.0, BOXES_2X2)
    assert res0["estimate"] == pytest.approx(1.0)
    res = estimate_laplace_functional(run_spec(spec, 4000, 2), 0.5, 1.0, BOXES_2X2)
    truth = math.exp(4 * (math.exp(0.5) - 1))
    half = (res["ci"][1] - res["ci"][0]) / 2
    assert abs(res["estimate"] - truth) < 3 * half / 1.96 + 1e-9
    assert res["reference"]["kind"] == "exact"
    assert res["reference"]["value"] == pytest.approx(truth)


def test_laplace_cluster_bound():
    spec = ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.2})
    res = estimate_laplace_functional(run_spec(spec, 3000, 6), 0.3, 1.0, BOXES_2X2)
    assert res["reference"]["kind"] == "upper_bound"
    assert "delta" in res["reference"]["note"]
    assert res["estimate"] <= res["reference"]["value"] + (res["ci"][1] - res["ci"][0])


def test_laplace_overflow_reports_failure():
    spec = ProcessSpec("poisson", {"gamma": 1.0})
    with pytest.raises(EstimatorFailure):
        estimate_laplace_functional(run_spec(spec, 1000, 2), 50.0, 2.0,
                                    Window((-1.0, -1.0), (7.0, 7.0)))


def test_sample_process_dispatch():
    for spec in (ProcessSpec("poisson", {"gamma": 1.0}),
                 ProcessSpec("matern_cluster", {"gamma0": 1.0, "mu": 2.0, "radius": 0.1}),
                 ProcessSpec("matern_hardcore_II", {"gamma_proposal": 1.0, "hardcore_radius": 0.2}),
                 ProcessSpec("perturbed_lattice", {"spacing": 1.0, "perturbation_scale": 0.3})):
        cfg = sample_process(spec, WIN10, stream(7, 0, "d"))
        assert cfg.window == WIN10
        assert WIN10.contains_points(cfg.points).all() or len(cfg) == 0
    with pytest.raises(ParameterError):
        sample_process(ProcessSpec("poisson_line", {"line_intensity": 1.0}), WIN10,
                       stream(7, 0, "d"))
