import csv
import hashlib
import json
from pathlib import Path

import pytest

from tessperc import diagnostics, harness
from tessperc.cli import main
from tessperc.errors import EdgeEffectError
from tessperc.experiment import ExperimentSpec
from tessperc.geometry import Window
from tessperc.percolation import color
from tessperc.point_process import ProcessSpec, sample_poisson
from tessperc.render import render_svg
from tessperc.streams import stream
from tessperc.tessellation import build_voronoi

SQ = {"kind": "square_lattice", "params": {"spacing": 1.0, "random_shift": True}}
PV = {"kind": "poisson", "params": {"gamma": 1.0}}
HEX = {"kind": "hexagonal_lattice", "params": {"spacing": 1.0, "random_shift": True}}
W4 = [[-4.0, -4.0], [4.0, 4.0]]
W6 = [[-6.0, -6.0], [6.0, 6.0]]

# sha256 of every CSV each config writes. The digests pin the CSV payloads
# byte for byte, so a change to cluster labelling, crossing geometry or CSV
# formatting that moves any estimate fails here.
GOLDEN = {
    "crossing_face": ("run", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "face",
        "p_grid": [0.55, 0.6], "replicates": 50, "master_seed": 11,
        "params": {"rect": [[-5.3, -3.7], [4.6, 4.2]]}}, {
        "crossing.csv": "c5e1186d94748405abbf655cf21767734fc1813b65d099b8072706ac84aa2149"}),
    "crossing_star": ("run", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "star",
        "p_grid": [0.4, 0.45], "replicates": 50, "master_seed": 12,
        "params": {"rect": [[-4.5, -5.2], [5.1, 3.9]], "direction": "vertical"}}, {
        "crossing.csv": "3affdc66fbb7ad34086f6f075172ed001e9f186756f8bce62e1aab7ebda40583"}),
    "crossing_voronoi_star_white": ("run", {
        "op": "crossing", "process": PV, "window": [[-4.0, -4.0], [4.0, 4.0]],
        "adjacency": "star", "p": 0.5, "replicates": 50, "master_seed": 13,
        "params": {"rect": [[-3.5, -2.5], [3.0, 3.5]], "color": "white"}}, {
        "crossing.csv": "e2ec32c586423ea72f362b3a305177296af1451f98a08590ebe83aa809a5c963"}),
    "theta": ("run", {
        "op": "theta", "process": SQ, "window": W6, "adjacency": "face",
        "p_grid": [0.6, 0.7], "replicates": 40, "master_seed": 14,
        "params": {"radii": [2, 4, 6]}}, {
        "theta.csv": "209aa1d4f8b41ff7990ac10b3fa4a91aaac585079e2a603ee2247b14329af535"}),
    "spanning": ("run", {
        "op": "spanning", "process": SQ, "window": W6, "adjacency": "face",
        "p": 0.75, "replicates": 100, "master_seed": 15,
        "params": {"analysis_window": [[-5.5, -2.2], [5.5, 2.3]]}}, {
        "spanning.csv": "945d0e8ed6a7adb6a0ba5d812df98ecb3a496a5f6ecdb517df7cfa88dedbf31e"}),
    "trifurcation_density": ("run", {
        "op": "trifurcation_density", "process": SQ,
        "window": [[-14.0, -14.0], [14.0, 14.0]], "adjacency": "face", "p": 0.58,
        "replicates": 20, "master_seed": 16, "params": {"r1": 1, "r2": 2.0}}, {
        "trifurcation_density.csv": "c6c167e44970526e21fae94116259108521f35f2cdb51c7850c842ba0e7958f4"}),
    "ggr": ("run", {
        "op": "ggr", "process": SQ, "window": W6, "adjacency": "face", "p": 0.6,
        "replicates": 20, "master_seed": 17, "params": {"n_max": 3}}, {
        "ggr.csv": "02616a8e9cef65f9394b2338733649c4a769e95f0ba49edef48b02154ddcfa19"}),
    "recursion": ("run", {
        "op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]],
        "adjacency": "face", "p": 0.6, "replicates": 30, "master_seed": 18,
        "params": {"t": 1.0}}, {
        "recursion.csv": "32f7d3acc58438be64916941f0a4b1e373fb5d1c22a0dda5a763efd96f126855"}),
    "mixture": ("run", {
        "op": "mixture", "process": SQ, "window": [[-4.0, -4.0], [4.0, 4.0]], "p": 0.55,
        "replicates": 40, "master_seed": 19, "params": {"spacing": 1.0}}, {
        "mixture.csv": "4af2ba31b9c25a5e1fe5de1fe84f8732ff00ea1a8784a88a0b17732febfdeeb1"}),
    "sweep_crossing": ("sweep", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "star",
        "p_grid": [0.35, 0.4, 0.45], "replicates": 20, "master_seed": 20}, {
        "summary.csv": "b9ee0421b14ff62d3424d5064e350c2590d3137117c93d5a80dbd69768dcef28",
        "sweep.csv": "be38906283499a3a5594e4bee677f908d9444bed378082228bca367dc4e60e6b"}),
    "theta_voronoi_face": ("run", {
        "op": "theta", "process": PV, "window": [[-5.0, -5.0], [5.0, 5.0]],
        "adjacency": "face", "p_grid": [0.5, 0.6], "replicates": 20, "master_seed": 25,
        "params": {"radii": [1, 2, 3]}}, {
        "theta.csv": "a91c5ea09bdabb6dcb1b2db49508200ecb574ab4d112e1df9b89a4f803314c7b"}),
    "crossing_voronoi_face": ("run", {
        "op": "crossing", "process": PV, "window": W4, "adjacency": "face",
        "p_grid": [0.4, 0.5, 0.6], "replicates": 50, "master_seed": 26,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "20ea32fb358062cbabd23950ed28eb02af18b57b863c2bf817cdb70c938ae1a5"}),
    "crossing_hexagonal": ("run", {
        "op": "crossing", "process": HEX, "window": W4, "adjacency": "face",
        "p_grid": [0.4, 0.5, 0.6], "replicates": 50, "master_seed": 27,
        "params": {"rect": [[-3.2, -3.1], [3.4, 2.9]]}}, {
        "crossing.csv": "345e8aecd26eca81456e4a979865d506acab70cc9ae540d75352822659e2fd50"}),
    "pc_square": ("run", {
        "op": "pc", "process": SQ, "window": [[-3.0, -3.0], [3.0, 3.0]],
        "adjacency": "face", "replicates": 50, "master_seed": 28,
        "params": {"tolerance": 0.1, "replicates_per_probe": 50}}, {
        "pc.csv": "ce53af97a52b109d770db3a687556e2f27c7b6d9ed803688987df15bc879aa04"}),
    "tameness": ("run", {
        "op": "tameness", "process": PV, "window": W6, "replicates": 4,
        "master_seed": 29, "params": {"delta": 1.0, "n_schedule": [1, 2, 4]}}, {
        "tameness.csv": "9dce19b16b12fa5affc57605ff7b9534ff69ea91a60937e195520b2c097d868f"}),
    "sweep_smp_gap": ("sweep", {
        "op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
        "master_seed": 30,
        "params": {"family": "crossing", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                   "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0, 2.0]}}, {
        "summary.csv": "0114114dc93107d949587176ae4cf4f6895637b9fe3c3e5cf8afe4f67c195716"}),
}


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_harness_csv_digests(name, tmp_path):
    entry, cfg, digests = GOLDEN[name]
    record = getattr(harness, entry)(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    out = Path(record.out_dir)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert got == digests


def _csv_bytes(record) -> dict:
    return {p.name: p.read_bytes() for p in Path(record.out_dir).glob("*.csv")}


@pytest.mark.parametrize("cfg", [
    {"op": "theta", "process": PV, "window": [[-5.0, -5.0], [5.0, 5.0]], "adjacency": "face",
     "p": 0.55, "replicates": 12, "master_seed": 31, "params": {"radii": [1, 3]}},
    {"op": "spanning", "process": SQ, "window": W4, "adjacency": "star", "p": 0.5,
     "replicates": 100, "master_seed": 32,
     "params": {"analysis_window": [[-3.5, -3.0], [3.5, 3.0]]}},
], ids=["theta_voronoi", "spanning_shifted_lattice"])
def test_csvs_identical_across_worker_counts(cfg, tmp_path):
    path = _write_config(tmp_path, cfg)
    one = harness.run(path, out_dir=str(tmp_path / "w1"), workers=1)
    two = harness.run(path, out_dir=str(tmp_path / "w2"), workers=2)
    assert _csv_bytes(one) == _csv_bytes(two)
    assert _csv_bytes(one)


def test_render_svg_core_only_star_bytes(tmp_path):
    core = Window((-3.0, -3.0), (3.0, 3.0))
    tess = build_voronoi(sample_poisson(1.0, core.expand(3.0), stream(33, 0, "tess")), core, 3.0)
    col = color(tess, 0.5, stream(33, 0, "color"))
    out = tmp_path / "tess.svg"
    render_svg(tess, col, out, show_graph="star", core_only=True)
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "6252ac79ff01f8b6a8fb30fc668a5acbe7d5d724f52e162dda637ea274355411")


def test_peierls_probe_result_pinned():
    spec = ExperimentSpec(process=ProcessSpec.from_json(PV),
                          window=Window((-8.0, -8.0), (8.0, 8.0)), master_seed=34)
    res = diagnostics.peierls_probe(spec, 0.5, 1.0, Window((-7.5, -7.5), (7.5, 7.5)),
                                    replicates=10, c3=0.5, c4=0.02, cycle_lengths=(8, 16))
    assert res == diagnostics.PeierlsResult(
        declined=False, reason="", cycle_lengths=[8, 16], estimates=[0.7, 0.4],
        sigmas=[0.13936099742505348, 0.14798927814636098],
        bounds=[0.9514940774912729, 0.9053409795009684], below_bound=[True, True],
        replicates=10)


def _fail_rep_1(build):
    def wrapped(spec, rep):
        if rep == 1:
            raise EdgeEffectError("forced failure")
        return build(spec, rep)
    return wrapped


def test_sweep_keeps_replicate_ids_after_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "build_tessellation", _fail_rep_1(harness.build_tessellation))
    cfg = {"op": "crossing", "process": SQ, "window": [[-2.0, -2.0], [2.0, 2.0]],
           "p_grid": [0.4, 0.6], "replicates": 100, "master_seed": 21}
    record = harness.sweep(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    with open(Path(record.out_dir) / "sweep.csv", newline="") as fh:
        ids = {int(row["replicate"]) for row in csv.DictReader(fh)}
    assert 1 not in ids and 99 in ids
    assert ids == set(range(100)) - {1}


def test_smp_gap_sweep_reports_failures_in_run_json(tmp_path, monkeypatch):
    monkeypatch.setattr(diagnostics, "build_tessellation",
                        _fail_rep_1(diagnostics.build_tessellation))
    cfg = {"op": "smp_gap", "process": SQ, "window": [[-4.0, -4.0], [4.0, 4.0]], "p": 0.6,
           "replicates": 100, "master_seed": 22,
           "params": {"family": "crossing", "Q": [[-1.0, -1.0], [0.0, 0.0]],
                      "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0, 2.0]}}
    record = harness.sweep(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    summary = json.loads((Path(record.out_dir) / "run.json").read_text())["summary"]
    assert summary["meta"] == {"family": "crossing", "failed": 1}
    assert summary["replicates"] == 99
    assert summary["summary_rows"] == 2


def test_cli_render_at_p_zero_draws_no_black_cell(tmp_path):
    cfg = {"op": "crossing", "process": SQ, "window": [[-2.0, -2.0], [2.0, 2.0]],
           "p": 0.0, "replicates": 50, "master_seed": 23}
    svg = tmp_path / "out.svg"
    assert main(["render", _write_config(tmp_path, cfg), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert 'fill="#ffffff"' in text
    assert 'fill="#000000"' not in text


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = {"op": "crossing", "process": SQ, "window": [[-2.0, -2.0], [2.0, 2.0]],
           "p": 0.5, "replicates": 50, "master_seed": 24, "colour": "black"}
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "unknown top-level keys ['colour']" in capsys.readouterr().err
