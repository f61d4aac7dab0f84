import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tessperc import diagnostics, estimators, harness
from tessperc.cli import main
from tessperc.errors import ConfigError, EdgeEffectError, ParameterError
from tessperc.experiment import ExperimentSpec, build_tessellation, uniforms_for
from tessperc.geometry import Window, rings_meet_boxes
from tessperc.percolation import CrossingQuery, color, crossing, rect_graph
from tessperc.point_process import KINDS, ProcessSpec, sample_poisson
from tessperc.render import render_svg
from tessperc.streams import stream
from tessperc.tessellation import build_voronoi

SQ = {"kind": "square_lattice", "params": {"spacing": 1.0, "random_shift": True}}
PV = {"kind": "poisson", "params": {"gamma": 1.0}}
HEX = {"kind": "hexagonal_lattice", "params": {"spacing": 1.0, "random_shift": True}}
# without random_shift every replicate sees the same lattice
SQ_FIXED = {"kind": "square_lattice", "params": {"spacing": 1.0}}
HEX_FIXED = {"kind": "hexagonal_lattice", "params": {"spacing": 1.0}}
LINES = {"kind": "poisson_line", "params": {"line_intensity": 1.0}}
MATERN = {"kind": "matern_cluster",
          "params": {"gamma0": 0.5, "mu": 2.0, "radius": 0.3, "include_parents": True}}
THOMAS = {"kind": "thomas_cluster", "params": {"gamma0": 0.5, "mu": 2.0, "sigma": 0.2}}
HARDCORE = {"kind": "matern_hardcore_II",
            "params": {"gamma_proposal": 2.0, "hardcore_radius": 0.4}}
PERTURBED = {"kind": "perturbed_lattice", "params": {"spacing": 1.0, "perturbation_scale": 0.5}}
W4 = [[-4.0, -4.0], [4.0, 4.0]]
W6 = [[-6.0, -6.0], [6.0, 6.0]]

# sha256 of every CSV each config writes, then of the run.json summary as
# json.dumps(summary, sort_keys=True). The digests pin the payloads byte for
# byte, so a change to cluster labelling, crossing geometry, CSV formatting or
# summary shape that moves any estimate fails here.
GOLDEN = {
    "crossing_face": ("run", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "face",
        "p_grid": [0.55, 0.6], "replicates": 50, "master_seed": 11,
        "params": {"rect": [[-5.3, -3.7], [4.6, 4.2]]}}, {
        "crossing.csv": "c5e1186d94748405abbf655cf21767734fc1813b65d099b8072706ac84aa2149"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "crossing_star": ("run", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "star",
        "p_grid": [0.4, 0.45], "replicates": 50, "master_seed": 12,
        "params": {"rect": [[-4.5, -5.2], [5.1, 3.9]], "direction": "vertical"}}, {
        "crossing.csv": "3affdc66fbb7ad34086f6f075172ed001e9f186756f8bce62e1aab7ebda40583"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "crossing_voronoi_star_white": ("run", {
        "op": "crossing", "process": PV, "window": [[-4.0, -4.0], [4.0, 4.0]],
        "adjacency": "star", "p": 0.5, "replicates": 50, "master_seed": 13,
        "params": {"rect": [[-3.5, -2.5], [3.0, 3.5]], "color": "white"}}, {
        "crossing.csv": "e2ec32c586423ea72f362b3a305177296af1451f98a08590ebe83aa809a5c963"},
        "92eca19a4e4339efec750dbf374aaa6225c94e2054270537b2d32ff6d65402f8"),
    "theta": ("run", {
        "op": "theta", "process": SQ, "window": W6, "adjacency": "face",
        "p_grid": [0.6, 0.7], "replicates": 40, "master_seed": 14,
        "params": {"radii": [2, 4, 6]}}, {
        "theta.csv": "209aa1d4f8b41ff7990ac10b3fa4a91aaac585079e2a603ee2247b14329af535"},
        "027ac025ab7fc4b16a1d7fe9400ec86fc3d2ea71906be656f3779c87c6afac35"),
    "spanning": ("run", {
        "op": "spanning", "process": SQ, "window": W6, "adjacency": "face",
        "p": 0.75, "replicates": 100, "master_seed": 15,
        "params": {"analysis_window": [[-5.5, -2.2], [5.5, 2.3]]}}, {
        "spanning.csv": "945d0e8ed6a7adb6a0ba5d812df98ecb3a496a5f6ecdb517df7cfa88dedbf31e"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "trifurcation_density": ("run", {
        "op": "trifurcation_density", "process": SQ,
        "window": [[-14.0, -14.0], [14.0, 14.0]], "adjacency": "face", "p": 0.58,
        "replicates": 20, "master_seed": 16, "params": {"r1": 1, "r2": 2.0}}, {
        "trifurcation_density.csv": "c6c167e44970526e21fae94116259108521f35f2cdb51c7850c842ba0e7958f4"},
        "21656f241fa7f3c6261a1e3f3f7db8994663148589425ba65c693e98c160e07a"),
    "ggr": ("run", {
        "op": "ggr", "process": SQ, "window": W6, "adjacency": "face", "p": 0.6,
        "replicates": 20, "master_seed": 17, "params": {"n_max": 3}}, {
        "ggr.csv": "02616a8e9cef65f9394b2338733649c4a769e95f0ba49edef48b02154ddcfa19"},
        "de096127ad04ef8b799858f5b38d5ce6c4cf45e2cec4cdf36e0c2f92aeaf1c96"),
    "recursion": ("run", {
        "op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]],
        "adjacency": "face", "p": 0.6, "replicates": 30, "master_seed": 18,
        "params": {"t": 1.0}}, {
        "recursion.csv": "32f7d3acc58438be64916941f0a4b1e373fb5d1c22a0dda5a763efd96f126855"},
        "bc5a3ea53b6ab5ed4a4782bc4c9132c23db35efd73f179ce06cbcf7ccde18a5b"),
    "mixture": ("run", {
        "op": "mixture", "process": SQ, "window": [[-4.0, -4.0], [4.0, 4.0]], "p": 0.55,
        "replicates": 40, "master_seed": 19, "params": {"spacing": 1.0}}, {
        "mixture.csv": "4af2ba31b9c25a5e1fe5de1fe84f8732ff00ea1a8784a88a0b17732febfdeeb1"},
        "46fb82d1a1d7053bdbfb90c6bff13e55337f3a82f7917abe3f5c289423a89aeb"),
    "sweep_crossing": ("sweep", {
        "op": "crossing", "process": SQ, "window": W6, "adjacency": "star",
        "p_grid": [0.35, 0.4, 0.45], "replicates": 20, "master_seed": 20}, {
        "summary.csv": "b9ee0421b14ff62d3424d5064e350c2590d3137117c93d5a80dbd69768dcef28",
        "sweep.csv": "be38906283499a3a5594e4bee677f908d9444bed378082228bca367dc4e60e6b"},
        "6742a4b7d6ed65c1134d2b4c73828121089e320f97645aae4ad608dcc8e8d942"),
    "theta_voronoi_face": ("run", {
        "op": "theta", "process": PV, "window": [[-5.0, -5.0], [5.0, 5.0]],
        "adjacency": "face", "p_grid": [0.5, 0.6], "replicates": 20, "master_seed": 25,
        "params": {"radii": [1, 2, 3]}}, {
        "theta.csv": "a91c5ea09bdabb6dcb1b2db49508200ecb574ab4d112e1df9b89a4f803314c7b"},
        "027ac025ab7fc4b16a1d7fe9400ec86fc3d2ea71906be656f3779c87c6afac35"),
    "crossing_voronoi_face": ("run", {
        "op": "crossing", "process": PV, "window": W4, "adjacency": "face",
        "p_grid": [0.4, 0.5, 0.6], "replicates": 50, "master_seed": 26,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "20ea32fb358062cbabd23950ed28eb02af18b57b863c2bf817cdb70c938ae1a5"},
        "32a461613f889715441938eab4ee87cd6a246bbb6139a2249757b70ed8af3665"),
    "crossing_hexagonal": ("run", {
        "op": "crossing", "process": HEX, "window": W4, "adjacency": "face",
        "p_grid": [0.4, 0.5, 0.6], "replicates": 50, "master_seed": 27,
        "params": {"rect": [[-3.2, -3.1], [3.4, 2.9]]}}, {
        "crossing.csv": "345e8aecd26eca81456e4a979865d506acab70cc9ae540d75352822659e2fd50"},
        "32a461613f889715441938eab4ee87cd6a246bbb6139a2249757b70ed8af3665"),
    "pc_square": ("run", {
        "op": "pc", "process": SQ, "window": [[-3.0, -3.0], [3.0, 3.0]],
        "adjacency": "face", "replicates": 50, "master_seed": 28,
        "params": {"tolerance": 0.1, "replicates_per_probe": 50}}, {
        "pc.csv": "ce53af97a52b109d770db3a687556e2f27c7b6d9ed803688987df15bc879aa04"},
        "23a29ec132eaf43566690a3799f4db9e2b67d5728150b47f12ec3682945af582"),
    "tameness": ("run", {
        "op": "tameness", "process": PV, "window": W6, "replicates": 4,
        "master_seed": 29, "params": {"delta": 1.0, "n_schedule": [1, 2, 4]}}, {
        "tameness.csv": "cdbcba8ebbd1191e2125808d721ea98e862bc6eaf63c8bdecbbb2f2c8f2a8973"},
        "410c274de8ad0d7e45fbf46f347d03519aaed0fdc869bebfb6aac2be16f76a66"),
    "sweep_smp_gap": ("sweep", {
        "op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
        "master_seed": 30,
        "params": {"family": "crossing", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                   "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0, 2.0]}}, {
        "summary.csv": "0114114dc93107d949587176ae4cf4f6895637b9fe3c3e5cf8afe4f67c195716"},
        "16d11ea6d0bf68fbbbafd20483e3263b2ce5859f5a1316bbba19b87539a3f9f4"),
    "void": ("run", {
        "op": "void", "process": PV, "window": W4, "replicates": 200, "master_seed": 35,
        "params": {"Q": [[0.0, 0.0], [1.0, 1.0]], "t_values": [0.5, 1.0, 1.5]}}, {
        "void.csv": "143a2ca79e2aaba7588264b4b2502de6e1c026e64740e1ae2310b6a98e4b733e"},
        "32a461613f889715441938eab4ee87cd6a246bbb6139a2249757b70ed8af3665"),
    "laplace": ("run", {
        "op": "laplace", "process": PV, "window": W4, "replicates": 1000, "master_seed": 36,
        "params": {"t": 0.3, "region": {"delta": 0.5, "ni": 2, "nj": 2}}}, {
        "laplace.csv": "b6da4ef728717bedf9b2cea8cd9dbbb70ac876e723c16e0f755e9bc0d9237144"},
        "95443f3217909081cf09fa7fcad5b1a8c383d5bac48c92bc0322bdddb6936dcf"),
    "line_smp": ("run", {
        "op": "line_smp", "process": LINES, "window": W4, "replicates": 100,
        "master_seed": 37, "params": {"t_schedule": [1.0, 2.0, 4.0], "angle_tol": 0.3}}, {
        "line_smp.csv": "0a4a98f08c78f6cd9c2f9743f0c90483a61535e1ec9dcfadcdda5c6ba2c91aa3"},
        "faf5ad09b258a9a664186818415989622bdc910d7473dfe642bdc7f6b07e0b35"),
    "smp_gap": ("run", {
        "op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
        "master_seed": 38,
        "params": {"family": "crossing", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                   "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0, 2.0]}}, {
        "smp_gap.csv": "bd9511e3eb2e81b389644db462c7f8f8c300debe552c3c472ff0a9c32a6b72c4"},
        "18db5213caddfb1fa18140f77f3112dfb35456a759d4006fcabc4fc701d5f9d9"),
    "smp_gap_void": ("run", {
        "op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 40,
        "master_seed": 102,
        "params": {"family": "void", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                   "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [0.5, 1.0, 1.5]}}, {
        "smp_gap.csv": "3981d1a067735b82bb7c2e739ca9ddc5e0320c70208b5237257f4cd668088c2e"},
        "f0d364459166a9be5093ac6a55b692e1f263780f373857c760a9b018a524f1d6"),
    "pc_square_unshifted": ("run", {
        "op": "pc", "process": SQ_FIXED, "window": W4, "adjacency": "face",
        "replicates": 50, "master_seed": 50,
        "params": {"tolerance": 0.1, "replicates_per_probe": 50}}, {
        "pc.csv": "d8bf0c6caacf7099a1130f0485395a0af57e5d7104e98bc199dac7d3f214874d"},
        "4314384d5afe1cb7df37c2727f4061fc2c07d608b5573b391971f543db00d7b8"),
    "crossing_square_unshifted_star_white": ("run", {
        "op": "crossing", "process": SQ_FIXED, "window": W6, "adjacency": "star",
        "p_grid": [0.55, 0.6, 0.65], "replicates": 50, "master_seed": 51,
        "params": {"rect": [[-4.5, -5.2], [5.1, 3.9]], "direction": "vertical",
                   "color": "white"}}, {
        "crossing.csv": "09dca417b3d01b93940233dac7c7e0c5551b3d1a06f1a18aeb984fcf2a5b67ef"},
        "32a461613f889715441938eab4ee87cd6a246bbb6139a2249757b70ed8af3665"),
    "sweep_crossing_hexagonal_unshifted": ("sweep", {
        "op": "crossing", "process": HEX_FIXED, "window": W4, "adjacency": "face",
        "p_grid": [0.4, 0.5, 0.6], "replicates": 20, "master_seed": 52,
        "params": {"rect": [[-3.2, -3.1], [3.4, 2.9]]}}, {
        "summary.csv": "93d48fd8241bd3ce8d81a8f15e2fda2a3878f2a678c92c15ec9b17fbcfbb71a9",
        "sweep.csv": "80ee8243847e87cef83f42e3fbd4c49fe877eab906c067b5401cb6e49fd07863"},
        "6742a4b7d6ed65c1134d2b4c73828121089e320f97645aae4ad608dcc8e8d942"),
    "theta_square_unshifted": ("run", {
        "op": "theta", "process": SQ_FIXED, "window": W6, "adjacency": "face",
        "p_grid": [0.6, 0.7], "replicates": 40, "master_seed": 54,
        "params": {"radii": [2, 4, 6]}}, {
        "theta.csv": "492cdbaa4b48c608464cedd62d281c9791c5dbdde26c120e140d0fd78f0bcd6b"},
        "027ac025ab7fc4b16a1d7fe9400ec86fc3d2ea71906be656f3779c87c6afac35"),
    "spanning_square_unshifted_star": ("run", {
        "op": "spanning", "process": SQ_FIXED, "window": W6, "adjacency": "star",
        "p_grid": [0.4, 0.5], "replicates": 100, "master_seed": 55,
        "params": {"analysis_window": [[-5.5, -2.2], [5.5, 2.3]]}}, {
        "spanning.csv": "3700654d94418c4f4aac632f4c69bb7416e200e2057ca131c6c19fe02bd9b6cd"},
        "de096127ad04ef8b799858f5b38d5ce6c4cf45e2cec4cdf36e0c2f92aeaf1c96"),
    "recursion_square_unshifted": ("run", {
        "op": "recursion", "process": SQ_FIXED, "window": [[0.0, 0.0], [11.7, 3.9]],
        "adjacency": "face", "p": 0.6, "replicates": 30, "master_seed": 56,
        "params": {"t": 1.3}}, {
        "recursion.csv": "9ec90668f2675d793f9f8977ef6f284dc88161157fb3aff4dc49d3d94f92799d"},
        "4ee34064147fc71c259d910353533df62374545c5e11118004e011383545b390"),
    "crossing_matern_cluster_parents": ("run", {
        "op": "crossing", "process": MATERN, "window": W4, "adjacency": "face",
        "p_grid": [0.45, 0.55], "replicates": 50, "master_seed": 60,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "3e1fa0a9196075984fb27c54106753a5d02c2c447e7ae9411b9f949b1b4c2309"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "crossing_thomas_cluster": ("run", {
        "op": "crossing", "process": THOMAS, "window": W4, "adjacency": "face",
        "p_grid": [0.45, 0.55], "replicates": 50, "master_seed": 61,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "928e84a0c3b50e9968207d3c64992e95d204134e955e5033575c488caa82300e"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "crossing_matern_hardcore_II": ("run", {
        "op": "crossing", "process": HARDCORE, "window": W4, "adjacency": "face",
        "p_grid": [0.45, 0.55], "replicates": 50, "master_seed": 62,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "9880e7e6e15bb5dc810ec56944fce5bafbad4acada94cd8a1ea52e943f716b42"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "crossing_perturbed_lattice": ("run", {
        "op": "crossing", "process": PERTURBED, "window": W4, "adjacency": "face",
        "p_grid": [0.45, 0.55], "replicates": 50, "master_seed": 63,
        "params": {"rect": [[-3.5, -3.0], [3.0, 3.5]]}}, {
        "crossing.csv": "3f7003d412eb0e5e0b3db20a005c07d1cc769402611ef6165cdeabb4c51b186d"},
        "67456591822caf45834c4199b5488c920348a00abb7fd134406cc5f2f6e68da9"),
    "ggr_voronoi_star": ("run", {
        "op": "ggr", "process": PV, "window": W6, "adjacency": "star", "p": 0.5,
        "replicates": 20, "master_seed": 74, "params": {"n_max": 3}}, {
        # g1 on B_2 and B_3 rose from 0.0722 and 0.0731 (daa4deb0…) to 0.0861 and
        # 0.0846 when clusters stopped joining through cells that miss the core
        "ggr.csv": "c9350947e5023054cdfaa9c111d76db5c3dc411899d8805ca53392ad620b5585"},
        "de096127ad04ef8b799858f5b38d5ce6c4cf45e2cec4cdf36e0c2f92aeaf1c96"),
    # the origin lies outside the window, so the ball is rooted at the centre cell
    "ggr_off_origin": ("run", {
        "op": "ggr", "process": SQ, "window": [[1.0, 1.0], [13.0, 13.0]], "adjacency": "face",
        "p": 0.6, "replicates": 20, "master_seed": 75, "params": {"n_max": 3}}, {
        "ggr.csv": "17e24922ca65e958dec8750a9871b7e1ed19af9349b9f2a873b446db169af452"},
        "de096127ad04ef8b799858f5b38d5ce6c4cf45e2cec4cdf36e0c2f92aeaf1c96"),
    "trifurcation_voronoi_face": ("run", {
        "op": "trifurcation_density", "process": {"kind": "poisson", "params": {"gamma": 2.0}},
        "window": [[-9.0, -9.0], [9.0, 9.0]], "adjacency": "face", "p": 0.55,
        "replicates": 30, "master_seed": 76, "params": {"r1": 1, "r2": 2.0}}, {
        "trifurcation_density.csv": "29b28cd76eeda24979c58113c1d015ce02a33c71938793ea7e5f9738aeb3b2a4"},
        "3aac855eb0571c662729939ec30e097f7bc1c89151fb0320896d8973683e4857"),
    "trifurcation_square_unshifted_star": ("run", {
        "op": "trifurcation_density", "process": SQ_FIXED,
        "window": [[-14.0, -14.0], [14.0, 14.0]], "adjacency": "star", "p": 0.5,
        "replicates": 20, "master_seed": 77, "params": {"r1": 1, "r2": 2.0}}, {
        "trifurcation_density.csv": "4ee30a436aa3dfc0676043a6ae2414f6f127afc2eb6eeffa0fa58b486e46fbc8"},
        "7d78459094e49742afc4dffaad152a3cd4e8a13e2aaf7a99f49c580103a2e81d"),
    # integer params: the CSV echoes laplace's t as written (1, not 1.0) and
    # run.json the line-process angle_tol as a float (1.0)
    "laplace_integer_t": ("run", {
        "op": "laplace", "process": PV, "window": W4, "replicates": 1000, "master_seed": 148,
        "params": {"t": 1, "region": {"delta": 1, "ni": 1, "nj": 2}}}, {
        "laplace.csv": "79d8c71147c05c8949912bd10ab8aa5dfa2930e269ec26b76f1cf1deb8f214c8"},
        "6d499a02fb348a33513fe28e1c6aca7a5ea138d4a789e52c54d0f8244cb85c59"),
    "tameness_integer_delta": ("run", {
        "op": "tameness", "process": PV, "window": W6, "replicates": 4, "master_seed": 149,
        "params": {"delta": 1, "n_schedule": [1, 2, 4]}}, {
        "tameness.csv": "d9e289046bc1f226efa18200c85c1da09e5baa99d5a7ec02fbef4a818046287b"},
        "6037fc303f8a010a763f10a730a6331d268ddfccc27858505cf53da9c5925662"),
    "line_smp_integer_angle_tol": ("run", {
        "op": "line_smp", "process": LINES, "window": W4, "replicates": 100,
        "master_seed": 150, "params": {"t_schedule": [1, 2], "angle_tol": 1}}, {
        "line_smp.csv": "918151214e494cf7762e587cdd684862c83f8469f8fe9d1a11c314927d47622f"},
        "e79dfb641f98fe581fae50556fc247cf830db9b8875997357214ee8af7ffdd94"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_harness_csv_digests(name, tmp_path):
    entry, cfg, digests, summary_digest = GOLDEN[name]
    record = getattr(harness, entry)(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    out = Path(record.out_dir)
    got = {p.name: _sha256(p.read_bytes()) for p in out.glob("*.csv")}
    assert got == digests
    summary = json.loads((out / "run.json").read_text())["summary"]
    assert _sha256(json.dumps(summary, sort_keys=True).encode()) == summary_digest


def _csv_bytes(record) -> dict:
    return {p.name: p.read_bytes() for p in Path(record.out_dir).glob("*.csv")}


@pytest.mark.parametrize("cfg", [
    {"op": "theta", "process": PV, "window": [[-5.0, -5.0], [5.0, 5.0]], "adjacency": "face",
     "p": 0.55, "replicates": 12, "master_seed": 31, "params": {"radii": [1, 3]}},
    {"op": "spanning", "process": SQ, "window": W4, "adjacency": "star", "p": 0.5,
     "replicates": 100, "master_seed": 32,
     "params": {"analysis_window": [[-3.5, -3.0], [3.5, 3.0]]}},
    {"op": "pc", "process": SQ_FIXED, "window": W4, "adjacency": "face", "replicates": 50,
     "master_seed": 49, "params": {"tolerance": 0.1, "replicates_per_probe": 50}},
    {"op": "tameness", "process": PV, "window": W6, "replicates": 4, "master_seed": 69,
     "params": {"delta": 1.0, "n_schedule": [1, 2, 4]}},
    {"op": "ggr", "process": PV, "window": W6, "adjacency": "star", "p": 0.5,
     "replicates": 12, "master_seed": 78, "params": {"n_max": 3}},
    {"op": "trifurcation_density", "process": SQ, "window": [[-14.0, -14.0], [14.0, 14.0]],
     "adjacency": "face", "p": 0.58, "replicates": 8, "master_seed": 79,
     "params": {"r1": 1, "r2": 2.0}},
    {"op": "void", "process": THOMAS, "window": W4, "replicates": 100, "master_seed": 103,
     "params": {"Q": [[0.0, 0.0], [1.0, 1.0]], "t_values": [0.5, 1.0, 0.0]}},
    {"op": "laplace", "process": MATERN, "window": W4, "replicates": 1000, "master_seed": 104,
     "params": {"t": 0.2, "region": {"delta": 0.5, "ni": 2, "nj": 3, "anchor": [-1, 0]}}},
    {"op": "line_smp", "process": LINES, "window": W4, "replicates": 60, "master_seed": 105,
     "params": {"t_schedule": [1.0, 2.0], "angle_tol": 0.4}},
    {"op": "smp_gap", "process": HARDCORE, "window": W4, "p": 0.5, "replicates": 30,
     "master_seed": 106,
     "params": {"family": "void", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [0.5, 1.0]}},
], ids=["theta_voronoi", "spanning_shifted_lattice", "pc_unshifted_lattice",
        "tameness_voronoi", "ggr_voronoi", "trifurcation_shifted_lattice", "void_thomas",
        "laplace_matern", "line_smp", "smp_gap_void_hardcore"])
def test_csvs_identical_across_worker_counts(cfg, tmp_path):
    path = _write_config(tmp_path, cfg)
    one = harness.run(path, out_dir=str(tmp_path / "w1"), workers=1)
    two = harness.run(path, out_dir=str(tmp_path / "w2"), workers=2)
    assert _csv_bytes(one) == _csv_bytes(two)
    assert _csv_bytes(one)


def _render_instance():
    core = Window((-3.0, -3.0), (3.0, 3.0))
    tess = build_voronoi(sample_poisson(1.0, core.expand(3.0), stream(33, 0, "tess")), core)
    return tess, color(tess, stream(33, 0, "color")) < 0.5


def test_render_svg_core_only_star_bytes(tmp_path):
    tess, col = _render_instance()
    out = tmp_path / "tess.svg"
    render_svg(tess, col, out, show_graph="star", core_only=True)
    # the drawing of the build that kept buffer cells (5165a7b5…), cell ids
    # renumbered to the kept cells
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "de2813d7bf8e241ccb505820dbef3bb8ea517910a17a3c1f269eb813f83dd27a")


def test_render_svg_full_window_draws_every_cell_and_face_pair(tmp_path):
    tess, col = _render_instance()
    out = tmp_path / "tess.svg"
    render_svg(tess, col, out, show_graph="face")
    text = out.read_text()
    lo, hi = tess.bboxes[:, :2].min(axis=0), tess.bboxes[:, 2:].max(axis=0)
    view = [float(v) for v in text.split('viewBox="')[1].split('"')[0].split()]
    assert view == pytest.approx([lo[0], -hi[1], hi[0] - lo[0], hi[1] - lo[1]], rel=1e-5)
    assert text.count("<polygon ") == len(tess)
    face_pairs = {tuple(sorted(map(int, pair))) for pair in tess.face_pairs}
    assert text.count("<line ") == len(face_pairs) > 0
    with pytest.raises(ParameterError):
        render_svg(tess, col, tmp_path / "edges.svg", show_graph="edges")


def test_peierls_probe_result_pinned():
    spec = ExperimentSpec(process=ProcessSpec.from_json(PV),
                          window=Window((-8.0, -8.0), (8.0, 8.0)), ps=(0.5,), replicates=10,
                          master_seed=34)
    res = diagnostics.peierls_probe(spec, 1.0, Window((-7.5, -7.5), (7.5, 7.5)),
                                    c3=0.5, c4=0.02, cycle_lengths=(8, 16))
    assert res == diagnostics.PeierlsResult(
        declined=False, reason="", cycle_lengths=[8, 16], estimates=[0.7, 0.4],
        sigmas=[0.13936099742505348, 0.14798927814636098],
        bounds=[0.9514940774912729, 0.9053409795009684], below_bound=[True, True],
        replicates=10, failed=0)


@pytest.mark.parametrize("process", [PV, SQ, HEX], ids=["voronoi", "square", "hexagonal"])
def test_peierls_hits_match_brute_force(process):
    """Per circuit, _peierls_rep's flag is whether every circuit box meets
    a white cell, found by rings_meet_boxes over every (box, white cell)
    pair, on 4 replicates at each of 3 p."""
    delta, window, lengths, seed = 1.0, Window((-7.5, -7.5), (7.5, 7.5)), (8, 16, 24), 161
    flags = []
    for p in (0.3, 0.5, 0.7):
        spec = ExperimentSpec(process=ProcessSpec.from_json(process),
                              window=Window((-8.0, -8.0), (8.0, 8.0)), ps=(p,), replicates=4,
                              master_seed=seed)
        for rep in range(spec.replicates):
            tess = build_tessellation(spec, rep)
            uniforms = uniforms_for(spec, rep, tess)
            white = np.nonzero(~(uniforms < p))[0]
            want = []
            for ln in lengths:
                ring = np.array(diagnostics._ring_boxes(ln, stream(seed, rep, f"cycle:{ln}")))
                hit = rings_meet_boxes(tess.poly_xy, tess.poly_ptr, np.tile(white, len(ring)),
                                       np.repeat(ring, len(white), axis=0), delta, tess.tol)
                want.append(bool(hit.reshape(len(ring), -1).any(axis=1).all()))
            assert diagnostics._peierls_rep(p, delta, window, lengths, seed, tess,
                                            uniforms, rep) == want
            flags += want
    assert True in flags and False in flags


@pytest.mark.parametrize("p", [0.01, 0.99])
def test_peierls_circuit_leaving_the_window_is_refused_at_every_p(p):
    """A circuit box outside the analysis window is an error whatever the
    colours, not only when every earlier box met a white cell."""
    spec = ExperimentSpec(process=ProcessSpec.from_json(SQ_FIXED),
                          window=Window((-8.0, -8.0), (8.0, 8.0)), ps=(p,), replicates=1,
                          master_seed=1)
    with pytest.raises(ParameterError, match="circuit box leaves the analysis window"):
        diagnostics.peierls_probe(spec, 1.0, Window((-3.5, -3.5), (3.5, 3.5)),
                                  c3=0.5, c4=0.02, cycle_lengths=(16,))


def test_peierls_analysis_window_must_lie_in_the_core_window():
    """A build keeps only the cells that meet the core window, so an analysis
    window past it would find no white cell there."""
    spec = ExperimentSpec(process=ProcessSpec.from_json(PV),
                          window=Window((-4.0, -4.0), (4.0, 4.0)), ps=(0.5,), replicates=1,
                          master_seed=1)
    with pytest.raises(ParameterError, match="analysis window must lie inside the core window"):
        diagnostics.peierls_probe(spec, 1.0, Window((-4.5, -4.5), (4.5, 4.5)),
                                  c3=0.5, c4=0.02, cycle_lengths=(8,))


def _fail_rep_1(build):
    def wrapped(spec, rep):
        if rep == 1:
            raise EdgeEffectError("forced failure")
        return build(spec, rep)
    return wrapped


def test_peierls_probe_counts_a_build_failure(monkeypatch):
    monkeypatch.setattr(diagnostics, "build_tessellation",
                        _fail_rep_1(diagnostics.build_tessellation))
    spec = ExperimentSpec(process=ProcessSpec.from_json(SQ),
                          window=Window((-4.0, -4.0), (4.0, 4.0)), ps=(0.5,), replicates=100,
                          master_seed=59)
    res = diagnostics.peierls_probe(spec, 1.0, Window((-3.0, -3.0), (3.0, 3.0)),
                                    c3=0.5, c4=0.02, cycle_lengths=(8,))
    assert (res.replicates, res.failed) == (99, 1)


def test_sweep_keeps_replicate_ids_after_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(estimators, "build_tessellation",
                        _fail_rep_1(estimators.build_tessellation))
    cfg = {"op": "crossing", "process": SQ, "window": [[-2.0, -2.0], [2.0, 2.0]],
           "p_grid": [0.4, 0.6], "replicates": 100, "master_seed": 21}
    record = harness.sweep(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    with open(Path(record.out_dir) / "sweep.csv", newline="") as fh:
        ids = {int(row["replicate"]) for row in csv.DictReader(fh)}
    assert 1 not in ids and 99 in ids
    assert ids == set(range(100)) - {1}


def test_smp_gap_sweep_reports_failures_in_run_json(tmp_path, monkeypatch):
    # the crossing family builds through estimators.estimate_crossing_curve
    monkeypatch.setattr(estimators, "build_tessellation",
                        _fail_rep_1(estimators.build_tessellation))
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


@pytest.mark.parametrize("cfg", [
    {"op": "crossing", "process": SQ, "window": W4, "p_grid": [0.3, 0.8], "replicates": 50,
     "master_seed": 172},
    {"op": "tameness", "process": PV, "window": W6, "replicates": 2, "master_seed": 173,
     "params": {"delta": 1.0, "n_schedule": [1, 2]}},
], ids=["p_grid_crossing", "tameness"])
def test_cli_render_without_p_colours_at_one_half(cfg, tmp_path):
    path = _write_config(tmp_path, cfg)
    assert main(["render", path, "--out", str(tmp_path / "cli.svg")]) == 0
    spec = harness.load_config(path).spec
    tess = build_tessellation(spec, 0)
    render_svg(tess, uniforms_for(spec, 0, tess) < 0.5, tmp_path / "api.svg")
    assert (tmp_path / "cli.svg").read_bytes() == (tmp_path / "api.svg").read_bytes()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = {"op": "crossing", "process": SQ, "window": [[-2.0, -2.0], [2.0, 2.0]],
           "p": 0.5, "replicates": 50, "master_seed": 24, "colour": "black"}
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "unknown top-level keys ['colour']" in capsys.readouterr().err


@pytest.mark.parametrize("op,params", [
    ("ggr", {"n_max": 2}),
    ("recursion", {"t": 1.0}),
    ("mixture", {"spacing": 1.0}),
    ("smp_gap", {"Q": [[-1.0, -1.0], [0.0, 0.0]], "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                 "t_schedule": [1.0]}),
    ("trifurcation_density", {"r1": 1, "r2": 2.0}),
])
def test_single_p_op_with_only_p_grid_is_a_config_error(op, params, tmp_path, capsys):
    cfg = {"op": op, "process": SQ, "window": W4, "p_grid": [0.5, 0.6], "replicates": 10,
           "master_seed": 39, "params": params}
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"op {op!r} needs 'p'" in capsys.readouterr().err
    assert not out.exists()


def _laplace_region(**region) -> dict:
    """A laplace config whose region is delta 0.5, ni = nj = 2 updated by region."""
    return {"op": "laplace", "process": PV, "window": W4, "replicates": 1000, "master_seed": 141,
            "params": {"t": 0.3, "region": {"delta": 0.5, "ni": 2, "nj": 2, **region}}}


@pytest.mark.parametrize("command,cfg", [
    ("sweep", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
               "master_seed": 40, "params": {"radii": [1]}}),
    ("sweep", {"op": "crossing", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
               "master_seed": 41}),
    ("run", {"op": "line_smp", "process": PV, "window": W4, "replicates": 10,
             "master_seed": 42, "params": {"t_schedule": [1.0], "angle_tol": 0.3}}),
    ("run", {"op": ["crossing"], "process": SQ, "window": W4, "p": 0.6, "replicates": 50,
             "master_seed": 43}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p_grid": 0.5, "replicates": 50,
             "master_seed": 44}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p_grid": [0.5, 1.5],
             "replicates": 50, "master_seed": 46}),
    ("run", {"op": "crossing", "process": {"kind": "poisson", "params": {"gamma": math.nan}},
             "window": W4, "p": 0.5, "replicates": 50, "master_seed": 64}),
    ("run", {"op": "crossing", "process": {"kind": "square_lattice",
                                           "params": {"spacing": math.inf}},
             "window": W4, "p": 0.5, "replicates": 50, "master_seed": 65}),
    ("run", {"op": "crossing", "process": {"kind": "square_lattice",
                                           "params": {"spacing": 1.0, "random_shift": "no"}},
             "window": W4, "p": 0.5, "replicates": 50, "master_seed": 66}),
    ("run", {"op": "crossing", "process": LINES, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 67}),
    ("run", {"op": "crossing", "process": {"kind": "poisson", "params": {"gamma": "1.5"}},
             "window": W4, "p": 0.5, "replicates": 50, "master_seed": 70}),
    ("run", {"op": "void", "process": SQ, "window": W4, "replicates": 50, "master_seed": 71,
             "params": {"Q": [[0.0, 0.0], [1.0, 1.0]], "t_values": [1.0]}}),
    ("run", {"op": "laplace", "process": HEX, "window": W4, "replicates": 50,
             "master_seed": 72,
             "params": {"t": 1.0, "region": {"delta": 1.0, "ni": 2, "nj": 2}}}),
    ("sweep", {"op": "smp_gap", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
               "master_seed": 73,
               "params": {"family": "void", "Q": [[-1.0, -1.0], [0.0, 0.0]],
                          "Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 80, "params": {"radii": "12"}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 81, "params": {"radii": []}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 82, "params": {"radii": [1, "2"]}}),
    ("run", {"op": "tameness", "process": PV, "window": W4, "replicates": 2,
             "master_seed": 83, "params": {"delta": 1.0, "n_schedule": []}}),
    ("run", {"op": "void", "process": PV, "window": W4, "replicates": 50, "master_seed": 84,
             "params": {"Q": [[0.0, 0.0], [1.0, 1.0]], "t_values": []}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
             "master_seed": 85,
             "params": {"Q": [[-1.5, -1.0], [-0.5, 0.0]], "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                        "t_schedule": []}}),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 86, "params": {"t_schedule": [1.0, True], "angle_tol": 0.3}}),
    ("run", {"op": "mixture", "process": SQ, "window": W4, "adjacency": "star", "p": 0.55,
             "replicates": 10, "master_seed": 87, "params": {"spacing": 1.0}}),
    ("run", {"op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]], "p": 0.6,
             "replicates": 0, "master_seed": 88, "params": {"t": 1.0}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": -4,
             "master_seed": 89, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": "3",
             "master_seed": 90, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 2.9,
             "master_seed": 91, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": True,
             "master_seed": 92, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 2,
             "master_seed": True, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 2,
             "master_seed": -1, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 2,
             "master_seed": 2 ** 64, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 2,
             "master_seed": "7", "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": PV, "window": W4, "buffer": -1, "p": 0.6,
             "replicates": 2, "master_seed": 93, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": PV, "window": W4, "buffer": "2", "p": 0.6,
             "replicates": 2, "master_seed": 94, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": PV, "window": W4, "buffer": True, "p": 0.6,
             "replicates": 2, "master_seed": 95, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": PV, "window": W4, "buffer": math.inf, "p": 0.6,
             "replicates": 2, "master_seed": 96, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": True, "replicates": 2,
             "master_seed": 97, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": "0.5", "replicates": 2,
             "master_seed": 98, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p_grid": [0.5, False],
             "replicates": 2, "master_seed": 99, "params": {"radii": [1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p_grid": ["0.5"], "replicates": 2,
             "master_seed": 100, "params": {"radii": [1]}}),
    ("run", {"op": "void", "process": PV, "window": W4, "replicates": 100, "master_seed": 110,
             "params": {"t_values": [1.0]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 111}),
    ("run", {"op": "pc", "process": SQ, "window": W4, "replicates": 50, "master_seed": 112,
             "params": {"replicates_per_probe": 50}}),
    ("run", {"op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]], "p": 0.6,
             "replicates": 10, "master_seed": 113}),
    ("run", {"op": "ggr", "process": SQ, "window": W6, "p": 0.6, "replicates": 10,
             "master_seed": 114}),
    ("run", {"op": "tameness", "process": PV, "window": W6, "replicates": 2,
             "master_seed": 115, "params": {"n_schedule": [1, 2]}}),
    ("run", {"op": "trifurcation_density", "process": SQ, "window": W6, "p": 0.58,
             "replicates": 2, "master_seed": 116, "params": {"r1": 1}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
             "master_seed": 117,
             "params": {"Qprime": [[0.5, 0.5], [1.5, 1.5]], "t_schedule": [1.0]}}),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 118, "params": {"t_schedule": [1.0]}}),
    ("run", {"op": "laplace", "process": PV, "window": W4, "replicates": 1000,
             "master_seed": 119, "params": {"t": 0.3, "region": {"delta": 0.5, "nj": 2}}}),
    ("run", {"op": "pc", "process": SQ, "window": W4, "replicates": 50, "master_seed": 120,
             "params": {"tolerance": 0.1, "replicates_per_probe": 2.9}}),
    ("run", {"op": "mixture", "process": SQ, "window": W4, "p": 0.55, "replicates": 10,
             "master_seed": 121, "params": {"replicates_per_component": 10}}),
    ("run", {"op": "trifurcation_density", "process": SQ, "window": W6, "p": 0.58,
             "replicates": 2, "master_seed": 122, "params": {"r1": 1.7, "r2": 2.0}}),
    ("run", {"op": "ggr", "process": SQ, "window": W6, "p": 0.6, "replicates": 10,
             "master_seed": 123, "params": {"n_max": True}}),
    ("run", {"op": "laplace", "process": PV, "window": W4, "replicates": 1000,
             "master_seed": 124, "params": {"t": 0.3, "region": {"delta": 0.5, "ni": "2",
                                                                  "nj": 2}}}),
    ("run", {"op": "laplace", "process": PV, "window": W4, "replicates": 1000,
             "master_seed": 125, "params": {"t": 0.3, "region": {"delta": 0.5, "ni": 2,
                                                                  "nj": 0}}}),
    ("run", _laplace_region(anchor="ab")),
    ("run", _laplace_region(anchor=[0.5, 0])),
    ("run", _laplace_region(anchor=[0, 0, 0])),
    ("run", _laplace_region(anhcor=[0, 0])),
    ("run", _laplace_region(delta=0)),
    ("run", _laplace_region(delta="0.5")),
    ("run", _laplace_region(delta=math.inf)),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 126, "params": {"t_schedule": [1.0], "angle_tol": "0.3"}}),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 127, "params": {"t_schedule": [1.0], "angle_tol": math.nan}}),
    ("run", {"op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]], "p": 0.6,
             "replicates": 10, "master_seed": 128, "params": {"t": [1]}}),
    ("run", {"op": "pc", "process": SQ, "window": W4, "replicates": 50, "master_seed": 129,
             "params": {"tolerance": True, "replicates_per_probe": 50}}),
    ("run", {"op": "tameness", "process": PV, "window": W6, "replicates": 2,
             "master_seed": 130, "params": {"delta": math.inf, "n_schedule": [1, 2]}}),
    ("run", {"op": "trifurcation_density", "process": SQ, "window": W6, "p": 0.58,
             "replicates": 2, "master_seed": 131, "params": {"r1": 1, "r2": "2.0"}}),
    ("run", {"op": "mixture", "process": SQ, "window": W4, "p": 0.55, "replicates": 10,
             "master_seed": 132, "params": {"spacing": None}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 133, "params": {"rect": "x"}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 134, "params": {"rect": [["-1", "-1"], ["1", "1"]]}}),
    ("run", {"op": "spanning", "process": SQ, "window": W4, "p": 0.5, "replicates": 100,
             "master_seed": 135, "params": {"analysis_window": [[-3.0, -3.0]]}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
             "master_seed": 136, "params": {"Q": [[0.0, 0.0], [-1.0, -1.0]],
                                            "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                                            "t_schedule": [1.0]}}),
    ("run", {"op": "void", "process": PV, "window": W4, "replicates": 100, "master_seed": 137,
             "params": {"Q": [[0.0, 0.0], [1.0, 1.0, 2.0]], "t_values": [1.0]}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 138, "params": {"direction": "diagonal"}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 139, "params": {"color": "red"}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
             "master_seed": 140, "params": {"family": "voids", "Q": [[-1.5, -1.0], [-0.5, 0.0]],
                                            "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                                            "t_schedule": [1.0]}}),
    ("run", {"op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]], "p": 0.6,
             "p_grid": [0.5, 0.6], "replicates": 10, "master_seed": 142, "params": {"t": 1.0}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "p_grid": [0.4, 0.5],
             "replicates": 20, "master_seed": 143,
             "params": {"Q": [[-1.5, -1.0], [-0.5, 0.0]], "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                        "t_schedule": [1.0]}}),
    ("run", {"op": "mixture", "process": SQ, "window": W4, "p": 0.55, "p_grid": [0.5, 0.55],
             "replicates": 10, "master_seed": 144, "params": {"spacing": 1.0}}),
    ("run", {"op": "trifurcation_density", "process": SQ,
             "window": [[-14.0, -14.0], [14.0, 14.0]], "p": 0.58, "p_grid": [0.5, 0.58],
             "replicates": 2, "master_seed": 145, "params": {"r1": 1, "r2": 2.0}}),
    ("run", {"op": "ggr", "process": SQ, "window": W6, "p": 0.6, "p_grid": [0.5, 0.6],
             "replicates": 10, "master_seed": 146, "params": {"n_max": 3}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "buffer": 3.0, "p": 0.5,
             "replicates": 50, "master_seed": 147}),
    ("run", {"op": "tameness", "process": PV, "window": W6, "replicates": 2,
             "master_seed": 151, "params": {"delta": 1.0, "n_schedule": [1.5, 2.5]}}),
    ("run", {"op": "tameness", "process": PV, "window": W6, "replicates": 2,
             "master_seed": 152, "params": {"delta": 0, "n_schedule": [1, 2]}}),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 153, "params": {"t_schedule": [1.0], "angle_tol": -0.3}}),
    ("run", {"op": "mixture", "process": SQ, "window": W4, "p": 0.55, "replicates": 10,
             "master_seed": 157, "params": {"spacing": 0}}),
    ("run", {"op": "recursion", "process": SQ, "window": [[0.0, 0.0], [9.0, 3.0]], "p": 0.6,
             "replicates": 10, "master_seed": 158, "params": {"t": 0}}),
    ("run", {"op": "trifurcation_density", "process": SQ, "window": W6, "p": 0.58,
             "replicates": 2, "master_seed": 159, "params": {"r1": 1, "r2": -2.0}}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.9, "p_grid": [0.3, 0.5],
             "replicates": 50, "master_seed": 160}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 162, "params": {"radii": [-1, 2]}}),
    ("run", {"op": "void", "process": PV, "window": W4, "replicates": 100, "master_seed": 163,
             "params": {"Q": [[0.0, 0.0], [1.0, 1.0]], "t_values": [0.5, -1.0]}}),
    ("run", {"op": "smp_gap", "process": PV, "window": W4, "p": 0.5, "replicates": 20,
             "master_seed": 164,
             "params": {"Q": [[-1.5, -1.0], [-0.5, 0.0]], "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                        "t_schedule": [-1.0, 1.0]}}),
    ("run", {"op": "line_smp", "process": LINES, "window": W4, "replicates": 10,
             "master_seed": 165, "params": {"t_schedule": [1.0, -2.0], "angle_tol": 0.3}}),
    ("run", {"op": "pc", "process": SQ, "window": W4, "replicates": 50, "master_seed": 166,
             "params": {"tolerance": 0.005, "replicates_per_probe": 50}}),
    ("run", {"op": "laplace", "process": PV, "window": W4, "replicates": 1000,
             "master_seed": 167, "params": {"t": -0.3, "region": {"delta": 0.5, "ni": 2,
                                                                   "nj": 2}}}),
    ("run", {"op": "crossing", "process": SQ, "window": [[-math.inf, -2.0], [2.0, 2.0]],
             "p": 0.5, "replicates": 50, "master_seed": 170}),
    ("run", {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 50,
             "master_seed": 171, "params": {"rect": [[-1.0, -1.0], [1.0, math.inf]]}}),
    ("run", {"op": "tameness", "process": PV, "window": W6, "replicates": 2,
             "master_seed": 174, "params": {"delta": 1.0, "n_schedule": [2, 1]}}),
    ("run", {"op": "theta", "process": SQ, "window": W4, "p": 0.6, "replicates": 10,
             "master_seed": 175, "params": {"radii": [3, 2]}}),
], ids=["sweep_of_theta", "crossing_sweep_without_p_grid", "line_smp_on_poisson",
        "op_not_a_string", "p_grid_not_a_list", "p_grid_out_of_range", "nan_parameter",
        "infinite_parameter", "flag_not_a_boolean", "crossing_on_poisson_line",
        "quoted_number_parameter", "void_on_square_lattice", "laplace_on_hexagonal_lattice",
        "smp_gap_void_on_square_lattice", "radii_not_a_list", "radii_empty",
        "radii_quoted_number", "n_schedule_empty", "t_values_empty", "t_schedule_empty",
        "t_schedule_boolean", "mixture_star_adjacency", "replicates_zero",
        "replicates_negative", "replicates_quoted", "replicates_fractional",
        "replicates_boolean", "master_seed_boolean", "master_seed_negative",
        "master_seed_too_large", "master_seed_quoted", "buffer_negative", "buffer_quoted",
        "buffer_boolean", "buffer_infinite", "p_boolean", "p_quoted", "p_grid_boolean",
        "p_grid_quoted", "void_without_Q", "theta_without_radii", "pc_without_tolerance",
        "recursion_without_t", "ggr_without_n_max", "tameness_without_delta",
        "trifurcation_density_without_r2", "smp_gap_without_Q", "line_smp_without_angle_tol",
        "laplace_region_without_ni", "replicates_per_probe_fractional",
        "replicates_per_component_unknown", "r1_fractional", "n_max_boolean", "region_ni_quoted",
        "region_nj_zero", "region_anchor_string", "region_anchor_fractional",
        "region_anchor_three_entries", "region_misspelled_key", "region_delta_zero",
        "region_delta_quoted", "region_delta_infinite", "angle_tol_quoted", "angle_tol_nan",
        "t_list", "tolerance_boolean", "delta_infinite", "r2_quoted", "spacing_null",
        "rect_string", "rect_quoted_corners", "analysis_window_one_corner", "Q_reversed",
        "Q_three_coordinates", "direction_diagonal", "color_red", "family_voids",
        "recursion_with_p_grid", "smp_gap_with_p_grid", "mixture_with_p_grid",
        "trifurcation_density_with_p_grid", "ggr_with_p_grid", "buffer_on_square_lattice",
        "n_schedule_fractional", "delta_zero", "angle_tol_negative", "spacing_zero",
        "recursion_t_zero", "r2_negative", "crossing_with_p_and_p_grid", "radii_negative",
        "t_values_negative", "t_schedule_negative", "line_smp_t_schedule_negative",
        "tolerance_below_0.01", "laplace_t_negative", "window_infinite", "rect_infinite",
        "n_schedule_decreasing", "radii_decreasing"])
def test_rejected_config_leaves_no_output_directory(command, cfg, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("process,message", [
    ({"kind": "poisson"}, "process: missing keys ['params']"),
    ({"params": {"gamma": 1.0}}, "process: missing keys ['kind']"),
    ([], "a process must be an object, got []"),
    ({**SQ, "extra": 1}, "process: unknown keys ['extra']"),
], ids=["without_params", "without_kind", "a_list", "process_extra_key"])
def test_malformed_process_is_a_config_error_naming_the_key(process, message, tmp_path,
                                                             capsys):
    cfg = {"op": "crossing", "process": process, "window": W4, "p": 0.5, "replicates": 10,
           "master_seed": 154}
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_render_of_a_rejected_config_writes_no_svg(tmp_path, capsys):
    cfg = {"op": "crossing", "process": SQ, "window": W4, "p": 0.5, "replicates": 10,
           "master_seed": 155, "params": {"color": "red"}}
    svg = tmp_path / "out.svg"
    assert main(["render", _write_config(tmp_path, cfg), "--out", str(svg)]) == 2
    assert "params 'color'" in capsys.readouterr().err
    assert not svg.exists()


def _valid_params(op) -> dict:
    """A value for every param of op that its parser takes."""
    values = {"Q": [[-1.5, -1.0], [-0.5, 0.0]], "Qprime": [[0.5, 0.5], [1.5, 1.5]],
              "rect": W4, "analysis_window": W4, "t_values": [1.0], "t_schedule": [1.0],
              "radii": [1], "n_schedule": [1, 2], "region": {"delta": 0.5, "ni": 2, "nj": 2},
              "direction": "vertical", "color": "white", "family": "crossing"}
    return {key: values.get(key, 1) for key in harness.OPS[op].params}


@pytest.mark.parametrize("op", sorted(harness.OPS))
def test_load_config_takes_exactly_the_parser_keys_of_each_op(op, tmp_path):
    """load_config accepts the op's parser keys and no other; leaving out a
    required one, or adding an unknown one, is a ConfigError naming it."""
    entry = harness.OPS[op]
    process = {"poisson_line": LINES}.get(entry.process, PV)
    cfg = {"op": op, "process": process, "window": W6, "replicates": 10, "master_seed": 156,
           "params": _valid_params(op), **({} if entry.p == harness.NO_P else {"p": 0.5})}
    assert harness.load_config(_write_config(tmp_path, cfg)).args.keys() == entry.params.keys()
    for key, parser in entry.params.items():
        if not isinstance(parser, tuple):  # a param without a default
            params = {k: v for k, v in cfg["params"].items() if k != key}
            with pytest.raises(ConfigError, match=f"missing key '{key}'"):
                harness.load_config(_write_config(tmp_path, {**cfg, "params": params}))
    with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
        harness.load_config(_write_config(tmp_path, {**cfg, "params": {**cfg["params"],
                                                                       "bogus": 1}}))


@pytest.mark.parametrize("key,value", [("p", 0.3), ("p_grid", [0.1, 0.9])])
@pytest.mark.parametrize("op", sorted(name for name, entry in harness.OPS.items()
                                      if entry.p == harness.NO_P))
def test_op_that_reads_no_p_refuses_p_and_p_grid(op, key, value, tmp_path, capsys):
    process = {"poisson_line": LINES}.get(harness.OPS[op].process, PV)
    cfg = {"op": op, "process": process, "window": W6, key: value, "replicates": 10,
           "master_seed": 168, "params": _valid_params(op)}
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"op {op!r} reads no p; drop 'p' and 'p_grid'" in capsys.readouterr().err
    assert not out.exists()


def test_tameness_run_reports_replicates_and_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(diagnostics, "build_tessellation",
                        _fail_rep_1(diagnostics.build_tessellation))
    cfg = {"op": "tameness", "process": SQ, "window": W4, "replicates": 100, "master_seed": 169,
           "params": {"delta": 1.0, "n_schedule": [1]}}
    record = harness.run(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    summary = json.loads((Path(record.out_dir) / "run.json").read_text())["summary"]
    assert (summary["replicates"], summary["failed"]) == (99, 1)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_out_of_range_seed_is_a_config_error(command, seed, tmp_path, capsys):
    _, cfg, _, _ = GOLDEN["sweep_crossing"]
    out = tmp_path / "out"
    assert main([command, _write_config(tmp_path, cfg), "--seed", seed, "--out", str(out)]) == 2
    assert "master_seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(KINDS))
def test_every_kind_answers_a_crossing_or_is_rejected_for_one(name, tmp_path):
    """A kind that samples points or names a lattice shape builds and answers
    a crossing; any other kind is rejected at load time."""
    kind = KINDS[name]
    cfg = {"op": "crossing", "process": {"kind": name, "params": dict.fromkeys(kind.params, 1.0)},
           "window": W4, "p": 0.5, "replicates": 50, "master_seed": 68}
    path = _write_config(tmp_path, cfg)
    if kind.sample is None and kind.lattice is None:
        with pytest.raises(ConfigError, match="no areal intensity"):
            harness.load_config(path)
        return
    spec = harness.load_config(path).spec
    tess = build_tessellation(spec, 0)
    graph = rect_graph(tess, spec.window, spec.adjacency)
    for p, crossed in ((0.0, False), (1.0, True)):
        black = uniforms_for(spec, 0, tess) < p
        assert crossing(graph, black, CrossingQuery(rect=spec.window)) is crossed


def test_cli_sweep_writes_the_harness_sweep_csvs(tmp_path):
    _, cfg, _, _ = GOLDEN["sweep_crossing"]
    path = _write_config(tmp_path, cfg)
    assert main(["sweep", path, "--out", str(tmp_path / "cli")]) == 0
    record = harness.sweep(path, out_dir=str(tmp_path / "api"))
    cli_out = tmp_path / "cli" / Path(record.out_dir).name
    assert _csv_bytes(record).keys() == {"sweep.csv", "summary.csv"}
    assert {p.name: p.read_bytes() for p in cli_out.glob("*.csv")} == _csv_bytes(record)


def _record_builds(monkeypatch) -> list:
    """The replicate id of every build_tessellation call of the estimators and
    diagnostics, in call order."""
    built = []
    for module in (estimators, diagnostics):
        monkeypatch.setattr(module, "build_tessellation",
                            lambda spec, rep, build=module.build_tessellation:
                            built.append(rep) or build(spec, rep))
    return built


# op -> (replicates, config keys) of a small run of each op that builds
# through the replicate runner
BUILD_COUNT_RUNS = {
    "crossing": (50, {"p_grid": [0.6, 0.4, 0.5]}),
    "theta": (20, {"p_grid": [0.6, 0.4, 0.5], "params": {"radii": [1, 2]}}),
    "spanning": (100, {"p_grid": [0.6, 0.4, 0.5],
                       "params": {"analysis_window": [[-3.5, -3.0], [3.5, 3.0]]}}),
    "trifurcation_density": (4, {"p": 0.58, "params": {"r1": 1, "r2": 2.0}}),
    "recursion": (10, {"p": 0.6, "window": [[0.0, 0.0], [9.0, 3.0]], "params": {"t": 1.0}}),
    "smp_gap": (10, {"p": 0.6, "params": {"Q": [[-1.0, -1.0], [0.0, 0.0]],
                                          "Qprime": [[0.5, 0.5], [1.5, 1.5]],
                                          "t_schedule": [1.0, 2.0]}}),
    "mixture": (10, {"p": 0.55, "params": {"spacing": 1.0}}),
    "tameness": (3, {"params": {"delta": 1.0, "n_schedule": [1, 2]}}),
}


@pytest.mark.parametrize("process", [SQ_FIXED, SQ], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("op", sorted(BUILD_COUNT_RUNS))
def test_each_op_builds_once_per_run_or_once_per_replicate(op, process, tmp_path,
                                                           monkeypatch):
    """An unshifted lattice is built once per run, a shifted one once per
    replicate. The mixture's two lattice components always shift, whatever
    the configured process. The trifurcation count builds one adjacency
    graph per build."""
    built = _record_builds(monkeypatch)
    graphs = []
    monkeypatch.setattr(estimators, "build_adjacency",
                        lambda tess, mode, build=estimators.build_adjacency:
                        graphs.append(mode) or build(tess, mode))
    replicates, keys = BUILD_COUNT_RUNS[op]
    cfg = {"op": op, "process": process, "window": W4, "replicates": replicates,
           "master_seed": 57, **keys}
    harness.run(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    if op == "mixture":
        assert sorted(built) == sorted(2 * list(range(replicates)))
    elif process is SQ_FIXED:
        assert built == [0]
    else:
        assert sorted(built) == list(range(replicates))
    if op == "trifurcation_density":
        assert len(graphs) == len(built)


def test_unshifted_trifurcation_run_grows_every_ball_in_one_call(tmp_path, monkeypatch):
    """The candidates' balls are prepared once per build, all in one
    hop_balls call, and an unshifted lattice builds once per run."""
    calls = []
    monkeypatch.setattr(estimators, "hop_balls",
                        lambda *args, grow=estimators.hop_balls: calls.append(args[2])
                        or grow(*args))
    _, cfg, digests, _ = GOLDEN["trifurcation_square_unshifted_star"]
    record = harness.run(_write_config(tmp_path, cfg), out_dir=str(tmp_path))
    assert {p.name: _sha256(p.read_bytes()) for p in Path(record.out_dir).glob("*.csv")} == digests
    assert len(calls) == 1 and len(calls[0]) == 25


@pytest.mark.parametrize("op,replicates,params", [
    ("crossing", 50, {}),
    ("theta", 20, {"radii": [1, 2]}),
    ("spanning", 100, {"analysis_window": [[-3.5, -3.0], [3.5, 3.0]]}),
])
def test_grid_run_rows_match_one_run_per_p(op, replicates, params, tmp_path):
    cfg = {"op": op, "process": SQ, "window": W4, "p_grid": [0.6, 0.4, 0.5],
           "replicates": replicates, "master_seed": 48, "params": params}
    record = harness.run(_write_config(tmp_path, cfg), out_dir=str(tmp_path / "grid"))
    with open(Path(record.out_dir) / f"{op}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # the grid's rows are those of one run per p, in config order
    want = []
    for p in cfg["p_grid"]:
        one = harness.run(_write_config(tmp_path, {**cfg, "p_grid": [p]}),
                          out_dir=str(tmp_path / str(p)))
        with open(Path(one.out_dir) / f"{op}.csv", newline="") as fh:
            want += list(csv.reader(fh))[1:]
    assert rows[1:] == want


def test_unshifted_lattice_is_built_once_per_crossing_estimate(tmp_path, monkeypatch):
    built = _record_builds(monkeypatch)
    _, cfg, _, _ = GOLDEN["pc_square_unshifted"]
    record = harness.run(_write_config(tmp_path, cfg), out_dir=str(tmp_path / "pc"))
    with open(Path(record.out_dir) / "pc.csv", newline="") as fh:
        probes = list(csv.DictReader(fh))
    assert len(built) == len(probes) > 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_fewer_than_one_worker(command, workers, tmp_path, capsys):
    _, cfg, _, _ = GOLDEN["sweep_crossing"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, _write_config(tmp_path, cfg), "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value,message", [
    ("two", "TESSPERC_WORKERS: must be an integer, got 'two'"),
    ("-3", "TESSPERC_WORKERS: must be at least 1, got -3"),
])
def test_cli_rejects_a_bad_tessperc_workers(value, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TESSPERC_WORKERS", value)
    _, cfg, _, _ = GOLDEN["sweep_crossing"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", _write_config(tmp_path, cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_seed_overrides_master_seed(tmp_path):
    _, cfg, _, _ = GOLDEN["sweep_crossing"]
    seeded = tmp_path / "seeded"
    seeded.mkdir()
    record = harness.sweep(_write_config(seeded, {**cfg, "master_seed": 7}),
                           out_dir=str(tmp_path / "api"))
    assert main(["sweep", _write_config(tmp_path, cfg), "--seed", "7",
                 "--out", str(tmp_path / "cli")]) == 0
    cli_out = tmp_path / "cli" / Path(record.out_dir).name
    assert {p.name: p.read_bytes() for p in cli_out.glob("*.csv")} == _csv_bytes(record)
    assert _csv_bytes(record) != _csv_bytes(harness.sweep(_write_config(tmp_path, cfg),
                                                          out_dir=str(tmp_path / "unseeded")))


@pytest.mark.parametrize("process", [SQ_FIXED, HEX_FIXED], ids=["square", "hexagonal"])
def test_cli_reports_a_lattice_on_a_sliver_window_as_an_error(process, tmp_path, capsys):
    cfg = {"op": "crossing", "process": process, "window": [[0, 0], [1e-12, 1]], "p": 0.5,
           "replicates": 50, "master_seed": 1}
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: no lattice cell meets the core window in positive area\n"


@pytest.mark.parametrize("color", ["black", "white"])
def test_crossing_sweep_summary_matches_run(color, tmp_path):
    cfg = {"op": "crossing", "process": SQ, "window": W6, "p_grid": [0.45, 0.55, 0.6],
           "replicates": 50, "master_seed": 11,
           "params": {"rect": [[-5.3, -3.7], [4.6, 4.2]], "color": color}}
    path = _write_config(tmp_path, cfg)
    ran = harness.run(path, out_dir=str(tmp_path / "run"))
    swept = harness.sweep(path, out_dir=str(tmp_path / "sweep"))
    assert _csv_bytes(swept)["summary.csv"] == _csv_bytes(ran)["crossing.csv"]


@pytest.mark.parametrize("command,out", [("run", "out"), ("render", "out.svg")])
def test_cli_reports_a_construction_failure_as_an_error(command, out, tmp_path, capsys):
    cfg = {"op": "ggr", "process": PV, "window": W4, "buffer": 0.2, "p": 0.5,
           "replicates": 2, "master_seed": 45, "params": {"n_max": 1}}
    assert main([command, _write_config(tmp_path, cfg), "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_theta_with_the_origin_outside_the_core_window_names_the_origin(tmp_path, capsys):
    # the core half-width min(-1, -1, 9, 9) is negative, but the origin is what is wrong
    cfg = {"op": "theta", "process": SQ, "window": [[1.0, 1.0], [9.0, 9.0]], "p": 0.6,
           "replicates": 10, "master_seed": 3, "params": {"radii": [1, 2]}}
    path = _write_config(tmp_path, cfg)
    with pytest.raises(ParameterError, match="^origin lies outside the core window$"):
        harness.run(path, out_dir=str(tmp_path / "run"))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: origin lies outside the core window\n"


_PC_PARAMS = {"params": {"tolerance": 0.2, "replicates_per_probe": 50}}


@pytest.mark.parametrize("op,seed,extra", [
    ("pc", 2 ** 64 - 1, _PC_PARAMS), ("pc", 2 ** 64 - 2, _PC_PARAMS),
    ("mixture", 2 ** 64 - 1, {"p": 0.55, "params": {"spacing": 1.0}})])
def test_cli_derived_seeds_wrap_below_two_to_the_64(op, seed, extra, tmp_path, capsys):
    # pc seeds probe k with master_seed + k + 1, mixture its hexagonal
    # component with master_seed + 1, both modulo 2**64
    cfg = {"op": op, "process": SQ, "window": W4, "replicates": 10, "master_seed": seed,
           **extra}
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (run_dir,) = out.iterdir()
    assert (run_dir / f"{op}.csv").exists()
    if op == "pc":
        probes = list(csv.DictReader((run_dir / "pc.csv").read_text().splitlines()))
        assert len(probes) >= 2
