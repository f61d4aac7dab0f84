"""The benchmark's workloads: generated harness configs and output oracles.

Each workload is one harness entry point (`run` or `sweep`) applied to a
config generated from the workload seed, which becomes `master_seed`. The
oracle reads the CSVs and run.json that the entry point wrote and says
whether the answer is right; the counts say how many replicates were
attempted and how many failed, read from the same files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PV = {"kind": "poisson", "params": {"gamma": 1.0}}
SQUARE = {"kind": "square_lattice", "params": {"spacing": 1.0}}
SQUARE_SHIFTED = {"kind": "square_lattice", "params": {"spacing": 1.0, "random_shift": True}}

SQUARE_SITE_PC = 0.5927  # square-lattice site percolation threshold
ORACLE_Z = 3.29  # two-sided 99.9% normal quantile


def wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval; kept here so the oracle does not rest on the code it checks."""
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


def _window(half: float) -> list:
    return [[-half, -half], [half, half]]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Counts:
    attempted: int  # replicates attempted in one solve
    failed: int  # replicates that failed construction in one solve


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # harness entry point: "run" or "sweep"
    why: str
    config: Callable[..., dict]  # (seed, reduced=False) -> harness config
    counts: Callable[[Path, dict], Counts]  # (output dir, config) -> counts
    oracle: Callable[[Path, dict], str | None]  # (output dir, config) -> failure reason


# -- pv_crossing_L20 ---------------------------------------------------------

def _pv_crossing_config(seed: int, reduced: bool = False) -> dict:
    return {"op": "crossing", "process": PV, "window": _window(4 if reduced else 10),
            "adjacency": "face", "p": 0.5, "replicates": 50, "master_seed": seed,
            "params": {"direction": "horizontal", "color": "black"}}


def _crossing_counts(out: Path, cfg: dict) -> Counts:
    rows = read_csv(out / "crossing.csv")
    return Counts(sum(int(r["replicates"]) + int(r["failed"]) for r in rows),
                  sum(int(r["failed"]) for r in rows))


def _pv_crossing_oracle(out: Path, cfg: dict) -> str | None:
    # Self-duality at p = 1/2 makes the square crossing probability exactly 1/2
    # (Bollobas-Riordan, PTRF 2006).
    (row,) = read_csv(out / "crossing.csv")
    n = int(row["replicates"])
    hits = round(float(row["estimate"]) * n)
    lo, hi = wilson(hits, n, ORACLE_Z)
    if not lo <= 0.5 <= hi:
        return f"crossing {hits}/{n}: z={ORACLE_Z} Wilson interval [{lo:.3f}, {hi:.3f}] misses 1/2"
    return None


# -- sq_pc_L16 ---------------------------------------------------------------

def _sq_pc_config(seed: int, reduced: bool = False) -> dict:
    # At tolerance 0.1 the bisection nearly always stops after the same 4
    # probes, so the time to the answer hardly depends on the seed.
    return {"op": "pc", "process": SQUARE, "window": _window(4 if reduced else 8),
            "adjacency": "face", "replicates": 50, "master_seed": seed,
            "params": {"tolerance": 0.1, "replicates_per_probe": 50}}


def _pc_counts(out: Path, cfg: dict) -> Counts:
    rows = read_csv(out / "pc.csv")
    per_probe = int(cfg["params"]["replicates_per_probe"])
    attempted = per_probe * len(rows)
    return Counts(attempted, attempted - sum(int(r["replicates"]) for r in rows))


def _sq_pc_oracle(out: Path, cfg: dict) -> str | None:
    lo, hi = json.loads((out / "run.json").read_text())["summary"]["interval"]
    tol = float(cfg["params"]["tolerance"])
    if not lo - tol <= SQUARE_SITE_PC <= hi + tol:
        return f"p_c interval [{lo}, {hi}] widened by {tol} misses {SQUARE_SITE_PC}"
    return None


# -- sq_sweep_star_L48 -------------------------------------------------------

def _sq_sweep_config(seed: int, reduced: bool = False) -> dict:
    return {"op": "crossing", "process": SQUARE_SHIFTED,
            "window": _window(4 if reduced else 24), "adjacency": "star",
            "p_grid": [round(0.30 + 0.02 * k, 2) for k in range(11)],
            "replicates": 4 if reduced else 3, "master_seed": seed,
            "params": {"direction": "horizontal"}}


def _sweep_counts(out: Path, cfg: dict) -> Counts:
    row = read_csv(out / "summary.csv")[0]
    return Counts(int(row["replicates"]) + int(row["failed"]), int(row["failed"]))


def _sq_sweep_oracle(out: Path, cfg: dict) -> str | None:
    est = [float(r["estimate"]) for r in read_csv(out / "summary.csv")]
    if any(b < a for a, b in zip(est, est[1:])):
        return f"sweep summary is not nondecreasing in p: {est}"
    if not est[0] < 0.5 < est[-1]:
        return f"sweep summary does not cross 1/2 inside the grid: {est}"
    return None


# -- pv_theta_L40 ------------------------------------------------------------

def _pv_theta_config(seed: int, reduced: bool = False) -> dict:
    return {"op": "theta", "process": PV, "window": _window(4 if reduced else 20),
            "adjacency": "face", "p": 0.6, "replicates": 20 if reduced else 10,
            "master_seed": seed,
            "params": {"radii": [1, 2, 4] if reduced else [5, 10, 20]}}


def _theta_counts(out: Path, cfg: dict) -> Counts:
    row = read_csv(out / "theta.csv")[0]
    return Counts(int(row["replicates"]) + int(row["failed"]), int(row["failed"]))


def _pv_theta_oracle(out: Path, cfg: dict) -> str | None:
    rows = read_csv(out / "theta.csv")
    est = [float(r["estimate"]) for r in sorted(rows, key=lambda r: float(r["radius"]))]
    if any(b > a for a, b in zip(est, est[1:])):
        return f"theta estimates are not nonincreasing in radius: {est}"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("pv_crossing_L20", "run",
             "Voronoi crossing at one p: build-bound (Qhull and cell clipping), so Voronoi build and memory work shows",
             _pv_crossing_config, _crossing_counts, _pv_crossing_oracle),
    Workload("sq_pc_L16", "run",
             "time to a p_c bracket of stated tolerance: bisection rebuilds one fixed lattice per replicate",
             _sq_pc_config, _pc_counts, _sq_pc_oracle),
    Workload("sq_sweep_star_L48", "sweep",
             "star-adjacency sweep over 11 p: query-bound, and the random shift bypasses any lattice cache",
             _sq_sweep_config, _sweep_counts, _sq_sweep_oracle),
    Workload("pv_theta_L40", "run",
             "theta on Voronoi: the only workload through build_adjacency, zero_cell and cluster_reach",
             _pv_theta_config, _theta_counts, _pv_theta_oracle),
)}
