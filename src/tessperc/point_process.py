"""Planar point-process samplers, the process table and a Laplace reference.

Supported processes: homogeneous Poisson, Matern and Thomas cluster
processes, Matern type-II hard-core thinning, perturbed square lattices and
an isotropic Poisson line process; the square and hexagonal lattices are
built as tessellations directly. All samplers are pure functions of a stream
handle, so replicates parallelize without shared state. Each kind is one
entry of KINDS, so a new kind is one entry plus its sampler. laplace_bound
is the analytic reference of diagnostics.estimate_laplace_functional; the
Monte Carlo estimators of a process live in diagnostics, on the replicate
runner. sample_matern_hardcore imports scipy.spatial when it first runs, not
at module load, so a run of any other kind never pays that import.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import Window, region_index_range

# Gaussian offsets beyond 6 sigma are discarded (mass < 1e-8); makes the
# Thomas process exactly restrictable with a finite parent buffer.
THOMAS_TRUNCATION_SIGMAS = 6.0


@dataclass(frozen=True)
class Kind:
    """A process kind: its required parameters (positive, or zero when in
    may_be_zero), optional boolean flags, intensity(spec) in points per unit
    area, restriction buffer(spec), sample(spec, window, rng) and, for a
    lattice, the cell shape build_lattice_tessellation builds. None stands
    for no areal intensity or no planar sampler."""

    params: tuple
    intensity: Callable | None
    sample: Callable | None = None
    buffer: Callable = lambda spec: 0.0
    may_be_zero: tuple = ()
    flags: tuple = ()
    lattice: str | None = None


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a point process: kind + parameter map."""

    kind: str
    params: dict

    def __post_init__(self):
        entry = KINDS.get(self.kind)
        if entry is None:
            raise ParameterError(f"unknown process kind {self.kind!r}")
        for name in entry.params:
            if name not in self.params:
                raise ParameterError(f"{self.kind}: missing parameter {name!r}")
            value = self.params[name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{self.kind}: {name!r} must be a number")
            if not (0 < value < math.inf or (value == 0 and name in entry.may_be_zero)):
                raise ParameterError(f"{self.kind}: {name!r} must be finite and positive")
        for name in set(entry.flags).intersection(self.params):
            if not isinstance(self.params[name], bool):
                raise ParameterError(f"{self.kind}: flag {name!r} must be true or false")
        unknown = set(self.params) - set(entry.params) - set(entry.flags)
        if unknown:
            raise ParameterError(f"{self.kind}: unknown parameters {sorted(unknown)}")

    def __getitem__(self, name):
        return float(self.params[name])

    def intensity(self) -> float:
        """Mean number of points per unit area."""
        intensity = KINDS[self.kind].intensity
        if intensity is None:
            raise ParameterError(f"{self.kind} has no areal intensity")
        return intensity(self)

    def restriction_buffer(self) -> float:
        """Margin so that sampling on window+margin restricts exactly to window."""
        return KINDS[self.kind].buffer(self)

    @staticmethod
    def from_json(obj) -> "ProcessSpec":
        if not isinstance(obj, dict):
            raise ParameterError(f"a process must be an object, got {obj!r}")
        missing = [key for key in ("kind", "params") if key not in obj]
        if missing:
            raise ParameterError(f"process: missing keys {missing}")
        unknown = set(obj) - {"kind", "params"}
        if unknown:
            raise ParameterError(f"process: unknown keys {sorted(unknown)}")
        return ProcessSpec(obj["kind"], dict(obj["params"]))


@dataclass
class PointConfiguration:
    """A finite sampled configuration restricted to a window."""

    points: np.ndarray
    window: Window

    def __post_init__(self):
        self.points = np.asarray(self.points, float).reshape(-1, 2)
        if len(self.points) and not self.window.contains_points(self.points).all():
            raise ParameterError("configuration contains points outside its window")

    def __len__(self):
        return len(self.points)


def sample_poisson(gamma: float, window: Window, rng: np.random.Generator) -> PointConfiguration:
    """Homogeneous Poisson process on a window."""
    if gamma <= 0:
        raise ParameterError("poisson intensity must be positive")
    n = rng.poisson(gamma * window.area)
    lo, hi = np.asarray(window.lo), np.asarray(window.hi)
    pts = lo + rng.random((n, 2)) * (hi - lo)
    return PointConfiguration(pts, window)


def _cluster_offsets(spec: ProcessSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "matern_cluster":
        r = spec["radius"] * np.sqrt(rng.random(count))
        ang = rng.random(count) * 2.0 * np.pi
        return np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    sigma = spec["sigma"]
    cap = THOMAS_TRUNCATION_SIGMAS * sigma
    off = rng.normal(0.0, sigma, size=(count, 2))
    bad = np.linalg.norm(off, axis=1) > cap
    while bad.any():
        off[bad] = rng.normal(0.0, sigma, size=(int(bad.sum()), 2))
        bad = np.linalg.norm(off, axis=1) > cap
    return off


def sample_cluster_process(spec: ProcessSpec, window: Window,
                           rng: np.random.Generator) -> PointConfiguration:
    """Poisson cluster process (Matern or Thomas offspring) restricted to window.

    Parents live on window + spec.restriction_buffer(), the maximal offspring
    reach, so the restriction to the window is exact. With the spec's
    include_parents flag the parents inside the window are points too.
    """
    if spec.kind not in ("matern_cluster", "thomas_cluster"):
        raise ParameterError("cluster sampler needs a matern_cluster or thomas_cluster spec")
    parent_window = window.expand(spec.restriction_buffer())
    parents = sample_poisson(spec["gamma0"], parent_window, rng).points
    counts = rng.poisson(spec["mu"], size=len(parents))
    total = int(counts.sum())
    offsets = _cluster_offsets(spec, total, rng)
    pts = np.repeat(parents, counts, axis=0) + offsets
    if spec.params.get("include_parents", False):
        pts = np.vstack([pts, parents]) if total else parents
    keep = window.contains_points(pts) if len(pts) else np.zeros(0, bool)
    return PointConfiguration(np.compress(keep, pts, axis=0) if len(pts) else np.empty((0, 2)),
                              window)


def sample_matern_hardcore(gamma_proposal: float, hardcore_radius: float, window: Window,
                           rng: np.random.Generator) -> PointConfiguration:
    """Matern type-II thinning: keep a proposal iff no closer-marked proposal within r."""
    if hardcore_radius <= 0:
        raise ParameterError("hard-core radius must be positive")
    proposal_window = window.expand(hardcore_radius)
    proposals = sample_poisson(gamma_proposal, proposal_window, rng).points
    marks = rng.random(len(proposals))
    keep = np.ones(len(proposals), bool)
    if len(proposals):
        from scipy.spatial import cKDTree

        i, j = cKDTree(proposals).query_pairs(hardcore_radius, output_type="ndarray").T
        keep[np.where(marks[i] < marks[j], j, i)] = False
    pts = np.compress(keep, proposals, axis=0)
    inside = window.contains_points(pts) if len(pts) else np.zeros(0, bool)
    return PointConfiguration(np.compress(inside, pts, axis=0) if len(pts) else pts, window)


def sample_perturbed_lattice(spacing: float, perturbation_scale: float, window: Window,
                             rng: np.random.Generator) -> PointConfiguration:
    """Square lattice sites jittered by iid uniform square offsets, restricted to window."""
    if spacing <= 0:
        raise ParameterError("lattice spacing must be positive")
    if perturbation_scale < 0:
        raise ParameterError("perturbation scale must be nonnegative")
    margin = perturbation_scale / 2.0
    i0 = math.ceil((window.lo[0] - margin) / spacing)
    i1 = math.floor((window.hi[0] + margin) / spacing)
    j0 = math.ceil((window.lo[1] - margin) / spacing)
    j1 = math.floor((window.hi[1] + margin) / spacing)
    if i1 < i0 or j1 < j0:
        return PointConfiguration(np.empty((0, 2)), window)
    ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
    sites = np.column_stack([ii.ravel() * spacing, jj.ravel() * spacing]).astype(float)
    if perturbation_scale > 0:
        sites = sites + (rng.random(sites.shape) - 0.5) * perturbation_scale
    keep = window.contains_points(sites, closed=False)
    return PointConfiguration(np.compress(keep, sites, axis=0), window)


def sample_poisson_lines(line_intensity: float, disc_radius: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Isotropic Poisson line process hitting a disc of the given radius.

    Lines are parametrized as {x : x . (cos theta, sin theta) = r} with
    intensity measure line_intensity * dtheta x dr on [0, pi) x [-R, R], so
    the mean number of lines is line_intensity * 2R * pi and the expected
    number of lines hitting a fixed segment of length L is
    2 * line_intensity * L.
    """
    if line_intensity < 0:
        raise ParameterError("line intensity must be nonnegative")
    if disc_radius <= 0:
        raise ParameterError("disc radius must be positive")
    n = rng.poisson(line_intensity * 2.0 * disc_radius * np.pi)
    theta = rng.random(n) * np.pi
    r = (rng.random(n) * 2.0 - 1.0) * disc_radius
    return np.column_stack([theta, r]) if n else np.empty((0, 2))


def _hardcore_intensity(spec: ProcessSpec) -> float:
    g, r = spec["gamma_proposal"], spec["hardcore_radius"]
    return (1.0 - math.exp(-g * math.pi * r * r)) / (math.pi * r * r)


# The single table of process kinds.
KINDS = {
    "poisson": Kind(
        ("gamma",), lambda spec: spec["gamma"],
        lambda spec, window, rng: sample_poisson(spec["gamma"], window, rng)),
    "matern_cluster": Kind(
        ("gamma0", "mu", "radius"), lambda spec: spec["gamma0"] * spec["mu"],
        sample_cluster_process, buffer=lambda spec: spec["radius"], flags=("include_parents",)),
    "thomas_cluster": Kind(
        ("gamma0", "mu", "sigma"), lambda spec: spec["gamma0"] * spec["mu"],
        sample_cluster_process, buffer=lambda spec: THOMAS_TRUNCATION_SIGMAS * spec["sigma"],
        flags=("include_parents",)),
    "matern_hardcore_II": Kind(
        ("gamma_proposal", "hardcore_radius"), _hardcore_intensity,
        lambda spec, window, rng: sample_matern_hardcore(
            spec["gamma_proposal"], spec["hardcore_radius"], window, rng),
        buffer=lambda spec: spec["hardcore_radius"]),
    "perturbed_lattice": Kind(
        ("spacing", "perturbation_scale"), lambda spec: 1.0 / spec["spacing"] ** 2,
        lambda spec, window, rng: sample_perturbed_lattice(
            spec["spacing"], spec["perturbation_scale"], window, rng),
        buffer=lambda spec: spec["spacing"] / 2.0 + spec["perturbation_scale"] / 2.0,
        may_be_zero=("perturbation_scale",)),  # 0: the exact lattice
    "poisson_line": Kind(("line_intensity",), None),
    "square_lattice": Kind(
        ("spacing",), lambda spec: 1.0 / spec["spacing"] ** 2,
        flags=("random_shift",), lattice="square"),
    "hexagonal_lattice": Kind(
        ("spacing",), lambda spec: 2.0 / (math.sqrt(3.0) * spec["spacing"] ** 2),
        flags=("random_shift",), lattice="hexagonal"),
}


def sample_process(spec: ProcessSpec, window: Window,
                   rng: np.random.Generator) -> PointConfiguration:
    """Sample any areal process restricted to a window (edge effects handled)."""
    sample = KINDS[spec.kind].sample
    if sample is None:
        raise ParameterError(f"{spec.kind} does not sample to a planar configuration")
    return sample(spec, window, rng)


def laplace_bound(spec: ProcessSpec, t: float, delta: float, region: Window) -> dict:
    """Analytic reference for E[exp(t N(region))] where that is available,
    N counting the points in the delta-boxes that lie fully inside region.

    Poisson: the exact Laplace functional. Cluster processes: the product
    bound exp(gamma0 * delta^d * (E[e^{tN}] - 1) * n_boxes); the exponent
    uses delta^d (the proof version) and the discrepancy with the delta
    printed in the statement is flagged in the metadata.
    """
    i0, i1, j0, j1 = region_index_range(region, delta)
    n = (i1 - i0 + 1) * (j1 - j0 + 1)
    if spec.kind == "poisson":
        value = math.exp(spec["gamma"] * (math.exp(t) - 1.0) * (n * delta ** 2))
        return {"kind": "exact", "value": value}
    if spec.kind in ("matern_cluster", "thomas_cluster"):
        mgf = math.exp(spec["mu"] * (math.exp(t) - 1.0))  # offspring count ~ Poisson(mu)
        value = math.exp(spec["gamma0"] * delta ** 2 * (mgf - 1.0) * n)
        return {"kind": "upper_bound", "value": value,
                "note": "exponent uses delta^d * n (proof version); the statement prints delta * n"}
    return {"kind": "none", "value": float("nan")}
