"""Void probabilities and Laplace functionals of a point process,
scale-mixing gap curves, the line-process counterexample, the lattice
mixture demo, tameness curves and the white-circuit probe. Every diagnostic
reads the process, its one p spec.p (if any), the replicate count and the
seed from its ExperimentSpec. Those that read crossings (the smp gap's
crossing family and the mixture demo) ask them of
estimators.estimate_crossing_curve, the one crossing path. The others map a
per-replicate function with experiment.map_replicates, or with
run_replicates when they colour a tessellation. The Laplace count and the
probe's white boxes come from gridfield's two grid kernels, box_counts and
cell_box_pairs, as Y and U do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import EstimatorFailure, ParameterError
from .experiment import (ExperimentSpec, as_built, build_tessellation, map_replicates,
                         run_replicates)
from .geometry import Window, boxes_window, region_index_range
from .gridfield import (box_counts, cell_box_pairs, compute_U_field, compute_Y_field,
                        greedy_animal_max)
from .estimators import estimate_crossing_curve
from .percolation import CrossingQuery
from .point_process import ProcessSpec, laplace_bound, sample_poisson_lines, sample_process
from .stats import PercResult, mean_ci, wilson_sigma
from .streams import MAX_SEED, stream


def gap_from_indicators(e, ep):
    """Empirical |cov| of two indicator sequences with its standard error.

    P[E and E'] - P[E] P[E'] equals the empirical covariance of the
    indicators, so the per-replicate products (e_i - mean)(ep_i - mean)
    give an SE that accounts for the replicate-level correlation.
    """
    e = np.asarray(e, float)
    ep = np.asarray(ep, float)
    n = len(e)
    if n < 2 or len(ep) != n:
        raise ParameterError("need two indicator vectors of equal length >= 2")
    pe, pep = e.mean(), ep.mean()
    w = (e - pe) * (ep - pep)
    cov = float(w.mean())
    sigma = float(w.std(ddof=1) / math.sqrt(n))
    return abs(cov), sigma, float((e * ep).mean()), float(pe), float(pep)


def _void_rep(spec: ExperimentSpec, window: Window, tag: str, rects, rep: int) -> tuple:
    """Per rect, 1 when no point of replicate rep's sample of the spec's
    process on window, drawn from stream tag, lies in it, else 0. A rect of
    None is empty, so it is always void."""
    pts = sample_process(spec.process, window, stream(spec.master_seed, rep, tag)).points
    return tuple(0 if rect is not None and len(pts) and rect.contains_points(pts).any() else 1
                 for rect in rects)


def estimate_void_probability(spec: ExperimentSpec, Q: Window, t_values,
                              workers: int = 1) -> list[dict]:
    """Empirical P[no point of the spec's process in tQ] per t, with Wilson
    95% intervals.

    tQ scales about Q's lower corner so the regions are nested across t and a
    single configuration per replicate, sampled on the largest, serves every t.
    """
    if spec.replicates < 100:
        raise ParameterError("void estimator needs at least 100 replicates")
    t_values = [float(t) for t in t_values]
    if any(t < 0 for t in t_values):
        raise ParameterError("t values must be nonnegative")
    t_max = max(t_values)
    if t_max == 0:
        return [{"t": t, "estimate": 1.0, "ci": (1.0, 1.0), "replicates": spec.replicates}
                for t in t_values]
    rects = [Q.scaled(t, about=Q.lo) if t > 0 else None for t in t_values]
    vals, _ = map_replicates(partial(_void_rep, spec, Q.scaled(t_max, about=Q.lo), "void", rects),
                             spec.replicates, workers)
    per_t = [PercResult.from_counts(sum(v[k] for v in vals), len(vals)) for k in range(len(rects))]
    return [{"t": t, "estimate": r.estimate, "ci": r.ci, "replicates": r.replicates}
            for t, r in zip(t_values, per_t)]


def _laplace_rep(spec: ExperimentSpec, t: float, delta: float, region: Window, window: Window,
                 rep: int) -> float:
    """exp(t * N(region)) of replicate rep's sample of the spec's process on window."""
    pts = sample_process(spec.process, window, stream(spec.master_seed, rep, "laplace")).points
    arg = t * int(box_counts(pts, delta, region).values.sum())
    if arg > 700.0:
        raise EstimatorFailure(f"exp overflow in laplace estimator (t*count = {arg:.1f}); reduce t")
    return math.exp(arg)


def estimate_laplace_functional(spec: ExperimentSpec, t: float, delta: float, region: Window,
                                workers: int = 1) -> dict:
    """Monte Carlo E[exp(t * N(region))] of the spec's process, N counting
    the points in the delta-boxes that lie fully inside region, with
    point_process.laplace_bound as an analytic side-by-side reference."""
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if spec.replicates < 1000:
        raise ParameterError("laplace estimator needs at least 1000 replicates")
    window = region.expand(spec.process.restriction_buffer() + 1e-9)
    vals, _ = map_replicates(partial(_laplace_rep, spec, t, delta, region, window),
                             spec.replicates, workers)
    estimate, ci = mean_ci(vals)
    if not math.isfinite(estimate):
        raise EstimatorFailure("laplace estimate overflowed to non-finite value")
    return {"estimate": estimate, "ci": ci, "replicates": len(vals),
            "reference": laplace_bound(spec.process, t, delta, region)}


@dataclass
class SmpGapCurve:
    t_values: list
    p_joint: list
    p_product: list
    gap: list
    sigma: list
    replicates: int
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_indicators(t_values, vals, meta: dict) -> "SmpGapCurve":
        """The curve over t_values from per-replicate tuples holding the
        indicators E_t, E'_t of each t in turn."""
        curve = SmpGapCurve(t_values=t_values, p_joint=[], p_product=[], gap=[], sigma=[],
                            replicates=len(vals), meta=meta)
        for k in range(len(t_values)):
            gap, sigma, pj, pe, pep = gap_from_indicators([v[2 * k] for v in vals],
                                                          [v[2 * k + 1] for v in vals])
            curve.p_joint.append(pj)
            curve.p_product.append(pe * pep)
            curve.gap.append(gap)
            curve.sigma.append(sigma)
        return curve

    def ci(self, k: int):
        """Normal-approximation 95% interval of gap k, clipped at 0."""
        half = 1.96 * self.sigma[k]
        return (max(0.0, self.gap[k] - half), self.gap[k] + half)

    def rows(self):
        for k, t in enumerate(self.t_values):
            lo, hi = self.ci(k)
            yield {"t": t, "p_joint": self.p_joint[k], "p_product": self.p_product[k],
                   "gap": self.gap[k], "ci_lo": lo, "ci_hi": hi}


def smp_gap(spec: ExperimentSpec, event_family: str, Q: Window, Qprime: Window,
            t_schedule, workers: int = 1) -> SmpGapCurve:
    """|P[E_t and E'_t] - P[E_t] P[E'_t]| per t for events determined by the
    rectangles tQ and tQ' (scaled about the global origin).

    crossing family: black horizontal crossings at the spec's p.
    void family: no process point in the scaled rectangle.
    """
    if Q.intersects(Qprime):
        raise ParameterError("Q and Q' must be disjoint")
    t_schedule = [float(t) for t in t_schedule]
    rects = []
    for t in t_schedule:
        rects += [Q.scaled(t), Qprime.scaled(t)]
        if not all(spec.window.contains_window(rect, tol=1e-9) for rect in rects[-2:]):
            raise ParameterError(f"scaled rectangles at t={t} leave the core window")
    if event_family == "crossing":
        spec.p  # the spec's one p, or a ParameterError before any build
        results, curves = estimate_crossing_curve(
            spec, tuple(CrossingQuery(rect) for rect in rects), workers)
        vals = [tuple(ind for (ind,) in indicators) for _, indicators in results]
        failed = curves[0][0].failed
    elif event_family == "void":
        vals, failed = map_replicates(partial(_void_rep, spec, spec.window, "smp-void", rects),
                                      spec.replicates, workers)
    else:
        raise ParameterError("event_family must be 'crossing' or 'void'")
    return SmpGapCurve.from_indicators(t_schedule, vals,
                                       {"family": event_family, "failed": failed})


def _line_crosses_lr(theta, r, rect: Window):
    """Mask of lines x.(cos t, sin t) = r entering rect's left side and
    leaving its right side."""
    s = np.sin(theta)
    c = np.cos(theta)
    ok = np.abs(s) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        y_left = (r - rect.lo[0] * c) / s
        y_right = (r - rect.hi[0] * c) / s
    inside = ((y_left >= rect.lo[1]) & (y_left <= rect.hi[1])
              & (y_right >= rect.lo[1]) & (y_right <= rect.hi[1]))
    return ok & inside


LINE_SMP_Q1 = Window((-0.5, -0.5), (0.5, 0.5))
LINE_SMP_Q2 = Window((1.0, -0.5), (2.0, 0.5))


def _line_smp_rep(spec: ExperimentSpec, disc_radius: float, angle_tol: float, t_schedule,
                  rep: int) -> tuple:
    """Per t, the indicators E_t and E'_t of replicate rep's lines."""
    rng = stream(spec.master_seed, rep, "lines")
    theta, r = sample_poisson_lines(spec.process["line_intensity"], disc_radius, rng).T
    near_horiz = np.abs(theta - np.pi / 2.0) < angle_tol
    return tuple(int(np.any(near_horiz & _line_crosses_lr(theta, r, q.scaled(t))))
                 for t in t_schedule for q in (LINE_SMP_Q1, LINE_SMP_Q2))


def line_process_smp_failure(spec: ExperimentSpec, t_schedule, angle_tol: float,
                             workers: int = 1) -> SmpGapCurve:
    """Gap curve for near-horizontal line crossings of two scaled squares,
    for the spec's poisson_line process.

    E_t: some line within angle_tol of horizontal crosses t*Q1 left to right
    (Q1 the unit square at the origin, Q2 = Q1 + (1.5, 0)). A single long
    line induces both events at every scale, so the gap stays bounded away
    from zero: the scale-mixing property fails for line processes.
    """
    if spec.process.kind != "poisson_line":
        raise ParameterError("the line-process gap curve needs a poisson_line process")
    t_schedule = [float(t) for t in t_schedule]
    corners = np.abs(np.array([LINE_SMP_Q2.hi, LINE_SMP_Q2.lo, LINE_SMP_Q1.lo]))
    disc_radius = max(t_schedule) * float(np.sqrt((corners ** 2).sum(axis=1)).max()) + 1.0
    vals, _ = map_replicates(partial(_line_smp_rep, spec, disc_radius, angle_tol, t_schedule),
                             spec.replicates, workers)
    return SmpGapCurve.from_indicators(t_schedule, vals,
                                       {"family": "line", "angle_tol": float(angle_tol),
                                        "line_intensity": spec.process["line_intensity"]})


@dataclass
class MixtureResult:
    square: PercResult
    hexagonal: PercResult
    separation: float
    pooled: float
    p: float


def mixture_nonergodic_demo(spec: ExperimentSpec, spacing: float = 2.0,
                            workers: int = 1) -> MixtureResult:
    """Spanning frequencies of the two mixture components (randomly shifted
    square vs hexagonal lattices of the given spacing, face adjacency, the
    spec's p, window and replicates each) and their separation.

    The pooled value is the spanning frequency of the 50/50 mixture; between
    the two lattice thresholds it sits strictly between 0 and 1, which is the
    non-ergodicity on display.
    """
    p = spec.p
    if not (0.0 < p < 1.0):
        raise ParameterError("p must be strictly between 0 and 1")
    results = []
    for kind, offset in (("square_lattice", 0), ("hexagonal_lattice", 1)):
        lattice = ProcessSpec(kind, {"spacing": spacing, "random_shift": True})
        component = replace(spec, process=lattice, adjacency="face",
                            master_seed=(spec.master_seed + offset) % MAX_SEED)
        # a black horizontal crossing of the window is a spanning black cluster
        _, [[res]] = estimate_crossing_curve(component, (CrossingQuery(spec.window),), workers)
        results.append(res)
    sq, hx = results
    pooled = (sq.successes + hx.successes) / (sq.replicates + hx.replicates)
    return MixtureResult(square=sq, hexagonal=hx,
                         separation=abs(sq.estimate - hx.estimate), pooled=pooled, p=p)


@dataclass
class TamenessReport:
    delta: float
    n_schedule: list
    replicates: int
    curves: dict          # name -> {"mean": [...], "ci": [(lo, hi), ...], "bound": [...]}
    limsup_proxy: dict    # name -> running max of means over the top half
    t1_bounded: bool
    t2_margin: float
    failed: int


def _tameness_prepare(delta: float, region: Window, tess):
    """The Y and U fields of a tessellation."""
    return compute_Y_field(tess, delta, region), compute_U_field(tess, delta, region)


def _tameness_rep(schedule: tuple, fields, uniforms, rep: int):
    """Anchored and free (best value, bound) of both fields; the colouring is not read."""
    out = {}
    for n in schedule:
        for name, fld in zip(("Y", "U"), fields):
            anchored = greedy_animal_max(fld, n, anchor=(0, 0))
            free = greedy_animal_max(fld, n, start=anchored)
            out[f"anchored_{name}:{n}"] = (anchored.best_value, anchored.bound)
            out[f"free_{name}:{n}"] = (free.best_value, free.bound)
    return out


def tameness_report(spec: ExperimentSpec, delta: float, n_schedule,
                    workers: int = 1) -> TamenessReport:
    """Greedy-animal average curves for the Y and U fields, found by branch
    and bound over the boxes of the core window shrunk by 2 delta.

    Curves come in anchored (animal contains the origin box, the per-site
    quantity the definitions use) and free (animal anywhere in the region)
    variants, each with the mean and CI of the best values found and the mean
    of their upper bounds (equal where every search was exact). Verdicts use
    the anchored curves' certified side: t1_bounded checks that the Y bound
    at the largest n stays within the CI slack of the mean at the middle n
    of the schedule; t2_margin is 1 minus the largest anchored U bound.
    """
    schedule = tuple(int(n) for n in n_schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("n_schedule must be strictly increasing")
    region = spec.window.expand(-2.0 * delta)
    i0, i1, j0, j1 = region_index_range(region, delta)
    if not (i0 <= 0 <= i1 and j0 <= 0 <= j1):
        raise ParameterError("region must contain the origin box for anchored animals")
    if (i1 - i0 + 1) * (j1 - j0 + 1) < max(schedule):
        raise ParameterError("region too small for the largest animal in the schedule")
    vals, failed = run_replicates(spec, build_tessellation,
                                  partial(_tameness_prepare, delta, region),
                                  partial(_tameness_rep, schedule), workers)
    curves = {}
    for which in ("anchored_Y", "anchored_U", "free_Y", "free_U"):
        ends = [list(zip(*(v[f"{which}:{n}"] for v in vals))) for n in schedule]
        lower = [mean_ci(best) for best, _ in ends]
        curves[which] = {"mean": [m for m, _ in lower], "ci": [ci for _, ci in lower],
                         "bound": [mean_ci(bound)[0] for _, bound in ends]}
    half = len(schedule) // 2
    proxies = {k: max(v["mean"][half:]) for k, v in curves.items()}
    y_ci = curves["anchored_Y"]["ci"]
    slack = ((y_ci[-1][1] - y_ci[-1][0]) + (y_ci[half][1] - y_ci[half][0])) / 2.0
    t1_bounded = curves["anchored_Y"]["bound"][-1] <= curves["anchored_Y"]["mean"][half] + slack
    t2_margin = 1.0 - max(curves["anchored_U"]["bound"])
    return TamenessReport(delta=delta, n_schedule=list(schedule), replicates=len(vals),
                          curves=curves, limsup_proxy=proxies, t1_bounded=bool(t1_bounded),
                          t2_margin=float(t2_margin), failed=failed)


@dataclass
class PeierlsResult:
    declined: bool
    reason: str
    cycle_lengths: list
    estimates: list
    sigmas: list
    bounds: list
    below_bound: list
    replicates: int
    failed: int


def _ring_boxes(length: int, rng: np.random.Generator):
    """A random axis-aligned box ring of the given cycle length around the origin."""
    if length < 8 or length % 2:
        raise ParameterError("cycle length must be an even number >= 8")
    semi = (length + 4) // 2  # w + h
    w_opts = [w for w in range(3, semi - 2) if semi - w >= 3]
    w = int(w_opts[rng.integers(len(w_opts))]) if w_opts else 3
    h = semi - w
    ilo = -int(rng.integers(1, w - 1))
    jlo = -int(rng.integers(1, h - 1))
    boxes = []
    for a in range(ilo, ilo + w):
        for b in (jlo, jlo + h - 1):
            boxes.append((a, b))
    for b in range(jlo + 1, jlo + h - 1):
        for a in (ilo, ilo + w - 1):
            boxes.append((a, b))
    return boxes


def _peierls_rep(p: float, delta: float, window: Window, cycle_lengths: tuple,
                 master_seed: int, tess, uniforms, rep: int):
    """Per cycle length, whether every box of a random circuit of that
    length around the origin meets a white cell. Every circuit box is
    checked against the analysis window before any colour is read."""
    rings = [np.array(_ring_boxes(ln, stream(master_seed, rep, f"cycle:{ln}")))
             for ln in cycle_lengths]
    boxes = np.concatenate(rings)
    lo, hi = boxes.min(axis=0), boxes.max(axis=0)
    hull = boxes_window(delta, lo, hi)
    if not window.contains_window(hull, tol=tess.tol):
        raise ParameterError("circuit box leaves the analysis window")
    cand = tess.cells_meeting(hull)
    _, met = cell_box_pairs(tess, delta, cand[~(uniforms[cand] < p)])
    # mark the boxes of the circuits' hull that a white cell meets
    white_met = np.zeros(hi - lo + 1, bool)
    met = np.compress(((met >= lo) & (met <= hi)).all(axis=1), met, axis=0) - lo
    white_met[met[:, 0], met[:, 1]] = True
    return [bool(white_met[ring[:, 0] - lo[0], ring[:, 1] - lo[1]].all()) for ring in rings]


def peierls_probe(spec: ExperimentSpec, delta: float, window: Window, c3: float, c4: float,
                  cycle_lengths=(8, 16, 32)) -> PeierlsResult:
    """P[every box of a random circuit meets a white cell], versus the
    all-white-circuit bound evaluated with empirically measured constants.

    c3 (< 1) and c4 come from a prior tameness report (the U and Y curve
    levels); c3 >= 1 declines the probe. The window must lie in the core
    window. Replicates whose tessellation fails to build are counted in failed.
    """
    if not spec.window.contains_window(window, tol=1e-9):
        raise ParameterError("analysis window must lie inside the core window")
    p = spec.p
    if c3 >= 1.0:
        return PeierlsResult(declined=True, reason=f"empirical c3={c3} >= 1",
                             cycle_lengths=list(cycle_lengths), estimates=[], sigmas=[],
                             bounds=[], below_bound=[], replicates=0, failed=0)
    exponent = 3.0 ** 4 * c4 / (1.0 - c3)
    vals, failed = run_replicates(
        spec, build_tessellation, as_built,
        partial(_peierls_rep, p, delta, window, tuple(cycle_lengths), spec.master_seed))
    n = len(vals)
    estimates, sigmas, bounds, below = [], [], [], []
    for k, ln in enumerate(cycle_lengths):
        hits = sum(v[k] for v in vals)
        est = hits / n
        sig = wilson_sigma(hits, n)
        bound = (1.0 - p ** exponent) ** ((1.0 - c3) * ln / 9.0)
        estimates.append(est)
        sigmas.append(sig)
        bounds.append(bound)
        below.append(bool(est <= bound + 3.0 * sig))
    return PeierlsResult(declined=False, reason="", cycle_lengths=list(cycle_lengths),
                         estimates=estimates, sigmas=sigmas, bounds=bounds,
                         below_bound=below, replicates=n, failed=failed)
