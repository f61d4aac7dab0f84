"""Config-driven experiment runner: validation, dispatch, persistence.

The harness estimates nothing itself: each op calls an estimator and
formats its output as CSV rows and a run.json summary.

Configs are JSON with a fixed schema, and load_config checks every param
before a run starts. Unknown keys are hard errors, and so are a missing
required param and a malformed region, list (_LIST_KEYS), count
(_COUNT_KEYS), real (_REAL_KEYS), window (_WINDOW_KEYS) or choice
(_CHOICES) param, and so is a `buffer` on a lattice kind, which is built
without one. Outputs land in out_dir/<spec_hash>/: one RFC-4180 CSV
per operation plus run.json. CSV payloads are bit-identical across reruns
and worker counts; run.json carries the volatile envelope (timestamps).

Every op is one entry of OPS, keyed by its name. An entry holds
- `required`: the `params` keys the op needs, and `optional` the others it
  allows;
- `p`: how the op uses p. NO_P ops ignore it; ONE_P ops read the config's
  `p`, which load_config then requires, and reject a `p_grid`; EACH_P ops
  write rows for every p of spec.ps, `p_grid` in config order (or the single
  `p`), from one estimator call over the grid that builds each replicate once;
- `fn(spec, params, workers) -> (rows, summary)`, where a summary of None
  stands for {"rows": len(rows)}. Estimators read p, the p-grid and the
  replicate count from the spec; `replicates_per_probe` and
  `replicates_per_component` replace its `replicates`;
- optionally `sweep(spec, params, workers) -> (rows, summary_rows, extra)`
  for the `sweep` entry point (extra: more run.json summary fields),
  `process`, the one process kind the op accepts, `samples(params)`, true
  when the op samples points from the process, and `face_only`, true when
  the op always uses face adjacency, so that load_config rejects
  `"adjacency": "star"`. A kind with no areal intensity is accepted only by
  an op whose `process` names it, and a kind with no planar sampler by no
  op that samples.
The functions look estimators up in this module's namespace when they run,
so a caller that rebinds such a name here (a tracer) sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

from . import __version__
from .diagnostics import (estimate_laplace_functional, estimate_void_probability,
                          line_process_smp_failure, mixture_nonergodic_demo, smp_gap,
                          tameness_report)
from .errors import ConfigError, ParameterError
from .estimators import (count_spanning_clusters, estimate_crossing_curve,
                         estimate_crossing_prob, estimate_pc, estimate_theta,
                         estimate_trifurcation_density, ggr_diagnostics,
                         verify_crossing_recursion)
from .experiment import ExperimentSpec
from .geometry import GridRegion, Window
from .percolation import CrossingQuery
from .point_process import KINDS

_TOP_KEYS = {"op", "process", "window", "adjacency", "buffer", "p", "p_grid",
             "replicates", "master_seed", "params"}

NO_P, ONE_P, EACH_P = "none", "one", "each"
_LIST_KEYS = {"radii", "n_schedule", "t_schedule", "t_values"}  # lists of numbers
_COUNT_KEYS = {"replicates_per_probe", "replicates_per_component", "r1", "n_max"}  # ints >= 1
_REAL_KEYS = {"t", "tolerance", "angle_tol", "delta", "r2", "spacing"}  # finite numbers
_WINDOW_KEYS = {"Q", "Qprime", "rect", "analysis_window"}
_CHOICES = {"direction": ("horizontal", "vertical"), "color": ("black", "white"),
            "family": ("crossing", "void")}


def _finite(x) -> bool:  # a JSON number, not a bool, a string or NaN
    return type(x) is int or type(x) is float and math.isfinite(x)


def load_config(path, seed_override=None) -> dict:
    """The checked config at path, master_seed replaced by seed_override if given."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if seed_override is not None:
        cfg["master_seed"] = seed_override
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")
    name = cfg.get("op")
    if not isinstance(name, str) or name not in OPS:
        raise ConfigError(f"{path}: 'op' must be one of {sorted(OPS)}, got {name!r}")
    op = OPS[name]
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: 'params' must be an object")
    bad = set(params).difference(op.required, op.optional)
    if bad:
        raise ConfigError(f"{path}: params for op {name!r}: unknown keys {sorted(bad)}")
    missing = [key for key in op.required if key not in params]
    if missing:
        raise ConfigError(f"{path}: params for op {name!r}: missing keys {missing}")
    for key in _LIST_KEYS.intersection(params):
        vals = params[key]
        if not (isinstance(vals, list) and vals and all(type(v) in (int, float) for v in vals)):
            raise ConfigError(f"{path}: params {key!r} must be a non-empty list of numbers")
    region = params.get("region")
    if not (region is None or isinstance(region, dict)
            and {"delta", "ni", "nj"} <= region.keys() <= {"delta", "ni", "nj", "anchor"}
            and _finite(region["delta"]) and region["delta"] > 0
            and isinstance(region.get("anchor", []), list)
            and [type(a) for a in region.get("anchor", [0, 0])] == [int, int]):
        raise ConfigError(f"{path}: params 'region' must hold a positive number 'delta', 'ni', "
                          f"'nj' and optionally an integer pair 'anchor', got {region!r}")
    counts = [(key, params[key]) for key in sorted(_COUNT_KEYS.intersection(params))]
    for key, value in counts + [(f"region {k}", region[k]) for k in ("ni", "nj") if region]:
        if not (type(value) is int and value >= 1):
            raise ConfigError(f"{path}: params {key!r} must be an integer >= 1, got {value!r}")
    for key in sorted(_REAL_KEYS.intersection(params)):
        if not _finite(params[key]):
            raise ConfigError(f"{path}: params {key!r}: {params[key]!r} is not a finite number")
    for key, allowed in _CHOICES.items():
        if params.get(key, allowed[0]) not in allowed:
            raise ConfigError(f"{path}: params {key!r} must be in {allowed}, got {params[key]!r}")
    for key in ("process", "window", "replicates", "master_seed"):
        if key not in cfg:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if op.p == ONE_P and cfg.get("p") is None:
        raise ConfigError(f"{path}: op {name!r} needs 'p'")
    if op.p == ONE_P and cfg.get("p_grid") is not None:
        raise ConfigError(f"{path}: op {name!r} reads one p and takes no 'p_grid'")
    if op.p == EACH_P and cfg.get("p") is None and cfg.get("p_grid") is None:
        raise ConfigError(f"{path}: op {name!r} needs 'p' or 'p_grid'")
    p_grid = cfg.get("p_grid")
    if p_grid is not None and not (isinstance(p_grid, list) and p_grid):
        raise ConfigError(f"{path}: 'p_grid' must be a non-empty list")
    try:
        spec = ExperimentSpec.from_json(cfg)
        for key in sorted(_WINDOW_KEYS.intersection(params)):
            Window.from_json(params[key])
    except (ParameterError, ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if spec.buffer is not None and KINDS[spec.process.kind].lattice is not None:
        raise ConfigError(f"{path}: a {spec.process.kind} is built without a buffer; "
                          "drop 'buffer'")
    if op.face_only and spec.adjacency != "face":
        raise ConfigError(f"{path}: op {name!r} uses face adjacency only")
    if op.process is not None and spec.process.kind != op.process:
        raise ConfigError(f"{path}: op {name!r} requires a {op.process} process")
    if op.process is None and KINDS[spec.process.kind].intensity is None:
        raise ConfigError(f"{path}: op {name!r}: {spec.process.kind} has no areal intensity")
    if op.samples(params) and KINDS[spec.process.kind].sample is None:
        raise ConfigError(f"{path}: op {name!r}: {spec.process.kind} does not sample "
                          "to a planar configuration")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt_value(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_value(row.get(k)) for k in fieldnames})


def _ci_row(res: dict, **lead) -> dict:
    """The `lead` columns, then estimate, ci_lo, ci_hi and replicates of an
    estimate mapping (a result dict, or vars() of a PercResult)."""
    return {**lead, "estimate": res["estimate"], "ci_lo": res["ci"][0],
            "ci_hi": res["ci"][1], "replicates": res["replicates"]}


def _window(params, key, default: Window) -> Window:
    return Window.from_json(params[key]) if key in params else default


def _void(spec, params, workers):
    res = estimate_void_probability(spec, Window.from_json(params["Q"]), params["t_values"],
                                    workers=workers)
    return [_ci_row(r, t=r["t"]) for r in res], None


def _laplace(spec, params, workers):
    reg = params["region"]
    region = GridRegion.rectangle(float(reg["delta"]), reg["ni"], reg["nj"],
                                  anchor=tuple(reg.get("anchor", (0, 0))))
    res = estimate_laplace_functional(spec, float(params["t"]), region, workers=workers)
    ref = res["reference"]
    return [{**_ci_row(res, t=params["t"]), "reference_kind": ref["kind"],
             "reference_value": ref["value"]}], {"reference": ref}


def _crossing_query(spec, params) -> CrossingQuery:
    return CrossingQuery(rect=_window(params, "rect", spec.window),
                         direction=params.get("direction", "horizontal"),
                         color=params.get("color", "black"))


def _crossing_row(p, res) -> dict:
    return {**_ci_row(vars(res), p=p), "failed": res.failed}


def _crossing(spec, params, workers):
    results = estimate_crossing_prob(spec, _crossing_query(spec, params), workers=workers)
    return [_crossing_row(p, res) for p, res in zip(spec.ps, results)], None


def _theta(spec, params, workers):
    per_p = estimate_theta(spec, params["radii"], workers=workers)
    return [{**_ci_row(vars(r), p=p, radius=r.meta["radius"]), "failed": r.failed}
            for p, results in zip(spec.ps, per_p) for r in results], None


def _pc(spec, params, workers):
    est = estimate_pc(replace(spec, replicates=params["replicates_per_probe"]),
                      float(params["tolerance"]), workers=workers)
    rows = [_ci_row(vars(r), probe=k, p=p) for k, (p, r) in enumerate(est.probes)]
    return rows, {"interval": list(est.interval), "separated": est.separated}


def _spanning(spec, params, workers):
    per_p = count_spanning_clusters(spec, _window(params, "analysis_window", spec.window),
                                    workers=workers)
    return [{"p": p, "count": count, "frequency": freq, "replicates": res.replicates,
             "failed": res.failed} for p, res in zip(spec.ps, per_p)
            for count, freq in res.histogram.items()], None


def _smp_gap(spec, params, workers):
    curve = smp_gap(spec, params.get("family", "crossing"), Window.from_json(params["Q"]),
                    Window.from_json(params["Qprime"]), params["t_schedule"], workers=workers)
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _line_smp(spec, params, workers):
    curve = line_process_smp_failure(spec, params["t_schedule"], float(params["angle_tol"]),
                                     workers=workers)
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _mixture(spec, params, workers):
    """Spanning of randomly shifted square and hexagonal lattices of the
    given spacing, under face adjacency; the config's `process` is not read."""
    replicates = params.get("replicates_per_component", spec.replicates)
    res = mixture_nonergodic_demo(replace(spec, replicates=replicates),
                                  spacing=float(params.get("spacing", 2.0)), workers=workers)
    rows = [_ci_row(vars(r), component=name)
            for name, r in (("square", res.square), ("hexagonal", res.hexagonal))]
    return rows, {"separation": res.separation, "pooled": res.pooled}


def _tameness(spec, params, workers):
    rep = tameness_report(spec, float(params["delta"]), params["n_schedule"], workers=workers)
    rows = []
    for k, n in enumerate(rep.n_schedule):
        row = {"n": n}
        for name, curve in rep.curves.items():
            row[f"{name}_mean"] = curve["mean"][k]
            row[f"{name}_ci_lo"], row[f"{name}_ci_hi"] = curve["ci"][k]
        rows.append(row)
    return rows, {"t1_bounded": rep.t1_bounded, "t2_margin": rep.t2_margin,
                  "limsup_proxy": rep.limsup_proxy}


def _recursion(spec, params, workers):
    rep = verify_crossing_recursion(spec, float(params["t"]), workers=workers)
    rows = [{"term": "lhs", "estimate": rep["lhs"]}]
    rows += [{"term": k, "estimate": v} for k, v in sorted(rep["rhs_terms"].items())]
    return rows, {k: rep[k] for k in ("lhs", "rhs", "slack", "inequality_margin", "holds",
                                      "max_term", "max_value", "failed")}


def _trifurcation_density(spec, params, workers):
    res = estimate_trifurcation_density(spec, params["r1"], float(params["r2"]),
                                        _window(params, "analysis_window", spec.window),
                                        workers=workers)
    cols = ("window_area", "mean_count", "density", "candidates", "mean_skipped", "replicates")
    return [{k: res[k] for k in cols}], res


def _ggr(spec, params, workers):
    res = ggr_diagnostics(spec, params["n_max"], workers)
    return [{"n": n, "ball_size": res.ball_sizes[k], "g1_avg": res.g1_avg[k],
             "g1_ci_lo": res.g1_ci[k][0], "g1_ci_hi": res.g1_ci[k][1],
             "g2_avg": res.g2_avg[k]} for k, n in enumerate(res.ns)], None


def _sweep_crossing(spec, params, workers):
    if not spec.p_grid:
        raise ConfigError("crossing sweep needs a p_grid")
    spec = replace(spec, p_grid=tuple(sorted(spec.p_grid)))
    results, (per_p,) = estimate_crossing_curve(spec, (_crossing_query(spec, params),),
                                                workers=workers)
    rows = [{"replicate": rep, "p": p, "indicator": ind}
            for rep, (indicators,) in results for p, ind in zip(spec.p_grid, indicators)]
    return rows, [_crossing_row(p, res) for p, res in zip(spec.p_grid, per_p)], {}


@dataclass(frozen=True)
class Op:
    required: tuple
    p: str
    fn: Callable
    optional: tuple = ()
    sweep: Callable | None = None
    process: str | None = None
    samples: Callable = lambda params: False
    face_only: bool = False


# The single registry of ops. Entries hold module-level functions that look
# estimators up when they run; storing e.g. estimate_theta itself here would
# hide later rebinding of the module attribute from the table.
OPS = {
    "void": Op(("Q", "t_values"), NO_P, _void, samples=lambda params: True),
    "laplace": Op(("t", "region"), NO_P, _laplace, samples=lambda params: True),
    "crossing": Op((), EACH_P, _crossing, ("rect", "direction", "color"), sweep=_sweep_crossing),
    "theta": Op(("radii",), EACH_P, _theta),
    "pc": Op(("tolerance", "replicates_per_probe"), NO_P, _pc),
    "spanning": Op((), EACH_P, _spanning, ("analysis_window",)),
    "smp_gap": Op(("Q", "Qprime", "t_schedule"), ONE_P, _smp_gap, ("family",),
                  sweep=lambda spec, params, workers: ([], *_smp_gap(spec, params, workers)),
                  samples=lambda params: params.get("family") == "void"),
    "line_smp": Op(("t_schedule", "angle_tol"), NO_P, _line_smp, process="poisson_line"),
    "mixture": Op((), ONE_P, _mixture, ("spacing", "replicates_per_component"), face_only=True),
    "tameness": Op(("delta", "n_schedule"), NO_P, _tameness),
    "recursion": Op(("t",), ONE_P, _recursion),
    "trifurcation_density": Op(("r1", "r2"), ONE_P, _trifurcation_density,
                               ("analysis_window",)),
    "ggr": Op(("n_max",), ONE_P, _ggr),
}


@dataclass
class RunRecord:
    spec_hash: str
    op: str
    started: float
    finished: float
    version: str
    summary: dict
    out_dir: str

    def to_json(self) -> dict:
        return asdict(self)


def _write_run(cfg: dict, out_dir, started: float, csvs: dict, summary: dict) -> RunRecord:
    """Create out_dir/<hash prefix>/; write each non-empty CSV and run.json."""
    finished = time.time()
    h = config_hash(cfg)
    target = Path(out_dir) / h[:16]
    target.mkdir(parents=True, exist_ok=True)
    for name, rows in csvs.items():
        if rows:
            write_csv(target / name, list(rows[0].keys()), rows)
    record = RunRecord(spec_hash=h, op=cfg["op"], started=started, finished=finished,
                       version=__version__, summary=summary, out_dir=str(target))
    with open(target / "run.json", "w") as fh:
        json.dump(record.to_json(), fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    return record


def run(config_path, out_dir="runs", workers: int = 1, seed_override=None) -> RunRecord:
    """Execute the op named in the config; write <op>.csv and run.json."""
    cfg = load_config(config_path, seed_override)
    spec = ExperimentSpec.from_json(cfg)
    started = time.time()
    rows, summary = OPS[cfg["op"]].fn(spec, spec.params, workers)
    summary = {"rows": len(rows)} if summary is None else summary
    return _write_run(cfg, out_dir, started, {f"{cfg['op']}.csv": rows}, summary)


def sweep(config_path, out_dir="runs", workers: int = 1, seed_override=None) -> RunRecord:
    """Coupled sweep: per-replicate rows over the p-grid (shared uniforms per
    replicate) or the smp t-schedule; plus an aggregated summary CSV."""
    cfg = load_config(config_path, seed_override)
    op = OPS[cfg["op"]]
    if op.sweep is None:
        ops = sorted(name for name, o in OPS.items() if o.sweep is not None)
        raise ConfigError(f"sweep supports ops {ops}, not {cfg['op']!r}")
    spec = ExperimentSpec.from_json(cfg)
    started = time.time()
    rows, summary_rows, extra = op.sweep(spec, spec.params, workers)
    summary = {"rows": len(rows), "summary_rows": len(summary_rows), **extra}
    return _write_run(cfg, out_dir, started, {"sweep.csv": rows, "summary.csv": summary_rows},
                      summary)
