"""Config-driven experiment runner: validation, dispatch, persistence.

Configs are JSON with a fixed schema; unknown keys are hard errors. Outputs
land in out_dir/<spec_hash>/: one RFC-4180 CSV per operation plus run.json.
CSV payloads are bit-identical across reruns and worker counts; run.json
carries the volatile envelope (timestamps).
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .diagnostics import (line_process_smp_failure, mixture_nonergodic_demo,
                          smp_gap, tameness_report)
from .errors import ConfigError, ParameterError
from .estimators import (count_spanning_clusters, estimate_crossing_prob,
                         estimate_pc, estimate_theta,
                         estimate_trifurcation_density, ggr_diagnostics,
                         verify_crossing_recursion)
from .experiment import ExperimentSpec, build_tessellation, coloring_for
from .geometry import GridRegion, Window
from .percolation import CrossingQuery, crossing
from .point_process import (ProcessSpec, estimate_laplace_functional,
                            estimate_void_probability)

_TOP_KEYS = {"op", "process", "window", "adjacency", "buffer", "p", "p_grid",
             "replicates", "master_seed", "params"}

_OP_PARAM_KEYS = {
    "void": {"Q", "t_values"},
    "laplace": {"t", "region"},
    "crossing": {"rect", "direction", "color"},
    "theta": {"radii"},
    "pc": {"tolerance", "replicates_per_probe"},
    "spanning": {"analysis_window"},
    "smp_gap": {"family", "Q", "Qprime", "t_schedule"},
    "line_smp": {"t_schedule", "angle_tol"},
    "mixture": {"spacing", "replicates_per_component"},
    "tameness": {"delta", "n_schedule"},
    "recursion": {"t"},
    "trifurcation_density": {"r1", "r2", "analysis_window"},
    "ggr": {"n_max"},
}


def load_config(path) -> dict:
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
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")
    op = cfg.get("op")
    if op not in _OP_PARAM_KEYS:
        raise ConfigError(f"{path}: 'op' must be one of {sorted(_OP_PARAM_KEYS)}, got {op!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: 'params' must be an object")
    bad = set(params) - _OP_PARAM_KEYS[op]
    if bad:
        raise ConfigError(f"{path}: params for op {op!r}: unknown keys {sorted(bad)}")
    for key in ("process", "window", "replicates", "master_seed"):
        if key not in cfg:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if op in ("crossing", "theta", "spanning", "smp_gap", "recursion", "mixture",
              "trifurcation_density", "ggr"):
        if cfg.get("p") is None and cfg.get("p_grid") is None:
            raise ConfigError(f"{path}: op {op!r} needs 'p' or 'p_grid'")
    if cfg.get("p_grid") is not None and len(cfg["p_grid"]) == 0:
        raise ConfigError(f"{path}: 'p_grid' must be non-empty")
    try:
        _spec_from_config(cfg)
    except (ParameterError, ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def _spec_from_config(cfg: dict, p=None) -> ExperimentSpec:
    return ExperimentSpec(
        process=ProcessSpec.from_json(cfg["process"]),
        window=Window.from_json(cfg["window"]),
        adjacency=cfg.get("adjacency", "face"),
        buffer=cfg.get("buffer"),
        p=p if p is not None else cfg.get("p"),
        p_grid=tuple(cfg["p_grid"]) if cfg.get("p_grid") else None,
        replicates=int(cfg["replicates"]),
        master_seed=int(cfg["master_seed"]),
        params=dict(cfg.get("params", {})),
    )


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


def _window_from(obj) -> Window:
    return Window.from_json(obj)


def _p_list(cfg) -> list:
    if cfg.get("p_grid"):
        return [float(p) for p in cfg["p_grid"]]
    return [float(cfg["p"])]


def _op_void(cfg, workers):
    params = cfg["params"]
    Q = _window_from(params["Q"])
    res = estimate_void_probability(ProcessSpec.from_json(cfg["process"]), Q,
                                    params["t_values"], int(cfg["replicates"]),
                                    master_seed=int(cfg["master_seed"]))
    rows = [{"t": r["t"], "estimate": r["estimate"], "ci_lo": r["ci"][0],
             "ci_hi": r["ci"][1], "replicates": r["replicates"]} for r in res]
    return rows, {"rows": len(rows)}


def _op_laplace(cfg, workers):
    params = cfg["params"]
    reg = params["region"]
    region = GridRegion.rectangle(float(reg["delta"]), int(reg["ni"]), int(reg["nj"]),
                                  anchor=tuple(reg.get("anchor", (0, 0))))
    res = estimate_laplace_functional(ProcessSpec.from_json(cfg["process"]),
                                      float(params["t"]), region, int(cfg["replicates"]),
                                      master_seed=int(cfg["master_seed"]))
    rows = [{"t": params["t"], "estimate": res["estimate"], "ci_lo": res["ci"][0],
             "ci_hi": res["ci"][1], "replicates": res["replicates"],
             "reference_kind": res["reference"]["kind"],
             "reference_value": res["reference"]["value"]}]
    return rows, {"reference": res["reference"]}


def _op_crossing(cfg, workers):
    params = cfg["params"]
    rows = []
    for p in _p_list(cfg):
        spec = _spec_from_config(cfg, p=p)
        rect = _window_from(params["rect"]) if "rect" in params else spec.window
        query = CrossingQuery(rect=rect, direction=params.get("direction", "horizontal"),
                              color=params.get("color", "black"), adjacency=spec.adjacency)
        res = estimate_crossing_prob(spec, query, p, spec.replicates, workers=workers)
        rows.append({"p": p, "estimate": res.estimate, "ci_lo": res.ci[0],
                     "ci_hi": res.ci[1], "replicates": res.replicates,
                     "failed": res.failed})
    return rows, {"rows": len(rows)}


def _op_theta(cfg, workers):
    params = cfg["params"]
    rows = []
    for p in _p_list(cfg):
        spec = _spec_from_config(cfg, p=p)
        for res in estimate_theta(spec, p, params["radii"], spec.replicates,
                                  workers=workers):
            rows.append({"p": p, "radius": res.meta["radius"], "estimate": res.estimate,
                         "ci_lo": res.ci[0], "ci_hi": res.ci[1],
                         "replicates": res.replicates, "failed": res.failed})
    return rows, {"rows": len(rows)}


def _op_pc(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg, p=0.5)
    est = estimate_pc(spec, float(params["tolerance"]),
                      int(params["replicates_per_probe"]), workers=workers)
    rows = [{"probe": k, "p": p, "estimate": r.estimate, "ci_lo": r.ci[0],
             "ci_hi": r.ci[1], "replicates": r.replicates}
            for k, (p, r) in enumerate(est.probes)]
    return rows, {"interval": list(est.interval), "separated": est.separated}


def _op_spanning(cfg, workers):
    params = cfg["params"]
    rows = []
    for p in _p_list(cfg):
        spec = _spec_from_config(cfg, p=p)
        win = (_window_from(params["analysis_window"])
               if "analysis_window" in params else spec.window)
        res = count_spanning_clusters(spec, p, win, spec.replicates, workers=workers)
        for count, freq in res.histogram.items():
            rows.append({"p": p, "count": count, "frequency": freq,
                         "replicates": res.replicates, "failed": res.failed})
    return rows, {"rows": len(rows)}


def _op_smp_gap(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg)
    curve = smp_gap(spec, params.get("family", "crossing"), _window_from(params["Q"]),
                    _window_from(params["Qprime"]), params["t_schedule"],
                    spec.replicates, workers=workers)
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _op_line_smp(cfg, workers):
    params = cfg["params"]
    proc = ProcessSpec.from_json(cfg["process"])
    if proc.kind != "poisson_line":
        raise ConfigError("line_smp requires a poisson_line process")
    curve = line_process_smp_failure(proc["line_intensity"], params["t_schedule"],
                                     int(cfg["replicates"]), float(params["angle_tol"]),
                                     master_seed=int(cfg["master_seed"]))
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _op_mixture(cfg, workers):
    params = cfg["params"]
    res = mixture_nonergodic_demo(float(cfg["p"]), _window_from(cfg["window"]),
                                  int(params.get("replicates_per_component",
                                                 cfg["replicates"])),
                                  master_seed=int(cfg["master_seed"]),
                                  spacing=float(params.get("spacing", 2.0)),
                                  workers=workers)
    rows = [
        {"component": "square", "estimate": res.square.estimate,
         "ci_lo": res.square.ci[0], "ci_hi": res.square.ci[1],
         "replicates": res.square.replicates},
        {"component": "hexagonal", "estimate": res.hexagonal.estimate,
         "ci_lo": res.hexagonal.ci[0], "ci_hi": res.hexagonal.ci[1],
         "replicates": res.hexagonal.replicates},
    ]
    return rows, {"separation": res.separation, "pooled": res.pooled}


def _op_tameness(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg, p=cfg.get("p") or 0.5)
    rep = tameness_report(spec, float(params["delta"]), params["n_schedule"],
                          spec.replicates, workers=workers)
    rows = []
    for k, n in enumerate(rep.n_schedule):
        row = {"n": n}
        for name, curve in rep.curves.items():
            row[f"{name}_mean"] = curve["mean"][k]
            row[f"{name}_ci_lo"] = curve["ci"][k][0]
            row[f"{name}_ci_hi"] = curve["ci"][k][1]
        rows.append(row)
    return rows, {"t1_bounded": rep.t1_bounded, "t2_margin": rep.t2_margin,
                  "limsup_proxy": rep.limsup_proxy}


def _op_recursion(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg)
    rep = verify_crossing_recursion(spec, float(cfg["p"]), float(params["t"]),
                                    spec.replicates, workers=workers)
    rows = [{"term": k, "estimate": v} for k, v in sorted(rep["rhs_terms"].items())]
    rows.insert(0, {"term": "lhs", "estimate": rep["lhs"]})
    summary = {k: rep[k] for k in ("lhs", "rhs", "slack", "inequality_margin", "holds",
                                   "max_term", "max_value", "failed")}
    return rows, summary


def _op_trifurcation_density(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg)
    win = (_window_from(params["analysis_window"])
           if "analysis_window" in params else spec.window)
    res = estimate_trifurcation_density(spec, float(cfg["p"]), int(params["r1"]),
                                        float(params["r2"]), win, spec.replicates,
                                        workers=workers)
    rows = [{"window_area": res["window_area"], "mean_count": res["mean_count"],
             "density": res["density"], "candidates": res["candidates"],
             "mean_skipped": res["mean_skipped"], "replicates": res["replicates"]}]
    return rows, res


def _op_ggr(cfg, workers):
    params = cfg["params"]
    spec = _spec_from_config(cfg)
    res = ggr_diagnostics(spec, float(cfg["p"]), int(params["n_max"]), spec.replicates)
    rows = [{"n": n, "ball_size": res.ball_sizes[k], "g1_avg": res.g1_avg[k],
             "g1_ci_lo": res.g1_ci[k][0], "g1_ci_hi": res.g1_ci[k][1],
             "g2_avg": res.g2_avg[k]} for k, n in enumerate(res.ns)]
    return rows, {"rows": len(rows)}


_OPS = {
    "void": _op_void,
    "laplace": _op_laplace,
    "crossing": _op_crossing,
    "theta": _op_theta,
    "pc": _op_pc,
    "spanning": _op_spanning,
    "smp_gap": _op_smp_gap,
    "line_smp": _op_line_smp,
    "mixture": _op_mixture,
    "tameness": _op_tameness,
    "recursion": _op_recursion,
    "trifurcation_density": _op_trifurcation_density,
    "ggr": _op_ggr,
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
        return {"spec_hash": self.spec_hash, "op": self.op, "started": self.started,
                "finished": self.finished, "version": self.version,
                "summary": self.summary, "out_dir": self.out_dir}


def run(config_path, out_dir="runs", workers: int = 1, seed_override=None) -> RunRecord:
    """Execute the op named in the config; write <op>.csv and run.json."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg["master_seed"] = int(seed_override)
    op = cfg["op"]
    h = config_hash(cfg)
    target = Path(out_dir) / h[:16]
    target.mkdir(parents=True, exist_ok=True)
    started = time.time()
    rows, summary = _OPS[op](cfg, workers)
    finished = time.time()
    if rows:
        fieldnames = list(rows[0].keys())
        write_csv(target / f"{op}.csv", fieldnames, rows)
    record = RunRecord(spec_hash=h, op=op, started=started, finished=finished,
                       version=__version__, summary=summary, out_dir=str(target))
    with open(target / "run.json", "w") as fh:
        json.dump(record.to_json(), fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    return record


def sweep(config_path, out_dir="runs", workers: int = 1) -> RunRecord:
    """Coupled sweep: per-replicate rows over the p-grid (shared uniforms per
    replicate) or the smp t-schedule; plus an aggregated summary CSV."""
    cfg = load_config(config_path)
    op = cfg["op"]
    h = config_hash(cfg)
    target = Path(out_dir) / h[:16]
    target.mkdir(parents=True, exist_ok=True)
    started = time.time()
    extra = {}
    if op == "crossing":
        if not cfg.get("p_grid"):
            raise ConfigError("crossing sweep needs a p_grid")
        rows, summary_rows = _sweep_crossing(cfg, workers)
    elif op == "smp_gap":
        summary_rows, extra = _op_smp_gap(cfg, workers)
        rows = []
    else:
        raise ConfigError(f"sweep supports ops 'crossing' and 'smp_gap', not {op!r}")
    if rows:
        write_csv(target / "sweep.csv", list(rows[0].keys()), rows)
    if summary_rows:
        write_csv(target / "summary.csv", list(summary_rows[0].keys()), summary_rows)
    finished = time.time()
    summary = {"rows": len(rows), "summary_rows": len(summary_rows), **extra}
    record = RunRecord(spec_hash=h, op=op, started=started, finished=finished,
                       version=__version__, summary=summary, out_dir=str(target))
    with open(target / "run.json", "w") as fh:
        json.dump(record.to_json(), fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    return record


def _sweep_crossing(cfg, workers):
    from functools import partial

    from .estimators import _guarded, _run_replicates
    from .stats import wilson_ci

    p_grid = sorted(float(p) for p in cfg["p_grid"])
    spec = _spec_from_config(cfg, p=p_grid[0])
    params = cfg.get("params", {})
    rect = _window_from(params["rect"]) if "rect" in params else spec.window
    direction = params.get("direction", "horizontal")
    fn = _guarded(partial(_sweep_crossing_rep, spec, rect, direction, tuple(p_grid)))
    results, failed = _run_replicates(fn, spec.replicates, workers)
    rows = []
    for rep, indicators in results:
        for p, ind in zip(p_grid, indicators):
            rows.append({"replicate": rep, "p": p, "indicator": ind})
    vals = [indicators for _, indicators in results]
    # coupling spot check on ~1% of replicates: indicators must be monotone in p
    step = max(1, len(vals) // 100)
    for indicators in vals[::step]:
        if any(b < a for a, b in zip(indicators, indicators[1:])):
            raise ParameterError("coupling violation: crossing indicator not monotone in p")
    summary_rows = []
    for k, p in enumerate(p_grid):
        hits = sum(v[k] for v in vals)
        lo, hi = wilson_ci(hits, len(vals))
        summary_rows.append({"p": p, "estimate": hits / len(vals), "ci_lo": lo,
                             "ci_hi": hi, "replicates": len(vals), "failed": failed})
    return rows, summary_rows


def _sweep_crossing_rep(spec: ExperimentSpec, rect, direction, p_grid, rep: int):
    """(rep, crossing indicator per p); the id survives dropped failures."""
    tess = build_tessellation(spec, rep)
    col = coloring_for(spec, rep, tess, p_grid[0])
    out = []
    for p in p_grid:
        q = CrossingQuery(rect=rect, direction=direction, color="black",
                          adjacency=spec.adjacency)
        out.append(1 if crossing(tess, col.at_p(p), q) else 0)
    return rep, tuple(out)
