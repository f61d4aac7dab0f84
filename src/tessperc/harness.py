"""Config-driven experiment runner: validation, dispatch, persistence.

The harness estimates nothing itself: each op calls an estimator and
formats its output as CSV rows and a run.json summary.

Configs are JSON with a fixed schema, and load_config checks all of it
before a run starts. Unknown keys are hard errors, and so is a `buffer` on a
lattice kind, which is built without one. Outputs land in
out_dir/<spec_hash>/: one RFC-4180 CSV per operation plus run.json. CSV
payloads are bit-identical across reruns and worker counts; run.json
carries the volatile envelope (timestamps).

Every op is one entry of OPS, keyed by its name. An entry holds
- `params`: each key of the config's `params` that the op takes, mapped to
  its parser, or to (parser, default) when the config may leave it out.
  load_config parses each key once, and a missing key without a default,
  or a value its parser refuses, is a ConfigError naming the key; the op
  receives the parsed values and defaults as `args`;
- `p`: how the op uses p. The spec holds the config's thresholds as one
  tuple, spec.ps: (p,) for a `p`, the `p_grid` in config order for a grid.
  NO_P ops read none, and load_config rejects a `p` or a `p_grid`; ONE_P
  ops read spec.p, so load_config requires a `p` and rejects a `p_grid`;
  EACH_P ops take a `p` or a `p_grid`, not both, and write rows for every p
  of spec.ps from one estimator call over the grid that builds each
  replicate once;
- `fn(spec, args, workers) -> (rows, summary)`, where a summary of None
  stands for {"rows": len(rows)}. Estimators read the thresholds and the
  replicate count from the spec; `replicates_per_probe` replaces its
  `replicates`;
- optionally `sweep(spec, args, workers) -> (rows, summary_rows, extra)`
  for the `sweep` entry point (extra: more run.json summary fields; an
  EACH_P op sweeps over a `p_grid`, which the sweep then requires),
  `process`, the one process kind the op accepts, `samples(args)`, true
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
from .errors import ConfigError
from .estimators import (count_spanning_clusters, estimate_crossing_curve,
                         estimate_crossing_prob, estimate_pc, estimate_theta,
                         estimate_trifurcation_density, ggr_diagnostics,
                         verify_crossing_recursion)
from .experiment import ExperimentSpec
from .geometry import Window, boxes_window
from .percolation import CrossingQuery
from .point_process import KINDS

_TOP_KEYS = {"op", "process", "window", "adjacency", "buffer", "p", "p_grid",
             "replicates", "master_seed", "params"}

NO_P, ONE_P, EACH_P = "none", "one", "each"


def _check(ok, want: str):
    """The parser that passes on a value for which ok holds and refuses any
    other. A JSON number passes as written, so that an op that echoes one
    (laplace's t) writes what the config holds."""
    def parse(x):
        if not ok(x):
            raise ConfigError(f"must be {want}, got {x!r}")
        return x
    return parse


def _list_of(item):
    """The parser of a non-empty list of values that item parses."""
    nonempty = _check(lambda xs: isinstance(xs, list) and xs != [], "a non-empty list")
    return lambda xs: [item(x) for x in nonempty(xs)]


_count = _check(lambda x: type(x) is int and x >= 1, "an integer >= 1")
_real = _check(lambda x: type(x) is int or type(x) is float and math.isfinite(x),
               "a finite number")
_positive = _check(lambda x: _real(x) > 0, "a positive finite number")
_nonnegative = _check(lambda x: _real(x) >= 0, "a nonnegative finite number")
_counts, _positives = _list_of(_count), _list_of(_positive)


def _choice(*allowed) -> tuple:
    """(parser, default) of a param that is one of allowed, by default the first."""
    return _check(lambda x: x in allowed, f"one of {allowed}"), allowed[0]


def _region(reg) -> tuple[float, Window]:
    """(delta, window) of the ni by nj boxes of the delta-grid from box
    'anchor' up, of a positive 'delta', counts 'ni' and 'nj' and an
    optional integer pair 'anchor'."""
    anchor = reg.get("anchor", [0, 0]) if isinstance(reg, dict) else None
    if not (isinstance(anchor, list) and [type(a) for a in anchor] == [int, int]
            and {"delta", "ni", "nj"} <= reg.keys() <= {"delta", "ni", "nj", "anchor"}):
        raise ConfigError("must hold 'delta', 'ni', 'nj' and optionally an integer pair "
                          f"'anchor', got {reg!r}")
    delta, ni, nj = float(_positive(reg["delta"])), _count(reg["ni"]), _count(reg["nj"])
    return delta, boxes_window(delta, anchor, (anchor[0] + ni - 1, anchor[1] + nj - 1))


@dataclass(frozen=True)
class Config:
    """A checked config: the JSON as read (config_hash hashes it), the spec
    it describes and its op's params, parsed."""
    raw: dict
    spec: ExperimentSpec
    args: dict


def load_config(path, seed_override=None) -> Config:
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
    bad = set(params).difference(op.params)
    if bad:
        raise ConfigError(f"{path}: params for op {name!r}: unknown keys {sorted(bad)}")
    for key in ("process", "window", "replicates", "master_seed"):
        if key not in cfg:
            raise ConfigError(f"{path}: missing required key {key!r}")
    if op.p == NO_P and (cfg.get("p") is not None or cfg.get("p_grid") is not None):
        raise ConfigError(f"{path}: op {name!r} reads no p; drop 'p' and 'p_grid'")
    if op.p == ONE_P and cfg.get("p") is None:
        raise ConfigError(f"{path}: op {name!r} needs 'p'")
    if op.p == ONE_P and cfg.get("p_grid") is not None:
        raise ConfigError(f"{path}: op {name!r} reads one p and takes no 'p_grid'")
    if op.p == EACH_P and (cfg.get("p") is None) == (cfg.get("p_grid") is None):
        raise ConfigError(f"{path}: op {name!r} needs one of 'p' and 'p_grid'")
    p_grid = cfg.get("p_grid")
    if p_grid is not None and not (isinstance(p_grid, list) and p_grid):
        raise ConfigError(f"{path}: 'p_grid' must be a non-empty list")
    args = {}
    for key, entry in op.params.items():
        optional = isinstance(entry, tuple)
        parse, default = entry if optional else (entry, None)
        if key not in params and not optional:
            raise ConfigError(f"{path}: params for op {name!r}: missing key {key!r}")
        try:  # ConfigError and ParameterError are ValueErrors
            args[key] = parse(params[key]) if key in params else default
        except ValueError as exc:
            raise ConfigError(f"{path}: params {key!r}: {exc}") from exc
    try:
        spec = ExperimentSpec.from_json(cfg)
    except (TypeError, ValueError) as exc:
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
    if op.samples(args) and KINDS[spec.process.kind].sample is None:
        raise ConfigError(f"{path}: op {name!r}: {spec.process.kind} does not sample "
                          "to a planar configuration")
    return Config(cfg, spec, args)


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


def _void(spec, args, workers):
    res = estimate_void_probability(spec, args["Q"], args["t_values"], workers=workers)
    return [_ci_row(r, t=r["t"]) for r in res], None


def _laplace(spec, args, workers):
    res = estimate_laplace_functional(spec, args["t"], *args["region"], workers=workers)
    ref = res["reference"]
    return [{**_ci_row(res, t=args["t"]), "reference_kind": ref["kind"],
             "reference_value": ref["value"]}], {"reference": ref}


def _crossing_query(spec, args) -> CrossingQuery:
    return CrossingQuery(rect=args["rect"] or spec.window, direction=args["direction"],
                         color=args["color"])


def _crossing_row(p, res) -> dict:
    return {**_ci_row(vars(res), p=p), "failed": res.failed}


def _crossing(spec, args, workers):
    results = estimate_crossing_prob(spec, _crossing_query(spec, args), workers=workers)
    return [_crossing_row(p, res) for p, res in zip(spec.ps, results)], None


def _theta(spec, args, workers):
    per_p = estimate_theta(spec, args["radii"], workers=workers)
    return [{**_ci_row(vars(res), p=p, radius=float(r)), "failed": res.failed}
            for p, results in zip(spec.ps, per_p)
            for r, res in zip(args["radii"], results)], None


def _pc(spec, args, workers):
    est = estimate_pc(replace(spec, replicates=args["replicates_per_probe"]),
                      args["tolerance"], workers=workers)
    rows = [_ci_row(vars(r), probe=k, p=p) for k, (p, r) in enumerate(est.probes)]
    return rows, {"interval": list(est.interval), "separated": est.separated}


def _spanning(spec, args, workers):
    per_p = count_spanning_clusters(spec, args["analysis_window"] or spec.window,
                                    workers=workers)
    return [{"p": p, "count": count, "frequency": freq, "replicates": res.replicates,
             "failed": res.failed} for p, res in zip(spec.ps, per_p)
            for count, freq in res.histogram.items()], None


def _smp_gap(spec, args, workers):
    curve = smp_gap(spec, args["family"], args["Q"], args["Qprime"], args["t_schedule"],
                    workers=workers)
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _line_smp(spec, args, workers):
    curve = line_process_smp_failure(spec, args["t_schedule"], args["angle_tol"],
                                     workers=workers)
    return list(curve.rows()), {"replicates": curve.replicates, "meta": curve.meta}


def _mixture(spec, args, workers):
    """Spanning of randomly shifted square and hexagonal lattices of the
    given spacing, under face adjacency; the config's `process` is not read."""
    res = mixture_nonergodic_demo(spec, spacing=args["spacing"], workers=workers)
    rows = [_ci_row(vars(r), component=name)
            for name, r in (("square", res.square), ("hexagonal", res.hexagonal))]
    return rows, {"separation": res.separation, "pooled": res.pooled}


def _tameness(spec, args, workers):
    rep = tameness_report(spec, args["delta"], args["n_schedule"], workers=workers)
    rows = []
    for k, n in enumerate(rep.n_schedule):
        row = {"n": n}
        for name, curve in rep.curves.items():
            row[f"{name}_mean"] = curve["mean"][k]
            row[f"{name}_ci_lo"], row[f"{name}_ci_hi"] = curve["ci"][k]
        rows.append(row)
    return rows, {"t1_bounded": rep.t1_bounded, "t2_margin": rep.t2_margin,
                  "limsup_proxy": rep.limsup_proxy, "replicates": rep.replicates,
                  "failed": rep.failed}


def _recursion(spec, args, workers):
    rep = verify_crossing_recursion(spec, args["t"], workers=workers)
    rows = [{"term": "lhs", "estimate": rep["lhs"]}]
    rows += [{"term": k, "estimate": v} for k, v in sorted(rep["rhs_terms"].items())]
    return rows, {k: rep[k] for k in ("lhs", "rhs", "slack", "inequality_margin", "holds",
                                      "max_term", "max_value", "failed")}


def _trifurcation_density(spec, args, workers):
    res = estimate_trifurcation_density(spec, args["r1"], args["r2"],
                                        args["analysis_window"] or spec.window,
                                        workers=workers)
    cols = ("window_area", "mean_count", "density", "candidates", "mean_skipped", "replicates")
    return [{k: res[k] for k in cols}], res


def _ggr(spec, args, workers):
    res = ggr_diagnostics(spec, args["n_max"], workers)
    return [{"n": n, "ball_size": res.ball_sizes[k], "g1_avg": res.g1_avg[k],
             "g1_ci_lo": res.g1_ci[k][0], "g1_ci_hi": res.g1_ci[k][1],
             "g2_avg": res.g2_avg[k]} for k, n in enumerate(res.ns)], None


def _sweep_crossing(spec, args, workers):
    spec = replace(spec, ps=tuple(sorted(spec.ps)))
    results, (per_p,) = estimate_crossing_curve(spec, (_crossing_query(spec, args),),
                                                workers=workers)
    rows = [{"replicate": rep, "p": p, "indicator": ind}
            for rep, (indicators,) in results for p, ind in zip(spec.ps, indicators)]
    return rows, [_crossing_row(p, res) for p, res in zip(spec.ps, per_p)], {}


@dataclass(frozen=True)
class Op:
    """An OPS entry (see the module docstring). Adding an op is one entry
    plus its function: load_config reads all it checks from the entry."""
    p: str
    fn: Callable
    params: dict
    sweep: Callable | None = None
    process: str | None = None
    samples: Callable = lambda args: False
    face_only: bool = False


# The single registry of ops. Entries hold module-level functions that look
# estimators up when they run; storing e.g. estimate_theta itself here would
# hide later rebinding of the module attribute from the table.
OPS = {
    "void": Op(NO_P, _void, {"Q": Window.from_json, "t_values": _list_of(_nonnegative)},
               samples=lambda args: True),
    "laplace": Op(NO_P, _laplace, {"t": _nonnegative, "region": _region},
                  samples=lambda args: True),
    "crossing": Op(EACH_P, _crossing, {"rect": (Window.from_json, None),
                                       "direction": _choice("horizontal", "vertical"),
                                       "color": _choice("black", "white")},
                   sweep=_sweep_crossing),
    "theta": Op(EACH_P, _theta, {"radii": _positives}),
    "pc": Op(NO_P, _pc, {"tolerance": _check(lambda x: _real(x) >= 0.01, "a number >= 0.01"),
                         "replicates_per_probe": _count}),
    "spanning": Op(EACH_P, _spanning, {"analysis_window": (Window.from_json, None)}),
    "smp_gap": Op(ONE_P, _smp_gap, {"Q": Window.from_json, "Qprime": Window.from_json,
                                    "t_schedule": _positives,
                                    "family": _choice("crossing", "void")},
                  sweep=lambda spec, args, workers: ([], *_smp_gap(spec, args, workers)),
                  samples=lambda args: args["family"] == "void"),
    "line_smp": Op(NO_P, _line_smp, {"t_schedule": _positives, "angle_tol": _positive},
                   process="poisson_line"),
    "mixture": Op(ONE_P, _mixture, {"spacing": (_positive, 2.0)}, face_only=True),
    "tameness": Op(NO_P, _tameness, {"delta": _positive, "n_schedule": _counts}),
    "recursion": Op(ONE_P, _recursion, {"t": _positive}),
    "trifurcation_density": Op(ONE_P, _trifurcation_density,
                               {"r1": _count, "r2": _positive,
                                "analysis_window": (Window.from_json, None)}),
    "ggr": Op(ONE_P, _ggr, {"n_max": _count}),
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
    config = load_config(config_path, seed_override)
    name = config.raw["op"]
    started = time.time()
    rows, summary = OPS[name].fn(config.spec, config.args, workers)
    summary = {"rows": len(rows)} if summary is None else summary
    return _write_run(config.raw, out_dir, started, {f"{name}.csv": rows}, summary)


def sweep(config_path, out_dir="runs", workers: int = 1, seed_override=None) -> RunRecord:
    """Coupled sweep: per-replicate rows over the p-grid (shared uniforms per
    replicate) or the smp t-schedule; plus an aggregated summary CSV."""
    config = load_config(config_path, seed_override)
    name = config.raw["op"]
    op = OPS[name]
    if op.sweep is None:
        ops = sorted(name for name, o in OPS.items() if o.sweep is not None)
        raise ConfigError(f"sweep supports ops {ops}, not {name!r}")
    if op.p == EACH_P and config.raw.get("p_grid") is None:
        raise ConfigError(f"{name} sweep needs a p_grid")
    started = time.time()
    rows, summary_rows, extra = op.sweep(config.spec, config.args, workers)
    summary = {"rows": len(rows), "summary_rows": len(summary_rows), **extra}
    return _write_run(config.raw, out_dir, started,
                      {"sweep.csv": rows, "summary.csv": summary_rows}, summary)
