"""Checks of the benchmark's own machinery on reduced workload instances.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tessperc import harness  # noqa: E402

from tracer import BUILD_ERRORS, ROOT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# With buffer 3.4, replicates 3 and 187 of this seed's reduced theta instance
# raise EdgeEffectError: 2 of 200, the most the 1% failure budget lets
# through, so the run still writes its CSV.
SEED_WITH_FAILURES = 1


def _solve(workload, cfg, tmp_path, workers=1, tracer=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    fn = getattr(harness, workload.entry)
    kwargs = {"out_dir": str(tmp_path / f"out-w{workers}-t{tracer is not None}"),
              "workers": workers}
    if tracer is None:
        record = fn(str(path), **kwargs)
    else:
        tracer.install()
        try:
            record = tracer.call(ROOT, workload.entry, fn, (str(path),), kwargs)
        finally:
            tracer.uninstall()
    out = Path(record.out_dir)
    return out, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_csvs_identical_across_workers_and_tracing(name, tmp_path):
    workload = WORKLOADS[name]
    cfg = workload.config(seed=3, reduced=True)
    _, one = _solve(workload, cfg, tmp_path, workers=1)
    _, two = _solve(workload, cfg, tmp_path, workers=2)
    _, traced = _solve(workload, cfg, tmp_path, workers=1, tracer=Tracer())
    assert one
    assert two == one
    assert traced == one


def test_build_failures_attributed_by_type_and_match_csv(tmp_path):
    workload = WORKLOADS["pv_theta_L40"]
    cfg = dict(workload.config(seed=SEED_WITH_FAILURES, reduced=True),
               buffer=3.4, replicates=200)
    tracer = Tracer()
    out, _ = _solve(workload, cfg, tmp_path, tracer=tracer)
    root = next(s for s in tracer.spans if s.layer == ROOT)
    metrics, details = layer_metrics(tracer.spans, [root.duration])
    counts = workload.counts(out, cfg)

    assert counts.attempted == 200
    assert counts.failed > 0
    assert sum(metrics[f"tessellation.build.failed.{e}"] for e in BUILD_ERRORS) == counts.failed
    assert len(details["build_failures"]) == counts.failed
    assert {f["error"] for f in details["build_failures"]} <= set(BUILD_ERRORS)
    assert all(0 <= f["rep"] < 200 for f in details["build_failures"])
    assert workload.oracle(out, cfg) is None
    assert metrics["tessellation.build.ok_frac"] == pytest.approx(
        1 - counts.failed / counts.attempted)


def test_self_times_account_for_root_and_missing_binding_is_absent(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")
    fake.color = lambda n: sum(range(n))
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    original = fake.color
    tracer = Tracer(bindings=(
        (fake.__name__, "color", "percolation.color", None),
        (fake.__name__, "crossing", "percolation.crossing", None),
    ))
    tracer.install()
    try:
        tracer.call(ROOT, "run", lambda: [fake.color(10_000) for _ in range(5)])
    finally:
        tracer.uninstall()

    assert fake.color is original
    assert tracer.missing == [f"{fake.__name__}.crossing"]
    root = tracer.spans[0]
    assert [s.layer for s in tracer.spans] == [ROOT] + ["percolation.color"] * 5
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(root.duration)
    metrics, details = layer_metrics(tracer.spans, [root.duration])
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)
    assert "percolation.crossing" in details["absent"]
    assert metrics["percolation.crossing.share"] == 0.0


def test_oracles_reject_wrong_answers(tmp_path):
    (tmp_path / "theta.csv").write_text(
        "p,radius,estimate,ci_lo,ci_hi,replicates,failed\n"
        "0.6,5.0,0.5,0,1,40,0\n0.6,10.0,0.6,0,1,40,0\n")
    assert "nonincreasing" in WORKLOADS["pv_theta_L40"].oracle(tmp_path, {})
    (tmp_path / "crossing.csv").write_text(
        "p,estimate,ci_lo,ci_hi,replicates,failed\n0.5,0.1,0,1,50,0\n")
    assert "misses 1/2" in WORKLOADS["pv_crossing_L20"].oracle(tmp_path, {})
    (tmp_path / "summary.csv").write_text(
        "p,estimate,ci_lo,ci_hi,replicates,failed\n0.3,0.6,0,1,10,0\n0.5,0.9,0,1,10,0\n")
    assert "cross 1/2" in WORKLOADS["sq_sweep_star_L48"].oracle(tmp_path, {})
