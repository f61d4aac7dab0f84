"""tessperc benchmark: time to solution of harness workloads, and where it goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from anywhere; paths are taken relative to the checkout that holds this
file, and tessperc is imported from its `src/`. Every process runs with
workers=1 and BLAS/OpenMP pinned to one thread.

--trace 0 times fresh-interpreter set-ups and untraced solves, and reports the
end-to-end metrics of BENCHMARK.json. Their times are scaled to one host
speed, measured by a reference computation timed between the solves. --trace 1 alternates untraced and
traced solves and reports the per-layer metrics. Every solve's CSVs are
hashed and must agree; the workload's oracle checks the answer. The last
stdout line is the result object; the line before it is the full report
(environment, digests, failures, absent layers). The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import BUILD_ERRORS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    pass


# The host's speed drifts, and the reference computation (worker.reference_s)
# drifts with it. So end-to-end times are scaled to a host on which that
# computation takes REFERENCE_S, about its fastest on a quiet 2-vCPU Xeon VM.
REFERENCE_S = 0.030


def _scale(reference_times: list[float]) -> float:
    return REFERENCE_S / statistics.median(reference_times)


def _child(*args: str) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Run one workload; return (result object, full report)."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))

    load_before = os.getloadavg()
    setups = [] if trace else [_child("setup", str(cfg_path)) for _ in range(SETUP_PROBES)]
    res = _child("solve", str(cfg_path), "--entry", workload.entry, "--out", str(work / "out"),
                 "--seconds", str(seconds), "--trace", str(int(trace)))
    load_after = os.getloadavg()

    problems = []
    solves = res["solves"]
    digests = {json.dumps(s["digests"], sort_keys=True) for s in [res["warmup"], *solves]}
    if len(digests) != 1:
        problems.append(f"CSV digests differ between solves of one seed: {sorted(digests)}")
    out_dir = Path(solves[-1]["out_dir"])
    counts = workload.counts(out_dir, cfg)
    miss = workload.oracle(out_dir, cfg)
    if miss:
        problems.append(f"oracle: {miss}")
    attempted = counts.attempted * len(solves)
    failed = (counts.failed + (1 if miss else 0)) * len(solves)

    scale = _scale(res["reference_s"])
    untraced_s = statistics.median(s["solve_s"] for s in solves if not s["traced"])
    trace_notes = []
    if trace:
        # The layers may change under later refactors, so a mismatch here is
        # noted in the report but does not make the program's output wrong.
        layers = res["layers"]
        layers["trace.overhead_frac"] = (
            statistics.median(s["solve_s"] for s in solves if s["traced"]) / untraced_s - 1)
        if layers["estimators.replicates"] != counts.attempted:
            trace_notes.append(f"traced build calls {layers['estimators.replicates']} != "
                               f"{counts.attempted} replicates attempted in the CSV")
        traced_failures = sum(layers[f"tessellation.build.failed.{e}"] for e in BUILD_ERRORS)
        if traced_failures != counts.failed:
            trace_notes.append(f"traced build failures {traced_failures} != "
                               f"{counts.failed} failed in the CSV")
        values, wanted = layers, spec["per_layer"]
    else:
        solve_s = untraced_s * scale
        setup_s = statistics.median(p["setup_s"] * _scale(p["reference_s"]) for p in setups)
        values = {"setup_s": setup_s, "solve_s": solve_s,
                  "replicates_per_s": counts.attempted / solve_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": cfg, "problems": problems, "trace_notes": trace_notes,
        "failed_frac": failed / attempted, "setup_samples": setups,
        "reference_s": res["reference_s"], "scale": scale, "unscaled_solve_s": untraced_s,
        "solves": [{k: s[k] for k in ("traced", "solve_s", "digests")} for s in solves],
        "absent_layers": res.get("absent", []), "build_failures": res.get("build_failures", []),
        "missing_bindings": res.get("missing_bindings", []),
        "env": {"nproc": os.cpu_count(), "loadavg_before": load_before,
                "loadavg_after": load_after, **res["versions"], "thread_pins": THREAD_PINS,
                "git_commit": _git_commit()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tessperc" / "__init__.py").is_file():
        print(f"error: no tessperc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result, report = bench(name, args.seed, args.seconds, bool(args.trace), spec)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, v in result["metrics"].items():
            print(f"{name:18s} {metric:48s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
        for problem in report["problems"]:
            print(f"{name:18s} FAILED {problem}", file=sys.stderr)
        print(json.dumps({"report": report}))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
