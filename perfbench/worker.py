"""One benchmark process: set up, then time harness solves until the budget ends.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py solve CONFIG --entry run --out DIR --seconds S --trace 0

`setup` times, in this fresh interpreter, importing tessperc and validating
the config, then the reference computation. `solve` calls harness.run / harness.sweep on the config with
workers=1 once untimed, then over and over, with the same seed each time,
until the next call would end past the budget; with --trace 1 it alternates
untraced and traced calls. After each call it times a fixed reference
computation, which run.py uses to scale the times to one host speed. Both
print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracer import ROOT, Tracer, layer_metrics

REFERENCE_REPEATS = 4  # reference timings after each solve and each set-up

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def setup(config: str) -> dict:
    t0 = perf_counter()
    from tessperc import harness
    harness.load_config(config)
    setup_s = perf_counter() - t0
    reference_s(1)
    return {"setup_s": setup_s, "reference_s": reference_s()}


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


_REFERENCE_INPUT = []


def reference_s(repeats: int = REFERENCE_REPEATS) -> list[float]:
    """Times of a fixed numpy computation that shares no code with tessperc.

    The host's speed drifts by tens of percent over seconds to minutes, and
    this computation slows and speeds up with it, so its time between solves
    measures the speed the solves ran at.
    """
    import numpy as np
    if not _REFERENCE_INPUT:
        _REFERENCE_INPUT.append(np.random.default_rng(12345).random(100_000))
    (a,) = _REFERENCE_INPUT
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(6):
            b = a[np.argsort(a)]
            np.cumsum(b)
            np.unique((b * 1000).astype(np.int64))
        times.append(perf_counter() - t0)
    return times


def solve(config: str, entry: str, out: str, seconds: float, trace: bool) -> dict:
    from tessperc import harness

    fn = getattr(harness, entry)
    tracer = Tracer()
    deadline = perf_counter() + seconds
    # One untimed call first, so first-call costs (lazy imports, caches) stay
    # out of the timings; its CSVs still take part in the digest check.
    record = fn(config, out_dir=out, workers=1)
    warmup = {"traced": False, "digests": _digests(Path(record.out_dir))}
    reference = []
    reference_s(1)
    solves = []
    while True:
        traced = trace and len(solves) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            if traced:
                record = tracer.call(ROOT, entry, fn, (config,), {"out_dir": out, "workers": 1})
            else:
                record = fn(config, out_dir=out, workers=1)
            solve_s = perf_counter() - t0
        finally:
            tracer.uninstall()
        solves.append({"traced": traced, "solve_s": solve_s, "out_dir": record.out_dir,
                       "digests": _digests(Path(record.out_dir))})
        t0 = perf_counter()
        reference.extend(reference_s())
        gap_s = perf_counter() - t0
        if len(solves) >= (2 if trace else 1) and perf_counter() + solve_s + gap_s > deadline:
            break

    import numpy
    import scipy
    result = {
        "warmup": warmup,
        "solves": solves,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        metrics, details = layer_metrics(
            tracer.spans, [s["solve_s"] for s in solves if s["traced"]])
        result.update(layers=metrics, missing_bindings=tracer.missing, **details)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "solve"])
    parser.add_argument("config")
    parser.add_argument("--entry", choices=["run", "sweep"], default="run")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.config)
    else:
        result = solve(args.config, args.entry, args.out, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
