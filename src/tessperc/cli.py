"""Command line interface: tessperc run | sweep | render."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import (ConfigError, ConstructionError, EdgeEffectError, EstimatorFailure,
                     ParameterError)


def _worker_count(text: str) -> int:
    """argparse type of --workers, and the check of TESSPERC_WORKERS: an
    integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _default_workers(parser: argparse.ArgumentParser) -> int:
    """TESSPERC_WORKERS, checked as --workers is (1 when unset or empty); a
    bad value is a usage error."""
    try:
        return _worker_count(os.environ.get("TESSPERC_WORKERS") or "1")
    except argparse.ArgumentTypeError as exc:
        parser.error(f"TESSPERC_WORKERS: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tessperc",
                                     description="Percolation experiments on random tessellations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the op named in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="runs", help="output directory (default: runs)")
    p_run.add_argument("--workers", type=_worker_count, default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")

    p_sweep = sub.add_parser("sweep", help="coupled p-grid / t-schedule sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default="runs")
    p_sweep.add_argument("--workers", type=_worker_count, default=None)
    p_sweep.add_argument("--seed", type=int, default=None, help="override master_seed")

    p_render = sub.add_parser("render", help="render one replicate as SVG")
    p_render.add_argument("config")
    p_render.add_argument("--out", required=True, help="output .svg path")
    p_render.add_argument("--rep", type=int, default=0)
    p_render.add_argument("--show-graph", choices=["none", "face", "star"], default="none")
    p_render.add_argument("--core-only", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "render":
        workers = args.workers or _default_workers(parser)
    try:
        if args.command == "run":
            from .harness import run
            record = run(args.config, out_dir=args.out, workers=workers,
                         seed_override=args.seed)
            print(f"{record.op}: wrote {record.out_dir} (hash {record.spec_hash[:16]})")
        elif args.command == "sweep":
            from .harness import sweep
            record = sweep(args.config, out_dir=args.out, workers=workers,
                           seed_override=args.seed)
            print(f"sweep[{record.op}]: wrote {record.out_dir}")
        elif args.command == "render":
            from .experiment import build_tessellation, coloring_for
            from .harness import load_config
            from .render import render_svg
            spec = load_config(args.config).spec
            spec = replace(spec, p=0.5 if spec.p is None else spec.p)
            tess = build_tessellation(spec, args.rep)
            col = coloring_for(spec, args.rep, tess)
            render_svg(tess, col, args.out, show_graph=args.show_graph,
                       core_only=args.core_only)
            print(f"render: wrote {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, EstimatorFailure, ConstructionError, EdgeEffectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
