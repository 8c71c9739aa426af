"""Command-line entry point.

    codistill run   --config experiment.cfg --out runs/exp1 [--mode lockstep]
    codistill sweep --config experiment.cfg --axis codistill.reload_interval \
                    --values 1,50,250 --out runs/sweep1

Exit codes: 0 success, 1 divergence or runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .distrib import DivergenceError
from .experiments import MODES, SCHEMA, ConfigError, parse_config_file, run, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codistill",
                                     description="Run codistillation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory (default runs/<kind>)")
        p.add_argument("--mode", choices=MODES, default="lockstep")
        p.add_argument("--seed-offset", type=int, default=0,
                       help="added to every seed in the config")

    run_p = sub.add_parser("run", help="run one experiment")
    common(run_p)
    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    common(sweep_p)
    sweep_p.add_argument("--axis", required=True, help="config key to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        if args.seed_offset:
            seeds = cfg.get("seeds", SCHEMA["seeds"][1])
            cfg["seeds"] = [s + args.seed_offset for s in seeds]
        out = Path(args.out) if args.out else Path("runs") / cfg.get("kind", "experiment")
        if args.command == "run":
            summary = run(cfg, out, args.mode)
        else:
            values = [v for v in args.values.split(",") if v.strip() != ""]
            summaries = sweep(cfg, args.axis, values, out, args.mode)
            summary = {"sweep": args.axis, "n_values": len(summaries)}
        print(f"ok: wrote {out}")
        for key in ("kind", "sweep", "diverged"):
            if key in summary:
                print(f"  {key}: {summary[key]}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"diverged at step {err.step}; partial metrics retained", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
