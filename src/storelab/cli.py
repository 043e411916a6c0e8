"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment kinds.  Configuration comes
from an optional key=value file, then --set overrides, then the
STORELAB_SEED environment variable, then the --seed/--out flags.  Exit
codes: 0 success, 1 configuration error, 2 runtime or estimation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .estimation import EstimationError
from .experiments import (
    run_adaptive_convergence,
    run_estimate,
    run_policy_compare,
    run_relaxation,
    run_violation_curve,
)
from .prices import IngestError

_SUBCOMMANDS = {
    "estimate": run_estimate,
    "violation-curve": run_violation_curve,
    "policy-compare": run_policy_compare,
    "adaptive": run_adaptive_convergence,
    "relax": run_relaxation,
}

SEED_ENV_VAR = "STORELAB_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storelab",
        description="Batch experiments for online storage purchasing under stochastic prices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--seed", type=int, metavar="U64", help="master seed override")
        p.add_argument("--out", metavar="PATH", help="output CSV path override")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes (default 1)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one configuration key")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The config file or the defaults, with one override of the subcommand's
    kind, each --set pair, then the STORELAB_SEED seed, then --seed/--out."""
    config = ExperimentConfig() if args.config is None else load_config(args.config)
    overrides = {"kind": args.command}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError("--set", f"expected KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None and args.seed is None:
        try:
            overrides["seed"] = str(int(env_seed))
        except ValueError:
            raise ConfigError(SEED_ENV_VAR, f"not an integer: {env_seed!r}") from None
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    return apply_overrides(config, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    runner = _SUBCOMMANDS[args.command]
    try:
        runner(config, workers=max(1, args.workers))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, IngestError, ValueError, ArithmeticError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
