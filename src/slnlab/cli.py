"""Command-line front end.

Exit codes: 0 pass, 1 certificate fail, 2 config error, 3 budget error,
4 search exhausted.
"""

import argparse
import dataclasses
import json
import os
import sys

from .errors import (
    BudgetExceeded,
    ConfigError,
    DedupUnavailable,
    InsufficientBudget,
    NotLoxodromic,
    SearchExhausted,
    TooFewRecords,
)
from .pipeline import PipelineConfig, cmd_analyze, cmd_build_semigroup, cmd_certify, load_generators


def _build_parser():
    p = argparse.ArgumentParser(prog="slnlab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="pipeline config JSON")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--radius", type=int)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--delta", type=float, help="target critical exponent")
        sp.add_argument("--exact-check", type=int, dest="exact_check",
                        help="max word length for the exact freeness crosscheck")
        sp.add_argument("--out", help="output directory")

    common(sub.add_parser("analyze", help="growth and limit-cone reports"))
    common(sub.add_parser("build-semigroup", help="search, pack, and certify a free generating set"))
    cert = sub.add_parser("certify", help="freeness certificate for explicit generators")
    common(cert)
    cert.add_argument("--generators", help="generators JSON (shared matrix format)")
    return p


def _load_config(args):
    if not args.config:
        raise ConfigError("--config is required")
    cfg = PipelineConfig.from_json_file(args.config)
    flags = {"seed": args.seed, "radius": args.radius, "epsilon": args.epsilon,
             "target_delta": args.delta, "exact_check": args.exact_check, "output_dir": args.out}
    # replace() runs the config's checks again on the flags' values
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            cfg = _load_config(args)
            report = cmd_analyze(cfg)
            print(f"analyze: {report['records']} records, delta_hat={report['delta_hat']:.6f}")
            return 0

        if args.command == "build-semigroup":
            cfg = _load_config(args)
            try:
                cert, report = cmd_build_semigroup(cfg)
            except SearchExhausted as e:
                print(f"build-semigroup: search exhausted: {e}")
                return 4
            print(
                f"build-semigroup: pass with {len(cert.generators)} generators, "
                f"selection sum {report['checklist']['selection_sum']:.4f}"
            )
            return 0

        if args.command == "certify":
            if args.generators:
                gens = load_generators(args.generators)
                epsilon = args.epsilon
                seed = args.seed or 0
                settings = {"exact_check": args.exact_check}
            else:
                cfg = _load_config(args)
                gens = cfg.generators()
                epsilon = cfg.epsilon
                seed = cfg.seed
                settings = {"budget": cfg.sample_budget, "gap_tol": cfg.gap_tol, "exact_check": cfg.exact_check}
            if epsilon is None:
                raise ConfigError("--epsilon is required for certify")
            try:
                cert = cmd_certify(gens, epsilon, seed=seed, **settings)
            except NotLoxodromic as e:
                print(f"certify: fail: NotLoxodromic: {e}")
                return 1
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                with open(os.path.join(args.out, "certificate.json"), "w") as fh:
                    json.dump(cert.to_dict(), fh, sort_keys=True, indent=1)
            if cert.passed:
                xc = cert.exact_crosscheck
                extra = f", crosscheck collisions={xc.collisions}" if xc else ""
                print(f"certify: pass at epsilon={epsilon}{extra}")
                return 0
            print("certify: fail: " + "; ".join(cert.failures[:4]))
            return 1

        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, DedupUnavailable) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceeded, TooFewRecords, InsufficientBudget) as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
