"""Command-line experiment runner.

Subcommands:
    validate <config>     parse a configuration and report every violation
    run <config>          execute one experiment
    suite <name>          run a named bundle of experiments

Exit status is 0 when every enabled assertion passed, 1 on assertion or
solver failure, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError
from .experiment import ExperimentConfig, load_config, run_experiment

# small, fast configurations exercising the main theory branches end-to-end
SUITES: dict[str, list[ExperimentConfig]] = {
    "power": [
        ExperimentConfig(
            name="power-interval",
            n_cells=200, n_steps=300, t_star=0.2,
            boundary_t0=(0.1,), initial_window=(1e-2, 1e-1), pde_rtol=0.10,
            eps_rungs=3, eps_start=0.04,
            checks=("conditions", "elliptic_rate", "boundary_rate", "initial_rate", "sandwich"),
        ),
    ],
    "power-log": [
        ExperimentConfig(
            name="power-log-interval",
            absorption="power_log(2)",
            n_cells=200, n_steps=300, t_star=0.2,
            boundary_t0=(0.1,), initial_window=(1e-2, 1e-1), pde_rtol=0.10,
            eps_rungs=3, eps_start=0.04,
            checks=("conditions", "elliptic_rate", "boundary_rate", "initial_rate", "sandwich"),
        ),
    ],
    "power-beta4": [
        ExperimentConfig(
            name="power-interval-beta4",
            amplitude=4.0, n_cells=200, n_steps=120, t_star=0.2,
            boundary_t0=(0.1,), pde_rtol=0.10, eps_rungs=0,
            checks=("conditions", "elliptic_rate", "boundary_rate"),
        ),
    ],
    "kernel-linear": [
        ExperimentConfig(
            name="kernel-linear-interval",
            kernel="power(1)", n_cells=160, n_steps=120, t_star=0.2,
            eps_rungs=3, eps_start=0.04,
            checks=("conditions", "sandwich"),
        ),
    ],
    "ball2d": [
        ExperimentConfig(
            name="power-ball2d",
            domain_kind="ball", radius=1.0, dimension=2,
            n_cells=200, n_steps=120, t_star=0.2,
            boundary_t0=(0.1,), pde_rtol=0.10, eps_rungs=0,
            checks=("conditions", "elliptic_rate", "boundary_rate"),
        ),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blowuplab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="validate a configuration file")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a named experiment suite")
    p_suite.add_argument("name", choices=sorted(SUITES))
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(exc)
            return 2
        print(f"configuration {args.config} is valid ({cfg.name})")
        return 0

    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(exc)
            return 2
        res = run_experiment(cfg, out_dir=args.out)
        _print_result(res, args.out or cfg.directory)
        return 0 if res.passed else 1

    base = Path(args.out) if args.out else Path("out")
    ok = True
    for cfg in SUITES[args.name]:
        res = run_experiment(cfg, base / cfg.name)
        _print_result(res, base / res.name)
        ok &= res.passed
    return 0 if ok else 1


def _print_result(res, out_dir) -> None:
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name} -> {out_dir}")
    for line in res.failures:
        print("   ", line)


if __name__ == "__main__":
    sys.exit(main())
