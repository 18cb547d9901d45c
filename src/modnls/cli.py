"""Command-line entry point.

Usage: ``modnls <subcommand> --config <path> [--out <dir>]``.  Each run
writes ``report.csv`` (one record per sweep point), ``summary.txt``
(verdict, fitted exponents, tolerances), and ``resolved.cfg`` (the full
configuration with defaults filled).  Exit codes: 0 on a passing verdict,
1 on a failing verdict, 2 on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import SUBCOMMANDS, ConfigError, parse_config, render_config
from .evolution import (
    EvolutionError,
    SolveConfig,
    _warn_initial_tails,
    evolve,
    sigma_is_admissible,
)
from .experiments import (
    ExperimentError,
    run_norm_inflation,
    run_ode_approx,
    run_strichartz_probe,
)
from .reports import ExperimentReport, write_report
from .scaling import ScalingError
from .singular import SingularProbeError, run_singular_probe
from .spectral import Grid, SpectralError, _coeff_sobolev_norm, _coeff_tail_mass
from .symbols import SymbolError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_DRIVER_ERRORS = (
    ConfigError,
    SpectralError,
    SymbolError,
    ScalingError,
    ExperimentError,
    SingularProbeError,
    EvolutionError,
)


def _run_simulate(grid: Grid, u0: np.ndarray, solve: SolveConfig) -> ExperimentReport:
    u0_hat = np.fft.fftn(u0)
    _warn_initial_tails(u0, u0_hat, grid)
    rows = []
    evolve(u0_hat, solve, grid, lambda t, coeffs: rows.append({
        "t": t,
        "l2_norm": _coeff_sobolev_norm(coeffs, grid, 0.0),
        "h1_norm": _coeff_sobolev_norm(coeffs, grid, 1.0),
        "spectral_tail_mass": _coeff_tail_mass(coeffs, grid),
    }))
    l2_0, l2_T = rows[0]["l2_norm"], rows[-1]["l2_norm"]
    drift = abs(l2_T - l2_0) / l2_0 if l2_0 else 0.0
    admissible = sigma_is_admissible(solve.sigma, grid.d)
    fitted = {"l2_relative_drift": drift, "sigma_admissible": float(admissible)}
    return ExperimentReport("simulate", rows, fitted, verdict=True)


# subcommand -> the name of its driver in this module.  The driver is looked
# up by name when it is called, so a wrapper set on this module's attribute
# (a tracer, a test stub) is the function that runs.
_DRIVERS = {
    "simulate": "_run_simulate",
    "inflate": "run_norm_inflation",
    "ode-approx": "run_ode_approx",
    "strichartz": "run_strichartz_probe",
    "singular": "run_singular_probe",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnls",
        description="Pseudospectral experiments for Schrodinger equations with modified dispersion",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True, help="path to the config file")
        s.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_ERROR

    path = Path(args.config)
    if not path.is_file():
        print(f"error: config file not found: {path}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_ERROR

    try:
        cfg = parse_config(args.subcommand, path.read_text())
        outdir = Path(args.out) if args.out else Path(cfg.outdir)
        report = globals()[_DRIVERS[args.subcommand]](**cfg.args)
    except _DRIVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved.cfg").write_text(render_config(cfg))
    write_report(report, outdir)
    print(f"{report.kind}: {'pass' if report.verdict else 'fail'} ({outdir / 'report.csv'})")
    return EXIT_PASS if report.verdict else EXIT_FAIL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
