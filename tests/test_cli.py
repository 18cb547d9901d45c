from __future__ import annotations

import csv
import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modnls
from modnls import Grid, SolveConfig, evolve, make_symbol, sobolev_norm
from modnls import cli
from modnls.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from modnls.reports import ExperimentReport

SINGULAR_CFG = """
[singular]
sigma = 1
t = 1.0
rho_list = 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8
"""

SIMULATE_T0_CFG = """
[grid]
d = 1
n = 64
L = 8

[equation]
symbol = laplacian
lambda = -1
sigma = 1

[simulate]
dt = 0.001
T = 0
"""

SIMULATE_CFG = SIMULATE_T0_CFG.replace("T = 0", "T = 0.01\nsnapshot_every = 3")

INFLATE_LAM0_CFG = """
[equation]
symbol = arctan_step(h=1)
lambda = 0
sigma = 2

[inflate]
d = 1
s = 0.25
h_list = e^-2, e^-3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["singular", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "not found" in captured.err
        assert "usage" in captured.err

    def test_missing_subcommand_is_error(self):
        assert main([]) == EXIT_ERROR

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "[singular]\nsigma = -1\nt = 1\nrho_list = 1e-3, 1e-4\n")
        assert main(["singular", "--config", str(cfg)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_singular_pass_is_zero(self, tmp_path):
        cfg = write(tmp_path, "sing.cfg", SINGULAR_CFG)
        out = tmp_path / "out"
        assert main(["singular", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert (out / "report.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "resolved.cfg").is_file()

    def test_inflate_lambda_zero_fails_with_one(self, tmp_path):
        cfg = write(tmp_path, "inf.cfg", INFLATE_LAM0_CFG)
        out = tmp_path / "out"
        assert main(["inflate", "--config", str(cfg), "--out", str(out)]) == EXIT_FAIL
        assert "verdict = fail" in (out / "summary.txt").read_text()

    def test_simulate_T0_single_row(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIMULATE_T0_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + the t = 0 snapshot

    def test_simulate_warns_once_on_a_too_narrow_box(self, tmp_path):
        # the initial-data tail check runs where simulate builds its data
        cfg = write(tmp_path, "sim.cfg", SIMULATE_CFG.replace("L = 8", "L = 1"))
        with pytest.warns(UserWarning, match="initial data spatial tail mass") as record:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_PASS
        assert len([w for w in record if "initial data spatial" in str(w.message)]) == 1

    def test_simulate_rows_at_every_snapshot(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIMULATE_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        with (out / "report.csv").open() as f:
            rows = list(csv.DictReader(f))
        times = [float(row["t"]) for row in rows]
        assert times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01], rel=1e-12, abs=0.0)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == 0.01
        summary = (out / "summary.txt").read_text()
        drift = float(summary.split("fitted.l2_relative_drift = ")[1].split()[0])
        assert drift <= 1e-10
        # each row's H^1 norm is that of a run stopped at the row's time
        grid = Grid(1, 64, 8.0)
        u0 = np.exp(-grid.x[0] ** 2)  # gaussian(amplitude=1,width=1)
        solve = SolveConfig(make_symbol("laplacian"), -1.0, 1.0, dt=0.001, T=0.01)
        for t, row in zip(times, rows):
            end = np.fft.ifftn(evolve(np.fft.fftn(u0), dataclasses.replace(solve, T=t), grid))
            ref = sobolev_norm(end, grid, 1.0)
            assert float(row["h1_norm"]) == pytest.approx(ref, rel=1e-12, abs=0.0)


ODE_CFG = """
[equation]
symbol = arctan_step(h=1)
sigma = 2

[ode-approx]
d = 1
s = 0.25
r = 1
eps_list = 0.1, 0.05
"""

STRICHARTZ_CFG = """
[equation]
symbol = constant(c=0)

[strichartz]
p = 8
q = 4
N_list = 8, 16
contrast = 0
"""


class TestAllDrivers:
    def test_ode_approx_passes(self, tmp_path):
        cfg = write(tmp_path, "ode.cfg", ODE_CFG)
        out = tmp_path / "out"
        assert main(["ode-approx", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        summary = (out / "summary.txt").read_text()
        assert "verdict = pass" in summary
        assert "fitted.error_ratio" in summary

    def test_strichartz_zero_symbol_passes(self, tmp_path):
        cfg = write(tmp_path, "str.cfg", STRICHARTZ_CFG)
        out = tmp_path / "out"
        assert main(["strichartz", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header.startswith("symbol,N,")


class TestReproducibility:
    def test_csv_bit_identical_across_runs(self, tmp_path):
        cfg = write(tmp_path, "sing.cfg", SINGULAR_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["singular", "--config", str(cfg), "--out", str(out1)]) == EXIT_PASS
        assert main(["singular", "--config", str(cfg), "--out", str(out2)]) == EXIT_PASS
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_csv_numbers_round_trip_doubles(self, tmp_path):
        cfg = write(tmp_path, "sing.cfg", SINGULAR_CFG)
        out = tmp_path / "out"
        main(["singular", "--config", str(cfg), "--out", str(out)])
        header, first, *_ = (out / "report.csv").read_text().splitlines()
        rho_col = header.split(",").index("rho")
        value = first.split(",")[rho_col]
        assert float(value) == 1e-3
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 1

    def test_resolved_config_reruns_identically(self, tmp_path):
        cfg = write(tmp_path, "sing.cfg", SINGULAR_CFG)
        out1 = tmp_path / "a"
        main(["singular", "--config", str(cfg), "--out", str(out1)])
        out2 = tmp_path / "b"
        code = main(["singular", "--config", str(out1 / "resolved.cfg"), "--out", str(out2)])
        assert code == EXIT_PASS
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


class TestRejectedBeforeAnyCompute:
    """Bad driver input exits 2, names the violated constraint, and writes no report."""

    # the tuning keys that became module constants, and the simulate filter that went
    @pytest.mark.parametrize("sub,key", [
        ("inflate", "rotation_budget = 0.64"),
        ("inflate", "min_ratio_growth = 3"),
        ("ode-approx", "rotation_budget = 0.64"),
        ("strichartz", "n_ceiling = 16384"),
        ("simulate", "dealias = 0"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, sub, key):
        text = {"inflate": INFLATE_LAM0_CFG, "ode-approx": ODE_CFG,
                "strichartz": STRICHARTZ_CFG, "simulate": SIMULATE_T0_CFG}[sub]
        section = "[simulate]" if sub == "simulate" else f"[{sub}]"
        cfg = write(tmp_path, "bad.cfg", text.replace(section, f"{section}\n{key}"))
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        name = key.split(" = ")[0]
        assert f"unknown key '{name}' in section {section}" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_unallocatable_grid_is_an_error(self, tmp_path, capsys):
        text = INFLATE_LAM0_CFG.replace("h_list", "grid_n = 1125899906842624\nh_list")
        cfg = write(tmp_path, "huge.cfg", text)
        out = tmp_path / "out"
        assert main(["inflate", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert ("n = 1125899906842624 points per axis in d = 1 has more than "
                "MAX_GRID_NODES = 16777216 nodes") in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("N_list", ["0, 2, 4", "-2, 4", "8, inf"])
    def test_N_list_entries_must_be_finite_and_positive(self, tmp_path, capsys, N_list):
        cfg = write(tmp_path, "bad.cfg", STRICHARTZ_CFG.replace("N_list = 8, 16",
                                                                f"N_list = {N_list}"))
        out = tmp_path / "out"
        assert main(["strichartz", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "every N in N_list must be finite and > 0" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    # each replaces one line of a passing config; the compute entry point is
    # patched to fail, so a check that ran late would fail the test
    @pytest.mark.parametrize("sub,old,new,message", [
        ("strichartz", "contrast = 0", "t_end = inf",
         "the time interval [t0, t_end] must be finite"),
        ("strichartz", "contrast = 0", "box_L = nan", "box_L must be finite and > 0"),
        ("strichartz", "contrast = 0", "box_L = -1", "box_L must be finite and > 0"),
        ("strichartz", "contrast = 0", "n_ceiling = 0",
         "unknown key 'n_ceiling' in section [strichartz]"),
        ("strichartz", "contrast = 0", "contrast = 7", "contrast must be 0 or 1"),
        ("simulate", "T = 0", "T = inf", "final time must be finite and >= 0"),
        ("simulate", "dt = 0.001", "dt = inf", "dt must be finite and > 0"),
        ("singular", "t = 1.0", "t = 1.0\nquad_tol = 1e-15",
         "quadrature tolerance must be >= 1e-12"),
        ("inflate", "h_list", "min_ratio_growth = nan\nh_list",
         "unknown key 'min_ratio_growth' in section [inflate]"),
        ("inflate", "h_list", "min_ratio_growth = -5\nh_list",
         "unknown key 'min_ratio_growth' in section [inflate]"),
        ("strichartz", "contrast = 0", "k_grid = 0.25, nan",
         "every k in k_grid must be finite"),
        ("simulate", "T = 0", "T = 0\ninitial = gaussian(amplitude=nan)",
         "initial data amplitude must be finite"),
        ("simulate", "T = 0", "T = 0\ninitial = gaussian(width=inf)",
         "initial data width must be finite and > 0"),
        ("strichartz", "p = 8\nq = 4", "p = inf\nq = 2", "the time exponent p must be finite"),
        ("strichartz", "N_list = 8, 16", "N_list = 8, 16, 512",
         "probe at N = 512.0 needs n = 32768 points per axis, above the ceiling 16384"),
        ("strichartz", "N_list = 8, 16", "N_list = 8, 1e308",
         "probe at N = 1e+308 needs n = inf points per axis, above the ceiling 16384"),
        ("inflate", "lambda = 0", "lambda = inf", "lambda must be finite, got inf"),
        ("inflate", "lambda = 0", "lambda = nan", "lambda must be finite, got nan"),
        ("inflate", "h_list", "delta = inf\nh_list", "delta must be finite, got inf"),
        ("inflate", "h_list", "theta = inf\nh_list", "theta must be finite, got inf"),
        ("inflate", "symbol = arctan_step(h=1)\nlambda = 0\nsigma = 2\n\n[inflate]\nd = 1",
         "symbol = transport(c=1)\nsigma = 2\n[inflate]\nd = 2\nomega = 1",
         "symbol transport(c=1) is restricted to d = 1"),
        ("simulate", "sigma = 1", "sigma = inf", "nonlinearity power sigma must be finite"),
        ("simulate", "lambda = -1", "lambda = nan", "lambda must be finite, got nan"),
        ("singular", "sigma = 1", "sigma = inf", "sigma must be finite, got inf"),
        ("singular", "t = 1.0", "t = inf", "time t must be finite, got inf"),
        ("singular", "t = 1.0", "t = 1.0\nlambda = nan", "lambda must be finite, got nan"),
        ("singular", "t = 1.0", "t = 1.0\nquad_tol = inf",
         "quadrature tolerance quad_tol must be finite, got inf"),
        ("strichartz", "p = 8\nq = 4", "d = 3\np = 4\nq = 3",
         "spatial dimension must be 1 or 2, got 3"),
        ("strichartz", "N_list = 8, 16", "N_list = 1e200, 2e200\nbox_L = 1e-300",
         "the probe data at N = 1e+200 need a finite N^2, got inf"),
        ("strichartz", "contrast = 0", "t_end = 1e307",
         "probe of laplacian at N = 8.0 needs inf time samples"),
        ("strichartz", "symbol = constant(c=0)\n\n[strichartz]",
         "symbol = arctan_step(h=1)\n\n[strichartz]\nt_end = 1e12",
         "probe of arctan_step(h=1) at N = 8.0 needs 402123859659495 time samples, "
         "above the ceiling 16777216"),
        ("strichartz", "p = 8\nq = 4\nN_list = 8, 16",
         "d = 2\np = 4\nq = 4\nN_list = 8, 1024\nbox_L = 1",
         "probe at N = 1024.0 needs n^d = 16384^2 grid nodes, above the cap MAX_GRID_NODES"),
        ("inflate", "h_list", "grid_n = 1125899906842624\nh_list",
         "more than MAX_GRID_NODES = 16777216 nodes"),
        ("simulate", "n = 64", "n = 33554432", "more than MAX_GRID_NODES = 16777216 nodes"),
        ("simulate", "dt = 0.001\nT = 0", "dt = 1e-300\nT = 1",
         "T = 1.0 at dt = 1e-300 needs 1e+300 Strang steps, "
         "above MAX_STEPS = 16777216"),
    ], ids=["t_end inf", "box_L nan", "box_L negative", "n_ceiling zero", "contrast 7",
            "T inf", "dt inf", "quad_tol below the floor", "min_ratio_growth nan",
            "min_ratio_growth negative", "k_grid nan", "initial amplitude nan",
            "initial width inf", "p inf", "last N above n_ceiling", "N overflows the grid rule",
            "inflate lambda inf", "inflate lambda nan", "inflate delta inf", "inflate theta inf",
            "inflate transport in d = 2", "simulate sigma inf", "simulate lambda nan",
            "singular sigma inf", "singular t inf", "singular lambda nan", "singular quad_tol inf",
            "strichartz d = 3", "N^2 overflows", "time samples overflow",
            "time samples above the ceiling", "2D probe above the node cap",
            "inflate grid_n above the node cap", "simulate n above the node cap",
            "simulate steps above the cap"])
    def test_driver_input_is_checked_before_compute(self, tmp_path, capsys, monkeypatch,
                                                     sub, old, new, message):
        assert old in {"strichartz": STRICHARTZ_CFG, "simulate": SIMULATE_T0_CFG,
                       "singular": SINGULAR_CFG, "inflate": INFLATE_LAM0_CFG}[sub]
        def no_compute(*args, **kwargs):
            raise AssertionError(f"{sub} computed before rejecting {new!r}")

        monkeypatch.setattr("modnls.experiments._probe_sweep", no_compute)
        monkeypatch.setattr("modnls.cli.evolve", no_compute)
        monkeypatch.setattr("modnls.experiments.evolve", no_compute)
        monkeypatch.setattr("modnls.singular.quad", no_compute)
        text = {"strichartz": STRICHARTZ_CFG, "simulate": SIMULATE_T0_CFG,
                "singular": SINGULAR_CFG, "inflate": INFLATE_LAM0_CFG}[sub]
        cfg = write(tmp_path, "bad.cfg", text.replace(old, new))
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (out / "report.csv").exists()


# a valid config per traced driver and a value each driver must receive from it
TRACED_DRIVERS = [
    ("inflate", "run_norm_inflation", INFLATE_LAM0_CFG,
     {"h_list": (math.exp(-2), math.exp(-3)), "lam": 0.0}),
    ("ode-approx", "run_ode_approx", ODE_CFG, {"eps_list": (0.1, 0.05), "r": 1}),
    ("strichartz", "run_strichartz_probe", STRICHARTZ_CFG,
     {"p": 8.0, "q": 4.0, "N_list": (8.0, 16.0), "include_contrast": 0}),
    ("singular", "run_singular_probe", SINGULAR_CFG,
     {"sigma": 1.0, "t": 1.0, "rho_list": (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)}),
]


@pytest.mark.parametrize("sub,name,text,expected", TRACED_DRIVERS,
                         ids=[row[1] for row in TRACED_DRIVERS])
def test_cli_calls_the_driver_bound_on_its_module(tmp_path, monkeypatch, sub, name, text,
                                                  expected):
    # the benchmark's tracer wraps these module attributes; a CLI that bound
    # the drivers at import time would bypass the wrappers
    calls = []
    real = getattr(cli, name)

    def stub(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return ExperimentReport(sub, [{"x": 1.0}], {}, verdict=True)

    monkeypatch.setattr(cli, name, stub)
    cfg = write(tmp_path, "run.cfg", text)
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_PASS
    assert len(calls) == 1
    for key, value in expected.items():
        assert calls[0][key] == (pytest.approx(value, rel=1e-15)
                                 if isinstance(value, tuple) else value)


def _modules_after_cli_import(package: str) -> str:
    # a fresh interpreter, so modules that this test session loaded do not count
    src = str(Path(modnls.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import modnls.cli, sys; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_probe_whose_Q_underflows_is_an_error(tmp_path, capsys):
    # at N = 1e-300 the data's |u|^4 underflows, so Q = 0 and log Q has no value
    text = STRICHARTZ_CFG.replace("N_list = 8, 16", "N_list = 1e-300, 2e-300")
    cfg = write(tmp_path, "underflow.cfg", text)
    out = tmp_path / "out"
    assert main(["strichartz", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert "probe of constant(c=0) at N = 1e-300 gives Q = 0.0" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_cli_import_loads_no_scipy():
    # importing scipy.integrate costs about 0.5 s, several times the rest of
    # start-up; only picard_solve and the test oracles use scipy
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_concurrent_futures():
    # importing concurrent.futures costs about 6 ms, about 5% of start-up; the
    # probe's lanes use threading, which numpy already imports
    assert _modules_after_cli_import("concurrent") == "[]"
