from __future__ import annotations

import math
import warnings

import pytest

from modnls import BOUNDED, HOMOGENEOUS, Grid, SolveConfig, cli, compute_scaling, make_symbol
from modnls.config import (
    ConfigError,
    _SCHEMAS,
    parse_config,
    parse_config_text,
    parse_initial_spec,
    render_config,
)
from modnls.evolution import EvolutionError
from modnls.experiments import (
    ExperimentError,
    check_inflate_args,
    check_ode_approx_args,
    check_strichartz_args,
)
from modnls.scaling import ScalingError
from modnls.singular import SingularProbeError, check_probe_args
from modnls.spectral import SpectralError, check_half_length
from modnls.symbols import SymbolError

INFLATE_OK = """
[equation]
symbol = arctan_step(h=1)
lambda = 1.0
sigma = 2

[inflate]
d = 1
s = 0.25
h_list = e^-2, e^-3, e^-4
"""

ODE_OK = """
[equation]
symbol = arctan_step(h=1)
sigma = 2

[ode-approx]
d = 1
s = 0.25
r = 1
eps_list = 0.1, 0.03, 0.01
"""

SIMULATE_OK = """
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
T = 0.01
"""


class TestGrammar:
    def test_sections_and_comments(self):
        sections = parse_config_text("# top\n[a]\nx = 1  # trailing\n\n[b]\ny = 2\n")
        assert sections["a"]["x"][0] == "1"
        assert sections["b"]["y"] == ("2", 6)

    def test_parse_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[a]\nx = 1\nnot an assignment\n")

    def test_assignment_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config_text("x = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[a]\nx = 1\nx = 2\n")

    def test_exponent_number_form(self):
        cfg = parse_config("inflate", INFLATE_OK)
        assert cfg.params["h_list"][0] == pytest.approx(math.exp(-2), rel=1e-15)


class TestValidation:
    def test_valid_inflate(self):
        cfg = parse_config("inflate", INFLATE_OK)
        assert cfg.params["theta"] == 0.05 and cfg.params["delta"] == 0.1
        assert cfg.params["symbol"].name == "arctan_step"

    def test_inflate_warns_when_the_ratio_cannot_grow(self):
        # the README example: s*(delta - 2*sigma*theta) = 0.25*(0.1 - 0.2) = -0.025
        with pytest.warns(UserWarning, match=r"= -0\.025 is <= 0, so the inflation ratio"):
            parse_config("inflate", INFLATE_OK + "theta = 0.05\ndelta = 0.1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config("inflate", INFLATE_OK + "theta = 0.05\ndelta = 8\n")

    def test_empty_inflate_section_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("inflate", "[inflate]\n")
        message = str(err.value)
        for needed in ("symbol", "sigma", " s", "h_list", "d"):
            assert needed in message

    def test_round_trip_is_stable(self):
        cfg = parse_config("inflate", INFLATE_OK)
        text = render_config(cfg)
        again = parse_config("inflate", text)
        assert render_config(again) == text
        assert again.params["h_list"] == cfg.params["h_list"]
        assert again.params["symbol"].spec_string() == cfg.params["symbol"].spec_string()

    def test_round_trip_all_subcommands(self):
        for sub, text in (("inflate", INFLATE_OK), ("ode-approx", ODE_OK), ("simulate", SIMULATE_OK)):
            cfg = parse_config(sub, text)
            assert render_config(parse_config(sub, render_config(cfg))) == render_config(cfg)


def _swap(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


# criterion table: every hypothesis-violating input is rejected before any work
INVALID_CASES = [
    ("bounded s >= d/2", "inflate", _swap(INFLATE_OK, "s = 0.25", "s = 0.6")),
    ("homogeneous s >= s0", "inflate",
     "[equation]\nsymbol = laplacian\nsigma = 2\n[inflate]\nd = 2\ns = 0.6\nomega = 1\nh_list = e^-2, e^-3\n"),
    ("homogeneous s0 <= 0", "inflate",
     "[equation]\nsymbol = laplacian\nsigma = 2\n[inflate]\nd = 1\ns = 0.1\nomega = 1\nh_list = e^-2, e^-3\n"),
    ("missing omega for homogeneous", "inflate",
     "[equation]\nsymbol = laplacian\nsigma = 2\n[inflate]\nd = 2\ns = 0.25\nh_list = e^-2, e^-3\n"),
    ("h above e^-1", "inflate", _swap(INFLATE_OK, "e^-2", "0.5")),
    ("h_list not decreasing", "inflate", _swap(INFLATE_OK, "e^-2, e^-3, e^-4", "e^-3, e^-2")),
    ("sigma <= 0", "inflate", _swap(INFLATE_OK, "sigma = 2", "sigma = 0")),
    ("unknown key", "inflate", INFLATE_OK + "omega2 = 1\n"),
    ("unknown symbol", "inflate", _swap(INFLATE_OK, "arctan_step(h=1)", "helix(h=1)")),
    ("bad symbol parameter", "inflate", _swap(INFLATE_OK, "arctan_step(h=1)", "arctan_step(h=0)")),
    ("non-admissible pair", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 5\nN_list = 8, 16\n"),
    ("excluded endpoint pair", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 2\nq = inf\nN_list = 8, 16\n"),
    ("N_list not increasing", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 16, 8\n"),
    ("time exponent p infinite", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = inf\nq = 2\nN_list = 8, 16\n"),
    ("last N above n_ceiling", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\n"
     "N_list = 8, 16, 512\n"),
    ("N^2 not finite", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\n"
     "N_list = 1e200, 2e200\nbox_L = 1e-300\ncontrast = 0\n"),
    ("time samples not finite", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 8, 16\n"
     "t_end = 1e307\ncontrast = 0\n"),
    ("time samples above the ceiling", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 8, 16\n"
     "t_end = 1e12\ncontrast = 0\n"),
    ("grid n not a power of two", "simulate", _swap(SIMULATE_OK, "n = 64", "n = 48")),
    ("grid L <= 0", "simulate", _swap(SIMULATE_OK, "L = 8", "L = -1")),
    ("grid n not finite", "simulate", _swap(SIMULATE_OK, "n = 64", "n = inf")),
    ("dt <= 0", "simulate", _swap(SIMULATE_OK, "dt = 0.001", "dt = 0")),
    ("eps outside (0,1]", "simulate", _swap(SIMULATE_OK, "sigma = 1", "sigma = 1\neps = 2")),
    ("snapshot_every = 0", "simulate", SIMULATE_OK + "snapshot_every = 0\n"),
    ("removed [output] seed key", "simulate", SIMULATE_OK + "[output]\nseed = 0\n"),
    ("r below d/2", "ode-approx", _swap(ODE_OK, "r = 1", "r = 0")),
    ("r above 2*sigma for fractional sigma", "ode-approx",
     _swap(_swap(ODE_OK, "sigma = 2", "sigma = 1.2"), "r = 1", "r = 3")),
    ("eps_list not in (0,1)", "ode-approx", _swap(ODE_OK, "0.1, 0.03, 0.01", "1.5, 0.1")),
    ("rho_list increasing", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-4, 1e-3\n"),
    ("singular t < 0", "singular",
     "[singular]\nsigma = 1\nt = -1\nrho_list = 1e-3, 1e-4\n"),
    ("initial amplitude nan", "simulate", SIMULATE_OK + "initial = gaussian(amplitude=nan)\n"),
    ("initial width inf", "simulate", SIMULATE_OK + "initial = gaussian(width=inf)\n"),
    ("initial width zero", "simulate", SIMULATE_OK + "initial = gaussian(amplitude=1,width=0)\n"),
    ("initial not gaussian", "simulate", SIMULATE_OK + "initial = gauss(width=1)\n"),
    ("initial parameter not key=value", "simulate", SIMULATE_OK + "initial = gaussian(width)\n"),
    ("initial parameter unknown", "simulate", SIMULATE_OK + "initial = gaussian(sigma=1)\n"),
    ("symbol parameter repeated", "inflate",
     _swap(INFLATE_OK, "arctan_step(h=1)", "arctan_step(h=1,h=2)")),
    ("initial parameter repeated", "simulate",
     SIMULATE_OK + "initial = gaussian(width=1,width=3)\n"),
]

# the plan, symbol, grid and sweeps INFLATE_OK and ODE_OK describe
_PLAN = compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05, delta=0.1)
_ARCTAN = make_symbol("arctan_step", h=1.0)
_GRID = Grid(1, 256, 8.0)
_H_LIST = [math.exp(-2), math.exp(-3), math.exp(-4)]
_EPS_LIST = [0.1, 0.03, 0.01]
# the k_grid default of [strichartz]
_K_GRID = [0.0, 0.25, 0.5]

# transport(c=1) is defined in d = 1 only; these configs ask for d = 2
TRANSPORT_2D = {
    "inflate": "[equation]\nsymbol = transport(c=1)\nsigma = 2\n"
               "[inflate]\nd = 2\ns = 0.25\nomega = 1\nh_list = e^-2, e^-3\n",
    "ode-approx": "[equation]\nsymbol = transport(c=1)\nsigma = 2\n"
                  "[ode-approx]\nd = 2\ns = 0.25\nr = 2\nomega = 1\neps_list = 0.1, 0.03\n",
}
_PLAN_2D = compute_scaling(2, 2.0, 0.25, HOMOGENEOUS, m=1.0, omega=1.0)
_TRANSPORT = make_symbol("transport", c=1.0)

STRICHARTZ_OK = "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 8, 16\n"

# config rejects these through the driver's own check, so the messages match
DRIVER_CHECK_CASES = [
    ("t_end not finite", "strichartz", STRICHARTZ_OK + "t_end = inf\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], (0.0, math.inf))),
    ("box_L nan", "strichartz", STRICHARTZ_OK + "box_L = nan\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], box_L=math.nan)),
    ("box_L negative", "strichartz", STRICHARTZ_OK + "box_L = -1\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], box_L=-1.0)),
    ("contrast not 0 or 1", "strichartz", STRICHARTZ_OK + "contrast = 7\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0],
                                   include_contrast=7)),
    ("last N above n_ceiling", "strichartz",
     _swap(STRICHARTZ_OK, "N_list = 8, 16", "N_list = 8, 16, 512"),
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0, 512.0])),
    ("2D probe above the node cap", "strichartz",
     _swap(STRICHARTZ_OK, "p = 8\nq = 4\nN_list = 8, 16",
           "d = 2\np = 4\nq = 4\nN_list = 8, 512\nbox_L = 1"),
     lambda: check_strichartz_args(_ARCTAN, 4.0, 4.0, _K_GRID, [8.0, 512.0], d=2, box_L=1.0)),
    ("time exponent p infinite", "strichartz",
     _swap(STRICHARTZ_OK, "p = 8\nq = 4", "p = inf\nq = 2"),
     lambda: check_strichartz_args(_ARCTAN, math.inf, 2.0, _K_GRID, [8.0, 16.0])),
    ("N^2 not finite", "strichartz",
     _swap(STRICHARTZ_OK, "N_list = 8, 16", "N_list = 1e200, 2e200\nbox_L = 1e-300"),
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [1e200, 2e200], box_L=1e-300)),
    ("time samples not finite", "strichartz", STRICHARTZ_OK + "t_end = 1e307\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], (0.0, 1e307))),
    ("time samples above the ceiling", "strichartz", STRICHARTZ_OK + "t_end = 1e12\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], (0.0, 1e12))),
    ("contrast time samples above the ceiling", "strichartz",
     STRICHARTZ_OK + "t_end = 2e4\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0, 16.0], (0.0, 2e4))),
    ("contrast time samples not finite", "strichartz",
     _swap(STRICHARTZ_OK, "N_list = 8, 16", "N_list = 1e153, 1e154\nbox_L = 1e-300"),
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [1e153, 1e154], box_L=1e-300)),
    ("simulate T not finite", "simulate", _swap(SIMULATE_OK, "T = 0.01", "T = inf"),
     lambda: SolveConfig(make_symbol("laplacian"), -1.0, 1.0, 0.001, math.inf)),
    ("simulate dt not finite", "simulate", _swap(SIMULATE_OK, "dt = 0.001", "dt = inf"),
     lambda: SolveConfig(make_symbol("laplacian"), -1.0, 1.0, math.inf, 0.01)),
    ("quad_tol below the floor", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4, 1e-5\nquad_tol = 1e-15\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-3, 1e-4, 1e-5], 1e-15)),
    ("N_list", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 8\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [8.0])),
    ("N not positive", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\np = 8\nq = 4\nN_list = 0, 2, 4\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, _K_GRID, [0.0, 2.0, 4.0])),
    ("h_list not decreasing", "inflate", _swap(INFLATE_OK, "e^-2, e^-3, e^-4", "e^-3, e^-2"),
     lambda: check_inflate_args(_PLAN, _ARCTAN, _GRID, [math.exp(-3), math.exp(-2)])),
    ("k_grid entry nan", "strichartz", STRICHARTZ_OK + "k_grid = 0.25, nan\n",
     lambda: check_strichartz_args(_ARCTAN, 8.0, 4.0, [0.25, math.nan], [8.0, 16.0])),
    ("h above e^-1", "inflate", _swap(INFLATE_OK, "e^-2, e^-3, e^-4", "0.5, e^-3"),
     lambda: check_inflate_args(_PLAN, _ARCTAN, _GRID, [0.5, math.exp(-3)])),
    ("eps_list not decreasing", "ode-approx", _swap(ODE_OK, "0.1, 0.03, 0.01", "0.01, 0.1"),
     lambda: check_ode_approx_args(_PLAN, _ARCTAN, _GRID, [0.01, 0.1], 1)),
    ("eps not positive", "ode-approx", _swap(ODE_OK, "0.1, 0.03, 0.01", "0.1, 0.05, -1"),
     lambda: check_ode_approx_args(_PLAN, _ARCTAN, _GRID, [0.1, 0.05, -1.0], 1)),
    ("r below d/2", "ode-approx", _swap(ODE_OK, "r = 1", "r = 0"),
     lambda: check_ode_approx_args(_PLAN, _ARCTAN, _GRID, [0.1, 0.03, 0.01], 0)),
    ("rho_list increasing", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-5, 1e-4, 1e-3\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-5, 1e-4, 1e-3], 1e-9)),
    ("rho above 1", "singular", "[singular]\nsigma = 1\nt = 1\nrho_list = 2, 1e-3, 1e-4\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [2.0, 1e-3, 1e-4], 1e-9)),
    ("rho_list too short", "singular", "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-3, 1e-4], 1e-9)),
    ("second rho beyond the cutoff", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 0.9, 0.8, 1e-3\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [0.9, 0.8, 1e-3], 1e-9)),
    ("amplitude zero", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4\namplitude = 0\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-3, 1e-4], 1e-9, 0.0)),
    ("amplitude not finite", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4\namplitude = inf\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-3, 1e-4], 1e-9, math.inf)),
    ("inflate symbol restricted to d = 1", "inflate", TRANSPORT_2D["inflate"],
     lambda: check_inflate_args(_PLAN_2D, _TRANSPORT, Grid(2, 256, 8.0),
                                [math.exp(-2), math.exp(-3)])),
    ("ode-approx symbol restricted to d = 1", "ode-approx", TRANSPORT_2D["ode-approx"],
     lambda: check_ode_approx_args(_PLAN_2D, _TRANSPORT, Grid(2, 256, 8.0), [0.1, 0.03], 2)),
    ("strichartz in d = 3", "strichartz",
     "[equation]\nsymbol = arctan_step(h=1)\n[strichartz]\nd = 3\np = 4\nq = 3\nN_list = 8, 16\n",
     lambda: check_strichartz_args(_ARCTAN, 4.0, 3.0, _K_GRID, [8.0, 16.0], d=3)),
    ("inflate lambda nan", "inflate", _swap(INFLATE_OK, "lambda = 1.0", "lambda = nan"),
     lambda: check_inflate_args(_PLAN, _ARCTAN, _GRID, _H_LIST, lam=math.nan)),
    ("ode-approx lambda inf", "ode-approx", _swap(ODE_OK, "sigma = 2", "sigma = 2\nlambda = inf"),
     lambda: check_ode_approx_args(_PLAN, _ARCTAN, _GRID, _EPS_LIST, 1, lam=math.inf)),
    ("inflate theta inf", "inflate", INFLATE_OK + "theta = inf\n",
     lambda: compute_scaling(1, 2.0, 0.25, BOUNDED, theta=math.inf)),
    ("inflate delta inf", "inflate", INFLATE_OK + "delta = inf\n",
     lambda: compute_scaling(1, 2.0, 0.25, BOUNDED, delta=math.inf)),
    ("simulate sigma inf", "simulate", _swap(SIMULATE_OK, "sigma = 1", "sigma = inf"),
     lambda: SolveConfig(make_symbol("laplacian"), -1.0, math.inf, 0.001, 0.01)),
    ("simulate lambda nan", "simulate", _swap(SIMULATE_OK, "lambda = -1", "lambda = nan"),
     lambda: SolveConfig(make_symbol("laplacian"), math.nan, 1.0, 0.001, 0.01)),
    ("singular sigma inf", "singular",
     "[singular]\nsigma = inf\nt = 1\nrho_list = 1e-3, 1e-4, 1e-5\n",
     lambda: check_probe_args(math.inf, 1.0, 1.0, [1e-3, 1e-4, 1e-5])),
    ("singular lambda inf", "singular",
     "[singular]\nsigma = 1\nlambda = inf\nt = 1\nrho_list = 1e-3, 1e-4, 1e-5\n",
     lambda: check_probe_args(1.0, math.inf, 1.0, [1e-3, 1e-4, 1e-5])),
    ("singular t inf", "singular",
     "[singular]\nsigma = 1\nt = inf\nrho_list = 1e-3, 1e-4, 1e-5\n",
     lambda: check_probe_args(1.0, 1.0, math.inf, [1e-3, 1e-4, 1e-5])),
    ("singular quad_tol inf", "singular",
     "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4, 1e-5\nquad_tol = inf\n",
     lambda: check_probe_args(1.0, 1.0, 1.0, [1e-3, 1e-4, 1e-5], math.inf)),
    ("inflate grid_L inf", "inflate", INFLATE_OK + "grid_L = inf\n",
     lambda: check_half_length(math.inf, "grid_L")),
    ("ode-approx grid_L nan", "ode-approx", ODE_OK + "grid_L = nan\n",
     lambda: check_half_length(math.nan, "grid_L")),
    ("simulate L inf", "simulate", _swap(SIMULATE_OK, "L = 8", "L = inf"),
     lambda: Grid(1, 64, math.inf)),
    ("simulate L nan", "simulate", _swap(SIMULATE_OK, "L = 8", "L = nan"),
     lambda: Grid(1, 64, math.nan)),
    ("simulate n above the node cap", "simulate", _swap(SIMULATE_OK, "n = 64", "n = 33554432"),
     lambda: Grid(1, 33554432, 8.0)),
    ("inflate grid_n above the node cap", "inflate",
     INFLATE_OK + "grid_n = 1125899906842624\n",
     lambda: Grid(1, 1125899906842624, 8.0)),
    ("homogeneous symbol without omega", "inflate",
     "[equation]\nsymbol = laplacian\nsigma = 2\n"
     "[inflate]\nd = 2\ns = 0.25\nh_list = e^-2, e^-3\n",
     lambda: compute_scaling(2, 2.0, 0.25, HOMOGENEOUS, m=2.0)),
    ("bounded symbol with omega", "ode-approx", ODE_OK + "omega = 1\n",
     lambda: compute_scaling(1, 2.0, 0.25, BOUNDED, omega=1.0)),
]


SINGULAR_OK = "[singular]\nsigma = 1\nt = 1\nrho_list = 1e-3, 1e-4, 1e-5\n"

# a valid config per subcommand; strichartz takes the sup-norm pair so that q = inf is valid
VALID = {
    "simulate": SIMULATE_OK,
    "inflate": INFLATE_OK,
    "ode-approx": ODE_OK,
    "strichartz": _swap(STRICHARTZ_OK, "p = 8\nq = 4", "p = 4\nq = inf"),
    "singular": SINGULAR_OK,
}

# (subcommand, key, value) -> why the non-finite value is a valid input
NON_FINITE_ALLOWED = {
    ("strichartz", "q", "inf"): "(p, q) = (4, inf) is an admissible pair in d = 1",
}


def _with_value(text: str, section: str, key: str, value: str) -> str:
    sections = {sec: {k: v for k, (v, _) in keys.items()}
                for sec, keys in parse_config_text(text).items()}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for sec, keys in sections.items())


def _non_finite_cases():
    for sub, schema in _SCHEMAS.items():
        for key in schema:
            if key.kind not in ("float", "float_list"):
                continue
            for bad in ("nan", "inf", "-inf"):
                yield sub, key, bad


NON_FINITE_CASES = list(_non_finite_cases())


class TestNonFiniteTable:
    @pytest.mark.parametrize("sub,key,bad", NON_FINITE_CASES,
                             ids=[f"{sub}-{key.name}-{bad}" for sub, key, bad in NON_FINITE_CASES])
    def test_rejected_unless_allowed(self, sub, key, bad):
        base = VALID[sub]
        value = bad
        if key.kind == "float_list":
            # the valid sweep with the non-finite value appended
            current = parse_config(sub, base).params[key.name]
            value = ", ".join(format(v, ".17g") for v in current) + f", {bad}"
        text = _with_value(base, key.section, key.name, value)
        if (sub, key.name, bad) in NON_FINITE_ALLOWED:
            parse_config(sub, text)
        else:
            with pytest.raises(ConfigError):
                parse_config(sub, text)

    def test_table_covers_every_float_key(self):
        assert len(NON_FINITE_CASES) == 3 * 34


class TestInvalidTable:
    @pytest.mark.parametrize("label,sub,text", INVALID_CASES, ids=[c[0] for c in INVALID_CASES])
    def test_rejected(self, label, sub, text):
        with pytest.raises(ConfigError):
            parse_config(sub, text)

    def test_table_is_big_enough(self):
        assert len(INVALID_CASES) >= 12

    @pytest.mark.parametrize("label,sub,text,driver_check", DRIVER_CHECK_CASES,
                             ids=[c[0] for c in DRIVER_CHECK_CASES])
    def test_rejected_with_the_drivers_message(self, label, sub, text, driver_check):
        with pytest.raises((ExperimentError, ScalingError, SingularProbeError,
                            EvolutionError, SymbolError, SpectralError)) as driver:
            driver_check()
        with pytest.raises(ConfigError) as config:
            parse_config(sub, text)
        assert str(config.value) == str(driver.value)

    @pytest.mark.parametrize("sub,text,key", [
        ("inflate", INFLATE_OK + "grid_L = inf\n", "grid_L"),
        ("ode-approx", ODE_OK + "grid_L = nan\n", "grid_L"),
        ("simulate", _swap(SIMULATE_OK, "L = 8", "L = -inf"), "L"),
    ])
    def test_box_half_length_message_names_the_key(self, sub, text, key):
        with pytest.raises(ConfigError, match=f"box half-length {key} must be finite and > 0"):
            parse_config(sub, text)

    def test_bounded_violation_message_names_the_bound(self):
        with pytest.raises(ConfigError, match="d/2"):
            parse_config("inflate", _swap(INFLATE_OK, "s = 0.25", "s = 0.6"))


class TestInitialSpec:
    @pytest.mark.parametrize("spec, expected", [
        ("gaussian", (1.0, 1.0)),
        ("gaussian()", (1.0, 1.0)),
        ("gaussian(amplitude=2)", (2.0, 1.0)),
    ])
    def test_missing_parameters_take_their_defaults(self, spec, expected):
        assert parse_initial_spec(spec) == expected

    # a repeated spec parameter is refused like a repeated config key: exit 2,
    # the key named, before any compute
    @pytest.mark.parametrize("sub, text, driver, message", [
        ("inflate", _swap(INFLATE_OK, "arctan_step(h=1)", "arctan_step(h=1,h=2)"),
         "run_norm_inflation", "symbol parameter 'h' is given twice"),
        ("simulate", SIMULATE_OK + "initial = gaussian(width=1,width=3)\n",
         "_run_simulate", "initial data parameter 'width' is given twice"),
    ])
    def test_repeated_parameter_exits_2_before_compute(self, tmp_path, capsys, monkeypatch,
                                                       sub, text, driver, message):
        def no_compute(**kwargs):
            raise AssertionError(f"{sub} computed before rejecting a repeated parameter")

        monkeypatch.setattr(cli, driver, no_compute)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main([sub, "--config", str(path), "--out", str(out)]) == cli.EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()
