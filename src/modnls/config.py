"""Line-oriented config parsing and per-driver validation.

Grammar: ``[section]`` headers, ``key = value`` assignments, ``#``
comments.  Numbers accept plain float literals plus the form ``e^-3``
for exp(-3), which keeps the concentration sweeps exact.  Every key is
validated against the subcommand's schema before any computation starts;
unknown keys are errors.  The keys are then mapped, in one place per
subcommand, to the keyword arguments of its driver, and checked by the
same function the driver calls first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionError, SolveConfig
from .experiments import (
    ExperimentError,
    check_inflate_args,
    check_ode_approx_args,
    check_strichartz_args,
)
from .scaling import ScalingError, ScalingPlan, compute_scaling
from .singular import SingularProbeError, check_probe_args
from .spectral import Grid, SpectralError, check_half_length
from .symbols import (
    BOUNDED,
    HOMOGENEOUS,
    SymbolError,
    parse_number,
    parse_symbol_spec,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "render_config", "SUBCOMMANDS"]

SUBCOMMANDS = ("simulate", "inflate", "ode-approx", "strichartz", "singular")


class ConfigError(ValueError):
    """Parse failure or schema violation."""


@dataclass
class RunConfig:
    """A fully validated configuration: ``params`` holds the keys (defaults
    filled), ``args`` the driver's keyword arguments built from them."""

    subcommand: str
    params: dict
    outdir: str = "out"
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Key:
    section: str
    name: str
    kind: str  # int | float | float_list | symbol | str
    required: bool = False
    default: object = None


_OUTPUT_DIR = _Key("output", "dir", "str", default="out")


_SCHEMAS: dict[str, tuple[_Key, ...]] = {
    "simulate": (
        _Key("grid", "d", "int", required=True),
        _Key("grid", "n", "int", required=True),
        _Key("grid", "L", "float", required=True),
        _Key("equation", "symbol", "symbol", required=True),
        _Key("equation", "lambda", "float", required=True),
        _Key("equation", "sigma", "float", required=True),
        _Key("equation", "eps", "float", default=1.0),
        _Key("simulate", "dt", "float", required=True),
        _Key("simulate", "T", "float", required=True),
        _Key("simulate", "snapshot_every", "int", default=1),
        _Key("simulate", "initial", "str", default="gaussian(amplitude=1,width=1)"),
        _OUTPUT_DIR,
    ),
    "inflate": (
        _Key("equation", "symbol", "symbol", required=True),
        _Key("equation", "lambda", "float", default=1.0),
        _Key("equation", "sigma", "float", required=True),
        _Key("inflate", "d", "int", required=True),
        _Key("inflate", "s", "float", required=True),
        _Key("inflate", "theta", "float", default=0.05),
        _Key("inflate", "delta", "float", default=0.1),
        _Key("inflate", "omega", "float", default=None),
        _Key("inflate", "h_list", "float_list", required=True),
        _Key("inflate", "grid_n", "int", default=256),
        _Key("inflate", "grid_L", "float", default=8.0),
        _OUTPUT_DIR,
    ),
    "ode-approx": (
        _Key("equation", "symbol", "symbol", required=True),
        _Key("equation", "lambda", "float", default=1.0),
        _Key("equation", "sigma", "float", required=True),
        _Key("ode-approx", "d", "int", required=True),
        _Key("ode-approx", "s", "float", required=True),
        _Key("ode-approx", "r", "int", required=True),
        _Key("ode-approx", "theta", "float", default=0.05),
        _Key("ode-approx", "delta", "float", default=0.1),
        _Key("ode-approx", "omega", "float", default=None),
        _Key("ode-approx", "eps_list", "float_list", required=True),
        _Key("ode-approx", "grid_n", "int", default=256),
        _Key("ode-approx", "grid_L", "float", default=8.0),
        _OUTPUT_DIR,
    ),
    "strichartz": (
        _Key("equation", "symbol", "symbol", required=True),
        _Key("strichartz", "d", "int", default=1),
        _Key("strichartz", "p", "float", required=True),
        _Key("strichartz", "q", "float", required=True),
        _Key("strichartz", "N_list", "float_list", required=True),
        _Key("strichartz", "k_grid", "float_list", default=(0.0, 0.25, 0.5)),
        _Key("strichartz", "t_end", "float", default=1.0),
        _Key("strichartz", "box_L", "float", default=4.0),
        _Key("strichartz", "contrast", "int", default=1),
        _OUTPUT_DIR,
    ),
    "singular": (
        _Key("singular", "sigma", "float", required=True),
        _Key("singular", "lambda", "float", default=1.0),
        _Key("singular", "t", "float", required=True),
        _Key("singular", "rho_list", "float_list", required=True),
        _Key("singular", "quad_tol", "float", default=1e-9),
        _Key("singular", "amplitude", "float", default=1.0),
        _OUTPUT_DIR,
    ),
}

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_-]+)\]$")
_INITIAL_RE = re.compile(r"^gaussian\((?P<params>.*)\)$|^gaussian$")


def parse_config_text(text: str) -> dict:
    """Parse the raw grammar into {section: {key: (value, line_no)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            current = match.group("name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' or '[section]', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: assignment before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _convert(key: _Key, raw: str, lineno: int):
    try:
        if key.kind == "int":
            value = parse_number(raw)
            if not (math.isfinite(value) and value == int(value)):
                raise ConfigError(f"line {lineno}: {key.name} must be an integer, got {raw!r}")
            return int(value)
        if key.kind == "float":
            return parse_number(raw)
        if key.kind == "float_list":
            parts = [p for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"line {lineno}: {key.name} needs at least one value")
            return tuple(parse_number(p) for p in parts)
        if key.kind == "symbol":
            return parse_symbol_spec(raw)
        return raw
    except SymbolError as exc:
        raise ConfigError(f"line {lineno}: {key.name}: {exc}") from exc


def parse_initial_spec(text: str) -> tuple[float, float]:
    """Parse ``gaussian(amplitude=...,width=...)`` into (amplitude, width)."""
    match = _INITIAL_RE.match(text.strip())
    if not match:
        raise ConfigError(f"cannot parse initial data spec {text!r} (expected gaussian(...))")
    amplitude, width = 1.0, 1.0
    inner = match.group("params")
    if inner:
        for part in inner.split(","):
            if "=" not in part:
                raise ConfigError(f"initial data parameter {part.strip()!r} is not key=value")
            k, _, v = part.partition("=")
            k = k.strip()
            if k == "amplitude":
                amplitude = parse_number(v)
            elif k == "width":
                width = parse_number(v)
            else:
                raise ConfigError(f"unknown initial data parameter {k!r}")
    if not math.isfinite(amplitude):
        raise ConfigError(f"initial data amplitude must be finite, got {amplitude}")
    if not (math.isfinite(width) and width > 0):
        raise ConfigError(f"initial data width must be finite and > 0, got {width}")
    return amplitude, width


def _plan_from_params(params: dict) -> ScalingPlan:
    symbol = params["symbol"]
    if symbol.kind == HOMOGENEOUS:
        if params.get("omega") is None:
            raise ConfigError(
                f"symbol {symbol.spec_string()} is homogeneous: omega > 0 is required"
            )
        return compute_scaling(
            params["d"], params["sigma"], params["s"], HOMOGENEOUS,
            m=symbol.degree, omega=params["omega"],
            theta=params["theta"], delta=params["delta"],
        )
    if params.get("omega") is not None:
        raise ConfigError("omega applies to homogeneous symbols only")
    return compute_scaling(
        params["d"], params["sigma"], params["s"], BOUNDED,
        theta=params["theta"], delta=params["delta"],
    )


def _simulate_args(p: dict) -> dict:
    grid = Grid(p["d"], p["n"], p["L"])
    solve = SolveConfig(p["symbol"], p["lambda"], p["sigma"], p["dt"], p["T"],
                        p["eps"], p["snapshot_every"])
    p["symbol"].check_dims(grid.d)
    amplitude, width = parse_initial_spec(p["initial"])
    r2 = sum(c * c for c in grid.x)
    return {"grid": grid, "u0": amplitude * np.exp(-r2 / width**2), "solve": solve}


def _window_args(p: dict) -> dict:
    # the arguments run_norm_inflation and run_ode_approx share
    check_half_length(p["grid_L"], "grid_L")
    return {
        "plan": _plan_from_params(p),
        "symbol": p["symbol"],
        "grid": Grid(p["d"], p["grid_n"], p["grid_L"]),
        "lam": p["lambda"],
    }


def _inflate_args(p: dict) -> dict:
    return {**_window_args(p), "h_list": p["h_list"]}


def _ode_approx_args(p: dict) -> dict:
    return {**_window_args(p), "eps_list": p["eps_list"], "r": p["r"]}


def _strichartz_args(p: dict) -> dict:
    return {
        "symbol": p["symbol"], "p": p["p"], "q": p["q"], "k_grid": p["k_grid"],
        "N_list": p["N_list"], "interval": (0.0, p["t_end"]), "d": p["d"],
        "box_L": p["box_L"], "include_contrast": p["contrast"],
    }


def _singular_args(p: dict) -> dict:
    return {
        "sigma": p["sigma"], "lam": p["lambda"], "t": p["t"], "rho_list": p["rho_list"],
        "quad_tol": p["quad_tol"], "delta_amp": p["amplitude"],
    }


# subcommand -> (its driver's keyword arguments built from the keys, the
# check its driver runs first); simulate's are checked as they are built
_DRIVER_ARGS = {
    "simulate": (_simulate_args, None),
    "inflate": (_inflate_args, check_inflate_args),
    "ode-approx": (_ode_approx_args, check_ode_approx_args),
    "strichartz": (_strichartz_args, check_strichartz_args),
    "singular": (_singular_args, check_probe_args),
}


def parse_config(subcommand: str, text: str) -> RunConfig:
    """Parse and fully validate a config for one subcommand, and build its driver's arguments."""
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    sections = parse_config_text(text)
    schema = _SCHEMAS[subcommand]
    known = {(k.section, k.name) for k in schema}

    for sec, keys in sections.items():
        for key, (_, lineno) in keys.items():
            if (sec, key) not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{sec}]")

    params: dict = {}
    missing = []
    for key in schema:
        entry = sections.get(key.section, {}).get(key.name)
        if entry is None:
            if key.required:
                missing.append(f"[{key.section}] {key.name}")
            else:
                params[key.name] = key.default
        else:
            params[key.name] = _convert(key, entry[0], entry[1])
    if missing:
        raise ConfigError(f"missing required keys for {subcommand}: {', '.join(missing)}")

    try:
        build, check = _DRIVER_ARGS[subcommand]
        args = build(params)
        if check is not None:
            check(**args)
    except (ScalingError, SpectralError, SymbolError, ExperimentError,
            SingularProbeError, EvolutionError) as exc:
        raise ConfigError(str(exc)) from exc

    outdir = params.pop("dir")
    return RunConfig(subcommand=subcommand, params=params, outdir=outdir, args=args)


def _render_value(key: _Key, value) -> str:
    if key.kind == "symbol":
        return value.spec_string()
    if key.kind == "float_list":
        return ", ".join(format(float(v), ".17g") for v in value)
    if key.kind == "int":
        return str(int(value))
    if key.kind == "float":
        return format(float(value), ".17g")
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Serialize a validated config with all defaults filled (round-trippable)."""
    schema = _SCHEMAS[cfg.subcommand]
    sections: dict[str, list[str]] = {}
    values = dict(cfg.params)
    values["dir"] = cfg.outdir
    for key in schema:
        value = values.get(key.name)
        if value is None:
            continue
        sections.setdefault(key.section, []).append(f"{key.name} = {_render_value(key, value)}")
    blocks = [f"[{sec}]\n" + "\n".join(lines) for sec, lines in sections.items()]
    return "\n\n".join(blocks) + "\n"
