"""Catalog of the real-valued Fourier multipliers that drive the dispersion.

Each symbol carries classification metadata: either homogeneous of some
degree m >= 1, meaning P(mu*xi) = mu^m * P(xi) for all mu > 0, or bounded
with a known sup bound.  Symbols are immutable after construction; lattice
evaluations are cached per grid, so propagation reduces to one pointwise
multiply per step.
"""

from __future__ import annotations

import math
import re
import weakref

import numpy as np

from .spectral import Grid, check_lattice_values

__all__ = [
    "SymbolError",
    "Symbol",
    "HOMOGENEOUS",
    "BOUNDED",
    "CATALOG_KEYS",
    "make_symbol",
    "parse_spec",
    "parse_symbol_spec",
    "parse_number",
]

HOMOGENEOUS = "homogeneous"
BOUNDED = "bounded"


class SymbolError(ValueError):
    """Unknown catalog key or invalid symbol parameters."""


class Symbol:
    """A real-valued Fourier multiplier with classification metadata.

    Parameters
    ----------
    name : catalog key (or derived name for rescaled symbols)
    fn : callable mapping d frequency-component arrays to P(xi)
    kind : "homogeneous" or "bounded"
    degree : homogeneity degree m (homogeneous symbols only)
    bound : sup bound M (bounded symbols only)
    dims : spatial dimension the symbol is restricted to, or None
    params : constructor parameters, kept for reporting and round trips
    """

    def __init__(self, name, fn, kind, degree=None, bound=None, dims=None, params=None):
        if kind not in (HOMOGENEOUS, BOUNDED):
            raise SymbolError(f"unknown symbol class {kind!r}")
        self.name = name
        self._fn = fn
        self.kind = kind
        self.degree = degree
        self.bound = bound
        self.dims = dims
        self.params = dict(params or {})
        # Grid -> lattice values, keyed weakly so an entry goes with its grid
        self._lattice_cache = weakref.WeakKeyDictionary()

    def __call__(self, *xi):
        if self.dims is not None and len(xi) != self.dims:
            raise SymbolError(
                f"symbol {self.name} is defined for d = {self.dims}, "
                f"got {len(xi)} frequency components"
            )
        return np.asarray(self._fn(*(np.asarray(c, dtype=np.float64) for c in xi)),
                          dtype=np.float64)

    def check_dims(self, d: int) -> None:
        """Reject a spatial dimension d that the symbol is not defined for."""
        if self.dims is not None and self.dims != d:
            raise SymbolError(f"symbol {self.spec_string()} is restricted to d = {self.dims}")

    def on_grid(self, grid: Grid) -> np.ndarray:
        """Lattice values P(xi_k), cached per grid and validated finite."""
        cached = self._lattice_cache.get(grid)
        if cached is None:
            vals = check_lattice_values(self(*grid.xi), grid, self.name)
            vals.setflags(write=False)
            self._lattice_cache[grid] = vals
            cached = vals
        return cached

    def rescaled(self, amplitude: float, dilation: float) -> "Symbol":
        """The symbol xi -> amplitude * P(xi / dilation), with consistent metadata."""
        if not (dilation > 0 and np.isfinite(amplitude) and np.isfinite(dilation)):
            raise SymbolError("rescaling needs finite amplitude and dilation > 0")
        base = self

        def fn(*xi):
            return amplitude * base(*(c / dilation for c in xi))

        bound = None if base.bound is None else abs(amplitude) * base.bound
        return Symbol(
            f"{base.name}*scaled",
            fn,
            base.kind,
            degree=base.degree,
            bound=bound,
            dims=base.dims,
            params={"base": base.spec_string(), "amplitude": amplitude, "dilation": dilation},
        )

    def spec_string(self) -> str:
        """Render as the config-file form, e.g. ``arctan_step(h=1)``."""
        if not self.params:
            return str(self.name)
        inner = ",".join(f"{k}={_render_number(v)}" for k, v in self.params.items())
        return f"{self.name}({inner})"

    def __repr__(self) -> str:
        return f"Symbol({self.spec_string()}, {self.kind})"


def _render_number(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) or float(v).is_integer():
        return str(int(v))
    return format(float(v), ".17g")


def _sumsq(*xi):
    return sum(c * c for c in xi)


def _c_vector(params, key_error_name):
    if "c" not in params:
        raise SymbolError(f"{key_error_name} requires parameter c (and c2 for d = 2)")
    c = (float(params["c"]),)
    if "c2" in params:
        c = c + (float(params["c2"]),)
    return c


def _build_laplacian(params):
    return Symbol("laplacian", lambda *xi: -_sumsq(*xi), HOMOGENEOUS, degree=2.0)


def _build_fourth_order(params):
    return Symbol("fourth_order", lambda *xi: _sumsq(*xi) ** 2, HOMOGENEOUS, degree=4.0)


def _build_power_m(params):
    m = float(params.get("m", 0.0))
    mu = float(params.get("mu", 1.0))
    if m < 1:
        raise SymbolError(f"power_m requires degree m >= 1, got {m}")
    return Symbol(
        "power_m",
        lambda *xi: mu * _sumsq(*xi) ** (m / 2.0),
        HOMOGENEOUS,
        degree=m,
        params={"m": m, "mu": mu},
    )


def _build_odd_power_1d(params):
    j = params.get("j")
    if j is None or float(j) != int(float(j)) or int(float(j)) < 0:
        raise SymbolError(f"odd_power_1d requires an integer j >= 0, got {j}")
    j = int(float(j))
    return Symbol(
        "odd_power_1d",
        lambda xi: xi ** (2 * j + 1),
        HOMOGENEOUS,
        degree=float(2 * j + 1),
        dims=1,
        params={"j": j},
    )


def _build_transport(params):
    c = _c_vector(params, "transport")
    return Symbol(
        "transport",
        lambda *xi: sum(ci * x for ci, x in zip(c, xi)),
        HOMOGENEOUS,
        degree=1.0,
        dims=len(c),
        params={"c": c[0], **({"c2": c[1]} if len(c) == 2 else {})},
    )


def _build_constant(params):
    if "c" not in params:
        raise SymbolError("constant requires parameter c")
    c = float(params["c"])
    return Symbol(
        "constant",
        lambda *xi: np.full(np.broadcast(*xi).shape, c),
        BOUNDED,
        bound=abs(c),
        params={"c": c},
    )


def _build_arctan_step(params):
    h = float(params.get("h", 0.0))
    if h <= 0:
        raise SymbolError(f"arctan_step requires step h > 0, got {params.get('h')}")
    return Symbol(
        "arctan_step",
        lambda *xi: -np.arctan(h * _sumsq(*xi)) / h,
        BOUNDED,
        bound=math.pi / (2.0 * h),
        params={"h": h},
    )


def _build_regularized_laplacian(params):
    return Symbol(
        "regularized_laplacian",
        lambda *xi: -_sumsq(*xi) / (1.0 + _sumsq(*xi)),
        BOUNDED,
        bound=1.0,
    )


def _build_wave(params):
    return Symbol("wave", lambda *xi: np.sqrt(_sumsq(*xi)), HOMOGENEOUS, degree=1.0)


def _build_directional_m(params):
    m = float(params.get("m", 0.0))
    if m < 1:
        raise SymbolError(f"directional_m requires degree m >= 1, got {m}")
    c = _c_vector(params, "directional_m")

    def fn(*xi):
        dot = sum(ci * x for ci, x in zip(c, xi))
        return _sumsq(*xi) ** ((m - 1.0) / 2.0) * dot

    return Symbol(
        "directional_m",
        fn,
        HOMOGENEOUS,
        degree=m,
        dims=len(c),
        params={"m": m, "c": c[0], **({"c2": c[1]} if len(c) == 2 else {})},
    )


_CATALOG = {
    "laplacian": (_build_laplacian, ()),
    "fourth_order": (_build_fourth_order, ()),
    "power_m": (_build_power_m, ("m", "mu")),
    "odd_power_1d": (_build_odd_power_1d, ("j",)),
    "transport": (_build_transport, ("c", "c2")),
    "constant": (_build_constant, ("c",)),
    "arctan_step": (_build_arctan_step, ("h",)),
    "regularized_laplacian": (_build_regularized_laplacian, ()),
    "wave": (_build_wave, ()),
    "directional_m": (_build_directional_m, ("m", "c", "c2")),
}

CATALOG_KEYS = tuple(sorted(_CATALOG))


def make_symbol(name: str, **params) -> Symbol:
    """Build a catalog symbol, validating the key and its parameters.

    Every parameter must be finite; that is checked before the builder runs.
    """
    if name not in _CATALOG:
        raise SymbolError(f"unknown symbol {name!r}; known keys: {', '.join(CATALOG_KEYS)}")
    builder, allowed = _CATALOG[name]
    unexpected = set(params) - set(allowed)
    if unexpected:
        raise SymbolError(f"{name} does not take parameters {sorted(unexpected)}")
    for key, value in params.items():
        if not math.isfinite(value):
            raise SymbolError(f"{name} parameter {key} must be finite, got {value}")
    return builder(params)


_NUMBER_RE = re.compile(r"^e\^(?P<exp>[+-]?\d+(\.\d+)?)$")


def parse_number(text: str) -> float:
    """Parse a float literal; also accepts the form ``e^-2`` for exp(-2)."""
    text = text.strip()
    match = _NUMBER_RE.match(text)
    if match:
        return math.exp(float(match.group("exp")))
    if text in ("inf", "Inf", "INF"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise SymbolError(f"cannot parse number {text!r}") from exc


_SPEC_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(\((?P<params>.*)\))?$")


def parse_spec(text: str, what: str) -> tuple[str, dict[str, float]]:
    """Split the config form ``name(key=value,...)`` of a ``what`` into its
    name and its numeric parameters; ``name`` and ``name()`` have none."""
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise SymbolError(f"cannot parse {what} spec {text!r}")
    params = {}
    inner = match.group("params")
    if inner is not None and inner.strip():
        for part in inner.split(","):
            if "=" not in part:
                raise SymbolError(f"{what} parameter {part.strip()!r} is not of the form key=value")
            key, _, value = part.partition("=")
            key = key.strip()
            if key in params:
                raise SymbolError(f"{what} parameter {key!r} is given twice")
            params[key] = parse_number(value)
    return match.group("name"), params


def parse_symbol_spec(text: str) -> Symbol:
    """Parse the config form ``key(param=value,...)`` into a catalog symbol."""
    name, params = parse_spec(text, "symbol")
    return make_symbol(name, **params)
