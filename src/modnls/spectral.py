"""Periodic grids, the free propagator, and norm evaluators.

Everything here is a pure function of its inputs: grids are immutable
value objects, fields are arrays of samples on their nodes, and identical
inputs produce bit-identical outputs on one platform.  Coefficients are raw
``np.fft.fftn`` output; multiplied by :func:`_plancherel_scale` their l2
norm equals the discrete L2 quadrature norm of the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralError",
    "MAX_GRID_NODES",
    "Grid",
    "check_half_length",
    "sobolev_norm",
    "spacetime_norm_from_samples",
    "spectral_tail_mass",
]


class SpectralError(ValueError):
    """Malformed grid, field, or norm arguments."""


# The most nodes a grid may have: one complex array of them is 256 MB.
MAX_GRID_NODES = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_half_length(L: float, key: str = "L") -> None:
    """Reject a box half-length unless finite and > 0; ``key`` names it in the message."""
    if not (np.isfinite(L) and L > 0):
        raise SpectralError(f"box half-length {key} must be finite and > 0, got {L}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic grid on [-L, L)^d with its frequency lattice.

    Nodes are x_j = -L + 2*L*j/n per axis.  Frequencies are xi_k = (pi/L)*k
    for k in {-n/2, ..., n/2 - 1}, stored in FFT order so multipliers apply
    directly to raw FFT output.

    Attributes
    ----------
    d : spatial dimension (1 or 2)
    n : points per axis (power of two, >= 8, with n^d <= MAX_GRID_NODES)
    L : box half-length
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d not in (1, 2):
            raise SpectralError(f"spatial dimension must be 1 or 2, got {self.d!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or not _is_power_of_two(int(self.n)):
            raise SpectralError(f"points per axis must be a power of two >= 8, got {self.n}")
        if int(self.n) ** self.d > MAX_GRID_NODES:
            raise SpectralError(f"a grid of n = {self.n} points per axis in d = {self.d} has "
                                f"more than MAX_GRID_NODES = {MAX_GRID_NODES} nodes")
        check_half_length(self.L)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "L", float(self.L))
        axis = -self.L + 2.0 * self.L * np.arange(self.n) / self.n
        xi_axis = 2.0 * np.pi * np.fft.fftfreq(self.n, d=2.0 * self.L / self.n)
        if self.d == 1:
            x = (axis,)
            xi = (xi_axis,)
        else:
            x = tuple(np.meshgrid(axis, axis, indexing="ij"))
            xi = tuple(np.meshgrid(xi_axis, xi_axis, indexing="ij"))
        xi_sq = sum(c * c for c in xi)
        for arr in (*x, *xi, xi_sq):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "xi_sq", xi_sq)
        object.__setattr__(self, "_memo", {})  # see _grid_cached

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def cell(self) -> float:
        return self.dx**self.d

    @property
    def xi_max(self) -> float:
        """Largest frequency magnitude per axis, (pi/L)*(n/2)."""
        return (np.pi / self.L) * (self.n // 2)

    def __repr__(self) -> str:
        return f"Grid(d={self.d}, n={self.n}, L={self.L})"


def _check_on_grid(values: np.ndarray, grid: Grid, what: str = "field values") -> None:
    """Reject ``values`` unless shaped like the grid and finite."""
    if np.shape(values) != grid.shape:
        raise SpectralError(f"{what} have shape {np.shape(values)}, expected {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise SpectralError(f"{what} contain non-finite values")


# Kept only because perfbench's tracer wraps Field.__post_init__ by name; no modnls code builds one.
@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples of a function on the nodes of a periodic grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        _check_on_grid(vals, self.grid)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _plancherel_scale(grid: Grid) -> float:
    # quadrature L2 norm of samples == l2 norm of fft * scale
    return math.sqrt(grid.cell / grid.n**grid.d)


def _coeff_mass(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared moduli of the Plancherel-normalized coefficients, from raw ``np.fft.fftn`` output.

    Computed as (re^2 + im^2) * scale^2 in place, with no hypot and no
    scaled copy of ``coeffs``.
    """
    c2 = coeffs.real**2
    c2 += coeffs.imag**2
    c2 *= _plancherel_scale(grid) ** 2
    return c2


def _propagator(pvals: np.ndarray, t) -> np.ndarray:
    """exp(i*t*P) on lattice values ``pvals``; a 1-D ``t`` gives one leading row per time."""
    t = np.asarray(t)
    phase = 1j * t.reshape(t.shape + (1,) * pvals.ndim) * pvals
    return np.exp(phase, out=phase)


def _max_abs(coords) -> np.ndarray:
    """max_a |c_a| per node: a point lies beyond a box cut when any |c_a| does."""
    out = np.abs(coords[0])
    for c in coords[1:]:
        out = np.maximum(out, np.abs(c))
    return out


def _grid_cached(grid: Grid, key, build):
    """``build()``, computed once per grid and ``key`` and kept read-only on the grid.

    The norm and tail-mass kernels run at every snapshot on one grid, so
    their weights and masks are built at the first call and shared after.
    """
    arr = grid._memo.get(key)
    if arr is None:
        arr = grid._memo[key] = build()
        arr.setflags(write=False)
    return arr


def _top_octave(grid: Grid) -> np.ndarray:
    """Frequencies in the top octave: some component at or above xi_max / 2."""
    return _grid_cached(grid, "top_octave", lambda: _max_abs(grid.xi) >= grid.xi_max / 2.0)


def _half_box(grid: Grid) -> np.ndarray:
    """Nodes outside the half box: some |x_a| above L / 2."""
    return _grid_cached(grid, "half_box", lambda: _max_abs(grid.x) > grid.L / 2.0)


def _sobolev_weight(grid: Grid, s: float, homogeneous: bool = False) -> np.ndarray:
    """The weight of :func:`sobolev_norm` on the lattice: (1 + |xi|^2)^s, or |xi|^(2s).

    The homogeneous weight is set at the zero mode to 1 for s = 0 and to 0
    otherwise.
    """
    def build():
        if not homogeneous:
            return (1.0 + grid.xi_sq) ** s
        with np.errstate(divide="ignore"):
            w = grid.xi_sq**s
        w = np.array(w)
        w[(0,) * grid.d] = 1.0 if s == 0 else 0.0
        return w

    return _grid_cached(grid, ("sobolev", float(s), bool(homogeneous)), build)


def _mass_fraction(a2: np.ndarray, mask: np.ndarray) -> float:
    """Share of sum(a2) on ``mask``; 0 when the total is zero or not finite."""
    total = float(np.sum(a2))
    if total == 0.0 or not math.isfinite(total):
        return 0.0
    return float(np.sum(a2[mask]) / total)


def check_lattice_values(vals: np.ndarray, grid: Grid, name: str) -> np.ndarray:
    """Validate a multiplier sampled on the frequency lattice: real and finite."""
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape != grid.shape:
        raise SpectralError(
            f"symbol {name} evaluated to shape {vals.shape}, expected {grid.shape}"
        )
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        xi_pt = tuple(float(grid.xi[a][idx]) for a in range(grid.d))
        raise SpectralError(f"symbol {name} is not finite at xi = {xi_pt}")
    return vals


# relative size of the zero mode tolerated by negative-order homogeneous norms
_ZERO_MODE_RTOL = 1e-13


def sobolev_norm(values: np.ndarray, grid: Grid, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order s of the samples ``values`` on the grid's nodes.

    Inhomogeneous weight (1 + |xi|^2)^s; homogeneous weight |xi|^(2s).  The
    homogeneous norm with s < 0 requires vanishing mean (zero mode), since
    the weight diverges there.
    """
    if not np.isfinite(s):
        raise SpectralError(f"regularity s must be finite, got {s}")
    _check_on_grid(values, grid)
    return _coeff_sobolev_norm(np.fft.fftn(values), grid, s, homogeneous)


def _coeff_sobolev_norm(coeffs: np.ndarray, grid: Grid, s: float,
                        homogeneous: bool = False) -> float:
    """:func:`sobolev_norm` of the field whose raw ``np.fft.fftn`` output is ``coeffs``.

    The weight comes from the grid's cache (:func:`_sobolev_weight`) and
    multiplies the squared moduli in place, so a call allocates only those.
    """
    c2 = _coeff_mass(coeffs, grid)
    if homogeneous and s < 0:
        zero = (0,) * grid.d
        total = float(np.sum(c2))
        if c2[zero] > (_ZERO_MODE_RTOL**2) * total:
            raise SpectralError(
                "homogeneous norm with s < 0 requires the zero mode to vanish "
                f"(zero-mode mass fraction {c2[zero] / max(total, 1e-300):.3e})"
            )
    c2 *= _sobolev_weight(grid, s, homogeneous)
    return float(np.sqrt(np.sum(c2)))


def _lq_norms(z: np.ndarray, q: float, cell: float, axes=None, out=None):
    """Quadrature L^q norms of complex samples over ``axes`` (all axes by default).

    q = inf gives the max modulus.  Finite q raises |z|^2 = re^2 + im^2 to
    q/2, which avoids hypot and, for q = 2 and 4, the general power.  With
    ``out``, a C-contiguous float64 scratch array shaped like the C-contiguous
    ``z``, finite q squares ``z``'s float64 view in place (overwriting ``z``)
    and builds |z|^2 in ``out``: the same operations per element, so the same
    bits, with no temporaries.
    """
    if q == np.inf:
        return np.abs(z).max(axis=axes)
    if out is not None:
        parts = np.square(z.view(np.float64), out=z.view(np.float64))
        a2 = np.add(parts[..., 0::2], parts[..., 1::2], out=out)
    else:
        a2 = z.real**2
        a2 += z.imag**2
    a2 **= q / 2.0
    return (np.sum(a2, axis=axes) * cell) ** (1.0 / q)


def spacetime_norm_from_samples(times, lq_values, p: float) -> float:
    """Composite-trapezoid L^p-in-time norm of precomputed spatial norms."""
    if not (np.isfinite(p) and p >= 1):
        raise SpectralError(f"time exponent p must satisfy 1 <= p < inf, got {p}")
    times = np.asarray(times, dtype=np.float64)
    lq_values = np.asarray(lq_values, dtype=np.float64)
    if times.ndim != 1 or times.size < 2 or lq_values.shape != times.shape:
        raise SpectralError("need at least two time samples with matching norms")
    if np.any(np.diff(times) <= 0):
        raise SpectralError("snapshot times must be strictly increasing")
    return float(np.trapezoid(lq_values**p, times) ** (1.0 / p))


def spectral_tail_mass(values: np.ndarray, grid: Grid) -> float:
    """Fraction of the squared L2 mass of the samples ``values`` in the top octave of frequencies."""
    _check_on_grid(values, grid)
    return _coeff_tail_mass(np.fft.fftn(values), grid)


def _coeff_tail_mass(coeffs: np.ndarray, grid: Grid) -> float:
    """:func:`spectral_tail_mass` of the field whose raw ``np.fft.fftn`` output is ``coeffs``."""
    with np.errstate(over="ignore"):
        c2 = _coeff_mass(coeffs, grid)
    return _mass_fraction(c2, _top_octave(grid))


def _spatial_tail_mass(values: np.ndarray, grid: Grid) -> float:
    """Fraction of the squared L2 mass of the samples ``values`` outside the half box |x|_inf <= L/2."""
    with np.errstate(over="ignore"):
        a2 = np.abs(values) ** 2
    return _mass_fraction(a2, _half_box(grid))
