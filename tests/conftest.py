from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from modnls import Grid, evolve
from modnls.spectral import (
    SpectralError,
    _coeff_sobolev_norm,
    _coeff_tail_mass,
    _plancherel_scale,
    _propagator,
)

# the same examples on every run, independent of the .hypothesis/ database
# and of how long an example takes on a loaded machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_smooth_field(grid: Grid, seed: int, decay: float = 4.0) -> np.ndarray:
    """Samples of a random field with Gaussian spectral envelope (smooth, tiny tails).

    The draws are Plancherel-normalized coefficients; dividing by the scale
    turns them into raw ``np.fft.fftn`` output.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    envelope = np.exp(-grid.xi_sq / decay**2)
    c = coeffs * envelope / _plancherel_scale(grid)
    return np.fft.ifftn(c)


def gaussian_field(grid: Grid, amplitude: float = 1.0, width: float = 1.0) -> np.ndarray:
    """amplitude * exp(-(x_1/width)^2) on the grid nodes."""
    return amplitude * np.exp(-((grid.x[0] / width) ** 2))


def free_propagate(values: np.ndarray, grid: Grid, symbol, t: float) -> np.ndarray:
    """Oracle: the exact free flow ifftn(exp(i*t*P(xi)) * fftn(values)) on the stepper's propagator.

    The sign is fixed so that a constant multiplier c yields the global
    phase exp(i*c*t) and a linear multiplier c*xi translates the data to
    u0(x + c*t).
    """
    if not np.isfinite(t):
        raise SpectralError(f"propagation time must be finite, got {t}")
    return np.fft.ifftn(np.fft.fftn(values) * _propagator(symbol.on_grid(grid), t))


def evolve_with_diagnostics(u0: np.ndarray, grid: Grid, cfg):
    """Run evolve from the samples ``u0`` with a reducer that records each
    snapshot's time, L2 norm and spectral tail mass; returns (final, times,
    l2_norms, tail_masses)."""
    times, l2, tails = [], [], []

    def record(t, coeffs):
        times.append(t)
        l2.append(_coeff_sobolev_norm(coeffs, grid, 0.0))
        tails.append(_coeff_tail_mass(coeffs, grid))

    final = evolve(np.fft.fftn(u0), cfg, grid, record)
    return final, np.array(times), np.array(l2), np.array(tails)


def count_ffts(monkeypatch) -> list:
    """Record the name of every np.fft.fftn and np.fft.ifftn call from now on."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def grid1d() -> Grid:
    return Grid(1, 64, np.pi)


@pytest.fixture
def grid2d() -> Grid:
    return Grid(2, 16, np.pi)
