from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from modnls import Field, Grid, evolve, make_grid
from modnls.spectral import _coeff_sobolev_norm, _coeff_tail_mass, _plancherel_scale

# the same examples on every run, independent of the .hypothesis/ database
# and of how long an example takes on a loaded machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_smooth_field(grid: Grid, seed: int, decay: float = 4.0) -> Field:
    """Random field with Gaussian spectral envelope (smooth, tiny tails).

    The draws are Plancherel-normalized coefficients; dividing by the scale
    turns them into raw ``np.fft.fftn`` output.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    envelope = np.exp(-grid.xi_sq / decay**2)
    c = coeffs * envelope / _plancherel_scale(grid)
    return Field(grid, np.fft.ifftn(c))


def gaussian_field(grid: Grid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    """amplitude * exp(-(x_1/width)^2) on the grid nodes."""
    return Field(grid, amplitude * np.exp(-((grid.x[0] / width) ** 2)))


def evolve_with_diagnostics(u0: Field, cfg):
    """Run evolve with a reducer that records each snapshot's time, L2 norm
    and spectral tail mass; returns (final, times, l2_norms, tail_masses)."""
    times, l2, tails = [], [], []

    def record(t, coeffs):
        times.append(t)
        l2.append(_coeff_sobolev_norm(coeffs, u0.grid, 0.0))
        tails.append(_coeff_tail_mass(coeffs, u0.grid))

    final = evolve(u0, cfg, record)
    return final, np.array(times), np.array(l2), np.array(tails)


@pytest.fixture
def grid1d() -> Grid:
    return make_grid(1, 64, np.pi)


@pytest.fixture
def grid2d() -> Grid:
    return make_grid(2, 16, np.pi)
