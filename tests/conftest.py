from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from modnls import Field, Grid, SpectralField, inverse_transform, make_grid

# the same examples on every run, independent of the .hypothesis/ database
# and of how long an example takes on a loaded machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_smooth_field(grid: Grid, seed: int, decay: float = 4.0) -> Field:
    """Random field with Gaussian spectral envelope (smooth, tiny tails)."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    envelope = np.exp(-grid.xi_sq / decay**2)
    return inverse_transform(SpectralField(grid, coeffs * envelope))


@pytest.fixture
def grid1d() -> Grid:
    return make_grid(1, 64, np.pi)


@pytest.fixture
def grid2d() -> Grid:
    return make_grid(2, 16, np.pi)
