from __future__ import annotations

import math

import numpy as np
import pytest

from modnls import (
    BOUNDED,
    Field,
    Grid,
    SpectralError,
    Symbol,
    free_propagate,
    make_symbol,
    sobolev_norm,
    spacetime_norm_from_samples,
    spectral_tail_mass,
)
from modnls.spectral import MAX_GRID_NODES, _coeff_tail_mass, _lq_norms, _spatial_tail_mass
from conftest import gaussian_field, random_smooth_field


def lq_norm(f: Field, q: float) -> float:
    """The probe's quadrature L^q norm of one field."""
    return float(_lq_norms(f.values, q, f.grid.cell))


def quadrature_l2(f: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell))


class TestMakeGrid:
    def test_integer_lattice_when_L_is_pi(self):
        grid = Grid(1, 8, np.pi)
        assert sorted(grid.xi[0]) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_max_positive_frequency(self):
        grid = Grid(1, 16, 2 * np.pi)
        assert grid.xi[0].max() == pytest.approx(3.5, rel=1e-15)

    def test_2d_node_count_and_spacing(self):
        grid = Grid(2, 8, 1.0)
        assert grid.xi[0].size == 64
        spacing = np.diff(np.sort(np.unique(grid.xi[0])))
        assert np.allclose(spacing, np.pi)

    @pytest.mark.parametrize("d,n,L", [(3, 8, 1.0), (1, 12, 1.0), (1, 4, 1.0), (1, 8, 0.0), (1, 8, -2.0)])
    def test_rejects_bad_arguments(self, d, n, L):
        with pytest.raises(SpectralError):
            Grid(d, n, L)

    @pytest.mark.parametrize("d,n", [(1, 2**25), (2, 8192), (1, 2**50)])
    def test_rejects_more_nodes_than_the_cap_before_allocating(self, d, n):
        with pytest.raises(SpectralError, match=f"n = {n} points per axis in d = {d} has more "
                                                f"than MAX_GRID_NODES = {MAX_GRID_NODES}"):
            Grid(d, n, 1.0)

    def test_the_cap_itself_is_allowed(self):
        assert Grid(2, 4096, 1.0).xi_sq.size == MAX_GRID_NODES


class TestTransforms:
    # the code works on raw np.fft.fftn output and its frequency lattice
    def test_zero_field(self, grid1d):
        f = Field(grid1d, np.zeros(grid1d.shape))
        assert sobolev_norm(f, 0.0) == 0.0
        assert spectral_tail_mass(f) == 0.0

    def test_single_mode_has_one_coefficient(self, grid1d):
        coeffs = np.fft.fftn(Field(grid1d, np.exp(1j * grid1d.x[0])).values)
        nonzero = np.flatnonzero(np.abs(coeffs) > 1e-12 * np.abs(coeffs).max())
        assert nonzero.tolist() == [1]
        assert grid1d.xi[0][1] == 1.0  # the lattice is stored in FFT order

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, grid1d, seed):
        # a zero multiplier leaves only the forward/inverse FFT pair
        f = random_smooth_field(grid1d, seed)
        back = free_propagate(f, make_symbol("constant", c=0.0), 1.0)
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() <= 1e-12 * scale

    def test_plancherel_100_random_fields(self, grid1d):
        for seed in range(100):
            f = random_smooth_field(grid1d, seed)
            l2 = sobolev_norm(f, 0.0)
            quad = quadrature_l2(f)
            assert abs(l2 - quad) <= 1e-12 * max(l2, 1.0)

    def test_plancherel_2d(self, grid2d):
        f = random_smooth_field(grid2d, 7)
        quad = quadrature_l2(f)
        spec = sobolev_norm(f, 0.0)
        assert abs(quad - spec) <= 1e-12 * quad

    def test_field_rejects_non_finite(self, grid1d):
        vals = np.zeros(grid1d.shape, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(SpectralError):
            Field(grid1d, vals)


class TestFreePropagate:
    def test_t_zero_is_identity(self, grid1d):
        f = random_smooth_field(grid1d, 1)
        assert free_propagate(f, make_symbol("laplacian"), 0.0) is f

    def test_constant_symbol_global_phase(self, grid1d):
        f = random_smooth_field(grid1d, 2)
        c, t = 0.7, 1.3
        out = free_propagate(f, make_symbol("constant", c=c), t)
        expected = np.exp(1j * c * t) * f.values
        assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(f.values).max()

    def test_transport_translates(self):
        # lattice-commensurate shift: c*t a multiple of dx
        grid = Grid(1, 64, np.pi)
        f = random_smooth_field(grid, 3)
        shift_nodes = 5
        t = shift_nodes * grid.dx  # c = 1
        out = free_propagate(f, make_symbol("transport", c=1.0), t)
        expected = np.roll(f.values, -shift_nodes)  # u0(x + c t)
        assert np.abs(out.values - expected).max() <= 1e-10 * np.abs(f.values).max()

    def test_unitarity_across_catalog(self, grid1d):
        symbols = [
            make_symbol("laplacian"),
            make_symbol("fourth_order"),
            make_symbol("power_m", m=3),
            make_symbol("odd_power_1d", j=1),
            make_symbol("transport", c=1.0),
            make_symbol("constant", c=2.0),
            make_symbol("arctan_step", h=1.0),
            make_symbol("regularized_laplacian"),
            make_symbol("wave"),
            make_symbol("directional_m", m=2, c=1.0),
        ]
        f = random_smooth_field(grid1d, 4)
        for sym in symbols:
            out = free_propagate(f, sym, 0.37)
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                a, b = sobolev_norm(f, s), sobolev_norm(out, s)
                assert abs(a - b) <= 1e-12 * a, (sym.name, s)

    def test_group_law(self, grid1d):
        f = random_smooth_field(grid1d, 5)
        sym = make_symbol("arctan_step", h=0.5)
        one = free_propagate(free_propagate(f, sym, 0.4), sym, 0.35)
        two = free_propagate(f, sym, 0.75)
        assert np.abs(one.values - two.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_non_finite_symbol_names_frequency(self, grid1d):
        def inverse(xi):
            with np.errstate(divide="ignore"):
                return 1.0 / xi

        bad = Symbol("inverse", inverse, BOUNDED, bound=1.0)
        with pytest.raises(SpectralError, match=r"symbol inverse is not finite at xi = \(0\.0,\)"):
            free_propagate(random_smooth_field(grid1d, 6), bad, 1.0)


class TestSobolevNorm:
    def test_zero_field(self, grid1d):
        assert sobolev_norm(Field(grid1d, np.zeros(grid1d.shape)), 1.5) == 0.0

    def test_unit_mode_d2(self):
        grid = Grid(2, 16, np.pi)
        vals = np.exp(1j * grid.x[0])
        f = Field(grid, vals / sobolev_norm(Field(grid, vals), 0.0))
        assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_gaussian_l2_oracle(self):
        # oracle: integral of exp(-2 x^2) over R equals sqrt(pi/2)
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        expected = math.sqrt(math.sqrt(math.pi / 2.0))  # 1.11951...
        assert sobolev_norm(f, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.11951, abs=1e-5)

    def test_homogeneous_negative_order_requires_zero_mean(self, grid1d):
        f = Field(grid1d, 1.0 + 0.1 * np.cos(grid1d.x[0]))
        with pytest.raises(SpectralError, match="zero mode"):
            sobolev_norm(f, -0.5, homogeneous=True)
        g = Field(grid1d, np.cos(grid1d.x[0]) + 0j)
        assert sobolev_norm(g, -0.5, homogeneous=True) > 0

    def test_homogeneous_zero_order_is_l2(self, grid1d):
        f = random_smooth_field(grid1d, 8)
        assert sobolev_norm(f, 0.0, homogeneous=True) == pytest.approx(
            sobolev_norm(f, 0.0), rel=1e-13
        )


class TestLebesgueNorm:
    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 6.0])
    def test_constant_field(self, q):
        grid = Grid(1, 32, 1.5)
        f = Field(grid, np.ones(grid.shape))
        assert lq_norm(f, q) == pytest.approx((2 * grid.L) ** (1.0 / q), rel=1e-13)

    def test_q2_matches_sobolev(self, grid1d):
        f = random_smooth_field(grid1d, 9)
        assert lq_norm(f, 2.0) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-12)

    def test_gaussian_l4_oracle(self):
        # oracle: integral of exp(-4 x^2) over R equals sqrt(pi)/2
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        expected = (math.sqrt(math.pi) / 2.0) ** 0.25  # 0.970256...
        assert lq_norm(f, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_infinity_norm(self, grid1d):
        f = gaussian_field(grid1d, amplitude=2.0)
        assert lq_norm(f, np.inf) == pytest.approx(2.0, rel=1e-6)


def spacetime_norm(snapshots, p: float, q: float) -> float:
    """L^p-in-time L^q-in-space norm of a time-sorted list of (t, Field)."""
    times = [t for t, _ in snapshots]
    return spacetime_norm_from_samples(times, [lq_norm(f, q) for _, f in snapshots], p)


class TestSpacetimeNorm:
    def test_time_constant_snapshots(self, grid1d):
        f = random_smooth_field(grid1d, 11)
        snaps = [(0.0, f), (0.5, f), (1.0, f), (1.5, f)]
        p, q = 8.0, 4.0
        expected = 1.5 ** (1.0 / p) * lq_norm(f, q)
        assert spacetime_norm(snaps, p, q) == pytest.approx(expected, rel=1e-12)

    def test_p1_two_snapshots_is_trapezoid(self, grid1d):
        f = random_smooth_field(grid1d, 12)
        g = Field(f.grid, 2.0 * f.values)
        snaps = [(0.0, f), (2.0, g)]
        expected = 0.5 * 2.0 * (lq_norm(f, 2.0) + lq_norm(g, 2.0))
        assert spacetime_norm(snaps, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_free_flow_under_zero_symbol(self, grid1d):
        f = gaussian_field(grid1d)
        zero = make_symbol("constant", c=0.0)
        times = np.linspace(0.0, 1.0, 9)
        snaps = [(t, free_propagate(f, zero, t)) for t in times]
        expected = 1.0 ** (1 / 8) * lq_norm(f, 4.0)
        assert spacetime_norm(snaps, 8.0, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_snapshots(self, grid1d):
        with pytest.raises(SpectralError):
            spacetime_norm([(0.0, random_smooth_field(grid1d, 13))], 2.0, 2.0)


class TestEmbeddingAndTails:
    def test_sobolev_embedding_direction(self, grid1d):
        # one grid-calibrated constant, then 100 fresh fields
        q = 4.0
        s = grid1d.d / 2.0 - grid1d.d / q + 0.01
        calib = max(
            lq_norm(f, q) / sobolev_norm(f, s)
            for f in (random_smooth_field(grid1d, k, decay=6.0) for k in range(20))
        )
        C = 2.0 * calib
        for seed in range(100, 200):
            f = random_smooth_field(grid1d, seed, decay=6.0)
            assert lq_norm(f, q) <= C * sobolev_norm(f, s)

    def test_tail_masses_small_for_smooth_centered_data(self):
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        assert _spatial_tail_mass(f) < 1e-8
        assert spectral_tail_mass(f) < 1e-8

    def test_spatial_tail_detects_wide_data(self):
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid, width=6.0)
        assert _spatial_tail_mass(f) > 1e-8

    @pytest.mark.parametrize("k,share", [(3, 0.0), (40, 1.0), (-64, 1.0)])
    def test_coefficient_tail_mass_is_the_field_tail_mass(self, k, share):
        # one Fourier mode lies wholly inside or wholly in the top octave
        # |xi| >= xi_max/2 (k >= 32 of n/2 = 64); the field form transforms and
        # calls the coefficient form, so the two agree exactly
        grid = Grid(1, 128, 8.0)
        f = Field(grid, np.exp(1j * (np.pi / grid.L) * k * grid.x[0]))
        coeffs = np.fft.fftn(f.values)
        assert _coeff_tail_mass(coeffs, grid) == pytest.approx(share, abs=1e-14)
        assert _coeff_tail_mass(coeffs, grid) == spectral_tail_mass(f)
