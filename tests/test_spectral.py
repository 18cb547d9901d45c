from __future__ import annotations

import math

import numpy as np
import pytest

from modnls import (
    BOUNDED,
    Grid,
    SpectralError,
    Symbol,
    make_symbol,
    sobolev_norm,
    spacetime_norm_from_samples,
    spectral_tail_mass,
)
from modnls.spectral import (
    MAX_GRID_NODES,
    Field,
    _coeff_sobolev_norm,
    _coeff_tail_mass,
    _half_box,
    _lq_norms,
    _plancherel_scale,
    _propagator,
    _sobolev_weight,
    _spatial_tail_mass,
    _top_octave,
)
from conftest import free_propagate, gaussian_field, random_smooth_field


def lq_norm(f: np.ndarray, grid: Grid, q: float) -> float:
    """The probe's quadrature L^q norm of one field's samples."""
    return float(_lq_norms(f, q, grid.cell))


def quadrature_l2(f: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell))


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

    @pytest.mark.parametrize("d,n,L", [(3, 8, 1.0), (1, 12, 1.0), (1, 4, 1.0), (1, 8, 0.0), (1, 8, -2.0),
                                       (1.0, 8, 1.0)])
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
        f = np.zeros(grid1d.shape)
        assert sobolev_norm(f, grid1d, 0.0) == 0.0
        assert spectral_tail_mass(f, grid1d) == 0.0

    def test_single_mode_has_one_coefficient(self, grid1d):
        coeffs = np.fft.fftn(np.exp(1j * grid1d.x[0]))
        nonzero = np.flatnonzero(np.abs(coeffs) > 1e-12 * np.abs(coeffs).max())
        assert nonzero.tolist() == [1]
        assert grid1d.xi[0][1] == 1.0  # the lattice is stored in FFT order

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, grid1d, seed):
        # a zero multiplier leaves only the forward/inverse FFT pair
        f = random_smooth_field(grid1d, seed)
        back = free_propagate(f, grid1d, make_symbol("constant", c=0.0), 1.0)
        scale = np.abs(f).max()
        assert np.abs(back - f).max() <= 1e-12 * scale

    def test_plancherel_100_random_fields(self, grid1d):
        for seed in range(100):
            f = random_smooth_field(grid1d, seed)
            l2 = sobolev_norm(f, grid1d, 0.0)
            quad = quadrature_l2(f, grid1d)
            assert abs(l2 - quad) <= 1e-12 * max(l2, 1.0)

    def test_plancherel_2d(self, grid2d):
        f = random_smooth_field(grid2d, 7)
        quad = quadrature_l2(f, grid2d)
        spec = sobolev_norm(f, grid2d, 0.0)
        assert abs(quad - spec) <= 1e-12 * quad

    def test_field_rejects_non_finite(self, grid1d):
        vals = np.zeros(grid1d.shape, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(SpectralError):
            Field(grid1d, vals)


    @pytest.mark.parametrize("norm", [
        lambda f, grid: sobolev_norm(f, grid, 0.0),
        spectral_tail_mass,
    ])
    def test_norm_helpers_reject_a_wrong_shape_or_non_finite_values(self, grid1d, norm):
        with pytest.raises(SpectralError, match="shape"):
            norm(np.zeros(32), grid1d)
        vals = np.zeros(grid1d.shape)
        vals[3] = np.inf
        with pytest.raises(SpectralError, match="non-finite"):
            norm(vals, grid1d)


class TestFreePropagate:
    """The free flow through the stepper's propagator, against the conftest oracle."""

    def test_t_zero_is_identity(self, grid1d):
        assert np.all(_propagator(make_symbol("laplacian").on_grid(grid1d), 0.0) == 1.0)

    def test_constant_symbol_global_phase(self, grid1d):
        f = random_smooth_field(grid1d, 2)
        c, t = 0.7, 1.3
        out = free_propagate(f, grid1d, make_symbol("constant", c=c), t)
        expected = np.exp(1j * c * t) * f
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(f).max()

    def test_transport_translates(self):
        # lattice-commensurate shift: c*t a multiple of dx
        grid = Grid(1, 64, np.pi)
        f = random_smooth_field(grid, 3)
        shift_nodes = 5
        t = shift_nodes * grid.dx  # c = 1
        out = free_propagate(f, grid, make_symbol("transport", c=1.0), t)
        expected = np.roll(f, -shift_nodes)  # u0(x + c t)
        assert np.abs(out - expected).max() <= 1e-10 * np.abs(f).max()

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
            out = free_propagate(f, grid1d, sym, 0.37)
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                a, b = sobolev_norm(f, grid1d, s), sobolev_norm(out, grid1d, s)
                assert abs(a - b) <= 1e-12 * a, (sym.name, s)

    def test_group_law(self, grid1d):
        f = random_smooth_field(grid1d, 5)
        sym = make_symbol("arctan_step", h=0.5)
        one = free_propagate(free_propagate(f, grid1d, sym, 0.4), grid1d, sym, 0.35)
        two = free_propagate(f, grid1d, sym, 0.75)
        assert np.abs(one - two).max() <= 1e-12 * np.abs(f).max()

    def test_non_finite_symbol_names_frequency(self, grid1d):
        def inverse(xi):
            with np.errstate(divide="ignore"):
                return 1.0 / xi

        bad = Symbol("inverse", inverse, BOUNDED, bound=1.0)
        with pytest.raises(SpectralError, match=r"symbol inverse is not finite at xi = \(0\.0,\)"):
            free_propagate(random_smooth_field(grid1d, 6), grid1d, bad, 1.0)


class TestSobolevNorm:
    def test_zero_field(self, grid1d):
        assert sobolev_norm(np.zeros(grid1d.shape), grid1d, 1.5) == 0.0

    def test_unit_mode_d2(self):
        grid = Grid(2, 16, np.pi)
        vals = np.exp(1j * grid.x[0])
        f = vals / sobolev_norm(vals, grid, 0.0)
        assert sobolev_norm(f, grid, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_gaussian_l2_oracle(self):
        # oracle: integral of exp(-2 x^2) over R equals sqrt(pi/2)
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        expected = math.sqrt(math.sqrt(math.pi / 2.0))  # 1.11951...
        assert sobolev_norm(f, grid, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.11951, abs=1e-5)

    def test_homogeneous_negative_order_requires_zero_mean(self, grid1d):
        f = 1.0 + 0.1 * np.cos(grid1d.x[0])
        with pytest.raises(SpectralError, match="zero mode"):
            sobolev_norm(f, grid1d, -0.5, homogeneous=True)
        g = np.cos(grid1d.x[0]) + 0j
        assert sobolev_norm(g, grid1d, -0.5, homogeneous=True) > 0

    def test_homogeneous_zero_order_is_l2(self, grid1d):
        f = random_smooth_field(grid1d, 8)
        assert sobolev_norm(f, grid1d, 0.0, homogeneous=True) == pytest.approx(
            sobolev_norm(f, grid1d, 0.0), rel=1e-13
        )


class TestLebesgueNorm:
    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 6.0])
    def test_constant_field(self, q):
        grid = Grid(1, 32, 1.5)
        f = np.ones(grid.shape)
        assert lq_norm(f, grid, q) == pytest.approx((2 * grid.L) ** (1.0 / q), rel=1e-13)

    def test_q2_matches_sobolev(self, grid1d):
        f = random_smooth_field(grid1d, 9)
        assert lq_norm(f, grid1d, 2.0) == pytest.approx(sobolev_norm(f, grid1d, 0.0), rel=1e-12)

    def test_gaussian_l4_oracle(self):
        # oracle: integral of exp(-4 x^2) over R equals sqrt(pi)/2
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        expected = (math.sqrt(math.pi) / 2.0) ** 0.25  # 0.970256...
        assert lq_norm(f, grid, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_infinity_norm(self, grid1d):
        f = gaussian_field(grid1d, amplitude=2.0)
        assert lq_norm(f, grid1d, np.inf) == pytest.approx(2.0, rel=1e-6)


def spacetime_norm(snapshots, grid: Grid, p: float, q: float) -> float:
    """L^p-in-time L^q-in-space norm of a time-sorted list of (t, samples on grid)."""
    times = [t for t, _ in snapshots]
    return spacetime_norm_from_samples(times, [lq_norm(f, grid, q) for _, f in snapshots], p)


class TestSpacetimeNorm:
    def test_time_constant_snapshots(self, grid1d):
        f = random_smooth_field(grid1d, 11)
        snaps = [(0.0, f), (0.5, f), (1.0, f), (1.5, f)]
        p, q = 8.0, 4.0
        expected = 1.5 ** (1.0 / p) * lq_norm(f, grid1d, q)
        assert spacetime_norm(snaps, grid1d, p, q) == pytest.approx(expected, rel=1e-12)

    def test_p1_two_snapshots_is_trapezoid(self, grid1d):
        f = random_smooth_field(grid1d, 12)
        g = 2.0 * f
        snaps = [(0.0, f), (2.0, g)]
        expected = 0.5 * 2.0 * (lq_norm(f, grid1d, 2.0) + lq_norm(g, grid1d, 2.0))
        assert spacetime_norm(snaps, grid1d, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_free_flow_under_zero_symbol(self, grid1d):
        f = gaussian_field(grid1d)
        zero = make_symbol("constant", c=0.0)
        times = np.linspace(0.0, 1.0, 9)
        snaps = [(t, free_propagate(f, grid1d, zero, t)) for t in times]
        expected = 1.0 ** (1 / 8) * lq_norm(f, grid1d, 4.0)
        assert spacetime_norm(snaps, grid1d, 8.0, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_snapshots(self, grid1d):
        with pytest.raises(SpectralError):
            spacetime_norm([(0.0, random_smooth_field(grid1d, 13))], grid1d, 2.0, 2.0)


class TestEmbeddingAndTails:
    def test_sobolev_embedding_direction(self, grid1d):
        # one grid-calibrated constant, then 100 fresh fields
        q = 4.0
        s = grid1d.d / 2.0 - grid1d.d / q + 0.01
        calib = max(
            lq_norm(f, grid1d, q) / sobolev_norm(f, grid1d, s)
            for f in (random_smooth_field(grid1d, k, decay=6.0) for k in range(20))
        )
        C = 2.0 * calib
        for seed in range(100, 200):
            f = random_smooth_field(grid1d, seed, decay=6.0)
            assert lq_norm(f, grid1d, q) <= C * sobolev_norm(f, grid1d, s)

    def test_tail_masses_small_for_smooth_centered_data(self):
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid)
        assert _spatial_tail_mass(f, grid) < 1e-8
        assert spectral_tail_mass(f, grid) < 1e-8

    def test_spatial_tail_detects_wide_data(self):
        grid = Grid(1, 256, 8.0)
        f = gaussian_field(grid, width=6.0)
        assert _spatial_tail_mass(f, grid) > 1e-8

    @pytest.mark.parametrize("k,share", [(3, 0.0), (40, 1.0), (-64, 1.0)])
    def test_coefficient_tail_mass_is_the_field_tail_mass(self, k, share):
        # one Fourier mode lies wholly inside or wholly in the top octave
        # |xi| >= xi_max/2 (k >= 32 of n/2 = 64); the field form transforms and
        # calls the coefficient form, so the two agree exactly
        grid = Grid(1, 128, 8.0)
        f = np.exp(1j * (np.pi / grid.L) * k * grid.x[0])
        coeffs = np.fft.fftn(f)
        assert _coeff_tail_mass(coeffs, grid) == pytest.approx(share, abs=1e-14)
        assert _coeff_tail_mass(coeffs, grid) == spectral_tail_mass(f, grid)


class TestGridCaches:
    """Weights and masks are built once per grid, read-only, with the uncached arithmetic."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_read_only_array_on_every_call(self, d):
        grid = Grid(d, 32, 4.0)
        builders = [lambda: _top_octave(grid), lambda: _half_box(grid),
                    lambda: _sobolev_weight(grid, 2), lambda: _sobolev_weight(grid, 2.0),
                    lambda: _sobolev_weight(grid, -0.5, homogeneous=True)]
        for build in builders:
            arr = build()
            assert build() is arr
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * d] = 7.0
        assert np.array_equal(_half_box(grid),
                              np.maximum.reduce([np.abs(c) for c in grid.x]) > grid.L / 2.0)
        assert _sobolev_weight(grid, 1.0) is not _sobolev_weight(grid, 1.0, homogeneous=True)
        assert _top_octave(Grid(d, 32, 4.0)) is not _top_octave(grid)

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.25, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_norm_and_tail_mass_equal_the_uncached_formulas(self, d, s, homogeneous):
        grid = Grid(d, 64 if d == 1 else 32, 4.0)
        coeffs = np.fft.fftn(random_smooth_field(grid, 3, decay=8.0))
        coeffs[(0,) * d] = 0.0  # a negative-order homogeneous norm needs mean zero
        c2 = coeffs.real**2
        c2 += coeffs.imag**2
        c2 *= _plancherel_scale(grid) ** 2
        if homogeneous:
            with np.errstate(divide="ignore"):
                w = np.array(grid.xi_sq**s)
            w[(0,) * d] = 1.0 if s == 0 else 0.0
        else:
            w = (1.0 + grid.xi_sq) ** s
        expected = float(np.sqrt(np.sum(w * c2)))
        top = np.maximum.reduce([np.abs(c) for c in grid.xi]) >= grid.xi_max / 2.0
        for _ in range(2):  # building the cache, then reading it
            assert _coeff_sobolev_norm(coeffs, grid, s, homogeneous) == expected
            assert _coeff_tail_mass(coeffs, grid) == float(np.sum(c2[top]) / float(np.sum(c2)))
