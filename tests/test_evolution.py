from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modnls
from modnls import (
    EvolutionError,
    Grid,
    PicardDivergenceError,
    SolveConfig,
    SpectralError,
    evolve,
    make_symbol,
    picard_solve,
    sigma_is_admissible,
    sobolev_norm,
    spectral_tail_mass,
)
from modnls import evolution, spectral
from modnls.cli import main
from modnls.evolution import MAX_STEPS, _cumulative_trapezoid, _phase_kick, _warn_initial_tails
from modnls.spectral import _coeff_sobolev_norm
from conftest import (
    count_ffts,
    evolve_with_diagnostics,
    free_propagate,
    gaussian_field,
    random_smooth_field,
)


def reference_strang(u0, grid, cfg):
    """Oracle: the Strang loop in physical space, 4 FFTs per step.

    Each half-step transforms to Fourier space and back, so the state is in
    physical space at every kick and every snapshot.  Returns the snapshots
    as a list of (t, samples).
    """
    pvals = cfg.symbol.on_grid(grid)
    n_full = int(math.floor(cfg.T / cfg.dt + 1e-9))
    steps = [cfg.dt] * n_full
    if cfg.T - n_full * cfg.dt > 1e-12 * cfg.dt:
        steps.append(cfg.T - n_full * cfg.dt)
    vals = u0
    snaps = [(0.0, vals)]
    for k, step in enumerate(steps):
        phase = np.exp(1j * (step / (2.0 * cfg.eps)) * pvals)
        vals = np.fft.ifftn(np.fft.fftn(vals) * phase)
        vals = phase_ode(vals, cfg.lam, cfg.sigma, step, cfg.eps)
        vals = np.fft.ifftn(np.fft.fftn(vals) * phase)
        last = k + 1 == len(steps)
        if (k + 1) % cfg.snapshot_every == 0 or last:
            snaps.append((cfg.T if last else (k + 1) * cfg.dt, vals))
    return snaps


def three_array_strang(u0, grid, cfg):
    """Oracle: the Fourier-resident Strang loop with a third complex array for the rotation.

    The kick builds |v|^(2*sigma) in fresh temporaries and writes its
    rotation into ``rot``, not into the dead u_hat.  Returns the copied
    snapshots as (t, coeffs) and the final coefficients.
    """
    u_hat = np.fft.fftn(u0)
    snaps = [(0.0, u_hat.copy())]
    pvals = cfg.symbol.on_grid(grid)
    n_full = int(math.floor(cfg.T / cfg.dt + 1e-9))
    steps = [cfg.dt] * n_full
    if cfg.T - n_full * cfg.dt > 1e-12 * cfg.dt:
        steps.append(cfg.T - n_full * cfg.dt)
    halves = {step: np.exp(1j * (step / (2.0 * cfg.eps)) * pvals) for step in set(steps)}
    v = np.empty_like(u_hat)
    rot = np.empty_like(u_hat)
    for k, step in enumerate(steps):
        half = halves[step]
        u_hat *= half
        np.fft.ifftn(u_hat, out=v)
        angle = np.square(v.real)
        angle += np.square(v.imag)
        angle **= cfg.sigma
        angle *= -(cfg.lam * step / cfg.eps)
        np.cos(angle, out=rot.real)
        np.sin(angle, out=rot.imag)
        v *= rot
        np.fft.fftn(v, out=u_hat)
        u_hat *= half
        last = k + 1 == len(steps)
        if (k + 1) % cfg.snapshot_every == 0 or last:
            snaps.append((cfg.T if last else (k + 1) * cfg.dt, u_hat.copy()))
    return snaps, u_hat


def phase_ode(values, lam, sigma, dt, eps=1.0):
    """Oracle: the exact phase-ODE flow u * exp(-i*(lam*dt/eps)*|u|^(2*sigma)), in closed form."""
    return values * np.exp(-1j * (lam * dt / eps) * np.abs(values) ** (2.0 * sigma))


def kick(values, lam, sigma, dt, eps=1.0):
    """The stepper's in-place phase kick, applied to a copy of ``values``."""
    out = np.array(values)
    _phase_kick(out, lam, sigma, dt, eps, np.empty_like(out), np.empty(out.shape))
    return out


def rel_gap(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.fixture
def grid():
    return Grid(1, 256, 8.0)


@pytest.fixture
def gaussian(grid):
    return gaussian_field(grid, 0.25)


class TestPhaseStep:
    def test_lambda_zero_is_identity(self, grid):
        f = random_smooth_field(grid, 0)
        out = kick(f, 0.0, 1.0, 0.3)
        assert np.array_equal(out, f)

    def test_unit_constant_rotates(self, grid):
        f = np.ones(grid.shape, dtype=complex)
        t = 0.8
        out = kick(f, 1.0, 1.0, t)
        assert np.abs(out - math.e ** (-1j * t)).max() <= 1e-15

    def test_half_power_constant(self, grid):
        # |u|^(2*sigma) = 2 for u = 2, sigma = 1/2
        f = 2.0 * np.ones(grid.shape, dtype=complex)
        out = kick(f, 1.0, 0.5, 0.5)
        expected = 2.0 * np.exp(-1j * 1.0)
        assert np.abs(out - expected).max() <= 1e-15

    def test_modulus_preserved(self, grid):
        f = random_smooth_field(grid, 1)
        out = kick(f, -2.0, 1.5, 0.7)
        assert np.abs(np.abs(out) - np.abs(f)).max() <= 1e-15

    def test_autonomous_composition(self, grid):
        f = random_smooth_field(grid, 2)
        twice = kick(kick(f, 1.0, 2.0, 0.1), 1.0, 2.0, 0.1)
        once = kick(f, 1.0, 2.0, 0.2)
        scale = np.abs(f).max()
        assert np.abs(twice - once).max() <= 1e-13 * scale


class TestPhaseKick:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0])
    def test_matches_complex_exponential(self, grid, sigma):
        # unit peak modulus and a peak rotation of 2 rad
        f = random_smooth_field(grid, 3)
        v = f / np.abs(f).max()
        ref = phase_ode(v, 0.8, sigma, 1.25, 0.5)
        out = kick(v, 0.8, sigma, 1.25, 0.5)
        assert np.abs(out - ref).max() <= 1e-14
        assert np.abs(np.abs(out) - np.abs(v)).max() <= 1e-14


class TestStrangStep:
    # one step of evolve (T = dt) is one Strang step: half free, kick, half free
    def test_lambda_zero_equals_free_flow(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 0.0, 1.0, dt=0.05, T=0.05)
        out = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        ref = free_propagate(gaussian, grid, make_symbol("laplacian"), 0.05)
        assert np.abs(out - ref).max() <= 1e-12

    def test_zero_symbol_equals_phase_step(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("constant", c=0.0), 1.0, 1.0, dt=0.05, T=0.05)
        out = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        ref = phase_ode(gaussian, 1.0, 1.0, 0.05)
        assert np.abs(out - ref).max() <= 1e-14

    def test_constant_symbol_commutes(self, grid, gaussian):
        c, dt, eps = 1.7, 0.05, 0.5
        cfg = SolveConfig(make_symbol("constant", c=c), -1.0, 2.0, dt=dt, T=dt, eps=eps)
        out = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        ref = phase_ode(gaussian, -1.0, 2.0, dt, eps)
        expected = np.exp(1j * c * dt / eps) * ref
        assert np.abs(out - expected).max() <= 1e-13


class TestEvolve:
    def test_T_zero_single_snapshot(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.01, T=0.0)
        final, times, _, _ = evolve_with_diagnostics(gaussian, grid, cfg)
        assert len(times) == 1
        assert times[0] == 0.0
        assert np.array_equal(final, np.fft.fftn(gaussian))

    def test_lambda_zero_matches_free_propagator(self, grid, gaussian):
        sym = make_symbol("fourth_order")
        eps = 0.5
        cfg = SolveConfig(sym, 0.0, 1.0, dt=1e-3, T=0.3, eps=eps, snapshot_every=1000)
        final = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        ref = free_propagate(gaussian, grid, sym, 0.3 / eps)
        assert np.abs(final - ref).max() <= 1e-10

    def test_final_time_exact_for_non_multiple(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.0003, T=0.01, snapshot_every=7)
        _, times, _, _ = evolve_with_diagnostics(gaussian, grid, cfg)
        assert times[-1] == 0.01
        times = list(times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_l2_conservation(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), -1.0, 1.0, dt=1e-3, T=1.0, snapshot_every=250)
        _, _, l2_norms, _ = evolve_with_diagnostics(gaussian, grid, cfg)
        drift = abs(l2_norms[-1] - l2_norms[0]) / l2_norms[0]
        assert drift <= 1e-10

    def test_self_convergence_error_quarters_when_dt_halves(self, grid, gaussian):
        # second-order splitting: halving dt cuts the terminal error by ~4
        sym = make_symbol("laplacian")

        def terminal(dt):
            cfg = SolveConfig(sym, -1.0, 1.0, dt=dt, T=0.5, snapshot_every=10**6)
            return np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))


        ref = terminal(1e-4)
        errs = []
        for dt in (1e-3, 5e-4):
            out = terminal(dt)
            errs.append(sobolev_norm(out - ref, grid, 0.0))
        factor = errs[0] / errs[1]
        assert 3.2 <= factor <= 4.8

    def test_blow_up_aborts_at_first_step(self, grid):
        # |u|^4 = 1e400 overflows in the first kick
        big = gaussian_field(grid, 1e100)
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 2.0, dt=0.01, T=0.1)
        with pytest.raises(EvolutionError, match="non-finite values at step 1 of 10"):
            evolve(np.fft.fftn(big), cfg, grid)

    def test_aborts_on_non_finite_with_step_index(self, grid):
        huge = np.full(grid.shape, 1e200 + 0j)
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 2.0, dt=0.01, T=0.1)
        with pytest.raises(EvolutionError, match="step 1"):
            evolve(np.fft.fftn(huge), cfg, grid)

    def test_warns_on_fat_tails(self):
        # the initial-data check runs where the data are built, not in evolve
        grid = Grid(1, 64, 2.0)
        wide = gaussian_field(grid, width=4.0)
        wide_hat = np.fft.fftn(wide)
        with pytest.warns(UserWarning, match="tail mass"):
            _warn_initial_tails(wide, wide_hat, grid)

    def test_evolve_alone_does_not_check_tails(self, recwarn):
        grid = Grid(1, 64, 2.0)
        wide = gaussian_field(grid, width=4.0)
        for T in (0.0, 0.05):
            cfg = SolveConfig(make_symbol("laplacian"), 0.0, 1.0, dt=0.01, T=T)
            evolve(np.fft.fftn(wide), cfg, grid)
        assert not [w for w in recwarn if "tail mass" in str(w.message)]

    @pytest.mark.parametrize("T", [0.0, 0.05])
    def test_leaves_its_input_unchanged_and_returns_a_new_array(self, grid, gaussian, T):
        u0_hat = np.fft.fftn(gaussian)
        before = u0_hat.copy()
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.01, T=T)
        final = evolve(u0_hat, cfg, grid, lambda t, coeffs: None)
        assert np.array_equal(u0_hat, before)
        assert final is not u0_hat and not np.shares_memory(final, u0_hat)

    @pytest.mark.parametrize("solve", [
        lambda u0_hat, cfg, grid: evolve(u0_hat, cfg, grid),
        lambda u0_hat, cfg, grid: picard_solve(u0_hat, cfg, grid),
    ])
    def test_rejects_a_wrong_shape_or_a_nan_before_any_step(self, grid, gaussian, monkeypatch,
                                                            solve):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.01, T=0.05)
        bad = np.fft.fftn(gaussian)
        bad[5] = np.nan
        calls = count_ffts(monkeypatch)
        with pytest.raises(SpectralError, match="shape"):
            solve(np.ones((16, 16), dtype=complex), cfg, grid)
        with pytest.raises(SpectralError, match="non-finite"):
            solve(bad, cfg, grid)
        assert calls == []

    def test_step_count_above_the_cap_is_rejected(self):
        sym = make_symbol("laplacian")
        for dt in (1e-300, 1e-310, 1.0 / (MAX_STEPS + 1)):
            with pytest.raises(EvolutionError, match=r"T = 1\.0 at dt = .* Strang steps, "
                                                     r"above MAX_STEPS"):
                SolveConfig(sym, 1.0, 1.0, dt=dt, T=1.0)
        assert SolveConfig(sym, 1.0, 1.0, dt=1.0 / MAX_STEPS, T=1.0).n_steps == MAX_STEPS

    @pytest.mark.parametrize("dt,T,n_steps,last_dt", [
        (0.01, 0.0, 0, 0.01), (0.004, 0.048, 12, 0.004), (0.004, 0.093, 24, 0.093 - 23 * 0.004)])
    def test_step_count_follows_the_stepper_rule(self, dt, T, n_steps, last_dt):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=dt, T=T)
        assert cfg.n_steps == n_steps
        assert cfg.last_dt == last_dt

    def test_config_validation(self):
        sym = make_symbol("laplacian")
        with pytest.raises(EvolutionError):
            SolveConfig(sym, 1.0, 1.0, dt=-0.1, T=1.0)
        with pytest.raises(EvolutionError):
            SolveConfig(sym, 1.0, -1.0, dt=0.1, T=1.0)
        with pytest.raises(EvolutionError):
            SolveConfig(sym, 1.0, 1.0, dt=0.1, T=1.0, eps=1.5)

    @pytest.mark.parametrize("every", [2.5, 0, 1.0])
    def test_snapshot_every_must_be_an_integer_of_at_least_one(self, every):
        with pytest.raises(EvolutionError, match="snapshot_every must be an integer >= 1"):
            SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.1, T=1.0, snapshot_every=every)


class TestFourierResidentStepper:
    @pytest.mark.parametrize("snapshot_every", [1, 7])
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_four_fft_reference(self, d, sigma, snapshot_every):
        grid = Grid(d, 128 if d == 1 else 64, 6.0)
        u0 = 0.8 * np.exp(-sum(c * c for c in grid.x)) * np.exp(1j * grid.x[0])
        # 23 whole steps and a shortened last one
        cfg = SolveConfig(make_symbol("fourth_order"), -1.0, sigma, dt=0.004, T=0.093,
                          eps=0.7, snapshot_every=snapshot_every)
        seen = []
        final = evolve(np.fft.fftn(u0), cfg, grid,
                       lambda t, coeffs: seen.append((t, coeffs.copy())))
        ref = reference_strang(u0, grid, cfg)
        assert [t for t, _ in seen] == [t for t, _ in ref]
        assert seen[-1][0] == 0.093
        for (_, coeffs), (_, vals) in zip(seen, ref):
            assert rel_gap(coeffs, np.fft.fftn(vals)) <= 1e-12
        assert rel_gap(np.fft.ifftn(final), ref[-1][1]) <= 1e-12
        l2_norms = [_coeff_sobolev_norm(coeffs, grid, 0.0) for _, coeffs in seen]
        ref_l2 = [math.sqrt(float(np.sum(np.abs(vals) ** 2)) * grid.cell) for _, vals in ref]
        assert np.allclose(l2_norms, ref_l2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("snapshot_every", [1, 7])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bit_identical_to_the_three_array_step(self, d, sigma, snapshot_every):
        # the kick borrows the dead u_hat for its rotation and keeps |v|^(2*sigma)
        # in scratch; the arithmetic is the three-array loop's, to the bit
        grid = Grid(d, 128 if d == 1 else 64, 6.0)
        u0 = 0.8 * np.exp(-sum(c * c for c in grid.x)) * np.exp(1j * grid.x[0])
        # 23 whole steps and a shortened last one
        cfg = SolveConfig(make_symbol("fourth_order"), -1.0, sigma, dt=0.004, T=0.093,
                          eps=0.7, snapshot_every=snapshot_every)
        seen = []
        final = evolve(np.fft.fftn(u0), cfg, grid,
                       lambda t, coeffs: seen.append((t, coeffs.copy())))
        ref, ref_final = three_array_strang(u0, grid, cfg)
        assert [t for t, _ in seen] == [t for t, _ in ref]
        for (_, coeffs), (_, ref_coeffs) in zip(seen, ref):
            assert np.array_equal(coeffs, ref_coeffs)
        assert np.array_equal(final, ref_final)

    def test_reducer_sees_read_only_coefficients(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.01, T=0.05, snapshot_every=2)
        flags = []
        evolve(np.fft.fftn(gaussian), cfg, grid,
               lambda t, coeffs: flags.append(coeffs.flags.writeable))
        assert flags == [False] * 4

    @pytest.mark.parametrize("T,steps", [(0.0, 0), (0.048, 12), (0.093, 24)])
    def test_two_ffts_per_step_and_one_for_the_data(self, grid, gaussian, monkeypatch, T,
                                                    steps):
        # the data's one transform is the caller's, the snapshots cost none,
        # and the state is returned as coefficients
        calls = count_ffts(monkeypatch)
        cfg = SolveConfig(make_symbol("fourth_order"), -1.0, 2.0, dt=0.004, T=T)
        final = evolve(np.fft.fftn(gaussian), cfg, grid, lambda t, coeffs: None)
        assert len(calls) == 2 * steps + 1
        assert final.flags.writeable

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("T,steps", [(0.0, 0), (0.048, 12), (0.093, 24)])
    def test_evolve_makes_two_ffts_per_step_and_none_for_the_data(self, monkeypatch, d, T,
                                                                  steps):
        grid = Grid(d, 64, 6.0)
        u0_hat = np.fft.fftn(np.exp(-sum(c * c for c in grid.x)))
        calls = count_ffts(monkeypatch)
        cfg = SolveConfig(make_symbol("fourth_order"), -1.0, 2.0, dt=0.004, T=T)
        evolve(u0_hat, cfg, grid, lambda t, coeffs: None)
        assert calls == ["ifftn", "fftn"] * steps

    def test_no_reducer_means_no_work_per_snapshot(self, grid, gaussian, monkeypatch):
        # the stepper makes no squared-modulus pass, whatever the step and
        # snapshot count: the initial tail check is the caller's
        calls = []

        def counting(original):
            def counted(*args):
                calls.append(1)
                return original(*args)
            return counted

        for module in (spectral, evolution):
            if hasattr(module, "_coeff_mass"):
                monkeypatch.setattr(module, "_coeff_mass", counting(module._coeff_mass))
        for T in (0.0, 0.2):
            calls.clear()
            evolve(np.fft.fftn(gaussian), SolveConfig(make_symbol("laplacian"), -1.0, 1.0,
                                                      dt=0.01, T=T), grid)
            assert len(calls) == 0, T

    def test_diagnostics_read_from_coefficients(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), -1.0, 1.0, dt=0.01, T=0.05, snapshot_every=5)
        seen = []
        evolve(np.fft.fftn(gaussian), cfg, grid,
               lambda t, coeffs: seen.append(np.fft.ifftn(coeffs)))
        _, _, l2_norms, tail_masses = evolve_with_diagnostics(gaussian, grid, cfg)
        tails = [spectral_tail_mass(f, grid) for f in seen]
        l2s = [sobolev_norm(f, grid, 0.0) for f in seen]
        assert np.allclose(tail_masses, tails, rtol=1e-10, atol=1e-30)
        assert np.allclose(l2_norms, l2s, rtol=1e-13, atol=0.0)


class TestSigmaAdmissibility:
    @pytest.mark.parametrize(
        "sigma,d,expected",
        [
            (1.0, 1, True),
            (2.0, 2, True),
            (0.75, 1, True),   # r = 1 satisfies 2*sigma >= r > 1/2
            (0.3, 1, False),   # 2*sigma = 0.6 < 1
            (0.75, 2, False),  # needs r = 2 > 1 but 2*sigma = 1.5 < 2
            (1.5, 2, True),    # r = 2 or 3
        ],
    )
    def test_flag(self, sigma, d, expected):
        assert sigma_is_admissible(sigma, d) is expected

    def test_recorded_in_the_simulate_summary(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[grid]\nd = 1\nn = 256\nL = 8\n[equation]\nsymbol = laplacian\n"
                       "lambda = 1\nsigma = 0.3\n[simulate]\ndt = 0.01\nT = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "fitted.sigma_admissible = 0\n" in (tmp_path / "summary.txt").read_text()


class TestPicard:
    def test_lambda_zero_converges_immediately(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 0.0, 1.0, dt=1e-3, T=0.2)
        out, report = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-10, n_time=64,
                                   max_time_intervals=128)
        assert len(report.distances) == 1 and report.distances[0] <= 1e-15
        ref = free_propagate(gaussian, grid, make_symbol("laplacian"), 0.2)
        assert np.abs(np.fft.ifftn(out) - ref).max() <= 1e-12

    def test_cross_agreement_with_split_step(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=1e-3, T=0.1, snapshot_every=10**6)
        strang = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        fixed, report = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-8)
        gap = sobolev_norm(np.fft.ifftn(fixed) - strang, grid, 0.0)
        assert gap <= 1e-6
        assert report.converged

    @pytest.mark.parametrize("shape", [(), (64,), (16, 16)])
    @pytest.mark.parametrize("intervals", [64, 1024, 2048])
    def test_cumulative_trapezoid_is_scipys(self, intervals, shape):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(intervals)
        times = np.linspace(0.0, 0.37, intervals + 1)
        f = rng.standard_normal(times.shape + shape) + 1j * rng.standard_normal(times.shape + shape)
        ref = cumulative_trapezoid(f, x=times, axis=0, initial=0.0)
        assert np.array_equal(_cumulative_trapezoid(f, times), ref)

    def test_runs_without_scipy(self, grid, gaussian, monkeypatch):
        # a fresh interpreter in which importing scipy fails; its answer is the
        # one picard_solve gives with scipy's cumulative_trapezoid, bit for bit
        from scipy.integrate import cumulative_trapezoid

        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from modnls import Grid, SolveConfig, make_symbol, picard_solve\n"
            "grid = Grid(1, 256, 8.0)\n"
            "u0 = 0.25 * np.exp(-grid.x[0] ** 2)  # the gaussian fixture\n"
            "cfg = SolveConfig(make_symbol('laplacian'), 1.0, 1.0, dt=1e-3, T=0.05)\n"
            "out, _ = picard_solve(np.fft.fftn(u0), cfg, grid, tol=1e-8, max_time_intervals=256)\n"
            "print(out.tobytes().hex())\n"
        )
        src = str(Path(modnls.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        monkeypatch.setattr(evolution, "_cumulative_trapezoid", lambda f, times: (
            cumulative_trapezoid(f, x=times, axis=0, initial=0.0)))
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=1e-3, T=0.05)
        ref, _ = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-8, max_time_intervals=256)
        assert done.stdout.strip() == ref.tobytes().hex()

    def test_contraction_ratio_grows_with_data_norm(self, grid):
        sym = make_symbol("laplacian")
        cfg = SolveConfig(sym, 1.0, 1.0, dt=1e-3, T=0.1)

        def first_ratio(amplitude):
            f = gaussian_field(grid, amplitude)
            _, report = picard_solve(np.fft.fftn(f), cfg, grid, tol=1e-12, n_time=64,
                                     max_time_intervals=64)
            return report.ratios[0]

        assert first_ratio(0.5) > first_ratio(0.25)

    def test_divergence_reports_ratio_history(self, grid):
        big = gaussian_field(grid, 4.0)
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.1, T=3.0)
        with pytest.raises(PicardDivergenceError) as err:
            picard_solve(np.fft.fftn(big), cfg, grid, tol=1e-10, max_iter=12, n_time=64,
                         max_time_intervals=64)
        assert len(err.value.distances) == 12
        assert len(err.value.ratios) == 11

    def test_quadrature_met_once_the_mesh_settles(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=1e-3, T=0.1)
        _, report = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-8)
        assert report.mesh_refinements[-1][1] < 1e-9
        assert report.converged and report.quadrature_met

    def test_quadrature_not_met_while_the_mesh_still_moves(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=1e-3, T=0.1)
        with pytest.warns(UserWarning, match="still moving"):
            _, report = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-12, n_time=16,
                                     max_time_intervals=32)
        assert report.mesh_refinements[-1][1] >= 1e-13
        assert report.converged and not report.quadrature_met

    def test_quadrature_not_met_without_a_refinement(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=1e-3, T=0.1)
        _, report = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-8, n_time=64,
                                 max_time_intervals=64)
        assert report.mesh_refinements == ()
        assert report.converged and not report.quadrature_met

    def test_T_zero_returns_data(self, grid, gaussian):
        cfg = SolveConfig(make_symbol("laplacian"), 1.0, 1.0, dt=0.01, T=0.0)
        u0_hat = np.fft.fftn(gaussian)
        out, report = picard_solve(u0_hat, cfg, grid)
        assert np.array_equal(out, u0_hat) and out is not u0_hat and report.converged
