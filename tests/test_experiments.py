from __future__ import annotations

import math
import re
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modnls import (
    BOUNDED,
    ExperimentError,
    Grid,
    ScalingError,
    SolveConfig,
    check_inflate_args,
    check_ode_approx_args,
    compute_scaling,
    evolve,
    make_symbol,
    ode_phase_profile,
    run_norm_inflation,
    run_ode_approx,
    run_strichartz_probe,
    sobolev_norm,
    spacetime_norm_from_samples,
    spectral_tail_mass,
)
from modnls import experiments
from modnls.spectral import _coeff_tail_mass, _lq_norms, _plancherel_scale, _propagator
from modnls.symbols import SymbolError
from conftest import count_ffts, free_propagate


@pytest.fixture
def bounded_plan():
    return compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05, delta=0.1)


@pytest.fixture
def grid():
    return Grid(1, 256, 8.0)


class TestPhaseProfile:
    def test_initial_value_is_scaled_bump(self, grid):
        phi = ode_phase_profile(0.0, grid, kappa=0.9, lam=1.0, sigma=2.0, eps=0.1)
        a0 = np.exp(-grid.x[0] ** 2)
        assert np.abs(phi - 0.9 * a0).max() <= 1e-15

    def test_modulus_independent_of_tau(self, grid):
        base = np.abs(ode_phase_profile(0.0, grid, 0.8, 1.0, 1.5, 0.2))
        for tau in (0.05, 0.11, 0.47):
            mod = np.abs(ode_phase_profile(tau, grid, 0.8, 1.0, 1.5, 0.2))
            assert np.abs(mod - base).max() <= 1e-14

    def test_hr_growth_envelope(self, grid):
        # |phi(tau)|_{H^r} <= C*(kappa^(1+2*sigma*r)*(tau/eps)^r + kappa),
        # with C fitted once at the coarsest eps and reused for finer ones
        sigma, lam, r = 2.0, 1.0, 1
        plan = compute_scaling(1, sigma, 0.25, BOUNDED, theta=0.05, delta=0.1)

        def envelope_ratio(eps):
            h = plan.h_for_eps(eps)
            kappa = plan.kappa(h)
            worst = 0.0
            for tau in np.linspace(0.0, plan.tau_star_of_eps(eps), 12):
                phi = ode_phase_profile(tau, grid, kappa, lam, sigma, eps)
                bound = kappa ** (1 + 2 * sigma * r) * (tau / eps) ** r + kappa
                worst = max(worst, sobolev_norm(phi, grid, r) / bound)
            return worst

        C = envelope_ratio(0.1)
        for eps in (0.05, 0.02, 0.01):
            assert envelope_ratio(eps) <= 1.05 * C


class TestRunOdeApprox:
    def test_zero_symbol_and_zero_lambda_gives_zero_error(self, bounded_plan, grid):
        rep = run_ode_approx(bounded_plan, make_symbol("constant", c=0.0), grid,
                             [0.1, 0.05], r=1, lam=0.0)
        assert all(row["E"] <= 1e-12 for row in rep.rows)

    def test_disabled_dispersion_error_below_quadrature_floor(self, bounded_plan, grid):
        # with the multiplier identically zero the split flow is the phase ODE
        rep = run_ode_approx(bounded_plan, make_symbol("constant", c=0.0), grid,
                             [0.1, 0.05], r=1, lam=1.0)
        assert all(row["E"] <= 1e-10 for row in rep.rows)

    def test_constant_symbol_matches_analytic_gap(self, bounded_plan, grid):
        # for P = c the two flows commute: psi = phi * exp(i*c*tau/eps)
        c, lam, eps = 0.35, 1.0, 0.1
        sym = make_symbol("constant", c=c)
        rep = run_ode_approx(bounded_plan, sym, grid, [eps], r=1, lam=lam)
        h = bounded_plan.h_for_eps(eps)
        kappa = bounded_plan.kappa(h)
        amp = bounded_plan.window_amplitude(h)
        tau_star = bounded_plan.tau_star_of_eps(eps)
        n_steps = rep.rows[0]["n_steps"]
        analytic = 0.0
        for k in range(n_steps + 1):
            tau = tau_star * k / n_steps if k < n_steps else tau_star
            phi = ode_phase_profile(tau, grid, kappa, lam, bounded_plan.sigma, eps)
            gap = phi * (np.exp(1j * amp * c * tau / eps) - 1.0)
            analytic = max(analytic, sobolev_norm(gap, grid, 1))
        assert rep.rows[0]["E"] == pytest.approx(analytic, abs=1e-8)

    def test_acceptance_shape_bounded(self, bounded_plan, grid):
        rep = run_ode_approx(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                             [1e-1, 3e-2, 1e-2], r=1)
        errors = [row["E"] for row in rep.rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert rep.verdict and rep.fitted["error_ratio"] < 0.5

    def test_rejects_bad_regularity(self, bounded_plan, grid):
        sym = make_symbol("arctan_step", h=1.0)
        with pytest.raises(ExperimentError, match="integer above d/2"):
            run_ode_approx(bounded_plan, sym, grid, [0.1], r=0)
        plan_frac = compute_scaling(1, 1.4, 0.25, BOUNDED)
        with pytest.raises(ExperimentError, match="2\\*sigma"):
            run_ode_approx(plan_frac, sym, grid, [0.1], r=3)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_regularity_is_an_experiment_error(self, bounded_plan, grid, r):
        with pytest.raises(ExperimentError, match="integer above d/2"):
            check_ode_approx_args(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                                  [0.1], r)

    def test_rejects_non_decreasing_eps(self, bounded_plan, grid):
        with pytest.raises(ExperimentError, match="decreasing"):
            run_ode_approx(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                           [0.01, 0.1], r=1)

    def test_every_eps_checked_before_any_evolution(self, bounded_plan, grid, monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran before the last eps was checked")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        with pytest.raises(ScalingError, match="eps must lie in"):
            run_ode_approx(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                           [0.1, 0.05, -1.0], r=1)

    def test_empty_eps_list_rejected_before_any_evolution(self, bounded_plan, grid, monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran on an empty sweep")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        with pytest.raises(ExperimentError, match="eps_list must hold at least one value"):
            run_ode_approx(bounded_plan, make_symbol("arctan_step", h=1.0), grid, [], r=1)

    def test_gap_streamed_from_every_step(self, bounded_plan, grid):
        # E is the max over every step's H^r gap, recomputed here from a stored run
        eps, lam, r = 0.1, 1.0, 1
        sym = make_symbol("arctan_step", h=1.0)
        rep = run_ode_approx(bounded_plan, sym, grid, [eps], r=r, lam=lam)
        row = rep.rows[0]
        stored = _stored_run_gaps(bounded_plan, sym, grid, row, lam, r)
        assert len(stored) == row["n_steps"] + 1
        assert row["E"] == pytest.approx(max(stored), rel=1e-12)

    def test_rotated_profile_over_a_long_window(self, bounded_plan, grid, monkeypatch):
        # phi advanced by thousands of stored rotations: E, and the gap at
        # every step of every run (pilot and accepted), against a stored run
        # and the closed-form profile
        eps, lam, r = 0.1, 1.0, 1
        sym = make_symbol("arctan_step", h=1.0)
        streamed, runs = [], []
        coeff_norm = experiments._coeff_sobolev_norm
        stepper = experiments.evolve

        def recording_norm(*args):
            streamed.append(coeff_norm(*args))
            return streamed[-1]

        def recording_evolve(u0_hat, cfg, grid, on_snapshot=None):
            runs.append((len(streamed), round(cfg.T / cfg.dt)))
            return stepper(u0_hat, cfg, grid, on_snapshot)

        monkeypatch.setattr(experiments, "_coeff_sobolev_norm", recording_norm)
        monkeypatch.setattr(experiments, "evolve", recording_evolve)
        monkeypatch.setattr(experiments, "ROTATION_BUDGET", 2.5e-4)
        rep = run_ode_approx(bounded_plan, sym, grid, [eps], r=r, lam=lam)
        row = rep.rows[0]
        assert row["n_steps"] >= 2000
        assert len(runs) >= 2 and runs[-1][1] == row["n_steps"]
        ends = [start for start, _ in runs[1:]] + [len(streamed)]
        for (start, n_steps), end in zip(runs, ends):
            stored = _stored_run_gaps(bounded_plan, sym, grid, {**row, "n_steps": n_steps}, lam, r)
            assert end - start == n_steps + 1
            assert np.abs(np.array(streamed[start:end]) - stored).max() <= 1e-10 * max(stored)
        # the row reports the accepted (last) run
        assert row["E"] == pytest.approx(max(stored), rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_streamed_gaps_equal_the_allocating_formula(self, d, monkeypatch):
        # every gap of every run, to the bit, against a fresh np.fft.fftn(phi)
        # and a fresh (1 + |xi|^2)^r weight at each snapshot
        r = 2
        plan = compute_scaling(d, 2.0, 0.25, BOUNDED, theta=0.05, delta=0.1)
        grid = Grid(d, 128 if d == 1 else 64, 8.0)
        streamed, runs = [], []
        coeff_norm = experiments._coeff_sobolev_norm
        stepper = experiments.evolve

        def recording_norm(*args):
            streamed.append(coeff_norm(*args))
            return streamed[-1]

        def copying_evolve(u0_hat, cfg, grid, on_snapshot=None):
            # the norms streamed[start:end] are the run's; the row's scale is not
            snaps = []
            start = len(streamed)

            def reducer(t, coeffs):
                snaps.append((t, coeffs.copy()))
                on_snapshot(t, coeffs)
            final = stepper(u0_hat, cfg, grid, reducer)
            runs.append((cfg, snaps, start, len(streamed)))
            return final

        monkeypatch.setattr(experiments, "_coeff_sobolev_norm", recording_norm)
        monkeypatch.setattr(experiments, "evolve", copying_evolve)
        rep = run_ode_approx(plan, make_symbol("arctan_step", h=1.0), grid, [0.1, 0.05], r=r)
        kappas = {row["eps"]: row["kappa"] for row in rep.rows}
        a0 = np.exp(-sum(c * c for c in grid.x))
        a0_2s = a0 ** (2.0 * plan.sigma)
        scale2 = _plancherel_scale(grid) ** 2
        assert len(runs) > len(rep.rows)  # pilot and doubled runs
        last_run_gaps = {}
        for cfg, snaps, start, end in runs:
            kappa = kappas[cfg.eps]

            def rotation(tau):
                return np.exp(1j * (-(cfg.lam * tau / cfg.eps) * kappa ** (2.0 * cfg.sigma) * a0_2s))

            w = rotation(cfg.dt)
            phi = kappa * a0 + 0j
            gaps = []
            for k, (t, coeffs) in enumerate(snaps):
                if t == cfg.T:
                    phi = kappa * a0 * rotation(t)
                elif k:
                    phi *= w
                diff = coeffs - np.fft.fftn(phi)
                c2 = diff.real**2
                c2 += diff.imag**2
                c2 *= scale2
                gaps.append(float(np.sqrt(np.sum((1.0 + grid.xi_sq) ** r * c2))))
            assert len(gaps) == round(cfg.T / cfg.dt) + 1
            assert streamed[start:end] == gaps
            last_run_gaps[cfg.eps] = gaps
        # each row reports its last run
        assert [row["E"] for row in rep.rows] == [max(last_run_gaps[row["eps"]])
                                                  for row in rep.rows]


def _stored_run_gaps(plan, sym, grid, row, lam, r):
    """The H^r gap to ode_phase_profile at every step of a stored rerun of ``row``."""
    eps, n_steps, tau_star = row["eps"], row["n_steps"], row["tau_star"]
    cfg = SolveConfig(sym.rescaled(plan.window_amplitude(row["h"]), row["h"]), lam, plan.sigma,
                      tau_star / n_steps, tau_star, eps)
    psi0 = ode_phase_profile(0.0, grid, row["kappa"], lam, plan.sigma, eps)
    stored = []
    evolve(np.fft.fftn(psi0), cfg, grid, lambda t, c: stored.append((t, np.fft.ifftn(c))))
    return [
        sobolev_norm(vals - ode_phase_profile(t, grid, row["kappa"], lam, plan.sigma, eps),
                     grid, r)
        for t, vals in stored
    ]


PROPERTY_GRID = Grid(1, 256, 8.0)


@given(sigma=st.floats(0.5, 2.0), lam=st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),
       eps=st.floats(1e-3, 0.5), kappa=st.floats(0.2, 2.0),
       rotation=st.floats(1e-3, 0.2), k=st.integers(0, 500))
def test_rotations_track_the_closed_form_profile(sigma, lam, eps, kappa, rotation, k):
    # k in-place rotations of phi(0), each turning the bump's peak by
    # ``rotation`` rad, against the closed form at k*dt
    dt = rotation * eps / (abs(lam) * kappa ** (2.0 * sigma))
    a0 = experiments._envelope(PROPERTY_GRID)
    profiles = experiments._phase_profiles(a0, a0 ** (2.0 * sigma), kappa, lam, sigma, eps, dt)
    for _ in range(k + 1):
        phi = next(profiles)
    exact = ode_phase_profile(k * dt, PROPERTY_GRID, kappa, lam, sigma, eps)
    tol = k * 1e-15 * kappa
    assert np.abs(phi - exact).max() <= tol
    assert np.abs(np.abs(phi) - kappa * np.exp(-PROPERTY_GRID.x[0] ** 2)).max() <= tol


class TestOdeApproxCost:
    """A snapshot of ode-approx costs one rotation multiply and one FFT of phi."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """One Counter per evolve call of the driver: its steps, and the
        snapshots and the np.exp and np.fft.fftn calls made inside its reducer."""
        runs = []
        inside = [False]

        def count_inside(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                if inside[0]:
                    runs[-1][name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count_inside(np, "exp")
        count_inside(np.fft, "fftn")
        stepper = experiments.evolve

        def counting_evolve(u0_hat, cfg, grid, on_snapshot=None):
            runs.append(Counter(steps=round(cfg.T / cfg.dt)))

            def reducer(t, coeffs):
                runs[-1]["snapshots"] += 1
                inside[0] = True
                try:
                    on_snapshot(t, coeffs)
                finally:
                    inside[0] = False
            return stepper(u0_hat, cfg, grid, reducer if on_snapshot else None)

        monkeypatch.setattr(experiments, "evolve", counting_evolve)
        return runs

    def test_exponentials_do_not_grow_with_the_step_count(self, bounded_plan, grid, runs,
                                                          monkeypatch):
        rotations = []
        rotation = experiments._phase_rotation

        def counting_rotation(*args):
            rotations.append(args[0])
            return rotation(*args)

        monkeypatch.setattr(experiments, "_phase_rotation", counting_rotation)
        sym = make_symbol("arctan_step", h=1.0)
        eps_list = [0.1, 0.05]
        exps = []
        for budget in (0.02, 0.001):
            runs.clear()
            rotations.clear()
            monkeypatch.setattr(experiments, "ROTATION_BUDGET", budget)
            rep = run_ode_approx(bounded_plan, sym, grid, eps_list, r=1)
            assert all(run["snapshots"] == run["steps"] + 1 for run in runs)
            assert {row["n_steps"] for row in rep.rows} <= {run["steps"] for run in runs}
            assert len(rotations) <= 3 * len(runs)
            exps.extend(run["exp"] for run in runs)
        assert rep.rows[0]["n_steps"] >= 800
        # every run of both budgets takes as many, whatever its step count
        assert len(set(exps)) == 1

    def test_one_fft_of_phi_per_snapshot(self, bounded_plan, grid, runs):
        rep = run_ode_approx(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                             [0.1, 0.05], r=1)
        assert {row["n_steps"] for row in rep.rows} <= {run["steps"] for run in runs}
        for run in runs:
            assert run["snapshots"] == run["steps"] + 1
            assert run["fftn"] == run["snapshots"]

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_fft_of_phi_in_a_run_writes_one_buffer(self, d, monkeypatch):
        # a run's reducer transforms phi into one complex buffer it owns
        outs = []
        inside = [False]
        fftn = np.fft.fftn

        def recording_fftn(*args, **kwargs):
            if inside[0]:
                outs[-1].append(kwargs.get("out"))
            return fftn(*args, **kwargs)

        stepper = experiments.evolve

        def marking_evolve(u0_hat, cfg, grid, on_snapshot=None):
            outs.append([])

            def reducer(t, coeffs):
                inside[0] = True
                try:
                    on_snapshot(t, coeffs)
                finally:
                    inside[0] = False
            return stepper(u0_hat, cfg, grid, reducer)

        monkeypatch.setattr(np.fft, "fftn", recording_fftn)
        monkeypatch.setattr(experiments, "evolve", marking_evolve)
        plan = compute_scaling(d, 2.0, 0.25, BOUNDED, theta=0.05, delta=0.1)
        run_ode_approx(plan, make_symbol("arctan_step", h=1.0),
                       Grid(d, 128 if d == 1 else 64, 8.0), [0.1, 0.05], r=2)
        assert len(outs) >= 4
        for run in outs:
            assert len(run) >= 9
            assert isinstance(run[0], np.ndarray)
            assert all(out is run[0] for out in run)


class TestInflateCost:
    def test_one_fft_per_row_beyond_the_steps(self, bounded_plan, grid, monkeypatch):
        steps = []
        stepper = experiments.evolve

        def recording_evolve(u0_hat, cfg, grid, on_snapshot=None):
            steps.append(round(cfg.T / cfg.dt))
            return stepper(u0_hat, cfg, grid, on_snapshot)

        monkeypatch.setattr(experiments, "evolve", recording_evolve)
        calls = count_ffts(monkeypatch)
        run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                           [math.exp(-2)])
        assert len(steps) >= 2
        assert len(calls) == sum(2 * n for n in steps) + 1


class TestTailMassColumn:
    """A row's tail_mass is the spectral tail mass of its accepted run's final state."""

    @pytest.fixture
    def finals(self, monkeypatch):
        """(config, returned state) of every evolve call inside the drivers, in call order."""
        finals = []
        stepper = experiments.evolve

        def recording_evolve(u0_hat, cfg, grid, on_snapshot=None):
            finals.append((cfg, stepper(u0_hat, cfg, grid, on_snapshot)))
            return finals[-1][1]

        monkeypatch.setattr(experiments, "evolve", recording_evolve)
        return finals

    @pytest.mark.parametrize("sweep", ["inflate", "ode-approx"])
    def test_equals_spectral_tail_mass_of_the_final_state(self, bounded_plan, finals, sweep):
        # the row reads the returned coefficients themselves; at n = 128 the tail
        # masses are about 1e-6, so the oracle's round trip through ifftn and fftn
        # moves them by rounding only
        grid = Grid(1, 128, 8.0)
        sym = make_symbol("arctan_step", h=1.0)
        if sweep == "inflate":
            rep = run_norm_inflation(bounded_plan, sym, grid, [math.exp(-2), math.exp(-3)])
        else:
            rep = run_ode_approx(bounded_plan, sym, grid, [0.1, 0.05], r=1)
        assert len(rep.rows) == 2
        for row in rep.rows:
            # the row's runs share its window; the last of them is the accepted one
            cfg, final = [run for run in finals if run[0].T == row["tau_star"]][-1]
            assert round(cfg.T / cfg.dt) == row["n_steps"]
            assert row["tail_mass"] > 1e-7
            assert row["tail_mass"] == _coeff_tail_mass(final, grid)
            oracle = spectral_tail_mass(np.fft.ifftn(final), grid)
            assert row["tail_mass"] == pytest.approx(oracle, rel=1e-10, abs=0.0)


class TestRowData:
    """A window row's data are transformed and tail-checked once, and start every run of the row."""

    @pytest.mark.parametrize("sweep", ["inflate", "ode-approx"])
    def test_tail_check_runs_once_per_row(self, bounded_plan, grid, monkeypatch, sweep):
        checked, started = [], []
        check = experiments._warn_initial_tails
        stepper = experiments.evolve

        def recording_check(values, coeffs, grid):
            checked.append(coeffs)
            check(values, coeffs, grid)

        def recording_evolve(u0_hat, cfg, grid, on_snapshot=None):
            started.append(u0_hat)
            return stepper(u0_hat, cfg, grid, on_snapshot)

        monkeypatch.setattr(experiments, "_warn_initial_tails", recording_check)
        monkeypatch.setattr(experiments, "evolve", recording_evolve)
        sym = make_symbol("arctan_step", h=1.0)
        if sweep == "inflate":
            rep = run_norm_inflation(bounded_plan, sym, grid, [math.exp(-2), math.exp(-3)])
        else:
            rep = run_ode_approx(bounded_plan, sym, grid, [0.1, 0.05], r=1)
        assert len(checked) == len(rep.rows) == 2
        assert len(started) > len(rep.rows)  # pilot and doubled runs
        assert all(any(u0_hat is coeffs for coeffs in checked) for u0_hat in started)
        for coeffs, row in zip(checked, rep.rows):  # no run wrote them
            assert np.array_equal(coeffs, np.fft.fftn(row["kappa"] * np.exp(-grid.x[0] ** 2)))


class TestCertifiedSteps:
    """Each window row runs at n0, 2*n0, ... steps until step doubling certifies it."""

    def test_inflate_estimate_tracks_the_true_time_error(self):
        # a window of inflate-long's shape at n = 1024; the true error is taken
        # against a run at 16x the accepted steps
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05, delta=8.0)
        grid = Grid(1, 1024, 8.0)
        sym = make_symbol("arctan_step", h=1.0)
        h = math.exp(-3)
        row = run_norm_inflation(plan, sym, grid, [h]).rows[0]
        eps, kappa = plan.eps(h), plan.kappa(h)
        n_fine = 16 * row["n_steps"]
        psi0 = kappa * np.exp(-grid.x[0] ** 2)
        cfg = SolveConfig(sym.rescaled(plan.window_amplitude(h), h), 1.0, plan.sigma,
                          row["tau_star"] / n_fine, row["tau_star"], eps)
        end = np.fft.ifftn(evolve(np.fft.fftn(psi0), cfg, grid))

        def hs_norm(f):
            return math.hypot(h**plan.s * sobolev_norm(f, grid, 0.0),
                              sobolev_norm(f, grid, plan.s, homogeneous=True))

        fine = hs_norm(end) / hs_norm(psi0)
        true_err = abs(row["ratio"] - fine) / fine
        assert 0.0 < row["time_err"] <= experiments.TIME_RTOL
        assert true_err / 2 <= row["time_err"] <= 2 * true_err

    def test_ode_approx_estimate_tracks_the_true_time_error(self, bounded_plan, grid):
        sym = make_symbol("arctan_step", h=1.0)
        row = run_ode_approx(bounded_plan, sym, grid, [0.1], r=1).rows[0]
        fine = max(_stored_run_gaps(bounded_plan, sym, grid,
                                    {**row, "n_steps": 16 * row["n_steps"]}, 1.0, 1))
        true_err = abs(row["E"] - fine) / fine
        assert 0.0 < row["time_err"] <= experiments.TIME_RTOL
        assert true_err / 2 <= row["time_err"] <= 2 * true_err

    def test_accepted_run_is_a_doubling_of_the_pilot(self, bounded_plan, grid, monkeypatch):
        steps = []
        stepper = experiments.evolve

        def recording_evolve(u0_hat, cfg, grid, on_snapshot=None):
            steps.append(round(cfg.T / cfg.dt))
            assert cfg.dt == cfg.T / steps[-1]
            return stepper(u0_hat, cfg, grid, on_snapshot)

        monkeypatch.setattr(experiments, "evolve", recording_evolve)
        rep = run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                                 [math.exp(-2)])
        assert len(steps) >= 2
        assert steps == [steps[0] * 2**k for k in range(len(steps))]
        assert rep.rows[0]["n_steps"] == steps[-1]
        assert rep.fitted["max_time_err"] == rep.rows[0]["time_err"]

    def test_rounding_floor_certifies_a_vanishing_error(self, bounded_plan, grid):
        # E of the lambda = 0, P = 0 control is rounding (about 1e-14 here): no
        # relative target holds, and the floor certifies it at the first doubling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_ode_approx(bounded_plan, make_symbol("constant", c=0.0), grid,
                                 [0.1, 0.05], r=1, lam=0.0)
        for row in rep.rows:
            assert row["E"] <= 1e-12
            assert row["n_steps"] == 2 * 8  # the pilot's minimum, doubled once
            assert row["time_err"] <= experiments.TIME_RTOL

    def test_unreachable_target_warns_with_the_estimate(self, bounded_plan, grid, monkeypatch):
        monkeypatch.setattr(experiments, "TIME_RTOL", 1e-15)
        monkeypatch.setattr(experiments, "ROUNDING_FLOOR", 0.0)
        monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 2)
        with pytest.warns(UserWarning, match="not certified in time") as caught:
            # the plan's exponent warning is tested in TestInflateExponentWarning
            warnings.filterwarnings("ignore", message="the phase-ODE exponent")
            rep = run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                                     [math.exp(-2)])
        row = rep.rows[0]
        assert row["time_err"] > 1e-15
        assert len(caught) == 1
        assert f"estimate {row['time_err']:.3e}" in str(caught[0].message)
        assert f"at {row['n_steps']} steps" in str(caught[0].message)


class TestInflateExponentWarning:
    """The sweep warns, before any evolution, when s*(delta - 2*sigma*theta) <= 0."""

    def test_the_readme_example_warns_with_its_exponent(self, bounded_plan, grid):
        # s = 0.25, sigma = 2, theta = 0.05, delta = 0.1: 0.25*(0.1 - 0.2) = -0.025
        with pytest.warns(UserWarning, match=r"s\*\(delta - 2\*sigma\*theta\) = -0\.025 is <= 0, "
                                             "so the inflation ratio cannot grow"):
            check_inflate_args(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                               [math.exp(-2), math.exp(-3), math.exp(-4)])

    def test_a_growing_exponent_is_silent(self, grid):
        # inflate-long's window: delta = 8 gives 0.25*(8 - 0.2) = 1.95
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05, delta=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_inflate_args(plan, make_symbol("arctan_step", h=1.0), grid,
                               [math.exp(-2), math.exp(-3)])

    def test_the_driver_warns_before_any_evolution(self, bounded_plan, grid, monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        with pytest.warns(UserWarning, match="the phase-ODE exponent"):
            with pytest.raises(AssertionError, match="evolve ran"):
                run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0), grid,
                                   [math.exp(-2)])


class TestRunNormInflation:
    def test_lambda_zero_control_fails_with_unit_ratios(self, bounded_plan, grid):
        hs = [math.exp(-2), math.exp(-3)]
        rep = run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0),
                                 grid, hs, lam=0.0)
        for row in rep.rows:
            assert row["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert not rep.verdict

    def test_initial_norms_decrease(self, bounded_plan, grid):
        hs = [math.exp(-2), math.exp(-3), math.exp(-4)]
        rep = run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0),
                                 grid, hs, lam=1.0)
        u0 = [row["u0_hs"] for row in rep.rows]
        assert all(b < a for a, b in zip(u0, u0[1:]))
        assert rep.fitted["initial_norms_decreasing"] == 1.0

    def test_norm_reconstruction_matches_scaling_identity(self, bounded_plan, grid):
        # |u0_h|_{Hdot^s'} = h^(s-s') |psi0|_{Hdot^s'} is exact at tau = 0
        h = math.exp(-2)
        rep = run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0),
                                 grid, [h, math.exp(-3)], lam=1.0)
        kappa = bounded_plan.kappa(h)
        a0 = kappa * np.exp(-grid.x[0] ** 2)
        expected = math.hypot(
            h**bounded_plan.s * sobolev_norm(a0, grid, 0.0),
            sobolev_norm(a0, grid, bounded_plan.s, homogeneous=True),
        )
        assert rep.rows[0]["u0_hs"] == pytest.approx(expected, rel=1e-12)

    def test_long_window_demonstrates_inflation(self):
        # same family, much longer log window: the ratio growth clears 3x
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05, delta=8.0)
        grid = Grid(1, 4096, 8.0)
        hs = [math.exp(-2), math.exp(-3), math.exp(-4)]
        rep = run_norm_inflation(plan, make_symbol("arctan_step", h=1.0), grid, hs)
        assert rep.fitted["ratio_growth"] >= 3.0
        assert rep.verdict

    def test_empty_h_list_rejected_before_any_evolution(self, bounded_plan, grid, monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran on an empty sweep")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        with pytest.raises(ExperimentError, match="h_list must hold at least one value"):
            run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0), grid, [])

    def test_rejects_h_above_cap(self, bounded_plan, grid):
        with pytest.raises(Exception, match="e\\^-1"):
            run_norm_inflation(bounded_plan, make_symbol("arctan_step", h=1.0),
                               grid, [0.5, 0.1])

    def test_ode_approx_rejects_a_grid_of_another_dimension(self, monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran on a grid of the wrong dimension")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED)
        with pytest.raises(ExperimentError,
                           match="grid dimension 2 does not match plan dimension 1"):
            run_ode_approx(plan, make_symbol("arctan_step", h=1.0), Grid(2, 32, 8.0),
                           [0.1, 0.03], r=1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected_before_any_evolution(self, bounded_plan, grid, lam,
                                                             monkeypatch):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran with a non-finite lambda")

        monkeypatch.setattr(experiments, "evolve", no_evolve)
        sym = make_symbol("arctan_step", h=1.0)
        with pytest.raises(ExperimentError, match="lambda must be finite"):
            run_norm_inflation(bounded_plan, sym, grid, [math.exp(-2)], lam=lam)
        with pytest.raises(ExperimentError, match="lambda must be finite"):
            run_ode_approx(bounded_plan, sym, grid, [0.1], r=1, lam=lam)


class TestStrichartzProbe:
    def test_admissibility_checks(self):
        experiments._check_admissible_pair(8.0, 4.0, 1)
        experiments._check_admissible_pair(4.0, np.inf, 1)
        experiments._check_admissible_pair(4.0, 4.0, 2)
        with pytest.raises(ExperimentError, match="admissible"):
            experiments._check_admissible_pair(8.0, 5.0, 1)
        with pytest.raises(ExperimentError, match="p, q >= 2"):
            experiments._check_admissible_pair(1.5, 4.0, 1)
        with pytest.raises(ExperimentError, match="excluded"):
            experiments._check_admissible_pair(2.0, np.inf, 1)
        with pytest.raises(ExperimentError, match="time exponent p must be finite"):
            experiments._check_admissible_pair(np.inf, 2.0, 1)

    def test_probe_data_hk_norm_scales_like_Nk(self):
        norms = {}
        for N in (8.0, 16.0):
            grid = Grid(1, 2048, 4.0)
            f = experiments._probe_data(grid, N)
            norms[N] = sobolev_norm(f, grid, 0.5)
        measured = math.log(norms[16.0] / norms[8.0]) / math.log(2.0)
        assert measured == pytest.approx(0.5, abs=0.05)

    def test_zero_symbol_slope_is_pure_scaling(self):
        rep = run_strichartz_probe(
            make_symbol("constant", c=0.0), 8.0, 4.0, [0.25], [8, 16, 32],
            include_contrast=False, time_samples=33,
        )
        assert rep.fitted["khat"] == pytest.approx(0.25, abs=0.02)
        assert rep.verdict  # 0.25 >= 0.25 - 0.1

    def test_time_constant_norms_for_zero_symbol(self):
        rep = run_strichartz_probe(
            make_symbol("constant", c=0.0), 8.0, 4.0, [0.0], [8, 16],
            include_contrast=False, time_samples=17,
        )
        for row in rep.rows:
            grid_n = row["grid_n"]
            assert grid_n >= 512

    def test_contrast_rows_tagged_by_symbol(self):
        rep = run_strichartz_probe(
            make_symbol("arctan_step", h=1.0), 8.0, 4.0, [0.25], [8, 16],
            include_contrast=True, time_samples=257,
        )
        names = {row["symbol"] for row in rep.rows}
        assert names == {"arctan_step(h=1)", "laplacian"}
        assert "khat_contrast" in rep.fitted

    def test_contrast_shares_each_N_s_data_and_matches_separate_runs(self, monkeypatch):
        built = Counter()
        probe_data = experiments._probe_data

        def counting_probe_data(grid, N):
            built[N] += 1
            return probe_data(grid, N)

        symbol = make_symbol("arctan_step", h=1.0)
        args = (8.0, 4.0, [0.0, 0.25], [8, 16])
        alone = [run_strichartz_probe(s, *args, include_contrast=False, time_samples=257)
                 for s in (symbol, make_symbol("laplacian"))]
        monkeypatch.setattr(experiments, "_probe_data", counting_probe_data)
        both = run_strichartz_probe(symbol, *args, include_contrast=True, time_samples=257)
        assert built == {8.0: 1, 16.0: 1}
        assert both.rows == alone[0].rows + alone[1].rows
        assert both.fitted["khat"] == alone[0].fitted["khat"]
        assert both.fitted["khat_contrast"] == alone[1].fitted["khat"]

    @pytest.mark.parametrize("name, d", [("transport", 2), ("arctan_step", 3)])
    def test_dimension_rejected_before_any_sweep(self, name, d, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before d was checked")

        monkeypatch.setattr(experiments, "_probe_sweep", no_sweep)
        params = {"c": 1.0} if name == "transport" else {"h": 1.0}
        message = ("symbol transport(c=1) is restricted to d = 1" if name == "transport"
                   else "spatial dimension must be 1 or 2, got 3")
        p, q = (4.0, 4.0) if d == 2 else (4.0, 3.0)
        with pytest.raises((ExperimentError, SymbolError), match=re.escape(message)):
            run_strichartz_probe(make_symbol(name, **params), p, q, [0.0], [8, 16], d=d,
                                 include_contrast=False)

    def test_resolution_ceiling_error(self):
        with pytest.raises(ExperimentError, match="ceiling"):
            run_strichartz_probe(
                make_symbol("constant", c=0.0), 8.0, 4.0, [0.0], [8, 512],
                include_contrast=False,
            )

    @pytest.mark.parametrize("N_list, message", [
        ([8, 16, 32, 512], "N = 512.0 needs n = 32768 points per axis, above the ceiling 16384"),
        ([8, 1e308], "N = 1e+308 needs n = inf points per axis, above the ceiling 16384"),
    ])
    def test_every_N_checked_against_the_ceiling_before_any_sweep(self, N_list, message,
                                                                  monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before every N was checked")

        monkeypatch.setattr(experiments, "_probe_sweep", no_sweep)
        with pytest.raises(ExperimentError, match=re.escape(message)):
            run_strichartz_probe(make_symbol("constant", c=0.0), 8.0, 4.0, [0.0], N_list,
                                 include_contrast=False)

    def test_2d_grid_above_the_node_cap_rejected_before_any_sweep(self, monkeypatch):
        # n = 8192 points per axis is under the per-axis ceiling, but 8192^2 nodes are not
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the grid size was checked")

        monkeypatch.setattr(experiments, "_probe_sweep", no_sweep)
        message = "N = 128.0 needs n^d = 8192^2 grid nodes, above the cap MAX_GRID_NODES"
        with pytest.raises(ExperimentError, match=re.escape(message)):
            run_strichartz_probe(make_symbol("constant", c=0.0), 4.0, 4.0, [0.0], [8, 128],
                                 d=2, include_contrast=False)

    def test_sup_norm_pair_slope(self):
        rep = run_strichartz_probe(
            make_symbol("constant", c=0.0), 4.0, np.inf, [0.5], [8, 16],
            include_contrast=False, time_samples=17,
        )
        assert rep.fitted["khat"] == pytest.approx(0.5, abs=1e-12)

    def test_homogeneous_symbol_reports_na_claim(self):
        rep = run_strichartz_probe(
            make_symbol("laplacian"), 8.0, 4.0, [0.0], [8, 16],
            include_contrast=False, time_samples=257,
        )
        assert rep.fitted["claim_applies"] == 0.0
        assert rep.verdict

    @pytest.mark.parametrize("time_samples", [0, 1, -4, 2.5, 17.0])
    def test_time_samples_rejected_before_any_sweep(self, time_samples, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before time_samples was checked")

        monkeypatch.setattr(experiments, "_probe_sweep", no_sweep)
        with pytest.raises(ExperimentError, match="integer >= 2"):
            run_strichartz_probe(
                make_symbol("constant", c=0.0), 8.0, 4.0, [0.0], [8, 16],
                include_contrast=False, time_samples=time_samples,
            )

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_k_grid_rejected_before_any_sweep(self, k, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before k_grid was checked")

        monkeypatch.setattr(experiments, "_probe_sweep", no_sweep)
        with pytest.raises(ExperimentError, match="every k in k_grid must be finite"):
            run_strichartz_probe(make_symbol("constant", c=0.0), 8.0, 4.0, [0.25, k], [8, 16],
                                 include_contrast=False)

    def test_N_list_check(self):
        assert experiments._check_N_list([8, 16]) == [8.0, 16.0]
        for bad in ([8], [16, 8], [8, 8]):
            with pytest.raises(ExperimentError, match="strictly increasing"):
                experiments._check_N_list(bad)
        for bad in ([0, 2, 4], [-2, 4], [8, math.inf], [math.nan, 8]):
            with pytest.raises(ExperimentError, match="finite and > 0"):
                experiments._check_N_list(bad)


# the strichartz-probe config's sweep; I = [0, 1]
PROBE_N_LIST = [8.0, 16.0, 32.0, 64.0]


@pytest.fixture(scope="module")
def probe_report():
    """The strichartz-probe config's run at its default sampling."""
    return run_strichartz_probe(make_symbol("arctan_step", h=1.0), 8.0, 4.0, [0.25],
                                PROBE_N_LIST, include_contrast=True)


class TestProbeSamples:
    """Each probe row samples time at its symbol's rate and reports a Richardson estimate."""

    def test_counts_of_the_probe_config(self, probe_report):
        counts = {name: [row["time_samples"] for row in probe_report.rows
                         if row["symbol"] == name]
                  for name in ("arctan_step(h=1)", "laplacian")}
        assert counts == {"arctan_step(h=1)": [1025] * 4,
                          "laplacian": [1025, 1025, 4097, 16385]}

    def test_bounded_count_turns_the_fastest_mode_by_at_most_2_to_the_minus_8(self):
        for name, params, interval in [("constant", {"c": 40.0}, (0.0, 1.0)),
                                       ("arctan_step", {"h": 0.01}, (0.5, 3.0))]:
            symbol = make_symbol(name, **params)
            n_t = experiments._probe_samples(symbol, 8.0, interval, None)
            assert n_t > 1025 and n_t % 2 == 1
            assert symbol.bound * (interval[1] - interval[0]) / (n_t - 1) <= 2.0**-8
            # N does not enter a bounded symbol's count, and an explicit count wins
            assert experiments._probe_samples(symbol, 1e6, interval, None) == n_t
            assert experiments._probe_samples(symbol, 8.0, interval, 17) == 17

    def test_contrast_Q_equals_a_run_at_those_counts(self, probe_report):
        contrast = [row for row in probe_report.rows if row["symbol"] == "laplacian"]
        for row in contrast:
            explicit, = experiments._probe_sweep(
                [make_symbol("laplacian")], 8.0, 4.0, [0.25], [row["N"]], (0.0, 1.0), 1, 4.0,
                row["time_samples"])
            assert explicit[0]["Q"] == row["Q"]

    def test_contrast_rows_above_N_8_are_flagged(self, probe_report):
        for row in probe_report.rows:
            if row["symbol"] == "laplacian" and row["N"] >= 16:
                assert row["time_err"] > experiments.TIME_RTOL
        assert probe_report.fitted["max_time_err_contrast"] > experiments.TIME_RTOL
        assert probe_report.fitted["max_time_err"] <= experiments.TIME_RTOL

    def test_bounded_estimate_within_2x_of_the_true_error(self):
        symbol = make_symbol("arctan_step", h=1.0)
        rep = run_strichartz_probe(symbol, 8.0, 4.0, [0.0], [8, 16], include_contrast=False)
        fine = run_strichartz_probe(symbol, 8.0, 4.0, [0.0], [8, 16], include_contrast=False,
                                    time_samples=16 * 1024 + 1)
        for row, ref in zip(rep.rows, fine.rows):
            assert row["time_samples"] == 1025
            true_err = abs(row["Q"] - ref["Q"]) / ref["Q"]
            assert true_err / 2 <= row["time_err"] <= 2 * true_err

    def test_even_count_gives_nan(self):
        rep = run_strichartz_probe(make_symbol("arctan_step", h=1.0), 8.0, 4.0, [0.0], [8, 16],
                                   include_contrast=True, time_samples=16)
        assert all(math.isnan(row["time_err"]) for row in rep.rows)
        assert math.isnan(rep.fitted["max_time_err"])
        assert math.isnan(rep.fitted["max_time_err_contrast"])

    def test_odd_count_estimate_is_the_even_subsample_difference(self):
        rep = run_strichartz_probe(make_symbol("arctan_step", h=1.0), 8.0, 4.0, [0.0], [8, 16],
                                   include_contrast=False, time_samples=33)
        times = np.linspace(0.0, 1.0, 33)
        for row in rep.rows:
            grid, _, pvals, u0_hat = _probe_inputs(make_symbol("arctan_step", h=1.0), 1,
                                                   row["N"], row["grid_n"])
            lq = _serial_probe_lq(pvals, u0_hat, times, 4.0, grid.cell)
            q_sub = spacetime_norm_from_samples(times[::2], lq[::2], 8.0)
            assert row["time_err"] == abs(row["Q"] - q_sub) / 3.0 / row["Q"]


class TestProbeBatching:
    """The batched probe sweep against one free_propagate per time sample."""

    @pytest.mark.parametrize("name, params", [("arctan_step", {"h": 1.0}), ("laplacian", {})])
    @pytest.mark.parametrize("d, p, q, N_list, time_samples", [
        # N = 8 runs 512 rows per batch: two full batches and a ragged one
        (1, 8.0, 4.0, [4, 8], 1100),
        (1, 20.0 / 3.0, 5.0, [4, 8], 1100),
        (1, 4.0, np.inf, [4, 8], 1100),
        # N = 2 runs 16 rows per batch: two full batches and a single row
        (2, 4.0, 4.0, [1, 2], 33),
    ])
    def test_batched_Q_matches_per_sample_reference(self, name, params, d, p, q, N_list,
                                                     time_samples):
        symbol = make_symbol(name, **params)
        rep = run_strichartz_probe(symbol, p, q, [0.0], N_list, d=d,
                                   include_contrast=False, time_samples=time_samples)
        times = np.linspace(0.0, 1.0, time_samples)
        for row in rep.rows:
            grid = Grid(d, row["grid_n"], 4.0)
            u0 = experiments._probe_data(grid, row["N"])
            lq = [_lq_norms(free_propagate(u0, grid, symbol, t), q, grid.cell) for t in times]
            reference = spacetime_norm_from_samples(times, lq, p)
            assert row["Q"] == pytest.approx(reference, rel=1e-12)


def _serial_probe_lq(pvals, u0_hat, times, q, cell):
    """The probe's one-lane batch loop: the oracle the lanes must match bit for bit."""
    n_t = times.size
    axes = tuple(range(1, u0_hat.ndim + 1))
    lq = np.empty(n_t)
    rows_per_batch = min(n_t, max(experiments._PROBE_MIN_ROWS,
                                  experiments._PROBE_BATCH_ELEMENTS // u0_hat.size))
    offsets = (times[-1] - times[0]) / (n_t - 1) * np.arange(rows_per_batch)
    table = _propagator(pvals, offsets)
    buf = np.empty_like(table)
    for lo in range(0, n_t, rows_per_batch):
        m = min(rows_per_batch, n_t - lo)
        start = _propagator(pvals, times[lo]) * u0_hat
        snaps = np.multiply(table[:m], start, out=buf[:m])
        np.fft.ifftn(snaps, axes=axes, out=snaps)
        lq[lo:lo + m] = _lq_norms(snaps, q, cell, axes)
    return lq


def _probe_inputs(symbol, d, N, n):
    grid = Grid(d, n, 4.0)
    u0 = experiments._probe_data(grid, N)
    return grid, u0, symbol.on_grid(grid), np.fft.fftn(u0)


class TestProbeLanes:
    """The two-lane probe against the one-lane batch loop: equal bit for bit."""

    # 1D N = 8 runs 512 rows per batch and 2D N = 2 runs 16, so 17 and 1025
    # samples end on a one-row batch, and 2 samples are one batch of a row per lane
    @pytest.mark.parametrize("d, N, n", [(1, 8.0, 512), (2, 2.0, 128)])
    @pytest.mark.parametrize("q", [4.0, np.inf])
    @pytest.mark.parametrize("time_samples", [2, 17, 1025])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.5, 1.5)])
    def test_lq_equals_the_serial_loop(self, d, N, n, q, time_samples, interval):
        grid, _, pvals, u0_hat = _probe_inputs(make_symbol("arctan_step", h=1.0), d, N, n)
        times = np.linspace(*interval, time_samples)
        lq = experiments._probe_lq(pvals, u0_hat, times, q, grid.cell)
        expected = _serial_probe_lq(pvals, u0_hat, times, q, grid.cell)
        assert np.array_equal(lq, expected)

    @pytest.mark.parametrize("d, p, q, N_list, time_samples, interval", [
        (1, 8.0, 4.0, [8, 16], 1025, (0.0, 1.0)),
        (1, 4.0, np.inf, [8, 16], 17, (0.5, 1.5)),
        (2, 4.0, 4.0, [1, 2], 2, (0.0, 1.0)),
        (2, 4.0, 4.0, [1, 2], 17, (0.25, 1.0)),
    ])
    def test_report_equals_the_serial_loop(self, d, p, q, N_list, time_samples, interval):
        symbol = make_symbol("arctan_step", h=1.0)
        rep = run_strichartz_probe(symbol, p, q, [0.0, 0.25], N_list, interval=interval, d=d,
                                   include_contrast=False, time_samples=time_samples)
        times = np.linspace(*interval, time_samples)
        for row in rep.rows:
            grid, u0, pvals, u0_hat = _probe_inputs(symbol, d, row["N"], row["grid_n"])
            lq = _serial_probe_lq(pvals, u0_hat, times, q, grid.cell)
            assert row["Q"] == spacetime_norm_from_samples(times, lq, p)
            for k in (0.0, 0.25):
                assert row[f"hk_norm_{k:g}"] == sobolev_norm(u0, grid, k)

    def test_more_lanes_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # every lane writes its own rows of lq; a lost or misplaced row breaks equality
        monkeypatch.setattr(experiments, "_PROBE_LANES", 5)
        grid, _, pvals, u0_hat = _probe_inputs(make_symbol("arctan_step", h=1.0), 1, 8.0, 512)
        times = np.linspace(0.0, 1.0, 1025)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lq = experiments._probe_lq(pvals, u0_hat, times, 4.0, grid.cell)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(lq, _serial_probe_lq(pvals, u0_hat, times, 4.0, grid.cell))

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_lane_error_is_raised_and_no_thread_outlives_the_call(self, monkeypatch, failing):
        def lq_norms(z, q, cell, axes=None):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (failing == "caller"):
                raise RuntimeError(f"lq failed in the {failing} lane")
            return _lq_norms(z, q, cell, axes)

        monkeypatch.setattr(experiments, "_lq_norms", lq_norms)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"lq failed in the {failing} lane"):
            run_strichartz_probe(make_symbol("arctan_step", h=1.0), 8.0, 4.0, [0.0], [8, 16],
                                 include_contrast=False, time_samples=1025)
        assert threading.active_count() == before
