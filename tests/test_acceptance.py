"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured quantities.  Every tolerance is pinned here, not calibrated.
"""

from __future__ import annotations

import math
import time

import numpy as np

from modnls import (
    Grid,
    SolveConfig,
    compute_scaling,
    evolve,
    make_symbol,
    ode_phase_profile,
    picard_solve,
    run_norm_inflation,
    run_ode_approx,
    run_singular_probe,
    run_strichartz_probe,
    sobolev_norm,
)
from modnls.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from conftest import evolve_with_diagnostics, free_propagate, gaussian_field, random_smooth_field
from test_config import INVALID_CASES
from modnls.config import ConfigError, parse_config
from modnls.experiments import TIME_RTOL

S_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)


def catalog_1d():
    return [
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


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_spectral_invariants():
    started = time.perf_counter()
    grid = Grid(1, 128, 2 * np.pi)
    worst_round = worst_planch = worst_unit = worst_group = 0.0

    for seed in range(100):
        f = random_smooth_field(grid, seed)
        # the raw FFT pair the stepper uses, and Plancherel against quadrature
        back = np.fft.ifftn(np.fft.fftn(f))
        scale = np.abs(f).max()
        worst_round = max(worst_round, np.abs(back - f).max() / scale)
        l2 = sobolev_norm(f, grid, 0.0)
        quad = float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell))
        worst_planch = max(worst_planch, abs(l2 - quad) / l2)

    f = random_smooth_field(grid, 12345)
    for sym in catalog_1d():
        out = free_propagate(f, grid, sym, 0.37)
        for s in S_VALUES:
            a, b = sobolev_norm(f, grid, s), sobolev_norm(out, grid, s)
            worst_unit = max(worst_unit, abs(a - b) / a)
        composed = free_propagate(free_propagate(f, grid, sym, 0.21), grid, sym, 0.16)
        gap = np.abs(composed - out).max() / np.abs(f).max()
        worst_group = max(worst_group, gap)

    elapsed = time.perf_counter() - started
    ok = (
        worst_round <= 1e-12
        and worst_planch <= 1e-12
        and worst_unit <= 1e-12
        and worst_group <= 1e-12
        and elapsed < 10.0
    )
    report_line(
        1, "spectral-core invariants", ok,
        f"roundtrip {worst_round:.2e}, plancherel {worst_planch:.2e}, "
        f"unitarity {worst_unit:.2e}, group {worst_group:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_evolution_invariants():
    started = time.perf_counter()
    grid = Grid(1, 256, 8.0)
    gaussian = gaussian_field(grid, 0.25)

    # L2 conservation over T = 1 at dt = 1e-3 for every catalog symbol
    worst_drift = 0.0
    for sym in catalog_1d():
        cfg = SolveConfig(sym, -1.0, 1.0, dt=1e-3, T=1.0, snapshot_every=10**6)
        _, _, l2_norms, _ = evolve_with_diagnostics(gaussian, grid, cfg)
        worst_drift = max(worst_drift, abs(l2_norms[-1] - l2_norms[0]) / l2_norms[0])

    # Strang self-convergence order over dt in {4e-3, 2e-3, 1e-3}
    sym = make_symbol("laplacian")

    def terminal(dt):
        cfg = SolveConfig(sym, -1.0, 1.0, dt=dt, T=0.5, snapshot_every=10**6)
        return np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))

    ref = terminal(1e-4)
    dts = (4e-3, 2e-3, 1e-3)
    errs = [
        float(np.sqrt(np.sum(np.abs(terminal(dt) - ref) ** 2) * grid.cell)) for dt in dts
    ]
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    # Picard / split-step cross-agreement, including non-integer sigma
    configs = [
        (make_symbol("laplacian"), 1.0, 1.0),
        (make_symbol("arctan_step", h=1.0), 2.0, -1.0),
        (make_symbol("fourth_order"), 1.5, 1.0),  # 2*sigma = 3 >= r = 2 > 1/2
    ]
    worst_cross = 0.0
    for sym, sigma, lam in configs:
        cfg = SolveConfig(sym, lam, sigma, dt=1e-3, T=0.1, snapshot_every=10**6)
        strang = np.fft.ifftn(evolve(np.fft.fftn(gaussian), cfg, grid))
        fixed, _ = picard_solve(np.fft.fftn(gaussian), cfg, grid, tol=1e-8,
                                max_time_intervals=2048)
        gap = float(np.sqrt(np.sum(np.abs(np.fft.ifftn(fixed) - strang) ** 2) * grid.cell))
        worst_cross = max(worst_cross, gap)

    elapsed = time.perf_counter() - started
    ok = (
        worst_drift <= 1e-10
        and abs(order - 2.0) <= 0.2
        and worst_cross <= 1e-6
        and elapsed < 120.0
    )
    report_line(
        2, "evolution invariants", ok,
        f"L2 drift {worst_drift:.2e}, order {order:.3f}, cross {worst_cross:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_scaling_bookkeeping():
    from test_scaling import (
        beta_closed_form,
        beta_from_definition,
        identity_log_gap,
        random_admissible_plans,
        t_h_closed_form,
    )

    started = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for plan in random_admissible_plans(100, seed=3):
        h = float(np.exp(-rng.uniform(1.0, 9.0)))
        checks = [abs(math.log(plan.t_h(h)) - math.log(t_h_closed_form(plan, h)))]
        checks.append(abs(beta_closed_form(plan) - beta_from_definition(plan)))
        if plan.symbol_class == "homogeneous":
            checks.append(identity_log_gap(plan, h))
        assert plan.eps_exponent > 0 and beta_closed_form(plan) > 0
        worst = max(worst, max(checks))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    report_line(3, "scaling bookkeeping (100 draws)", ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_ode_window_bounded():
    started = time.perf_counter()
    plan = compute_scaling(1, 2.0, 0.25, "bounded", theta=0.05, delta=0.1)
    grid = Grid(1, 256, 8.0)
    rep = run_ode_approx(plan, make_symbol("arctan_step", h=1.0), grid,
                         [1e-1, 3e-2, 1e-2], r=1)
    errors = [row["E"] for row in rep.rows]
    elapsed = time.perf_counter() - started
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] / errors[0] < 0.5 and rep.verdict and elapsed < 600.0
    report_line(
        4, "ODE window, bounded multiplier", ok,
        f"E = {[f'{e:.3e}' for e in errors]}, ratio {errors[-1] / errors[0]:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_ode_window_homogeneous():
    started = time.perf_counter()
    plan = compute_scaling(2, 2.0, 0.25, "homogeneous", m=2.0, omega=1.0,
                           theta=0.05, delta=0.1)
    grid = Grid(2, 128, 8.0)
    rep = run_ode_approx(plan, make_symbol("laplacian"), grid, [1e-1, 3e-2, 1e-2], r=2)
    errors = [row["E"] for row in rep.rows]
    elapsed = time.perf_counter() - started
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] / errors[0] < 0.5 and rep.verdict and elapsed < 600.0
    report_line(
        4, "ODE window, homogeneous multiplier", ok,
        f"E = {[f'{e:.3e}' for e in errors]}, ratio {errors[-1] / errors[0]:.4f}, {elapsed:.1f}s",
    )
    assert ok


def _inflation_hs_norm(field, grid, plan, h):
    # |u|_{H^s} of the unscaled solution, combined as run_norm_inflation does
    return math.hypot(h**plan.s * sobolev_norm(field, grid, 0.0),
                      sobolev_norm(field, grid, plan.s, homogeneous=True))


def test_criterion_5_norm_inflation():
    """Norm inflation by the phase-ODE mechanism at a window where it acts.

    For large phase the ODE profile kappa*a0*exp(-i*(tau/eps)*kappa^2sig*a0^2sig)
    has an H^s ratio of about (kappa^2sig * tau*/eps)^s, that is
    log(1/h)^(s*(delta - 2*sigma*theta)) up to a constant, so the ratio can
    only grow along h -> 0 when s*(delta - 2*sigma*theta) > 0.  The window
    theta = 0.05, delta = 8 gives 0.25*(8 - 0.2) = 1.95; the short default
    delta = 0.1 gives 0.25*(0.1 - 0.2) = -0.025 and cannot inflate at any h.

    Three checks on top of the driver's verdict:
    * precondition, without evolve: the closed-form ode_phase_profile ratio
      at tau* grows at least 3x along the sweep, so the window follows from
      the mechanism rather than from what the evolver outputs;
    * the bounded arctan_step(h=1) flow inflates the ratio at least 3x with
      decreasing initial norms, and the lam = 0 control fails;
    * grid check: the growth at n = 4096 is within 1% of the growth at the
      run grid n = 8192, so the verdict is not a resolution artefact;
    * time check: every row of the three sweeps is certified in time, with
      a step-doubling estimate ``time_err`` of at most TIME_RTOL.
    """
    started = time.perf_counter()
    plan = compute_scaling(1, 2.0, 0.25, "bounded", theta=0.05, delta=8.0)
    exponent = plan.s * (plan.delta - 2.0 * plan.sigma * plan.theta)
    grid = Grid(1, 8192, 8.0)
    coarse = Grid(1, 4096, 8.0)
    sym = make_symbol("arctan_step", h=1.0)
    hs = [math.exp(-2), math.exp(-3), math.exp(-4)]

    ode_ratios = []
    for h in hs:
        kappa, eps = plan.kappa(h), plan.eps(h)
        tau_star = plan.tau_star_of_eps(eps)
        start = ode_phase_profile(0.0, grid, kappa, 1.0, plan.sigma, eps)
        end = ode_phase_profile(tau_star, grid, kappa, 1.0, plan.sigma, eps)
        ode_ratios.append(_inflation_hs_norm(end, grid, plan, h)
                          / _inflation_hs_norm(start, grid, plan, h))
    ode_growth = ode_ratios[-1] / ode_ratios[0]

    rep = run_norm_inflation(plan, sym, grid, hs, lam=1.0)
    initial = [row["u0_hs"] for row in rep.rows]
    ratios = [row["ratio"] for row in rep.rows]
    growth = rep.fitted["ratio_growth"]
    initial_decreasing = all(b < a for a, b in zip(initial, initial[1:]))

    coarse_rep = run_norm_inflation(plan, sym, coarse, hs, lam=1.0)
    coarse_growth = coarse_rep.fitted["ratio_growth"]
    grid_change = abs(coarse_growth - growth) / growth

    control = run_norm_inflation(plan, sym, grid, hs, lam=0.0)
    control_fails = not control.verdict

    max_time_err = max(row["time_err"]
                       for sweep in (rep, coarse_rep, control) for row in sweep.rows)

    elapsed = time.perf_counter() - started
    ok = (
        ode_growth >= 3.0
        and initial_decreasing
        and growth >= 3.0
        and grid_change <= 0.01
        and control_fails
        and max_time_err <= TIME_RTOL
        and elapsed < 900.0
    )
    report_line(
        5, "norm inflation where s*(delta - 2*sigma*theta) > 0", ok,
        f"exponent {exponent:.4f}, ODE growth {ode_growth:.4f}, "
        f"initial decreasing {initial_decreasing}, ratios {[f'{r:.4f}' for r in ratios]}, "
        f"growth {growth:.4f} (need >= 3), n=4096 growth {coarse_growth:.4f} "
        f"(change {grid_change:.2%}, need <= 1%), lam=0 control fails {control_fails}, "
        f"max time_err {max_time_err:.2e} (need <= {TIME_RTOL:g}), {elapsed:.1f}s",
    )
    assert ode_growth >= 3.0, (
        f"closed-form ODE ratio growth {ode_growth:.4f} < 3: the pinned window "
        "does not inflate by the phase-ODE mechanism"
    )
    assert initial_decreasing, "initial H^s norms must decrease along the sweep"
    assert control_fails, "the lam = 0 control must return a failing verdict"
    assert growth >= 3.0, f"inflation ratio growth {growth:.4f} < 3"
    assert grid_change <= 0.01, (
        f"growth moves by {grid_change:.2%} from n = 8192 to n = 4096: not grid-converged"
    )
    assert max_time_err <= TIME_RTOL, (
        f"a row's step-doubling time error estimate {max_time_err:.3e} exceeds {TIME_RTOL:g}"
    )


def test_criterion_6_strichartz_probe():
    started = time.perf_counter()
    pq = (8.0, 4.0)
    Ns = [8, 16, 32, 64]
    k_grid = [0.25]

    arctan = run_strichartz_probe(make_symbol("arctan_step", h=1.0), *pq, k_grid, Ns,
                                  include_contrast=True)
    reglap = run_strichartz_probe(make_symbol("regularized_laplacian"), *pq, k_grid, Ns,
                                  include_contrast=False)
    calib = run_strichartz_probe(make_symbol("constant", c=0.0), *pq, k_grid, Ns,
                                 include_contrast=False)

    k_arctan = arctan.fitted["khat"]
    k_reglap = reglap.fitted["khat"]
    k_zero = calib.fitted["khat"]
    k_lap = arctan.fitted["khat_contrast"]
    # the probed symbol's rows (the contrast's have their own fitted key); np.max keeps a nan
    max_time_err = float(np.max([rep.fitted["max_time_err"] for rep in (arctan, reglap, calib)]))
    elapsed = time.perf_counter() - started
    ok = (
        k_arctan >= 0.15
        and k_reglap >= 0.15
        and abs(k_zero - 0.25) <= 0.02
        and k_lap <= 0.05
        and arctan.verdict
        and reglap.verdict
        and max_time_err <= TIME_RTOL
        and elapsed < 600.0
    )
    report_line(
        6, "no spacetime gain for bounded multipliers", ok,
        f"khat arctan {k_arctan:.4f}, reglap {k_reglap:.4f}, P=0 {k_zero:.4f}, "
        f"laplacian contrast {k_lap:.4f}, max time_err {max_time_err:.2e} "
        f"(need <= {TIME_RTOL:g}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_singular_probe():
    started = time.perf_counter()
    rhos = [10.0 ** (-k) for k in range(3, 13)]
    rep = run_singular_probe(1.0, 1.0, 1.0, rhos, quad_tol=1e-9)
    t0 = run_singular_probe(1.0, 1.0, 0.0, rhos, quad_tol=1e-9)
    l0 = run_singular_probe(1.0, 0.0, 1.0, rhos, quad_tol=1e-9)
    controls_exact = all(r["Iv"] == r["I0"] for r in t0.rows) and all(
        r["Iv"] == r["I0"] for r in l0.rows
    )
    frac = rep.fitted["i0_final_increment_fraction"]
    rmin, rmax = rep.fitted["iv_ratio_min"], rep.fitted["iv_ratio_max"]
    elapsed = time.perf_counter() - started
    ok = (
        rep.verdict
        and frac < 0.01
        and 0.5 <= rmin <= rmax <= 1.0
        and controls_exact
        and elapsed < 60.0
    )
    report_line(
        7, "critical-regularity loss for log-singular data", ok,
        f"I0 final-increment fraction {frac:.2e}, Iv ratios [{rmin:.3f}, {rmax:.3f}], "
        f"controls exact {controls_exact}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_cli_contract(tmp_path):
    sing = tmp_path / "sing.cfg"
    sing.write_text(
        "[singular]\nsigma = 1\nt = 1.0\nrho_list = 1e-3, 1e-4, 1e-5, 1e-6\n"
    )
    sim = tmp_path / "sim.cfg"
    sim.write_text(
        "[grid]\nd = 1\nn = 64\nL = 8\n[equation]\nsymbol = laplacian\n"
        "lambda = -1\nsigma = 1\n[simulate]\ndt = 0.001\nT = 0\n"
    )
    infl = tmp_path / "infl.cfg"
    infl.write_text(
        "[equation]\nsymbol = arctan_step(h=1)\nlambda = 0\nsigma = 2\n"
        "[inflate]\nd = 1\ns = 0.25\nh_list = e^-2, e^-3\n"
    )

    pass_code = main(["simulate", "--config", str(sim), "--out", str(tmp_path / "o1")])
    fail_code = main(["inflate", "--config", str(infl), "--out", str(tmp_path / "o2")])
    error_code = main(["singular", "--config", str(tmp_path / "missing.cfg")])

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["singular", "--config", str(sing), "--out", str(out_a)])
    main(["singular", "--config", str(sing), "--out", str(out_b)])
    identical = (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    rejected = 0
    for _, sub, text in INVALID_CASES:
        try:
            parse_config(sub, text)
        except ConfigError:
            rejected += 1
    all_rejected = rejected == len(INVALID_CASES)

    ok = (
        pass_code == EXIT_PASS
        and fail_code == EXIT_FAIL
        and error_code == EXIT_ERROR
        and identical
        and all_rejected
        and len(INVALID_CASES) >= 12
    )
    report_line(
        8, "CLI contract", ok,
        f"exit codes ({pass_code},{fail_code},{error_code}), bit-identical CSV {identical}, "
        f"rejected {rejected}/{len(INVALID_CASES)} invalid configs",
    )
    assert ok
