"""Experiment drivers: ODE-window accuracy, norm inflation, space-time norm probe.

All runs on the concentrated family happen in rescaled variables on a fixed
box: the multiplier is evaluated as h^(2*sigma*(d/2-s)) * P(xi/h) directly
on the rescaled frequency lattice, and norms of the unscaled solution are
reconstructed through the exact identities
|u_h|_{Hdot^{s'}} = h^(s-s') |psi|_{Hdot^{s'}}.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np

from .evolution import SolveConfig, _warn_initial_tails, evolve
from .reports import ExperimentReport
from .scaling import ScalingPlan
from .spectral import (
    MAX_GRID_NODES,
    Grid,
    _coeff_sobolev_norm,
    _coeff_tail_mass,
    _lq_norms,
    _propagator,
    spacetime_norm_from_samples,
)
from .spectral import sobolev_norm  # noqa: F401  (perfbench's tracer wraps it here)
from .symbols import BOUNDED, Symbol, make_symbol

__all__ = [
    "ExperimentError",
    "TIME_RTOL",
    "ode_phase_profile",
    "check_ode_approx_args",
    "run_ode_approx",
    "check_inflate_args",
    "run_norm_inflation",
    "check_strichartz_args",
    "run_strichartz_probe",
]


class ExperimentError(ValueError):
    """Invalid driver arguments."""


def _envelope(grid: Grid) -> np.ndarray:
    """The reference bump a0(y) = exp(-|y|^2) sampled on the grid."""
    return np.exp(-sum(c * c for c in grid.x))


def ode_phase_profile(tau: float, grid: Grid, kappa: float, lam: float,
                      sigma: float, eps: float) -> np.ndarray:
    """Samples of the closed-form phase-ODE solution kappa*a0*exp(-i*lam*(tau/eps)*kappa^2sig*a0^2sig).

    Its modulus is kappa*a0 nodewise, independently of tau.
    """
    if not eps > 0:
        raise ExperimentError(f"eps must be positive, got {eps}")
    a0 = _envelope(grid)
    return _phase_profile(tau, a0, a0 ** (2.0 * sigma), kappa, lam, sigma, eps)


def _phase_profile(tau: float, a0: np.ndarray, a0_2s: np.ndarray, kappa: float, lam: float,
                   sigma: float, eps: float, out=None) -> np.ndarray:
    """Samples of :func:`ode_phase_profile` from the envelope a0 and a0^(2*sigma).

    Written into ``out``, a complex array shaped like a0, when given.
    """
    rot = _phase_rotation(tau, a0_2s, kappa, lam, sigma, eps, out)
    return np.multiply(kappa * a0, rot, out=rot)


def _phase_rotation(tau: float, a0_2s: np.ndarray, kappa: float, lam: float,
                    sigma: float, eps: float, out=None) -> np.ndarray:
    """The phase-ODE flow over time tau from kappa*a0: exp(-i*lam*(tau/eps)*kappa^2sig*a0^2sig)."""
    phase = -(lam * tau / eps) * kappa ** (2.0 * sigma) * a0_2s
    rot = np.multiply(1j, phase, out=out)
    return np.exp(rot, out=rot)


def _phase_profiles(a0: np.ndarray, a0_2s: np.ndarray, kappa: float, lam: float,
                    sigma: float, eps: float, dt: float):
    """Yield the samples of :func:`ode_phase_profile` at tau = 0, dt, 2*dt, ...

    ``a0`` and ``a0_2s`` are the envelope and its power 2*sigma.  phi(0) =
    kappa*a0 and the one-step rotation w are built once in closed form;
    every later sample is ``phi *= w`` in place, so the same array is
    yielded each time.  w is not the quotient phi(dt)/phi(0): a0 underflows
    to 0 on wide boxes, and 0/0 is NaN.  |w| = 1 up to rounding, so the
    modulus drifts by about 1e-16 relative per step.
    """
    w = _phase_rotation(dt, a0_2s, kappa, lam, sigma, eps)
    phi = kappa * a0 + 0j
    while True:
        yield phi
        phi *= w


# The largest phase rotation, in rad, that either sub-flow may make in one
# pilot step of a window (see _window_steps).
ROTATION_BUDGET = 0.64
# The fewest pilot steps of a window.
MIN_PILOT_STEPS = 8


def _window_steps(tau_star: float, eps: float, lam: float, kappa: float,
                  sigma: float, p_max: float) -> int:
    """The pilot step count of a window: the first run of :func:`_certified_row`.

    It keeps each sub-flow's phase rotation per step of tau*/n below
    ROTATION_BUDGET rad: the kick turns the bump's peak by
    |lam|*kappa^(2*sigma)*dt/eps, the free flow turns a mode by at most
    p_max*dt/eps.  At least MIN_PILOT_STEPS.  Step doubling then chooses the
    step count the row reports, so the budget sets where doubling starts,
    not the time error.
    """
    rate = abs(lam) * kappa ** (2.0 * sigma) + p_max
    if rate <= 0:
        return MIN_PILOT_STEPS
    return max(MIN_PILOT_STEPS, math.ceil(tau_star * rate / (ROTATION_BUDGET * eps)))


# A window row is certified in time when the step-doubling (Richardson)
# estimate |q(2n) - q(n)| / 3 of the time error of q(2n), exact in the limit
# for the second-order Strang splitting, is at most TIME_RTOL * |q(2n)|.
TIME_RTOL = 1e-3
# An estimate at most ROUNDING_FLOOR times the row's scale is rounding and
# certifies the row too: without it a q at rounding level (E of the lambda = 0,
# P = 0 control, 1e-17 to 1e-13) never meets a relative target, and
# the phase recurrence's drift of about 1e-16 per step grows with every
# doubling.
ROUNDING_FLOOR = 1e-12
# Doublings after the pilot run before a row is reported uncertified.
MAX_DOUBLINGS = 8


def _certified_row(run, n0: int, key: str, scale: float) -> dict:
    """The row of the first run at n0, 2*n0, 4*n0, ... Strang steps that step doubling certifies.

    ``run(n)`` integrates the window in n steps of exactly tau*/n and returns
    its row, whose ``key`` column is the certified quantity q.  The first 2n
    whose estimate |q(2n) - q(n)| / 3 is at most TIME_RTOL*|q(2n)| or at most
    ROUNDING_FLOOR*scale is accepted: its row is returned, with ``n_steps``
    = 2n and a new column ``time_err``, the estimate relative to |q(2n)|, or
    to ROUNDING_FLOOR*scale/TIME_RTOL when |q(2n)| is smaller, so that
    ``time_err <= TIME_RTOL`` exactly when the row is certified.  After
    MAX_DOUBLINGS doublings the finest run is returned and a warning names
    its estimate.
    """
    q_floor = ROUNDING_FLOOR * scale / TIME_RTOL
    n = n0
    row = run(n)
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        coarse, row = row[key], run(n)
        rel = abs(row[key] - coarse) / 3.0 / max(abs(row[key]), q_floor)
        if rel <= TIME_RTOL:
            break
    else:
        warnings.warn(
            f"{key} is not certified in time: its step-doubling estimate {rel:.3e} "
            f"(relative) at {n} steps exceeds TIME_RTOL = {TIME_RTOL:g} after "
            f"{MAX_DOUBLINGS} doublings",
            stacklevel=3,
        )
    row["time_err"] = rel
    return row


def _check_decreasing_sweep(values, label: str) -> list[float]:
    """Return values as floats; reject them unless non-empty and strictly decreasing."""
    values = [float(v) for v in values]
    if not values:
        raise ExperimentError(f"{label} must hold at least one value, got {values}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ExperimentError(f"{label} must be strictly decreasing, got {values}")
    return values


def _check_h_list(plan: ScalingPlan, h_list) -> list[float]:
    """Return h_list as floats; reject it unless a decreasing sweep valid for the plan."""
    h_list = _check_decreasing_sweep(h_list, "h_list")
    for h in h_list:
        _check_window_row(plan, h, plan.eps(h))
    return h_list


def _check_window_row(plan: ScalingPlan, h: float, eps: float) -> None:
    """Reject a window row whose h, kappa_h or tau*(eps) the plan rejects:
    h outside (0, e^-1], kappa_h underflowing to 0, tau* overflowing."""
    plan.kappa(h)
    plan.tau_star_of_eps(eps)


def _check_window_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, lam: float) -> None:
    """The checks that run_norm_inflation and run_ode_approx share."""
    if grid.d != plan.d:
        raise ExperimentError(f"grid dimension {grid.d} does not match plan dimension {plan.d}")
    symbol.check_dims(grid.d)
    if not math.isfinite(lam):
        raise ExperimentError(f"lambda must be finite, got {lam}")


def check_ode_approx_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, eps_list, r,
                          lam: float = 1.0) -> tuple[list[float], int]:
    """Reject every input :func:`run_ode_approx` cannot run, before any evolution.

    Returns (eps_list as floats, int r).
    """
    _check_window_args(plan, symbol, grid, lam)
    if not math.isfinite(r) or r != int(r) or not r > plan.d / 2.0:
        raise ExperimentError(f"regularity r must be an integer above d/2 = {plan.d / 2}, got {r}")
    r = int(r)
    if abs(plan.sigma - round(plan.sigma)) > 1e-12 and r > 2.0 * plan.sigma:
        raise ExperimentError(
            f"for non-integer sigma the regularity must satisfy r <= 2*sigma = {2 * plan.sigma}"
        )
    eps_list = _check_decreasing_sweep(eps_list, "eps_list")
    for eps in eps_list:
        _check_window_row(plan, plan.h_for_eps(eps), eps)
    return eps_list, r


def check_inflate_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, h_list,
                       lam: float = 1.0) -> list[float]:
    """Reject every input :func:`run_norm_inflation` cannot run, before any evolution.

    Warns when the phase-ODE exponent s*(delta - 2*sigma*theta) is <= 0,
    since the ratio cannot then grow along the sweep and the verdict fails
    whatever the resolution.  Returns h_list as floats.
    """
    _check_window_args(plan, symbol, grid, lam)
    h_list = _check_h_list(plan, h_list)
    exponent = plan.s * (plan.delta - 2.0 * plan.sigma * plan.theta)
    if exponent <= 0:
        warnings.warn(
            f"the phase-ODE exponent s*(delta - 2*sigma*theta) = {exponent:.6g} is <= 0, "
            f"so the inflation ratio cannot grow along the h sweep",
            stacklevel=2,
        )
    return h_list


def _window_config(plan: ScalingPlan, symbol: Symbol, grid: Grid, a0: np.ndarray, h: float,
                   kappa: float, eps: float, lam: float):
    """A row's initial data psi0 = kappa*a0, from the driver's envelope a0, and
    its solver configs up to tau*(eps).

    Returns (psi0_hat, config, n0, p_max): psi0_hat = ``np.fft.fftn(psi0)``,
    tail-checked here once for every run of the row; ``config(n)`` is the
    :func:`evolve` config of n steps of exactly tau*/n on the rescaled
    multiplier h^(2*sigma*(d/2-s)) * P(xi/h), with a snapshot at every
    step, and n0 is the pilot step count.
    """
    tau_star = plan.tau_star_of_eps(eps)
    sym_h = symbol.rescaled(plan.window_amplitude(h), h)
    p_max = float(np.abs(sym_h.on_grid(grid)).max())
    n0 = _window_steps(tau_star, eps, lam, kappa, plan.sigma, p_max)
    psi0 = kappa * a0
    psi0_hat = np.fft.fftn(psi0)
    _warn_initial_tails(psi0, psi0_hat, grid)

    def config(n: int) -> SolveConfig:
        return SolveConfig(sym_h, lam, plan.sigma, tau_star / n, tau_star, eps)

    return psi0_hat, config, n0, p_max


def run_ode_approx(plan: ScalingPlan, symbol: Symbol, grid: Grid, eps_list,
                   r: int, lam: float = 1.0) -> ExperimentReport:
    """Measure E(eps) = sup over the window of the H^r gap to the phase-ODE profile.

    The rescaled equation is integrated from kappa*a0 up to
    tau* = eps*log(1/eps)^delta, and E(eps) is the maximum over snapshot
    times (every step) of |psi(tau) - phi(tau)|_{H^r}, reduced while the
    stepper runs.  phi advances by one stored rotation per step and is
    rebuilt in closed form at tau*, so a snapshot costs one complex multiply
    and one FFT of phi, into one buffer per run, and allocates no complex
    array; ``tail_mass`` comes from the returned coefficients.

    Each row is certified in time by :func:`_certified_row`: the window is
    run at n0, 2*n0, 4*n0, ... steps, from the pilot count n0 that
    ROTATION_BUDGET sets, until the step-doubling estimate of E's time
    error is at most TIME_RTOL*E (or at rounding level, below
    ROUNDING_FLOOR*|kappa*a0|_{H^r}).  The row reports that run: its
    ``n_steps`` and the relative estimate ``time_err``.  Verdict: E strictly
    decreasing along the (decreasing) eps sweep, with E(min)/E(max) < 0.5;
    ``fitted.max_time_err`` is the largest ``time_err``.
    """
    eps_list, r = check_ode_approx_args(plan, symbol, grid, eps_list, r, lam)
    a0 = _envelope(grid)
    a0_2s = a0 ** (2.0 * plan.sigma)

    rows = []
    for eps in eps_list:
        h = plan.h_for_eps(eps)
        kappa = plan.kappa(h)
        psi0_hat, config, n0, p_max = _window_config(plan, symbol, grid, a0, h, kappa, eps,
                                                     lam)

        def run(n):
            cfg = config(n)
            profiles = _phase_profiles(a0, a0_2s, kappa, lam, plan.sigma, eps, cfg.dt)
            buf = np.empty(grid.shape, dtype=complex)
            gaps = []

            def reduce_gap(tau, coeffs):
                # snapshots come at tau = k*dt, then at T; the gap is taken on coefficients
                if tau < cfg.T:
                    phi = next(profiles)
                else:
                    profiles.close()  # frees phi and w before the closed form at T
                    phi = _phase_profile(tau, a0, a0_2s, kappa, lam, plan.sigma, eps, out=buf)
                np.fft.fftn(phi, out=buf)
                np.subtract(coeffs, buf, out=buf)
                gaps.append(_coeff_sobolev_norm(buf, grid, r))

            final = evolve(psi0_hat, cfg, grid, reduce_gap)
            return {
                "eps": eps,
                "h": h,
                "kappa": kappa,
                "tau_star": cfg.T,
                "n_steps": n,
                "p_max": p_max,
                "E": max(gaps),
                "tail_mass": _coeff_tail_mass(final, grid),
            }

        rows.append(_certified_row(run, n0, "E", scale=_coeff_sobolev_norm(psi0_hat, grid, r)))

    errors = [row["E"] for row in rows]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ratio = errors[-1] / errors[0] if errors[0] > 0 else 0.0
    verdict = decreasing and ratio < 0.5
    fitted = {
        "error_ratio": ratio,
        "strictly_decreasing": float(decreasing),
        "max_time_err": max(row["time_err"] for row in rows),
    }
    return ExperimentReport("ode_approx", rows, fitted, verdict,
                            tolerances={"max_error_ratio": 0.5})


# The least growth of the inflation ratio from the largest to the smallest h
# that passes; a bound of 1 or below would pass a sweep whose norms do not inflate.
MIN_RATIO_GROWTH = 3.0


def run_norm_inflation(plan: ScalingPlan, symbol: Symbol, grid: Grid, h_list,
                       lam: float = 1.0) -> ExperimentReport:
    """Track |u_h(t_h)|_{H^s} / |u0_h|_{H^s} along a decreasing h sweep.

    Norms of the unscaled solution are reconstructed from the rescaled run
    at s' in {0, s} and combined as sqrt(L2^2 + Hdot^s^2).  Verdict: the
    initial norms decrease monotonically and the inflation ratio grows by
    at least MIN_RATIO_GROWTH from the largest to the smallest h.  Every
    norm and the row's ``tail_mass`` are read from coefficients.

    Each row is certified in time by :func:`_certified_row`: the window is
    run at n0, 2*n0, 4*n0, ... steps, from the pilot count n0 that
    ROTATION_BUDGET sets, until the step-doubling estimate of the
    ratio's time error is at most TIME_RTOL times the ratio.  The row
    reports that run: its ``n_steps`` and the relative estimate
    ``time_err``; ``fitted.max_time_err`` is the largest ``time_err``.

    The phase-ODE ratio at the window end grows like
    log(1/h)^(s*(delta - 2*sigma*theta)), so the ratio can only grow along
    the sweep when s*(delta - 2*sigma*theta) > 0.  The ``compute_scaling``
    and ``[inflate]`` defaults (theta = 0.05, delta = 0.1) meet it only for
    sigma < 1: at sigma = 2 the exponent is s*(0.1 - 0.2) < 0 for every
    s > 0, and the verdict fails at any h; delta = 8 gives 1.95 at s = 0.25.
    """
    h_list = check_inflate_args(plan, symbol, grid, h_list, lam)
    a0 = _envelope(grid)

    rows = []
    for h in h_list:
        eps = plan.eps(h)
        kappa = plan.kappa(h)
        psi0_hat, config, n0, _ = _window_config(plan, symbol, grid, a0, h, kappa, eps, lam)
        l2_0 = _coeff_sobolev_norm(psi0_hat, grid, 0.0)
        hs_0 = _coeff_sobolev_norm(psi0_hat, grid, plan.s, homogeneous=True)
        hs_scale = h**plan.s
        u0_norm = math.hypot(hs_scale * l2_0, hs_0)

        def run(n):
            cfg = config(n)
            final = evolve(psi0_hat, cfg, grid)
            l2_T = _coeff_sobolev_norm(final, grid, 0.0)
            hs_T = _coeff_sobolev_norm(final, grid, plan.s, homogeneous=True)
            uT_norm = math.hypot(hs_scale * l2_T, hs_T)
            return {
                "h": h,
                "kappa": kappa,
                "eps": eps,
                "tau_star": cfg.T,
                "t_h": plan.t_h(h),
                "n_steps": n,
                "u0_hs": u0_norm,
                "ut_hs": uT_norm,
                "ratio": uT_norm / u0_norm,
                "l2_drift": abs(l2_T - l2_0) / l2_0,
                "tail_mass": _coeff_tail_mass(final, grid),
            }

        # the ratio is 1 at tau = 0, which sets its rounding scale
        rows.append(_certified_row(run, n0, "ratio", scale=1.0))

    initial = [row["u0_hs"] for row in rows]
    ratios = [row["ratio"] for row in rows]
    initial_decreasing = all(b < a for a, b in zip(initial, initial[1:]))
    growth = ratios[-1] / ratios[0] if ratios[0] > 0 else 0.0
    verdict = initial_decreasing and growth >= MIN_RATIO_GROWTH
    fitted = {
        "ratio_growth": growth,
        "initial_norms_decreasing": float(initial_decreasing),
        "max_time_err": max(row["time_err"] for row in rows),
    }
    return ExperimentReport("inflate", rows, fitted, verdict,
                            tolerances={"min_ratio_growth": MIN_RATIO_GROWTH})


def _check_admissible_pair(p: float, q: float, d: int) -> None:
    """Reject (p, q) unless p, q >= 2, p < inf, (p, q) != (2, inf), and 2/p = d(1/2 - 1/q).

    The time norm is a trapezoid sum of |S(t)u0|_{L^q}^p, so p must be finite.
    """
    if not (p >= 2 and q >= 2):
        raise ExperimentError(f"admissible pairs need p, q >= 2, got ({p}, {q})")
    if p == np.inf:
        raise ExperimentError(f"the time exponent p must be finite, got {p}")
    if p == 2 and q == np.inf:
        raise ExperimentError("the pair (2, inf) is excluded")
    inv_q = 0.0 if q == np.inf else 1.0 / q
    if abs(2.0 / p - d * (0.5 - inv_q)) > 1e-9:
        raise ExperimentError(
            f"(p, q) = ({p}, {q}) is not admissible in d = {d}: need 2/p = d*(1/2 - 1/q)"
        )


def _check_N_list(N_list) -> list[float]:
    """Return N_list as floats; reject it unless strictly increasing with >= 2 entries,
    each finite and > 0 (the growth exponent is fitted in log N)."""
    N_list = [float(N) for N in N_list]
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ExperimentError(
            f"N_list must be strictly increasing with at least two entries, got {N_list}"
        )
    if not all(math.isfinite(N) and N > 0 for N in N_list):
        raise ExperimentError(f"every N in N_list must be finite and > 0, got {N_list}")
    return N_list


def check_strichartz_args(symbol: Symbol, p: float, q: float, k_grid, N_list,
                          interval=(0.0, 1.0), d: int = 1, box_L: float = 4.0,
                          include_contrast=True) -> tuple[list[float], list[float]]:
    """Reject every input :func:`run_strichartz_probe` cannot run, before any compute.

    Beyond the symbol's dimension, an admissible (p, q) and a valid N_list,
    this rejects a time interval (t0, t_end) that is not finite with
    0 <= t0 < t_end, a box_L that is not finite and > 0, an
    include_contrast (the config key ``contrast``) other than 0 or 1, an N
    whose grid needs more than _PROBE_MAX_POINTS points per axis or more
    than MAX_GRID_NODES nodes, an N whose N^2 is not finite, a row whose
    first :func:`_probe_samples` count, max(17, 2*ceil(M*|I|) + 1) for a
    bounded symbol with |P| <= M and max(1025, 2*ceil(2*N^2*|I|) + 1)
    otherwise, is not finite or above _PROBE_MAX_SAMPLES, and a non-finite
    k.  Doublings of a bounded row stop at the cap with a warning, never
    with an error.  Returns (k_grid, N_list) as floats.
    """
    if d not in (1, 2):
        raise ExperimentError(f"spatial dimension must be 1 or 2, got {d}")
    symbol.check_dims(d)
    _check_admissible_pair(p, q, d)
    N_list = _check_N_list(N_list)
    t0, t1 = interval
    if not (math.isfinite(t1) and 0 <= t0 < t1):
        raise ExperimentError(
            f"the time interval [t0, t_end] must be finite with 0 <= t0 < t_end, "
            f"got [{t0}, {t1}]"
        )
    if not (math.isfinite(box_L) and box_L > 0):
        raise ExperimentError(f"box_L must be finite and > 0, got {box_L}")
    if include_contrast not in (0, 1):
        raise ExperimentError(f"contrast must be 0 or 1, got {include_contrast}")
    symbols = _probe_symbols(symbol, include_contrast)
    for N in N_list:
        n = _probe_points(N, box_L)
        if n > _PROBE_MAX_POINTS:
            raise ExperimentError(f"probe at N = {N} needs n = {n} points per axis, "
                                  f"above the ceiling {_PROBE_MAX_POINTS}")
        if n**d > MAX_GRID_NODES:
            raise ExperimentError(f"probe at N = {N} needs n^d = {n}^{d} grid nodes, "
                                  f"above the cap MAX_GRID_NODES = {MAX_GRID_NODES}")
        if not math.isfinite(N * N):
            raise ExperimentError(f"the probe data at N = {N} need a finite N^2, got {N * N}")
        for sym in symbols:
            n_t = _probe_samples(sym, N, interval)
            if not n_t <= _PROBE_MAX_SAMPLES:
                raise ExperimentError(
                    f"probe of {sym.spec_string()} at N = {N} needs {n_t} time samples, "
                    f"above the ceiling {_PROBE_MAX_SAMPLES}"
                )
    k_grid = [float(k) for k in k_grid]
    if not all(math.isfinite(k) for k in k_grid):
        raise ExperimentError(f"every k in k_grid must be finite, got {k_grid}")
    return k_grid, N_list


def _probe_data(grid: Grid, N: float) -> np.ndarray:
    """Samples of the concentrated modulated bump N^(d/2) * a0(N*x) * exp(i*N*x_1)."""
    r2 = sum(c * c for c in grid.x)
    return N ** (grid.d / 2.0) * np.exp(-(N**2) * r2) * np.exp(1j * N * grid.x[0])


def _probe_points(N: float, box_L: float) -> int | float:
    """Points per axis of the probe grid at N: the least power of two >= 8 with
    8 nodes per length 1/N (dx = 2*box_L/n <= 1/(8N)).  The grid keeps every
    frequency up to xi_max >= 8*pi*N per axis, and a q = 4 row's transforms
    keep the central half, up to xi_max/2 >= 4*pi*N, beyond which the data's
    Gaussian spectrum (centred at N, standard deviation sqrt(2)*N) is at most
    3e-15 of its peak.  inf when 16*box_L*N overflows."""
    need = max(16.0 * box_L * N, 8.0)
    return 2 ** math.ceil(math.log2(need)) if math.isfinite(need) else math.inf


def _central_half(n: int) -> np.ndarray:
    """Indices of the central modes -n/4, ..., n/4 - 1 in the FFT order of an
    n-point axis, listed in the FFT order of an (n/2)-point axis."""
    return np.r_[:n // 4, n - n // 4:n]


# The least first count of a bounded probe row, and of every other row.
_PROBE_BOUNDED_MIN_SAMPLES = 17
_PROBE_MIN_SAMPLES = 1025
# The most a row may take: its times and L^q norms then stay within 256 MB.
_PROBE_MAX_SAMPLES = 2**24
# The most points per axis a probe grid may take.
_PROBE_MAX_POINTS = 16384


def _probe_bound(symbol: Symbol) -> float | None:
    """The sup bound M of a bounded symbol with |P| <= M, else None."""
    return symbol.bound if symbol.kind == BOUNDED else None


def _probe_samples(symbol: Symbol, N: float, interval) -> int | float:
    """First count of uniform time samples of the probe row of ``symbol`` at N; inf when it overflows.

    The count is odd, so that every row has a Richardson estimate
    (:func:`_probe_time_err`).  A bounded symbol with |P| <= M turns every
    mode by at most M*dt per sample, whatever N is, so its first count is
    max(17, 2*ceil(M*|I|) + 1): a sample turns the fastest mode by at most
    1/2 rad, and :func:`_probe_sweep` doubles the count on nested grids
    until the estimate certifies the row.  Every other symbol gets
    max(1025, 2*ceil(2*N^2*|I|) + 1), half the Laplacian's rate 4*N^2 at the
    data's frequencies, so it keeps 4*N^2*|I| + 1 samples wherever that is
    odd, and is never doubled.
    """
    t0, t1 = interval
    M = _probe_bound(symbol)
    least, rate = ((_PROBE_MIN_SAMPLES, 2.0 * N * N) if M is None
                   else (_PROBE_BOUNDED_MIN_SAMPLES, M))
    half_intervals = rate * (t1 - t0)
    if not math.isfinite(half_intervals):
        return math.inf
    return max(least, 2 * math.ceil(half_intervals) + 1)


def _probe_symbols(symbol: Symbol, include_contrast) -> list:
    """The probed symbol, then the Laplacian contrast when ``include_contrast`` is set."""
    return [symbol, make_symbol("laplacian")] if include_contrast else [symbol]


# Elements per batch of the probe (rows x grid nodes): ~4 MB of complex128.
# A batch shares one start phase exp(i t_lo P) * u0_hat, so Q's bits depend
# on the batch boundaries.  The row floor keeps large 2D grids from degrading
# to one-row batches, where the per-call overhead of the FFT dominates.
_PROBE_BATCH_ELEMENTS = 1 << 18
_PROBE_MIN_ROWS = 8
# Elements per chunk (1 MB of complex128, sized for an L2 cache of 2 MB per
# core): each lane streams its rows of every batch through one reused buffer
# of this many elements (at least one row), so the multiply, the inverse FFT
# and the L^q reduction of a chunk all run on data still in cache.
_PROBE_CHUNK_ELEMENTS = 1 << 16
# The calling thread and one helper thread; numpy's FFTs and ufuncs release
# the GIL, so the two lanes can run on two cores.
_PROBE_LANES = 2


def _probe_lq(pvals: np.ndarray, u0_hat: np.ndarray, times: np.ndarray, q: float,
              cell: float) -> np.ndarray:
    """|exp(i t P) u0|_{L^q} at every time of the uniform grid ``times``.

    The samples are taken in batches of _PROBE_BATCH_ELEMENTS complex values
    (at least _PROBE_MIN_ROWS rows).  On the uniform time grid
    exp(i t_{lo+j} P) = exp(i j dt P) * exp(i t_lo P), so one offset table
    exp(i j dt P) serves every batch, and a batch is the table times its
    start phase exp(i t_lo P) * u0_hat, followed by a batched inverse FFT.
    Every batch's rows are split between _PROBE_LANES lanes: the calling
    thread and helper threads started and joined once per call.  Each lane
    builds the table rows of its own share and streams them,
    _PROBE_CHUNK_ELEMENTS at a time (at least one row), through one complex
    buffer and one real scratch array, which the L^q reduction overwrites;
    the memory in flight is the table plus these two buffers per lane.
    Every value is bit-identical to a one-lane, unchunked run.  An exception
    in any lane is raised here after every helper has been joined.
    """
    n_t = times.size
    axes = tuple(range(1, u0_hat.ndim + 1))
    rows_per_batch = min(n_t, max(_PROBE_MIN_ROWS, _PROBE_BATCH_ELEMENTS // u0_hat.size))
    offsets = (times[-1] - times[0]) / (n_t - 1) * np.arange(rows_per_batch)
    lq = np.empty(n_t)
    errors = []

    def lane(first, stop):
        # rows [first, stop) of every batch
        try:
            table = _propagator(pvals, offsets[first:stop])
            rows = max(1, min(stop - first, _PROBE_CHUNK_ELEMENTS // u0_hat.size))
            buf = np.empty((rows,) + u0_hat.shape, dtype=table.dtype)
            scratch = np.empty(buf.shape)
            for lo in range(0, n_t, rows_per_batch):
                m = min(stop, n_t - lo) - first
                if m <= 0:  # only the last batch can be this short
                    break
                start = _propagator(pvals, times[lo]) * u0_hat
                for c in range(0, m, rows):
                    k = min(rows, m - c)
                    snaps = np.multiply(table[c:c + k], start, out=buf[:k])
                    np.fft.ifftn(snaps, axes=axes, out=snaps)
                    row = lo + first + c
                    lq[row:row + k] = _lq_norms(snaps, q, cell, axes, out=scratch[:k])
        except BaseException as exc:  # raised again once every lane is done
            errors.append(exc)

    bounds = [rows_per_batch * k // _PROBE_LANES for k in range(_PROBE_LANES + 1)]
    helpers = [threading.Thread(target=lane, args=rows, name="modnls-probe-lane")
               for rows in zip(bounds[1:-1], bounds[2:])]
    for thread in helpers:
        thread.start()
    lane(bounds[0], bounds[1])
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return lq


def _probe_time_err(times: np.ndarray, lq: np.ndarray, p: float, Q: float) -> float:
    """Richardson estimate |Q - Q_sub|/3/Q of Q's relative time error.

    Q_sub is the trapezoid over the even-indexed samples, the same interval
    at twice the spacing, so the estimate costs no transform.  nan when the
    count is even (the subsample misses t_end), which :func:`_probe_samples`
    never picks; an odd count is at least 3, since a uniform grid on I has
    at least 2 samples.  Q is positive.
    """
    if times.size % 2 == 0:
        return math.nan
    q_sub = spacetime_norm_from_samples(times[::2], lq[::2], p)
    return abs(Q - q_sub) / 3.0 / Q


def _probe_sweep(symbols, p: float, q: float, k_grid, N_list, interval, d: int,
                 box_L: float) -> list:
    """One list of rows per symbol, in N_list order.

    The grid, the data, its transform and its H^k norms do not depend on the
    symbol, so each is built once per N and shared by every symbol's row;
    each symbol first samples time at its own :func:`_probe_samples` count n.
    While a bounded symbol's row has a Richardson estimate
    (:func:`_probe_time_err`) above TIME_RTOL, its count doubles to 2n - 1
    on the nested grid: :func:`_probe_lq` runs on the n - 1 midpoints only,
    themselves a uniform grid, and their norms are interleaved with the old
    ones, so no sample is transformed twice and the new estimate compares
    Q with the previous Q.  The doubling stops when the row is certified,
    or with one warning that names the estimate when 2n - 1 would exceed
    _PROBE_MAX_SAMPLES; a nan estimate (an even count) stops it at once.
    Every other row keeps its first count.

    A q = 4 row whose data have a top-octave mass (:func:`_coeff_tail_mass`)
    of at most ROUNDING_FLOOR is sampled on every other node per axis: it
    transforms only the central half of the modes per axis
    (:func:`_central_half`) of u0_hat, scaled by 2^-d for the smaller
    inverse FFT, and of the symbol's lattice values, with the cell 2^d times
    the grid's.  The free flow keeps each mode's modulus, so those are the
    modes the half grid drops at every time.  |z|^4 = (z*conj(z))^2 is a
    trigonometric polynomial whose spectrum is bounded by the four-fold
    convolution of the Gaussian |u0_hat|, so the trapezoid rule on the half
    grid is exact for it up to aliases of relative weight e^(-4*pi^2), about
    7e-18.  Every other row, and every row of another q, transforms the full
    grid.

    A Q of 0 or not finite, which has no logarithm to fit, raises
    ExperimentError.
    """
    sweeps = [[] for _ in symbols]
    for N in N_list:
        grid = Grid(d, _probe_points(N, box_L), box_L)
        u0_hat = np.fft.fftn(_probe_data(grid, N))
        hk_norms = {f"hk_norm_{k:g}": _coeff_sobolev_norm(u0_hat, grid, k) for k in k_grid}
        modes, probe_hat, cell = slice(None), u0_hat, grid.cell
        if q == 4 and _coeff_tail_mass(u0_hat, grid) <= ROUNDING_FLOOR:
            modes = np.ix_(*[_central_half(grid.n)] * d)
            probe_hat, cell = u0_hat[modes] * 2.0**-d, cell * 2**d
        for symbol, rows in zip(symbols, sweeps):
            pvals = symbol.on_grid(grid)[modes]
            times = np.linspace(*interval, _probe_samples(symbol, N, interval))
            lq = _probe_lq(pvals, probe_hat, times, q, cell)
            while True:
                Q = spacetime_norm_from_samples(times, lq, p)
                if not (math.isfinite(Q) and Q > 0):
                    raise ExperimentError(f"probe of {symbol.spec_string()} at N = {N} gives "
                                          f"Q = {Q}, which has no logarithm to fit")
                time_err = _probe_time_err(times, lq, p, Q)
                # nan > TIME_RTOL is false, so an even count is never doubled
                if _probe_bound(symbol) is None or not time_err > TIME_RTOL:
                    break
                n_t = 2 * times.size - 1
                if n_t > _PROBE_MAX_SAMPLES:
                    warnings.warn(
                        f"probe of {symbol.spec_string()} at N = {N} is not certified in "
                        f"time: its Richardson estimate {time_err:.3e} (relative) at "
                        f"{times.size} samples exceeds TIME_RTOL = {TIME_RTOL:g}, and "
                        f"{n_t} samples exceed _PROBE_MAX_SAMPLES = {_PROBE_MAX_SAMPLES}",
                        stacklevel=3,
                    )
                    break
                # the nested grid keeps every old sample and transforms only the midpoints
                times = np.linspace(*interval, n_t)
                coarse, lq = lq, np.empty(n_t)
                lq[::2] = coarse
                lq[1::2] = _probe_lq(pvals, probe_hat, times[1::2], q, cell)
            rows.append({
                "symbol": symbol.spec_string(),
                "N": N,
                "grid_n": grid.n,
                "time_samples": times.size,
                "Q": Q,
                **hk_norms,
                "time_err": time_err,
            })
    return sweeps


# slack below d/2 - d/q that the fitted exponent of a bounded multiplier may
# fall short by and still pass
SLOPE_MARGIN = 0.1


def _fit_slope(N_list, q_values) -> tuple[float, float]:
    logn = np.log(np.asarray(N_list, dtype=float))
    logq = np.log(np.asarray(q_values, dtype=float))
    coeffs, residuals, *_ = np.polyfit(logn, logq, 1, full=True)
    rms = math.sqrt(float(residuals[0]) / len(logn)) if len(residuals) else 0.0
    return float(coeffs[0]), rms


def run_strichartz_probe(symbol: Symbol, p: float, q: float, k_grid, N_list,
                         interval=(0.0, 1.0), d: int = 1, box_L: float = 4.0,
                         include_contrast: bool = True) -> ExperimentReport:
    """Fit the growth exponent of the free flow's space-time norm over dyadic N.

    Q(N) is the L^p(I; L^q) norm of S(t)u0_N for the concentrated modulated
    family, so |u0_N|_{H^k} grows like N^k.  For bounded multipliers the
    fitted exponent khat must reach d/2 - d/q - SLOPE_MARGIN (no estimate
    better than Sobolev embedding); the standard second-order multiplier is
    rerun as a dispersive contrast, fitted as ``khat_contrast``, when
    ``include_contrast`` is set; it shares each N's grid, data and H^k norms.

    Each row's Q is the trapezoid over an odd number of uniform samples of
    the interval, each sample an L^q norm from :func:`_probe_lq`.  Its
    ``time_err`` is the Richardson estimate |Q - Q_sub|/3/Q of Q's relative
    time error, Q_sub the trapezoid over the even-indexed samples.  A
    bounded symbol's row starts at the :func:`_probe_samples` count, which
    turns its fastest mode by at most 1/2 rad per sample, and doubles it on
    nested grids until ``time_err <= TIME_RTOL`` or the count would exceed
    _PROBE_MAX_SAMPLES, which warns (:func:`_probe_sweep`); every other
    row, the contrast's included, keeps its first count.
    ``fitted.max_time_err`` and ``fitted.max_time_err_contrast`` are the
    largest ``time_err`` of each sweep.  The verdict does not read them.  A
    row's ``grid_n`` and H^k norms are those of the full grid, also where a
    q = 4 row transforms only its central half (:func:`_probe_sweep`).
    :func:`check_strichartz_args` checks every input before any compute.
    """
    k_grid, N_list = check_strichartz_args(symbol, p, q, k_grid, N_list, interval, d, box_L,
                                           include_contrast)

    symbols = _probe_symbols(symbol, include_contrast)
    sweeps = _probe_sweep(symbols, p, q, k_grid, N_list, interval, d, box_L)
    fitted = {}
    for suffix, sweep in zip(("", "_contrast"), sweeps):
        khat, residual = _fit_slope(N_list, [row["Q"] for row in sweep])
        fitted[f"khat{suffix}"] = khat
        fitted[f"khat{suffix}_residual"] = residual
        # np.max, unlike max, returns nan when any row's estimate is nan
        fitted[f"max_time_err{suffix}"] = float(np.max([row["time_err"] for row in sweep]))
    rows = [row for sweep in sweeps for row in sweep]

    inv_q = 0.0 if q == np.inf else 1.0 / q
    threshold = d / 2.0 - d * inv_q - SLOPE_MARGIN
    claim_applies = symbol.kind == BOUNDED
    fitted["claim_applies"] = float(claim_applies)
    verdict = (fitted["khat"] >= threshold) if claim_applies else True
    return ExperimentReport("strichartz", rows, fitted, verdict,
                            tolerances={"khat_min": threshold, "slope_margin": SLOPE_MARGIN})
