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


def _window_steps(tau_star: float, eps: float, lam: float, kappa: float,
                  sigma: float, p_max: float, min_steps: int = 8) -> int:
    """The pilot step count of a window: the first run of :func:`_certified_row`.

    It keeps each sub-flow's phase rotation per step of tau*/n below
    ROTATION_BUDGET rad: the kick turns the bump's peak by
    |lam|*kappa^(2*sigma)*dt/eps, the free flow turns a mode by at most
    p_max*dt/eps.  At least ``min_steps``.  Step doubling then chooses the
    step count the row reports, so the budget sets where doubling starts,
    not the time error.
    """
    rate = abs(lam) * kappa ** (2.0 * sigma) + p_max
    if rate <= 0:
        return min_steps
    return max(min_steps, math.ceil(tau_star * rate / (ROTATION_BUDGET * eps)))


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
        plan.validate_h(h)
    return h_list


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
        plan.validate_h(plan.h_for_eps(eps))
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


def _window_config(plan: ScalingPlan, symbol: Symbol, grid: Grid, h: float, kappa: float,
                   eps: float, lam: float):
    """A row's initial data psi0 = kappa*a0 and its solver configs up to tau*(eps).

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
    psi0 = kappa * _envelope(grid)
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
        psi0_hat, config, n0, p_max = _window_config(plan, symbol, grid, h, kappa, eps, lam)

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

    rows = []
    for h in h_list:
        eps = plan.eps(h)
        kappa = plan.kappa(h)
        psi0_hat, config, n0, _ = _window_config(plan, symbol, grid, h, kappa, eps, lam)
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
                          include_contrast=True,
                          time_samples=None) -> tuple[list[float], list[float]]:
    """Reject every input :func:`run_strichartz_probe` cannot run, before any compute.

    Beyond the symbol's dimension, an admissible (p, q) and a valid N_list,
    this rejects a time interval (t0, t_end) that is not finite with
    0 <= t0 < t_end, a box_L that is not finite and > 0, an
    include_contrast (the config key ``contrast``) other than 0 or 1, an N
    whose grid needs more than _PROBE_MAX_POINTS points per axis or more
    than MAX_GRID_NODES nodes, an N whose N^2 is not finite, a row whose
    :func:`_probe_samples` count is not finite or above _PROBE_MAX_SAMPLES,
    and a non-finite k.  Returns (k_grid, N_list) as floats.
    """
    if d not in (1, 2):
        raise ExperimentError(f"spatial dimension must be 1 or 2, got {d}")
    symbol.check_dims(d)
    _check_admissible_pair(p, q, d)
    N_list = _check_N_list(N_list)
    if time_samples is not None and not (
            isinstance(time_samples, (int, np.integer)) and time_samples >= 2):
        raise ExperimentError(
            f"time_samples must be None or an integer >= 2, got {time_samples!r}"
        )
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
            n_t = _probe_samples(sym, N, interval, time_samples)
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
    8 nodes per length 1/N (dx = 2*box_L/n <= 1/(8N)).  Then xi_max = 8*pi*N,
    which also resolves frequencies up to ~12*N.  inf when 16*box_L*N overflows."""
    need = max(16.0 * box_L * N, 8.0)
    return 2 ** math.ceil(math.log2(need)) if math.isfinite(need) else math.inf


# The least time-sample count the rule of _probe_samples gives a row.
_PROBE_MIN_SAMPLES = 1025
# The most a row may take: its times and L^q norms then stay within 256 MB.
_PROBE_MAX_SAMPLES = 2**24
# The most points per axis a probe grid may take.
_PROBE_MAX_POINTS = 16384


def _probe_samples(symbol: Symbol, N: float, interval, time_samples) -> int | float:
    """Uniform time samples of the probe row of ``symbol`` at N; inf when the count overflows.

    An explicit ``time_samples`` serves every symbol.  A bounded symbol with
    |P| <= M turns every mode by at most M*dt per sample, whatever N is, so
    it gets max(1025, 2*ceil(128*M*|I|) + 1): an odd count whose spacing
    turns the fastest mode by at most 2^-8 rad.  Every other symbol gets
    max(1025, 4*N^2*|I| + 1), the Laplacian's rate at the data's frequencies.
    """
    if time_samples is not None:
        return time_samples
    t0, t1 = interval
    if symbol.kind == BOUNDED and symbol.bound is not None:
        # half the sample intervals that keep M*dt <= 2^-8
        half_intervals = 128.0 * symbol.bound * (t1 - t0)
        if not math.isfinite(half_intervals):
            return math.inf
        return max(_PROBE_MIN_SAMPLES, 2 * math.ceil(half_intervals) + 1)
    rate = 4.0 * N * N * (t1 - t0)
    return max(_PROBE_MIN_SAMPLES, int(rate) + 1) if math.isfinite(rate) else math.inf


def _probe_symbols(symbol: Symbol, include_contrast) -> list:
    """The probed symbol, then the Laplacian contrast when ``include_contrast`` is set."""
    return [symbol, make_symbol("laplacian")] if include_contrast else [symbol]


# Elements per batch of the probe (rows x grid nodes): ~4 MB of complex128
# keeps the phase table, the batch and its transform in cache.  The row floor
# keeps large 2D grids from degrading to one-row batches, where the per-call
# overhead of the FFT dominates.  Each of the _PROBE_LANES lanes transforms
# its own slice of every batch's rows in a buffer of that slice's size, so
# the lanes together hold one batch, as a single lane would.
_PROBE_BATCH_ELEMENTS = 1 << 18
_PROBE_MIN_ROWS = 8
# The calling thread and one helper thread; numpy's FFTs and ufuncs release
# the GIL, so the two lanes run on two cores.
_PROBE_LANES = 2


def _probe_lq(pvals: np.ndarray, u0_hat: np.ndarray, times: np.ndarray, q: float,
              cell: float) -> np.ndarray:
    """|exp(i t P) u0|_{L^q} at every time of the uniform grid ``times``.

    On the uniform time grid exp(i t_{lo+j} P) = exp(i j dt P) * exp(i t_lo P):
    one offset table serves every batch, and each lane pays one exp per node
    and batch for the start phase instead of one per sample and node.  Every
    batch's rows are split between _PROBE_LANES lanes, the calling thread and
    helper threads started and joined here; an exception in a helper is raised
    here after every helper has been joined.
    """
    n_t = times.size
    axes = tuple(range(1, u0_hat.ndim + 1))
    rows_per_batch = min(n_t, max(_PROBE_MIN_ROWS, _PROBE_BATCH_ELEMENTS // u0_hat.size))
    offsets = (times[-1] - times[0]) / (n_t - 1) * np.arange(rows_per_batch)
    table = _propagator(pvals, offsets)
    lq = np.empty(n_t)

    def lane(first, stop):
        # rows [first, stop) of every batch; one buffer per lane and N, since a
        # fresh array per batch page-faults
        buf = np.empty((stop - first,) + u0_hat.shape, dtype=table.dtype)
        for lo in range(0, n_t, rows_per_batch):
            m = min(stop, n_t - lo) - first
            if m <= 0:  # only the last batch can be this short
                break
            start = _propagator(pvals, times[lo]) * u0_hat
            snaps = np.multiply(table[first:first + m], start, out=buf[:m])
            np.fft.ifftn(snaps, axes=axes, out=snaps)
            lq[lo + first:lo + first + m] = _lq_norms(snaps, q, cell, axes)

    errors = []

    def helper(first, stop):
        try:
            lane(first, stop)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    bounds = [rows_per_batch * k // _PROBE_LANES for k in range(_PROBE_LANES + 1)]
    helpers = [threading.Thread(target=helper, args=rows, name="modnls-probe-lane")
               for rows in zip(bounds[1:-1], bounds[2:])]
    for thread in helpers:
        thread.start()
    try:
        lane(bounds[0], bounds[1])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return lq


def _probe_time_err(times: np.ndarray, lq: np.ndarray, p: float, Q: float) -> float:
    """Richardson estimate |Q - Q_sub|/3/Q of Q's relative time error.

    Q_sub is the trapezoid over the even-indexed samples, the same interval
    at twice the spacing, so the estimate costs no transform.  nan when the
    count is even (the subsample misses t_end); an odd count is at least 3,
    since the check admits no fewer than 2 samples.  Q is positive.
    """
    if times.size % 2 == 0:
        return math.nan
    q_sub = spacetime_norm_from_samples(times[::2], lq[::2], p)
    return abs(Q - q_sub) / 3.0 / Q


def _probe_sweep(symbols, p: float, q: float, k_grid, N_list, interval, d: int,
                 box_L: float, time_samples) -> list:
    """One list of rows per symbol, in N_list order.

    The grid, the data, its transform and its H^k norms do not depend on the
    symbol, so each is built once per N and shared by every symbol's row;
    each symbol samples time at its own :func:`_probe_samples` count.  A Q
    of 0 or not finite, which has no logarithm to fit, raises ExperimentError.
    """
    sweeps = [[] for _ in symbols]
    for N in N_list:
        grid = Grid(d, _probe_points(N, box_L), box_L)
        u0_hat = np.fft.fftn(_probe_data(grid, N))
        hk_norms = {f"hk_norm_{k:g}": _coeff_sobolev_norm(u0_hat, grid, k) for k in k_grid}
        for symbol, rows in zip(symbols, sweeps):
            times = np.linspace(*interval, _probe_samples(symbol, N, interval, time_samples))
            lq = _probe_lq(symbol.on_grid(grid), u0_hat, times, q, grid.cell)
            Q = spacetime_norm_from_samples(times, lq, p)
            if not (math.isfinite(Q) and Q > 0):
                raise ExperimentError(f"probe of {symbol.spec_string()} at N = {N} gives "
                                      f"Q = {Q}, which has no logarithm to fit")
            rows.append({
                "symbol": symbol.spec_string(),
                "N": N,
                "grid_n": grid.n,
                "time_samples": times.size,
                "Q": Q,
                **hk_norms,
                "time_err": _probe_time_err(times, lq, p, Q),
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
                         include_contrast: bool = True,
                         time_samples: int | None = None) -> ExperimentReport:
    """Fit the growth exponent of the free flow's space-time norm over dyadic N.

    Q(N) is the L^p(I; L^q) norm of S(t)u0_N for the concentrated modulated
    family, so |u0_N|_{H^k} grows like N^k.  For bounded multipliers the
    fitted exponent khat must reach d/2 - d/q - SLOPE_MARGIN (no estimate
    better than Sobolev embedding); the standard second-order multiplier is
    rerun as a dispersive contrast when ``include_contrast`` is set.

    ``time_samples`` fixes the number of uniform samples of the interval per
    N for every symbol; None lets :func:`_probe_samples` pick each row's
    count from its symbol: max(1025, 2*ceil(128*M*|I|) + 1) for a bounded
    symbol with |P| <= M, max(1025, 4*N^2*|I| + 1) for the others, the
    contrast included.  Each row's ``time_err`` is the Richardson estimate
    |Q - Q_sub|/3/Q of its relative time error, Q_sub the trapezoid over the
    even-indexed samples (nan for an even count); ``fitted.max_time_err``
    and ``fitted.max_time_err_contrast`` are the largest of each sweep.  The
    verdict does not read them.  The samples are taken in
    batches of about 2^18 complex values (at least 8 rows): each batch is
    one offset table exp(i*j*dt*P), built once per N, times the batch's
    start exp(i*t_lo*P)*u0_hat, followed by a batched inverse FFT.  The
    rows of every batch are split between two lanes, the calling thread
    and one helper thread started and joined once per N.  Each lane
    transforms its half of the rows in its own half-batch buffer, so every
    Q is bit-identical to a one-lane run and the memory in flight is one
    batch.  The contrast shares each N's grid, data and H^k norms with
    ``symbol``.  :func:`check_strichartz_args` checks every input, including
    an N whose grid would need more than _PROBE_MAX_POINTS points per axis
    or more than MAX_GRID_NODES nodes, before any compute.
    """
    k_grid, N_list = check_strichartz_args(symbol, p, q, k_grid, N_list, interval, d, box_L,
                                           include_contrast, time_samples)

    symbols = _probe_symbols(symbol, include_contrast)
    sweeps = _probe_sweep(symbols, p, q, k_grid, N_list, interval, d, box_L, time_samples)
    khat, residual = _fit_slope(N_list, [row["Q"] for row in sweeps[0]])
    # np.max, unlike max, returns nan when any row's estimate is nan
    fitted = {"khat": khat, "khat_residual": residual,
              "max_time_err": float(np.max([row["time_err"] for row in sweeps[0]]))}
    if include_contrast:
        khat_contrast, res_contrast = _fit_slope(N_list, [row["Q"] for row in sweeps[1]])
        fitted["khat_contrast"] = khat_contrast
        fitted["khat_contrast_residual"] = res_contrast
        fitted["max_time_err_contrast"] = float(np.max([row["time_err"] for row in sweeps[1]]))
    rows = [row for sweep in sweeps for row in sweep]

    inv_q = 0.0 if q == np.inf else 1.0 / q
    threshold = d / 2.0 - d * inv_q - SLOPE_MARGIN
    claim_applies = symbol.kind == BOUNDED
    fitted["claim_applies"] = float(claim_applies)
    verdict = (khat >= threshold) if claim_applies else True
    return ExperimentReport("strichartz", rows, fitted, verdict,
                            tolerances={"khat_min": threshold, "slope_margin": SLOPE_MARGIN})
