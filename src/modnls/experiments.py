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

import numpy as np

from .evolution import SolveConfig, evolve
from .reports import ExperimentReport
from .scaling import ScalingPlan
from .spectral import (
    Field,
    Grid,
    _coeff_sobolev_norm,
    _coeff_tail_mass,
    _lq_norms,
    _propagator,
    make_grid,
    sobolev_norm,
    spacetime_norm_from_samples,
)
from .symbols import BOUNDED, Symbol, make_symbol

__all__ = [
    "ExperimentError",
    "ode_phase_profile",
    "window_symbol",
    "check_ode_approx_args",
    "run_ode_approx",
    "check_inflate_args",
    "run_norm_inflation",
    "check_strichartz_args",
    "strichartz_probe_data",
    "run_strichartz_probe",
]


class ExperimentError(ValueError):
    """Invalid driver arguments."""


def _envelope(grid: Grid) -> np.ndarray:
    """The reference bump a0(y) = exp(-|y|^2) sampled on the grid."""
    return np.exp(-sum(c * c for c in grid.x))


def ode_phase_profile(tau: float, grid: Grid, kappa: float, lam: float,
                      sigma: float, eps: float) -> Field:
    """Closed-form phase-ODE solution kappa*a0*exp(-i*lam*(tau/eps)*kappa^2sig*a0^2sig).

    Its modulus is kappa*a0 nodewise, independently of tau.
    """
    if not eps > 0:
        raise ExperimentError(f"eps must be positive, got {eps}")
    return Field(grid, _phase_profile(tau, grid, kappa, lam, sigma, eps))


def _phase_profile(tau: float, grid: Grid, kappa: float, lam: float,
                   sigma: float, eps: float) -> np.ndarray:
    """Samples of :func:`ode_phase_profile`."""
    a0 = _envelope(grid)
    return kappa * a0 * _phase_rotation(tau, a0 ** (2.0 * sigma), kappa, lam, sigma, eps)


def _phase_rotation(tau: float, a0_2s: np.ndarray, kappa: float, lam: float,
                    sigma: float, eps: float) -> np.ndarray:
    """The phase-ODE flow over time tau from kappa*a0: exp(-i*lam*(tau/eps)*kappa^2sig*a0^2sig)."""
    phase = -(lam * tau / eps) * kappa ** (2.0 * sigma) * a0_2s
    return np.exp(1j * phase)


def _phase_profiles(grid: Grid, kappa: float, lam: float, sigma: float, eps: float,
                    dt: float):
    """Yield the samples of :func:`ode_phase_profile` at tau = 0, dt, 2*dt, ...

    phi(0) = kappa*a0 and the one-step rotation w are built once in closed
    form; every later sample is ``phi *= w`` in place, so the same array is
    yielded each time.  w is not the quotient phi(dt)/phi(0): a0 underflows
    to 0 on wide boxes, and 0/0 is NaN.  |w| = 1 up to rounding, so the
    modulus drifts by about 1e-16 relative per step.
    """
    a0 = _envelope(grid)
    w = _phase_rotation(dt, a0 ** (2.0 * sigma), kappa, lam, sigma, eps)
    phi = kappa * a0 + 0j
    del a0  # only phi and w stay alive between steps
    while True:
        yield phi
        phi *= w


def window_symbol(symbol: Symbol, plan: ScalingPlan, h: float) -> Symbol:
    """The rescaled multiplier xi -> h^(2*sigma*(d/2-s)) * P(xi/h)."""
    return symbol.rescaled(plan.window_amplitude(h), h)


def _window_steps(tau_star: float, eps: float, lam: float, kappa: float,
                  sigma: float, p_max: float, rotation_budget: float,
                  min_steps: int = 8) -> tuple[float, int]:
    # keep each sub-flow's phase rotation per step below rotation_budget rad
    rate = abs(lam) * kappa ** (2.0 * sigma) + p_max
    if rate <= 0:
        n = min_steps
    else:
        n = max(min_steps, math.ceil(tau_star * rate / (rotation_budget * eps)))
    return tau_star / n, n


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


def _check_finite_above(value: float, bound: float, label: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > bound):
        raise ExperimentError(f"{label} must be finite and > {bound:g}, got {value}")
    return value


def _check_window_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, lam: float,
                       rotation_budget: float) -> float:
    """The checks of run_norm_inflation and run_ode_approx; return rotation_budget as a float.

    rotation_budget is the largest phase rotation per step of either
    sub-flow, and divides the window length when the step count is chosen.
    """
    if grid.d != plan.d:
        raise ExperimentError(f"grid dimension {grid.d} does not match plan dimension {plan.d}")
    symbol.check_dims(grid.d)
    if not math.isfinite(lam):
        raise ExperimentError(f"lambda must be finite, got {lam}")
    return _check_finite_above(rotation_budget, 0.0, "rotation_budget")


def check_ode_approx_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, eps_list, r,
                          lam: float = 1.0,
                          rotation_budget: float = 0.02) -> tuple[list[float], int, float]:
    """Reject every input :func:`run_ode_approx` cannot run, before any evolution.

    Returns (eps_list as floats, int r, rotation_budget as a float).
    """
    rotation_budget = _check_window_args(plan, symbol, grid, lam, rotation_budget)
    if r != int(r) or not r > plan.d / 2.0:
        raise ExperimentError(f"regularity r must be an integer above d/2 = {plan.d / 2}, got {r}")
    r = int(r)
    if abs(plan.sigma - round(plan.sigma)) > 1e-12 and r > 2.0 * plan.sigma:
        raise ExperimentError(
            f"for non-integer sigma the regularity must satisfy r <= 2*sigma = {2 * plan.sigma}"
        )
    eps_list = _check_decreasing_sweep(eps_list, "eps_list")
    for eps in eps_list:
        plan.validate_h(plan.h_for_eps(eps))
    return eps_list, r, rotation_budget


def check_inflate_args(plan: ScalingPlan, symbol: Symbol, grid: Grid, h_list,
                       lam: float = 1.0, rotation_budget: float = 0.02,
                       min_ratio_growth: float = 3.0) -> tuple[list[float], float, float]:
    """Reject every input :func:`run_norm_inflation` cannot run, before any evolution.

    Returns (h_list, rotation_budget, min_ratio_growth) as floats.
    min_ratio_growth must be finite and > 1: a bound of 1 or below would
    pass a sweep whose norms do not inflate.
    """
    rotation_budget = _check_window_args(plan, symbol, grid, lam, rotation_budget)
    h_list = _check_h_list(plan, h_list)
    min_ratio_growth = _check_finite_above(min_ratio_growth, 1.0, "min_ratio_growth")
    return h_list, rotation_budget, min_ratio_growth


def _window_config(plan: ScalingPlan, symbol: Symbol, grid: Grid, h: float, kappa: float,
                   eps: float, lam: float, rotation_budget: float, every_step: bool):
    """Initial data psi0 = kappa*a0 and the solver config up to tau*(eps).

    Returns (psi0, cfg, n_steps, p_max) for :func:`evolve`.
    """
    tau_star = plan.tau_star_of_eps(eps)
    sym_h = window_symbol(symbol, plan, h)
    p_max = float(np.abs(sym_h.on_grid(grid)).max())
    dt, n_steps = _window_steps(tau_star, eps, lam, kappa, plan.sigma,
                                p_max, rotation_budget)
    psi0 = Field(grid, kappa * _envelope(grid))
    cfg = SolveConfig(sym_h, lam, plan.sigma, dt, tau_star, eps,
                      snapshot_every=1 if every_step else n_steps)
    return psi0, cfg, n_steps, p_max


def run_ode_approx(plan: ScalingPlan, symbol: Symbol, grid: Grid, eps_list,
                   r: int, lam: float = 1.0,
                   rotation_budget: float = 0.02) -> ExperimentReport:
    """Measure E(eps) = sup over the window of the H^r gap to the phase-ODE profile.

    The rescaled equation is integrated from kappa*a0 up to
    tau* = eps*log(1/eps)^delta, and E(eps) is the maximum over snapshot
    times (every step) of |psi(tau) - phi(tau)|_{H^r}, reduced while the
    stepper runs.  phi advances by one stored rotation per step and is
    rebuilt in closed form at tau*, so a snapshot costs one complex multiply
    and one FFT of phi; at tau* it also reads the ``tail_mass``.  Verdict:
    E strictly decreasing along the (decreasing) eps sweep, with
    E(min)/E(max) < 0.5.
    """
    eps_list, r, rotation_budget = check_ode_approx_args(plan, symbol, grid, eps_list, r, lam,
                                                         rotation_budget)

    rows = []
    for eps in eps_list:
        h = plan.h_for_eps(eps)
        kappa = plan.kappa(h)
        psi0, cfg, n_steps, p_max = _window_config(plan, symbol, grid, h, kappa, eps, lam,
                                                   rotation_budget, every_step=True)
        profiles = _phase_profiles(grid, kappa, lam, plan.sigma, eps, cfg.dt)
        gaps, tail = [], []

        def reduce_gap(tau, coeffs):
            # snapshots come at tau = k*dt, then at T; the gap is taken on coefficients
            if tau < cfg.T:
                phi = next(profiles)
            else:
                profiles.close()  # frees phi and w before the closed form at T
                phi = _phase_profile(tau, grid, kappa, lam, plan.sigma, eps)
                tail.append(_coeff_tail_mass(coeffs, grid))
            diff = np.fft.fftn(phi)
            np.subtract(coeffs, diff, out=diff)
            gaps.append(_coeff_sobolev_norm(diff, grid, r))

        evolve(psi0, cfg, reduce_gap)
        rows.append({
            "eps": eps,
            "h": h,
            "kappa": kappa,
            "tau_star": cfg.T,
            "n_steps": n_steps,
            "p_max": p_max,
            "E": max(gaps),
            "tail_mass": tail[0],
        })

    errors = [row["E"] for row in rows]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ratio = errors[-1] / errors[0] if errors[0] > 0 else 0.0
    verdict = decreasing and ratio < 0.5
    fitted = {"error_ratio": ratio, "strictly_decreasing": float(decreasing)}
    return ExperimentReport("ode_approx", rows, fitted, verdict,
                            tolerances={"max_error_ratio": 0.5})


def run_norm_inflation(plan: ScalingPlan, symbol: Symbol, grid: Grid, h_list,
                       lam: float = 1.0,
                       rotation_budget: float = 0.02,
                       min_ratio_growth: float = 3.0) -> ExperimentReport:
    """Track |u_h(t_h)|_{H^s} / |u0_h|_{H^s} along a decreasing h sweep.

    Norms of the unscaled solution are reconstructed from the rescaled run
    at s' in {0, s} and combined as sqrt(L2^2 + Hdot^s^2).  Verdict: the
    initial norms decrease monotonically and the inflation ratio grows by
    at least ``min_ratio_growth`` from the largest to the smallest h.  A
    row's ``tail_mass`` is read from the coefficients at the window end.

    The phase-ODE ratio at the window end grows like
    log(1/h)^(s*(delta - 2*sigma*theta)), so the ratio can only grow along
    the sweep when s*(delta - 2*sigma*theta) > 0.  The ``compute_scaling``
    and ``[inflate]`` defaults (theta = 0.05, delta = 0.1) meet it only for
    sigma < 1: at sigma = 2 the exponent is s*(0.1 - 0.2) < 0 for every
    s > 0, and the verdict fails at any h; delta = 8 gives 1.95 at s = 0.25.
    """
    h_list, rotation_budget, min_ratio_growth = check_inflate_args(
        plan, symbol, grid, h_list, lam, rotation_budget, min_ratio_growth)

    rows = []
    for h in h_list:
        eps = plan.eps(h)
        kappa = plan.kappa(h)
        psi0, cfg, n_steps, _ = _window_config(plan, symbol, grid, h, kappa, eps, lam,
                                               rotation_budget, every_step=False)
        tail = []

        def reduce_tail(t, coeffs):
            if t == cfg.T:
                tail.append(_coeff_tail_mass(coeffs, grid))

        psi_end = evolve(psi0, cfg, reduce_tail)

        l2_0 = sobolev_norm(psi0, 0.0)
        hs_0 = sobolev_norm(psi0, plan.s, homogeneous=True)
        l2_T = sobolev_norm(psi_end, 0.0)
        hs_T = sobolev_norm(psi_end, plan.s, homogeneous=True)
        hs_scale = h**plan.s
        u0_norm = math.hypot(hs_scale * l2_0, hs_0)
        uT_norm = math.hypot(hs_scale * l2_T, hs_T)
        rows.append({
            "h": h,
            "kappa": kappa,
            "eps": eps,
            "tau_star": cfg.T,
            "t_h": plan.t_h(h),
            "n_steps": n_steps,
            "u0_hs": u0_norm,
            "ut_hs": uT_norm,
            "ratio": uT_norm / u0_norm,
            "l2_drift": abs(l2_T - l2_0) / l2_0,
            "tail_mass": tail[0],
        })

    initial = [row["u0_hs"] for row in rows]
    ratios = [row["ratio"] for row in rows]
    initial_decreasing = all(b < a for a, b in zip(initial, initial[1:]))
    growth = ratios[-1] / ratios[0] if ratios[0] > 0 else 0.0
    verdict = initial_decreasing and growth >= min_ratio_growth
    fitted = {
        "ratio_growth": growth,
        "initial_norms_decreasing": float(initial_decreasing),
    }
    return ExperimentReport("inflate", rows, fitted, verdict,
                            tolerances={"min_ratio_growth": min_ratio_growth})


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
                          n_ceiling: int = 16384, include_contrast=True,
                          time_samples=None) -> tuple[list[float], list[float]]:
    """Reject every input :func:`run_strichartz_probe` cannot run, before any compute.

    Beyond the symbol's dimension, an admissible (p, q) and a valid N_list,
    this rejects a time interval (t0, t_end) that is not finite with
    0 <= t0 < t_end, a box_L that is not finite and > 0, an n_ceiling
    below 1, an include_contrast (the config key ``contrast``) other than 0
    or 1, an N whose grid needs more than n_ceiling points per axis, and a
    non-finite k.  Returns (k_grid, N_list) as floats.
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
    if not n_ceiling >= 1:
        raise ExperimentError(f"n_ceiling must be >= 1, got {n_ceiling}")
    if include_contrast not in (0, 1):
        raise ExperimentError(f"contrast must be 0 or 1, got {include_contrast}")
    for N in N_list:
        n = _probe_points(N, box_L)
        if n > n_ceiling:
            raise ExperimentError(
                f"probe at N = {N} needs n = {n} points per axis, above the ceiling {n_ceiling}"
            )
    k_grid = [float(k) for k in k_grid]
    if not all(math.isfinite(k) for k in k_grid):
        raise ExperimentError(f"every k in k_grid must be finite, got {k_grid}")
    return k_grid, N_list


def strichartz_probe_data(grid: Grid, N: float) -> Field:
    """Concentrated modulated bump N^(d/2) * a0(N*x) * exp(i*N*x_1)."""
    r2 = sum(c * c for c in grid.x)
    vals = N ** (grid.d / 2.0) * np.exp(-(N**2) * r2) * np.exp(1j * N * grid.x[0])
    return Field(grid, vals)


def _probe_points(N: float, box_L: float) -> int | float:
    """Points per axis of the probe grid at N: the least power of two >= 8 with
    8 nodes per length 1/N (dx = 2*box_L/n <= 1/(8N)).  Then xi_max = 8*pi*N,
    which also resolves frequencies up to ~12*N.  inf when 16*box_L*N overflows."""
    need = max(16.0 * box_L * N, 8.0)
    return 2 ** math.ceil(math.log2(need)) if math.isfinite(need) else math.inf


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


def _probe_sweep(symbols, p: float, q: float, k_grid, N_list, interval, d: int,
                 box_L: float, time_samples) -> list:
    """One list of rows per symbol, in N_list order.

    The grid, the data, its transform and its H^k norms do not depend on the
    symbol, so each is built once per N and shared by every symbol's row.
    """
    t0, t1 = interval
    sweeps = [[] for _ in symbols]
    for N in N_list:
        grid = make_grid(d, _probe_points(N, box_L), box_L)
        u0 = strichartz_probe_data(grid, N)
        n_t = max(1025, int(4.0 * N * N * (t1 - t0)) + 1) if time_samples is None else time_samples
        times = np.linspace(t0, t1, n_t)
        u0_hat = np.fft.fftn(u0.values)
        hk_norms = {f"hk_norm_{k:g}": _coeff_sobolev_norm(u0_hat, grid, k) for k in k_grid}
        for symbol, rows in zip(symbols, sweeps):
            lq = _probe_lq(symbol.on_grid(grid), u0_hat, times, q, grid.cell)
            rows.append({
                "symbol": symbol.spec_string(),
                "N": N,
                "grid_n": grid.n,
                "time_samples": n_t,
                "Q": spacetime_norm_from_samples(times, lq, p),
                **hk_norms,
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
                         n_ceiling: int = 16384, include_contrast: bool = True,
                         time_samples: int | None = None) -> ExperimentReport:
    """Fit the growth exponent of the free flow's space-time norm over dyadic N.

    Q(N) is the L^p(I; L^q) norm of S(t)u0_N for the concentrated modulated
    family, so |u0_N|_{H^k} grows like N^k.  For bounded multipliers the
    fitted exponent khat must reach d/2 - d/q - SLOPE_MARGIN (no estimate
    better than Sobolev embedding); the standard second-order multiplier is
    rerun as a dispersive contrast when ``include_contrast`` is set.

    ``time_samples`` fixes the number of uniform samples of the interval per
    N; None picks max(1025, 4*N^2*|I| + 1).  The samples are taken in
    batches of about 2^18 complex values (at least 8 rows): each batch is
    one offset table exp(i*j*dt*P), built once per N, times the batch's
    start exp(i*t_lo*P)*u0_hat, followed by a batched inverse FFT.  The
    rows of every batch are split between two lanes, the calling thread
    and one helper thread started and joined once per N.  Each lane
    transforms its half of the rows in its own half-batch buffer, so every
    Q is bit-identical to a one-lane run and the memory in flight is one
    batch.  The contrast shares each N's grid, data and H^k norms with
    ``symbol``.  :func:`check_strichartz_args` checks every input, including
    an N whose grid would need more than ``n_ceiling`` points per axis,
    before any compute.
    """
    k_grid, N_list = check_strichartz_args(symbol, p, q, k_grid, N_list, interval, d, box_L,
                                           n_ceiling, include_contrast, time_samples)

    symbols = [symbol, make_symbol("laplacian")] if include_contrast else [symbol]
    sweeps = _probe_sweep(symbols, p, q, k_grid, N_list, interval, d, box_L, time_samples)
    khat, residual = _fit_slope(N_list, [row["Q"] for row in sweeps[0]])
    fitted = {"khat": khat, "khat_residual": residual}
    if include_contrast:
        khat_contrast, res_contrast = _fit_slope(N_list, [row["Q"] for row in sweeps[1]])
        fitted["khat_contrast"] = khat_contrast
        fitted["khat_contrast_residual"] = res_contrast
    rows = [row for sweep in sweeps for row in sweep]

    inv_q = 0.0 if q == np.inf else 1.0 / q
    threshold = d / 2.0 - d * inv_q - SLOPE_MARGIN
    claim_applies = symbol.kind == BOUNDED
    fitted["claim_applies"] = float(claim_applies)
    verdict = (khat >= threshold) if claim_applies else True
    return ExperimentReport("strichartz", rows, fitted, verdict,
                            tolerances={"khat_min": threshold, "slope_margin": SLOPE_MARGIN})
