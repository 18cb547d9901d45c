"""Time integration of i*eps*du/dt + P(D)u = lambda*|u|^(2*sigma)*u.

Two independent discretizations of the same flow:

* :func:`evolve` composes the two exactly solvable sub-flows (free
  propagation in spectral space, pointwise phase rotation in physical
  space) in a Strang splitting.  Both halves preserve the L2 norm
  exactly, so only rounding accumulates.  The state lives in Fourier
  space between kicks: a step is two half-step multiplications and one
  inverse/forward transform pair around the kick, so it costs 2 FFTs
  whatever the snapshot cadence.  It takes and returns raw coefficients.
  Snapshots are neither stored nor measured; each one is handed, as raw
  coefficients, to an optional reducer that computes what the caller
  needs (norms, tail masses, gaps to a reference).
* :func:`picard_solve` iterates the integral fixed-point map
  Phi(u)(t) = S(t)u0 - i*(lambda/eps) * int_0^t S(t-tau) |u|^(2sigma)u dtau
  on a stored time mesh with trapezoid quadrature, and serves as a
  cross-validation oracle for the split-step path.  It needs numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    _check_on_grid,
    _coeff_sobolev_norm,
    _coeff_tail_mass,
    _plancherel_scale,
    _propagator,
    _sobolev_weight,
    _spatial_tail_mass,
)
from .spectral import spectral_tail_mass  # noqa: F401  (perfbench's tracer wraps it here)
from .symbols import Symbol

__all__ = [
    "EvolutionError",
    "PicardDivergenceError",
    "SolveConfig",
    "PicardReport",
    "sigma_is_admissible",
    "evolve",
    "picard_solve",
]

TAIL_WARN_THRESHOLD = 1e-8
# The most Strang steps one run may take: more means a dt no run could finish.
MAX_STEPS = 2**24


class EvolutionError(RuntimeError):
    """Integration failure (non-finite values, invalid configuration)."""


class PicardDivergenceError(EvolutionError):
    """Fixed-point iteration failed to contract; carries the distance history."""

    def __init__(self, message: str, distances: list[float]):
        super().__init__(message)
        self.distances = list(distances)
        self.ratios = _ratios(distances)


def _ratios(distances) -> list[float]:
    return [
        distances[i] / distances[i - 1] if distances[i - 1] > 0 else 0.0
        for i in range(1, len(distances))
    ]


def sigma_is_admissible(sigma: float, d: int) -> bool:
    """True when sigma is an integer, or some integer r satisfies 2*sigma >= r > d/2."""
    if abs(sigma - round(sigma)) < 1e-12:
        return True
    return math.floor(2.0 * sigma + 1e-12) > d / 2.0


@dataclass(frozen=True)
class SolveConfig:
    """Parameters of one integration run.

    eps is the semiclassical factor multiplying i*du/dt; eps = 1 gives the
    unscaled equation.  A snapshot is taken after every ``snapshot_every``
    steps, an integer >= 1.  A run is ``n_steps`` <= MAX_STEPS steps: dt
    each, but the last is ``last_dt``, shortened when T is not a multiple of dt.
    """

    symbol: Symbol
    lam: float
    sigma: float
    dt: float
    T: float
    eps: float = 1.0
    snapshot_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise EvolutionError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise EvolutionError(f"final time must be finite and >= 0, got {self.T}")
        if not self.sigma > 0:
            raise EvolutionError(f"nonlinearity power sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.sigma):
            raise EvolutionError(f"nonlinearity power sigma must be finite, got {self.sigma}")
        if not math.isfinite(self.lam):
            raise EvolutionError(f"lambda must be finite, got {self.lam}")
        if not 0 < self.eps <= 1:
            raise EvolutionError(f"eps must lie in (0, 1], got {self.eps}")
        if not (isinstance(self.snapshot_every, (int, np.integer)) and self.snapshot_every >= 1):
            raise EvolutionError(
                f"snapshot_every must be an integer >= 1, got {self.snapshot_every!r}")
        ratio = self.T / self.dt + 1e-9
        n_full = math.floor(ratio) if math.isfinite(ratio) else math.inf
        remainder = self.T - n_full * self.dt
        shortened = remainder > 1e-12 * self.dt
        object.__setattr__(self, "n_steps", n_full + shortened)
        object.__setattr__(self, "last_dt", remainder if shortened else self.dt)
        if self.n_steps > MAX_STEPS:
            raise EvolutionError(f"T = {self.T} at dt = {self.dt} needs {self.n_steps:.6g} "
                                 f"Strang steps, above MAX_STEPS = {MAX_STEPS}")


def _phase_kick(values: np.ndarray, lam: float, sigma: float, dt: float, eps: float,
                work: np.ndarray, angle: np.ndarray) -> None:
    """Multiply ``values`` in place by exp(-i*(lam*dt/eps)*|values|^(2*sigma)).

    |values|^(2*sigma) is (re^2 + im^2)^sigma, which numpy squares directly
    for sigma = 2.  It is built in ``angle``, a real scratch array shaped
    like ``values``, and the rotation is written as a real cos and sin into
    ``work``, a complex scratch array shaped like ``values`` that also holds
    im^2 on the way.  Both scratch arrays are overwritten.
    """
    if lam == 0.0 or dt == 0.0:
        return
    # overflow is anticipated for blow-up data; the caller checks finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(values.real, out=angle)
        angle += np.square(values.imag, out=work.real)
        angle **= sigma
        angle *= -(lam * dt / eps)
        np.cos(angle, out=work.real)
        np.sin(angle, out=work.imag)
        values *= work


def _warn_initial_tails(values: np.ndarray, coeffs: np.ndarray, grid: Grid) -> None:
    """Warn when the initial data, as samples and as their ``np.fft.fftn`` coefficients,
    carry more than TAIL_WARN_THRESHOLD of tail mass in space or frequency."""
    for label, mass in (("spatial", _spatial_tail_mass(values, grid)),
                        ("spectral", _coeff_tail_mass(coeffs, grid))):
        if mass > TAIL_WARN_THRESHOLD:
            warnings.warn(
                f"initial data {label} tail mass {mass:.3e} exceeds "
                f"{TAIL_WARN_THRESHOLD:.0e}; box or resolution may be too small",
                stacklevel=2,
            )


def evolve(u0_hat: np.ndarray, cfg: SolveConfig, grid: Grid, on_snapshot=None) -> np.ndarray:
    """Integrate from the raw coefficients ``u0_hat`` with repeated Strang steps; return them at T.

    ``u0_hat`` is copied, never written, so one array can start many runs.
    A shape other than ``grid.shape`` or a non-finite coefficient raises
    SpectralError before any step; the tail check is the caller's.

    Each step is a free half-step, the full phase kick, and a free half-step.
    The state is kept as its raw ``np.fft.fftn`` coefficients u_hat between
    steps, so one step is ``u_hat *= half; v = ifftn(u_hat); v = kick(v);
    u_hat = fftn(v); u_hat *= half``: 2 FFTs, with no round trip to
    physical space at a snapshot.

    A snapshot is taken at t = 0, after every ``snapshot_every`` steps, and
    at T.  The stepper computes nothing there: it only calls
    ``on_snapshot(t, coeffs)``, when given, with the coefficients: raw
    ``np.fft.fftn`` scaling (multiply by sqrt(cell / n^d) for the
    Plancherel-normalized ones), read-only, and valid only during the call,
    since the stepper overwrites them in place afterwards.  A reducer that
    needs them later must copy them.

    The final snapshot lands exactly on T.  The return value is u_hat
    there, a new array the caller owns (a copy of ``u0_hat`` when T = 0).
    Aborts with the step index when values stop being finite.
    """
    _check_on_grid(u0_hat, grid, "initial coefficients")
    u_hat = np.array(u0_hat, dtype=np.complex128)
    coeffs = u_hat.view()  # the reducers' read-only view; u_hat only changes in place
    coeffs.flags.writeable = False
    if on_snapshot is not None:
        on_snapshot(0.0, coeffs)
    pvals = cfg.symbol.on_grid(grid)
    v = np.empty_like(u_hat)
    angle = np.empty(grid.shape)
    half_step = None
    for k in range(cfg.n_steps):
        last = k + 1 == cfg.n_steps
        step = cfg.last_dt if last else cfg.dt
        if step != half_step:  # the free half-step multiplier, built per step length
            half_step = step
            half = _propagator(pvals, step / (2.0 * cfg.eps))
        u_hat *= half
        np.fft.ifftn(u_hat, out=v)
        _phase_kick(v, cfg.lam, cfg.sigma, step, cfg.eps, work=u_hat, angle=angle)
        np.fft.fftn(v, out=u_hat)
        u_hat *= half
        if not np.all(np.isfinite(u_hat)):
            raise EvolutionError(f"non-finite values at step {k + 1} of {cfg.n_steps}")
        if on_snapshot is not None and ((k + 1) % cfg.snapshot_every == 0 or last):
            on_snapshot(cfg.T if last else (k + 1) * cfg.dt, coeffs)
    return u_hat


def _cumulative_trapezoid(f: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``f`` along axis 0 from times[0] to every node, 0 at the first."""
    d = np.diff(times).reshape((-1,) + (1,) * (f.ndim - 1))
    cum = np.empty_like(f)
    cum[0] = 0.0
    cum[1:] = np.cumsum(d * (f[1:] + f[:-1]) / 2.0, axis=0)
    return cum


@dataclass(frozen=True)
class PicardReport:
    converged: bool
    distances: tuple
    ratios: tuple
    n_time: int
    mesh_refinements: tuple  # (intervals, final-coefficient L2 change) per refinement
    # the last refinement moved the final field by less than tol/10; False
    # when it did not, or when no refinement fit under max_time_intervals
    quadrature_met: bool


def picard_solve(
    u0_hat: np.ndarray,
    cfg: SolveConfig,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 30,
    s: float = 0.0,
    n_time: int = 64,
    max_time_intervals: int = 1024,
):
    """Solve by fixed-point iteration of the Duhamel map; returns (coefficients at T, report).

    ``u0_hat`` is checked, copied and never written, as in :func:`evolve`.
    Iterates from u^(0) = S(.)u0 until the sup-in-time H^s distance between
    successive iterates drops below tol.  The time mesh starts at ``n_time``
    uniform intervals on [0, T] and doubles until the quadrature moves the
    final field by less than tol/10 in L2; ``report.quadrature_met`` says whether
    that happened within ``max_time_intervals``.  Raises :class:`PicardDivergenceError`
    (with the contraction-ratio history) when the iteration fails to
    contract within max_iter sweeps.
    """
    _check_on_grid(u0_hat, grid, "initial coefficients")
    if cfg.T <= 0:
        return np.array(u0_hat, dtype=complex), PicardReport(True, (), (), 0, (), True)
    pvals = cfg.symbol.on_grid(grid)
    axes = tuple(range(1, grid.d + 1))
    scale = _plancherel_scale(grid)
    weight = _sobolev_weight(grid, s)

    def solve_on_mesh(intervals: int):
        times = np.linspace(0.0, cfg.T, intervals + 1)
        prop = _propagator(pvals, times / cfg.eps)
        u_hat = prop * u0_hat
        distances = []
        for _ in range(max_iter):
            with np.errstate(over="ignore", invalid="ignore"):
                u_phys = np.fft.ifftn(u_hat, axes=axes)
                nl = np.abs(u_phys) ** (2.0 * cfg.sigma) * u_phys
                integrand = prop.conj() * np.fft.fftn(nl, axes=axes)
                cum = _cumulative_trapezoid(integrand, times)
                new_hat = prop * (u0_hat - 1j * (cfg.lam / cfg.eps) * cum)
                diff2 = np.abs(new_hat - u_hat) ** 2
                dist = float(np.sqrt(np.max(np.sum(weight * diff2, axis=axes)))) * scale
            distances.append(dist)
            u_hat = new_hat
            if dist < tol:
                return u_hat[-1].copy(), distances
        raise PicardDivergenceError(
            f"no contraction to tol = {tol} within {max_iter} iterations on "
            f"{intervals} time intervals (T = {cfg.T} may be too large); "
            f"distance history: {distances}",
            distances,
        )

    intervals = n_time
    final_hat, distances = solve_on_mesh(intervals)
    refinements = []
    while intervals * 2 <= max_time_intervals:
        finer_hat, finer_dists = solve_on_mesh(intervals * 2)
        change = _coeff_sobolev_norm(finer_hat - final_hat, grid, 0.0)
        intervals *= 2
        refinements.append((intervals, change))
        final_hat, distances = finer_hat, finer_dists
        if change < tol / 10.0:
            break
    quadrature_met = bool(refinements) and refinements[-1][1] < tol / 10.0
    if refinements and not quadrature_met:
        warnings.warn(
            f"Duhamel quadrature still moving the answer by {refinements[-1][1]:.3e} "
            f"at {intervals} time intervals",
            stacklevel=2,
        )

    report = PicardReport(
        converged=True,
        distances=tuple(distances),
        ratios=tuple(_ratios(distances)),
        n_time=intervals,
        mesh_refinements=tuple(refinements),
        quadrature_met=quadrature_met,
    )
    return final_hat, report
