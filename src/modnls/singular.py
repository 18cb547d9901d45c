"""Radial probe for loss of critical regularity from log-singular data (d = 2).

The data u0(x) = delta * log(1/|x|)^alpha * chi(|x|^2), with alpha =
1/(4*sigma + 2), lies in H^1(R^2), but the phase-ODE flow
v(t) = u0 * exp(-i*lambda*t*|u0|^(2*sigma)) leaves H^1 instantly: the
gradient picks up the factor 1 + 4*sigma^2*lambda^2*t^2*|u0|^(4*sigma),
whose radial H^1 integrand decays only like 1/(r^2 * log(1/r)) near the
origin.  No grid can resolve that, so the probe integrates the exact radial
integrands: in closed form in u = log(1/r) on the chi plateau r <= 1/2, and
by :func:`quad` only on the chi transition 1/2 < r < 3/4; beyond r = 3/4
both vanish.  :func:`quad` applies Gauss-Legendre rules in u with 32, 64,
128, ... nodes to both integrands at once, each rule evaluating the profile
once on an array, and stops when two successive rules agree to
``quad_tol`` relative on both.  Each rule is built once per process, on
first use, by Newton's method on the Legendre three-term recurrence in numpy
alone, without ``numpy.polynomial``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .reports import ExperimentReport

__all__ = [
    "SingularProbeError",
    "singular_alpha",
    "check_probe_args",
    "log_singular_profile",
    "run_singular_probe",
]

# chi(z) = 1 for z <= 1/4 (|x| <= 1/2) and 0 for z >= 9/16 (|x| >= 3/4),
# with a smooth exp(-1/t) transition in between
CHI_INNER = 0.25
CHI_OUTER = 0.5625
# the same edges as radii: chi(r^2) == 1 for r <= 1/2 and u0 == 0 for r >= 3/4
R_PLATEAU = 0.5
R_CUT = 0.75


class SingularProbeError(ValueError):
    """Invalid probe arguments or failed quadrature."""


def singular_alpha(sigma: float) -> float:
    """The critical log exponent alpha = 1/(4*sigma + 2)."""
    if not sigma > 0:
        raise SingularProbeError(f"sigma must be positive, got {sigma}")
    if not math.isfinite(sigma):
        raise SingularProbeError(f"sigma must be finite, got {sigma}")
    return 1.0 / (4.0 * sigma + 2.0)


def _chi_pair(z):
    """(chi(z), chi'(z)) from one evaluation of the bump f(t) = exp(-1/t).

    chi = f(1-t) / (f(t) + f(1-t)) with t = (z - 1/4) / (9/16 - 1/4), and
    f'(s) = f(s) / s^2 gives the derivative without a second pass.
    """
    z = np.asarray(z, dtype=np.float64)
    t = (z - CHI_INNER) / (CHI_OUTER - CHI_INNER)
    c = np.where(t <= 0, 1.0, np.where(t >= 1, 0.0, np.nan))
    cp = np.zeros_like(t)
    mid = (t > 0) & (t < 1)
    if np.any(mid):
        tm = t[mid]
        sm = 1.0 - tm
        f_t, f_1t = np.exp(-1.0 / tm), np.exp(-1.0 / sm)
        total = f_t + f_1t
        c[mid] = f_1t / total
        cp[mid] = -(f_1t / sm**2 * f_t + f_t / tm**2 * f_1t) / total**2
    return c, cp / (CHI_OUTER - CHI_INNER)


def log_singular_profile(delta_amp: float, sigma: float, r_values):
    """Exact samples of the radial profile u0 and its derivative d(u0)/dr.

    Where chi is identically 1 the derivative reduces to the closed form
    -delta * alpha * r^-1 * log(1/r)^(alpha - 1).
    Returns a pair of arrays matching r_values.
    """
    alpha = singular_alpha(sigma)
    r = np.atleast_1d(np.asarray(r_values, dtype=np.float64))
    if not np.all((r > 0) & (r < 1)):
        raise SingularProbeError(f"radii must be finite and lie strictly inside (0, 1), got {r}")
    u0 = np.zeros_like(r)
    du0 = np.zeros_like(r)
    live = r * r < CHI_OUTER
    if np.any(live):
        rl = r[live]
        logs = np.log(1.0 / rl)
        z = rl * rl
        c, cp = _chi_pair(z)
        u0[live] = delta_amp * logs**alpha * c
        du0[live] = delta_amp * (
            -alpha * logs ** (alpha - 1.0) / rl * c + logs**alpha * cp * 2.0 * rl
        )
    return u0, du0


# Gauss-Legendre rules of 32, 64, 128, ... nodes; one that has not settled
# by 1024 nodes is reported as a failure
_FIRST_NODES = 32
_MAX_NODES = 1024
# the tightest quad_tol the rules reach: on the transition, every rule from
# 128 nodes on is resolved, and rounding moves successive rules by up to
# 1.4e-14 relative (1.8e-14 with numpy's leggauss weights; measured for sigma
# from 0.05 to 50, amplitudes from 1e-3 to 50 of either sign and
# lambda * t from 0.7 to 3, where |u0|^(4*sigma) stays finite)
QUAD_TOL_MIN = 1e-12


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Newton's method finds the n/2 positive roots of P_n, all at once, from
    Tricomi's estimate (as in Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013); the weights 2 / ((1 - x^2) * P_n'(x)^2) come from the last
    evaluation, and the negative half mirrors the positive one.  P_n is
    evaluated by its three-term recurrence scaled to q_j = s_j * P_j with
    s_j * s_(j+1) = j + 1 (s_0 = s_1 = 1), which reads
    q_(j+1) = (2j + 1) / s_j^2 * x * q_j - q_(j-1): one multiply and one
    subtract per degree.
    """
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    alphas = []  # (2j + 1) / s_j^2 for j = 1 ... n - 1
    s_sq = 1.0
    for j in range(1, n):
        alphas.append((2 * j + 1) / s_sq)
        s_sq = (j + 1) ** 2 / s_sq
    s_n = math.sqrt(s_sq)
    # the largest correction falls as about 9e-6, 1e-8, 3e-14 (n = 32) or
    # 9e-9, 1e-11, 6e-17 (n = 1024); Newton's error after a correction c is
    # about 0.2 * n^2 * c^2, so c <= 1e-12 leaves the nodes at rounding level,
    # and 8 steps only bound the loop
    for _ in range(8):
        q_prev, q = np.ones_like(x), x
        for row in np.outer(alphas, x):
            q_prev, q = q, row * q - q_prev
        # (1 - x^2) * P_n'(x) = n * (P_(n-1)(x) - x * P_n(x)), with s_(n-1) = n / s_n
        slope = q_prev * s_n - n * x * q / s_n
        step = (1.0 - x) * (1.0 + x) * q / (s_n * slope)
        x = x - step
        if np.max(np.abs(step)) <= 1e-12:
            break
    # the slope's derivative, -n * (n + 1) * P_n, vanishes at the roots, so the
    # last slope needs no new evaluation: it is off by about n^4 * step^2 / 6
    # relative, below 2e-13
    half_weights = 2.0 * (1.0 - x) * (1.0 + x) / slope**2
    nodes = np.concatenate((-x, x[::-1]))
    weights = np.concatenate((half_weights, half_weights[::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quad(fn, r_lo: float, r_hi: float, rel_tol: float):
    """int_{r_lo}^{r_hi} fn(r) dr by Gauss-Legendre rules in u = log(1/r).

    ``fn`` maps an array of radii to an array of values, or to a stack of
    such arrays, one row per integrand; the result is a scalar or one
    integral per row.  The rules have 32, 64, 128, ... nodes, are built on
    first use by :func:`_gauss_legendre`, and each calls ``fn`` once; the
    first result whose every component changes by at most
    ``rel_tol`` relative from the previous rule's is returned.  Raises
    SingularProbeError if no rule has settled by 1024 nodes.
    """
    u_lo, u_hi = math.log(1.0 / r_hi), math.log(1.0 / r_lo)
    mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
    prev = math.nan
    n = _FIRST_NODES
    while n <= _MAX_NODES:
        nodes, weights = _gauss_legendre(n)
        r = np.exp(-(mid + half * nodes))
        value = half * ((fn(r) * r) @ weights)
        change = np.abs(value - prev)
        if np.all(change <= rel_tol * np.abs(value)):
            return value
        prev = value
        n *= 2
    raise SingularProbeError(
        f"quadrature did not converge on r in [{r_lo:.3e}, {r_hi:.3e}]: the "
        f"{_MAX_NODES}-node Gauss-Legendre rule is {np.max(change):.3e} away from "
        f"the {_MAX_NODES // 2}-node rule (relative tolerance {rel_tol:.3e})"
    )


def check_probe_args(sigma: float, lam: float, t: float, rho_list,
                     quad_tol: float = 1e-9, delta_amp: float = 1.0) -> list[float]:
    """Reject every input :func:`run_singular_probe` cannot run, before any quadrature.

    Returns rho_list as floats.  Rejects a sigma that :func:`singular_alpha`
    rejects, a non-finite lambda, t or quad_tol, t < 0, a bad rho sweep,
    quad_tol below QUAD_TOL_MIN, and a zero or non-finite amplitude.

    The fitted ratios divide each increment by the one before it, so the
    sweep needs three radii, and the first increment, over
    [rho_list[1], rho_list[0]], must not vanish: rho_list[1] must lie below
    R_CUT, where u0 ends.
    """
    singular_alpha(sigma)
    if not math.isfinite(lam):
        raise SingularProbeError(f"lambda must be finite, got {lam}")
    if not t >= 0:
        raise SingularProbeError(f"time must be >= 0, got {t}")
    if not math.isfinite(t):
        raise SingularProbeError(f"time t must be finite, got {t}")
    if not (math.isfinite(delta_amp) and delta_amp != 0):
        raise SingularProbeError(f"amplitude must be finite and nonzero, got {delta_amp}")
    rho_list = [float(rho) for rho in rho_list]
    if len(rho_list) < 3 or not all(b < a for a, b in zip(rho_list, rho_list[1:])):
        raise SingularProbeError(
            f"rho_list must be strictly decreasing with >= 3 entries, got {rho_list}"
        )
    if rho_list[0] >= 1.0 or rho_list[-1] <= 0.0:
        raise SingularProbeError(f"rho values must lie in (0, 1), got {rho_list}")
    if rho_list[1] >= R_CUT:
        raise SingularProbeError(
            f"rho_list[1] must lie below the cutoff radius {R_CUT}, where the data "
            f"vanish, got {rho_list}"
        )
    if not quad_tol >= QUAD_TOL_MIN:
        raise SingularProbeError(
            f"quadrature tolerance must be >= {QUAD_TOL_MIN:g}, the rounding floor of "
            f"the Gauss-Legendre rules, got {quad_tol}"
        )
    if not math.isfinite(quad_tol):
        raise SingularProbeError(f"quadrature tolerance quad_tol must be finite, got {quad_tol}")
    return rho_list


def run_singular_probe(sigma: float, lam: float, t: float, rho_list,
                       quad_tol: float = 1e-9,
                       delta_amp: float = 1.0) -> ExperimentReport:
    """Compare the radial H^1 mass of the data and of the evolved field.

    Per rho: I0(rho) = 2*pi * int_rho^1 |d(u0)/dr|^2 r dr and Iv(rho) the
    same integral for v(t).  Every segment is split at r = 1/2: below it the
    increments are exact, on the chi transition up to r = 3/4 they come from
    :func:`quad`, whose successive Gauss-Legendre rules agree to ``quad_tol``
    relative (at least QUAD_TOL_MIN), and beyond 3/4 the integrands vanish.
    ``fitted.iv_loglog_rate`` is the plateau law's rate:
    Iv_inc - I0_inc = rate * log(u_j / u_(j-1)) with u = log(1/rho).
    Verdict: I0 Cauchy-converges (last increment below 1% of the total)
    while the Iv increments stay positive with consecutive ratios in
    [0.5, 1.0] (harmonic-type decay, never geometric).
    """
    rho_list = check_probe_args(sigma, lam, t, rho_list, quad_tol, delta_amp)
    alpha = singular_alpha(sigma)

    factor = 4.0 * sigma**2 * lam**2 * t**2
    c0 = 2.0 * math.pi * delta_amp**2 * alpha**2
    rate = c0 * factor * abs(delta_amp) ** (4.0 * sigma)
    e = 2.0 * alpha - 1.0

    def integrands(r):
        # the data's and the evolved radial H^1 densities from one profile call
        u0, du0 = log_singular_profile(delta_amp, sigma, r)
        base = 2.0 * math.pi * du0**2 * r
        return np.stack((base, base * (1.0 + factor * np.abs(u0) ** (4.0 * sigma))))

    def shell(r_lo, r_hi):
        # (I0, Iv) over [r_lo, r_hi].  Below r = 1/2, u0 = delta * u^alpha in
        # u = log(1/r): the data's integrand is c0 * u^(2*alpha - 2) du, and
        # 4*sigma*alpha = 1 - 2*alpha makes the evolved excess exactly rate / u.
        # The chi transition goes to quadrature; beyond r = 3/4 u0 vanishes.
        i0 = iv = 0.0
        if r_lo < R_PLATEAU:
            u_lo, u_hi = math.log(1.0 / min(r_hi, R_PLATEAU)), math.log(1.0 / r_lo)
            i0 = c0 * (u_hi**e - u_lo**e) / e
            iv = i0 + rate * math.log(u_hi / u_lo)
        lo, hi = max(r_lo, R_PLATEAU), min(r_hi, R_CUT)
        if lo < hi:
            d0, dv = quad(integrands, lo, hi, quad_tol)
            i0 += float(d0)
            iv += float(dv)
        return i0, iv

    i0, iv = shell(rho_list[0], R_CUT)

    rows = []
    i0_values, iv_values = [i0], [iv]
    rows.append({
        "rho": rho_list[0],
        "I0": i0,
        "Iv": iv,
        "I0_increment": math.nan,
        "Iv_increment": math.nan,
        "Iv_increment_ratio": math.nan,
    })
    for j in range(1, len(rho_list)):
        inc0, incv = shell(rho_list[j], rho_list[j - 1])
        i0 += inc0
        iv += incv
        i0_values.append(i0)
        iv_values.append(iv)
        prev_inc = rows[-1]["Iv_increment"]
        rows.append({
            "rho": rho_list[j],
            "I0": i0,
            "Iv": iv,
            "I0_increment": inc0,
            "Iv_increment": incv,
            "Iv_increment_ratio": (incv / prev_inc) if prev_inc and not math.isnan(prev_inc) else math.nan,
        })

    inc0s = [row["I0_increment"] for row in rows[1:]]
    incvs = [row["Iv_increment"] for row in rows[1:]]
    ratios = [b / a for a, b in zip(incvs, incvs[1:])]
    i0_final_fraction = inc0s[-1] / i0_values[-1]
    scaled0 = [inc * math.log(1.0 / rho) for inc, rho in zip(inc0s, rho_list[1:])]
    scaledv = [inc * math.log(1.0 / rho) for inc, rho in zip(incvs, rho_list[1:])]

    i0_converged = i0_final_fraction < 0.01
    iv_diverging = all(inc > 0 for inc in incvs) and all(0.5 <= r <= 1.0 for r in ratios)
    fitted = {
        "i0_total": i0_values[-1],
        "iv_total": iv_values[-1],
        "i0_final_increment_fraction": i0_final_fraction,
        "iv_ratio_min": min(ratios),
        "iv_ratio_max": max(ratios),
        "i0_scaled_increment_min_over_max": min(scaled0) / max(scaled0),
        "iv_scaled_increment_min_over_max": min(scaledv) / max(scaledv),
        "alpha": alpha,
        "iv_loglog_rate": rate,
    }
    verdict = i0_converged and iv_diverging
    return ExperimentReport("singular", rows, fitted, verdict,
                            tolerances={"i0_max_final_fraction": 0.01,
                                        "iv_ratio_low": 0.5,
                                        "iv_ratio_high": 1.0,
                                        "quad_tol": quad_tol})
