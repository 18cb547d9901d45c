"""Radial probe for loss of critical regularity from log-singular data (d = 2).

The data u0(x) = delta * log(1/|x|)^alpha * chi(|x|^2), with alpha =
1/(4*sigma + 2), lies in H^1(R^2), but the phase-ODE flow
v(t) = u0 * exp(-i*lambda*t*|u0|^(2*sigma)) leaves H^1 instantly: the
gradient picks up the factor 1 + 4*sigma^2*lambda^2*t^2*u0^(4*sigma),
whose radial H^1 integrand decays only like 1/(r^2 * log(1/r)) near the
origin.  No grid can resolve that, so everything here is an exact radial
integrand fed to adaptive quadrature in u = log(1/r) coordinates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

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


class SingularProbeError(ValueError):
    """Invalid probe arguments or failed quadrature."""


def singular_alpha(sigma: float) -> float:
    """The critical log exponent alpha = 1/(4*sigma + 2)."""
    if not sigma > 0:
        raise SingularProbeError(f"sigma must be positive, got {sigma}")
    return 1.0 / (4.0 * sigma + 2.0)


def _bump(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_prime(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def chi(z):
    """Smooth cutoff: 1 on [0, 1/4], 0 outside [0, 9/16]."""
    z = np.asarray(z, dtype=np.float64)
    t = (z - CHI_INNER) / (CHI_OUTER - CHI_INNER)
    f_t, f_1t = _bump(t), _bump(1.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(t <= 0, 1.0, np.where(t >= 1, 0.0, f_1t / (f_t + f_1t)))
    return out


def chi_prime(z):
    """Derivative of :func:`chi` with respect to z."""
    z = np.asarray(z, dtype=np.float64)
    t = (z - CHI_INNER) / (CHI_OUTER - CHI_INNER)
    f_t, f_1t = _bump(t), _bump(1.0 - t)
    fp_t, fp_1t = _bump_prime(t), _bump_prime(1.0 - t)
    denom = (f_t + f_1t) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        core = -(fp_1t * f_t + fp_t * f_1t) / np.where(denom > 0, denom, 1.0)
    out = np.where((t <= 0) | (t >= 1), 0.0, core)
    return out / (CHI_OUTER - CHI_INNER)


def log_singular_profile(delta_amp: float, sigma: float, r_values):
    """Exact samples of the radial profile u0 and its derivative d(u0)/dr.

    Where chi is identically 1 the derivative reduces to the closed form
    -delta * alpha * r^-1 * log(1/r)^(alpha - 1).
    Returns a pair of arrays matching r_values.
    """
    alpha = singular_alpha(sigma)
    r = np.atleast_1d(np.asarray(r_values, dtype=np.float64))
    if np.any(r <= 0) or np.any(r >= 1):
        raise SingularProbeError("radii must lie strictly inside (0, 1)")
    u0 = np.zeros_like(r)
    du0 = np.zeros_like(r)
    live = r * r < CHI_OUTER
    if np.any(live):
        rl = r[live]
        logs = np.log(1.0 / rl)
        z = rl * rl
        c, cp = chi(z), chi_prime(z)
        u0[live] = delta_amp * logs**alpha * c
        du0[live] = delta_amp * (
            -alpha * logs ** (alpha - 1.0) / rl * c + logs**alpha * cp * 2.0 * rl
        )
    return u0, du0


def _segment_integral(fn, r_lo: float, r_hi: float, rel_tol: float) -> float:
    # integrate fn(r) dr over [r_lo, r_hi] in u = log(1/r) coordinates
    u_lo, u_hi = math.log(1.0 / r_hi), math.log(1.0 / r_lo)

    def integrand(u):
        r = math.exp(-u)
        return fn(np.array([r]))[0] * r

    out = quad(integrand, u_lo, u_hi, epsabs=0.0, epsrel=rel_tol,
               limit=200, full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # quad appended a warning message
        raise SingularProbeError(
            f"quadrature did not converge on r in [{r_lo:.3e}, {r_hi:.3e}]: "
            f"value {value:.6e}, error estimate {abserr:.3e} ({out[3]})"
        )
    return value


def check_probe_args(t: float, rho_list, quad_tol: float) -> list[float]:
    """Return rho_list as floats; reject t < 0, a bad rho sweep, or quad_tol <= 0."""
    if not t >= 0:
        raise SingularProbeError(f"time must be >= 0, got {t}")
    rho_list = [float(rho) for rho in rho_list]
    if len(rho_list) < 2 or any(b >= a for a, b in zip(rho_list, rho_list[1:])):
        raise SingularProbeError(
            f"rho_list must be strictly decreasing with >= 2 entries, got {rho_list}"
        )
    if rho_list[0] >= 1.0 or rho_list[-1] <= 0.0:
        raise SingularProbeError(f"rho values must lie in (0, 1), got {rho_list}")
    if not quad_tol > 0:
        raise SingularProbeError(f"quadrature tolerance must be positive, got {quad_tol}")
    return rho_list


def run_singular_probe(sigma: float, lam: float, t: float, rho_list,
                       quad_tol: float = 1e-9,
                       delta_amp: float = 1.0) -> ExperimentReport:
    """Compare the radial H^1 mass of the data and of the evolved field.

    Per rho: I0(rho) = 2*pi * int_rho^1 |d(u0)/dr|^2 r dr and Iv(rho) the
    same integral for v(t).  Verdict: I0 Cauchy-converges (last increment
    below 1% of the total) while the Iv increments stay positive with
    consecutive ratios in [0.5, 1.0] (harmonic-type decay, never geometric).
    """
    alpha = singular_alpha(sigma)
    rho_list = check_probe_args(t, rho_list, quad_tol)

    factor = 4.0 * sigma**2 * lam**2 * t**2

    def base_integrand(r):
        _, du0 = log_singular_profile(delta_amp, sigma, r)
        return 2.0 * math.pi * du0**2 * r

    def evolved_integrand(r):
        u0, du0 = log_singular_profile(delta_amp, sigma, r)
        return 2.0 * math.pi * du0**2 * r * (1.0 + factor * u0 ** (4.0 * sigma))

    # top segment split at the chi plateau edges; the integrand vanishes
    # identically beyond r = 3/4
    top_breaks = [rho_list[0], 0.5, math.sqrt(CHI_OUTER)]
    i0 = sum(_segment_integral(base_integrand, a, b, quad_tol)
             for a, b in zip(top_breaks, top_breaks[1:]))
    iv = sum(_segment_integral(evolved_integrand, a, b, quad_tol)
             for a, b in zip(top_breaks, top_breaks[1:]))

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
        inc0 = _segment_integral(base_integrand, rho_list[j], rho_list[j - 1], quad_tol)
        incv = _segment_integral(evolved_integrand, rho_list[j], rho_list[j - 1], quad_tol)
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
    }
    verdict = i0_converged and iv_diverging
    return ExperimentReport("singular", rows, fitted, verdict,
                            tolerances={"i0_max_final_fraction": 0.01,
                                        "iv_ratio_low": 0.5,
                                        "iv_ratio_high": 1.0,
                                        "quad_tol": quad_tol})
