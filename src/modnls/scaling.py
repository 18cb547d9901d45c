"""Scaling exponents for the concentrated-data family.

For a target regularity s below the scaling index s0, the family
u0_h(x) = h^(s - d/2) * kappa_h * a0(x/h) with a0(x) = exp(-|x|^2) and
kappa_h = log(1/h)^(-theta) concentrates at scale h while its H^s norm
tends to zero.  The exponents collected in :class:`ScalingPlan` tie the
family to the rescaled evolution on a fixed box: the small parameter
eps(h), the window exponent delta, and the blow-up time t_h.  No experiment
samples u0_h itself: they evolve the rescaled profile kappa_h * a0 (see
:mod:`modnls.experiments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import BOUNDED, HOMOGENEOUS

__all__ = [
    "ScalingError",
    "ScalingPlan",
    "compute_scaling",
    "H_MAX",
]

# kappa_h needs log(1/h) > 0; the family is asymptotic in h -> 0 anyway
H_MAX = math.exp(-1.0)


class ScalingError(ValueError):
    """A hypothesis on (d, sigma, s, m, omega, h) is violated."""


@dataclass(frozen=True)
class ScalingPlan:
    """Derived exponents for one (d, sigma, s, symbol-class, omega, theta, delta).

    Use :func:`compute_scaling` to construct one; it validates the
    hypotheses and fills the derived fields.
    """

    d: int
    sigma: float
    s: float
    symbol_class: str  # "homogeneous" or "bounded"
    m: float | None
    omega: float | None
    theta: float
    delta: float
    s0: float
    alpha: float
    eps_exponent: float

    def validate_h(self, h: float) -> None:
        if not (0.0 < h <= H_MAX):
            raise ScalingError(
                f"h must lie in (0, e^-1]; got {h} (kappa needs log(1/h) >= 1)"
            )

    def kappa(self, h: float) -> float:
        """Amplitude damping kappa_h = log(1/h)^(-theta)."""
        self.validate_h(h)
        return math.log(1.0 / h) ** (-self.theta)

    def eps(self, h: float) -> float:
        """Small parameter eps = h^(2*sigma*(d/2-s) - 2 - alpha)."""
        self.validate_h(h)
        return h**self.eps_exponent

    def h_for_eps(self, eps: float) -> float:
        if not 0.0 < eps < 1.0:
            raise ScalingError(f"eps must lie in (0, 1), got {eps}")
        return eps ** (1.0 / self.eps_exponent)

    def tau_star_of_eps(self, eps: float) -> float:
        """Rescaled window end tau* = eps * log(1/eps)^delta."""
        if not 0.0 < eps < 1.0:
            raise ScalingError(f"eps must lie in (0, 1), got {eps}")
        return eps * math.log(1.0 / eps) ** self.delta

    def tau_star(self, h: float) -> float:
        return self.tau_star_of_eps(self.eps(h))

    def t_h(self, h: float) -> float:
        """Blow-up time t_h = h^(2+alpha) * eps * log(1/eps)^delta."""
        return h ** (2.0 + self.alpha) * self.tau_star(h)

    def window_amplitude(self, h: float) -> float:
        """Prefactor h^(2*sigma*(d/2-s)) of the rescaled multiplier P(xi/h)."""
        self.validate_h(h)
        return h ** (2.0 * self.sigma * (self.d / 2.0 - self.s))


def compute_scaling(
    d: int,
    sigma: float,
    s: float,
    symbol_class: str,
    m: float | None = None,
    omega: float | None = None,
    theta: float = 0.05,
    delta: float = 0.1,
) -> ScalingPlan:
    """Fill every derived exponent, rejecting hypothesis-violating inputs."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ScalingError(f"dimension d must be a positive integer, got {d}")
    for name, value in (("nonlinearity power sigma", sigma), ("theta", theta), ("delta", delta)):
        if not value > 0:
            raise ScalingError(f"{name} must be positive, got {value}")
        if not math.isfinite(value):
            raise ScalingError(f"{name} must be finite, got {value}")

    two_sig_gap = 2.0 * sigma * (d / 2.0 - s)

    if symbol_class == HOMOGENEOUS:
        if m is None or not m >= 1:
            raise ScalingError(f"homogeneous symbols need a degree m >= 1, got {m}")
        if omega is None or not omega > 0:
            raise ScalingError(f"homogeneous symbols need omega > 0, got {omega}")
        if not math.isfinite(omega):
            raise ScalingError(f"omega must be finite, got {omega}")
        s0 = d / 2.0 - m / (2.0 * sigma)
        if not s0 > 0:
            raise ScalingError(
                f"scaling index s0 = d/2 - m/(2*sigma) = {s0} must be positive"
            )
        if not 0.0 < s < s0:
            raise ScalingError(f"s must satisfy 0 < s < s0 = {s0}, got s = {s}")
        two_plus_alpha = ((m - 1.0 + omega) * two_sig_gap + m) / (m + omega)
    elif symbol_class == BOUNDED:
        if m is not None or omega is not None:
            raise ScalingError("m and omega apply to homogeneous symbols only")
        s0 = d / 2.0
        if not 0.0 < s < s0:
            raise ScalingError(f"s must satisfy 0 < s < d/2 = {s0}, got s = {s}")
        two_plus_alpha = sigma * (d / 2.0 - s)
    else:
        raise ScalingError(
            f"symbol_class must be {HOMOGENEOUS!r} or {BOUNDED!r}, got {symbol_class!r}"
        )

    eps_exponent = two_sig_gap - two_plus_alpha
    if not eps_exponent > 0:
        raise ScalingError(
            f"exponent of h in eps is {eps_exponent}; it must be positive "
            "(eps must vanish as h -> 0)"
        )
    return ScalingPlan(
        d=int(d),
        sigma=float(sigma),
        s=float(s),
        symbol_class=symbol_class,
        m=None if m is None else float(m),
        omega=None if omega is None else float(omega),
        theta=float(theta),
        delta=float(delta),
        s0=s0,
        alpha=two_plus_alpha - 2.0,
        eps_exponent=eps_exponent,
    )
