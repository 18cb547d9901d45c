from __future__ import annotations

import math

import numpy as np
import pytest

from modnls import (
    BOUNDED,
    HOMOGENEOUS,
    ExperimentError,
    Grid,
    ScalingError,
    compute_scaling,
    make_symbol,
    run_norm_inflation,
)
from modnls import experiments


# Closed forms of the plan's exponents, derived independently of
# compute_scaling's per-class formulas.

def t_h_closed_form(plan, h: float) -> float:
    """Blow-up time in closed form, C * h^(2*sigma*(d/2-s)) * log(1/h)^delta."""
    plan.validate_h(h)
    C = plan.eps_exponent**plan.delta
    return C * h ** (2.0 * plan.sigma * (plan.d / 2.0 - plan.s)) * math.log(1.0 / h) ** plan.delta


def identity_log_gap(plan, h: float) -> float:
    """Homogeneous-case identity |log h^(2sig(d/2-s)-m) - (m+omega) log eps|."""
    if plan.symbol_class != HOMOGENEOUS:
        raise ScalingError("the log identity applies to homogeneous symbols only")
    plan.validate_h(h)
    lhs = (2.0 * plan.sigma * (plan.d / 2.0 - plan.s) - plan.m) * math.log(h)
    rhs = (plan.m + plan.omega) * math.log(plan.eps(h))
    return abs(lhs - rhs)


def beta_closed_form(plan) -> float:
    """Per-class closed form of the dispersive smallness exponent beta:
    m - 1 + omega for homogeneous symbols, 1 for bounded ones."""
    if plan.symbol_class == HOMOGENEOUS:
        return plan.m - 1.0 + plan.omega
    return 1.0


def beta_from_definition(plan) -> float:
    """General formula for beta, independent of the per-class closed form."""
    a = 2.0 * plan.sigma * (plan.s0 - plan.d / 2.0) + 2.0 + plan.alpha
    b = 2.0 * plan.sigma * (plan.d / 2.0 - plan.s) - 2.0 - plan.alpha
    return a / b


def random_admissible_plans(count: int, seed: int = 0):
    """Draw valid (d, sigma, s, class, m, omega, theta, delta) tuples."""
    rng = np.random.default_rng(seed)
    plans = []
    while len(plans) < count:
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.3, 4.0))
        theta = float(rng.uniform(0.005, 0.5))
        delta = float(rng.uniform(0.01, 1.0))
        if rng.random() < 0.5:
            s = float(rng.uniform(0.05, 0.95) * (d / 2.0))
            plans.append(compute_scaling(d, sigma, s, BOUNDED, theta=theta, delta=delta))
        else:
            m = float(rng.uniform(1.0, 4.0))
            s0 = d / 2.0 - m / (2.0 * sigma)
            if s0 <= 1e-3:
                continue
            s = float(rng.uniform(0.05, 0.95)) * s0
            omega = float(rng.uniform(0.1, 3.0))
            plans.append(
                compute_scaling(d, sigma, s, HOMOGENEOUS, m=m, omega=omega,
                                theta=theta, delta=delta)
            )
    return plans


class TestComputeScaling:
    def test_bounded_example(self):
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED)
        assert plan.s0 == 0.5
        assert plan.alpha + 2.0 == pytest.approx(0.5, rel=1e-15)
        assert plan.eps_exponent == pytest.approx(0.5, rel=1e-15)
        assert plan.eps(0.04) == pytest.approx(0.2, rel=1e-14)
        assert beta_closed_form(plan) == 1.0

    def test_homogeneous_example(self):
        plan = compute_scaling(2, 2.0, 0.25, HOMOGENEOUS, m=2.0, omega=1.0)
        assert plan.s0 == pytest.approx(0.5, rel=1e-15)
        assert plan.alpha + 2.0 == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert plan.eps_exponent == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert beta_closed_form(plan) == pytest.approx(2.0, rel=1e-15)

    def test_homogeneous_log_identity_at_tenth(self):
        plan = compute_scaling(2, 2.0, 0.25, HOMOGENEOUS, m=2.0, omega=1.0)
        assert identity_log_gap(plan, 0.1) < 1e-12

    def test_hundred_random_draws_identities(self):
        # the acceptance battery: all derived-exponent identities at once
        for plan in random_admissible_plans(100):
            assert plan.eps_exponent > 0
            assert beta_closed_form(plan) > 0
            assert beta_closed_form(plan) == pytest.approx(beta_from_definition(plan), abs=1e-10)
            h = float(np.exp(-np.random.default_rng(17).uniform(1.0, 9.0)))
            # two displayed forms of the blow-up time agree in log space
            gap = abs(math.log(plan.t_h(h)) - math.log(t_h_closed_form(plan, h)))
            assert gap < 1e-10
            if plan.symbol_class == HOMOGENEOUS:
                assert identity_log_gap(plan, h) < 1e-12

    def test_eps_vanishes_along_h(self):
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED)
        eps = [plan.eps(h) for h in (0.3, 0.1, 0.03, 0.01)]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(d=1, sigma=2.0, s=0.6, symbol_class=BOUNDED), "d/2"),
            (dict(d=2, sigma=2.0, s=0.6, symbol_class=HOMOGENEOUS, m=2.0, omega=1.0), "s0"),
            (dict(d=1, sigma=2.0, s=0.1, symbol_class=HOMOGENEOUS, m=2.0, omega=1.0), "positive"),
            (dict(d=1, sigma=2.0, s=0.25, symbol_class=HOMOGENEOUS, m=0.5, omega=1.0), "m >= 1"),
            (dict(d=1, sigma=2.0, s=0.25, symbol_class=HOMOGENEOUS, m=1.5, omega=0.0), "omega"),
            (dict(d=1, sigma=-1.0, s=0.25, symbol_class=BOUNDED), "sigma"),
            (dict(d=1, sigma=2.0, s=0.25, symbol_class="weird"), "symbol_class"),
            (dict(d=1, sigma=2.0, s=0.25, symbol_class=BOUNDED, omega=1.0), "omega"),
        ],
    )
    def test_hypothesis_violations(self, kwargs, match):
        with pytest.raises(ScalingError, match=match):
            compute_scaling(**kwargs)

    def test_h_domain_is_capped_at_inverse_e(self):
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED)
        with pytest.raises(ScalingError, match="e\\^-1"):
            plan.kappa(1.0)
        with pytest.raises(ScalingError):
            plan.kappa(0.5)
        assert plan.kappa(math.exp(-1.0)) == 1.0


class TestConcentratedData:
    # the drivers run the family in rescaled variables, u0_h = h^(s-d/2) * psi0(x/h)
    # with psi0 = kappa_h * a0, so only kappa and the h checks reach them

    def test_peak_amplitude(self):
        # h = e^-2, theta = 0.05, s = 0.25, d = 1 -> peak e^0.5 * 2^-0.05
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED, theta=0.05)
        h = math.exp(-2.0)
        peak = h ** (plan.s - plan.d / 2.0) * plan.kappa(h)
        expected = math.exp(0.5) * 2.0 ** (-0.05)
        assert peak == pytest.approx(expected, rel=1e-12)

    def test_h_one_rejected(self):
        plan = compute_scaling(1, 2.0, 0.25, BOUNDED)
        with pytest.raises(ScalingError, match="e\\^-1"):
            experiments._check_h_list(plan, [1.0])

    def test_dimension_mismatch(self):
        plan = compute_scaling(2, 2.0, 0.25, BOUNDED)
        grid = Grid(1, 1024, 1.0)
        with pytest.raises(ExperimentError, match="dimension"):
            run_norm_inflation(plan, make_symbol("arctan_step", h=1.0), grid, [math.exp(-2.0)])
