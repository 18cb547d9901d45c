from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from modnls import (
    SingularProbeError,
    log_singular_profile,
    run_singular_probe,
    singular_alpha,
)
from modnls import singular
from modnls.singular import QUAD_TOL_MIN, _chi_pair


def chi(z):
    return _chi_pair(z)[0]


def chi_prime(z):
    return _chi_pair(z)[1]


RHOS = [10.0 ** (-k) for k in range(3, 9)]
# crosses both chi edges, r = 3/4 and r = 1/2, before reaching the plateau
STRADDLE = [0.8, 0.7, 0.6, 0.3, 1e-3, 1e-6]


def _old_bump(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _old_bump_prime(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def old_chi(z):
    """Oracle: the cutoff from four separate bump passes."""
    t = (np.asarray(z, dtype=np.float64) - 0.25) / (0.5625 - 0.25)
    f_t, f_1t = _old_bump(t), _old_bump(1.0 - t)
    with np.errstate(invalid="ignore"):
        return np.where(t <= 0, 1.0, np.where(t >= 1, 0.0, f_1t / (f_t + f_1t)))


def old_chi_prime(z):
    """Oracle: chi' from separate bump and bump-derivative passes."""
    t = (np.asarray(z, dtype=np.float64) - 0.25) / (0.5625 - 0.25)
    f_t, f_1t = _old_bump(t), _old_bump(1.0 - t)
    fp_t, fp_1t = _old_bump_prime(t), _old_bump_prime(1.0 - t)
    denom = (f_t + f_1t) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        core = -(fp_1t * f_t + fp_t * f_1t) / np.where(denom > 0, denom, 1.0)
    return np.where((t <= 0) | (t >= 1), 0.0, core) / (0.5625 - 0.25)


def quad_probe_rows(sigma, lam, t, rho_list, quad_tol=1e-9, delta_amp=1.0):
    """Oracle: the all-quadrature probe, one adaptive quad per segment.

    Every segment is integrated in u = log(1/r) on the exact profile, with no
    closed form.  The top row covers [rho_0, 3/4], split at 1/2 when
    rho_0 < 1/2; each increment is one quad over [rho_j, rho_(j-1)], so a
    segment straddling 1/2 or 3/4 is not split.
    """
    factor = 4.0 * sigma**2 * lam**2 * t**2

    def integral(evolved, r_lo, r_hi):
        def integrand(u):
            r = math.exp(-u)
            u0, du0 = log_singular_profile(delta_amp, sigma, np.array([r]))
            dens = 2.0 * math.pi * du0[0] ** 2 * r
            if evolved:
                dens *= 1.0 + factor * abs(u0[0]) ** (4.0 * sigma)
            return dens * r

        value, _ = quad(integrand, math.log(1.0 / r_hi), math.log(1.0 / r_lo),
                        epsabs=0.0, epsrel=quad_tol, limit=200)
        return value

    top = sorted({rho_list[0], min(max(rho_list[0], 0.5), 0.75), 0.75})
    i0 = sum(integral(False, a, b) for a, b in zip(top, top[1:]))
    iv = sum(integral(True, a, b) for a, b in zip(top, top[1:]))
    rows = [{"I0": i0, "Iv": iv, "I0_increment": math.nan, "Iv_increment": math.nan}]
    for lo, hi in zip(rho_list[1:], rho_list):
        inc0, incv = integral(False, lo, hi), integral(True, lo, hi)
        i0 += inc0
        iv += incv
        rows.append({"I0": i0, "Iv": iv, "I0_increment": inc0, "Iv_increment": incv})
    return rows


class TestProfile:
    def test_alpha_formula(self):
        assert singular_alpha(1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert singular_alpha(0.5) == pytest.approx(0.25, rel=1e-15)

    def test_plateau_value_at_inverse_e(self):
        # log(1/r) = 1 inside the chi == 1 region, so u0 = delta
        u0, _ = log_singular_profile(1.7, 1.0, [math.exp(-1.0)])
        assert u0[0] == pytest.approx(1.7, rel=1e-15)

    def test_closed_form_derivative(self):
        # r = e^-4, sigma = 1, delta = 1: d(u0)/dr = -(1/6) e^4 4^(-5/6)
        _, du0 = log_singular_profile(1.0, 1.0, [math.exp(-4.0)])
        expected = -(1.0 / 6.0) * math.exp(4.0) * 4.0 ** (-5.0 / 6.0)
        assert du0[0] == pytest.approx(expected, rel=1e-14)

    def test_vanishes_outside_cutoff(self):
        u0, du0 = log_singular_profile(1.0, 1.0, [0.8, 0.9, 0.99])
        assert np.all(u0 == 0.0) and np.all(du0 == 0.0)

    def test_rejects_radii_outside_unit_interval(self):
        with pytest.raises(SingularProbeError):
            log_singular_profile(1.0, 1.0, [1.0])
        with pytest.raises(SingularProbeError):
            log_singular_profile(1.0, 1.0, [0.0])
        with pytest.raises(SingularProbeError):
            log_singular_profile(1.0, 1.0, [1.5])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SingularProbeError, match="finite"):
                log_singular_profile(1.0, 1.0, [0.3, bad])

    def test_chi_plateaus(self):
        z = np.array([0.0, 0.2, 0.25])
        assert np.all(chi(z) == 1.0)
        z = np.array([0.5625, 0.8, 2.0])
        assert np.all(chi(z) == 0.0)
        mid = chi(np.array([0.4]))
        assert 0.0 < mid[0] < 1.0

    def test_chi_prime_matches_finite_difference(self):
        z = np.linspace(0.26, 0.56, 31)
        step = 1e-7
        numeric = (chi(z + step) - chi(z - step)) / (2 * step)
        assert np.abs(chi_prime(z) - numeric).max() <= 1e-5

    def test_chi_pair_matches_separate_bump_passes(self):
        z = np.linspace(0.0, 1.0, 2001)
        c, cp = _chi_pair(z)
        np.testing.assert_allclose(c, old_chi(z), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(cp, old_chi_prime(z), rtol=1e-14, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))
    def test_chi_is_a_nonincreasing_unit_cutoff(self, za, zb):
        lo, hi = min(za, zb), max(za, zb)
        (c_lo, c_hi), (cp_lo, cp_hi) = _chi_pair(np.array([lo, hi]))
        assert 0.0 <= c_hi <= c_lo <= 1.0
        assert cp_lo <= 0.0 and cp_hi <= 0.0

    def test_derivative_matches_finite_difference_in_transition(self):
        r = np.linspace(0.55, 0.7, 11)
        step = 1e-8
        up, _ = log_singular_profile(1.0, 1.0, r + step)
        dn, _ = log_singular_profile(1.0, 1.0, r - step)
        numeric = (up - dn) / (2 * step)
        _, du0 = log_singular_profile(1.0, 1.0, r)
        assert np.abs(du0 - numeric).max() <= 1e-5


# the benchmark's decade sweep (perfbench/configs/singular-quad.cfg)
DECADES = [10.0 ** (-k) for k in range(3, 13)]
# every rule size the doubling in singular.quad can reach
RULE_SIZES = [32, 64, 128, 256, 512, 1024]
EPS = np.finfo(np.float64).eps


def jacobi_matrix(n):
    """The symmetric tridiagonal matrix whose eigenvalues are the roots of P_n."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    return np.diag(beta, 1) + np.diag(beta, -1)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_nodes_are_the_jacobi_eigenvalues(self, n):
        nodes, _ = singular._gauss_legendre(n)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1])
        # the eigensolver's own error dominates: measured up to 1.7e-15
        # (n = 1024), while the nodes lie within 1.1e-16 of 40-digit roots
        assert np.max(np.abs(nodes - np.linalg.eigvalsh(jacobi_matrix(n)))) <= 4e-15

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_weights_match_golub_welsch(self, n):
        # Golub & Welsch: the weights are 2 * (first eigenvector component)^2.
        # Rounding the end node alone moves its weight by about
        # ulp/2 * 2 / (1 - x^2), or 0.2 * n^2 * eps; measured: 3.0e-14 (n = 32)
        # up to 8.2e-12 (n = 1024), where 40-digit weights put the rule within
        # 2.3e-12 and Golub-Welsch within 9.5e-12
        _, weights = singular._gauss_legendre(n)
        vectors = np.linalg.eigh(jacobi_matrix(n))[1]
        assert np.array_equal(weights, weights[::-1])
        assert np.max(np.abs(weights / (2.0 * vectors[0] ** 2) - 1.0)) <= 0.5 * n**2 * EPS

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_integrates_every_monomial_up_to_degree_2n_minus_1(self, n):
        # measured: at most 8.9e-16 (n = 128); numpy's leggauss, the oracle,
        # errs by 1.3e-15 (n = 32) up to 2.0e-14 (n = 1024)
        k = np.arange(2 * n)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)

        def worst_error(nodes, weights):
            return np.max(np.abs((nodes[None, :] ** k[:, None]) @ weights - exact))

        error = worst_error(*singular._gauss_legendre(n))
        assert error <= 2e-15
        assert error <= worst_error(*np.polynomial.legendre.leggauss(n))

    def test_rules_are_read_only_and_built_once(self):
        nodes, weights = singular._gauss_legendre(64)
        assert singular._gauss_legendre(64) is singular._gauss_legendre(64)
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestQuadRule:
    def test_integrates_a_power_of_r(self):
        # r^2 dr is exp(-3u) du in u = log(1/r): entire, so the rules settle at once
        value = singular.quad(lambda r: r**2, 0.5, 0.75, 1e-12)
        assert value == pytest.approx((0.75**3 - 0.5**3) / 3.0, rel=1e-14)

    def test_integrates_a_stack_row_by_row(self):
        # each row is integrated as on its own, and a row that never settles
        # fails the whole stack
        value = singular.quad(lambda r: np.stack((r**2, r**5)), 0.5, 0.75, 1e-12)
        assert value.shape == (2,)
        assert value[0] == pytest.approx((0.75**3 - 0.5**3) / 3.0, rel=1e-14)
        assert value[1] == pytest.approx((0.75**6 - 0.5**6) / 6.0, rel=1e-14)
        c = math.log(1.0 / 0.6)
        with pytest.raises(SingularProbeError, match="did not converge"):
            singular.quad(lambda r: np.stack((r**2, np.abs(np.log(1.0 / r) - c) ** 0.5)),
                          0.5, 0.75, 1e-9)

    def test_kink_that_never_settles_names_the_segment(self):
        # |u - c|^(1/2) has a kink inside the segment, so successive rules
        # keep moving by about n^-1.5 and the 1024-node cap is reached
        c = math.log(1.0 / 0.6)
        with pytest.raises(SingularProbeError,
                           match=r"did not converge on r in \[5\.000e-01, 7\.500e-01\]"):
            singular.quad(lambda r: np.abs(np.log(1.0 / r) - c) ** 0.5, 0.5, 0.75, 1e-9)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_at_most_three_profile_calls_per_segment(self, sigma, monkeypatch):
        calls = []
        profile, rule = singular.log_singular_profile, singular.quad

        def counted_profile(*args):
            calls[-1] += 1
            return profile(*args)

        def counted_rule(*args):
            calls.append(0)
            return rule(*args)

        monkeypatch.setattr(singular, "log_singular_profile", counted_profile)
        monkeypatch.setattr(singular, "quad", counted_rule)
        run_singular_probe(sigma, 1.0, 1.0, DECADES, quad_tol=1e-9)
        assert len(calls) == 1  # both integrands at once on [1/2, 3/4]
        assert max(calls) <= 3, calls

    @pytest.mark.parametrize("rhos", [DECADES, STRADDLE], ids=["decades", "straddle"])
    @pytest.mark.parametrize("sigma,lam,t,amp", [(0.5, 1.0, 1.0, 1.0), (2.0, 2.0, 0.35, 1.6)])
    def test_the_tolerance_floor_is_reached(self, sigma, lam, t, amp, rhos):
        tight = run_singular_probe(sigma, lam, t, rhos, quad_tol=QUAD_TOL_MIN, delta_amp=amp)
        loose = run_singular_probe(sigma, lam, t, rhos, quad_tol=1e-9, delta_amp=amp)
        for a, b in zip(tight.rows, loose.rows, strict=True):
            assert a["I0"] == pytest.approx(b["I0"], rel=1e-12, abs=0.0)
            assert a["Iv"] == pytest.approx(b["Iv"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("quad_tol", [1e-15, 0.99 * QUAD_TOL_MIN, 0.0, math.nan])
    def test_rejects_tolerance_below_the_floor(self, quad_tol):
        with pytest.raises(SingularProbeError, match="quadrature tolerance must be >= 1e-12"):
            run_singular_probe(1.0, 1.0, 1.0, RHOS, quad_tol=quad_tol)


class TestProbe:
    def test_default_run_passes(self):
        rep = run_singular_probe(1.0, 1.0, 1.0, RHOS)
        assert rep.verdict
        assert rep.fitted["i0_final_increment_fraction"] < 0.01
        assert 0.5 <= rep.fitted["iv_ratio_min"] <= rep.fitted["iv_ratio_max"] <= 1.0

    def test_t_zero_control_exact(self):
        rep = run_singular_probe(1.0, 1.0, 0.0, RHOS)
        for row in rep.rows:
            assert row["Iv"] == row["I0"]

    def test_lambda_zero_control_exact(self):
        rep = run_singular_probe(1.0, 0.0, 2.0, RHOS)
        for row in rep.rows:
            assert row["Iv"] == row["I0"]

    def test_i0_increments_decrease(self):
        rep = run_singular_probe(1.0, 1.0, 1.0, RHOS)
        incs = [row["I0_increment"] for row in rep.rows[1:]]
        assert all(b < a for a, b in zip(incs, incs[1:]))

    def test_scaled_increments_separate_convergent_from_divergent(self):
        # Iv increments decay no faster than 1/log(1/rho); I0's decay faster
        rhos = [10.0 ** (-k) for k in range(3, 13)]
        rep = run_singular_probe(1.0, 1.0, 1.0, rhos)
        assert rep.fitted["iv_scaled_increment_min_over_max"] >= 0.5
        assert rep.fitted["i0_scaled_increment_min_over_max"] < 0.5

    def test_deterministic(self):
        a = run_singular_probe(1.0, 1.0, 1.0, RHOS)
        b = run_singular_probe(1.0, 1.0, 1.0, RHOS)
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("rhos", [RHOS, STRADDLE], ids=["plateau", "straddle"])
    @pytest.mark.parametrize("sigma,lam,t,amp", [
        (0.5, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 1.0),
        (0.5, 1.7, 0.6, 2.3), (1.0, 0.3, 2.5, 0.4), (2.0, 2.0, 0.35, 1.6),
    ])
    def test_matches_all_quadrature_oracle(self, sigma, lam, t, amp, rhos):
        rep = run_singular_probe(sigma, lam, t, rhos, delta_amp=amp)
        oracle = quad_probe_rows(sigma, lam, t, rhos, delta_amp=amp)
        for row, want in zip(rep.rows, oracle, strict=True):
            for key, value in want.items():
                if math.isnan(value):
                    assert math.isnan(row[key])
                else:
                    assert abs(row[key] - value) <= 1e-12 * abs(value), (row["rho"], key)

    def test_rows_beyond_the_cutoff_are_exactly_zero(self):
        rep = run_singular_probe(1.0, 1.0, 1.0, STRADDLE)
        assert rep.rows[0]["I0"] == 0.0 and rep.rows[0]["Iv"] == 0.0
        assert rep.rows[1]["I0"] > 0.0

    @pytest.mark.parametrize("sigma,lam,t,amp", [(0.5, 1.0, 1.0, 1.0), (2.0, 1.7, 0.6, 2.3)])
    def test_plateau_increments_follow_the_loglog_law(self, sigma, lam, t, amp):
        rhos = [0.5, 0.3] + [10.0 ** (-k) for k in range(2, 13)]
        rep = run_singular_probe(sigma, lam, t, rhos, delta_amp=amp)
        alpha = singular_alpha(sigma)
        rate = 2 * math.pi * amp**2 * alpha**2 * 4 * sigma**2 * lam**2 * t**2 * amp ** (4 * sigma)
        assert rep.fitted["iv_loglog_rate"] == pytest.approx(rate, rel=1e-14)
        for prev, row in zip(rep.rows, rep.rows[1:]):
            loglog = math.log(math.log(1.0 / row["rho"]) / math.log(1.0 / prev["rho"]))
            excess = row["Iv_increment"] - row["I0_increment"]
            assert excess == pytest.approx(rep.fitted["iv_loglog_rate"] * loglog, rel=1e-12)

    def test_summary_prints_the_law(self):
        rep = run_singular_probe(1.0, 1.0, 1.0, RHOS)
        assert "fitted.iv_loglog_rate = " in rep.summary_text()
        assert rep.columns == ["rho", "I0", "Iv", "I0_increment", "Iv_increment",
                               "Iv_increment_ratio"]

    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_negative_amplitude_mirrors_positive(self, sigma):
        # the flow sees |u0|^(4 sigma), so the sign of delta changes nothing
        pos = run_singular_probe(sigma, 1.0, 1.0, STRADDLE, delta_amp=1.0)
        neg = run_singular_probe(sigma, 1.0, 1.0, STRADDLE, delta_amp=-1.0)
        assert neg.to_csv() == pos.to_csv()

    @pytest.mark.parametrize("amp", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_zero_or_non_finite_amplitude(self, amp, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("quadrature ran before the amplitude check")

        monkeypatch.setattr("modnls.singular.quad", no_compute)
        with pytest.raises(SingularProbeError, match="amplitude must be finite and nonzero"):
            run_singular_probe(1.0, 1.0, 1.0, RHOS, delta_amp=amp)

    @pytest.mark.parametrize("rhos,match", [
        ([1e-3, 1e-4], "strictly decreasing with >= 3 entries"),
        ([0.9, 0.8, 1e-3], "below the cutoff radius 0.75"),
    ], ids=["two radii", "first increment beyond the cutoff"])
    def test_rejects_sweeps_without_two_nonzero_increments(self, rhos, match, monkeypatch):
        # both used to fail only after the sweep, dividing by or taking the
        # minimum of the increment ratios
        def no_compute(*args, **kwargs):
            raise AssertionError("quadrature ran before the rho_list check")

        monkeypatch.setattr("modnls.singular.quad", no_compute)
        with pytest.raises(SingularProbeError, match=match):
            run_singular_probe(1.0, 1.0, 1.0, rhos)

    def test_rejects_bad_arguments(self):
        with pytest.raises(SingularProbeError):
            run_singular_probe(-1.0, 1.0, 1.0, RHOS)
        with pytest.raises(SingularProbeError):
            run_singular_probe(1.0, 1.0, -0.5, RHOS)
        with pytest.raises(SingularProbeError):
            run_singular_probe(1.0, 1.0, 1.0, [1e-4, 1e-3])
        with pytest.raises(SingularProbeError):
            run_singular_probe(1.0, 1.0, 1.0, [1e-3])
        with pytest.raises(SingularProbeError):
            run_singular_probe(1.0, 1.0, 1.0, RHOS, quad_tol=0.0)
