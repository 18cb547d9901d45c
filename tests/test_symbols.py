from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from modnls import (
    BOUNDED,
    CATALOG_KEYS,
    Grid,
    HOMOGENEOUS,
    SymbolError,
    make_symbol,
    parse_symbol_spec,
)
from modnls.symbols import parse_number


def homogeneity_deviation(symbol, m: float, trials: int = 100, seed: int = 0) -> float:
    """Largest relative deviation from P(mu*xi) = mu^m P(xi) over random (mu, xi)."""
    rng = np.random.default_rng(seed)
    dims = (symbol.dims,) if symbol.dims is not None else (1, 2)
    fixed_mu = (0.5, 2.0, 3.0)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        xi = rng.uniform(0.2, 4.0, size=d) * rng.choice((-1.0, 1.0), size=d)
        mu = fixed_mu[trial % len(fixed_mu)] if trial % 2 == 0 else float(rng.uniform(0.25, 4.0))
        p0 = float(symbol(*xi))
        p1 = float(symbol(*(mu * c for c in xi)))
        expected = mu**m * p0
        denom = max(abs(expected), abs(p1), 1e-300)
        worst = max(worst, abs(p1 - expected) / denom)
    return worst


HOMOGENEITY_TOL = 1e-10


def catalog_instances_1d():
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


class TestCatalogValues:
    def test_laplacian_at_unit_diagonal(self):
        assert float(make_symbol("laplacian")(np.array(1.0), np.array(1.0))) == -2.0

    def test_arctan_step_at_unit_frequency(self):
        sym = make_symbol("arctan_step", h=1.0)
        assert float(sym(np.array(1.0))) == pytest.approx(-math.pi / 4, rel=1e-15)

    def test_regularized_laplacian(self):
        sym = make_symbol("regularized_laplacian")
        assert float(sym(np.array(math.sqrt(3.0)))) == pytest.approx(-0.75, rel=1e-14)

    def test_odd_power(self):
        sym = make_symbol("odd_power_1d", j=1)
        assert float(sym(np.array(2.0))) == 8.0
        assert sym.degree == 3.0

    def test_directional_follows_its_formula(self):
        sym = make_symbol("directional_m", m=3, c=1.0, c2=-2.0)
        xi = (np.array(0.6), np.array(-1.1))
        expected = (0.6**2 + 1.1**2) ** 1.0 * (0.6 + 2.2)
        assert float(sym(*xi)) == pytest.approx(expected, rel=1e-14)

    def test_class_metadata(self):
        assert make_symbol("arctan_step", h=2.0).bound == pytest.approx(math.pi / 4)
        assert make_symbol("regularized_laplacian").bound == 1.0
        assert make_symbol("constant", c=-3.0).bound == 3.0
        assert make_symbol("wave").degree == 1.0
        assert make_symbol("power_m", m=2.5).degree == 2.5
        for sym in catalog_instances_1d():
            assert sym.kind in (HOMOGENEOUS, BOUNDED)

    def test_bounded_symbols_respect_bound_on_lattice(self):
        grid = Grid(1, 256, 4.0)
        for sym in catalog_instances_1d():
            if sym.kind == BOUNDED:
                assert np.abs(sym.on_grid(grid)).max() <= sym.bound + 1e-14

    def test_real_valued_on_random_frequencies(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(-10, 10, size=10_000)
        for sym in catalog_instances_1d():
            vals = sym(xi)
            assert vals.dtype == np.float64
            assert np.all(np.isfinite(vals))


class TestHomogeneity:
    def test_fourth_order_passes(self):
        assert homogeneity_deviation(make_symbol("fourth_order"), 4.0) <= HOMOGENEITY_TOL

    def test_wave_passes(self):
        assert homogeneity_deviation(make_symbol("wave"), 1.0) <= HOMOGENEITY_TOL

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_arctan_fails_any_degree(self, m):
        assert homogeneity_deviation(make_symbol("arctan_step", h=1.0), m) > HOMOGENEITY_TOL

    def test_catalog_homogeneous_degrees(self):
        for sym in catalog_instances_1d():
            if sym.kind == HOMOGENEOUS:
                assert homogeneity_deviation(sym, sym.degree) <= HOMOGENEITY_TOL, sym.name

    def test_scaled_invariance_at_fixed_factors(self):
        # P(mu xi) = mu^m P(xi) for mu in {0.5, 2, 3} on 100 random points
        rng = np.random.default_rng(1)
        sym = make_symbol("power_m", m=1.7)
        xi = rng.uniform(0.1, 5.0, size=100)
        for mu in (0.5, 2.0, 3.0):
            lhs = sym(mu * xi)
            rhs = mu**1.7 * sym(xi)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-10


class TestArctanLimit:
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_taylor_bound_toward_laplacian(self, h):
        xi = np.linspace(-4.0, 4.0, 401)
        xi = xi[xi != 0]
        sym = make_symbol("arctan_step", h=h)
        gap = np.abs(sym(xi) - (-(xi**2)))
        assert np.all(gap <= h * xi**4 + 1e-15)


class TestCacheAndRescale:
    def test_lattice_cache_reuses_array(self):
        grid = Grid(1, 64, 2.0)
        sym = make_symbol("laplacian")
        a = sym.on_grid(grid)
        b = sym.on_grid(grid)
        assert a is b
        assert not a.flags.writeable

    def test_lattice_cache_drops_dead_grids(self):
        sym = make_symbol("laplacian")
        for n in (8, 16, 32):
            sym.on_grid(Grid(1, n, 2.0))
        gc.collect()
        assert len(sym._lattice_cache) == 0

    def test_rescaled_values_and_metadata(self):
        base = make_symbol("arctan_step", h=1.0)
        scaled = base.rescaled(0.25, 2.0)
        xi = np.array([1.0, 3.0])
        assert np.allclose(scaled(xi), 0.25 * base(xi / 2.0))
        assert scaled.kind == BOUNDED
        assert scaled.bound == pytest.approx(0.25 * base.bound)

    def test_rescaled_homogeneous_keeps_degree(self):
        base = make_symbol("laplacian")
        scaled = base.rescaled(0.1, 5.0)
        assert scaled.kind == HOMOGENEOUS and scaled.degree == 2.0
        assert homogeneity_deviation(scaled, 2.0) <= HOMOGENEITY_TOL


class TestErrorsAndParsing:
    def test_unknown_key(self):
        with pytest.raises(SymbolError, match="unknown symbol"):
            make_symbol("helicoid")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("power_m", {"m": 0.5}),
            ("directional_m", {"m": 0.0, "c": 1.0}),
            ("arctan_step", {"h": 0.0}),
            ("arctan_step", {"h": -1.0}),
            ("odd_power_1d", {"j": 1.5}),
            ("laplacian", {"m": 2.0}),
            ("transport", {}),
        ],
    )
    def test_bad_parameters(self, name, params):
        with pytest.raises(SymbolError):
            make_symbol(name, **params)

    def test_dimension_restricted_symbols(self):
        sym = make_symbol("odd_power_1d", j=0)
        with pytest.raises(SymbolError, match="d = 1"):
            sym(np.array(1.0), np.array(1.0))

    def test_parse_round_trip(self):
        sym = parse_symbol_spec("arctan_step(h=0.1)")
        assert sym.name == "arctan_step" and sym.params["h"] == 0.1
        again = parse_symbol_spec(sym.spec_string())
        assert again.spec_string() == sym.spec_string()

    def test_parse_plain_name(self):
        assert parse_symbol_spec("regularized_laplacian").kind == BOUNDED

    def test_parse_exponent_form(self):
        assert parse_number("e^-2") == pytest.approx(math.exp(-2), rel=1e-15)
        sym = parse_symbol_spec("constant(c=e^-1)")
        assert sym.params["c"] == pytest.approx(math.exp(-1), rel=1e-15)

    def test_parse_rejects_garbage(self):
        with pytest.raises(SymbolError):
            parse_symbol_spec("arctan_step(h)")
        with pytest.raises(SymbolError):
            parse_symbol_spec("3arctan()")

    def test_catalog_keys_complete(self):
        assert len(CATALOG_KEYS) == 10
