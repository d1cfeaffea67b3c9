"""Closed-form symbols, the sharp algebra, parametrix, mollifier, report."""

import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from conftest import SYMMETRIES, full_lattice_points, skewed_surface, smooth_surface

from jetwave import symbols
from jetwave.errors import EllipticityError
from jetwave.geometry import curvature_F_uv
from jetwave.paradiff import apply_paradiff
from jetwave.spectral import (
    TorusField,
    TorusGrid,
    band_limited_random,
    decomposition,
)
from jetwave.symbols import (
    HomogeneousSymbol,
    lambda_symbol,
    mollifier_symbol,
    parametrix,
    poisson_bracket,
    sharp_compose,
    symbol_identity_report,
    w_derivatives,
    w_divergence,
    xi_gradient,
)
from jetwave.symbols import (
    _as_xi,
    _factorization,
    _lambda_from,
    _mu_from,
    _surface_data,
    _symmetrizer_from,
    lattice_points,
)

R = 1.0
SIGMA = 1.0


def _deformed(grid):
    th, zz = grid.mesh()
    return TorusField(grid, R * (1.0 + 0.1 * np.cos(th) * np.cos(zz)))


def _mu(eta):
    return _mu_from(_surface_data(eta))


def _symmetrizer(eta):
    """(a, gamma, q, p) of eta, built as the identity report builds them."""
    surface = _surface_data(eta)
    lam = _lambda_from(surface, _factorization(surface, 1.0))
    return _symmetrizer_from(surface, SIGMA, lam, _mu_from(surface),
                             parametrix(lam))


class TestLambdaSymbol:
    def test_cylinder_principal(self, grid32):
        lam = lambda_symbol(TorusField.constant(grid32, R))
        got = lam.principal_at(3.0, 2.0)
        assert np.abs(got - np.sqrt(9.0 / R ** 2 + 4.0)).max() < 1e-13

    def test_cylinder_subprincipal_closed_form(self, grid32):
        """At constant radius lambda0 = -1/(2R) + m^2/(2 R^3 lambda1^2); in
        particular it vanishes identically on k = 0 where the oracle is m/R
        exactly."""
        lam = lambda_symbol(TorusField.constant(grid32, R))
        m, k = 3.0, 2.0
        lam1sq = m ** 2 / R ** 2 + k ** 2
        expect = -1.0 / (2 * R) + m ** 2 / (2 * R ** 3 * lam1sq)
        assert np.abs(lam.subprincipal(m, k) - expect).max() < 1e-11
        assert np.abs(lam.subprincipal(4.0, 0.0)).max() < 1e-11

    def test_principal_consistency_with_factorization(self, grid32):
        """(l^2/eta) Re A^(1) at rho = 1 reproduces the closed-form
        lambda^(1) (the imaginary parts cancel against the beta correction),
        and lambda^(0) is exactly (l^2/eta) A^(0)."""
        eta = _deformed(grid32)
        lam = lambda_symbol(eta)
        big_A, _, _ = _factorization(_surface_data(eta), 1.0)
        e = eta.drop_nyquist().values
        et = np.real(w_derivatives(e, grid32)[0])
        ez = np.real(w_derivatives(e, grid32)[1])
        l2 = 1.0 + (et / e) ** 2 + ez ** 2
        for m, k in ((1.0, 0.0), (3.0, 2.0), (0.0, 5.0), (7.0, 4.0)):
            diff = (l2 / e) * np.real(big_A.principal_at(m, k)) \
                - lam.principal_at(m, k)
            assert np.abs(diff).max() < 1e-12
            assert np.array_equal(lam.subprincipal(m, k),
                                  (l2 / e) * big_A.subprincipal(m, k))

    @pytest.mark.parametrize("xi", [(0.3, 0.4), (0.6, -0.1), (3.0, -2.0),
                                    (11.0, 4.0), (0.05, 0.02)])
    def test_xi_gradient_cylinder_closed_form(self, grid16, xi):
        """The xi-gradient of lambda^(1) on a cylinder of radius Rc against
        d_xi sqrt(xi_t^2/Rc^2 + xi_z^2), also at |xi| < 1."""
        Rc = 1.3
        xt, xz = xi
        lam1 = np.sqrt(xt ** 2 / Rc ** 2 + xz ** 2)
        lam = lambda_symbol(TorusField.constant(grid16, Rc))
        gt, gz = xi_gradient(lam.principal, xt, xz)
        assert np.abs(gt - xt / (Rc ** 2 * lam1)).max() <= 1e-10
        assert np.abs(gz - xz / lam1).max() <= 1e-10

    def test_homogeneity_and_reality(self, grid32):
        lam = lambda_symbol(_deformed(grid32))
        assert lam.homogeneity_residual() < 1e-12
        assert lam.reality_residual() < 1e-10

    def test_im_lambda0_identity(self, grid32):
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid32), SIGMA, R)}
        assert checks["im_lambda0"].residual < 1e-8


def _surface_profiles(eta):
    e = eta.drop_nyquist().values
    et, ez = (np.real(d) for d in w_derivatives(e, eta.grid))
    return e, et, ez


# real xi and the complex-step points of xi_gradient, stacked like a chunk
_XI = np.array([(3.0, 2.0), (0.3, -0.4), (7.0, 11.0), (0.0, 5.0), (-6.0, 1.0)])
_H = 1e-5 * np.hypot(_XI[:, 0], _XI[:, 1])
_XI_POINTS = {
    "real": (_XI[:, 0], _XI[:, 1]),
    "step_t": (_XI[:, 0] + 1j * _H, _XI[:, 1] + 0j),
    "step_z": (_XI[:, 0] + 0j, _XI[:, 1] - 1j * _H),
}


def _rel(got, want):
    """Relative max error, of the real and the imaginary part each: at a
    complex-step point the imaginary part carries the xi-derivative."""
    parts = [(np.real(got), np.real(want))]
    if np.iscomplexobj(want) and np.abs(np.imag(want)).max() > 0.0:
        parts.append((np.imag(got), np.imag(want)))
    return max(np.abs(g - w).max() / np.abs(w).max() for g, w in parts)


class TestHoistedClosures:
    """The closures with their xi-independent profiles computed once match
    the closed forms written out directly, at real xi and at complex-step
    points."""

    @pytest.mark.parametrize("rho", [1.0, 0.7])
    @pytest.mark.parametrize("point", sorted(_XI_POINTS))
    def test_factorization_principal(self, grid32, rho, point):
        eta = _deformed(grid32)
        e, et, ez = _surface_profiles(eta)
        xt, xz = (x.reshape(-1, 1, 1) for x in _XI_POINTS[point])
        alpha = (1.0 + (et / e) ** 2 + rho ** 2 * ez ** 2) / e ** 2
        b = -2.0 * et * xt / (rho * e ** 3) - 2.0 * rho * ez * xz / e
        T = xt ** 2 / (rho ** 2 * e ** 2) + xz ** 2
        S = np.sqrt(4.0 * alpha * T - b ** 2)
        big_A, small_a, _ = _factorization(_surface_data(eta), rho)
        assert _rel(big_A.principal(xt, xz), (S - 1j * b) / (2.0 * alpha)) <= 1e-14
        assert _rel(small_a.principal(xt, xz), (S + 1j * b) / (2.0 * alpha)) <= 1e-14

    @pytest.mark.parametrize("point", sorted(_XI_POINTS))
    def test_lambda1_and_mu2(self, grid32, point):
        eta = _deformed(grid32)
        e, et, ez = _surface_profiles(eta)
        xt, xz = (x.reshape(-1, 1, 1) for x in _XI_POINTS[point])
        quad = xt ** 2 / e ** 2 + xz ** 2 + (xt * ez / e - xz * et / e) ** 2
        l3 = (1.0 + (et / e) ** 2 + ez ** 2) ** 1.5
        assert _rel(lambda_symbol(eta).principal(xt, xz), np.sqrt(quad)) <= 1e-14
        assert _rel(_mu(eta).principal(xt, xz), quad / (2.0 * l3)) <= 1e-14


class TestFactorizationDiscriminant:
    """The discriminant 4 alpha T - (beta.xi)^2 whose root _factorization
    takes unchecked is at least 4 T/eta^2 (Cauchy-Schwarz), so it is
    positive at every real xi != 0.  Read from the code as S^2, with
    S = 2 alpha Re a^(1), over the whole Nyquist-free lattice and off it."""

    @pytest.mark.parametrize("rho", [1.0, 0.7])
    @pytest.mark.parametrize("surface", [
        "reference", "seed0", "seed1", "seed2", "strong"])
    def test_bound(self, grid32, rho, surface):
        if surface == "reference":
            eta = _deformed(grid32)
        else:
            seed = 0 if surface == "strong" else int(surface[-1])
            eta = smooth_surface(grid32, np.random.default_rng(seed),
                                 amp=0.3 if surface == "strong" else 0.05)
        record = _surface_data(eta)
        _, small_a, alpha = _factorization(record, rho)
        for xt, xz in ((_as_xi(x) for x in full_lattice_points(grid32)),
                       _off_lattice()):
            s = 2.0 * alpha * np.real(small_a.principal(xt, xz))
            t = xt ** 2 / (rho ** 2 * record.e ** 2) + xz ** 2
            ratio = (s ** 2 / (4.0 * t / record.e ** 2)).min()
            assert ratio >= 1.0 - 1e-12, ratio


class TestWDivergence:
    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_two_derivatives(self, n):
        grid = TorusGrid(n, n)
        rng = np.random.default_rng(n)
        f, g = (rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
                for _ in range(2))
        want = w_derivatives(f, grid)[0] + w_derivatives(g, grid)[1]
        assert _rel(w_divergence(f, g, grid), want) <= 1e-13



def _w_derivatives_2d(arr, grid):
    """The two-dimensional complex route: one fft2 of the input expanded to
    the grid, times each full-lattice derivative multiplier (i xi, Nyquist
    zeroed), and an ifft2 each."""
    arr = np.broadcast_to(arr, np.shape(arr)[:-2] + (grid.n_theta, grid.n_z))
    c = np.fft.fft2(arr)
    mt, mz = (1j * x for x in grid.xi_mesh())
    mt[grid.n_theta // 2] = 0.0
    mz[:, grid.n_z // 2] = 0.0
    return np.fft.ifft2(c * mt), np.fft.ifft2(c * mz)


def _w_input(kind, grid):
    """A stack of five grid arrays of the named kind."""
    rng = np.random.default_rng(3)
    shape = (5, grid.n_theta, grid.n_z)
    if kind.startswith("constant"):
        shape = (5, 1, 1)
    out = rng.standard_normal(shape)
    if kind.endswith("complex"):
        out = out + 1j * rng.standard_normal(shape)
    if kind == "nyquist":
        i, j = np.indices(shape[1:])
        out = out + 3.0 * (-1.0) ** i + 2.0 * (-1.0) ** j * np.cos(i)
    if kind == "nyquist_only":
        i, j = np.indices(shape[1:])
        out = out[:, :1, :1] * ((-1.0) ** i + (-1.0) ** j)
    return out


class TestWDerivatives:
    """Each derivative transformed along its own axis, with real transforms
    for real input, against the two-dimensional complex route."""

    @pytest.mark.parametrize("shape", [(16, 16), (32, 8)])
    @pytest.mark.parametrize("kind", ["real", "complex", "constant",
                                      "constant_complex", "nyquist",
                                      "nyquist_only"])
    def test_matches_complex_route(self, shape, kind):
        grid = TorusGrid(*shape)
        arr = _w_input(kind, grid)
        want = _w_derivatives_2d(arr, grid)
        got = w_derivatives(arr, grid)
        scale = np.abs(arr).max()
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.iscomplexobj(g) == np.iscomplexobj(arr)
            assert (np.abs(g - w).max()
                    <= 1e-13 * max(np.abs(w).max(), scale))

    def test_axis_multipliers_cached_read_only(self):
        """The 1-d multipliers i xi_theta (a column) and i xi_z, Nyquist
        zeroed, are built once per grid, read-only, and leave the grid's
        own frequency arrays as they were."""
        grid = TorusGrid(16, 8)
        mt, mz = symbols._axis_multipliers(grid)
        assert symbols._axis_multipliers(TorusGrid(16, 8))[0] is mt
        assert not mt.flags.writeable and not mz.flags.writeable
        want_t, want_z = 1j * grid.xi_theta[:, None], 1j * grid.xi_z
        want_t[8], want_z[4] = 0.0, 0.0
        assert np.array_equal(mt, want_t) and np.array_equal(mz, want_z)
        assert grid.xi_theta[8] == -8.0 and grid.xi_z[4] == -4.0


class TestRealGradient:
    @pytest.mark.parametrize("surface", ["deformed", "random"])
    def test_self_reflecting_gradient_is_real(self, grid16, surface):
        """A closure with real coefficients is its own Schwarz reflection,
        f(xi - ih) = conj f(xi + ih) exactly, so the complex-step fallback's
        gradient is bitwise (f(xi + ih) - conj f(xi + ih))/(2ih), real: its
        imaginary part is zero, its real part Im f(xi + ih)/h."""
        eta = _deformed(grid16) if surface == "deformed" else _random(grid16)
        lam = lambda_symbol(eta)
        gamma_sym = _symmetrizer(eta)[1]
        xts, xzs = lattice_points(grid16)
        xt, xz = _as_xi(xts[:40]), _as_xi(xzs[:40])
        h = 1e-5 * np.sqrt(xt ** 2 + xz ** 2)
        for f in (lam.principal, _mu(eta).principal, gamma_sym.principal,
                  parametrix(lam).principal):
            for g, plus in zip(symbols._complex_step(f, xt, xz),
                               ((xt + 1j * h, xz), (xt, xz + 1j * h))):
                up = f(*plus)
                assert np.array_equal(g, (up - np.conj(up)) * (-0.5j / h))
                assert not np.imag(g).any()


class TestSharedWDerivatives:
    def test_once_per_scope_and_bitwise(self, monkeypatch, grid16):
        """Inside a sharing scope the w-derivatives of a closure at a chunk
        are computed once, bitwise the direct ones."""
        lam = lambda_symbol(_deformed(grid16))
        xt, xz = (_as_xi(x[:8]) for x in lattice_points(grid16))
        want = w_derivatives(lam.principal(xt, xz), grid16)
        calls = []
        direct = symbols.w_derivatives

        def counted(arr, grid):
            calls.append(1)
            return direct(arr, grid)

        monkeypatch.setattr(symbols, "w_derivatives", counted)
        with symbols._sharing():
            got = [symbols._w_derivatives_of(lam.principal, xt, xz, grid16)
                   for _ in range(3)]
        assert len(calls) == 1
        for pair in got:
            assert all(np.array_equal(g, w) for g, w in zip(pair, want))

    def test_report_forms_each_once_per_chunk(self, monkeypatch, grid16):
        """A 16^2 report forms the w-derivatives of each closure once per xi
        chunk: of lambda1, 1/lambda1, mu2, gamma^(3/2) and the mollifier,
        though compositions, the parametrix and brackets share them."""
        seen = []
        at = symbols._w_derivatives_at

        def spy(fn, xt, xz, grid):
            seen.append((_name(fn), xt.tobytes(), xz.tobytes()))
            return at(fn, xt, xz, grid)

        monkeypatch.setattr(symbols, "_w_derivatives_at", spy)
        symbol_identity_report(_deformed(grid16), SIGMA, R)
        chunks = -(-len(lattice_points(grid16)[0]) // grid16.xi_chunk())
        assert len(set(seen)) == len(seen) == 5 * chunks
        assert {n for n, _, _ in seen} == {"lam1", "inv_principal", "mu2",
                                           "gamma32", "j0"}


class TestNanResiduals:
    """A NaN anywhere makes a residual NaN, which fails its check."""

    def test_lattice_checks(self, grid16):
        xt, xz = lattice_points(grid16)

        def nan(a, b):
            return np.full(np.shape(a)[:1] + (16, 16), np.nan)

        def nan_last(a, b):
            out = np.ones(np.shape(a)[:1] + (16, 16))
            out[-1, 3, 4] = np.nan
            return out

        checks = symbols._lattice_checks(
            {"everywhere": (1.0, [nan]),
             "second_closure": (1.0, [lambda a, b: np.ones((1, 16, 16)), nan]),
             "one_point": (10.0, [nan_last])}, grid16, xt, xz)
        assert [c.name for c in checks] == ["everywhere", "second_closure",
                                            "one_point"]
        for c in checks:
            assert np.isnan(c.residual) and not c.passed, c

    def test_report_invariants(self, monkeypatch, grid16):
        """A NaN homogeneity residual or ellipticity margin of mu, the
        second of the report's symbols, fails its check."""
        homogeneity = HomogeneousSymbol.homogeneity_residual
        margin = HomogeneousSymbol.ellipticity_margin
        monkeypatch.setattr(
            HomogeneousSymbol, "homogeneity_residual",
            lambda s: np.nan if s.name == "mu" else homogeneity(s))
        monkeypatch.setattr(
            HomogeneousSymbol, "ellipticity_margin",
            lambda s: np.nan if s.name == "mu" else margin(s))
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid16), SIGMA, R)}
        for name in ("homogeneity", "ellipticity_margin"):
            assert np.isnan(checks[name].residual), name
            assert not checks[name].passed, name

    def test_parametrix_rejects_nan_margin(self, grid16):
        sym = HomogeneousSymbol(
            grid16, 1.0, lambda xt, xz: np.full(np.shape(xt) + (16, 16), np.nan))
        with pytest.raises(EllipticityError):
            parametrix(sym)

class TestMuSymbol:
    def test_cylinder(self, grid32):
        mu = _mu(TorusField.constant(grid32, R))
        got = mu.principal_at(3.0, 2.0)
        assert np.abs(got - 0.5 * (9.0 / R ** 2 + 4.0)).max() < 1e-13
        assert np.abs(mu.subprincipal(3.0, 2.0)).max() < 1e-14

    def test_cylinder_of_other_radius(self, grid32):
        """On a cylinder of radius Rc != 1, mu^(2) = (m^2/Rc^2 + k^2)/2 and
        mu^(1) = 0: every u- and v-partial of F and G^jk vanishes there."""
        Rc = 1.3
        assert all(np.array_equal(d, np.zeros(3))
                   for d in curvature_F_uv(np.full(3, Rc), np.zeros(3),
                                           np.zeros(3)))
        mu = _mu(TorusField.constant(grid32, Rc))
        for m, k in ((3.0, 2.0), (1.0, 0.0), (0.0, 5.0)):
            got = mu.principal_at(m, k)
            assert np.abs(got - 0.5 * (m ** 2 / Rc ** 2 + k ** 2)).max() < 1e-13
            assert np.abs(mu.subprincipal(m, k)).max() < 1e-14

    def test_re_mu1_vanishes(self, grid32):
        mu = _mu(_deformed(grid32))
        assert np.abs(np.real(mu.subprincipal(4.0, 3.0))).max() < 1e-14

    def test_two_paths_and_im_identity(self, grid32):
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid32), SIGMA, R)}
        assert checks["mu2_two_paths"].residual < 1e-10
        assert checks["im_mu1"].residual < 1e-8


class TestSymmetrizer:
    def test_mu2_is_a2_lambda1_sq(self, grid32):
        eta = _deformed(grid32)
        a_sym, _, _, _ = _symmetrizer(eta)
        lam = lambda_symbol(eta)
        mu = _mu(eta)
        for m, k in ((2.0, 1.0), (5.0, 7.0)):
            d = mu.principal_at(m, k) - (a_sym.principal_at(m, k) ** 2
                                         * lam.principal_at(m, k) ** 2)
            assert np.abs(d).max() < 1e-12

    def test_q0_cylinder_value(self, grid32):
        _, _, q_sym, _ = _symmetrizer(TorusField.constant(grid32, R))
        expect = 2.0 ** (1.0 / 6.0) * np.sqrt(R)
        assert np.abs(q_sym.principal_at(1.0, 0.0) - expect).max() < 1e-13

    def test_principal_identities(self, grid32):
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid32), SIGMA, R)}
        assert checks["p_times_lambda_eq_gamma_q"].residual < 1e-10
        assert checks["q_sigma_mu2_eq_gamma_p"].residual < 1e-10
        assert checks["q0_equation"].residual < 1e-8


class TestSharpAlgebra:
    def test_unit_composition(self, grid32):
        eta = _deformed(grid32)
        lam = lambda_symbol(eta)
        one = HomogeneousSymbol(grid32, 0.0,
                                lambda xt, xz: np.ones((1, 1)) * np.ones(
                                    np.broadcast_shapes(np.shape(xt),
                                                        np.shape(xz)) or (1, 1)))
        left = sharp_compose(one, lam)
        right = sharp_compose(lam, one)
        for m, k in ((3.0, 1.0), (0.0, 6.0)):
            assert np.abs(left.total(m, k) - lam.total(m, k)).max() < 1e-11
            assert np.abs(right.total(m, k) - lam.total(m, k)).max() < 1e-11

    def test_parametrix_closes(self, grid32):
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid32), SIGMA, R)}
        assert checks["lambda_parametrix"].residual < 1e-9

    def test_parametrix_cylinder_closed_form(self, grid32):
        lam = lambda_symbol(TorusField.constant(grid32, R))
        inv = parametrix(lam)
        m, k = 4.0, 3.0
        assert np.abs(inv.principal_at(m, k)
                      - 1.0 / np.hypot(m / R, k)).max() < 1e-13
        assert inv.ellipticity_margin() > 0.0

    def test_parametrix_rejects_non_elliptic(self, grid32):
        bad = HomogeneousSymbol(
            grid32, 1.0,
            lambda xt, xz: (xt + 0.0 * xz) * np.ones((grid32.n_theta,
                                                      grid32.n_z)))
        with pytest.raises(EllipticityError):
            parametrix(bad)

    def test_poisson_bracket_of_gamma_functions(self, grid32):
        eta = _deformed(grid32)
        _, gamma_sym, _, _ = _symmetrizer(eta)
        j = mollifier_symbol(gamma_sym, 0.4)
        pb = poisson_bracket(gamma_sym, j)
        for m, k in ((2.0, 2.0), (6.0, 1.0)):
            assert np.abs(pb.principal_at(m, k)).max() < 1e-9


class TestMollifier:
    def test_zero_strength(self, grid32):
        eta = _deformed(grid32)
        _, gamma_sym, _, _ = _symmetrizer(eta)
        j = mollifier_symbol(gamma_sym, 0.0)
        assert np.abs(j.principal_at(5.0, 5.0) - 1.0).max() < 1e-14
        assert np.abs(j.subprincipal(5.0, 5.0)).max() < 1e-12

    def test_range(self, grid32):
        eta = _deformed(grid32)
        _, gamma_sym, _, _ = _symmetrizer(eta)
        j = mollifier_symbol(gamma_sym, 0.7)
        vals = np.real(j.principal_at(4.0, 4.0))
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_cylinder_subprincipal_vanishes(self, grid32):
        _, gamma_sym, _, _ = _symmetrizer(TorusField.constant(grid32, R))
        j = mollifier_symbol(gamma_sym, 0.5)
        assert np.abs(j.subprincipal(3.0, 3.0)).max() < 1e-12

    def test_negative_strength_rejected(self, grid32):
        _, gamma_sym, _, _ = _symmetrizer(TorusField.constant(grid32, R))
        with pytest.raises(ValueError):
            mollifier_symbol(gamma_sym, -0.1)


class TestReport:
    def test_cylinder_all_tiny(self, grid16):
        checks = symbol_identity_report(TorusField.constant(grid16, R),
                                        SIGMA, R)
        for c in checks:
            if c.name == "ellipticity_margin":
                continue
            assert c.residual < 1e-12, c

    def test_deformed_below_thresholds(self, grid32):
        checks = symbol_identity_report(_deformed(grid32), SIGMA, R)
        for c in checks:
            assert c.passed, c

    @pytest.mark.parametrize("name", ["theta_reflection", "z_reflection"])
    def test_ellipticity_margin_reflection_invariant(self, grid32, name):
        """The margin's directions (2k+1) pi/16 map onto themselves under
        xi_theta -> -xi_theta and xi_z -> -xi_z, so a reflected surface has
        the same margin, exactly.  The directions 2 pi k/16 + 0.13 read
        margins 9.0e-5 relative apart on this surface."""
        def margin(eta):
            return {c.name: c.residual for c in symbol_identity_report(
                eta, SIGMA, R)}["ellipticity_margin"]

        eta = skewed_surface(grid32)
        moved = TorusField(grid32, SYMMETRIES[name](eta.values))
        assert margin(moved) == margin(eta)

    def test_one_factorization_per_rho_and_one_pass(self, monkeypatch,
                                                    grid16):
        """A report builds the factorization at rho = 1 and 0.7 once each,
        lambda reads the rho = 1 one, and one _lattice_checks pass makes
        the twelve lattice lines, in the report's order."""
        built, read, passes = [], [], []
        factorization = symbols._factorization
        lambda_from = symbols._lambda_from
        lattice_checks = symbols._lattice_checks

        def built_spy(surface, rho):
            built.append((rho, factorization(surface, rho)))
            return built[-1][1]

        def read_spy(surface, fact):
            read.append(fact)
            return lambda_from(surface, fact)

        def pass_spy(identities, *args):
            passes.append(list(identities))
            return lattice_checks(identities, *args)

        monkeypatch.setattr(symbols, "_factorization", built_spy)
        monkeypatch.setattr(symbols, "_lambda_from", read_spy)
        monkeypatch.setattr(symbols, "_lattice_checks", pass_spy)
        checks = symbol_identity_report(_deformed(grid16), SIGMA, R)
        assert [rho for rho, _ in built] == [1.0, 0.7]
        assert len(read) == 1 and read[0] is built[0][1]
        names = [c.name for c in checks]
        assert passes == [names[:10] + names[-2:]]
        assert names[10:13] == ["homogeneity", "ellipticity_margin",
                                "lambda_reality"]
        assert names[-2:] == ["factorization_rho_1", "factorization_rho_0_7"]

    def test_fault_hook_trips_im_lambda0(self, grid32, lambda0_sign_fault):
        checks = {c.name: c for c in symbol_identity_report(
            _deformed(grid32), SIGMA, R)}
        assert not checks["im_lambda0"].passed


_SECOND_REPORT_FAULTS = """
import resource
import numpy as np
from jetwave.spectral import TorusField, TorusGrid
from jetwave.symbols import symbol_identity_report
grid = TorusGrid(16, 16)
th, zz = grid.mesh()
eta = TorusField(grid, 1.0 + 0.1 * np.cos(th) * np.cos(zz))
symbol_identity_report(eta, 1.0, 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
symbol_identity_report(eta, 1.0, 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_second_report_reuses_the_heap():
    """Importing spectral raises glibc's mmap and trim thresholds, so in a
    fresh process with no DtnSolver a second 16^2 report reuses the memory
    of the first: a few minor faults, not the ~2e4 of chunk temporaries
    returned to the OS and faulted in again."""
    src = os.path.dirname(os.path.dirname(symbols.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SECOND_REPORT_FAULTS],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


# Residuals of the report on _deformed(grid32), as float.hex, recorded with
# the symbol closures' xi-independent profiles computed once per factory,
# each w-derivative transformed along its own axis on scipy.fft, real
# transforms for real input, the surface's spectral derivatives taken on
# its rfft2 half-spectrum, the closed-form xi-gradients the closures declare
# the reality sample strided over the half lattice and the ellipticity
# margin read on the reflection-closed directions (2k+1) pi/16 (x86-64,
# numpy 2.x, scipy 1.17).
_PINNED = {
    "analytic": {
        "mu2_eq_a2_lambda1_sq": "0x1.8000000000000p-43",
        "mu2_two_paths": "0x1.8000000000000p-43",
        "p_times_lambda_eq_gamma_q": "0x1.0000000000000p-46",
        "q_sigma_mu2_eq_gamma_p": "0x1.0000000000000p-43",
        "im_lambda0": "0x1.1a40000000000p-48",
        "im_mu1": "0x1.5600000000000p-44",
        "re_mu1": "0x0.0p+0",
        "q0_equation": "0x1.be00000000000p-39",
        "lambda_parametrix": "0x1.c000000000000p-49",
        "poisson_gamma_mollifier": "0x1.7798000000000p-49",
        "homogeneity": "0x1.0000000000000p-51",
        "ellipticity_margin": "-0x1.aa85c32c7c74fp-2",
        "lambda_reality": "0x1.000061ffed3e0p-48",
        "factorization_rho_1": "0x1.4001ce2490e08p-42",
        "factorization_rho_0_7": "0x1.00010691769bbp-41",
    },
}
# the lambda0_sign_fault fixture moves the Im-lambda0 identity, and the
# parametrix identity within roundoff (the flipped lambda0 cancels in it)
_PINNED["fault"] = dict(_PINNED["analytic"], im_lambda0="0x1.bde9ff880465ep-4",
                        lambda_parametrix="0x1.bf40000000000p-49")


def _hex_report(*args):
    return {c.name: c.residual.hex() for c in symbol_identity_report(*args)}


class TestReportPinned:
    """Every residual, bit for bit."""

    def test_analytic(self, grid32):
        got = _hex_report(_deformed(grid32), SIGMA, R)
        assert got == _PINNED["analytic"]

    def test_fault(self, grid32, lambda0_sign_fault):
        got = _hex_report(_deformed(grid32), SIGMA, R)
        assert got == _PINNED["fault"]


class TestReportIsPure:
    """Evaluations shared inside one report never leak into another."""

    @staticmethod
    def _other(grid, seed=5):
        return TorusField.constant(grid, R) + band_limited_random(
            grid, np.random.default_rng(seed), kmax=3, decay=3.0,
            max_norm=0.05)

    def test_repeat_and_after_other_surface(self, grid16):
        first = _hex_report(_deformed(grid16), SIGMA, R)
        assert _hex_report(_deformed(grid16), SIGMA, R) == first
        _hex_report(self._other(grid16), SIGMA, R)
        assert _hex_report(_deformed(grid16), SIGMA, R) == first

    def test_concurrent_threads(self, grid16):
        surfaces = [_deformed(grid16), self._other(grid16)]
        expect = [_hex_report(eta, SIGMA, R) for eta in surfaces]
        got = [None] * 4

        def work(i):
            got[i] = _hex_report(surfaces[i % 2], SIGMA, R)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expect[i % 2] for i in range(4)]


# a surface of the random family (kmax 3, decay 3, amplitude 0.05)
_random = TestReportIsPure._other


def _declared(monkeypatch, eta):
    """Every closure that declares a xi-gradient (see symbols._declare), as
    symbol_identity_report builds them on eta; its lattice residuals are
    skipped."""
    made = []
    declare = symbols._declare

    def spy(fn, gradient, *factors):
        out = declare(fn, gradient, *factors)
        if getattr(out, "gradient", None) is not None:
            made.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(symbols, "_declare", spy)
        m.setattr(symbols, "_lattice_checks", lambda *args: [])
        symbol_identity_report(eta, SIGMA, R)
    return made


def _name(shared):
    """The name of the closure a shared closure evaluates."""
    return shared.args[0].__name__


def _steps(xt, xz):
    """The imaginary step 1j*h that the complex step takes at xi != 0."""
    return 1j * (1e-5 * np.sqrt(xt ** 2 + xz ** 2))


# the closures that declare a closed-form xi-gradient: three leaves and four
# built from them by the chain rule
_DECLARED = ["a1", "gamma32", "inv_principal", "j0", "lam1", "mu2", "prod_ml"]


class TestReflection:
    """The closures that declare a xi-gradient are their own Schwarz
    reflection, f(xi - ih) = conj f(xi + ih), and a1 reflects into A1,
    exactly (a zero may differ in sign).  So where they take the complex
    step, the two-point formula gives the values of the one-point formula
    Im f(xi + ih)/h (a1: a1(xi + ih) - conj A1(xi + ih)), away from xi = 0
    where the square roots branch."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("surface", [_deformed, _random])
    def test_declared_closures_reflect_exactly(self, monkeypatch, n, surface):
        grid = TorusGrid(n, n)
        eta = surface(grid)
        declared = _declared(monkeypatch, eta)
        # a1 of the report's factorizations at rho = 1 (which lambda reads)
        # and 0.7, each closure of the symmetrizer once
        assert sorted(_name(f) for f in declared) == sorted(
            _DECLARED + ["a1"])
        surface_data = _surface_data(eta)
        pairs = [(f, f) for f in declared if _name(f) != "a1"]
        for rho in (1.0, 0.7):
            big_A, small_a, _ = _factorization(surface_data, rho)
            pairs.append((small_a.principal, big_A.principal))
        xts, xzs = lattice_points(grid)
        chunk = grid.xi_chunk()
        # every chunk on 16^2, every fifth on 32^2
        for start in range(0, len(xts), chunk * (1 if n == 16 else 5)):
            xt, xz = (_as_xi(x[start:start + chunk]) for x in (xts, xzs))
            ih = _steps(xt, xz)
            for f, reflection in pairs:
                for plus, minus in (((xt + ih, xz), (xt - ih, xz)),
                                    ((xt, xz + ih), (xt, xz - ih))):
                    want = f(*minus)
                    got = np.conj(reflection(*plus))
                    assert np.array_equal(got, want), _name(f)

    def test_report_never_steps_down_a_declared_closure(self, monkeypatch,
                                                        grid16):
        """A 16^2 report reads every xi-gradient from a declaration: it
        takes no complex step and evaluates no closure at a complex xi."""
        complex_args, stepped, declared = [], [], set()
        evaluate = symbols._evaluate

        def spy(fn, *args):
            if any(not callable(a) and np.iscomplexobj(a) for a in args):
                complex_args.append(fn)
            if fn is symbols._xi_gradient and getattr(args[0], "gradient",
                                                      None) is not None:
                declared.add(_name(args[0]))
            return evaluate(fn, *args)

        monkeypatch.setattr(symbols, "_evaluate", spy)
        monkeypatch.setattr(symbols, "_complex_step",
                            lambda *args: stepped.append(args))
        symbol_identity_report(_deformed(grid16), SIGMA, R)
        assert complex_args == [] and stepped == []
        assert sorted(declared) == _DECLARED

    def test_undeclared_closure_takes_both_points(self, grid16):
        """A closure that declares no gradient (a bare lambda) is
        differentiated at xi + ih and xi - ih, bitwise the two-point formula
        (f(xi + ih) - f(xi - ih))/(2ih), against its closed form and with no
        RuntimeWarning."""
        seen = []

        def f(xt, xz):
            seen.append(np.imag(np.asarray(xt) + np.asarray(xz)))
            return (xt ** 3 + 2.0 * xt * xz ** 2) * np.ones((16, 16))

        sym = HomogeneousSymbol(grid16, 3.0, f)
        assert getattr(sym.principal, "gradient", None) is None
        xt, xz = (_as_xi(x) for x in (np.array([3.0, 0.4, -2.0]),
                                      np.array([1.0, -0.7, 5.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gt, gz = xi_gradient(sym.principal, xt, xz)
        assert _rel(gt, (3.0 * xt ** 2 + 2.0 * xz ** 2) * np.ones((16, 16))) <= 1e-10
        assert _rel(gz, 4.0 * xt * xz * np.ones((16, 16))) <= 1e-10
        assert min(s.min() for s in seen) < 0.0 < max(s.max() for s in seen)
        ih = _steps(xt, xz)
        scale = -0.5j / np.imag(ih)
        assert np.array_equal(gt, (f(xt + ih, xz) - f(xt - ih, xz)) * scale)
        assert np.array_equal(gz, (f(xt, xz + ih) - f(xt, xz - ih)) * scale)


# The bound of the gradient oracle.  Measured on 16^2 and 32^2, deformed
# and random surfaces: mu2 agrees to 6e-16, lam1, gamma32, prod_ml and
# inv_principal to 2e-10, a1 to 8e-10 and j0 to 2.2e-8 (at |xi| = 21 on
# 32^2).  The differences are the complex step's own error, its O(h^2)
# term at h = 1e-5 |xi| (largest for the exponential j0) and, for the
# complex-valued a1, cancellation: with h = 1e-7 |xi| the one-point step
# Im f(xi + ih)/h of the six real closures agrees with the declared
# gradients to 2e-12.  1e-7 clears 2.2e-8 by 4x and sits 10x under the
# 1e-6 of the fault fixture.
_GRADIENT_RTOL = 1e-7


def _off_lattice(n_angles=5):
    """Real xi off the lattice, |xi| from 0.05 to 13.3, stacked like a chunk."""
    ang = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False) + 0.31
    rad = np.array([0.05, 0.37, 2.9, 13.3])[:, None]
    return _as_xi((rad * np.cos(ang)).ravel()), _as_xi((rad * np.sin(ang)).ravel())


def _gradient_errors(declared, grid):
    """Name -> max over the lattice and off-lattice xi of the relative error
    of each declared gradient against the complex step of its closure, per
    xi and component (max over w of the difference over max over w of the
    step)."""
    xts, xzs = lattice_points(grid)
    chunk = grid.xi_chunk()
    stacks = [(_as_xi(xts[i:i + chunk]), _as_xi(xzs[i:i + chunk]))
              for i in range(0, len(xts), chunk)] + [_off_lattice()]
    err = dict.fromkeys(sorted({_name(f) for f in declared}), 0.0)
    for f in declared:
        for xt, xz in stacks:
            for got, want in zip(f.gradient(xt, xz),
                                 symbols._complex_step(f, xt, xz)):
                rel = (np.abs(got - want).max(axis=(-2, -1))
                       / np.abs(want).max(axis=(-2, -1)))
                err[_name(f)] = max(err[_name(f)], float(rel.max()))
    return err


class TestDeclaredGradients:
    """The closed-form xi-gradients the closures declare against the
    complex step of the closures themselves."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("surface", [_deformed, _random])
    def test_against_complex_step(self, monkeypatch, n, surface):
        err = _gradient_errors(_declared(monkeypatch, surface(TorusGrid(n, n))),
                               TorusGrid(n, n))
        assert sorted(err) == _DECLARED
        assert max(err.values()) <= _GRADIENT_RTOL, err

    @pytest.mark.parametrize("name", _DECLARED)
    def test_fault_fails_the_oracle(self, monkeypatch, grid16, gradient_fault,
                                    name):
        """Each declared gradient scaled by 1 + 1e-6 fails the oracle.  On
        the 32^2 reference surface six of the seven faults also fail a
        report line: a1 im_lambda0; lam1 im_lambda0 and q0_equation; mu2
        im_mu1 and q0_equation; prod_ml q0_equation; inv_principal
        lambda_parametrix; j0 poisson_gamma_mollifier.  The gamma32 fault
        fails none: its error cancels in {gamma, j_eps}, whose j_eps
        gradient carries the same factor."""
        gradient_fault(name)
        err = _gradient_errors(_declared(monkeypatch, _deformed(grid16)),
                               grid16)
        assert err[name] > _GRADIENT_RTOL, err

    def test_at_zero(self, grid16):
        """At xi = 0, where the square-root closures have no gradient, every
        declared closure takes the central complex step, bitwise the
        two-point formula, finite and with no RuntimeWarning; mu2's, whose
        gradient exists there, is 0."""
        eta = _deformed(grid16)
        surface = _surface_data(eta)
        lam = _lambda_from(surface, _factorization(surface, 1.0))
        mu = _mu_from(surface)
        gamma_sym = _symmetrizer(eta)[1]
        closures = [lam.principal, mu.principal, gamma_sym.principal,
                    parametrix(lam).principal,
                    mollifier_symbol(gamma_sym, 0.5).principal,
                    _factorization(surface, 1.0)[1].principal]
        zero = _as_xi(np.zeros(3))
        h = np.full((3, 1, 1), 1e-5)
        for f in closures:
            assert f.gradient is not None
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                gt, gz = xi_gradient(f, zero, zero)
            assert np.array_equal(
                gt, (f(zero + 1j * h, zero) - f(zero - 1j * h, zero)) * (-0.5j / h))
            assert np.array_equal(
                gz, (f(zero, zero + 1j * h) - f(zero, zero - 1j * h)) * (-0.5j / h))
            assert np.isfinite(gt).all() and np.isfinite(gz).all()
        assert not np.any(xi_gradient(mu.principal, zero, zero))

    def test_complex_xi_raises(self, grid16):
        """A complex xi is rejected, not read at its real part."""
        lam1 = lambda_symbol(_deformed(grid16)).principal
        with pytest.raises(ValueError):
            xi_gradient(lam1, 3 + 0.5j, 1)
        with pytest.raises(ValueError):
            xi_gradient(lam1, 3.0, np.array([1.0 + 0j]))


class TestChunkInvariance:
    """The xi chunk size changes no bit of the report: every residual is an
    exact max of per-frequency values."""

    @pytest.mark.parametrize("chunk", [5, 23])
    def test_report_bitwise(self, monkeypatch, grid32, chunk):
        """Against the pinned residuals, which the rule's 16 gives."""
        assert grid32.xi_chunk() == 16
        monkeypatch.setattr(TorusGrid, "xi_chunk", lambda self: chunk)
        assert _hex_report(_deformed(grid32), SIGMA, R) == _PINNED["analytic"]

    def test_chunk_rule(self):
        assert [TorusGrid(n, n).xi_chunk() for n in (16, 32, 64, 256)] == \
            [64, 16, 4, 1]


# ---------------------------------------------------------------------------
# the half lattice
# ---------------------------------------------------------------------------

_HALF_GRIDS = {"16x16": TorusGrid(16, 16), "32x32": TorusGrid(32, 32),
               "16x32_4pi": TorusGrid(16, 32, z_period=4.0 * np.pi)}


class TestHalfLattice:
    """The report samples lattice_points, half of the Nyquist-free lattice
    without xi = 0, whose other half is its mirror -xi."""

    @pytest.mark.parametrize("name", _HALF_GRIDS)
    def test_half_and_mirror_cover_the_lattice(self, name):
        grid = _HALF_GRIDS[name]
        half = list(zip(*lattice_points(grid)))
        mirror = {(-a, -b) for a, b in half}
        assert len(set(half)) == len(half)
        assert not set(half) & mirror
        assert set(half) | mirror == set(zip(*full_lattice_points(grid)))

    @pytest.mark.parametrize("name", _HALF_GRIDS)
    def test_apply_paradiff_samples_the_same_half(self, name):
        """On a field with no zero coefficient, apply_paradiff samples, in
        order, the points of lattice_points that its dyadic weight keeps:
        both read TorusGrid.half_lattice."""
        grid = _HALF_GRIDS[name]
        u = TorusField(grid, np.random.default_rng(3).standard_normal(
            (grid.n_theta, grid.n_z)))
        seen = []

        class Counted:
            def total(self, xt, xz):
                seen.extend(zip(xt, xz))
                return np.ones((len(xt), 1, 1))

        apply_paradiff(Counted(), u)
        nzr = grid.n_z // 2 + 1
        weight = decomposition(grid).blocks[2:].sum(axis=0)
        xt, xz = (x[:, :nzr] for x in grid.xi_mesh())
        weighted = set(zip(xt[weight != 0.0], xz[weight != 0.0]))
        want = [p for p in zip(*lattice_points(grid)) if p in weighted]
        assert len(want) > len(lattice_points(grid)[0]) // 2
        assert seen == want


class TestFullLatticeOracle:
    """The report on the half lattice against the report on the whole
    lattice, full_lattice_points patched in for lattice_points (which the
    reality sample reads too)."""

    @staticmethod
    def _both(monkeypatch, eta):
        half = symbol_identity_report(eta, SIGMA, R)
        with monkeypatch.context() as m:
            m.setattr(symbols, "lattice_points", full_lattice_points)
            full = symbol_identity_report(eta, SIGMA, R)
        assert [c.name for c in half] == [c.name for c in full]
        assert len(half) == 15
        return zip(half, full)

    def test_reference_surface_bitwise(self, monkeypatch, grid32):
        """Every residual bitwise but lambda_reality's: its 64 points,
        strided over each lattice, are other points of the two, and its
        roundoff floor (3.6e-15) moves by 1.4e-20; it keeps its pass and
        agrees to 1e-15."""
        for h, f in self._both(monkeypatch, _deformed(grid32)):
            if h.name == "lambda_reality":
                assert h.passed and f.passed
                assert abs(h.residual - f.residual) <= 1e-15
            else:
                assert np.array_equal(h.residual, f.residual), h.name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_family(self, monkeypatch, grid32, seed):
        """Every check keeps its pass or fail.  A residual above 1e-12 moves
        by at most 1e-5 relative, one below it, at roundoff, by at most
        1e-15 absolute.  Measured: im_lambda0 6.5e-8 relative on seed 2
        (conjugate values agree only to roundoff) and 9.9e-18 absolute on
        seed 1 (4.9e-13, 2e-5 relative); lambda_reality, whose 64-point
        sample is another, by at most 1.5e-20."""
        eta = smooth_surface(grid32, np.random.default_rng(seed))
        for h, f in self._both(monkeypatch, eta):
            assert h.passed == f.passed, h.name
            bound = 1e-5 * abs(f.residual) if abs(f.residual) > 1e-12 \
                else 1e-15
            assert abs(h.residual - f.residual) <= bound, h.name

    def test_odd_fault_trips_lambda_reality(self, grid32, lambda0_odd_fault):
        """A real subprincipal term odd in xi breaks a(w, -xi) =
        conj a(w, xi), the property the half lattice rests on.  The
        lambda_reality check, which pairs xi with -xi, fails on it, and
        only that check does."""
        checks = symbol_identity_report(_deformed(grid32), SIGMA, R)
        assert [c.name for c in checks if not c.passed] == ["lambda_reality"]


class TestRealitySample:
    def test_high_k_theta_fault_trips_lambda_reality(self, grid32,
                                                     lambda0_high_odd_fault):
        """The reality sample is strided over the whole half lattice, so a
        reality fault confined to |k_theta| >= 5 fails lambda_reality, and
        only that check; a sample of the first 64 points (|k_theta| <= 4 on
        32^2) passed it at 1.8e-15."""
        checks = symbol_identity_report(_deformed(grid32), SIGMA, R)
        assert [c.name for c in checks if not c.passed] == ["lambda_reality"]


def test_random_family_certified_at_64(grid64):
    """Seed 0 of the random family passes all 15 checks at 64^2 at their
    unchanged thresholds: q0_equation, which misses 1e-8 at 32^2 on seeds 0
    and 2, reads about 1.6e-9 here."""
    eta = smooth_surface(grid64, np.random.default_rng(0))
    checks = symbol_identity_report(eta, SIGMA, R)
    assert len(checks) == 15
    assert [c.name for c in checks if not c.passed] == []
