"""Closed-form symbols, the sharp algebra, parametrix, mollifier, report."""

import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from jetwave import symbols
from jetwave.errors import EllipticityError
from jetwave.geometry import curvature_F_uv
from jetwave.spectral import TorusField, TorusGrid, band_limited_random
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
    lam = _lambda_from(surface)
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
        """The complex-step xi-gradient of lambda^(1) on a cylinder of
        radius Rc against d_xi sqrt(xi_t^2/Rc^2 + xi_z^2), also at |xi| < 1."""
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


class TestWDivergence:
    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_two_derivatives(self, n):
        grid = TorusGrid(n, n)
        rng = np.random.default_rng(n)
        f, g = (rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
                for _ in range(2))
        want = w_derivatives(f, grid)[0] + w_derivatives(g, grid)[1]
        assert _rel(w_divergence(f, g, grid), want) <= 1e-13


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
# the symbol closures' xi-independent profiles computed once per factory and
# the symbol transforms on scipy.fft (x86-64, numpy 2.x, scipy 1.17).
_PINNED = {
    "analytic": {
        "mu2_eq_a2_lambda1_sq": "0x1.8000000000000p-43",
        "mu2_two_paths": "0x1.8000000000000p-43",
        "p_times_lambda_eq_gamma_q": "0x1.0000000000000p-46",
        "q_sigma_mu2_eq_gamma_p": "0x1.0000000000000p-43",
        "im_lambda0": "0x1.a20ec00000000p-39",
        "im_mu1": "0x1.7480000000000p-44",
        "re_mu1": "0x0.0p+0",
        "q0_equation": "0x1.74b1000009be2p-32",
        "lambda_parametrix": "0x1.5ffd000000d17p-37",
        "poisson_gamma_mollifier": "0x1.a72728000006ap-37",
        "homogeneity": "0x1.0000000000000p-51",
        "ellipticity_margin": "-0x1.a8a23f757b69ep-2",
        "lambda_reality": "0x1.0001fffe00040p-49",
        "factorization_rho_1": "0x1.40029dc346274p-42",
        "factorization_rho_0_7": "0x1.0005e5d0d1f7fp-41",
    },
}
# the lambda0_sign_fault fixture moves only the Im-lambda0 identity
_PINNED["fault"] = dict(_PINNED["analytic"], im_lambda0="0x1.bde9ff8803fc6p-4")


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


def _declared(monkeypatch, build):
    """Every closure made shared while build() runs that declares a Schwarz
    reflection (see symbols._reflecting)."""
    made = {}
    shared = symbols._shared

    def spy(fn):
        out = shared(fn)
        if out is not None:
            made[id(out)] = out
        return out

    monkeypatch.setattr(symbols, "_shared", spy)
    build()
    monkeypatch.undo()
    return [f for f in made.values() if getattr(f, "reflection", None)]


def _name(shared):
    """The name of the closure a shared closure evaluates."""
    return shared.args[0].__name__


def _steps(xt, xz):
    """The imaginary step 1j*h that xi_gradient takes at xi != 0."""
    return 1j * (1e-5 * np.sqrt(xt ** 2 + xz ** 2))


class TestReflection:
    """A closure that declares its Schwarz reflection f* is differentiated
    from xi + ih alone; f(xi - ih) = conj f*(xi + ih) must hold exactly (a
    zero may differ in sign), or the one-sided gradient would move the
    identity report."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("surface", [_deformed, _random])
    def test_declared_closures_reflect_exactly(self, monkeypatch, n, surface):
        grid = TorusGrid(n, n)
        eta = surface(grid)
        declared = _declared(
            monkeypatch, lambda: symbol_identity_report(eta, SIGMA, R))
        names = sorted(_name(f) for f in declared if f.reflection is not f)
        # a1 and A1 reflect into each other: lambda's factorization at
        # rho = 1 and the report's at rho = 1 and 0.7
        assert names == ["A1"] * 3 + ["a1"] * 3
        assert len(declared) >= 12
        xts, xzs = lattice_points(grid)
        chunk = grid.xi_chunk()
        # every chunk on 16^2, every fifth on 32^2
        for start in range(0, len(xts), chunk * (1 if n == 16 else 5)):
            xt, xz = (_as_xi(x[start:start + chunk]) for x in (xts, xzs))
            ih = _steps(xt, xz)
            for f in declared:
                for plus, minus in (((xt + ih, xz), (xt - ih, xz)),
                                    ((xt, xz + ih), (xt, xz - ih))):
                    want = f(*minus)
                    got = np.conj(f.reflection(*plus))
                    assert np.array_equal(got, want), _name(f)

    def test_report_never_steps_down_a_declared_closure(self, monkeypatch,
                                                        grid16):
        """On a 16^2 report no declared closure is evaluated at a xi with a
        negative imaginary step, and each is evaluated at a positive one."""
        calls = []
        evaluate = symbols._evaluate

        def spy(fn, *args):
            imag = [np.imag(a).min() for a in args
                    if not callable(a) and np.iscomplexobj(a)]
            calls.append((fn, min(imag, default=0.0)))
            return evaluate(fn, *args)

        monkeypatch.setattr(symbols, "_evaluate", spy)
        declared = _declared(
            monkeypatch,
            lambda: symbol_identity_report(_deformed(grid16), SIGMA, R))
        declared = {f.args[0] for f in declared}
        names = {fn.__name__ for fn in declared}
        assert names >= {"lam1", "mu2", "gamma32", "j0", "prod_ml",
                         "inv_principal", "a1", "A1"}
        assert not any(low < 0.0 for fn, low in calls if fn in declared)
        stepped = {fn.__name__ for fn, low in calls if low > 0.0}
        assert stepped >= {"lam1", "mu2", "gamma32", "j0", "prod_ml",
                           "inv_principal", "a1", "A1"}

    def test_undeclared_closure_takes_both_points(self, grid16):
        """A closure without a declared reflection (a bare lambda) is still
        differentiated at xi + ih and xi - ih, against its closed form."""
        seen = []

        def f(xt, xz):
            seen.append(np.imag(np.asarray(xt) + np.asarray(xz)))
            return (xt ** 3 + 2.0 * xt * xz ** 2) * np.ones((16, 16))

        sym = HomogeneousSymbol(grid16, 3.0, f)
        assert getattr(sym.principal, "reflection", None) is None
        xt, xz = (_as_xi(x) for x in (np.array([3.0, 0.4, -2.0]),
                                      np.array([1.0, -0.7, 5.0])))
        gt, gz = xi_gradient(sym.principal, xt, xz)
        assert _rel(gt, (3.0 * xt ** 2 + 2.0 * xz ** 2) * np.ones((16, 16))) <= 1e-10
        assert _rel(gz, 4.0 * xt * xz * np.ones((16, 16))) <= 1e-10
        assert min(s.min() for s in seen) < 0.0 < max(s.max() for s in seen)


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
