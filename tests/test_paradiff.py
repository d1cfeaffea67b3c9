"""Paraproducts, the Bony remainder, quantization, good unknown."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pad_coefficients, truncate_coefficients

from jetwave import spectral
from jetwave.paradiff import (
    apply_paradiff,
    bony_remainder,
    good_unknown,
    paraproduct,
)
from jetwave.spectral import (
    TAU,
    TorusField,
    TorusGrid,
    band_limited_random,
    dealiased_product,
    decomposition,
    forward_transform,
    low_pass,
)
from jetwave.symbols import (
    HomogeneousSymbol,
    _mu_from,
    _surface_data,
    lambda_symbol,
)


def _mode(grid, m, k, amp=1.0):
    th, zz = grid.mesh()
    return TorusField(grid, amp * np.cos(m * th + k * zz))


class TestParaproduct:
    def test_constant_second_argument(self, grid32, rng):
        a = band_limited_random(grid32, rng, kmax=6)
        assert paraproduct(a, TorusField.constant(grid32, 2.0)).max_norm() < 1e-14

    def test_constant_shift_invariance(self, grid32, rng):
        a = band_limited_random(grid32, rng, kmax=6)
        b = band_limited_random(grid32, rng, kmax=10)
        d = paraproduct(a, b + 17.0) - paraproduct(a, b)
        assert d.max_norm() < 1e-13

    def test_unit_first_argument_against_block_sum(self, grid32, rng):
        """T_1 b = sum of high blocks, checked against direct lattice
        summation of the block multipliers."""
        b = band_limited_random(grid32, rng, kmax=14)
        got = paraproduct(TorusField.constant(grid32, 1.0), b)
        dec = decomposition(grid32)
        mult = np.zeros((grid32.n_theta, grid32.n_z))
        for j in range(2, dec.jmax + 1):
            mult = mult + dec.blocks[j]
        oracle = TorusField.from_coefficients(grid32, b.coefficients * mult)
        assert (got - oracle).max_norm() < 1e-13

    def test_forward_transforms_only_its_arguments(self, monkeypatch, grid32,
                                                  rng):
        """Blocks are tested for emptiness in coefficient space: on fresh
        fields only a and b are transformed forward."""
        a = band_limited_random(grid32, rng, kmax=6)
        b = band_limited_random(grid32, rng, kmax=14)
        calls = []

        def counted(grid, values):
            calls.append(grid)
            return forward_transform(grid, values)

        monkeypatch.setattr(spectral, "forward_transform", counted)
        paraproduct(a, b)
        assert len(calls) == 2

    def test_low_frequency_blindness(self, grid32, rng):
        a = band_limited_random(grid32, rng, kmax=8)
        u = band_limited_random(grid32, rng, kmax=12)
        assert paraproduct(a, low_pass(u, 1)).max_norm() < 1e-15

    def test_grid_mismatch(self, grid32, grid16):
        with pytest.raises(ValueError):
            paraproduct(TorusField.zeros(grid32), TorusField.zeros(grid16))


class TestBonyRemainder:
    def test_zero_first_argument(self, grid32, rng):
        b = band_limited_random(grid32, rng, kmax=8)
        assert bony_remainder(TorusField.zeros(grid32), b).max_norm() < 1e-15

    def test_symmetric(self, grid32, rng):
        a = band_limited_random(grid32, rng, kmax=9)
        b = band_limited_random(grid32, rng, kmax=9)
        d = bony_remainder(a, b) - bony_remainder(b, a)
        assert d.max_norm() < 1e-13

    @given(seed=st.integers(0, 2 ** 31))
    def test_reconstruction_exact(self, seed):
        grid = TorusGrid(16, 16)
        r = np.random.default_rng(seed)
        a = band_limited_random(grid, r, kmax=6, zero_mean=False)
        b = band_limited_random(grid, r, kmax=6, zero_mean=False)
        lhs = dealiased_product(a, b)
        rhs = paraproduct(a, b) + paraproduct(b, a) + bony_remainder(a, b)
        assert (lhs - rhs).max_norm() < 1e-12

    def test_same_annulus_pair_is_pure_remainder(self, grid32):
        """Two modes in the same high annulus: both paraproducts vanish
        (S_{j-2} kills the other factor) and R(a, b) = ab with spectrum on
        the sum/difference frequencies."""
        a = _mode(grid32, 9, 1)
        b = _mode(grid32, 8, 4)
        assert paraproduct(a, b).max_norm() < 1e-14
        assert paraproduct(b, a).max_norm() < 1e-14
        r = bony_remainder(a, b)
        assert (r - dealiased_product(a, b)).max_norm() < 1e-14
        c = np.abs(r.coefficients)
        support = {tuple(idx) for idx in np.argwhere(c > 1e-13)}
        expected = set()
        for signs in ((1, 1), (1, -1)):
            ft = 9 * signs[0] + 8 * signs[1] * 1
            fz = 1 * signs[0] + 4 * signs[1]
            for s in (1, -1):
                expected.add((s * ft % 32, s * fz % 32))
        assert support <= expected


class TestApplyParadiff:
    def test_multiplier_symbol(self, grid32, rng):
        """xi-only symbols act as Fourier multipliers on the high part."""
        u = band_limited_random(grid32, rng, kmax=14)

        def sample(xt, xz):
            return (xt ** 2 + 0.5 * xz ** 2) * np.ones((32, 32), dtype=complex)

        got = apply_paradiff(HomogeneousSymbol(grid32, 2.0, sample), u)
        dec = decomposition(grid32)
        xt, xz = grid32.xi_mesh()
        mult = np.zeros_like(xt)
        for j in range(2, dec.jmax + 1):
            mult += dec.blocks[j]
        oracle = TorusField.from_coefficients(
            grid32, u.coefficients * mult * (xt ** 2 + 0.5 * xz ** 2))
        assert (got - oracle).max_norm() < 1e-11

    def test_w_only_symbol_is_paraproduct(self, grid32, rng):
        a = band_limited_random(grid32, rng, kmax=5)
        u = band_limited_random(grid32, rng, kmax=13)
        sym = HomogeneousSymbol(grid32, 0.0,
                                lambda xt, xz: a.values.astype(complex))
        got = apply_paradiff(sym, u)
        assert (got - paraproduct(a, u)).max_norm() < 1e-12

    def test_lambda_on_high_mode(self, grid32):
        """Constant radius, mode in a fully-resolved high annulus: T_lambda1
        acts as multiplication by sqrt(m^2/R^2 + k^2)."""
        lam = lambda_symbol(TorusField.constant(grid32, 1.0))
        u = _mode(grid32, 9, 5)
        got = apply_paradiff(HomogeneousSymbol(grid32, 1.0, lam.principal), u)
        expect = np.hypot(9.0, 5.0)
        assert (got - expect * u).max_norm() < 1e-10 * expect

    def test_reality(self, grid32, rng):
        eta = TorusField.constant(grid32, 1.0) + band_limited_random(
            grid32, rng, kmax=3, decay=3.0, max_norm=0.05)
        lam = lambda_symbol(eta)
        u = band_limited_random(grid32, rng, kmax=12)
        out = apply_paradiff(lam, u)
        # output of a real operator stays real by construction; verify the
        # symbol satisfies the conjugate symmetry that makes it so
        assert lam.reality_residual() < 1e-10
        assert np.all(np.isreal(out.values))

    def test_low_frequency_blindness(self, grid32, rng):
        lam = lambda_symbol(TorusField.constant(grid32, 1.0))
        u = low_pass(band_limited_random(grid32, rng, kmax=10), 1)
        assert apply_paradiff(lam, u).max_norm() < 1e-14

    @pytest.mark.parametrize("chunk", [5, 23])
    def test_chunk_size(self, monkeypatch, grid32, rng, chunk):
        """The xi chunk size only reorders the coefficient-space sums."""
        eta = TorusField.constant(grid32, 1.0) + band_limited_random(
            grid32, rng, kmax=3, decay=3.0, max_norm=0.05)
        lam = lambda_symbol(eta)
        u = band_limited_random(grid32, rng, kmax=23, decay=1.0)
        want = apply_paradiff(lam, u)
        monkeypatch.setattr(TorusGrid, "xi_chunk", lambda self: chunk)
        assert (apply_paradiff(lam, u) - want).max_norm() <= 1e-15 * want.max_norm()

    @pytest.mark.parametrize("name, digest", [
        ("lambda",
         "a8dfcbde8164f3025de8e8eae284a467ddf16f5c6041cf33ebf80ff9b9939b1c"),
        ("mu",
         "b4a7430632fb73691f73f34d630d614524491699c331fe9ad956ee38a4e34feb"),
    ], ids=["lambda", "mu"])
    def test_pinned(self, grid32, name, digest):
        """lambda and mu of the reference surface 1 + 0.1 cos theta cos z
        applied to a seeded field, bit for bit: the sha256 of the
        little-endian samples."""
        th, zz = grid32.mesh()
        eta = TorusField(grid32, 1.0 + 0.1 * np.cos(th) * np.cos(zz))
        sym = (lambda_symbol(eta) if name == "lambda"
               else _mu_from(_surface_data(eta)))
        u = band_limited_random(grid32, np.random.default_rng(7), kmax=8)
        out = apply_paradiff(sym, u).values.astype("<f8")
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def _dense_paradiff(symbol, u):
    """Reference quantization: sample the symbol one frequency at a time and
    sum sum_xi s_xi(w) e^{i w.xi} u_hat(xi) on the 3/2-padded grid through a
    dense phase matrix, then take the real part and truncate."""
    grid = u.grid
    dec = decomposition(grid)
    fine = grid.padded()
    xt, xz = grid.xi_mesh()
    uhat = u.coefficients
    js = range(2, dec.jmax + 1)
    block_w = np.stack([dec.blocks[j] for j in js])
    low_w = np.stack([dec.lowpass[j - 2] for j in js])
    active = np.argwhere((block_w.sum(axis=0) != 0.0) & (uhat != 0.0)
                         & ~grid.nyquist_mask())
    tt, zz = (m.ravel() for m in fine.mesh())
    acc = np.zeros(tt.size, dtype=complex)
    for it, iz in active:
        s = np.fft.fft2(symbol.total(float(xt[it, iz]), float(xz[it, iz])))
        s *= np.einsum("j,jtz->tz", block_w[:, it, iz], low_w) / s.size
        vals = np.fft.ifft2(pad_coefficients(grid, s, fine)) * tt.size
        phase = np.exp(1j * (xt[it, iz] * tt + xz[it, iz] * zz))
        acc += vals.ravel() * phase * uhat[it, iz]
    c = np.fft.fft2(acc.real.reshape(fine.n_theta, fine.n_z)) / tt.size
    return TorusField.from_coefficients(grid, truncate_coefficients(fine, c, grid))


class TestCoefficientSpaceSum:
    """apply_paradiff against the dense padded-grid sum it replaces."""

    @staticmethod
    def _surface(grid, kind):
        th, zz = grid.mesh()
        if kind == "random":
            return TorusField.constant(grid, 1.0) + band_limited_random(
                grid, np.random.default_rng(11), kmax=3, decay=3.0,
                max_norm=0.05)
        th0, z0 = (0.0, 0.0) if kind == "reference" else (1.3, TAU - 2.2)
        return TorusField(grid, 1.0 + 0.1 * np.cos(th - th0) * np.cos(zz - z0))

    @pytest.mark.parametrize("kind", ["reference", "translate", "random"])
    def test_lambda(self, grid32, rng, kind):
        lam = lambda_symbol(self._surface(grid32, kind))
        # every resolved frequency, so sums reach the coarse Nyquist row
        u = band_limited_random(grid32, rng, kmax=23, decay=1.0)
        ref = _dense_paradiff(lam, u)
        assert (apply_paradiff(lam, u) - ref).max_norm() <= 1e-13 * ref.max_norm()

    def test_closure_symbol(self, grid32, rng):
        """A symbol built from a closure that broadcasts over stacked xi."""
        a = band_limited_random(grid32, rng, kmax=5)
        u = band_limited_random(grid32, rng, kmax=23, decay=1.0)

        def sample(xt, xz):
            return (1.0 + a.values) * (np.hypot(xt, 2.0 * xz) + 0j)

        sym = HomogeneousSymbol(grid32, 1.0, sample)
        ref = _dense_paradiff(sym, u)
        assert (apply_paradiff(sym, u) - ref).max_norm() <= 1e-13 * ref.max_norm()


class TestGoodUnknown:
    def test_constant_psi(self, grid32, rng):
        eta = band_limited_random(grid32, rng, kmax=4) + 1.0
        psi = TorusField.constant(grid32, 2.0)
        U = good_unknown(eta, psi, TorusField.zeros(grid32))
        assert (U - psi).max_norm() < 1e-14

    def test_constant_eta(self, grid32, rng):
        eta = TorusField.constant(grid32, 1.0)
        psi = band_limited_random(grid32, rng, kmax=6)
        B = band_limited_random(grid32, rng, kmax=6)
        U = good_unknown(eta, psi, B)
        assert (U - psi).max_norm() < 1e-14

    def test_norm_bound(self, grid32, solver32, rng):
        from conftest import smooth_surface
        eta = smooth_surface(grid32, rng, 1.0, amp=0.05)
        psi = band_limited_random(grid32, rng, kmax=5, max_norm=0.5)
        bundle = solver32.trace_bundle(eta, psi, 1e-11)
        U = good_unknown(eta, psi, bundle.B)
        correction = paraproduct(bundle.B, eta)
        assert U.l2_norm() <= psi.l2_norm() + correction.l2_norm() + 1e-12
        # the paraproduct term is a small-amplitude correction
        assert correction.l2_norm() < 0.2 * psi.l2_norm()
