"""Paraproducts, the Bony remainder, quantization, good unknown."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    SYMMETRIES,
    full_coefficients,
    pad_coefficients,
    skewed_surface,
    truncate_coefficients,
)

from jetwave import paradiff
from jetwave.paradiff import (
    COEFFICIENT_FLOOR,
    apply_paradiff,
    bony_remainder,
    good_unknown,
    paraproduct,
)
from jetwave.spectral import (
    TAU,
    TorusField,
    TorusGrid,
    annulus_profile,
    band_limited_random,
    chi_profile,
    dealiased_product,
    decomposition,
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
        mult = np.zeros(dec.blocks.shape[1:])
        for j in range(2, dec.jmax + 1):
            mult = mult + dec.blocks[j]
        oracle = TorusField.from_coefficients(grid32, b.coefficients * mult)
        assert (got - oracle).max_norm() < 1e-13

    def test_forward_transforms_only_its_arguments(self, monkeypatch, grid32,
                                                  rng):
        """Blocks are tested for emptiness in coefficient space: on fresh
        fields only a and b are transformed forward, each by the one rfft2
        of its half-spectrum."""
        a = band_limited_random(grid32, rng, kmax=6)
        b = band_limited_random(grid32, rng, kmax=14)
        half_spectrum = TorusField.coefficients.fget
        calls = []

        def counted(field):
            if field._coefficients is None:     # the real forward transform
                calls.append(field)
            return half_spectrum(field)

        monkeypatch.setattr(TorusField, "coefficients", property(counted))
        paraproduct(a, b)
        assert calls == [b, a]

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
        c = np.abs(full_coefficients(r))
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
        xt, xz = (x[:, :grid32.n_z // 2 + 1] for x in grid32.xi_mesh())
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

    def test_samples_half_the_active_lattice(self, grid32, rng):
        """The symbol is sampled once on each of half the active frequencies,
        k_z > 0 or k_z = 0 < k_theta; their mirrors make up the rest.  The
        active frequencies are those of u's half-spectrum and their
        mirrors."""
        lam = lambda_symbol(TorusField.constant(grid32, 1.0) + band_limited_random(
            grid32, rng, kmax=3, decay=3.0, max_norm=0.05))
        u = band_limited_random(grid32, rng, kmax=23, decay=1.0)
        seen = []

        class Counted:
            def total(self, xt, xz):
                seen.extend(zip(xt, xz))
                return lam.total(xt, xz)

        apply_paradiff(Counted(), u)
        dec = decomposition(grid32)
        nzr = grid32.n_z // 2 + 1
        xt, xz = (x[:, :nzr] for x in grid32.xi_mesh())
        active = ((dec.blocks[2:].sum(axis=0) != 0.0) & (u.coefficients != 0.0)
                  & ~grid32.nyquist_mask()[:, :nzr])
        stored = set(zip(xt[active], xz[active]))
        full = stored | {(-a, -b) for a, b in stored}
        half = set(seen)
        assert len(seen) == len(half) and 2 * len(half) == len(full)
        assert all(b > 0 or (b == 0 and a > 0) for a, b in half)
        assert half | {(-a, -b) for a, b in half} == full

    @pytest.mark.parametrize("name, digest", [
        ("lambda",
         "8266125058f1a36c764c7257cca9f72c89f11b475c3c602f3caabe759c53b39e"),
        ("mu",
         "96a0bcf0c32297122b17da2e3ec0d303c14f622cb7650a5414246c23ee9cfd9c"),
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
    """Reference quantization: sample the symbol one frequency at a time,
    over the full lattice, and sum sum_xi s_xi(w) e^{i w.xi} u_hat(xi) on
    the 3/2-padded grid through a dense phase matrix, then take the real
    part and truncate."""
    grid = u.grid
    dec = decomposition(grid)
    fine = grid.padded()
    xt, xz = grid.xi_mesh()
    radii = np.sqrt(xt ** 2 + xz ** 2)
    uhat = full_coefficients(u)
    js = range(2, dec.jmax + 1)
    block_w = np.stack([annulus_profile(radii / 2.0 ** j) for j in js])
    low_w = np.stack([chi_profile(radii / 2.0 ** (j - 2)) for j in js])
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


class _Counted:
    """A symbol that records every frequency it is sampled at and acts as
    the identity there."""

    def __init__(self, grid):
        self.grid, self.seen = grid, []

    def total(self, xt, xz):
        self.seen.extend(zip(xt, xz))
        return np.ones((self.grid.n_theta, self.grid.n_z), dtype=complex)


def _calculus_unit0_U(solver):
    """The good unknown U of the benchmark's calculus-32 unit 0: the reference
    surface, psi in the annulus 8 <= |xi| <= 11, U = psi - T_B eta."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS["calculus-32"]()
    eta, psi = wl.make(np.random.default_rng(1), 0)
    assert solver.grid == wl.grid and solver.n_rho == workloads.N_RHO
    return eta, good_unknown(eta, psi, solver.trace_bundle(eta, psi, wl.tol).B)


class TestCoefficientFloor:
    """apply_paradiff skips a frequency whose |u_hat| is at most
    COEFFICIENT_FLOOR times the largest coefficient the blocks j >= 2 weigh."""

    def test_just_above_is_applied_just_below_is_not(self, grid32):
        c = np.zeros((32, 17), dtype=complex)
        big, above, below = (9, 5), (10, 3), (7, 8)     # all in blocks j >= 2
        c[big] = 1.0
        c[above] = 1.01 * COEFFICIENT_FLOOR
        c[below] = 0.99 * COEFFICIENT_FLOOR
        u = TorusField.from_coefficients(grid32, c)
        mag = np.abs(u.coefficients)
        # the round trip through the samples left both on their side
        assert mag[above] > COEFFICIENT_FLOOR * mag.max() > mag[below]
        sym = _Counted(grid32)
        apply_paradiff(sym, u)
        xt, xz = grid32.xi_theta, grid32.xi_z
        assert sorted(sym.seen) == sorted([(xt[9], xz[5]), (xt[10], xz[3])])

    @pytest.mark.parametrize("k", [-60, -1, 1, 60])
    def test_relative(self, grid32, k):
        """The floor scales with u: 2^k u gives 2^k times the result, bit
        for bit, for a u with a coefficient 3x the floor and roundoff ones
        far below it."""
        lam = lambda_symbol(skewed_surface(grid32))
        u = _mode(grid32, 9, 5) + _mode(grid32, 12, 3, 1e-3) \
            + _mode(grid32, 6, 10, 3e-14)
        want = apply_paradiff(lam, u)
        got = apply_paradiff(lam, 2.0 ** k * u)
        assert want.max_norm() > 1.0
        assert np.array_equal(got.values, 2.0 ** k * want.values)

    def test_zero(self, grid32):
        sym = _Counted(grid32)
        out = apply_paradiff(sym, TorusField.zeros(grid32))
        assert sym.seen == [] and not out.values.any()

    def test_low_modes_do_not_raise_the_floor(self, grid32):
        """The floor reads only the coefficients the blocks weigh: a high
        mode 1e-15 times a low one, which T_a never reads, is applied."""
        assert decomposition(grid32).blocks[2:, 1, 0].sum() == 0.0
        u = _mode(grid32, 1, 0) + _mode(grid32, 9, 5, 1e-15)
        sym = _Counted(grid32)
        apply_paradiff(sym, u)
        assert (grid32.xi_theta[9], grid32.xi_z[5]) in sym.seen

    def test_calculus_unit0_against_floor_free(self, solver32):
        """On the good unknown of calculus-32's unit 0, whose high blocks
        are roundoff, the floor skips most frequencies.  Each skipped one
        moved T_lambda U by at most sup |lambda(., xi)| < 32 on 32^2 times
        COEFFICIENT_FLOOR max |U_hat|: the result stays within that bound,
        summed over the skipped frequencies of the full lattice, of the
        floor-free dense sum (which also carries its own roundoff)."""
        eta, U = _calculus_unit0_U(solver32)
        lam = lambda_symbol(eta)
        dec = decomposition(U.grid)
        mag = np.where(dec.blocks[2:].sum(axis=0) != 0.0,
                       np.abs(U.coefficients), 0.0)
        floor = COEFFICIENT_FLOOR * mag.max()
        half = U.grid.half_lattice()
        assert ((mag > floor) & half).sum() == 92
        skipped = 2 * ((mag != 0.0) & (mag <= floor) & half).sum()
        assert skipped == 2 * 359
        ref = _dense_paradiff(lam, U)
        err = (apply_paradiff(lam, U) - ref).max_norm()
        assert err <= 32.0 * floor * skipped


def _symmetry_gap(eta, u, name):
    """Relative max-norm gap between T_lambda u transformed by a symmetry
    and T_lambda' u' of the transformed surface and field."""
    op = SYMMETRIES[name]
    out = apply_paradiff(lambda_symbol(eta), u)
    moved = apply_paradiff(lambda_symbol(TorusField(eta.grid, op(eta.values))),
                           TorusField(u.grid, op(u.values)))
    return np.abs(moved.values - op(out.values)).max() / out.max_norm()


class TestSymmetry:
    """T_lambda commutes with the jet's symmetries.  A reflection maps
    k_theta -> -k_theta or k_z -> -k_z, so it reads the half-spectrum's
    mirrors; the floor commutes with all four, as it reads only |u_hat|,
    which they permute.  u stops at |xi| = 12, so T_lambda u keeps off the
    Nyquist lines: there the box's two partners +-N/2 are one grid mode and
    only one is read.  Readings on 32^2: 2.1e-15, 4.2e-15, 2.1e-15 and
    3.4e-15; the bound 1e-14 stands above each."""

    BOUND = 1e-14

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_commutes(self, grid32, rng, name):
        u = band_limited_random(grid32, rng, kmax=12)
        assert _symmetry_gap(skewed_surface(grid32), u, name) <= self.BOUND

    def test_unconjugated_kz0_mirror_fails(self, monkeypatch, grid32, rng):
        """A fault: the k_z = 0 column's mirror term acc(-k) added without
        its conjugate.  The theta shift reads it; a z shift or a reflection
        maps that column's wrong term onto itself."""
        unfold = paradiff._unfold

        def faulted(acc, kt, kz):
            c = unfold(acc, kt, kz)
            bt = acc.shape[0]
            c[:, 0] = acc[kt % bt, 0] + acc[-kt % bt, 0]
            return c

        monkeypatch.setattr(paradiff, "_unfold", faulted)
        u = band_limited_random(grid32, rng, kmax=12)
        assert _symmetry_gap(skewed_surface(grid32), u, "theta_shift") > 1e3 * self.BOUND


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
