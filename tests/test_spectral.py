"""Transforms, derivatives, dealiasing, and the dyadic decomposition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import full_coefficients, pad_coefficients, truncate_coefficients

from jetwave.spectral import (
    TAU,
    TorusField,
    TorusGrid,
    annulus_profile,
    band_limited_random,
    chi_profile,
    dealiased_product,
    decomposition,
    dyadic_block,
    integrate_product,
    low_pass,
    nonlinear_eval,
    spectral_derivative,
)
from jetwave.verification import check_transforms


class TestTransforms:
    def test_constant_field(self, grid32):
        c = TorusField.constant(grid32, 2.5).coefficients.copy()
        assert abs(c[0, 0] - 2.5) < 1e-14
        c[0, 0] = 0.0
        assert np.abs(c).max() < 1e-14

    def test_pure_mode(self, grid32):
        th, zz = grid32.mesh()
        f = TorusField(grid32, np.cos(3 * th + 2 * zz))
        c = f.coefficients.copy()
        assert abs(c[3, 2] - 0.5) < 1e-13
        assert abs(f.coefficient(-3, -2) - 0.5) < 1e-13
        c[3, 2] = 0.0       # (-3, -2) is its mirror, not stored
        assert np.abs(c).max() < 1e-13

    @given(seed=st.integers(0, 2 ** 31))
    def test_roundtrip_random(self, seed):
        grid = TorusGrid(16, 16)
        vals = np.random.default_rng(seed).standard_normal((16, 16))
        back = TorusField.from_coefficients(grid, TorusField(grid, vals).coefficients)
        assert np.abs(back.values - vals).max() < 1e-12

    @given(seed=st.integers(0, 2 ** 31))
    def test_parseval(self, seed):
        """The interior half-spectrum columns stand for their k_z < 0
        mirrors too, so they weigh twice."""
        grid = TorusGrid(16, 16)
        f = TorusField(grid, np.random.default_rng(seed).standard_normal((16, 16)))
        grid_norm = f.l2_norm() ** 2
        power = np.abs(f.coefficients) ** 2
        power[:, 1:-1] *= 2.0
        coef_norm = float(np.sum(power) * grid.area)
        assert abs(grid_norm - coef_norm) < 1e-12 * grid_norm

    def test_shape_mismatch_rejected(self, grid32):
        with pytest.raises(ValueError):
            TorusField(grid32, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            TorusField.from_coefficients(grid32, np.zeros((16, 16), dtype=complex))
        with pytest.raises(ValueError):     # the half-spectrum of the wrong axis
            TorusField.from_coefficients(grid32, np.zeros((17, 32), dtype=complex))

    @pytest.mark.parametrize("grid", [TorusGrid(8, 8), TorusGrid(16, 24, 2 * TAU),
                                      TorusGrid(24, 16)],
                             ids=lambda g: f"{g.n_theta}x{g.n_z}")
    def test_half_spectrum_layout(self, grid):
        """coefficients is the rfft2 half-spectrum, read-only; a mode
        k_z < 0 reads the conjugate of its mirror, bit for bit."""
        f = band_limited_random(grid, np.random.default_rng(5),
                                kmax=grid.n_z, decay=1.2, zero_mean=False)
        c = f.coefficients
        assert c.shape == (grid.n_theta, grid.n_z // 2 + 1)
        assert not c.flags.writeable
        for m in range(-grid.n_theta // 2, grid.n_theta // 2):
            assert f.coefficient(m, 0) == c[m % grid.n_theta, 0]
            for k in range(1, grid.n_z // 2):
                assert f.coefficient(m, k) == c[m % grid.n_theta, k]
                assert f.coefficient(m, -k) == np.conj(f.coefficient(-m, k))

    @pytest.mark.parametrize("hermitian", [True, False],
                             ids=["hermitian", "non_hermitian"])
    def test_full_lattice_is_its_real_part(self, grid32, hermitian):
        """A full-lattice array is the field of its real part: the
        ifft2(c).real oracle, for the Hermitian array the calculus
        workload passes (an annulus, Nyquist dropped, symmetrized by hand)
        and for a raw complex draw."""
        r = np.random.default_rng(17)
        c = r.standard_normal((32, 32)) + 1j * r.standard_normal((32, 32))
        if hermitian:
            xt, xz = grid32.xi_mesh()
            rad = np.sqrt(xt ** 2 + xz ** 2)
            c[(rad < 8.0) | (rad > 11.0)] = 0.0
            c[grid32.nyquist_mask()] = 0.0
            flip = (-np.arange(32)) % 32
            c = 0.5 * (c + np.conj(c[np.ix_(flip, flip)]))
        want = np.fft.ifft2(c).real * c.size
        got = TorusField.from_coefficients(grid32, c).values
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_check_transforms_counts_the_mirrors(self):
        """check_transforms' Parseval sum weighs the interior half-spectrum
        columns twice and passes at its 1e-12 bounds."""
        results = check_transforms(TorusGrid(16, 24), 3)
        assert [r.name for r in results] == ["transform.roundtrip",
                                             "transform.parseval"]
        for r in results:
            assert r.threshold == 1e-12 and r.passed

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(6, 16)
        with pytest.raises(ValueError):
            TorusGrid(16, 17)


class TestDerivatives:
    def test_cos_theta(self, grid32):
        th, _ = grid32.mesh()
        d = spectral_derivative(TorusField(grid32, np.cos(th)), "theta")
        assert np.abs(d.values + np.sin(th)).max() < 1e-12

    def test_constant_in_z(self, grid32):
        d = spectral_derivative(TorusField.constant(grid32, 4.0), "z")
        assert d.max_norm() < 1e-13

    def test_mixed_derivative(self, grid32):
        th, zz = grid32.mesh()
        f = TorusField(grid32, np.sin(th) * np.sin(zz))
        d = spectral_derivative(spectral_derivative(f, "theta"), "z")
        assert np.abs(d.values - np.cos(th) * np.cos(zz)).max() < 1e-12

    def test_order_limits(self, grid32):
        with pytest.raises(ValueError):
            spectral_derivative(TorusField.zeros(grid32), "sideways")

    def test_nyquist_zeroed_for_odd_order(self, grid16):
        c = np.zeros((16, 16), dtype=complex)
        c[8, 0] = 1.0  # theta Nyquist
        f = TorusField.from_coefficients(grid16, c)
        assert spectral_derivative(f, "theta").max_norm() < 1e-13

    def test_z_period_scales_wavenumbers(self):
        grid = TorusGrid(8, 8, z_period=2 * TAU)
        _, zz = grid.mesh()
        f = TorusField(grid, np.cos(0.5 * zz))
        d = spectral_derivative(f, "z")
        assert np.abs(d.values + 0.5 * np.sin(0.5 * zz)).max() < 1e-12


class TestDealiasedProduct:
    def test_cos_squared_exact(self, grid32):
        th, _ = grid32.mesh()
        f = TorusField(grid32, np.cos(th))
        p = dealiased_product(f, f)
        assert np.abs(p.values - (0.5 + 0.5 * np.cos(2 * th))).max() < 1e-14

    def test_constant_factor(self, grid32, rng):
        g = band_limited_random(grid32, rng, kmax=10)
        p = dealiased_product(TorusField.constant(grid32, 3.0), g)
        assert (p - 3.0 * g).max_norm() < 1e-13

    def _convolution_oracle(self, a, b):
        """Brute-force lattice convolution truncated to the grid."""
        grid = a.grid
        ca, cb = full_coefficients(a), full_coefficients(b)
        nt, nz = grid.n_theta, grid.n_z
        out = np.zeros_like(ca)
        xt = np.fft.fftfreq(nt, 1 / nt).astype(int)
        xz = np.fft.fftfreq(nz, 1 / nz).astype(int)
        for i1 in range(nt):
            for j1 in range(nz):
                if ca[i1, j1] == 0.0:
                    continue
                for i2 in range(nt):
                    for j2 in range(nz):
                        if cb[i2, j2] == 0.0:
                            continue
                        ft = xt[i1] + xt[i2]
                        fz = xz[j1] + xz[j2]
                        if abs(ft) <= nt // 2 - 1 and abs(fz) <= nz // 2 - 1:
                            out[ft % nt, fz % nz] += ca[i1, j1] * cb[i2, j2]
        return out

    @given(seed=st.integers(0, 2 ** 31))
    def test_band_limited_matches_convolution(self, seed):
        grid = TorusGrid(16, 16)
        r = np.random.default_rng(seed)
        a = band_limited_random(grid, r, kmax=3, zero_mean=False)
        b = band_limited_random(grid, r, kmax=3, zero_mean=False)
        p = dealiased_product(a, b)
        oracle = self._convolution_oracle(a, b)
        # combined bandwidth 6 <= 7 = N/2 - 1: product fully resolved, exact
        assert np.abs(full_coefficients(p) - oracle).max() < 1e-12


class TestIntegrateProduct:
    """integrate_product against the lattice sum of its factors' spectra."""

    @staticmethod
    def _spectrum(f):
        """Coefficients on the symmetric lattice -n/2..n/2 (index 0 is -n/2)
        of the real interpolant: each Nyquist row or column coefficient is
        split evenly between +-n/2, the corner between (-n/2, -n/2) and
        (+n/2, +n/2)."""
        c = np.fft.fftshift(full_coefficients(f))
        e = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=complex)
        e[:-1, :-1] = c
        e[-1, 1:-1] = e[0, 1:-1]
        e[1:-1, -1] = e[1:-1, 0]
        e[-1, -1] = e[0, 0]
        e[[0, -1], :] *= 0.5
        e[1:-1, [0, -1]] *= 0.5
        return e

    @classmethod
    def _lattice_integral(cls, *fields):
        """area * sum over xi_1 + ... + xi_k = 0 of the product of the
        factors' coefficients, by brute-force convolution."""
        acc = cls._spectrum(fields[0])
        for f in fields[1:-1]:
            e = cls._spectrum(f)
            out = np.zeros((acc.shape[0] + e.shape[0] - 1,
                            acc.shape[1] + e.shape[1] - 1), dtype=complex)
            for i, j in np.ndindex(e.shape):
                out[i:i + acc.shape[0], j:j + acc.shape[1]] += e[i, j] * acc
            acc = out
        last = cls._spectrum(fields[-1])
        (ht, hz), (at, az) = (np.array(last.shape) // 2,
                              np.array(acc.shape) // 2)
        window = acc[at - ht:at + ht + 1, az - hz:az + hz + 1]
        total = np.sum(window * last[::-1, ::-1])
        assert abs(total.imag) <= 1e-14 * abs(total)
        return total.real * fields[0].grid.area

    @pytest.mark.parametrize("n_nyquist", [0, 1, 2])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_matches_lattice_sum(self, grid16, arity, n_nyquist):
        """Exact for up to three factors unless all three carry Nyquist
        content; here up to two do."""
        r = np.random.default_rng(100 * arity + n_nyquist)
        fields = [TorusField(grid16, 1.0 + 0.3 * r.standard_normal((16, 16)))
                  for _ in range(n_nyquist)]
        fields += [1.0 + band_limited_random(grid16, r, kmax=10, decay=1.2,
                                             max_norm=0.3)
                   for _ in range(arity - n_nyquist)]
        want = self._lattice_integral(*fields)
        assert abs(integrate_product(*fields) - want) <= 1e-13 * abs(want)


def _complex_nonlinear_eval(fn, *fields):
    """Dealiased evaluation on complex transforms: the coarse spectra are
    embedded in the padded lattice (Nyquist at -n/2), the real part of the
    inverse is taken, and the product's spectrum is restricted back."""
    grid = fields[0].grid
    fine = grid.padded()
    size = fine.n_theta * fine.n_z
    vals = [np.fft.ifft2(pad_coefficients(grid, full_coefficients(f), fine)).real
            * size for f in fields]
    c = np.fft.fft2(fn(*vals)) / size
    return TorusField.from_coefficients(grid, truncate_coefficients(fine, c, grid))


class TestRealDealiasing:
    """The real-transform evaluation equals the complex embedding it
    replaces, Nyquist convention included."""

    GRIDS = [TorusGrid(8, 8, 2 * TAU), TorusGrid(16, 16), TorusGrid(16, 24, 2 * TAU),
             TorusGrid(24, 16), TorusGrid(32, 32), TorusGrid(64, 32)]
    FUNCTIONS = {
        "product": (lambda a, b: a * b, 2),
        "quotient": (lambda a, b: a / b, 2),
        "root": (lambda a: np.sqrt(a), 1),
    }

    @staticmethod
    def _inputs(grid, nyquist):
        """Two positive fields; with nyquist, every coefficient is drawn, the
        Nyquist rows, columns and corner included."""
        r = np.random.default_rng(grid.n_theta * 100 + grid.n_z)
        if nyquist:
            return [TorusField(grid, 2.0 + 0.3 * r.standard_normal(
                (grid.n_theta, grid.n_z))) for _ in range(2)]
        return [2.0 + band_limited_random(grid, r, kmax=grid.n_z // 2, decay=1.2,
                                          max_norm=0.6) for _ in range(2)]

    @pytest.mark.parametrize("nyquist", [True, False], ids=["nyquist", "resolved"])
    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n_theta}x{g.n_z}")
    def test_matches_complex_path(self, grid, name, nyquist):
        fn, arity = self.FUNCTIONS[name]
        fields = self._inputs(grid, nyquist)[:arity]
        want = _complex_nonlinear_eval(fn, *fields).values
        got = nonlinear_eval(fn, *fields).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_padded_samples_cached_read_only(self, grid16, rng):
        f = band_limited_random(grid16, rng, kmax=5)
        p = f.padded_samples
        assert p is f.padded_samples and not p.flags.writeable
        fine = grid16.padded()
        assert p.shape == (fine.n_theta, fine.n_z)
        want = np.fft.ifft2(pad_coefficients(grid16, full_coefficients(f), fine)
                           ).real * p.size
        assert np.abs(p - want).max() <= 1e-14 * np.abs(want).max()


class TestDyadic:
    def test_block_kills_constants(self, grid32):
        f = TorusField.constant(grid32, 5.0)
        dec = decomposition(grid32)
        for j in range(dec.jmax + 1):
            assert dyadic_block(f, j).max_norm() < 1e-14

    def test_low_pass_support(self, grid32, rng):
        f = band_limited_random(grid32, rng, kmax=14)
        s0 = low_pass(f, 0)
        xt, xz = grid32.xi_mesh()
        radii = np.sqrt(xt ** 2 + xz ** 2)
        outside = np.abs(full_coefficients(s0))[radii > 2.0]
        assert outside.max() < 1e-15

    def test_telescoping_exact(self, grid32):
        xt, xz = grid32.xi_mesh()
        radii = np.sqrt(xt ** 2 + xz ** 2)
        dec = decomposition(grid32)
        for j in range(1, dec.jmax + 2):
            lhs = chi_profile(radii) + sum(
                annulus_profile(radii / 2.0 ** k) for k in range(j))
            assert np.abs(lhs - chi_profile(radii / 2.0 ** j)).max() == 0.0

    def test_reconstruction(self, grid32, rng):
        f = band_limited_random(grid32, rng, kmax=15, zero_mean=False)
        dec = decomposition(grid32)
        recon = low_pass(f, 0)
        for j in range(dec.jmax + 1):
            recon = recon + dyadic_block(f, j)
        assert (recon - f).max_norm() < 1e-12

    def test_derivative_commutes_with_blocks(self, grid32, rng):
        f = band_limited_random(grid32, rng, kmax=12)
        a = spectral_derivative(dyadic_block(f, 2), "theta")
        b = dyadic_block(spectral_derivative(f, "theta"), 2)
        assert (a - b).max_norm() < 1e-13

    def test_chi_profile_shape(self):
        r = np.linspace(0, 3, 301)
        chi = chi_profile(r)
        assert np.all(chi[r <= 1.0] == 1.0)
        assert np.all(chi[r >= 2.0] == 0.0)
        mid = chi[(r > 1.0) & (r < 2.0)]
        assert np.all(np.diff(mid) <= 1e-12)  # monotone ramp

    def test_index_bounds(self, grid32):
        f = TorusField.zeros(grid32)
        dec = decomposition(grid32)
        with pytest.raises(ValueError):
            dyadic_block(f, dec.jmax + 1)
        with pytest.raises(ValueError):
            dyadic_block(f, -1)
        with pytest.raises(ValueError):
            low_pass(f, dec.jmax + 2)
        with pytest.raises(ValueError):
            low_pass(f, -1)

    def test_decomposition_read_only_stacks(self, grid32):
        dec = decomposition(grid32)
        assert decomposition(grid32) is dec
        shape = (grid32.n_theta, grid32.n_z // 2 + 1)
        assert dec.blocks.shape == (dec.jmax + 1,) + shape
        assert dec.lowpass.shape == (dec.jmax + 2,) + shape
        for stack in (dec.blocks, dec.lowpass):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0


class TestFieldBasics:
    def test_immutable(self, grid32):
        f = TorusField.zeros(grid32)
        with pytest.raises(AttributeError):
            f.values = np.ones((32, 32))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_shift_exact(self, grid32, rng):
        f = band_limited_random(grid32, rng, kmax=9)
        g = f.shift(3, 5).shift(-3, -5)
        assert (g - f).max_norm() == 0.0

    def test_from_modes_lattice_check(self):
        grid = TorusGrid(8, 8)
        with pytest.raises(ValueError):
            TorusField.from_modes(grid, [(1.0, 0, 0.5, 0.0)])
        long_grid = TorusGrid(8, 8, z_period=2 * TAU)
        TorusField.from_modes(long_grid, [(1.0, 0, 0.5, 0.0)])  # now on lattice

    def test_mode_rule(self):
        """axial_index gives k's lattice index and rejects k off the lattice
        or not finite; resolves admits exactly the lattice modes strictly
        inside the Nyquist band, of either sign, and no Nyquist or aliased
        mode."""
        grid = TorusGrid(8, 8, z_period=2 * TAU)    # dz 0.5: |m| < 4, |k| < 2
        assert grid.axial_index(1.5) == 3 and grid.axial_index(-0.5) == -1
        for k in (0.3, -0.7, np.inf, np.nan):
            with pytest.raises(ValueError, match="axial lattice"):
                grid.axial_index(k)
            assert not grid.resolves(0, k)
        assert all(grid.resolves(m, k) for m in (-3, 0, 3)
                   for k in (-1.5, 0.0, 1.5))
        for m, k in ((4, 0.0), (-4, 0.5), (0, 2.0), (1, -2.0),   # Nyquist
                     (12, 0.0), (0, 4.5), (-5, -3.0)):           # aliased
            assert not grid.resolves(m, k)
