"""Modified gradient, mean curvature, energies, volume."""

import numpy as np
import pytest

from conftest import smooth_surface
from jetwave.errors import DomainViolationError
from jetwave.geometry import (
    SurfaceState,
    cs_partial,
    curvature_G,
    curvature_G_uv,
    enclosed_volume,
    mean_curvature,
    modified_gradient,
    potential_energy,
)
from jetwave.spectral import TorusField, TorusGrid, integrate_product
from jetwave.verification import check_curvature

R = 1.3
SIGMA = 0.7


class TestModifiedGradient:
    def test_constant_field(self, grid32, rng):
        eta = smooth_surface(grid32, rng, R)
        gt, gz = modified_gradient(TorusField.constant(grid32, 3.0), eta)
        assert gt.max_norm() < 1e-13 and gz.max_norm() < 1e-13

    def test_uniform_radius(self, grid32):
        th, _ = grid32.mesh()
        f = TorusField(grid32, np.sin(th))
        gt, gz = modified_gradient(f, TorusField.constant(grid32, 2.0))
        assert np.abs(gt.values - np.cos(th) / 2.0).max() < 1e-12
        assert gz.max_norm() < 1e-13


class TestMeanCurvature:
    def test_cylinder(self, grid32):
        H = mean_curvature(TorusField.constant(grid32, R))
        assert np.abs(H.values - 1.0 / (2 * R)).max() < 1e-13

    def test_double_cylinder(self, grid32):
        H = mean_curvature(TorusField.constant(grid32, 2 * R))
        assert np.abs(H.values - 1.0 / (4 * R)).max() < 1e-13

    @pytest.mark.parametrize("m,k", [(0, 1), (2, 0), (3, 2)])
    def test_linearization(self, grid32, m, k):
        """H - 1/(2R) = eps (m^2 + k^2 R^2 - 1)/(2R^2) cos(m theta + k z)
        + O(eps^2); the error slope in eps is 2."""
        th, zz = grid32.mesh()
        mode = np.cos(m * th + k * zz)
        coef = (m ** 2 + (k * R) ** 2 - 1.0) / (2.0 * R ** 2)
        errs = []
        for eps in (1e-2, 1e-3):
            eta = TorusField(grid32, R + eps * mode)
            H = mean_curvature(eta)
            errs.append(np.abs(H.values - 1.0 / (2 * R) - eps * coef * mode).max())
        slope = np.log10(errs[0] / errs[1])
        assert 1.9 < slope < 2.1

    def test_two_paths_agree(self, grid32, rng):
        # calibrated ensemble (kmax 3, decay 3, amplitude 0.05R): truncation
        # sits two orders below the 1e-9 agreement being certified
        for _ in range(3):
            eta = smooth_surface(grid32, rng, R, amp=0.05)
            h1 = mean_curvature(eta, "direct")
            h2 = mean_curvature(eta, "decomposed")
            assert (h1 - h2).max_norm() < 1e-9 * h1.max_norm()

    @pytest.mark.parametrize("seed", range(3, 9))
    def test_two_paths_agree_to_roundoff_on_64(self, seed):
        """On 64^2 the two routes differ by roundoff only: the decomposed
        path takes eta_jk as d_j(eta_k), Nyquist dropped at each step, as
        the curvature symbol does.  The bound separates it from (i xi)^2
        for eta_tt and eta_zz, which keeps the Nyquist mode and reads
        8.0e-14 to 1.4e-13 on these seeds."""
        assert check_curvature(TorusGrid(64, 64), seed)[0].value < 4e-14

    def test_shift_equivariance(self, grid32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.1)
        a = mean_curvature(eta.shift(5, 7))
        b = mean_curvature(eta).shift(5, 7)
        assert (a - b).max_norm() < 1e-12


class TestCurvatureCoefficients:
    def test_G_uv_one_step_per_variable(self, rng):
        """The u- and v-partials of the whole (G_tt, G_tz, G_zz) triple equal,
        bit for bit, the complex steps of each component on its own."""
        x = R + 0.1 * rng.standard_normal((16, 16))
        u, v = 0.3 * rng.standard_normal((2, 16, 16))
        got = curvature_G_uv(x, u, v)
        for argnum, triple in zip((1, 2), got):
            assert len(triple) == 3
            for i, g in enumerate(triple):
                oracle = cs_partial(
                    lambda a, b, c: curvature_G(a, b, c)[i], argnum, x, u, v)
                assert np.array_equal(g, oracle)


class TestPotentialEnergy:
    def test_reference_cylinder_zero(self, grid32):
        assert abs(potential_energy(TorusField.constant(grid32, R), R, SIGMA)) < 1e-13

    def test_double_cylinder_closed_form(self, grid32):
        # eta = 2R: integrand is -(R/2) everywhere, E_p = -sigma pi^2 R
        val = potential_energy(TorusField.constant(grid32, 2 * R), R, SIGMA)
        assert abs(val - (-SIGMA * np.pi ** 2 * R)) < 1e-12

    def test_variation_is_curvature_forcing(self, grid32, rng):
        """Central FD of E_p in a random direction equals
        sigma * integral eta (H - 1/(2R)) delta."""
        eta = smooth_surface(grid32, rng, R, amp=0.08)
        delta = smooth_surface(grid32, rng, 0.0, amp=1.0) + 1.0
        eps = 1e-5
        fd = (potential_energy(eta + eps * delta, R, SIGMA)
              - potential_energy(eta - eps * delta, R, SIGMA)) / (2 * eps)
        H = mean_curvature(eta)
        analytic = SIGMA * integrate_product(eta, H - 1.0 / (2 * R), delta)
        assert abs(fd - analytic) < 1e-6 * max(abs(analytic), 1.0)


class TestEnclosedVolume:
    def test_cylinder(self, grid32):
        vol = enclosed_volume(TorusField.constant(grid32, R))
        assert abs(vol - 2 * np.pi ** 2 * R ** 2) < 1e-11

    def test_axisymmetric_closed_form(self, grid32):
        _, zz = grid32.mesh()
        eps = 0.3
        vol = enclosed_volume(TorusField(grid32, R + eps * np.cos(zz)))
        assert abs(vol - (2 * np.pi ** 2 * R ** 2 + np.pi ** 2 * eps ** 2)) < 1e-11


class TestSurfaceState:
    def test_grid_mismatch(self, grid32, grid16):
        with pytest.raises(ValueError):
            SurfaceState(TorusField.constant(grid32, R),
                         TorusField.zeros(grid16), R, SIGMA)

    def test_positivity_floor(self, grid32):
        with pytest.raises(DomainViolationError):
            SurfaceState(TorusField.constant(grid32, 1e-9 * R),
                         TorusField.zeros(grid32), R, SIGMA)

    def test_nyquist_projected(self, grid16):
        c = np.zeros((16, 16), dtype=complex)
        c[8, 0] = 1e-3
        eta = TorusField.constant(grid16, R) + TorusField.from_coefficients(grid16, c)
        state = SurfaceState(eta, TorusField.zeros(grid16), R, SIGMA)
        assert abs(state.eta.coefficients[8, 0]) < 1e-16
