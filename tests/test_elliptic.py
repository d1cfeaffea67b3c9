"""Mapped Laplace solve, DtN operator, trace quantities, shape derivative."""

import sys
import threading
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.special import iv

from conftest import smooth_surface, truncate_coefficients
from jetwave import elliptic
from jetwave.elliptic import (
    DtnSolver,
    _along_rho,
    RadialGrid,
    fd_shape_derivative,
    hamiltonian_variations,
    radial_grid,
    shape_derivative,
)
from jetwave.errors import ConvergenceError, DomainViolationError
from jetwave.evolution import EvolutionConfig, bessel_dtn_eigenvalue, simulate
from jetwave.geometry import SurfaceState
from jetwave.spectral import (
    TorusField,
    TorusGrid,
    band_limited_random,
    derivative_multipliers,
    integrate_product,
    nonlinear_eval,
    spectral_derivative,
)
from jetwave.verification import TRACE_THRESHOLDS

R = 1.0


# ---------------------------------------------------------------------------
# strong-form oracles: the pulled-back Laplacian of the elliptic module's
# docstring, collocated, against which the variational solve is checked
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappedCoefficients:
    """alpha, beta, gamma of the mapped Laplacian sampled on rho x (theta,z).

    alpha is bounded below by 1/max(eta)^2; beta and gamma carry the inverse
    powers of rho of the polar coordinates.
    """

    rho: np.ndarray
    alpha: np.ndarray
    beta_theta: np.ndarray
    beta_z: np.ndarray
    gamma: np.ndarray


def build_coefficients(eta: TorusField, rho_nodes) -> MappedCoefficients:
    """Evaluate alpha, beta, gamma pointwise with spectral eta-derivatives;
    the quotients in gamma are dealiased."""
    if eta.min() <= 0.0:
        raise DomainViolationError("eta must be strictly positive")
    rho = np.atleast_1d(np.asarray(rho_nodes, dtype=float))
    if np.any(rho <= 0.0) or np.any(rho > 1.0):
        raise ValueError("rho nodes must lie in (0, 1]")
    e = eta.values
    et = spectral_derivative(eta, "theta").values
    ez = spectral_derivative(eta, "z").values
    r = rho[:, None, None]
    alpha = (1.0 + (et / e) ** 2 + r ** 2 * ez ** 2) / e ** 2
    beta_theta = -2.0 * et / (r * e ** 3)
    beta_z = -2.0 * r * ez / e
    q_t = nonlinear_eval(lambda u, x: u / x ** 2, spectral_derivative(eta, "theta"), eta)
    q_z = nonlinear_eval(lambda u, x: u / x ** 2, spectral_derivative(eta, "z"), eta)
    dq_t = spectral_derivative(q_t, "theta").values
    dq_z = spectral_derivative(q_z, "z").values
    gamma = -dq_t / (r * e) - r * e * dq_z + 1.0 / (r * e ** 2)
    return MappedCoefficients(rho, alpha, beta_theta, beta_z, gamma)


def _apply_w(stack, mult):
    """Apply a (theta,z) Fourier multiplier to each rho-layer of a stack."""
    c = np.fft.fft2(stack, axes=(1, 2))
    return np.fft.ifft2(c * mult, axes=(1, 2)).real


def strong_residual(solver, pot, eta: TorusField):
    """Pointwise residual of the rho^2-regularized strong-form operator on a
    potential the solver solved.

    The solver drives the variational residual below its tolerance; this
    quantity collocates rho^2 * L phi at the interior nodes (the rho^2 factor
    bounds the polar coefficients, so near-axis values are not
    roundoff-amplified) and decays spectrally with resolution.
    """
    rho = solver.radial.nodes
    co = build_coefficients(eta, rho)
    D = solver.radial.D
    phi = pot.potential
    # relative to the trace, as the solver differentiates: (D D) 1 = 0
    u = phi - phi[-1]
    dphi = np.tensordot(D, u, axes=(1, 0))
    d2phi = np.tensordot(D @ D, u, axes=(1, 0))
    mt, mz = derivative_multipliers(solver.grid)
    dth_dphi = _apply_w(dphi, mt)
    dz_dphi = _apply_w(dphi, mz)
    d2th = _apply_w(phi, mt * mt)
    d2z = _apply_w(phi, mz * mz)
    e = eta.values
    r = rho[:, None, None]
    res = r ** 2 * (co.alpha * d2phi + co.beta_theta * dth_dphi
                    + co.beta_z * dz_dphi + co.gamma * dphi + d2z) \
        + d2th / e ** 2
    return res[:-1]


def strain_energy(solver, pot):
    """Oracle of E_k: half the mu-weighted sum of the squared strains of a
    solve's potential, the energy form summed cell by cell, with its
    coefficients formed again from the solve's eta and eta_grad."""
    co = solver._coefficients(pot.eta, pot.eta_grad)
    phi = pot.potential
    strains = solver._strains(phi[:-1] - phi[-1],
                              np.fft.rfft2(phi, axes=(1, 2)), co)
    return 0.5 * sum(float(np.sum(co[4] * e ** 2)) for e in strains)


def modal_profile(pot, m, n):
    """Radial profile of the (m, n)-th Fourier mode (integer indices) of a
    solved potential."""
    grid = pot.eta.grid
    c = np.fft.fft2(pot.potential, axes=(1, 2)) / (grid.n_theta * grid.n_z)
    return c[:, m % grid.n_theta, n % grid.n_z]


class TestRadialGrid:
    def test_quadrature_exactness(self):
        """Gauss-Radau weights integrate polynomials up to degree 2n-2."""
        rad = radial_grid(12)
        for p in range(0, 2 * 12 - 1):
            got = float(np.sum(rad.weights * rad.nodes ** p))
            assert abs(got - 1.0 / (p + 1)) < 1e-13

    def test_nodes_in_half_open_interval(self):
        rad = radial_grid(48)
        assert rad.nodes[0] > 0.0
        assert abs(rad.nodes[-1] - 1.0) < 1e-14

    def test_differentiation_matrix(self):
        rad = radial_grid(16)
        f = rad.nodes ** 5
        df = rad.D @ f
        assert np.abs(df - 5 * rad.nodes ** 4).max() < 1e-9

    def test_one_cached_record(self):
        """The constructor returns one read-only record per n_rho and
        rejects fewer than 4 nodes."""
        rad = radial_grid(16)
        assert type(rad) is RadialGrid and radial_grid(16) is rad
        assert all(not a.flags.writeable for a in rad)
        assert rad.D.shape == (16, 16) and rad.weights.shape == (16,)
        with pytest.raises(ValueError, match="at least 4"):
            radial_grid(3)

    def test_along_rho_matches_tensordot(self):
        """The per-theta-row radial contraction equals one contraction over
        the whole stack, for a matrix, its transpose, a row and a column."""
        D = radial_grid(16).D
        stack = np.random.default_rng(3).standard_normal((16, 8, 12))
        for M in (D, D.T, D[-1], D[:, -1]):
            ref = np.tensordot(M, stack, axes=(M.ndim - 1, 0))
            got = _along_rho(M, stack)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestMappedCoefficients:
    def test_cylinder_values(self, grid32):
        rad = radial_grid(8)
        co = build_coefficients(TorusField.constant(grid32, R), rad.nodes)
        rho = rad.nodes[:, None, None]
        assert np.abs(co.alpha - 1.0 / R ** 2).max() < 1e-13
        assert np.abs(co.beta_theta).max() < 1e-13
        assert np.abs(co.beta_z).max() < 1e-13
        assert np.abs(co.gamma - 1.0 / (rho * R ** 2)).max() < 1e-12

    def test_linearization_in_amplitude(self, grid32):
        """d(alpha)/d(eps) at eps = 0 for eta = R + eps cos(theta) is
        -2 cos(theta)/R^3 (only the 1/eta^2 factor contributes at O(eps))."""
        th, _ = grid32.mesh()
        rho = np.array([0.5, 1.0])
        eps = 1e-6
        a_p = build_coefficients(TorusField(grid32, R + eps * np.cos(th)), rho).alpha
        a_m = build_coefficients(TorusField(grid32, R - eps * np.cos(th)), rho).alpha
        fd = (a_p - a_m) / (2 * eps)
        assert np.abs(fd - (-2.0 * np.cos(th) / R ** 3)).max() < 1e-6

    def test_alpha_lower_bound(self, grid32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.15)
        co = build_coefficients(eta, radial_grid(8).nodes)
        assert co.alpha.min() >= 1.0 / eta.max() ** 2 - 1e-13

    def test_rejects_bad_inputs(self, grid32):
        with pytest.raises(DomainViolationError):
            build_coefficients(TorusField.constant(grid32, -1.0), [0.5])
        with pytest.raises(ValueError):
            build_coefficients(TorusField.constant(grid32, R), [0.0, 0.5])


class TestSolve:
    def test_constant_trace_gives_constant_potential(self, grid32, solver32):
        eta = TorusField.constant(grid32, R)
        pot = solver32.solve(eta, TorusField.constant(grid32, 2.7), tol=1e-12)
        assert np.abs(pot.potential - 2.7).max() < 1e-12
        # the constant lift has no radial strain: the right-hand side is
        # exactly zero and no iteration runs
        assert pot.iterations == 0
        assert np.abs(strong_residual(solver32, pot, eta)).max() < 1e-10

    def test_strong_residual_on_a_deformed_jet(self, grid32, rng):
        """The collocated strong form vanishes on a solve with a deformed
        surface and a nonconstant trace, where every coefficient of the
        mapped Laplacian enters (on the cylinder with a constant trace every
        term is zero whatever the coefficients)."""
        eta = smooth_surface(grid32, rng, R, amp=0.05)
        psi = band_limited_random(grid32, rng, kmax=3, max_norm=0.3)
        solver = DtnSolver(grid32, 24)
        pot = solver.solve(eta, psi, tol=1e-12)
        assert np.abs(strong_residual(solver, pot, eta)).max() < 1e-9

    def test_harmonic_power_profile(self, grid32, solver32):
        """eta = R, psi = cos(m theta): the potential is (rho)^m cos(m theta)
        in the mapped radial variable."""
        th, _ = grid32.mesh()
        m = 3
        pot = solver32.solve(TorusField.constant(grid32, R),
                             TorusField(grid32, np.cos(m * th)), tol=1e-12)
        profile = modal_profile(pot, m, 0) * 2.0  # cos = two conjugate modes
        expected = solver32.radial.nodes ** m
        assert np.abs(profile.real - expected).max() < 1e-9
        assert np.abs(profile.imag).max() < 1e-9

    def test_bessel_profile(self, grid32, solver32):
        """eta = R, psi = cos(k z): profile I_0(k R rho)/I_0(k R)."""
        _, zz = grid32.mesh()
        k = 2.0
        pot = solver32.solve(TorusField.constant(grid32, R),
                             TorusField(grid32, np.cos(k * zz)), tol=1e-12)
        profile = modal_profile(pot, 0, 2) * 2.0
        expected = iv(0, k * R * solver32.radial.nodes) / iv(0, k * R)
        assert np.abs(profile.real - expected).max() < 1e-8

    def test_axis_regularity(self, grid32, solver32):
        """Modal profiles vanish like rho^min(|m|, 2) near the axis."""
        th, zz = grid32.mesh()
        for m in (1, 2, 3):
            pot = solver32.solve(
                TorusField.constant(grid32, R),
                TorusField(grid32, np.cos(m * th + zz)), tol=1e-12)
            profile = np.abs(modal_profile(pot, m, 1))
            rho = solver32.radial.nodes
            inner = profile[rho < 0.05]
            bound = (rho[rho < 0.05] / rho[-1]) ** min(m, 2)
            assert np.all(inner <= 5.0 * bound * profile[-1] + 1e-11)

    def test_tol_validation(self, grid32, solver32):
        eta = TorusField.constant(grid32, R)
        with pytest.raises(ValueError):
            solver32.solve(eta, eta, tol=1e-3)

    def test_convergence_failure_raises(self, grid32, rng, monkeypatch):
        solver = DtnSolver(grid32, 24)
        eta = smooth_surface(grid32, rng, R, amp=0.2, decay=2.0)
        psi = band_limited_random(grid32, rng, kmax=5)
        monkeypatch.setattr(elliptic, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(eta, psi, tol=1e-12)
        assert err.value.residual is not None

    @pytest.mark.parametrize("where", ["eta", "psi", "guess", "guess_trace"])
    def test_nan_input_raises_at_once(self, grid16, solver16, rng, where):
        """A NaN residual fails CG's stopping test instead of passing it,
        and the error gives the iterations actually made.  The guess's
        rho = 1 row is read as the trace it was solved for, so NaN there
        fails as NaN in its interior does."""
        eta = smooth_surface(grid16, rng, R)
        psi = band_limited_random(grid16, rng, kmax=3)
        guess = solver16.solve(eta, psi).potential.copy()
        if where.startswith("guess"):
            guess[-1 if where == "guess_trace" else 3, 2, 5] = np.nan
        else:
            field = {"eta": eta, "psi": psi}[where]
            values = field.values.copy()
            values[2, 5] = np.nan
            field = TorusField(grid16, values)
            eta, psi = (field, psi) if where == "eta" else (eta, field)
        with pytest.raises(ConvergenceError, match="in 0 iterations") as err:
            solver16.trace_bundle(eta, psi, guess=guess)
        assert err.value.iterations == 0
        assert np.isnan(err.value.residual)


class TestWarmStart:
    """An explicit starting guess moves only where CG starts: the stopping
    test stays relative to the cold right-hand side."""

    @staticmethod
    def _inputs(grid, rng):
        eta = smooth_surface(grid, rng, R, amp=0.1)
        psi = band_limited_random(grid, rng, kmax=4, max_norm=0.3)
        return eta, psi

    def test_exact_guess_converges_at_once(self, grid32, solver32, rng):
        eta, psi = self._inputs(grid32, rng)
        cold = solver32.solve(eta, psi, 1e-11)
        warm = solver32.solve(eta, psi, 1e-11, guess=cold.potential)
        assert cold.iterations > 1
        assert warm.iterations <= 1
        assert warm.residual < 1e-11

    def test_warm_matches_cold(self, grid32, solver32, rng):
        eta, psi = self._inputs(grid32, rng)
        near = solver32.solve(1.01 * eta, psi, 1e-11).potential
        cold = solver32.trace_bundle(eta, psi, 1e-13)
        warm = solver32.trace_bundle(eta, psi, 1e-13, guess=near)
        assert warm.iterations < cold.iterations
        rel = (warm.G - cold.G).max_norm() / cold.G.max_norm()
        assert rel <= 1e-12
        assert abs(warm.kinetic_energy - cold.kinetic_energy) \
            <= 1e-12 * cold.kinetic_energy

    def test_guess_for_psi_is_not_carried(self, grid32, solver32, rng,
                                          monkeypatch):
        """A guess whose rho = 1 row is the projected psi (this psi has a
        Nyquist row, which the projection drops) starts CG as it did before
        the carry: the extension is never formed."""
        eta, psi = self._inputs(grid32, rng)
        th, _ = grid32.mesh()
        psi = psi + TorusField(grid32, 0.1 * np.cos(16 * th))
        guess = solver32.solve(1.01 * eta, psi, 1e-11).potential
        want = solver32.solve(eta, psi, 1e-11, guess=guess)

        def no_extension(*args):
            raise AssertionError("a guess solved for psi was carried")

        monkeypatch.setattr(DtnSolver, "_extension", no_extension)
        got = solver32.solve(eta, psi, 1e-11, guess=guess)
        assert np.array_equal(got.potential, want.potential)
        assert got.iterations == want.iterations

    def test_guess_for_another_trace_is_carried(self, grid32, solver32, rng):
        """A guess solved for a turned trace is carried to psi by the
        harmonic extension of the change.  It matches the cold solve, in
        fewer CG iterations than the same guess with psi written over its
        rho = 1 row, the start before the carry."""
        eta, psi = self._inputs(grid32, rng)
        turned = TorusField(grid32, np.roll(psi.values, 1, axis=0))
        guess = solver32.solve(1.01 * eta, turned, 1e-11).potential
        overwritten = guess.copy()
        overwritten[-1] = psi.drop_nyquist().values
        cold = solver32.trace_bundle(eta, psi, 1e-13)
        warm = solver32.trace_bundle(eta, psi, 1e-13, guess=guess)
        flat = solver32.trace_bundle(eta, psi, 1e-13, guess=overwritten)
        assert warm.iterations < flat.iterations
        rel = (warm.G - cold.G).max_norm() / cold.G.max_norm()
        assert rel <= 1e-12
        assert abs(warm.kinetic_energy - cold.kinetic_energy) \
            <= 1e-12 * cold.kinetic_energy

    def test_wrong_shape_named(self, grid16, solver16, solver32, rng):
        eta, psi = self._inputs(grid16, rng)
        other = solver32.solve(TorusField.constant(solver32.grid, R),
                               TorusField.zeros(solver32.grid)).potential
        with pytest.raises(ValueError, match=r"\(32, 16, 16\)"):
            solver16.solve(eta, psi, guess=other)
        with pytest.raises(ValueError, match="shape"):
            solver16.trace_bundle(eta, psi, guess=np.zeros((31, 16, 16)))

    def test_lean_flux_and_energy(self, grid32, solver32, rng):
        """The bundle's flux, accumulated by CG from the rows of the operator
        it applies, matches the full operator's rho = 1 row, and E_k, read
        off those rows, equals the squared-strain sum."""
        eta, psi = self._inputs(grid32, rng)
        bundle = solver32.trace_bundle(eta, psi, 1e-12)
        pot = solver32.solve(eta, psi, 1e-12)
        assert np.array_equal(bundle.potential, pot.potential)
        co = solver32._coefficients(pot.eta, pot.eta_grad)
        full = solver32._apply_K(pot.potential, co)[-1] / grid32.cell_area
        assert np.abs(bundle.flux.values - full).max() \
            <= 1e-13 * np.abs(full).max()
        assert abs(bundle.kinetic_energy - strain_energy(solver32, pot)) \
            <= 1e-14 * bundle.kinetic_energy
        assert not bundle.potential.flags.writeable


class TestLeanSolve:
    """A solve does only its own work: every solve starts from the
    closed-form K(1 (x) psi) and a warm start adds K of the guess's
    zero-trace interior, the flux is accumulated from the rows of K that CG
    applies, and E_k = 1/2 phi^T K phi is read off the same rows."""

    SIZES = {16: 32, 32: 48, 64: 48}

    @classmethod
    def _case(cls, n, rng):
        grid = TorusGrid(n, n)
        solver = DtnSolver(grid, cls.SIZES[n])
        eta = smooth_surface(grid, rng, R, amp=0.1)
        psi = band_limited_random(grid, rng, kmax=4, max_norm=0.3)
        return solver, eta.drop_nyquist(), psi.drop_nyquist()

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_closed_form_lift(self, n, rng):
        solver, eta, psi = self._case(n, rng)
        co = solver._coefficients(eta, (spectral_derivative(eta, "theta"),
                                        spectral_derivative(eta, "z")))
        shape = (solver.n_rho, n, n)
        lift = np.broadcast_to(psi.values, shape).copy()
        want = solver._apply_K(lift, co)
        got = solver._apply_K_lift(psi.values, co)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a constant trace: both vanish exactly
        lift = np.full(shape, 2.7)
        assert not np.any(solver._apply_K(lift, co))
        assert not np.any(solver._apply_K_lift(lift[-1], co))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_accumulated_flux(self, n, warm, rng):
        solver, eta, psi = self._case(n, rng)
        guess = solver.solve(1.01 * eta, psi, 1e-12).potential if warm else None
        pot = solver.solve(eta, psi, 1e-12, guess=guess)
        assert pot.iterations > 1
        co = solver._coefficients(pot.eta, pot.eta_grad)
        want = solver._apply_K(pot.potential, co)[-1] / solver.grid.cell_area
        assert np.abs(pot.flux.values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["cold-32", "carried-32", "nested-64"])
    def test_energy_from_operator_rows(self, case, rng):
        """E_k read off K(phi)'s rows matches the squared-strain sum on cold,
        carried-warm and nested-start solves."""
        solver, eta, psi = self._case(64 if case == "nested-64" else 32, rng)
        guess = None
        if case == "carried-32":
            turned = TorusField(solver.grid, np.roll(psi.values, 1, axis=0))
            guess = solver.solve(1.01 * eta, turned, 1e-12).potential
        pot = solver.solve(eta, psi, 1e-12, guess=guess)
        assert (pot.coarse_iterations > 0) == (case == "nested-64")
        want = strain_energy(solver, pot)
        assert want > 0.0
        assert abs(pot.kinetic_energy - want) <= 1e-14 * want

    @pytest.mark.parametrize("trace", [0.0, 4.2])
    def test_energy_of_constant_trace_is_zero(self, grid32, solver32, rng,
                                              trace):
        eta = smooth_surface(grid32, rng, R, amp=0.1)
        bundle = solver32.trace_bundle(eta, TorusField.constant(grid32, trace))
        assert bundle.kinetic_energy == 0.0
        assert np.copysign(1.0, bundle.kinetic_energy) == 1.0

    def test_bundle_is_plain_record(self, grid32, solver32, rng):
        """Reading every field of a bundle leaves it as it was built, and no
        field refers back to the solver."""
        eta, psi = TestWarmStart._inputs(grid32, rng)
        bundle = solver32.trace_bundle(eta, psi, 1e-12)
        before = dict(vars(bundle))
        for f in fields(bundle):
            getattr(bundle, f.name)
        after = vars(bundle)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())
        assert type(bundle.kinetic_energy) is float
        assert not any(isinstance(v, DtnSolver) for v in after.values())

    def test_result_pins_one_stack(self, grid32, solver32, rng):
        """A solve's result and its trace bundle keep one n_rho-layer stack
        alive, the read-only potential: the energy-form coefficients are
        freed with the solve."""
        def arrays(values):
            for v in values:
                if isinstance(v, np.ndarray):
                    yield v
                elif isinstance(v, tuple):
                    yield from arrays(v)

        eta, psi = TestWarmStart._inputs(grid32, rng)
        for result in (solver32.solve(eta, psi, 1e-12),
                       solver32.trace_bundle(eta, psi, 1e-12)):
            fields = result if isinstance(result, tuple) \
                else vars(result).values()
            stacks = [a for a in arrays(fields) if a.ndim == 3]
            assert len(stacks) == 1 and stacks[0] is result.potential
            assert not result.potential.flags.writeable


class TestPreconditioner:
    """The per-mode eigenbasis inverts the energy form frozen at the mean
    radius, as the dense per-mode matrix does."""

    @staticmethod
    def _dense(solver, eta_bar, m, k):
        rho, w, D = solver.radial.nodes, solver.radial.weights, solver.radial.D
        A0 = D.T @ np.diag(w * rho) @ D
        A1 = np.diag(w / rho)
        B = np.diag(w * rho)
        M = solver.grid.cell_area * (A0 + m ** 2 * A1 + eta_bar ** 2 * k ** 2 * B)
        ni = solver.n_rho - 1
        return M[:ni, :ni]

    # (m, k) on the grid and the (m, k) of the frozen form: Nyquist
    # frequencies are treated as zero
    @pytest.mark.parametrize("mode,frozen", [
        ((0, 0), (0, 0)), ((3, 2), (3, 2)), ((16, 2), (0, 2)), ((3, 16), (3, 0)),
    ], ids=["zero", "3-2", "nyquist_row", "nyquist_column"])
    @pytest.mark.parametrize("eta_bar", [0.9, 1.0, 1.1])
    def test_matches_dense_solve(self, grid32, solver32, mode, frozen, eta_bar):
        th, zz = grid32.mesh()
        ni = solver32.n_rho - 1
        profile = np.random.default_rng(3).standard_normal(ni)
        wave = np.cos(mode[0] * th + mode[1] * zz)
        r = profile[:, None, None] * wave
        got, got_hat = solver32._apply_precond(r, solver32._precond_weights(eta_bar))
        ref = np.linalg.solve(self._dense(solver32, eta_bar, *frozen), profile)
        want = ref[:, None, None] * wave
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # the half-spectrum CG carries for the search direction
        spectrum = np.fft.rfft2(got, axes=(1, 2))
        assert np.abs(got_hat - spectrum).max() <= 1e-12 * np.abs(spectrum).max()


class TestCylinderModes:
    """cylinder_modes is the discrete G on the cylinder, mode by mode: the
    operator a cold solve applies, and the Bessel eigenvalues above the
    radial roundoff floor."""

    @staticmethod
    def _live(grid, lam):
        """Every mode but (0, 0) and the Nyquist modes, where Lambda = 0."""
        live = np.ones(lam.shape, bool)
        live[0, 0] = live[grid.n_theta // 2] = live[:, -1] = False
        assert np.all(lam[~live] == 0.0) and np.all(lam[live] > 0.0)
        return live

    @pytest.mark.parametrize("n,n_rho", [(16, 24), (16, 48), (32, 24), (32, 48)])
    @pytest.mark.parametrize("eta_bar", [1.0, 1.3])
    def test_matches_cold_cylinder_solves(self, n, n_rho, eta_bar):
        """One cold solve on psi with every resolved mode at weight 1/Lambda
        (random phases off the k = 0 column, whose m and -m halves must be
        conjugate), so that each mode of G psi weighs the same in CG's
        stopping test."""
        grid = TorusGrid(n, n)
        solver = DtnSolver(grid, n_rho)
        lam = solver.cylinder_modes(eta_bar)
        live = self._live(grid, lam)
        phase = np.random.default_rng(n + n_rho).random(lam.shape)
        phase[:, 0] = 0.0
        c = np.where(live, np.exp(2j * np.pi * phase) / np.where(live, lam, 1.0),
                     0.0)
        psi = TorusField(grid, np.fft.irfft2(c, s=(n, n)))
        bundle = solver.trace_bundle(TorusField.constant(grid, eta_bar), psi,
                                     1e-13)
        got, want = np.fft.rfft2(bundle.G.values), lam * np.fft.rfft2(psi.values)
        assert (np.abs(got - want)[live] / np.abs(want[live])).max() <= 1e-12

    @pytest.mark.parametrize("n_rho", [24, 48])
    def test_matches_bessel(self, grid32, n_rho):
        lam = DtnSolver(grid32, n_rho).cylinder_modes(R)
        live = self._live(grid32, lam)
        m = grid32.xi_theta
        k = grid32.xi_z[: lam.shape[1]]
        worst = max(abs(lam[i, j] / bessel_dtn_eigenvalue(m[i], k[j], R) - 1.0)
                    for i, j in zip(*np.nonzero(live)))
        assert worst <= 1e-12


class TestSolverIsPure:
    """A solve reads the solver and never writes it: the same (eta, psi)
    gives bitwise the same bundle whatever was solved before, on any
    thread."""

    @staticmethod
    def _values(bundle):
        return [bundle.B.values, bundle.V_theta.values, bundle.V_z.values,
                bundle.N.values, bundle.G.values, bundle.flux.values,
                bundle.kinetic_energy]

    @classmethod
    def _same(cls, a, b):
        return all(np.array_equal(x, y) for x, y in zip(cls._values(a), cls._values(b)))

    @staticmethod
    def _in_threads(work, n):
        """work(i) for i < n, each on its own thread, switching often."""
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
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

    def test_history_and_threads(self, grid32):
        rng = np.random.default_rng(17)
        eta = smooth_surface(grid32, rng, R, amp=0.1)
        psi = band_limited_random(grid32, rng, kmax=4, max_norm=0.3)
        inputs = [(eta, psi), (1.015 * eta, psi)]
        fresh = DtnSolver(grid32, 48).trace_bundle(eta, psi)
        solver = DtnSolver(grid32, 48)
        other = solver.trace_bundle(*inputs[1])
        assert self._same(solver.trace_bundle(eta, psi), fresh)

        got = [None] * 4

        def work(i):
            got[i] = solver.trace_bundle(*inputs[i % 2])

        self._in_threads(work, 4)
        assert all(self._same(got[i], (fresh, other)[i % 2]) for i in range(4))

    def test_nested_history_and_threads(self, grid64, solver64):
        """At 64^2 a cold solve starts from the half grid's solve, which is
        as pure: a fresh solver, a solver after another request, and two
        threads at once give bitwise the same bundles."""
        rng = np.random.default_rng(18)
        inputs = [TestNestedStart._draw(grid64, rng) for _ in range(2)]
        fresh = [DtnSolver(grid64, 48).trace_bundle(*a) for a in inputs]
        assert all(b.coarse_iterations > 0 for b in fresh)
        assert self._same(solver64.trace_bundle(*inputs[1]), fresh[1])
        assert self._same(solver64.trace_bundle(*inputs[0]), fresh[0])

        got = [None] * 2

        def work(i):
            got[i] = solver64.trace_bundle(*inputs[i])

        self._in_threads(work, 2)
        assert all(self._same(got[i], fresh[i]) for i in range(2))

    def test_carried_history_and_threads(self, grid32, solver32):
        """A guess solved for another trace is carried by a pure function
        of the request: a fresh solver, a solver after the other requests
        in shuffled order, and two threads at once give bitwise the same
        bundles."""
        rng = np.random.default_rng(19)
        inputs = []
        for _ in range(2):
            eta = smooth_surface(grid32, rng, R, amp=0.1)
            psi = band_limited_random(grid32, rng, kmax=4, max_norm=0.3)
            other = band_limited_random(grid32, rng, kmax=4, max_norm=0.3)
            guess = solver32.solve(1.01 * eta, other).potential
            inputs.append(dict(eta=eta, psi=psi, guess=guess))
        fresh = [DtnSolver(grid32, 48).trace_bundle(**a) for a in inputs]
        for i in rng.permutation([0, 1, 0, 1]):
            assert self._same(solver32.trace_bundle(**inputs[i]), fresh[i])

        got = [None] * 2

        def work(i):
            got[i] = solver32.trace_bundle(**inputs[i])

        self._in_threads(work, 2)
        assert all(self._same(got[i], fresh[i]) for i in range(2))

    def test_simulate_after_unrelated_solves(self, grid16):
        """Warm starts pass potentials as arguments only: a trajectory is
        bitwise the same on a fresh solver and after unrelated solves."""
        rng = np.random.default_rng(5)
        eta = smooth_surface(grid16, rng, R, amp=0.05)
        psi = band_limited_random(grid16, rng, kmax=3, max_norm=0.05)
        state = SurfaceState(eta, psi, R, 1.0)
        cfg = EvolutionConfig(dt="auto", t_final=0.05, record_every=2)
        ref = simulate(state, cfg, DtnSolver(grid16, 24))
        solver = DtnSolver(grid16, 24)
        solver.trace_bundle(1.02 * eta, 2.0 * psi)
        solver.solve(eta, psi, guess=solver.solve(1.05 * eta, psi).potential)
        got = simulate(state, cfg, solver)
        assert got.times == ref.times and got.reports == ref.reports
        for a, b in zip(got.states, ref.states):
            assert np.array_equal(a.eta.values, b.eta.values)
            assert np.array_equal(a.psi.values, b.psi.values)


class TestNestedStart:
    """A cold solve on a grid of at least 64^2 starts CG from the prolonged
    potential of a half-grid solve.  The lift 1 (x) psi passed as the guess
    takes the cold path bit for bit: it is the reference."""

    @staticmethod
    def _draw(grid, rng):
        """A request drawn as the dtn-cold-64 benchmark draws them."""
        R = rng.uniform(0.9, 1.1)
        amp = rng.uniform(0.05, 0.2)
        eta = TorusField.constant(grid, R) + band_limited_random(
            grid, rng, kmax=4, max_norm=amp * R)
        return eta, band_limited_random(grid, rng, kmax=5, max_norm=0.3)

    @staticmethod
    def _lift(solver, psi):
        return np.broadcast_to(psi.drop_nyquist().values,
                               (solver.n_rho,) + psi.values.shape)

    @pytest.mark.parametrize("shape, nested", [
        ((64, 64), True), ((64, 128), True), ((32, 32), False),
        ((64, 32), False), ((66, 64), False)])
    def test_rule(self, shape, nested):
        solver = DtnSolver(TorusGrid(*shape, 3.0), 24)
        assert (solver._coarse is not None) == nested
        if nested:
            assert solver._coarse.grid == TorusGrid(shape[0] // 2,
                                                    shape[1] // 2, 3.0)
            assert solver._coarse.n_rho == 16
            assert solver._coarse._coarse is None

    def test_lift_guess_is_the_cold_path(self, grid64, solver64, rng):
        eta, psi = self._draw(grid64, rng)
        cold = DtnSolver(grid64, 48)
        cold._coarse = None
        want = cold.trace_bundle(eta, psi)
        got = solver64.trace_bundle(eta, psi, guess=self._lift(solver64, psi))
        assert TestSolverIsPure._same(got, want)
        assert (got.iterations, got.coarse_iterations) \
            == (want.iterations, 0)

    def test_matches_cold_in_fewer_iterations(self, grid64, solver64, rng):
        """On dtn-cold-64 draws the nested bundle passes the workload's gate
        and keeps G, flux and E_k within 1e-9 of the cold reference, in at
        most 6 fine CG iterations on average (10-13 cold)."""
        fine = []
        for _ in range(4):
            eta, psi = self._draw(grid64, rng)
            ref = solver64.trace_bundle(eta, psi,
                                        guess=self._lift(solver64, psi))
            got = solver64.trace_bundle(eta, psi)
            assert got.residual < 1e-11
            assert got.kinetic_energy >= -1e-12
            assert abs(got.flux.integral()) <= 1e-9 * got.flux.l2_norm()
            for a, b in ((got.G, ref.G), (got.flux, ref.flux)):
                assert (a - b).max_norm() <= 1e-9 * b.max_norm()
            assert abs(got.kinetic_energy - ref.kinetic_energy) \
                <= 1e-9 * ref.kinetic_energy
            assert got.coarse_iterations > 0
            assert got.iterations < ref.iterations
            fine.append(got.iterations)
        assert np.mean(fine) <= 6

    def test_prolonged_guess_is_not_carried(self, grid64, solver64, rng,
                                            monkeypatch):
        """The prolonged guess's trace row is the truncated psi, and the
        fine CG starts from it as it is: carrying it saved no fine
        iteration."""
        def no_extension(*args):
            raise AssertionError("the prolonged guess was carried")

        monkeypatch.setattr(DtnSolver, "_extension", no_extension)
        eta, psi = self._draw(grid64, rng)
        assert solver64.trace_bundle(eta, psi).coarse_iterations > 0

    def test_no_coarse_start_at_32(self, grid32, solver32, rng):
        eta, psi = self._draw(grid32, rng)
        bundle = solver32.trace_bundle(eta, psi)
        assert bundle.coarse_iterations == 0
        ref = solver32.trace_bundle(eta, psi, guess=self._lift(solver32, psi))
        assert TestSolverIsPure._same(bundle, ref)
        assert bundle.iterations == ref.iterations

    def test_truncation_not_positive_solves_cold(self, grid64, rng):
        """An axisymmetric neck whose half-grid truncation dips below zero
        (Fejer kernel of modes below 16, lifted by the mode 16): the solve
        starts cold and returns the reference bit for bit."""
        zz = grid64.mesh()[1]
        fejer = sum((1 - abs(k) / 16) * np.cos(k * zz)
                    for k in range(-15, 16)) / 16
        eta = TorusField(grid64, 1.0 - 1.02 * fejer + 0.1 * np.cos(16 * zz))
        half = TorusGrid(32, 32)
        coarse = TorusField.from_coefficients(half, truncate_coefficients(
            grid64, eta.drop_nyquist().coefficients, half)).drop_nyquist()
        assert eta.min() > 0.0 and coarse.min() <= 0.0
        psi = band_limited_random(grid64, rng, kmax=3, max_norm=0.3)
        solver = DtnSolver(grid64, 24)
        got = solver.solve(eta, psi, 1e-6)
        want = solver.solve(eta, psi, 1e-6, guess=self._lift(solver, psi))
        assert got.coarse_iterations == 0
        assert got.iterations == want.iterations
        assert np.array_equal(got.potential, want.potential)

    @pytest.mark.parametrize("where", ["eta", "psi", "guess"])
    def test_nan_input_raises_at_once(self, grid64, solver64, rng, where):
        eta, psi = self._draw(grid64, rng)
        guess = None
        if where == "guess":
            guess = self._lift(solver64, psi).copy()
            guess[3, 2, 5] = np.nan
        else:
            field = {"eta": eta, "psi": psi}[where]
            values = field.values.copy()
            values[2, 5] = np.nan
            field = TorusField(grid64, values)
            eta, psi = (field, psi) if where == "eta" else (eta, field)
        with pytest.raises(ConvergenceError, match="in 0 iterations") as err:
            solver64.trace_bundle(eta, psi, guess=guess)
        assert err.value.iterations == 0
        assert np.isnan(err.value.residual)


class TestWorkingSet:
    """A solve forms each operator term in a stack it owns and frees every
    stack once read; it writes none of its inputs, and its results are
    pinned bit for bit."""

    @staticmethod
    def _inputs(grid, seed):
        rng = np.random.default_rng(seed)
        eta = smooth_surface(grid, rng, R, amp=0.1)
        psi = band_limited_random(grid, rng, kmax=4, max_norm=0.3)
        return eta, psi

    def test_cold_bundle_pinned(self, grid32, solver32):
        """A cold 32^2 x 48 bundle: the sums of G and of the flux, E_k and
        the CG iterations."""
        bundle = solver32.trace_bundle(*self._inputs(grid32, 20))
        got = (float(np.sum(bundle.G.values)).hex(),
               float(np.sum(bundle.flux.values)).hex(),
               bundle.kinetic_energy.hex(), bundle.iterations)
        assert got == ("0x1.a799626c14590p+1", "-0x1.b668000000000p-34",
                       "0x1.b5cf12bc0c881p-2", 9)

    def test_peak_working_set(self, grid32, solver32):
        """tracemalloc's peak over a cold bundle and its E_k, in n_rho-layer
        stacks: the solve holds the three coefficient stacks, K(lift), phi,
        the search direction and its half-spectrum and half a stack of
        preconditioner weights, and K adds four stacks at most (12.0 in
        all; 23.5 when every term of K took fresh arrays)."""
        solver32.trace_bundle(*self._inputs(grid32, 21)).kinetic_energy
        eta, psi = self._inputs(grid32, 22)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solver32.trace_bundle(eta, psi).kinetic_energy
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        stack = solver32.n_rho * grid32.n_theta * grid32.n_z * 8
        assert peak <= 13 * stack

    def test_inputs_left_unwritten(self, grid32, solver32):
        """Read-only eta, psi and guess come back unchanged, and a bundle's
        potential used twice as a guess gives bitwise the same bundle."""
        eta, psi = self._inputs(grid32, 23)
        guess = solver32.solve(1.01 * eta, psi).potential
        inputs = (eta.values, psi.values, guess)
        assert not any(a.flags.writeable for a in inputs)
        before = [a.copy() for a in inputs]
        pot = solver32.solve(eta, psi, guess=guess)
        bundle = solver32.trace_bundle(eta, psi, guess=guess)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
        assert np.array_equal(pot.potential, bundle.potential)
        potential = bundle.potential.copy()
        first = solver32.trace_bundle(0.99 * eta, psi, guess=bundle.potential)
        second = solver32.trace_bundle(0.99 * eta, psi, guess=bundle.potential)
        assert np.array_equal(bundle.potential, potential)
        assert np.array_equal(first.potential, second.potential)
        assert TestSolverIsPure._same(first, second)


class TestDtn:
    @pytest.mark.parametrize("n,n_rho", [(16, 32), (32, 48)])
    @pytest.mark.parametrize("amp", [0.0, 0.1], ids=["cylinder", "deformed"])
    def test_constant_trace_exact(self, n, n_rho, amp, rng):
        """G(eta) 1 = 0 exactly: the radial derivative is taken relative to
        the trace, so a constant trace gives a zero right-hand side and the
        solve returns without iterating."""
        grid = TorusGrid(n, n)
        eta = smooth_surface(grid, rng, R, amp=amp) if amp \
            else TorusField.constant(grid, R)
        b = DtnSolver(grid, n_rho).trace_bundle(
            eta, TorusField.constant(grid, 4.2), 1e-12)
        assert b.iterations == 0
        assert not np.any(b.G.values) and not np.any(b.flux.values)

    def test_constant_trace(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.1)
        b = solver32.trace_bundle(eta, TorusField.constant(grid32, 4.2), 1e-12)
        for f in (b.G, b.B, b.V_theta, b.V_z, b.N):
            assert f.max_norm() < 1e-11

    @pytest.mark.parametrize("m,k", [(3, 0), (0, 2), (2, 2), (5, 1)])
    def test_bessel_eigenvalues(self, grid32, solver32, m, k):
        th, zz = grid32.mesh()
        psi = TorusField(grid32, np.cos(m * th + k * zz))
        b = solver32.trace_bundle(TorusField.constant(grid32, R), psi, 1e-12)
        lam = bessel_dtn_eigenvalue(m, k, R)
        assert np.abs(b.G.values - lam * psi.values).max() < 1e-8 * abs(lam)

    def test_self_adjointness(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.2, decay=2.0, kmax=4)
        p1 = band_limited_random(grid32, rng, kmax=5, max_norm=0.3)
        p2 = band_limited_random(grid32, rng, kmax=5, max_norm=0.3)
        b1 = solver32.trace_bundle(eta, p1, 1e-12)
        b2 = solver32.trace_bundle(eta, p2, 1e-12)
        s12 = integrate_product(b1.flux, p2)
        s21 = integrate_product(b2.flux, p1)
        assert abs(s12 - s21) < 1e-10 * max(abs(s12), abs(s21))

    def test_kinetic_energy_positive_and_bessel_value(self, grid32, solver32):
        _, zz = grid32.mesh()
        k = 1.0
        psi = TorusField(grid32, np.cos(k * zz))
        ek = solver32.kinetic_energy(TorusField.constant(grid32, R), psi, 1e-12)
        lam = bessel_dtn_eigenvalue(0, k, R)
        assert abs(ek - np.pi ** 2 * R * lam) < 1e-9
        assert ek >= 0.0

    def test_volume_form_cross_check(self, grid32, solver32):
        """At eta = R the kinetic energy equals the explicit volume integral
        (1/2) iint |grad phi|^2 r dr dtheta dz, evaluated on an independent
        radial quadrature from the interpolated profile."""
        _, zz = grid32.mesh()
        k = 1.0
        eta = TorusField.constant(grid32, R)
        pot = solver32.solve(eta, TorusField(grid32, np.cos(k * zz)), 1e-12)
        ek = strain_energy(solver32, pot)
        # oracle: E_k = (pi^2 R^2 / ...) via fine trapezoid in r of the
        # closed-form mode profile I_0(k r)/I_0(k R)
        r = np.linspace(0.0, R, 20001)
        prof = iv(0, k * r) / iv(0, k * R)
        dprof = k * iv(1, k * r) / iv(0, k * R)
        # (1/2) * int [ (phi_r)^2 + (phi_z)^2 ] over volume, angular average
        # of cos^2 gives a factor pi * 2 pi ... reduce to 1D integral:
        integrand = 0.5 * (dprof ** 2 + k ** 2 * prof ** 2) * r
        vol = 2 * np.pi * np.pi * np.trapezoid(integrand, r)
        assert abs(ek - vol) < 1e-6 * vol

    def test_projected_radius_not_positive(self, grid16, solver16):
        """eta positive while its Nyquist projection is not: the trace
        algebra, which divides by the projected eta, raises instead of
        returning a bundle of that eta."""
        v = np.ones((16, 16))
        v[2::2, 0] = 4.0
        eta = TorusField(grid16, v)
        assert eta.min() > 0.0 >= eta.drop_nyquist().min()
        with pytest.raises(DomainViolationError):
            solver16.trace_bundle(eta, TorusField.zeros(grid16))

    def test_trace_identities(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.05)
        psi = band_limited_random(grid32, rng, kmax=3, decay=3.0, max_norm=0.3)
        b = solver32.trace_bundle(eta, psi, 1e-12)
        res = b.identity_residuals(psi, eta)
        assert list(res) == ["gradient_identity", "b_formula", "g_consistency"]
        for name, value in res.items():
            assert value < TRACE_THRESHOLDS[name], name

    def test_spectral_convergence_pre_floor(self, grid32):
        """Bessel error decays faster than any fixed power over the
        resolutions where it is above the roundoff floor."""
        _, zz = grid32.mesh()
        eta = TorusField.constant(grid32, R)
        psi = TorusField(grid32, np.cos(8 * zz))
        lam = bessel_dtn_eigenvalue(0, 8, R)
        errs = {}
        for n in (6, 12, 24):
            b = DtnSolver(grid32, n).trace_bundle(eta, psi, 1e-13)
            errs[n] = np.abs(b.G.values - lam * psi.values).max() / lam
        pre = {n: e for n, e in errs.items() if e > 1e-13}
        assert len(pre) >= 2, f"error hit the floor too early: {errs}"
        ns = np.log(sorted(pre))
        es = np.log([pre[n] for n in sorted(pre)])
        slope = np.polyfit(ns, es, 1)[0]
        assert slope < -4.0


class TestShapeDerivative:
    def test_constant_psi_gives_zero(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.1)
        delta = band_limited_random(grid32, rng, kmax=3)
        d = shape_derivative(eta, TorusField.constant(grid32, 1.0), delta,
                             solver32, 1e-12)
        assert d.max_norm() < 1e-10

    def test_matches_central_fd(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.08)
        psi = band_limited_random(grid32, rng, kmax=3, decay=3.0, max_norm=0.3)
        delta = band_limited_random(grid32, rng, kmax=3, decay=3.0, max_norm=1.0)
        analytic = shape_derivative(eta, psi, delta, solver32, 1e-12)
        fd = fd_shape_derivative(eta, psi, delta, 1e-4, solver32, 1e-12)
        assert (analytic - fd).l2_norm() < 1e-5 * analytic.l2_norm()


class TestHamiltonianVariations:
    def test_reduces_to_potential_variation_at_rest(self, grid32, solver32, rng):
        """psi = 0: the eta-variation is purely the potential-energy one."""
        eta = smooth_surface(grid32, rng, R, amp=0.06)
        psi = TorusField.zeros(grid32)
        dp = band_limited_random(grid32, rng, kmax=3, decay=3.0)
        de = band_limited_random(grid32, rng, kmax=3, decay=3.0)
        fd_p, an_p, fd_e, an_e = hamiltonian_variations(
            eta, psi, dp, de, R, 0.8, solver32, 1e-12)
        assert abs(fd_e - an_e) < 1e-6 * max(abs(an_e), 1e-3)
        # p-direction: both sides vanish at psi = 0 to FD accuracy
        assert abs(an_p) < 1e-12
        assert abs(fd_p) < 1e-7

    def test_both_identities(self, grid32, solver32, rng):
        eta = smooth_surface(grid32, rng, R, amp=0.07)
        psi = band_limited_random(grid32, rng, kmax=3, decay=3.0, max_norm=0.25)
        dp = band_limited_random(grid32, rng, kmax=3, decay=3.0)
        de = band_limited_random(grid32, rng, kmax=3, decay=3.0)
        fd_p, an_p, fd_e, an_e = hamiltonian_variations(
            eta, psi, dp, de, R, 0.8, solver32, 1e-12)
        assert abs(fd_p - an_p) < 1e-5 * abs(an_p)
        assert abs(fd_e - an_e) < 1e-5 * abs(an_e)
