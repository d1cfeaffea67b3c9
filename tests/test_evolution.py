"""Right-hand side, RK4 stepping, simulation, linearized dynamics."""

import numpy as np
import pytest
from scipy.special import iv, ivp

from jetwave.elliptic import DtnSolver
from jetwave.evolution import (
    EvolutionConfig,
    Trajectory,
    auto_dt,
    bessel_dtn_eigenvalue,
    fit_growth_rate,
    fit_oscillation_frequency,
    linearized_growth_rate,
    measure_dispersion,
    rhs,
    simulate,
    step_rk4,
)
from jetwave.geometry import SurfaceState
from jetwave.spectral import TAU, TorusField, TorusGrid

R = 1.0
SIGMA = 2.0


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16, 16)


@pytest.fixture(scope="module")
def solver(grid):
    return DtnSolver(grid, 32)


def _cyl(grid):
    return SurfaceState.cylinder(grid, R, SIGMA)


class TestOracleFormulas:
    def test_dtn_eigenvalue_closed_forms(self):
        assert bessel_dtn_eigenvalue(3, 0, 2.0) == pytest.approx(1.5)
        x = 1.5 * R
        assert bessel_dtn_eigenvalue(0, 1.5, R) == pytest.approx(
            1.5 * ivp(0, x) / iv(0, x))
        assert bessel_dtn_eigenvalue(0, 0, R) == 0.0

    def test_growth_rate_frozen_value(self):
        """m=2, k=0, R=1, sigma=2: omega^2 = sigma m (m^2-1)/(2R^3) = 6."""
        om = linearized_growth_rate(1.0, 2.0, 2, 0.0)
        assert om.real ** 2 == pytest.approx(6.0)
        assert om.imag == pytest.approx(0.0)

    def test_marginal_and_neutral_modes(self):
        assert abs(linearized_growth_rate(R, SIGMA, 0, 1.0 / R) ** 2) < 1e-14
        assert abs(linearized_growth_rate(R, SIGMA, 1, 0.0) ** 2) < 1e-14

    def test_long_waves_unstable(self):
        for k in (0.25, 0.5, 0.75):
            om = linearized_growth_rate(R, SIGMA, 0, k / R)
            assert om.imag > 0.0 and abs(om.real) < 1e-14

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            linearized_growth_rate(R, SIGMA, 0, 0.0)


class TestRhs:
    def test_equilibrium_exact(self, grid, solver):
        de, dp, _ = rhs(_cyl(grid), solver, 1e-12)
        assert de.max_norm() < 1e-13
        assert dp.max_norm() < 1e-13

    def test_linear_response_in_psi(self, grid, solver):
        """eta = R, psi = eps cos(kz): eta_t = eps Lambda cos(kz) + O(eps^2),
        psi_t = O(eps^2)."""
        _, zz = grid.mesh()
        eps, k = 1e-6, 2.0
        state = _cyl(grid).with_fields(
            psi=TorusField(grid, eps * np.cos(k * zz)))
        de, dp, _ = rhs(state, solver, 1e-13)
        lam = bessel_dtn_eigenvalue(0, k, R)
        # the residual is the quadratic nonlinearity, O(eps^2)
        assert np.abs(de.values - eps * lam * np.cos(k * zz)).max() < 10 * eps ** 2
        assert dp.max_norm() < 10 * eps ** 2

    def test_linear_response_in_eta(self, grid, solver):
        """eta = R + eps cos(kz), psi = 0: psi_t = -sigma eps
        (k^2 R^2 - 1)/(2R^2) cos(kz) + O(eps^2)."""
        _, zz = grid.mesh()
        eps, k = 1e-6, 2.0
        state = _cyl(grid).with_fields(
            eta=TorusField(grid, R + eps * np.cos(k * zz)))
        de, dp, _ = rhs(state, solver, 1e-13)
        coef = -SIGMA * eps * ((k * R) ** 2 - 1.0) / (2 * R ** 2)
        assert np.abs(dp.values - coef * np.cos(k * zz)).max() < 10 * eps ** 2
        assert de.max_norm() < 1e-13


class TestStepping:
    def test_equilibrium_fixed_point(self, grid, solver):
        s1 = step_rk4(_cyl(grid), 0.05, solver, 1e-12).state
        assert (s1.eta - R).max_norm() < 1e-14
        assert s1.psi.max_norm() < 1e-14

    def test_self_convergence_order(self, grid, solver):
        state = _cyl(grid).with_fields(
            eta=TorusField.constant(grid, R)
            + TorusField.from_modes(grid, [(0.05, 1, 1, 0.3)]),
            psi=TorusField.from_modes(grid, [(0.05, 2, 1, 0.5)]))
        T = 0.16
        finals = []
        for n in (8, 16, 32):
            s = state
            for _ in range(n):
                s = step_rk4(s, T / n, solver, 1e-12).state
            finals.append(s)
        d1 = (finals[0].eta - finals[1].eta).max_norm()
        d2 = (finals[1].eta - finals[2].eta).max_norm()
        assert np.log2(d1 / d2) > 3.9

    def test_translation_equivariance(self, grid, solver):
        state = _cyl(grid).with_fields(
            eta=TorusField.constant(grid, R)
            + TorusField.from_modes(grid, [(0.05, 1, 1, 0.0)]),
            psi=TorusField.from_modes(grid, [(0.03, 0, 2, 0.2)]))
        sh = grid.n_z // 2
        shifted = state.with_fields(eta=state.eta.shift(0, sh),
                                    psi=state.psi.shift(0, sh))
        a = step_rk4(shifted, 0.02, solver, 1e-12).state
        b = step_rk4(state, 0.02, solver, 1e-12).state
        assert (a.eta - b.eta.shift(0, sh)).max_norm() < 1e-11
        assert (a.psi - b.psi.shift(0, sh)).max_norm() < 1e-11

    def test_time_reversal(self, grid, solver):
        state = _cyl(grid).with_fields(
            eta=TorusField.constant(grid, R)
            + TorusField.from_modes(grid, [(0.04, 2, 0, 0.0)]),
            psi=TorusField.from_modes(grid, [(0.04, 2, 0, 0.0)]))
        dt = 0.02
        fwd = step_rk4(state, dt, solver, 1e-12).state
        back = step_rk4(fwd.with_fields(psi=-1.0 * fwd.psi), dt, solver,
                        1e-12).state
        assert (back.eta - state.eta).max_norm() < 10 * dt ** 5
        assert (back.psi + state.psi).max_norm() < 10 * dt ** 5

    def test_auto_dt_cfl(self, grid):
        dt = auto_dt(grid, SIGMA, R, cfl=0.5)
        lam_max = np.hypot(8.0 / R, 8.0)
        assert dt * lam_max ** 1.5 * np.sqrt(SIGMA / 2) == pytest.approx(0.5)


class TestSimulate:
    def test_equilibrium_flat_energy(self, grid, solver):
        cfg = EvolutionConfig(dt="auto", t_final=0.2, record_every=2)
        traj = simulate(_cyl(grid), cfg, solver)
        h = np.array([r.total for r in traj.reports])
        assert np.abs(h).max() < 1e-13
        assert traj.status == "completed"
        assert traj.times[-1] == pytest.approx(0.2)

    def test_reports_carry_worst_residual(self, grid, solver):
        """Each report after the first carries the worst final relative CG
        residual of the stage solves since the report before."""
        _, zz = grid.mesh()
        eta = TorusField(grid, R + 0.01 * np.cos(zz))
        state = SurfaceState(eta, TorusField(grid, 0.005 * np.sin(zz)), R, SIGMA)
        cfg = EvolutionConfig(dt="auto", t_final=0.03, record_every=2,
                              tol_elliptic=1e-11)
        traj = simulate(state, cfg, solver)
        assert traj.status == "completed" and len(traj.reports) > 2
        assert traj.reports[0].elliptic_residual == 0.0
        assert all(0.0 < r.elliptic_residual < 1e-11 for r in traj.reports[1:])
        # the report after two steps, replayed
        first = step_rk4(state, traj.dt, solver, 1e-11,
                         k1=rhs(state, solver, 1e-11))
        k1 = rhs(first.state, solver, 1e-11, first.phi4)
        second = step_rk4(first.state, traj.dt, solver, 1e-11, k1=k1,
                          previous=first)
        assert traj.reports[1].elliptic_residual == max(first.residual,
                                                        second.residual)

    def test_pinch_off_aborts(self, grid, solver):
        """A state already below the pinch threshold terminates immediately
        with the diagnostic status."""
        _, zz = grid.mesh()
        eta = TorusField(grid, R * (0.0008 + 0.5 * (1 + np.cos(zz))))
        state = SurfaceState(eta, TorusField.zeros(grid), R, SIGMA)
        traj = simulate(state, EvolutionConfig(dt=0.01, t_final=1.0), solver)
        assert traj.status == "pinch_off"
        assert len(traj.times) == 1

    def test_snapshots_increase(self):
        traj = Trajectory()
        grid = TorusGrid(8, 8)
        s = SurfaceState.cylinder(grid, R, SIGMA)
        traj.record(s, None)
        with pytest.raises(ValueError):
            traj.record(s, None)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(t_final=-1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(record_every=0)


class TestFlowPinned:
    """E_k, E_p, volume and CG iterations of every report of a short moving
    run, bit for bit: any change to the flow, its solves or its energies
    shows here."""

    PINNED = [
        ("0x1.ce1760228871bp-12", "0x1.c4aaa9b6218bep-8",
         "0x1.3be8031fc5623p+4", 0),
        ("0x1.de875738ddd63p-12", "0x1.c3a3aa449d23ap-8",
         "0x1.3be8031fc5630p+4", 37),
        ("0x1.07ce074fc909bp-11", "0x1.c0925ece112cap-8",
         "0x1.3be8031fc5675p+4", 32),
        ("0x1.30528a799d1c1p-11", "0x1.bb81ce68b4323p-8",
         "0x1.3be8031fc56eep+4", 32),
        ("0x1.5c324dc36ac46p-11", "0x1.b605d5ff67215p-8",
         "0x1.3be8031fc5744p+4", 33),
    ]

    def test_reports(self, grid):
        state = SurfaceState(
            TorusField.constant(grid, R) + TorusField.from_modes(
                grid, [(0.02, 1, 1, 0.0), (0.01, 2, 0, 0.3)]),
            TorusField.from_modes(grid, [(0.01, 0, 1, 0.2)]), R, SIGMA)
        cfg = EvolutionConfig(dt="auto", t_final=0.1, record_every=2)
        traj = simulate(state, cfg, DtnSolver(grid, 24))
        assert traj.status == "completed"
        got = [(r.kinetic.hex(), r.potential.hex(), r.volume.hex(),
                r.elliptic_iterations) for r in traj.reports]
        assert got == self.PINNED


class TestDispersion:
    def test_measured_matches_analytic(self, solver):
        rows = measure_dispersion(solver, R, SIGMA, [(2, 0.0), (0, 2.0)],
                                  1e-12)
        for _, _, _, _, rel in rows:
            assert rel < 1e-8

    def test_long_wave_scan_all_unstable(self):
        """m = 0 scan over k in {0.25, 0.5, 0.75}/R: all omega^2 < 0 (the
        quarter wavenumber needs the 8*pi-long torus)."""
        grid = TorusGrid(8, 16, z_period=4 * TAU)
        rows = measure_dispersion(DtnSolver(grid, 24), R, SIGMA,
                                  [(0, 0.25), (0, 0.5), (0, 0.75)], 1e-12)
        for _, _, analytic, measured, rel in rows:
            assert analytic < 0.0 and measured < 0.0
            assert rel < 1e-8

    def test_marginal_mode_measures_zero(self, solver):
        rows = measure_dispersion(solver, R, SIGMA, [(0, 1.0 / R)], 1e-12)
        _, _, analytic, measured, _ = rows[0]
        assert analytic == 0.0
        assert abs(measured) < 1e-8 * SIGMA / R ** 3


class TestGrowthMeasurement:
    def test_growth_rate_fit(self):
        t = np.linspace(0, 5, 60)
        assert fit_growth_rate(t, 3.0 * np.exp(0.37 * t)) == pytest.approx(0.37)

    def test_oscillation_fit(self):
        t = np.arange(0, 6, 0.015)
        vals = 2.0 * np.cos(2.45 * t + 0.4)
        assert fit_oscillation_frequency(t, vals) == pytest.approx(2.45, rel=1e-6)

    def test_oscillation_fit_drops_shortened_last_sample(self):
        """simulate shortens its last step to land on t_final; that sample
        breaks the uniform spacing the fit assumes and is left out."""
        t = np.arange(0, 6, 0.015)
        t = np.append(t, t[-1] + 0.011)
        vals = 2.0 * np.cos(2.45 * t + 0.4)
        assert fit_oscillation_frequency(t, vals) == pytest.approx(2.45, rel=1e-6)

    def test_plateau_growth_small_run(self):
        """Shortened growth run (the acceptance suite runs the full one)."""
        grid = TorusGrid(8, 8, z_period=2 * TAU)
        k = 0.5
        rate = linearized_growth_rate(R, SIGMA, 0, k).imag
        lam = bessel_dtn_eigenvalue(0, k, R)
        amp = 1e-6
        eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
            grid, [(amp, 0, k, 0.0)])
        psi0 = TorusField.from_modes(grid, [(amp * rate / lam, 0, k, 0.0)])
        traj = simulate(SurfaceState(eta0, psi0, R, SIGMA),
                        EvolutionConfig(dt="auto", t_final=3.0,
                                        record_every=5, tol_elliptic=1e-12),
                        DtnSolver(grid, 24))
        measured = fit_growth_rate(traj.times, traj.mode_amplitude(0, 1))
        assert abs(measured - rate) / rate < 1e-4
