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

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_dtn_eigenvalue_at_large_argument(self, m):
        """At k R = 1e6, where I_m overflows, Lambda / k follows the
        asymptotic series 1 - 1/(2x) + (4m^2 - 1)/(8x^2)."""
        x = 1e6
        want = 1.0 - 0.5 / x + (4 * m ** 2 - 1) / (8 * x ** 2)
        assert bessel_dtn_eigenvalue(m, 1.0, x) == pytest.approx(want, rel=1e-14)

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
        dt = auto_dt(grid, SIGMA, R)
        lam_max = np.hypot(8.0 / R, 8.0)
        assert dt * lam_max ** 1.5 * np.sqrt(SIGMA / 2) == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_args, eta_bar", [
        ((16, 16), 1e-300), ((16, 16, 1e-300), 1.0)])
    def test_auto_dt_out_of_range_corner(self, grid_args, eta_bar):
        """A radius whose square underflows, or an axial period so short
        that max|xi_z|^2 overflows, is a ValueError that names the corner
        frequency, with no warning on the way."""
        with pytest.raises(ValueError, match="corner frequency"):
            auto_dt(TorusGrid(*grid_args), 1.0, eta_bar)

    @pytest.mark.filterwarnings("error")
    def test_auto_dt_sigma_underflow(self):
        """At sigma = 5e-324, sigma/2 rounds to zero: a ValueError that
        names sigma, not an infinite step."""
        with pytest.raises(ValueError, match=r"sigma = 4\.94066e-324"):
            auto_dt(TorusGrid(16, 16), 5e-324, 1.0)

    def test_linear_mode_exact_past_the_cfl_step(self):
        """The m = 2 oscillation of check_plateau_oscillation at amplitude
        1e-6, over one period at ten CFL steps (14 steps): the propagator
        carries the linear part, so the amplitude follows 1e-6 cos(omega t)
        to 1e-9.  Classical RK4 misses by 1.8e-3 at this step, and is
        unstable on the top modes (omega_max dt = 5, beyond its
        imaginary-axis limit 2.83)."""
        grid = TorusGrid(16, 8)
        omega = np.sqrt(6.0)          # sigma m (m^2 - 1) / (2 R^3)
        eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
            grid, [(1e-6, 2, 0, 0.0)])
        state = SurfaceState(eta0, TorusField.zeros(grid), R, SIGMA)
        cfg = EvolutionConfig(dt=10 * auto_dt(grid, SIGMA, R),
                              t_final=2 * np.pi / omega, tol_elliptic=1e-12)
        traj = simulate(state, cfg, DtnSolver(grid, 24))
        assert traj.status == "completed" and len(traj.times) == 15
        amp = np.array([2.0 * s.eta.coefficient(2, 0).real for s in traj.states])
        want = 1e-6 * np.cos(omega * np.array(traj.times))
        assert np.abs(amp - want).max() <= 1e-9 * 1e-6


class TestStepRule:
    """The auto step in CFL steps, on 32 x 32 states about R = 1 with
    sigma = 1: ten on the conservation case of criterion 9, at most two at
    ten times its amplitude, and transport-bound under a fast potential; a
    run whose deformation grows shortens its step."""

    SMALL = [(0.01, 1, 1, 0.3), (0.005, 2, 0, 1.1)]
    LARGE = [(0.1, 1, 1, 0.3), (0.05, 2, 0, 1.1), (0.025, 3, 2, 0.0)]

    @staticmethod
    def _state(grid, modes, psi_amp=0.005):
        return SurfaceState(
            TorusField.constant(grid, 1.0) + TorusField.from_modes(grid, modes),
            TorusField.from_modes(grid, [(psi_amp, 0, 1, 0.7)]), 1.0, 1.0)

    @staticmethod
    def _ratio(state, solver):
        dt = EvolutionConfig().resolve_dt(state, rhs(state, solver, 1e-11)[2])
        return dt / auto_dt(state.grid, 1.0, state.eta.mean())

    def test_small_and_large_deformations(self, grid32, solver32):
        assert self._ratio(self._state(grid32, self.SMALL), solver32) == \
            pytest.approx(10.0, rel=1e-12)
        assert 1.0 < self._ratio(self._state(grid32, self.LARGE), solver32) <= 2.0

    def test_transport_bound_and_floor(self, grid32, solver32):
        """|V| ~ 1 binds the step between one and ten CFL steps, at
        cfl / (|xi|_max |V|_inf); |V| ~ 5 would bind it below one, where
        the CFL step is kept."""
        state = self._state(grid32, self.SMALL, psi_amp=1.0)
        bundle = rhs(state, solver32, 1e-11)[2]
        speed = np.hypot(16.0, 16.0) * np.hypot(
            bundle.V_theta.values, bundle.V_z.values).max()
        ratio = self._ratio(state, solver32)
        assert 1.0 < ratio < 10.0
        assert ratio * auto_dt(grid32, 1.0, state.eta.mean()) == \
            pytest.approx(0.5 / speed, rel=1e-12)
        assert self._ratio(self._state(grid32, self.SMALL, psi_amp=5.0),
                           solver32) == 1.0

    def test_large_deformation_conserves(self, grid32):
        """At ten times the criterion-9 amplitude the rule stays near the
        CFL step, and the run keeps criterion 9's bounds.  (On 16 x 16 this
        state drifts by 1.4e-6 in H at any step, classical RK4 at the CFL
        step included: the grid does not resolve it.)"""
        state = self._state(grid32, self.LARGE)
        traj = simulate(state, EvolutionConfig(t_final=0.3, record_every=4),
                        DtnSolver(grid32, 24))
        assert traj.status == "completed"
        h = np.array([r.total for r in traj.reports])
        v = np.array([r.volume for r in traj.reports])
        assert np.abs(h - h[0]).max() / max(abs(h[0]), 1.0) < 1e-6
        assert np.abs(v - v[0]).max() / v[0] < 1e-8

    def test_growth_toward_pinch_off_conserves(self):
        """Plateau growth from min eta 0.94 to 0.56 starts at ten CFL steps
        and keeps criterion 9's bounds only because the step shrinks as the
        neck deepens (held at its first value, the run drifts 2.3e-6 in H
        and 1.4e-8 in volume)."""
        grid = TorusGrid(16, 16, z_period=2 * TAU)
        eta = TorusField.constant(grid, 1.0) + TorusField.from_modes(
            grid, [(0.05, 0, 0.5, 0.0), (0.01, 1, 0.5, 0.3)])
        state = SurfaceState(eta, TorusField.zeros(grid), 1.0, 1.0)
        traj = simulate(state, EvolutionConfig(t_final=14.0),
                        DtnSolver(grid, 24))
        assert traj.status == "completed"
        assert traj.dt == pytest.approx(10 * auto_dt(grid, 1.0, 1.0), rel=1e-3)
        assert len(traj.reports) - 1 > np.ceil(14.0 / traj.dt)
        assert traj.reports[-1].min_eta < 0.6
        h = np.array([r.total for r in traj.reports])
        v = np.array([r.volume for r in traj.reports])
        assert np.abs(h - h[0]).max() / max(abs(h[0]), 1.0) < 1e-6
        assert np.abs(v - v[0]).max() / v[0] < 1e-8


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
        # the CFL step: the run needs several steps
        cfg = EvolutionConfig(dt=auto_dt(grid, SIGMA, R), t_final=0.03,
                              record_every=2, tol_elliptic=1e-11)
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

    def test_explicit_dt_kept_when_first_solve_fails(self, grid, solver):
        """A run that fails at its first solve still reports the step it
        was given (only an auto step needs that solve)."""
        psi = TorusField(grid, np.full((grid.n_theta, grid.n_z), np.nan))
        state = SurfaceState(TorusField.constant(grid, R), psi, R, SIGMA)
        traj = simulate(state, EvolutionConfig(dt=0.01, t_final=0.1), solver)
        assert traj.status == "solver_failure" and not traj.times
        assert traj.dt == 0.01

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
        # inf t_final would end in OverflowError, and inf dt in a
        # "completed" run of zero steps
        for key in ("t_final", "dt"):
            for value in (np.inf, np.nan):
                with pytest.raises(ValueError, match=key):
                    EvolutionConfig(**{key: value})


class TestFlowPinned:
    """E_k, E_p, volume and the CG iterations on the grid and on coarse
    levels (none at 24 radial nodes on 16^2) of every report of a short
    moving run at the capillary CFL step (eight steps), bit for bit: any
    change to the flow, its solves or its energies shows here."""

    PINNED = [
        ("0x1.ce1760228871cp-12", "0x1.c4aaa9b6218dcp-8",
         "0x1.3be8031fc5624p+4", 0, 0),
        ("0x1.de87573d869c8p-12", "0x1.c3a3aa4471de1p-8",
         "0x1.3be8031fc562bp+4", 30, 0),
        ("0x1.07ce0758f9166p-11", "0x1.c0925ecd2b56fp-8",
         "0x1.3be8031fc563dp+4", 24, 0),
        ("0x1.30528a8dc4224p-11", "0x1.bb81ce6692062p-8",
         "0x1.3be8031fc5660p+4", 24, 0),
        ("0x1.5c324de0c266ap-11", "0x1.b605d5fc31b53p-8",
         "0x1.3be8031fc5673p+4", 23, 0),
    ]

    def test_reports(self, grid):
        state = SurfaceState(
            TorusField.constant(grid, R) + TorusField.from_modes(
                grid, [(0.02, 1, 1, 0.0), (0.01, 2, 0, 0.3)]),
            TorusField.from_modes(grid, [(0.01, 0, 1, 0.2)]), R, SIGMA)
        cfg = EvolutionConfig(dt=auto_dt(grid, SIGMA, R), t_final=0.1,
                              record_every=2)
        traj = simulate(state, cfg, DtnSolver(grid, 24))
        assert traj.status == "completed"
        got = [(r.kinetic.hex(), r.potential.hex(), r.volume.hex(),
                r.elliptic_iterations, r.elliptic_coarse_iterations)
               for r in traj.reports]
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

    def test_miss_at_tiny_radius_is_reported(self):
        """rel_error divides by |omega^2_analytic| whenever it is nonzero:
        at R = 1.5e-102 the (0, 1) row misses omega^2 by a factor of about
        290, and the capillary scale sigma/R^3, larger than |omega^2| there,
        must not hide that."""
        Rt = 1.5e-102
        rows = measure_dispersion(DtnSolver(TorusGrid(16, 16), 24), Rt, SIGMA,
                                  [(0, 1.0)], 1e-11)
        _, _, analytic, measured, rel = rows[0]
        assert analytic != 0.0
        assert rel == abs(measured - analytic) / abs(analytic)
        assert rel > 0.5


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
