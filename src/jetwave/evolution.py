"""Time integration of the capillary jet system

    eta_t = G(eta) psi,
    psi_t = -sigma (H - 1/(2R)) - N,

with conservation tracking and the linearized dynamics about the reference
cylinder.

The integrator is classical RK4 on the bare system; the step size obeys the
capillary CFL restriction dt * (max resolved frequency)^(3/2) * sqrt(sigma/2)
<= 0.5, reflecting the |xi|^(3/2) dispersion of surface tension.

Simulation stops normally at t_final or terminally when min(eta) drops below
1e-3 R (pinch-off: the cylinder-graph model leaves its domain of validity);
the trajectory records which.

Every function that solves takes the caller's DtnSolver and elliptic
tolerance; the module keeps no solver of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import iv, ivp

from .elliptic import DtnSolver
from .errors import ConvergenceError, DomainViolationError, EllipticityError
from .geometry import (
    SurfaceState,
    enclosed_volume,
    mean_curvature,
    potential_energy,
)
from .spectral import TorusField

PINCH_FRACTION = 1e-3
CFL_DEFAULT = 0.5


# ---------------------------------------------------------------------------
# dispersion relation of the linearized system
# ---------------------------------------------------------------------------

def bessel_dtn_eigenvalue(m, k, R):
    """Eigenvalue of G(R) on cos(m theta + k z):

        Lambda(m, k) = |k| I_m'(|k| R) / I_m(|k| R)   (k != 0),
        Lambda(m, 0) = |m| / R.
    """
    m = abs(int(round(m)))
    k = abs(float(k))
    if k == 0.0 and m == 0:
        return 0.0
    if k == 0.0:
        return m / R
    x = k * R
    return k * ivp(m, x) / iv(m, x)


def linearized_growth_rate(R, sigma, m, k):
    """Complex frequency omega of the mode cos(m theta + k z) about eta = R:

        omega^2 = sigma Lambda(m, k) (m^2 + k^2 R^2 - 1) / (2 R^2).

    Imaginary omega signals instability (long axisymmetric waves k R < 1).
    """
    if m == 0 and k == 0:
        raise ValueError("the (0, 0) mode has no linearized frequency")
    lam = bessel_dtn_eigenvalue(m, k, R)
    omega_sq = sigma * lam * (m ** 2 + (k * R) ** 2 - 1.0) / (2.0 * R ** 2)
    return complex(np.sqrt(complex(omega_sq)))


def measure_dispersion(solver: DtnSolver, R, sigma, modes, tol):
    """omega^2 measured by central finite-difference Jacobian action of the
    right-hand side about the equilibrium, one row per (m, k).

    Returns rows (m, k, omega2_analytic, omega2_measured, rel_error).
    """
    grid = solver.grid
    eps = 1e-6
    rows = []
    for m, k in modes:
        v = TorusField.from_modes(grid, [(1.0, m, k, 0.0)])
        nrm = v.l2_norm() ** 2
        base = SurfaceState.cylinder(grid, R, sigma)
        # d(eta_t)/d(psi) in direction v  -> Lambda
        up = rhs(base.with_fields(psi=eps * v), solver, tol)[0]
        um = rhs(base.with_fields(psi=-1.0 * eps * v), solver, tol)[0]
        lam_meas = (up - um).values.ravel() @ v.values.ravel() \
            * grid.cell_area / (2.0 * eps * nrm)
        # d(psi_t)/d(eta) in direction v  -> -sigma * curvature factor
        wp = rhs(base.with_fields(eta=base.eta + eps * v), solver, tol)[1]
        wm = rhs(base.with_fields(eta=base.eta - 1.0 * eps * v), solver, tol)[1]
        c_meas = (wp - wm).values.ravel() @ v.values.ravel() \
            * grid.cell_area / (2.0 * eps * nrm)
        omega2_meas = -lam_meas * c_meas
        lam_a = bessel_dtn_eigenvalue(m, k, R)
        omega2_a = sigma * lam_a * (m ** 2 + (k * R) ** 2 - 1.0) / (2.0 * R ** 2)
        # marginal modes have omega2 = 0 exactly; report their error on the
        # natural capillary scale sigma/R^3 instead of dividing by zero
        scale = max(abs(omega2_a), sigma / R ** 3)
        rows.append((m, k, omega2_a, omega2_meas,
                     abs(omega2_meas - omega2_a) / scale))
    return rows


# ---------------------------------------------------------------------------
# right-hand side and stepping
# ---------------------------------------------------------------------------

def rhs(state: SurfaceState, solver: DtnSolver, tol, guess=None):
    """(eta_t, psi_t, bundle) of the jet system at a state; the elliptic
    solve starts from guess (a nodal potential stack), if given."""
    bundle = solver.trace_bundle(state.eta, state.psi, tol, guess=guess)
    eta_t = bundle.G
    H = mean_curvature(state.eta)
    psi_t = -1.0 * state.sigma * (H - 1.0 / (2.0 * state.R)) - bundle.N
    return eta_t, psi_t, bundle


class Rk4Step(NamedTuple):
    """One RK4 step: the new state, the nodal potentials of its first and
    last stage solves (the next step's starting guesses), and the CG
    iterations and worst final relative CG residual of its four stage
    solves."""

    state: SurfaceState
    phi1: np.ndarray
    phi4: np.ndarray
    iterations: int
    residual: float


def step_rk4(state: SurfaceState, dt, solver: DtnSolver, tol, *,
             k1=None, previous: Rk4Step = None) -> Rk4Step:
    """One classical fourth-order step.

    k1 is ``rhs(state)`` if the caller already has it.  Each stage solve
    starts from earlier potentials: k2 from phi1, k3 from phi2 and k4 from
    2 phi3 - phi1.  Given the step before, k1 starts from its phi4 and k2
    from phi1 + (phi4 - phi1)/2 of that step.  The guesses change only where
    CG starts, not its stopping test.
    """

    def f(eta, psi, guess):
        return rhs(state.with_fields(eta=eta, psi=psi), solver, tol, guess)

    e0, p0 = state.eta, state.psi
    if k1 is None:
        k1 = f(e0, p0, None if previous is None else previous.phi4)
    k1e, k1p, b1 = k1
    phi1 = b1.potential
    guess2 = phi1
    if previous is not None:
        guess2 = phi1 + 0.5 * (previous.phi4 - previous.phi1)
    k2e, k2p, b2 = f(e0 + (dt / 2) * k1e, p0 + (dt / 2) * k1p, guess2)
    k3e, k3p, b3 = f(e0 + (dt / 2) * k2e, p0 + (dt / 2) * k2p, b2.potential)
    k4e, k4p, b4 = f(e0 + dt * k3e, p0 + dt * k3p, 2.0 * b3.potential - phi1)
    eta1 = e0 + (dt / 6) * (k1e + 2 * k2e + 2 * k3e + k4e)
    psi1 = p0 + (dt / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
    stages = (b1, b2, b3, b4)
    return Rk4Step(state.with_fields(eta=eta1, psi=psi1, t=state.t + dt),
                   phi1, b4.potential,
                   sum(b.iterations for b in stages),
                   max(b.residual for b in stages))


def auto_dt(grid, sigma, eta_bar=1.0, cfl=CFL_DEFAULT):
    """Capillary CFL step: dt = cfl / (lambda_max^(3/2) sqrt(sigma/2))."""
    lam_max = np.sqrt((grid.n_theta / 2) ** 2 / eta_bar ** 2
                      + max(np.abs(grid.xi_z)) ** 2)
    return float(cfl / (lam_max ** 1.5 * np.sqrt(sigma / 2.0)))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    dt: float | str = "auto"
    t_final: float = 1.0
    tol_elliptic: float = 1e-11
    record_every: int = 1
    cfl: float = CFL_DEFAULT

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.dt != "auto" and not float(self.dt) > 0:
            raise ValueError("dt must be positive")
        if not self.cfl > 0:
            raise ValueError("cfl must be positive")

    def resolve_dt(self, grid, sigma, eta_bar):
        if self.dt == "auto":
            return auto_dt(grid, sigma, eta_bar, self.cfl)
        return float(self.dt)


@dataclass(frozen=True)
class EnergyReport:
    t: float
    kinetic: float
    potential: float
    total: float
    volume: float
    mean_psi: float
    min_eta: float
    max_eta: float
    elliptic_iterations: int
    elliptic_residual: float

    @staticmethod
    def of(state: SurfaceState, kinetic, iterations=0, residual=0.0):
        ep = potential_energy(state.eta, state.R, state.sigma)
        return EnergyReport(
            t=state.t, kinetic=kinetic, potential=ep, total=kinetic + ep,
            volume=enclosed_volume(state.eta), mean_psi=state.psi.mean(),
            min_eta=state.eta.min(), max_eta=state.eta.max(),
            elliptic_iterations=iterations, elliptic_residual=residual,
        )


@dataclass
class Trajectory:
    """Recorded snapshots of a simulation, strictly increasing in time.

    status is "completed", "pinch_off" or "solver_failure"; error is the
    ConvergenceError or EllipticityError that ended a solver failure.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    status: str = "completed"
    error: Exception | None = None
    dt: float = 0.0

    def record(self, state, report):
        if self.times and state.t <= self.times[-1]:
            raise ValueError("snapshots must increase in time")
        self.times.append(state.t)
        self.states.append(state)
        self.reports.append(report)

    @property
    def final_state(self):
        return self.states[-1]

    def mode_amplitude(self, m, n):
        """|eta-hat(m, n)| along the trajectory (integer lattice indices)."""
        return np.array([2.0 * abs(s.eta.coefficient(m, n)) for s in self.states])


def simulate(state0: SurfaceState, config: EvolutionConfig,
             solver: DtnSolver) -> Trajectory:
    """Advance to t_final, recording energy reports; a pinch-off abort
    (min eta < 1e-3 R) is a normal terminal outcome carrying diagnostics.

    A recorded state takes E_k from the k1 solve of the step that leaves it,
    so only the final state is solved for its energy alone; each report's
    elliptic_iterations sums the CG iterations of the stage solves since the
    report before, and elliptic_residual is the worst final relative CG
    residual among them (0 on the first report).  A ConvergenceError or
    EllipticityError ends the run with status "solver_failure" and is kept
    as its error; the records stop at the last state whose report was made.
    """
    dt = config.resolve_dt(state0.grid, state0.sigma, state0.eta.mean())
    traj = Trajectory(dt=dt)
    try:
        _advance(traj, state0, dt, config, solver)
    except DomainViolationError:
        traj.status = "pinch_off"
    except (ConvergenceError, EllipticityError) as exc:
        traj.status = "solver_failure"
        traj.error = exc
    return traj


def _advance(traj, state, dt, config, solver):
    """The stepping loop of `simulate`; records into traj."""
    tol = config.tol_elliptic
    k1 = rhs(state, solver, tol)
    traj.record(state, EnergyReport.of(state, k1[2].kinetic_energy))
    n_steps = int(np.ceil(config.t_final / dt - 1e-12))
    t_end = state.t + config.t_final
    step = None
    iterations, residual = 0, 0.0
    for n in range(1, n_steps + 1):
        if state.eta.min() < PINCH_FRACTION * state.R:
            traj.status = "pinch_off"
            return
        step = step_rk4(state, min(dt, t_end - state.t), solver, tol, k1=k1,
                        previous=step)
        state = step.state
        iterations += step.iterations
        residual = max(residual, step.residual)
        pinched = state.eta.min() < PINCH_FRACTION * state.R
        if pinched or n == n_steps:
            ek = solver.kinetic_energy(state.eta, state.psi, tol,
                                       guess=step.phi4)
            traj.record(state, EnergyReport.of(state, ek, iterations, residual))
            if pinched:
                traj.status = "pinch_off"
            return
        k1 = rhs(state, solver, tol, step.phi4)
        if n % config.record_every == 0:
            traj.record(state, EnergyReport.of(state, k1[2].kinetic_energy,
                                               iterations, residual))
            iterations, residual = 0, 0.0


# ---------------------------------------------------------------------------
# measurement helpers used by the dispersion/growth diagnostics
# ---------------------------------------------------------------------------

def fit_growth_rate(times, amplitudes):
    """Least-squares slope of log(amplitude) against time."""
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    keep = amps > 0
    return float(np.polyfit(times[keep], np.log(amps[keep]), 1)[0])


def fit_oscillation_frequency(times, values):
    """Frequency of a sampled cosine via the linear prediction identity
    x_{n+1} + x_{n-1} = 2 cos(omega dt) x_n, dt = times[1] - times[0].

    The identity needs uniform sampling, so a last sample whose spacing
    differs from dt beyond roundoff (simulate shortens its last step to land
    on t_final) is left out of the fit.
    """
    x = np.asarray(values, dtype=float)
    dt = float(times[1] - times[0])
    if abs(float(times[-1] - times[-2]) - dt) > 1e-9 * abs(dt):
        x = x[:-1]
    num = np.sum(x[1:-1] * (x[2:] + x[:-2]))
    den = 2.0 * np.sum(x[1:-1] ** 2)
    c = num / den
    c = min(1.0, max(-1.0, c))
    return float(np.arccos(c) / dt)
