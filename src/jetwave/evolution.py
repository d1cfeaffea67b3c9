"""Time integration of the capillary jet system

    eta_t = G(eta) psi,
    psi_t = -sigma (H - 1/(2R)) - N,

with conservation tracking and the linearized dynamics about the reference
cylinder.

The integrator is Lawson's integrating-factor RK4 on the bare system (no
filter, no added dissipation): each step applies the propagator of the
linear part about the cylinder of the mean radius exactly, per Fourier mode,
and leaves only the remainder to RK4.  The capillary CFL step CFL / omega_max
(`auto_dt`, CFL = 0.5) then no longer bounds the step but is its unit: the
``"auto"`` step of `EvolutionConfig` is up to ten of it, set by the
deformation and transport.

Simulation stops normally at t_final or terminally when min(eta) drops below
1e-3 R (pinch-off: the cylinder-graph model leaves its domain of validity);
the trajectory records which.

Every function that solves takes the caller's DtnSolver and elliptic
tolerance; the module keeps no solver of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft as _sfft
from scipy.special import ive

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
#: the Courant number of the capillary step `auto_dt` and of the transport
#: bound of the ``"auto"`` step
CFL = 0.5


# ---------------------------------------------------------------------------
# dispersion relation of the linearized system
# ---------------------------------------------------------------------------

def bessel_dtn_eigenvalue(m, k, R):
    """Eigenvalue of G(R) on cos(m theta + k z):

        Lambda(m, k) = |k| I_m'(|k| R) / I_m(|k| R)   (k != 0),
        Lambda(m, 0) = |m| / R,

    with I_m' = (I_{m-1} + I_{m+1}) / 2 taken in the exponentially scaled
    form, which does not overflow at large |k| R.
    """
    m = abs(int(round(m)))
    k = abs(float(k))
    if k == 0.0 and m == 0:
        return 0.0
    if k == 0.0:
        return m / R
    x = k * R
    return k * (ive(m - 1, x) + ive(m + 1, x)) / (2.0 * ive(m, x))


def _omega_squared(R, sigma, m, k):
    """The real omega^2 of linearized_growth_rate (negative if unstable)."""
    lam = bessel_dtn_eigenvalue(m, k, R)
    return sigma * lam * (m ** 2 + (k * R) ** 2 - 1.0) / (2.0 * R ** 2)


def linearized_growth_rate(R, sigma, m, k):
    """Complex frequency omega of the mode cos(m theta + k z) about eta = R:

        omega^2 = sigma Lambda(m, k) (m^2 + k^2 R^2 - 1) / (2 R^2).

    Imaginary omega signals instability (long axisymmetric waves k R < 1).
    """
    if m == 0 and k == 0:
        raise ValueError("the (0, 0) mode has no linearized frequency")
    return complex(np.sqrt(complex(_omega_squared(R, sigma, m, k))))


def measure_dispersion(solver: DtnSolver, R, sigma, modes, tol):
    """omega^2 measured by central finite-difference Jacobian action of the
    right-hand side about the equilibrium, one row per (m, k).

    Returns rows (m, k, omega2_analytic, omega2_measured, rel_error).
    """
    grid = solver.grid
    eps = 1e-6 * R
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
        omega2_a = _omega_squared(R, sigma, m, k)
        # marginal modes have omega2 = 0 exactly; report their error on the
        # natural capillary scale sigma/R^3 instead of dividing by zero
        scale = abs(omega2_a) if omega2_a != 0.0 else sigma / R ** 3
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
    iterations on the solver's grid and on its coarse levels and the worst
    final relative CG residual of its four stage solves."""

    state: SurfaceState
    phi1: np.ndarray
    phi4: np.ndarray
    iterations: int
    coarse_iterations: int
    residual: float


def step_rk4(state: SurfaceState, dt, solver: DtnSolver, tol, *,
             k1=None, previous: Rk4Step = None) -> Rk4Step:
    """One step of Lawson's integrating-factor RK4.

    About the cylinder of the step's mean radius eta_bar, each Fourier mode
    (m, k) of (eta, psi) has the linear part L = [[0, Lambda], [-sigma c, 0]],
    c = (m^2/eta_bar^2 + k^2 - 1/eta_bar^2)/2, with Lambda from
    ``solver.cylinder_modes`` (L = 0 on the (0, 0) and Nyquist modes).  Its
    propagator E(t) = exp(t L) (cos and sin(omega t)/omega, or cosh and sinh
    where omega^2 = sigma c Lambda < 0) is applied exactly on the rfft2
    half-spectrum, and classical RK4 integrates exp(-t L) N(exp(t L) v) for
    the remainder N(u) = rhs(u) - L u:

        u2 = E(u + dt/2 n1),  u3 = E u + dt/2 n2,  u4 = E(E u + dt n3),
        u_new = E(E(u + dt/6 n1) + dt/3 (n2 + n3)) + dt/6 n4,

    with E = E(dt/2) and n_i = N(u_i).  Classical RK4 is the case L = 0.

    k1 is ``rhs(state)`` if the caller already has it.  Each stage solve
    starts from earlier potentials: k2 from phi1, k3 from phi2 and k4 from
    2 phi3 - phi1.  Given the step before, k1 starts from its phi4 and k2
    from phi1 + (phi4 - phi1)/2 of that step.  Each guess's trace row is
    the stage trace it was solved (or extrapolated) for; the solve carries
    it to the new stage's psi by the cylinder's harmonic extension, from
    32 radial nodes on its 16-node radial level (``DtnSolver.solve``): a
    32 x 32 x 48 stage solve takes 0.3 fine CG iterations after 2.9 there.
    The guesses change only where CG starts, not its stopping test.
    """
    grid = state.grid
    eta_bar = state.eta.mean()
    lam = solver.cylinder_modes(eta_bar)
    m2 = grid.xi_theta[:, None] ** 2
    kz2 = grid.xi_z[: grid.n_z // 2 + 1] ** 2
    sc = np.where(lam > 0.0,
                  0.5 * state.sigma * ((m2 - 1.0) / eta_bar ** 2 + kz2), 0.0)
    omega = np.sqrt((sc * lam).astype(complex))
    live = omega != 0.0
    cos = np.cos(0.5 * dt * omega).real
    sin = np.where(live, np.sin(0.5 * dt * omega) / np.where(live, omega, 1.0),
                   0.5 * dt).real
    lam_sin, sc_sin = lam * sin, sc * sin

    # u is the (2, n_theta, n_z // 2 + 1) stack of the spectra of eta and psi
    def E(u):
        return np.stack([cos * u[0] + lam_sin * u[1], cos * u[1] - sc_sin * u[0]])

    def N(u, k):
        """The remainder's spectra from k = rhs(u)."""
        ku = _sfft.rfft2(np.stack([k[0].values, k[1].values]))
        return ku - np.stack([lam * u[1], -sc * u[0]])

    def at(u, **t):
        eta, psi = _sfft.irfft2(u, s=(grid.n_theta, grid.n_z))
        return state.with_fields(eta=TorusField(grid, eta),
                                 psi=TorusField(grid, psi), **t)

    def stage(u, guess):
        k = rhs(at(u), solver, tol, guess)
        return N(u, k), k[2]

    if k1 is None:
        k1 = rhs(state, solver, tol, None if previous is None else previous.phi4)
    b1 = k1[2]
    guess2 = b1.potential
    if previous is not None:
        guess2 = b1.potential + 0.5 * (previous.phi4 - previous.phi1)
    u0 = _sfft.rfft2(np.stack([state.eta.values, state.psi.values]))
    n1 = N(u0, k1)
    n2, b2 = stage(E(u0 + (dt / 2) * n1), guess2)
    eu0 = E(u0)
    n3, b3 = stage(eu0 + (dt / 2) * n2, b2.potential)
    n4, b4 = stage(E(eu0 + dt * n3), 2.0 * b3.potential - b1.potential)
    u1 = E(E(u0 + (dt / 6) * n1) + (dt / 3) * (n2 + n3)) + (dt / 6) * n4
    stages = (b1, b2, b3, b4)
    return Rk4Step(at(u1, t=state.t + dt), b1.potential, b4.potential,
                   sum(b.iterations for b in stages),
                   sum(b.coarse_iterations for b in stages),
                   max(b.residual for b in stages))


def auto_dt(grid, sigma, eta_bar=1.0):
    """Capillary CFL step, dt = CFL / omega_max with
    omega_max = lambda_max^(3/2) sqrt(sigma/2) at the corner of the grid:
    the step an explicit scheme needs, and the unit of the ``"auto"`` rule
    of `EvolutionConfig.resolve_dt`.  A ValueError when omega_max underflows
    to zero (sigma/2 does at sigma = 5e-324)."""
    omega = _xi_max(grid, eta_bar) ** 1.5 * np.sqrt(sigma / 2.0)
    if not omega > 0.0:
        raise ValueError(f"the capillary frequency omega_max underflows to "
                         f"zero at sigma = {sigma:g}")
    return float(CFL / omega)


def _xi_max(grid, eta_bar):
    """|xi| at the corner of the grid, Nyquist included.  A ValueError when
    a square in it overflows or eta_bar^2 underflows to zero."""
    try:
        with np.errstate(over="raise", divide="raise"):
            return float(np.sqrt((grid.n_theta / 2) ** 2 / eta_bar ** 2
                                 + max(np.abs(grid.xi_z)) ** 2))
    except ArithmeticError:
        raise ValueError(
            f"the corner frequency |xi|_max of the grid is out of "
            f"floating-point range at eta_bar = {eta_bar:g}, z_period = "
            f"{grid.z_period:g}") from None


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    """Settings of `simulate`: the step, the horizon, the elliptic
    tolerance and the report cadence (the Courant number is the constant
    `CFL`).

    dt is a positive step or ``"auto"``: a multiple of the CFL step
    `auto_dt` that bounds what the integrating-factor step leaves explicit,
    the remainder, which grows with the deformation delta = |eta/eta_bar -
    1|_inf + |eta_theta|_inf/eta_bar + |eta_z|_inf (dt = auto_dt /
    clip(delta, 0.1, 1)), and transport (dt <= CFL / (|xi|_max |V|_inf)).
    It is never below the CFL step.  `simulate` reads it again before every
    step, from the bundle of the step's first stage, and lets the step only
    shrink, so a jet that necks toward pinch-off slides back to the CFL
    step.
    """

    dt: float | str = "auto"
    t_final: float = 1.0
    tol_elliptic: float = 1e-11
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.t_final < np.inf:
            raise ValueError("t_final must be positive and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.dt != "auto" and not 0 < float(self.dt) < np.inf:
            raise ValueError("dt must be positive and finite")

    def resolve_dt(self, state: SurfaceState, bundle):
        """The step from state; bundle is its trace bundle (rhs(state)[2])."""
        if self.dt != "auto":
            return float(self.dt)
        eta_bar = state.eta.mean()
        cfl_dt = auto_dt(state.grid, state.sigma, eta_bar)
        eta_t, eta_z = bundle.eta_grad
        delta = (np.abs(state.eta.values / eta_bar - 1.0).max()
                 + eta_t.max_norm() / eta_bar + eta_z.max_norm())
        dt = cfl_dt / min(max(delta, 0.1), 1.0)
        speed = _xi_max(state.grid, eta_bar) * np.hypot(
            bundle.V_theta.values, bundle.V_z.values).max()
        if speed * dt > CFL:
            dt = CFL / speed
        return float(max(dt, cfl_dt))


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
    elliptic_coarse_iterations: int
    elliptic_residual: float

    @staticmethod
    def of(state: SurfaceState, kinetic, iterations=0, coarse=0, residual=0.0):
        ep = potential_energy(state.eta, state.R, state.sigma)
        return EnergyReport(
            t=state.t, kinetic=kinetic, potential=ep, total=kinetic + ep,
            volume=enclosed_volume(state.eta), mean_psi=state.psi.mean(),
            min_eta=state.eta.min(), max_eta=state.eta.max(),
            elliptic_iterations=iterations,
            elliptic_coarse_iterations=coarse, elliptic_residual=residual,
        )


@dataclass
class Trajectory:
    """Recorded snapshots of a simulation, strictly increasing in time.

    status is "completed", "pinch_off" or "solver_failure"; error is the
    ConvergenceError or EllipticityError that ended a solver failure.  dt is
    the run's first step, its longest: an ``"auto"`` step is resolved after
    the first solve (0 if that solve failed) and may shrink later.
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
    report before, elliptic_coarse_iterations those on their coarse levels,
    and elliptic_residual is the worst final relative CG residual among them
    (0 on the first report).  A ConvergenceError or EllipticityError ends
    the run with status "solver_failure" and is kept as its error; the
    records stop at the last state whose report was made.
    """
    traj = Trajectory(dt=0.0 if config.dt == "auto" else float(config.dt))
    try:
        _advance(traj, state0, config, solver)
    except DomainViolationError:
        traj.status = "pinch_off"
    except (ConvergenceError, EllipticityError) as exc:
        traj.status = "solver_failure"
        traj.error = exc
    return traj


def _advance(traj, state, config, solver):
    """The stepping loop of `simulate`; records into traj."""
    tol = config.tol_elliptic
    k1 = rhs(state, solver, tol)
    dt = traj.dt = config.resolve_dt(state, k1[2])
    traj.record(state, EnergyReport.of(state, k1[2].kinetic_energy))
    t_end = state.t + config.t_final
    step = None
    iterations, coarse, residual = 0, 0, 0.0
    for n in itertools.count(1):
        if state.eta.min() < PINCH_FRACTION * state.R:
            traj.status = "pinch_off"
            return
        step = step_rk4(state, min(dt, t_end - state.t), solver, tol, k1=k1,
                        previous=step)
        state = step.state
        iterations += step.iterations
        coarse += step.coarse_iterations
        residual = max(residual, step.residual)
        pinched = state.eta.min() < PINCH_FRACTION * state.R
        if pinched or t_end - state.t <= 1e-12 * dt:
            ek = solver.kinetic_energy(state.eta, state.psi, tol,
                                       guess=step.phi4)
            traj.record(state, EnergyReport.of(state, ek, iterations, coarse,
                                               residual))
            if pinched:
                traj.status = "pinch_off"
            return
        k1 = rhs(state, solver, tol, step.phi4)
        dt = min(dt, config.resolve_dt(state, k1[2]))
        if n % config.record_every == 0:
            traj.record(state, EnergyReport.of(state, k1[2].kinetic_energy,
                                               iterations, coarse, residual))
            iterations, coarse, residual = 0, 0, 0.0


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
