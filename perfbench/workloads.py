"""The three benchmark workloads.

Each workload is a closed loop with one client: the next unit of work starts
when the previous one has returned.  A workload object offers

* ``setup(rng)``    -- grid and solver construction plus the first unit of
                       work (radial build, first preconditioner, FFT plans,
                       symbol closures); timed as ``setup_s`` and left out of
                       every other metric;
* ``make(rng, i)``  -- the inputs of unit ``i``, drawn from ``rng`` only;
* ``run(inputs)``   -- the unit itself, through the package's public entry
                       points; returns its output;
* ``work(inputs, out)`` -- how much work the unit did: simulated time for
                       the flow, one request or surface otherwise;
* ``check(inputs, out)`` -- the output gate; returns ``None`` when the output
                       is correct and a one-line reason otherwise.

The package is imported from ``src/`` of the checkout by ``run.py`` before
this module loads.
"""

from __future__ import annotations

import numpy as np

# Entry points are looked up on their modules at call time, so the traced
# run's wrappers (see spans.py) see the calls made from here.
from jetwave import evolution, geometry, paradiff, symbols
from jetwave.elliptic import DtnSolver
from jetwave.evolution import EvolutionConfig
from jetwave.geometry import SurfaceState
from jetwave.spectral import TAU, TorusField, TorusGrid, band_limited_random

N_RHO = 48


class Evolve:
    """`simulate` on the criterion-9 conservation case (32 x 32, n_rho 48,
    R = sigma = 1, capillary-CFL dt, record_every 20, elliptic tol 1e-11).

    A unit is one `simulate` call over a fixed simulated horizon from a fresh
    state whose two eta phases and one psi phase come from the seed, so a
    scheme that takes larger steps covers the same horizon in fewer of them.
    The mean radius is the same in every unit, so the preconditioner is built
    once, in setup.
    """

    name = "evolve-32"
    horizon = 0.13          # 20 steps at the capillary CFL dt of ~6.57e-3
    setup_horizon = 0.005   # one (shortened) step
    tol = 1e-11

    def __init__(self):
        self.grid = TorusGrid(32, 32)
        self.solver = None

    def _config(self, t_final):
        return EvolutionConfig(dt="auto", t_final=t_final, record_every=20,
                               tol_elliptic=self.tol)

    def make(self, rng, i):
        ph = rng.uniform(0.0, TAU, 3)
        eta = TorusField.constant(self.grid, 1.0) + TorusField.from_modes(
            self.grid, [(0.01, 1, 1, ph[0]), (0.005, 2, 0, ph[1])])
        psi = TorusField.from_modes(self.grid, [(0.005, 0, 1, ph[2])])
        return SurfaceState(eta, psi, 1.0, 1.0)

    def setup(self, rng):
        self.solver = DtnSolver(self.grid, N_RHO)
        evolution.simulate(self.make(rng, -1), self._config(self.setup_horizon), self.solver)

    def run(self, state):
        return evolution.simulate(state, self._config(self.horizon), self.solver)

    def work(self, state, traj):
        return traj.final_state.t - state.t

    def check(self, state, traj):
        if traj.status != "completed":
            return f"status {traj.status}"
        if abs(traj.final_state.t - state.t - self.horizon) > 1e-12:
            return f"stopped at t = {traj.final_state.t:.6g}"
        h = np.array([r.total for r in traj.reports])
        v = np.array([r.volume for r in traj.reports])
        h_drift = float(np.abs(h - h[0]).max() / max(abs(h[0]), state.sigma))
        v_drift = float(np.abs(v - v[0]).max() / v[0])
        if not h_drift < 1e-6:
            return f"Hamiltonian drift {h_drift:.3e} >= 1e-6"
        if not v_drift < 1e-8:
            return f"volume drift {v_drift:.3e} >= 1e-8"
        return None


class DtnCold:
    """Independent `trace_bundle` requests on one 64 x 64 solver, each on a
    fresh state: mean radius uniform in [0.9, 1.1], eta perturbation of
    0.05-0.2 of the mean (kmax 4), psi with kmax 5 and max norm 0.3.

    Nothing carries over between requests, and the mean radius mostly jumps
    outside the preconditioner's 2% window.
    """

    name = "dtn-cold-64"
    tol = 1e-11

    def __init__(self):
        self.grid = TorusGrid(64, 64)
        self.solver = None

    def make(self, rng, i):
        R = rng.uniform(0.9, 1.1)
        amp = rng.uniform(0.05, 0.2)
        eta = TorusField.constant(self.grid, R) + band_limited_random(
            self.grid, rng, kmax=4, max_norm=amp * R)
        psi = band_limited_random(self.grid, rng, kmax=5, max_norm=0.3)
        return eta, psi

    def setup(self, rng):
        self.solver = DtnSolver(self.grid, N_RHO)
        self.run(self.make(rng, -1))

    def run(self, request):
        eta, psi = request
        return self.solver.trace_bundle(eta, psi, self.tol)

    def work(self, request, bundle):
        return 1.0

    def check(self, request, bundle):
        if not bundle.residual < self.tol:
            return f"CG residual {bundle.residual:.3e} >= {self.tol:g}"
        if not bundle.kinetic_energy >= -1e-12:
            return f"kinetic energy {bundle.kinetic_energy:.3e} < -1e-12"
        # G annihilates constants, so the flux has zero mean
        mean_flux = abs(bundle.flux.integral())
        if not mean_flux <= 1e-9 * bundle.flux.l2_norm():
            return f"|integral of flux| {mean_flux:.3e} > 1e-9 |flux|_L2"
        return None


class Calculus:
    """Certify one surface on 32 x 32: the symbol identity report, then the
    paralinearization residual of the verification battery (one bundle, the
    good unknown, T_lambda U and two paraproducts, psi in 8 <= |xi| <= 11).

    The surfaces are the documented reference surface
    eta = 1 + 0.1 cos(theta - theta0) cos(z - z0), translated by seeded
    phases (unit 0 untranslated): the battery certifies the identity
    thresholds on this surface.  On the random family
    1 + band_limited_random(kmax 3, decay 3, amplitude 0.05) the seed code
    misses the q0_equation threshold (1e-8) on about half of the draws.
    """

    name = "calculus-32"
    tol = 1e-12
    n_identities = 15

    def __init__(self):
        self.grid = TorusGrid(32, 32)
        self.solver = None

    def _annulus_psi(self, rng):
        grid = self.grid
        xt, xz = grid.xi_mesh()
        rad = np.sqrt(xt ** 2 + xz ** 2)
        c = rng.standard_normal(rad.shape) + 1j * rng.standard_normal(rad.shape)
        c[(rad < 8.0) | (rad > 11.0)] = 0.0
        c[grid.nyquist_mask()] = 0.0
        it = (-np.fft.fftfreq(grid.n_theta, 1 / grid.n_theta).astype(int)) % grid.n_theta
        iz = (-np.fft.fftfreq(grid.n_z, 1 / grid.n_z).astype(int)) % grid.n_z
        c = 0.5 * (c + np.conj(c[np.ix_(it, iz)]))
        psi = TorusField.from_coefficients(grid, c)
        return psi * (0.3 / psi.max_norm())

    def make(self, rng, i):
        th0, z0 = rng.uniform(0.0, TAU, 2) if i != 0 else (0.0, 0.0)
        th, zz = self.grid.mesh()
        eta = TorusField(self.grid, 1.0 + 0.1 * np.cos(th - th0) * np.cos(zz - z0))
        return eta, self._annulus_psi(rng)

    def setup(self, rng):
        self.solver = DtnSolver(self.grid, N_RHO)
        eta, psi = self.make(rng, 1)
        bundle = self.solver.trace_bundle(eta, psi, self.tol)
        paradiff.good_unknown(eta, psi, bundle.B)
        symbols.lambda_symbol(eta).total(1.0, 1.0)

    def run(self, surface):
        eta, psi = surface
        report = symbols.symbol_identity_report(eta, 1.0, 1.0)
        bundle = self.solver.trace_bundle(eta, psi, self.tol)
        U = paradiff.good_unknown(eta, psi, bundle.B)
        gbt, gbz = geometry.grad_bar_eta(eta)
        f1 = (bundle.G - paradiff.apply_paradiff(symbols.lambda_symbol(eta), U)
              + paradiff.paraproduct(bundle.V_theta, gbt)
              + paradiff.paraproduct(bundle.V_z, gbz))
        return report, f1.l2_norm() / bundle.G.l2_norm()

    def work(self, surface, out):
        return 1.0

    def check(self, surface, out):
        report, residual = out
        if len(report) != self.n_identities:
            return f"{len(report)} identities reported, expected {self.n_identities}"
        failed = [c.name for c in report if not c.passed]
        if failed:
            return "identities failed: " + ", ".join(failed)
        if not residual < 0.05:
            return f"paralinearization residual {residual:.3e} >= 0.05"
        return None


WORKLOADS = {w.name: w for w in (Evolve, DtnCold, Calculus)}
