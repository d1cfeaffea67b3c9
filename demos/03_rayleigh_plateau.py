"""Rayleigh-Plateau instability of a liquid cylinder.

Long axisymmetric waves (k R < 1) lower the surface area at fixed volume, so
they grow; short waves and all non-axisymmetric modes oscillate.  The demo
tabulates the dispersion relation

    omega^2 = sigma Lambda(m, k) (m^2 + k^2 R^2 - 1) / (2 R^2)

against frequencies measured from the nonlinear solver, then integrates the
unstable (m=0, kR=0.5) mode and fits its growth rate.

Run:  python demos/03_rayleigh_plateau.py    (about half a minute)
"""

from jetwave import (
    DtnSolver,
    EvolutionConfig,
    SurfaceState,
    TorusField,
    TorusGrid,
    bessel_dtn_eigenvalue,
    linearized_growth_rate,
    simulate,
)
from jetwave.evolution import fit_growth_rate, measure_dispersion
from jetwave.spectral import TAU

R, sigma = 1.0, 2.0

print("== dispersion about the cylinder (FD Jacobian vs closed form) ==")
grid = TorusGrid(16, 16)
rows = measure_dispersion(DtnSolver(grid, 32), R, sigma,
                          [(0, 1.0), (0, 2.0), (1, 1.0), (2, 0.0), (3, 0.0)],
                          1e-12)
print("  m    k     omega^2 analytic   omega^2 measured    rel err")
for m, k, a, b, rel in rows:
    print(f"  {m}  {k:4.1f}   {a:16.10f}   {b:16.10f}   {rel:.1e}")
print("(omega^2 < 0 would mean growth; the marginal mode kR = 1 sits at 0)")

print("\n== growing mode m=0, kR = 0.5 (needs the 4*pi-long torus) ==")
grid = TorusGrid(8, 8, z_period=2 * TAU)
k = 0.5
rate = linearized_growth_rate(R, sigma, 0, k).imag
lam = bessel_dtn_eigenvalue(0, k, R)
amp = 1e-6
eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
    grid, [(amp, 0, k, 0.0)])
psi0 = TorusField.from_modes(grid, [(amp * rate / lam, 0, k, 0.0)])
state = SurfaceState(eta0, psi0, R, sigma)
traj = simulate(state, EvolutionConfig(dt="auto", t_final=10.0,
                                       record_every=5, tol_elliptic=1e-12),
                DtnSolver(grid, 24))
amps = traj.mode_amplitude(0, 1)
measured = fit_growth_rate(traj.times, amps)
print(f"analytic growth rate  s = {rate:.6f}")
print(f"measured growth rate  s = {measured:.6f}   "
      f"(rel. error {abs(measured - rate) / rate:.1e})")
print(f"mode amplitude grew from {amps[0]:.2e} to {amps[-1]:.2e} "
      f"over t = {traj.times[-1]:g}")
