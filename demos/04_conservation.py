"""Conservation along the flow.

The system is Hamiltonian with energy E_k + E_p, and encloses a conserved
volume because the weighted operator eta G(eta) is self-adjoint and kills
constants.  The discretization keeps both structures: the energy form is
symmetric positive semi-definite by construction, so the only drift left is
the O(dt^4) time-integration error.

Run:  python demos/04_conservation.py    (a few seconds at desk scale)
"""

import numpy as np

from jetwave import (
    DtnSolver,
    EvolutionConfig,
    SurfaceState,
    TorusField,
    TorusGrid,
    simulate,
)
from jetwave.evolution import auto_dt

grid = TorusGrid(32, 32)
R, sigma = 1.0, 1.0
eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
    grid, [(0.01, 1, 1, 0.3), (0.005, 2, 0, 1.1)])
psi0 = TorusField.from_modes(grid, [(0.005, 0, 1, 0.7)])
state = SurfaceState(eta0, psi0, R, sigma)

traj = simulate(state, EvolutionConfig(dt="auto", t_final=1.0,
                                       record_every=2, tol_elliptic=1e-11),
                DtnSolver(grid, 48))

cfl_steps = traj.dt / auto_dt(grid, sigma, eta0.mean())
print(f"dt = {traj.dt:.5f} ({cfl_steps:.0f} capillary CFL steps: the "
      f"integrating factor carries the linear dispersion), "
      f"{len(traj.times)} snapshots\n")
print("     t        E_k            E_p            H total        volume")
for r in traj.reports:
    print(f"  {r.t:6.3f}  {r.kinetic:.11f}  {r.potential:.11f}  "
          f"{r.total:.11f}  {r.volume:.11f}")

h = np.array([r.total for r in traj.reports])
v = np.array([r.volume for r in traj.reports])
print(f"\nrelative Hamiltonian drift: {np.abs(h - h[0]).max() / abs(h[0]):.2e}")
print(f"relative volume drift     : {np.abs(v - v[0]).max() / v[0]:.2e}")
print(f"mean psi (free Bernoulli gauge, reported not constrained): "
      f"{traj.reports[-1].mean_psi:+.2e}")
