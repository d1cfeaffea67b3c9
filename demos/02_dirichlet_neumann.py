"""The Dirichlet-to-Neumann operator on and off the reference cylinder.

On the cylinder eta = R the operator diagonalizes on Fourier modes with
modified-Bessel eigenvalues, which pins down the solver's accuracy; off the
cylinder the solver certifies itself through structure: exact symmetry of
eta G(eta), exact positivity of the kinetic energy, annihilation of
constants, and the trace identities.

Run:  python demos/02_dirichlet_neumann.py
"""

import numpy as np

from jetwave import DtnSolver, TorusField, TorusGrid, bessel_dtn_eigenvalue
from jetwave.spectral import band_limited_random, integrate_product

grid = TorusGrid(32, 32)
R = 1.0
solver = DtnSolver(grid, 48)
th, zz = grid.mesh()

print("== Bessel eigenvalues at eta = R ==")
eta0 = TorusField.constant(grid, R)
print(" (m, k)   Lambda(m,k)      solver        rel err   iters")
for m, k in ((1, 0), (3, 0), (0, 1), (0, 4), (2, 3), (6, 6)):
    psi = TorusField(grid, np.cos(m * th + k * zz))
    bundle = solver.trace_bundle(eta0, psi, 1e-12)
    lam = bessel_dtn_eigenvalue(m, k, R)
    err = np.abs(bundle.G.values - lam * psi.values).max() / lam
    print(f" ({m}, {k})   {lam:12.8f}  {bundle.G.values[0, 0] / psi.values[0, 0]:12.8f}"
          f"  {err:9.2e}   {bundle.iterations}")

print("\n== structure on a 20% deformed surface ==")
rng = np.random.default_rng(3)
eta = eta0 + band_limited_random(grid, rng, kmax=4, max_norm=0.2 * R)
psi1 = band_limited_random(grid, rng, kmax=5, max_norm=0.3)
psi2 = band_limited_random(grid, rng, kmax=5, max_norm=0.3)
b1 = solver.trace_bundle(eta, psi1, 1e-12)
b2 = solver.trace_bundle(eta, psi2, 1e-12)
s12 = integrate_product(b1.flux, psi2)
s21 = integrate_product(b2.flux, psi1)
print(f"min eta = {eta.min():.3f}, max eta = {eta.max():.3f}, "
      f"solver iterations = {b1.iterations}")
print(f"<eta G psi1, psi2> = {s12:+.12e}")
print(f"<psi1, eta G psi2> = {s21:+.12e}   (symmetric to "
      f"{abs(s12 - s21):.1e})")
print(f"kinetic energy = {b1.kinetic_energy:.6f}  (nonnegative to roundoff)")
bc = solver.trace_bundle(eta, TorusField.constant(grid, 5.0), 1e-12)
print(f"G(eta) applied to a constant: max |G| = {bc.G.max_norm():.2e}")
res = b1.identity_residuals(psi1, eta)
print(f"trace identity grad_bar psi = V + B grad_bar eta: residual "
      f"{res['gradient_identity']:.2e}")
print(f"redundant B formula residual: {res['b_formula']:.2e}")
