"""Paraproducts, the good unknown, and the paralinearized DtN operator.

Bony's decomposition splits a product into two paraproducts and a smoother
remainder; quantizing the DtN symbol with frequency-dependent smoothing
gives the paradifferential operator T_lambda.  Acting on Alinhac's good
unknown U = psi - T_B eta, it reproduces G(eta)psi up to a residual that is
small on high-frequency data -- the paralinearization at the heart of the
well-posedness analysis, here measured rather than estimated.

Run:  python demos/06_paradifferential.py    (about half a minute)
"""

import numpy as np

from jetwave import (
    DtnSolver,
    TorusField,
    TorusGrid,
    apply_paradiff,
    bony_remainder,
    good_unknown,
    lambda_symbol,
    paraproduct,
)
from jetwave.geometry import grad_bar_eta
from jetwave.spectral import band_limited_random, dealiased_product

grid = TorusGrid(32, 32)
rng = np.random.default_rng(11)

print("== Bony decomposition ==")
a = band_limited_random(grid, rng, kmax=10, zero_mean=False)
b = band_limited_random(grid, rng, kmax=10, zero_mean=False)
lhs = dealiased_product(a, b)
rhs = paraproduct(a, b) + paraproduct(b, a) + bony_remainder(a, b)
print(f"ab = T_a b + T_b a + R(a,b): reconstruction error "
      f"{(lhs - rhs).max_norm():.2e}")
print(f"T_a is blind to constants: |T_a(b + 17) - T_a b| = "
      f"{(paraproduct(a, b + 17.0) - paraproduct(a, b)).max_norm():.2e}")

print("\n== paralinearization of the DtN operator ==")
R = 1.0
solver = DtnSolver(grid, 48)
eta = TorusField.constant(grid, R) + band_limited_random(
    grid, rng, kmax=3, decay=3.0, max_norm=0.05 * R)
# data concentrated in high dyadic annuli, where the paralinearization bites
xt, xz = grid.xi_mesh()
rad = np.sqrt(xt ** 2 + xz ** 2)
c = rng.standard_normal(rad.shape) + 1j * rng.standard_normal(rad.shape)
c[(rad < 8.0) | (rad > 11.0)] = 0.0
c[grid.nyquist_mask()] = 0.0
psi = TorusField.from_coefficients(grid, c)
psi = psi * (0.3 / psi.max_norm())

bundle = solver.trace_bundle(eta, psi, 1e-12)
U = good_unknown(eta, psi, bundle.B)
lam = lambda_symbol(eta)
gbt, gbz = grad_bar_eta(eta)
f1 = (bundle.G - apply_paradiff(lam, U)
      + paraproduct(bundle.V_theta, gbt) + paraproduct(bundle.V_z, gbz))
print(f"||G(eta) psi||            = {bundle.G.l2_norm():.4f}")
print(f"||T_lambda U - T_V.grad|| residual f1: "
      f"{f1.l2_norm():.4f}  ({f1.l2_norm() / bundle.G.l2_norm():.1%} relative)")
print("the residual is one order smoother than the data: most of the")
print("operator is captured by the symbol acting on the good unknown.")
