"""Tour of the spectral toolbox: transforms, derivatives, dealiasing, and
the dyadic decomposition.

Run:  python demos/01_spectral_toolbox.py
"""

import numpy as np

from jetwave import (
    TorusField,
    TorusGrid,
    dealiased_product,
    dyadic_block,
    low_pass,
    spectral_derivative,
)
from jetwave.spectral import annulus_profile, chi_profile, decomposition

grid = TorusGrid(32, 32)
th, zz = grid.mesh()

print("== half-spectrum coefficients ==")
f = TorusField(grid, np.cos(3 * th + 2 * zz))
print(f"cos(3 theta + 2 z): coefficient at (3,2) = {f.coefficients[3, 2]:.3f}"
      f" (expect 0.5); its mirror (-3,-2) = {f.coefficient(-3, -2):.3f}")

print("\n== spectral derivatives ==")
d = spectral_derivative(f, "theta")
err = np.abs(d.values + 3 * np.sin(3 * th + 2 * zz)).max()
print(f"max error of d/dtheta cos(3 theta + 2 z): {err:.2e}")

print("\n== dealiased products ==")
a = TorusField(grid, np.cos(15 * th))
# squaring a near-Nyquist mode creates frequency 30, far outside the grid;
# the aliased naive product would fold it back to frequency 2
naive = TorusField(grid, a.values ** 2)
clean = dealiased_product(a, a)
print(f"naive product: spurious mode (2,0) amplitude "
      f"{abs(naive.coefficients[2, 0]):.3f}")
print(f"dealiased    : mode (2,0) amplitude "
      f"{abs(clean.coefficients[2, 0]):.2e}")

print("\n== dyadic (Littlewood-Paley) blocks ==")
dec = decomposition(grid)
print(f"resolved dyadic indices: 0 .. {dec.jmax}")
rng = np.random.default_rng(1)
g = TorusField(grid, rng.standard_normal((32, 32)))
pieces = [low_pass(g, 0)] + [dyadic_block(g, j) for j in range(dec.jmax + 1)]
total = pieces[0]
for p in pieces[1:]:
    total = total + p
print(f"reconstruction from blocks: max error {(total - g).max_norm():.2e}")

r = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0])
print("\nlow-pass profile chi and annulus phi = chi(r/2) - chi(r):")
print("  r   :", "  ".join(f"{x:5.1f}" for x in r))
print("  chi :", "  ".join(f"{x:5.3f}" for x in chi_profile(r)))
print("  phi :", "  ".join(f"{x:5.3f}" for x in annulus_profile(r)))
print("\nthe partition chi + sum_j phi(./2^j) telescopes to 1 exactly on")
print("the lattice because phi is defined by differencing chi.")
