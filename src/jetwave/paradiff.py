"""Bony paraproducts and paradifferential quantization on the torus.

The paraproduct pairs a smoothed low-frequency factor with each dyadic block
of the other argument,

    T_a b = sum_{j >= 2} S_{j-2} a * Delta_j b,

every block product being dealiased.  The remainder R(a, b) closes Bony's
decomposition ab = T_a b + T_b a + R(a, b) exactly (the product on the left
is the dealiased one, so the identity holds to rounding by construction).

Quantization of an (w, xi)-dependent symbol follows the same recipe
frequency by frequency:

    T_a u(w) = sum_xi [ sum_{j>=2} phi(xi/2^j) (S_{j-2} a)(w, xi) ]
               e^{i w.xi} u_hat(xi).

A symbol is anything with a stacked ``total(xi_theta, xi_z)``, such as
symbols.HomogeneousSymbol.

The symbol is sampled on stacked chunks of the active frequencies, each
chunk transformed at once (scipy.fft, forward-normalized).  The chunks are
sized by the rule the symbol identity report uses, TorusGrid.xi_chunk:
about 2^14 frequency-by-grid-point samples (16 frequencies on 32^2).  Each
smoothed spectrum s_xi(zeta) u_hat(xi) is added at offset zeta + xi directly
in coefficient space, in a box of width 2N per axis that holds every such
sum exactly.  This is the dealiased result, exactly: on the 3/2 zero-padded
grid of width M = 3N/2 the sums |zeta + xi| <= N - 1 would alias only by
multiples of M, and every alias of a kept frequency k in [-N/2, N/2] lies
outside (-N, N).

Only half the active frequencies are sampled: those of u's half-spectrum
in TorusGrid.half_lattice, k_z > 0, or k_z = 0 and k_theta > 0 (the half
the symbol identity report samples too).  For a real operator,
a(w, -xi) = conj a(w, xi), and u real, u_hat(-xi) = conj u_hat(xi), the
contribution of -xi to c(k) is the conjugate of the contribution of xi to
c(-k).  No active frequency is its own mirror: xi = 0 has weight 0 and the
Nyquist modes are dropped.  So the half sums acc give the real part of the
full sum as c(k) = acc(k) + conj acc(-k), on the full lattice: for the
coarse Nyquist row, its own mirror, it reads the +N/2 partner from the box,
and TorusField.from_coefficients keeps the real part.  This halves the
symbol samples, the stacked transforms and the scatter-adds.

Blocks beyond the dealiased band are dropped, the discrete analogue of
working with band-limited fields.  The j-sum starts at j = 2, so low
frequencies of the acted-on field are invisible: T_a (S_1 u) = 0 exactly
and constants may be added to the second argument freely.

The lattice iteration order is fixed, so results are bit-reproducible.  The
chunk size only regroups the coefficient-space sums, which moves a result by
about one ulp.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _sfft

from .spectral import (
    TorusField,
    dealiased_product,
    decomposition,
    low_pass,
)


def paraproduct(a: TorusField, b: TorusField) -> TorusField:
    """Bony paraproduct T_a b (low-high part of the product ab)."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    dec = decomposition(a.grid)
    out = TorusField.zeros(a.grid)
    for j in range(2, dec.jmax + 1):
        c = b.coefficients * dec.blocks[j]
        if not c.any():
            continue
        block = TorusField.from_coefficients(a.grid, c)
        out = out + dealiased_product(low_pass(a, j - 2), block)
    return out


def bony_remainder(a: TorusField, b: TorusField) -> TorusField:
    """R(a, b) = ab - T_a b - T_b a; symmetric, closes the decomposition."""
    return dealiased_product(a, b) - paraproduct(a, b) - paraproduct(b, a)


def good_unknown(eta: TorusField, psi: TorusField, B: TorusField) -> TorusField:
    """Alinhac's good unknown U = psi - T_B eta."""
    return psi - paraproduct(B, eta)


def apply_paradiff(symbol, u: TorusField) -> TorusField:
    """Apply the paradifferential operator of an (w, xi) symbol to u.

    ``symbol`` is anything with a ``total(xi_theta, xi_z)`` method that takes
    stacked 1-d frequency arrays and returns the complex samples of a(., xi)
    on the grid, shaped (n, n_theta, n_z) or broadcasting to it (see
    symbols.HomogeneousSymbol).  The samples must satisfy
    a(w, -xi) = conj(a(w, xi)), the condition for a real operator: only the
    half lattice TorusGrid.half_lattice, k_z > 0 or k_z = 0 < k_theta, is
    sampled, and the mirror half is its conjugate.  The real result is
    returned.
    """
    grid = u.grid
    dec = decomposition(grid)
    nt, nz = grid.n_theta, grid.n_z

    if dec.jmax < 2:
        return TorusField.zeros(grid)
    block_w = dec.blocks[2:]        # (J, Nt, Nz/2+1): phi(xi/2^j), j >= 2
    # chi(zeta/2^(j-2)) on the full lattice of the symbol's spectrum: chi
    # depends on |zeta| alone, so column -k repeats column k
    low_w = dec.lowpass[:dec.jmax - 1]
    low_w = np.concatenate([low_w, low_w[..., -2:0:-1]], axis=-1)
    weight = block_w.sum(axis=0)

    xt, xz = grid.xi_theta, grid.xi_z
    # signed lattice indices, and the box holding every sum zeta + xi
    kt = np.fft.fftfreq(nt, 1.0 / nt).astype(int)
    kz = np.fft.fftfreq(nz, 1.0 / nz).astype(int)
    uhat = u.coefficients

    # row-major, so the lattice iteration order is fixed; on the half
    # lattice, the k_z = 0 column's stored mirror, conjugate to its own half
    # only to roundoff, is never read
    idx_t, idx_z = np.nonzero((weight != 0.0) & (uhat != 0.0)
                              & grid.half_lattice())
    n_active = idx_t.size
    if n_active == 0:
        return TorusField.zeros(grid)

    bt, bz = 2 * nt, 2 * nz
    acc = np.zeros(bt * bz, dtype=complex)

    chunk = grid.xi_chunk()
    for start in range(0, n_active, chunk):
        sl = slice(start, min(start + chunk, n_active))
        its, izs = idx_t[sl], idx_z[sl]
        n = its.size
        samples = np.broadcast_to(symbol.total(xt[its], xz[izs]), (n, nt, nz))
        shat = _sfft.fft2(samples, axes=(1, 2), norm="forward")
        # per-frequency smoothing multiplier: sum_j phi(xi/2^j) chi(zeta/2^(j-2))
        shat *= np.einsum("jn,jtz->ntz", block_w[:, its, izs], low_w, optimize=True)
        shat *= uhat[its, izs][:, None, None]
        row = (kt[its][:, None, None] + kt[None, :, None]) % bt
        col = (izs[:, None, None] + kz[None, None, :]) % bz
        at = (row * bz + col).ravel()
        acc += np.bincount(at, shat.real.ravel(), bt * bz)
        acc += 1j * np.bincount(at, shat.imag.ravel(), bt * bz)

    acc = acc.reshape(bt, bz)
    c = (acc[np.ix_(kt % bt, kz % bz)]
         + np.conj(acc[np.ix_(-kt % bt, -kz % bz)]))
    return TorusField.from_coefficients(grid, c)
