"""Shared fixtures: grids and solvers are session-scoped; a solver keeps no
state between solves, so every test can share one."""

import numpy as np
import pytest
from hypothesis import settings

from jetwave import symbols
from jetwave.elliptic import DtnSolver
from jetwave.spectral import TorusField, TorusGrid, band_limited_random

settings.register_profile("suite", max_examples=15, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(32, 32)


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid(16, 16)


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(64, 64)


@pytest.fixture(scope="session")
def solver32(grid32):
    return DtnSolver(grid32, 48)


@pytest.fixture(scope="session")
def solver64(grid64):
    return DtnSolver(grid64, 48)


@pytest.fixture(scope="session")
def solver16(grid16):
    return DtnSolver(grid16, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def _fault_lambda0(monkeypatch, fault):
    """Replace lambda's subprincipal part sub by fault(sub, xt, xz) wherever
    the identity report builds lambda."""
    lambda_from = symbols._lambda_from

    def faulted(surface):
        lam = lambda_from(surface)
        sub = lam.subprincipal
        return symbols.HomogeneousSymbol(lam.grid, 1.0, lam.principal,
                                         lambda xt, xz: fault(sub, xt, xz),
                                         name="lambda(faulted)")

    monkeypatch.setattr(symbols, "_lambda_from", faulted)


@pytest.fixture()
def lambda0_sign_fault(monkeypatch):
    """Flip the sign of lambda's subprincipal part: a fault its Im-lambda0
    identity must trip on."""
    _fault_lambda0(monkeypatch, lambda sub, xt, xz: -sub(xt, xz))


@pytest.fixture()
def lambda0_odd_fault(monkeypatch):
    """Add the real term 1e-6 xi_t/|xi|, odd in xi, to lambda's subprincipal
    part: it breaks a(w, -xi) = conj a(w, xi), on which the report's half
    lattice rests, and its lambda_reality check must trip on it."""
    _fault_lambda0(monkeypatch, lambda sub, xt, xz: sub(xt, xz)
                   + 1e-6 * xt / np.sqrt(xt ** 2 + xz ** 2))


@pytest.fixture()
def gradient_fault(monkeypatch):
    """fault(name) scales the declared xi-gradient of every closure named
    name by 1 + 1e-6, wherever symbols declares one: a fault the gradient
    oracle must catch."""
    def fault(name):
        declare = symbols._declare

        def faulted(fn, gradient, *factors):
            if fn.__name__ == name:
                exact = gradient

                def gradient(xt, xz):
                    return tuple(g * (1.0 + 1e-6) for g in exact(xt, xz))
            return declare(fn, gradient, *factors)

        monkeypatch.setattr(symbols, "_declare", faulted)

    return fault


@pytest.fixture()
def lambda0_high_odd_fault(monkeypatch):
    """Add the real term 1e-6 sign(xi_t), odd in xi, to lambda's
    subprincipal part where |xi_t| >= 5 only: a reality fault that a sample
    of the low k_theta rows alone does not see."""
    _fault_lambda0(monkeypatch, lambda sub, xt, xz: sub(xt, xz)
                   + 1e-6 * np.sign(xt) * (np.abs(xt) >= 5.0))


def smooth_surface(grid, rng, R=1.0, amp=0.05, kmax=3, decay=3.0):
    return TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=kmax, decay=decay, max_norm=amp * R)


def barycentric_weights_loop(x):
    """Barycentric weights node by node, 1 / prod_{k != j} (x_j - x_k),
    scaled to max 1: the oracle of the vectorized build in elliptic."""
    w = np.ones(len(x))
    for j in range(len(x)):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w / np.abs(w).max()


def differentiation_matrix_loop(x, w):
    """The barycentric differentiation matrix entry by entry, the diagonal
    the negated row sum: the oracle of the vectorized build in elliptic."""
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def full_coefficients(f):
    """The full-lattice spectrum of a field's samples by numpy.fft.fft2,
    normalized as TorusField.coefficients (c(0) = mean): the complex
    transform the half-spectrum is checked against."""
    return np.fft.fft2(f.values) / f.values.size


def full_lattice_points(grid):
    """Flat arrays (xi_t, xi_z) of the whole Nyquist-free lattice without
    xi = 0, row-major: the lattice the identity report's half
    (symbols.lattice_points) is checked against."""
    xt, xz = grid.xi_mesh()
    keep = ~grid.nyquist_mask() & ((xt != 0) | (xz != 0))
    return xt[keep], xz[keep]


def pad_coefficients(grid, coefficients, fine):
    """Embed coefficients into the lattice of a finer grid (zero padding;
    the Nyquist row and column land at -n/2): the complex embedding the
    real-transform dealiasing of spectral is checked against."""
    it, iz = (np.fft.fftfreq(n, 1.0 / n).astype(int) % m
              for n, m in ((grid.n_theta, fine.n_theta), (grid.n_z, fine.n_z)))
    out = np.zeros((fine.n_theta, fine.n_z), dtype=complex)
    out[np.ix_(it, iz)] = coefficients
    return out


def truncate_coefficients(fine, coefficients, grid):
    """Restrict coefficients of a finer grid back to the coarse lattice (the
    inverse of pad_coefficients)."""
    it, iz = (np.fft.fftfreq(n, 1.0 / n).astype(int) % m
              for n, m in ((grid.n_theta, fine.n_theta), (grid.n_z, fine.n_z)))
    return coefficients[np.ix_(it, iz)]
