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


@pytest.fixture()
def lambda0_sign_fault(monkeypatch):
    """Flip the sign of lambda's subprincipal part wherever the identity
    report builds lambda: a fault its Im-lambda0 identity must trip on."""
    lambda_from = symbols._lambda_from

    def faulted(surface):
        lam = lambda_from(surface)
        sub = lam.subprincipal
        return symbols.HomogeneousSymbol(lam.grid, 1.0, lam.principal,
                                         lambda xt, xz: -sub(xt, xz),
                                         name="lambda(faulted)")

    monkeypatch.setattr(symbols, "_lambda_from", faulted)


def smooth_surface(grid, rng, R=1.0, amp=0.05, kmax=3, decay=3.0):
    return TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=kmax, decay=decay, max_norm=amp * R)


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
