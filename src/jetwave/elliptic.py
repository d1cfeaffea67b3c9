"""Harmonic potential on the mapped cylinder and the Dirichlet-to-Neumann map.

The fluid domain r < eta(theta, z) is pulled back to the unit cylinder by the
global map r = rho * eta.  The pulled-back Laplace equation reads

    L phi = alpha d_rho^2 phi + beta . grad_w d_rho phi + gamma d_rho phi
            + (1/(rho^2 eta^2)) d_theta^2 phi + d_z^2 phi = 0,

    alpha = (1 + (eta_theta/eta)^2 + rho^2 eta_z^2) / eta^2,
    beta  = (-2 eta_theta/(rho eta^3), -2 rho eta_z/eta),
    gamma = -(1/(rho eta)) d_theta(eta_theta/eta^2)
            - rho eta d_z(eta_z/eta^2) + 1/(rho eta^2),

with phi = psi on rho = 1.  Rather than collocating this strong form, the
solver discretizes the underlying Dirichlet energy

    E[phi] = 1/2 * integral of |grad phi|^2 over the fluid domain
           = 1/2 * iint ( e1^2 + e2^2 + e3^2 ) rho eta^2 drho dtheta dz,

    e1 = d_rho phi / eta,
    e2 = d_theta phi/(rho eta) - (eta_theta/eta^2) d_rho phi,
    e3 = d_z phi - (rho eta_z/eta) d_rho phi,

with Fourier modes in (theta, z) and polynomials on Legendre-Gauss-Radau
nodes in rho (the node rho = 1 carries the Dirichlet trace; no node sits on
the axis, and no artificial axis condition is needed).  The discrete bilinear
form is symmetric positive semi-definite by construction, so the resulting
discrete operator eta*G(eta) is exactly self-adjoint and the kinetic energy
is nonnegative to roundoff -- independently of resolution.

The linear system is solved by conjugate gradients preconditioned with the
same energy form frozen on the cylinder of the mean radius.  That form
decouples per Fourier mode, and its radial mass term is diagonal, so one
eigenbasis per angular mode, built with the solver, inverts it at any mean
radius; a solve reads the solver and never writes it.  A caller that has a
nearby potential (the time stepper has one from the previous stage) passes
it as an explicit starting guess; the stopping test stays relative to the
cold right-hand side, so a warm solve meets the same accuracy target.
Radial derivatives are taken relative to the trace, D (phi - phi(rho = 1)),
so the lift 1 (x) psi has no radial strain, and its K, the right-hand side
of every solve, comes in closed form from one-layer transforms; a guess adds
K of its zero-trace interior.  A constant trace gives a zero right-hand
side, so G(eta) 1 = 0 exactly.

A guess's rho = 1 row is read as the trace it was solved for.  When it
differs from the projected psi (an RK4 stage guess is the potential of an
earlier stage, whose trace has turned since), CG starts from the guess
carried to psi, guess + Ext(psi - guess[-1]).  Ext is the discrete harmonic
extension on the cylinder of the solve's mean radius: per Fourier mode, the
interior profile 1 - y, where y = M^-1 p is the eigenbasis solve that
``cylinder_modes`` makes too.  It is formed per solve from two one-layer
transforms and one inverse stack transform, so the solver keeps no state.
A guess whose trace row is psi starts as before, and NaN in that row fails
the solve like NaN anywhere in a guess.

One CG iteration costs seven (theta, z) transforms of an n_rho-layer stack:
the preconditioner's forward and inverse transform, the inverse transforms
of the two tangential gradients (the search direction's half-spectrum is
updated alongside it, since the radial scaling of the preconditioner
commutes with the transform), and the forward transforms of the two
tangential fluxes, whose spectra are summed before a single inverse
transform.  Radial derivatives are small matrix products per theta row, run
on the calling thread (see ``_along_rho``).  Every term is formed in place
in a stack the iteration already holds and each stack is freed once read,
so an iteration holds about twelve n_rho-layer stacks at its peak: the three
coefficient stacks of the form, K of the lift (residual and flux rows), the
potential, the search direction and its half-spectrum, half a stack of
preconditioner weights, and at most four more inside K.

The conormal flux eta*G(eta)psi is extracted variationally (boundary rows of
the discrete operator), which is the discretization of the duality pairing

    integral (eta G(eta) psi) h  =  iint grad phi . grad H  dV;

note the eta-weight on the left, required for consistency with the kinetic
energy  E_k = 1/2 * integral psi (eta G(eta) psi).  CG already applies the
full operator, boundary row included, to its start and to every search
direction, so the solve accumulates that row with the coefficients of its
iterate and no pass over the potential follows it.  E_k = 1/2 phi^T K phi
is read off the same rows: once CG stops, K(phi) has the flux as its trace
row and the negated residual as its interior rows, so E_k takes two dot
products.  A solve returns the read-only potential, the flux, E_k, its
iteration counts and residual, and the projected eta with eta_grad; its
coefficient stacks are freed with it.

A cold solve on a grid of at least 64 x 64 points, both counts divisible by
4, starts from a nested iteration (the first leg of full multigrid): the
solver holds a read-only coarse solver on the half grid with 16 radial
nodes, solves there to COARSE_TOL on eta and psi truncated spectrally, and
prolongs that potential -- barycentric interpolation in rho, zero padding
in (theta, z) -- into the fine CG's starting guess.  The stopping test stays
relative to the cold right-hand side, so the accuracy target is unchanged.
``iterations`` counts the fine CG iterations and ``coarse_iterations`` the
coarse ones (0 when no coarse start ran).  Smaller grids solve cold as
before; so does a truncated radius that is not positive.  The prolonged
guess is not carried: its trace row is the truncated psi, and carrying it
saved no fine iteration.

Every function that solves takes the caller's DtnSolver and elliptic
tolerance; the module keeps no solver of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft as _sfft
from numpy.polynomial import legendre as npleg

from .errors import ConvergenceError, DomainViolationError
from .geometry import mean_curvature, modified_gradient, potential_energy
from .spectral import (
    TorusField,
    TorusGrid,
    dealiased_product,
    derivative_multipliers,
    integrate_product,
    nonlinear_eval,
    spectral_derivative,
)

TOL_DEFAULT = 1e-11
TOL_RANGE = (1e-13, 1e-6)
MAX_ITER = 200      # CG iteration cap of every solve, read at call time
COARSE_TOL = 1e-8   # tolerance of the half-grid solve of a nested cold start


# ---------------------------------------------------------------------------
# radial discretization
# ---------------------------------------------------------------------------

def _gauss_radau_left(n):
    """Legendre-Gauss-Radau nodes/weights on [-1, 1] including x = -1.

    Nodes are the roots of P_{n-1} + P_n; the quadrature is exact for
    polynomials of degree <= 2n - 2.
    """
    c = np.zeros(n + 1)
    c[n - 1] = 1.0
    c[n] = 1.0
    x = npleg.legroots(c)
    x = np.sort(x.real)
    x[0] = -1.0
    w = np.empty(n)
    w[0] = 2.0 / n ** 2
    pnm1 = npleg.legval(x[1:], [0.0] * (n - 1) + [1.0])
    w[1:] = (1.0 - x[1:]) / (n ** 2 * pnm1 ** 2)
    return x, w


def _barycentric_weights(x):
    n = len(x)
    w = np.ones(n)
    for j in range(n):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w / np.abs(w).max()


def _differentiation_matrix(x, w):
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


class RadialGrid(NamedTuple):
    """Gauss-Radau collocation on (0, 1], boundary node rho = 1 last: nodes,
    quadrature weights and differentiation matrix D, read-only."""

    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray


@lru_cache(maxsize=8)
def radial_grid(n_rho) -> RadialGrid:
    """The RadialGrid of n_rho >= 4 nodes; cached per n_rho."""
    if n_rho < 4:
        raise ValueError("n_rho must be at least 4")
    x, wx = _gauss_radau_left(n_rho)
    rho = (1.0 - x) / 2.0          # x = -1 -> rho = 1; interior x -> rho in (0,1)
    order = np.argsort(rho)        # ascending; boundary rho = 1 ends up last
    rho = rho[order]
    w = (wx / 2.0)[order]
    D = _differentiation_matrix(rho, _barycentric_weights(rho))
    for a in (rho, w, D):
        a.setflags(write=False)
    return RadialGrid(rho, w, D)


@lru_cache(maxsize=8)
def _radial_prolongation(n_from, n_to):
    """(n_to, n_from) barycentric interpolation matrix from the n_from radial
    nodes to the n_to radial nodes; a shared node (rho = 1) maps exactly."""
    x = radial_grid(n_from).nodes
    d = radial_grid(n_to).nodes[:, None] - x[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    P = _barycentric_weights(x) / d
    P /= P.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    P[rows] = hit[rows]
    P.setflags(write=False)
    return P


def _resample(spec, n_theta, n_z):
    """rfft2 half-spectra (last two axes, even grid) moved to an n_theta x
    n_z grid: the modes |m|, |k| below half the smaller grid are copied,
    every other mode (the smaller grid's Nyquist modes included) is zero."""
    h = min(spec.shape[-2], n_theta) // 2
    k = min(2 * (spec.shape[-1] - 1), n_z) // 2
    out = np.zeros(spec.shape[:-2] + (n_theta, n_z // 2 + 1), complex)
    out[..., :h, :k] = spec[..., :h, :k]
    out[..., 1 - h:, :k] = spec[..., 1 - h:, :k]
    return out


# ---------------------------------------------------------------------------
# solve result and trace bundle
# ---------------------------------------------------------------------------

class _Solve(NamedTuple):
    """What one solve gives, under the names TraceBundle gives it."""

    potential: np.ndarray
    flux: TorusField
    kinetic_energy: float
    iterations: int
    coarse_iterations: int
    residual: float
    eta: TorusField
    eta_grad: tuple


@dataclass(frozen=True)
class TraceBundle:
    """Boundary quantities derived from one elliptic solve.

    flux, kinetic_energy, iterations, coarse_iterations, residual,
    potential, eta and eta_grad are the fields of the solve's result, passed
    through.  G is the variational Dirichlet-to-Neumann value (flux / eta);
    flux = eta * G(eta) psi, the rho = 1 row of the energy operator, which
    CG accumulates alongside its iterate.  kinetic_energy, the Dirichlet
    energy 1/2 phi^T K phi of the potential, is read off the operator rows
    CG holds when it stops.  potential is the read-only nodal potential
    stack of the solve, a starting guess for the next solve at a nearby
    state, eta the Nyquist-projected radius it was solved on and eta_grad
    its (eta_theta, eta_z).  iterations and coarse_iterations are the
    solve's CG iterations on its own grid and on the half grid of a nested
    cold start (0 if none ran).
    """

    B: TorusField
    V_theta: TorusField
    V_z: TorusField
    N: TorusField
    G: TorusField
    flux: TorusField
    kinetic_energy: float
    iterations: int
    coarse_iterations: int
    residual: float
    potential: np.ndarray
    eta: TorusField
    eta_grad: tuple

    def identity_residuals(self, psi: TorusField, eta: TorusField):
        """Max-norm residuals of the trace identities at the solve's data:

        gradient_identity  grad_bar psi - V - B grad_bar eta (both components)
        b_formula          B - (G + grad_bar psi . grad_bar eta)
                               / (1 + |grad_bar eta|^2)
        g_consistency      G - (B - V . grad_bar eta), the variational value
                           against the trace algebra
        """
        gbt, gbz = modified_gradient(eta, eta)
        pt, pz = modified_gradient(psi, eta)
        r1 = pt - self.V_theta - dealiased_product(self.B, gbt)
        r2 = pz - self.V_z - dealiased_product(self.B, gbz)
        num = self.G + dealiased_product(pt, gbt) + dealiased_product(pz, gbz)
        recon = nonlinear_eval(
            lambda n, a, b: n / (1.0 + a ** 2 + b ** 2), num, gbt, gbz
        )
        v_dot = (dealiased_product(self.V_theta, gbt)
                 + dealiased_product(self.V_z, gbz))
        return {
            "gradient_identity": max(r1.max_norm(), r2.max_norm()),
            "b_formula": (self.B - recon).max_norm(),
            "g_consistency": (self.G - (self.B - v_dot)).max_norm(),
        }


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _along_rho(M, stack):
    """Contract a radial matrix (a, n_rho), or a row (n_rho,), with the rho
    axis of a (n_rho, n_theta, n_z) stack, one theta row at a time.

    One product over the whole stack is large enough for OpenBLAS to split
    across its thread pool, and on a loaded machine every such product waits
    for a descheduled worker (on 2 vCPUs shared with one busy process, the
    32 x 32 time flow took twice as long, and varied).  OpenBLAS keeps a
    product under about 2.6e5 multiply-adds on the calling thread; a row
    costs a * n_rho * n_z (7.4e4 at n_rho 48, n_z 32).
    """
    rows = stack.transpose(1, 0, 2)
    if M.ndim == 1:
        return np.matmul(M, rows)
    out = np.empty((M.shape[0],) + stack.shape[1:])
    np.matmul(M, rows, out=out.transpose(1, 0, 2))
    return out


class DtnSolver:
    """Dirichlet-to-Neumann solver on a fixed torus grid.

    Holds the radial discretization, the preconditioner's per-angular-mode
    eigenbasis and, on grids of at least 64 x 64 with both counts divisible
    by 4, the half-grid solver of nested cold starts, all read-only after
    construction.  A solve depends only on its inputs, so instances give
    bitwise the same results whatever was solved before and are safe for
    concurrent use.
    """

    def __init__(self, grid: TorusGrid, n_rho=48):
        self.grid = grid
        self.radial = radial_grid(n_rho)
        self.n_rho = n_rho
        nt, nz = grid.n_theta, grid.n_z
        self._coarse = (
            DtnSolver(TorusGrid(nt // 2, nz // 2, grid.z_period), 16)
            if min(nt, nz) >= 64 and nt % 4 == nz % 4 == 0 else None)
        mt, mz = derivative_multipliers(grid)
        nzr = grid.n_z // 2 + 1
        self._rmt = mt[:, :nzr].copy()
        self._rmz = mz[:, :nzr].copy()
        # The energy form frozen at eta = eta_bar restricted to the interior
        # nodes, cw (D^T W rho D + m^2 W / rho + eta_bar^2 k^2 W rho), equals
        # cw h^-1 (C_m + eta_bar^2 k^2) h^-1 with h = (w rho)^(-1/2) and
        # C_m = h (D^T W rho D) h + m^2 / rho^2 = Q diag(lam) Q^T.
        ni = n_rho - 1
        rho, w, D = self.radial.nodes, self.radial.weights, self.radial.D
        h = 1.0 / np.sqrt(w[:ni] * rho[:ni])
        self._a0 = D[:, :-1].T @ ((w * rho)[:, None] * D[:, :-1])
        # m^2 and k^2 off the multipliers, whose Nyquist modes are zeroed
        self._m2 = self._rmt[:, :1].imag ** 2     # (n_theta, 1)
        self._k2 = self._rmz[0].imag ** 2         # (nzr,)
        c = (h[:, None] * self._a0 * h[None, :])[None] \
            + self._m2[:, :, None] * np.diag(1.0 / rho[:ni] ** 2)[None]
        lam, q = np.linalg.eigh(c)
        self._h = h[:, None, None]
        self._lam = lam[:, :, None]          # (n_theta, ni, 1)
        self._Q = q
        for a in (self._rmt, self._rmz, self._a0, self._m2, self._h, self._lam,
                  self._k2, self._Q):
            a.setflags(write=False)

    # -- preconditioner ----------------------------------------------------
    def _precond_weights(self, eta_bar):
        """(n_theta, ni, nzr) inverse eigenvalues of the form frozen at eta_bar."""
        return 1.0 / (self.grid.cell_area * (self._lam + eta_bar ** 2 * self._k2))

    def _apply_precond(self, r, weights):
        """Per-mode frozen-coefficient solve of an interior residual stack;
        returns the result and its rfft2 half-spectrum.  Each spectrum is
        freed once the next is formed, and the last is scaled in place."""
        ni = r.shape[0]
        nt, nz = self.grid.n_theta, self.grid.n_z
        c = _sfft.rfft2(self._h * r, axes=(1, 2))          # (ni, nt, nzr)
        y = np.matmul(self._Q.transpose(0, 2, 1),
                      c.view(np.float64).transpose(1, 0, 2))  # (nt, ni, 2 nzr)
        del c
        y = y.reshape(nt, ni, -1, 2)
        y *= weights[..., None]
        zc = np.empty((ni, nt, nz // 2 + 1), complex)
        np.matmul(self._Q, y.reshape(nt, ni, -1),
                  out=zc.view(np.float64).transpose(1, 0, 2))
        del y
        out = _sfft.irfft2(zc, axes=(1, 2), s=(nt, nz))
        out *= self._h
        zc *= self._h
        return out, zc

    def cylinder_modes(self, eta_bar):
        """Eigenvalues Lambda(m, k) of the discrete G on the cylinder
        eta = eta_bar, on the rfft2 half-spectrum; 0 on the (0, 0) mode and
        the Nyquist modes, which a solve projects out.

        eta_bar Lambda is the Schur complement onto rho = 1 of the frozen
        form.  With derivatives relative to the trace, its interior block is
        M = a0 + diag(p), p = m^2 w/rho + eta_bar^2 k^2 w rho, and

            eta_bar Lambda = (m^2 + eta_bar^2 k^2) w_b + sum(p) - p^T M^-1 p,

        free of the O(n_rho^4) entries of a0.  y = M^-1 p comes from the
        interior eigenbasis; p^T M^-1 p is read as 2 p^T y - y^T M y, whose
        error is quadratic in that of y.
        """
        w = self.radial.weights
        k2 = eta_bar ** 2 * self._k2
        p, y = self._interior_coupling(eta_bar)
        pmp = np.sum(2.0 * p * y - y * (self._a0 @ y + p * y), axis=1)
        lam = ((self._m2 + k2) * w[-1] + np.sum(p, axis=1) - pmp) / eta_bar
        lam[self.grid.n_theta // 2] = 0.0
        lam[:, -1] = 0.0
        return lam

    def _interior_coupling(self, eta_bar):
        """(p, y), each (n_theta, ni, nzr), of the form frozen on the
        cylinder eta = eta_bar (see ``cylinder_modes``): p = m^2 w/rho +
        eta_bar^2 k^2 w rho couples the interior to the trace, and y = M^-1 p
        comes from the interior eigenbasis.  Per mode, 1 - y is the interior
        profile of the discrete harmonic extension of a unit trace."""
        rho, w = self.radial.nodes[:-1, None], self.radial.weights[:-1, None]
        k2 = eta_bar ** 2 * self._k2
        p = self._m2[:, :, None] * (w / rho) + (w * rho) * k2
        h = self._h[:, 0]
        y = h * (self._Q @ ((self._Q.transpose(0, 2, 1) @ (h * p))
                            / (self._lam + k2)))
        return p, y

    def _extension(self, d, eta_bar):
        """Interior rows of Ext d, the discrete harmonic extension of the
        trace d on the cylinder eta = eta_bar: per mode, the profile 1 - y
        times the mode of d."""
        nt, nz = self.grid.n_theta, self.grid.n_z
        prof = self._interior_coupling(eta_bar)[1]
        np.subtract(1.0, prof, out=prof)
        spec = prof.transpose(1, 0, 2) * _sfft.rfft2(d)
        del prof
        return _sfft.irfft2(spec, axes=(1, 2), s=(nt, nz), overwrite_x=True)

    # -- variable-coefficient energy operator -------------------------------
    def _coefficients(self, eta: TorusField, eta_grad):
        """Energy-form coefficients on eta, given eta_grad = (eta_theta,
        eta_z)."""
        rho = self.radial.nodes[:, None, None]
        e = eta.values[None, :, :]
        et = eta_grad[0].values[None, :, :]
        ez = eta_grad[1].values[None, :, :]
        c1 = np.broadcast_to(1.0 / e, (self.n_rho,) + eta.values.shape)
        c2 = 1.0 / (rho * e)
        c3 = np.broadcast_to(-et / e ** 2, c1.shape)
        c4 = -rho * ez / e
        mu = (self.radial.weights[:, None, None] * rho) * e ** 2 * self.grid.cell_area
        return c1, c2, c3, c4, mu

    def _w_gradient(self, ph, mult):
        """One tangential derivative, layer by layer, of the n_rho-layer stack
        whose rfft2 half-spectrum is ph; layers past those ph holds (the
        trace row of a zero-trace stack) are zero."""
        n = ph.shape[0]
        prod = np.empty((self.n_rho,) + ph.shape[1:], complex)
        np.multiply(ph, mult, out=prod[:n])
        prod[n:] = 0.0
        return _sfft.irfft2(prod, axes=(1, 2),
                            s=(self.grid.n_theta, self.grid.n_z))

    def _strains(self, u, ph, co):
        """(e1, e2, e3) of a stack phi, given u = phi[:-1] - phi[-1], its
        interior relative to the trace, and ph, its rfft2 half-spectrum (the
        interior layers alone when the trace is zero).  d_rho phi =
        D[:, :-1] u is exactly zero if phi is constant in rho.  Each strain
        is scaled in place in the stack its gradient or d_rho phi came in."""
        c1, c2, c3, c4, _ = co
        e2 = self._w_gradient(ph, self._rmt)
        e3 = self._w_gradient(ph, self._rmz)
        dphi = _along_rho(self.radial.D[:, :-1], u)
        e2 *= c2
        e2 += c3 * dphi
        e3 += c4 * dphi
        dphi *= c1
        return dphi, e2, e3

    def _apply_K(self, phi, co):
        """Full symmetric energy operator on a (n_rho, n_theta, n_z) stack."""
        return self._apply_K_rel(phi[:-1] - phi[-1],
                                 _sfft.rfft2(phi, axes=(1, 2)), co)

    def _apply_K_rel(self, u, ph, co):
        """K of the stack phi that u and ph describe, as _strains takes it:
        D^T of the radial energy flux minus the divergence of the others.

        The fluxes are formed in the strains' stacks, and each stack is freed
        once read: the radial flux after its D^T, the tangential fluxes after
        their forward transforms, whose spectra are summed before one
        inverse transform."""
        c1, c2, c3, c4, mu = co
        nt, nz = self.grid.n_theta, self.grid.n_z
        e1, e2, e3 = self._strains(u, ph, co)
        e2 *= mu
        e3 *= mu
        e1 *= mu
        e1 *= c1
        e1 += c3 * e2
        e1 += c4 * e3
        out = _along_rho(self.radial.D.T, e1)
        del e1
        e2 *= c2
        div = _sfft.rfft2(e2, axes=(1, 2))
        del e2
        div *= self._rmt
        fz = _sfft.rfft2(e3, axes=(1, 2))
        del e3
        fz *= self._rmz
        div += fz
        del fz
        out -= _sfft.irfft2(div, axes=(1, 2), s=(nt, nz))
        return out

    def _apply_K_lift(self, psi, co):
        """``_apply_K`` of the lift 1 (x) psi, equal to roundoff, from
        one-layer transforms.

        Every coefficient is a radial profile times a (theta, z) layer:
        c1 = a, c2 = a/rho, c3 = s, c4 = rho t and mu = w rho M, whose layers
        are the coefficients' rho = 1 rows (mu's divided by its weight).  The
        lift has no radial strain, so K(lift) is a sum of four radial
        profiles times layers made from the tangential gradients of psi.
        """
        c1, _, c3, c4, mu = co
        rho, w, D = self.radial.nodes, self.radial.weights, self.radial.D
        nt, nz = self.grid.n_theta, self.grid.n_z
        a, s, t = c1[0], c3[0], c4[-1]
        M = mu[-1] / w[-1]
        P = w * rho
        mult = np.stack([self._rmt, self._rmz])
        g_t, g_z = _sfft.irfft2(_sfft.rfft2(psi) * mult, s=(nt, nz))
        l_t, l_z = M * (a * g_t), M * g_z
        div = _sfft.irfft2(_sfft.rfft2(np.stack([a * l_t, l_z])) * mult,
                           s=(nt, nz))
        profiles = np.stack([D.T @ (P / rho), D.T @ (P * rho), -P / rho ** 2,
                             -P], axis=1)
        return _along_rho(profiles, np.stack([s * l_t, t * l_z, *div]))

    # -- solve ---------------------------------------------------------------
    def solve(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
              guess=None) -> _Solve:
        """Solve the mapped Laplace problem with trace psi on rho = 1.

        Returns a record of the read-only (n_rho, n_theta, n_z) potential,
        the flux eta G(eta) psi, the kinetic energy E_k, the CG iterations
        on this grid and on the half grid of a nested cold start (0 if none
        ran), the final relative residual, and the Nyquist-projected eta
        with its eta_grad = (eta_theta, eta_z).
        guess, if given, is a full (n_rho, n_theta, n_z) nodal potential
        stack that CG starts from.  Its rho = 1 row is the trace it was
        solved for: if that differs from the projected psi, the guess is
        carried to psi by the harmonic extension of the difference on the
        cylinder of eta's mean radius.  Without a guess, a solver with a
        half-grid solver starts from its prolonged solution, uncarried.
        The stopping test is relative to the cold right-hand side either
        way.  A non-finite residual (from NaN or inf in eta, psi or the
        guess, its trace row included) raises ConvergenceError at once.
        """
        if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ValueError(f"tol must lie in [{TOL_RANGE[0]}, {TOL_RANGE[1]}]")
        if eta.min() <= 0.0:
            raise DomainViolationError("eta must be strictly positive")
        shape = (self.n_rho, self.grid.n_theta, self.grid.n_z)
        if guess is not None:
            guess = np.asarray(guess, dtype=float)
            if guess.shape != shape:
                raise ValueError(f"guess must be a potential stack of shape "
                                 f"{shape}, got {guess.shape}")
        pot = self._solve(eta.drop_nyquist(), psi.drop_nyquist(), tol, guess)
        if not pot.residual < tol:   # a NaN residual never passes
            raise ConvergenceError(
                f"elliptic solve failed to reach tol {tol:g} in "
                f"{pot.iterations} iterations (residual {pot.residual:.3e})",
                residual=pot.residual,
                iterations=pot.iterations,
            )
        return pot

    def _solve(self, eta, psi, tol, guess=None):
        """CG on Nyquist-projected eta and psi, from guess (carried to psi)
        or else from the nested cold start if the solver has a half-grid
        solver, stopped at tol, after MAX_ITER iterations or at a
        non-finite residual; the caller checks the residual."""
        coarse_its = 0
        from_caller = guess is not None
        if not from_caller and self._coarse is not None:
            guess, coarse_its = self._coarse_start(eta, psi)
        shape = (self.n_rho, self.grid.n_theta, self.grid.n_z)
        eta_grad = (spectral_derivative(eta, "theta"),
                    spectral_derivative(eta, "z"))
        co = self._coefficients(eta, eta_grad)
        eta_bar = eta.mean()
        weights = self._precond_weights(eta_bar)

        # phi = 1 (x) psi + x, with x zero on the trace row.  The residual
        # starts from -K(1 (x) psi), in closed form, and a guess adds K of
        # its interior x0; flux is the rho = 1 row of K(phi), accumulated
        # with the coefficients of x.  Both stay in the stack k0.  x is the
        # interior of phi, which takes psi once CG stops.  K of a stack with
        # zero trace takes the half-spectrum of its interior alone.  A
        # caller's guess starts CG from guess + Ext(psi - guess[-1]).
        k0 = self._apply_K_lift(psi.values, co)
        r, flux = k0[:-1], k0[-1]
        r *= -1.0
        bnorm = float(np.sqrt(np.sum(r ** 2)))
        phi = np.empty(shape)
        phi[-1] = psi.values
        x = phi[:-1]
        if guess is None or not bnorm:
            x[...] = 0.0
        else:
            np.subtract(guess[:-1], psi.values, out=x)
            if from_caller:
                d = psi.values - guess[-1]
                if d.any():     # NaN counts as a change
                    x += self._extension(d, eta_bar)
            del guess     # a prolonged guess is freed before CG
            kx = self._apply_K_rel(x, _sfft.rfft2(x, axes=(1, 2)), co)
            r -= kx[:-1]
            flux += kx[-1]
            del kx

        res = float(np.sqrt(np.sum(r ** 2))) / bnorm if bnorm else 0.0
        its = 0
        while not res < tol and its < MAX_ITER and np.isfinite(res):
            z, zh = self._apply_precond(r, weights)
            rz_new = float(np.sum(r * z))
            if its:
                # p = z + beta p, in place: IEEE addition commutes
                beta = rz_new / rz
                p *= beta
                p += z
                ph *= beta
                ph += zh
            else:
                p, ph = z, zh
            del z, zh
            rz = rz_new
            kp = self._apply_K_rel(p, ph, co)
            q = kp[:-1]
            alpha = rz / float(np.sum(p * q))
            x += alpha * p
            r -= alpha * q
            flux += alpha * kp[-1]
            del kp, q
            res = float(np.sqrt(np.sum(r ** 2))) / bnorm
            its += 1
        x += psi.values
        # E_k = 1/2 phi^T K phi: K(phi) has the trace row flux and the
        # interior rows -r
        ek = 0.5 * (float(np.sum(psi.values * flux)) - float(np.sum(x * r)))
        phi.setflags(write=False)
        return _Solve(phi, TorusField(self.grid, flux / self.grid.cell_area),
                      ek, its, coarse_its, res, eta, eta_grad)

    def _coarse_start(self, eta, psi):
        """(guess, coarse CG iterations) of a nested cold start: eta and psi
        truncated to the half grid, solved there to COARSE_TOL, and the
        potential interpolated to this solver's radial nodes and zero-padded
        in (theta, z).  (None, 0) when the truncated radius is not positive
        or not finite."""
        coarse = self._coarse
        half = (coarse.grid.n_theta, coarse.grid.n_z)
        spec = _resample(_sfft.rfft2(np.stack([eta.values, psi.values]),
                                     norm="forward"), *half)
        eta_c, psi_c = _sfft.irfft2(spec, s=half, norm="forward")
        if not eta_c.min() > 0.0:   # NaN fails too
            return None, 0
        pot = coarse._solve(TorusField(coarse.grid, eta_c),
                            TorusField(coarse.grid, psi_c), COARSE_TOL)
        stack = _along_rho(_radial_prolongation(coarse.n_rho, self.n_rho),
                           pot.potential)
        full = (self.grid.n_theta, self.grid.n_z)
        spec = _resample(_sfft.rfft2(stack, axes=(1, 2), norm="forward"),
                         *full)
        return (_sfft.irfft2(spec, axes=(1, 2), s=full, norm="forward"),
                pot.iterations)

    # -- trace bundle --------------------------------------------------------
    def trace_bundle(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
                     guess=None) -> TraceBundle:
        """One elliptic solve (from guess, if given) and every boundary
        quantity derived from it.

        The flux and E_k are the ones the solve read off the operator rows it
        applied; the trace algebra then pads each field it reads once
        (B, V and N share their inputs' padded samples).
        """
        pot = self.solve(eta, psi, tol, guess)
        eta = pot.eta
        phi = pot.potential
        d_rho = TorusField(self.grid,
                           _along_rho(self.radial.D[-1, :-1], phi[:-1] - phi[-1]))

        def over_eta(f):
            return nonlinear_eval(lambda a, e: a / e, f, eta)

        B = over_eta(d_rho)
        # grad_bar eta from the derivatives the solve took of the same eta
        gbt, gbz = over_eta(pot.eta_grad[0]), pot.eta_grad[1]
        pt, pz = modified_gradient(TorusField(self.grid, phi[-1]), eta)
        V_theta = pt - dealiased_product(B, gbt)
        V_z = pz - dealiased_product(B, gbz)
        G = over_eta(pot.flux)
        v_dot = dealiased_product(V_theta, gbt) + dealiased_product(V_z, gbz)
        N = dealiased_product(B, v_dot) + 0.5 * (
            dealiased_product(V_theta, V_theta)
            + dealiased_product(V_z, V_z)
            - dealiased_product(B, B)
        )
        return TraceBundle(B=B, V_theta=V_theta, V_z=V_z, N=N, G=G,
                           **pot._asdict())

    def kinetic_energy(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
                       guess=None):
        """E_k = 1/2 integral psi (eta G(eta)) psi, as the Dirichlet energy."""
        return self.solve(eta, psi, tol, guess=guess).kinetic_energy


# ---------------------------------------------------------------------------
# shape derivative and Hamiltonian variations
# ---------------------------------------------------------------------------

def shape_derivative(eta: TorusField, psi: TorusField, delta_eta: TorusField,
                     solver: DtnSolver, tol) -> TorusField:
    """Derivative of G(eta)psi with respect to eta in direction delta_eta:

        -G(eta)(B delta_eta) - d_theta((V_theta/eta) delta_eta)
        - d_z(V_z delta_eta) - B delta_eta / eta.

    Requires two elliptic solves (one for psi, one for the Dirichlet data
    B * delta_eta).
    """
    bundle = solver.trace_bundle(eta, psi, tol)
    data = dealiased_product(bundle.B, delta_eta)
    second = solver.trace_bundle(eta, data, tol)
    q1 = nonlinear_eval(lambda v, d, e: v * d / e, bundle.V_theta, delta_eta, eta)
    q2 = dealiased_product(bundle.V_z, delta_eta)
    last = nonlinear_eval(lambda b, d, e: b * d / e, bundle.B, delta_eta, eta)
    return (
        -second.G
        - spectral_derivative(q1, "theta")
        - spectral_derivative(q2, "z")
        - last
    )


def fd_shape_derivative(eta, psi, delta_eta, eps, solver: DtnSolver, tol):
    """Central finite difference [G(eta+eps d) - G(eta-eps d)] / (2 eps)."""
    plus = solver.trace_bundle(eta + eps * delta_eta, psi, tol).G
    minus = solver.trace_bundle(eta - eps * delta_eta, psi, tol).G
    return (1.0 / (2.0 * eps)) * (plus - minus)


def hamiltonian_variations(eta, psi, delta_p, delta_eta, R, sigma,
                           solver: DtnSolver, tol):
    """Both variational identities of the Hamiltonian formulation.

    Returns (fd_p, analytic_p, fd_eta, analytic_eta) where the FD entries
    are central differences C of H(p, eta) = E_k(eta, p/eta) + E_p(eta) in
    the p- and eta-directions at fixed eta resp. fixed p, Richardson-
    extrapolated as (4 C(eps/2) - C(eps))/3, and the analytic entries are

        analytic_p   = integral  G(eta) psi . delta_p,
        analytic_eta = integral (-psi G(eta) psi
                                 + eta (sigma (H - 1/(2R)) + N)) . delta_eta.

    The eight perturbed solves start from the base solve's potential.
    """
    eta = eta.drop_nyquist()
    psi = psi.drop_nyquist()
    delta_p = delta_p.drop_nyquist()
    delta_eta = delta_eta.drop_nyquist()
    p = dealiased_product(eta, psi)
    bundle = solver.trace_bundle(eta, psi, tol)

    def total_energy(eta_f, p_f):
        psi_f = nonlinear_eval(lambda a, e: a / e, p_f, eta_f)
        ek = solver.kinetic_energy(eta_f, psi_f, tol, guess=bundle.potential)
        return ek + potential_energy(eta_f, R, sigma)

    def richardson(energy, eps):
        c = [(energy(h) - energy(-h)) / (2.0 * h) for h in (0.5 * eps, eps)]
        return (4.0 * c[0] - c[1]) / 3.0

    eps_p = 1e-4 * max(p.max_norm(), 1.0) / max(delta_p.max_norm(), 1e-30)
    fd_p = richardson(lambda h: total_energy(eta, p + h * delta_p), eps_p)

    eps_e = 1e-4 * eta.max_norm() / max(delta_eta.max_norm(), 1e-30)
    fd_eta = richardson(lambda h: total_energy(eta + h * delta_eta, p), eps_e)

    analytic_p = integrate_product(bundle.G, delta_p)
    H = mean_curvature(eta)
    inner = sigma * (H - 1.0 / (2.0 * R)) + bundle.N
    analytic_eta = (
        -integrate_product(psi, bundle.G, delta_eta)
        + integrate_product(eta, inner, delta_eta)
    )
    return fd_p, analytic_p, fd_eta, analytic_eta
