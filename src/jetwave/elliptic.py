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
is exactly nonnegative -- independently of resolution.

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

One CG iteration costs seven (theta, z) transforms of an n_rho-layer stack:
the preconditioner's forward and inverse transform, the inverse transforms
of the two tangential gradients (the search direction's half-spectrum is
updated alongside it, since the radial scaling of the preconditioner
commutes with the transform), and the forward transforms of the two
tangential fluxes, whose spectra are summed before a single inverse
transform.  Radial derivatives are small matrix products per theta row, run
on the calling thread (see ``_along_rho``).

The conormal flux eta*G(eta)psi is extracted variationally (boundary rows of
the discrete operator), which is the discretization of the duality pairing

    integral (eta G(eta) psi) h  =  iint grad phi . grad H  dV;

note the eta-weight on the left, required for consistency with the kinetic
energy  E_k = 1/2 * integral psi (eta G(eta) psi).  CG already applies the
full operator, boundary row included, to its start and to every search
direction, so the solve accumulates that row with the coefficients of its
iterate and no pass over the potential follows it.  A trace bundle computes
E_k, a sum of squared strains, only when it is read.

Every function that solves takes the caller's DtnSolver and elliptic
tolerance; the module keeps no solver of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as _sfft
from numpy.polynomial import legendre as npleg

from .errors import ConvergenceError, DomainViolationError
from .geometry import grad_bar_eta, mean_curvature, potential_energy
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


@dataclass(frozen=True)
class RadialGrid:
    """Gauss-Radau collocation on (0, 1], boundary node rho = 1 last."""

    n_rho: int

    def __post_init__(self):
        if self.n_rho < 4:
            raise ValueError("n_rho must be at least 4")

    @property
    def _built(self):
        return _build_radial(self.n_rho)

    @property
    def nodes(self):
        return self._built[0]

    @property
    def weights(self):
        return self._built[1]

    @property
    def D(self):
        return self._built[2]


@lru_cache(maxsize=8)
def _build_radial(n_rho):
    x, wx = _gauss_radau_left(n_rho)
    rho = (1.0 - x) / 2.0          # x = -1 -> rho = 1; interior x -> rho in (0,1)
    order = np.argsort(rho)        # ascending; boundary rho = 1 ends up last
    rho = rho[order]
    w = (wx / 2.0)[order]
    D = _differentiation_matrix(rho, _barycentric_weights(rho))
    for a in (rho, w, D):
        a.setflags(write=False)
    return rho, w, D


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

class PotentialField:
    """Potential on the mapped cylinder: nodal in rho, grid in (theta, z).

    eta is the (Nyquist-projected) radius the potential was solved on and
    eta_grad its (eta_theta, eta_z); ``_co`` holds that solve's energy-form
    coefficients.  flux is eta G(eta) psi, the rho = 1 row of the energy
    operator applied to the potential, over the cell area.
    """

    def __init__(self, radial: RadialGrid, grid: TorusGrid, values,
                 iterations, residual, eta, co, flux, eta_grad):
        values = np.asarray(values, dtype=float)
        values.setflags(write=False)
        self.radial = radial
        self.grid = grid
        self.values = values
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.eta = eta
        self._co = co
        self.flux = flux
        self.eta_grad = eta_grad

    def trace(self) -> TorusField:
        """phi at rho = 1 (equals the Dirichlet data exactly)."""
        return TorusField(self.grid, self.values[-1])


# ---------------------------------------------------------------------------
# trace bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceBundle:
    """Boundary quantities derived from one elliptic solve.

    G is the variational Dirichlet-to-Neumann value (flux / eta);
    flux = eta * G(eta) psi, the rho = 1 row of the energy operator, which
    CG accumulates alongside its iterate.  potential is the read-only nodal
    potential stack of the solve, a starting guess for the next solve at a
    nearby state, eta the Nyquist-projected radius it was solved on and
    eta_grad its (eta_theta, eta_z).  kinetic_energy, the Dirichlet energy
    of potential, is computed on first read (the energy-form coefficients
    are rebuilt from eta and eta_grad then, not kept).
    """

    B: TorusField
    V_theta: TorusField
    V_z: TorusField
    N: TorusField
    G: TorusField
    flux: TorusField
    iterations: int
    residual: float
    potential: np.ndarray
    eta: TorusField
    eta_grad: tuple
    _solver: "DtnSolver" = field(repr=False, compare=False)

    @cached_property
    def kinetic_energy(self) -> float:
        """E_k = 1/2 integral psi (eta G(eta)) psi, as the Dirichlet energy;
        nonnegative by construction."""
        return self._solver.energy(
            self.potential, self._solver._coefficients(self.eta, self.eta_grad))

    def identity_residuals(self, psi: TorusField, eta: TorusField):
        """Max-norm residuals of the trace identities at the solve's data:

        gradient_identity  grad_bar psi - V - B grad_bar eta (both components)
        b_formula          B - (G + grad_bar psi . grad_bar eta)
                               / (1 + |grad_bar eta|^2)
        g_consistency      G - (B - V . grad_bar eta), the variational value
                           against the trace algebra
        """
        gbt, gbz = grad_bar_eta(eta)
        pt = nonlinear_eval(lambda a, e: a / e, spectral_derivative(psi, "theta"), eta)
        pz = spectral_derivative(psi, "z")
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

    Holds the radial discretization and the preconditioner's per-angular-mode
    eigenbasis, all read-only after construction.  A solve depends only on
    its inputs, so instances give bitwise the same results whatever was
    solved before and are safe for concurrent use.
    """

    def __init__(self, grid: TorusGrid, n_rho=48):
        self.grid = grid
        self.radial = RadialGrid(n_rho)
        self.n_rho = n_rho
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
        a0 = (D.T @ ((w * rho)[:, None] * D))[:ni, :ni]
        m_eff = grid.xi_theta.copy()
        m_eff[grid.n_theta // 2] = 0.0
        k_eff = grid.xi_z[:nzr].copy()
        k_eff[-1] = 0.0
        c = (h[:, None] * a0 * h[None, :])[None] \
            + (m_eff ** 2)[:, None, None] * np.diag(1.0 / rho[:ni] ** 2)[None]
        lam, q = np.linalg.eigh(c)
        self._h = h[:, None, None]
        self._lam = lam[:, :, None]          # (n_theta, ni, 1)
        self._k2 = k_eff ** 2                # (nzr,)
        self._Q = q
        for a in (self._rmt, self._rmz, self._h, self._lam, self._k2, self._Q):
            a.setflags(write=False)

    # -- preconditioner ----------------------------------------------------
    def _precond_weights(self, eta_bar):
        """(n_theta, ni, nzr) inverse eigenvalues of the form frozen at eta_bar."""
        return 1.0 / (self.grid.cell_area * (self._lam + eta_bar ** 2 * self._k2))

    def _apply_precond(self, r, weights):
        """Per-mode frozen-coefficient solve of an interior residual stack;
        returns the result and its rfft2 half-spectrum."""
        ni = r.shape[0]
        nt, nz = self.grid.n_theta, self.grid.n_z
        c = _sfft.rfft2(self._h * r, axes=(1, 2))          # (ni, nt, nzr)
        pairs = c.view(np.float64).transpose(1, 0, 2)       # (nt, ni, 2 nzr)
        y = np.matmul(self._Q.transpose(0, 2, 1), pairs)
        y = y.reshape(nt, ni, -1, 2) * weights[..., None]
        z = np.matmul(self._Q, y.reshape(nt, ni, -1)).transpose(1, 0, 2)
        zc = np.ascontiguousarray(z).view(np.complex128)
        return self._h * _sfft.irfft2(zc, axes=(1, 2), s=(nt, nz)), self._h * zc

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
        rho, w, D = self.radial.nodes, self.radial.weights, self.radial.D
        a0 = D[:, :-1].T @ ((w * rho)[:, None] * D[:, :-1])
        rho, w_b, w = rho[:-1, None], w[-1], w[:-1, None]
        k2 = eta_bar ** 2 * self._k2
        m2 = self._rmt[:, :1].imag ** 2            # Nyquist row zeroed
        p = m2[:, :, None] * (w / rho) + (w * rho) * k2     # (n_theta, ni, nzr)
        h = self._h[:, 0]
        y = h * (self._Q @ ((self._Q.transpose(0, 2, 1) @ (h * p))
                            / (self._lam + k2)))
        pmp = np.sum(2.0 * p * y - y * (a0 @ y + p * y), axis=1)
        lam = ((m2 + k2) * w_b + np.sum(p, axis=1) - pmp) / eta_bar
        lam[self.grid.n_theta // 2] = 0.0
        lam[:, -1] = 0.0
        return lam

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

    def _strains(self, u, ph, co):
        """(e1, e2, e3) of a stack phi, given u = phi[:-1] - phi[-1], its
        interior relative to the trace, and ph, its rfft2 half-spectrum.
        d_rho phi = D[:, :-1] u is exactly zero if phi is constant in rho."""
        c1, c2, c3, c4, _ = co
        nt, nz = self.grid.n_theta, self.grid.n_z
        dphi = _along_rho(self.radial.D[:, :-1], u)
        grads = _sfft.irfft2(
            np.stack([ph * self._rmt, ph * self._rmz]), axes=(2, 3), s=(nt, nz)
        )
        e1 = c1 * dphi
        e2 = c2 * grads[0] + c3 * dphi
        e3 = grads[1] + c4 * dphi
        return e1, e2, e3

    def _w_divergence(self, f_theta, f_z):
        """d_theta f_theta + d_z f_z layer by layer (minus the adjoint of the
        tangential gradient): the two spectra are summed before one inverse
        transform."""
        nt, nz = self.grid.n_theta, self.grid.n_z
        pair = _sfft.rfft2(np.stack([f_theta, f_z]), axes=(-2, -1))
        return _sfft.irfft2(pair[0] * self._rmt + pair[1] * self._rmz,
                            axes=(-2, -1), s=(nt, nz))

    def _apply_K(self, phi, co):
        """Full symmetric energy operator on a (n_rho, n_theta, n_z) stack."""
        return self._apply_K_rel(phi[:-1] - phi[-1],
                                 _sfft.rfft2(phi, axes=(1, 2)), co)

    def _apply_K_rel(self, u, ph, co):
        """K of the stack phi that u and ph describe, as _strains takes it:
        D^T of the radial energy flux minus the divergence of the others."""
        c1, c2, c3, c4, mu = co
        e1, e2, e3 = self._strains(u, ph, co)
        g2 = mu * e2
        g3 = mu * e3
        out = _along_rho(self.radial.D.T, c1 * (mu * e1) + c3 * g2 + c4 * g3)
        out -= self._w_divergence(c2 * g2, g3)
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

    def energy(self, phi, co):
        """Dirichlet energy 1/2 * a(phi, phi); nonnegative by construction."""
        e1, e2, e3 = self._strains(phi[:-1] - phi[-1],
                                   _sfft.rfft2(phi, axes=(1, 2)), co)
        return 0.5 * float(np.sum(co[4] * (e1 ** 2 + e2 ** 2 + e3 ** 2)))

    # -- solve ---------------------------------------------------------------
    def solve(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
              guess=None) -> PotentialField:
        """Solve the mapped Laplace problem with trace psi on rho = 1.

        guess, if given, is a full (n_rho, n_theta, n_z) nodal potential
        stack that CG starts from; its rho = 1 row is ignored.  The stopping
        test is relative to the cold right-hand side either way.  A
        non-finite residual (from NaN or inf in eta, psi or the guess) raises
        ConvergenceError at once.
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
        eta = eta.drop_nyquist()
        psi = psi.drop_nyquist()
        eta_grad = (spectral_derivative(eta, "theta"),
                    spectral_derivative(eta, "z"))
        co = self._coefficients(eta, eta_grad)
        weights = self._precond_weights(eta.mean())

        def K_zero_trace(u, uh):
            """K of the stack with interior u and zero trace, given the
            half-spectrum uh of u."""
            pad = np.zeros((1,) + uh.shape[1:], complex)
            return self._apply_K_rel(u, np.concatenate([uh, pad]), co)

        # phi = 1 (x) psi + x, with x zero on the trace row.  The residual
        # starts from -K(1 (x) psi), in closed form, and a guess adds K of
        # its interior x0; flux is the rho = 1 row of K(phi), accumulated
        # with the coefficients of x.  Both stay in the stack k0.
        k0 = self._apply_K_lift(psi.values, co)
        r, flux = k0[:-1], k0[-1]
        r *= -1.0
        bnorm = float(np.sqrt(np.sum(r ** 2)))
        if guess is None or not bnorm:
            x = np.zeros_like(r)
        else:
            x = guess[:-1] - psi.values
            kx = K_zero_trace(x, _sfft.rfft2(x, axes=(1, 2)))
            r -= kx[:-1]
            flux += kx[-1]

        res = float(np.sqrt(np.sum(r ** 2))) / bnorm if bnorm else 0.0
        its = 0
        while not res < tol:   # a NaN residual never passes
            if its == MAX_ITER or not np.isfinite(res):
                raise ConvergenceError(
                    f"elliptic solve failed to reach tol {tol:g} in {its} "
                    f"iterations (residual {res:.3e})",
                    residual=res,
                    iterations=its,
                )
            z, zh = self._apply_precond(r, weights)
            rz_new = float(np.sum(r * z))
            if its:
                beta = rz_new / rz
                p = z + beta * p
                ph = zh + beta * ph
            else:
                p, ph = z, zh
            rz = rz_new
            kp = K_zero_trace(p, ph)
            q = kp[:-1]
            alpha = rz / float(np.sum(p * q))
            x += alpha * p
            r -= alpha * q
            flux += alpha * kp[-1]
            res = float(np.sqrt(np.sum(r ** 2))) / bnorm
            its += 1
        phi = np.broadcast_to(psi.values, shape).copy()
        phi[:-1] += x
        return PotentialField(self.radial, self.grid, phi, its, res, eta, co,
                              TorusField(self.grid, flux / self.grid.cell_area),
                              eta_grad)

    # -- trace bundle --------------------------------------------------------
    def trace_bundle(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
                     guess=None) -> TraceBundle:
        """One elliptic solve (from guess, if given) and every boundary
        quantity derived from it.

        The flux is the one the solve accumulated from the operator rows it
        applied; the trace algebra then pads each field it reads once
        (B, V and N share their inputs' padded samples), and E_k waits until
        it is read.
        """
        pot = self.solve(eta, psi, tol, guess)
        eta = pot.eta
        phi = pot.values
        d_rho = TorusField(self.grid,
                           _along_rho(self.radial.D[-1, :-1], phi[:-1] - phi[-1]))

        def over_eta(f):
            return nonlinear_eval(lambda a, e: a / e, f, eta)

        B = over_eta(d_rho)
        # grad_bar eta from the derivatives the solve took of the same eta
        gbt, gbz = over_eta(pot.eta_grad[0]), pot.eta_grad[1]
        psi_trace = pot.trace()
        pt = over_eta(spectral_derivative(psi_trace, "theta"))
        pz = spectral_derivative(psi_trace, "z")
        V_theta = pt - dealiased_product(B, gbt)
        V_z = pz - dealiased_product(B, gbz)
        G = over_eta(pot.flux)
        v_dot = dealiased_product(V_theta, gbt) + dealiased_product(V_z, gbz)
        N = dealiased_product(B, v_dot) + 0.5 * (
            dealiased_product(V_theta, V_theta)
            + dealiased_product(V_z, V_z)
            - dealiased_product(B, B)
        )
        return TraceBundle(
            B=B, V_theta=V_theta, V_z=V_z, N=N, G=G, flux=pot.flux,
            iterations=pot.iterations, residual=pot.residual,
            potential=pot.values, eta=eta, eta_grad=pot.eta_grad, _solver=self,
        )

    def kinetic_energy(self, eta: TorusField, psi: TorusField, tol=TOL_DEFAULT,
                       guess=None):
        """E_k = 1/2 integral psi (eta G(eta)) psi, as the Dirichlet energy."""
        pot = self.solve(eta, psi, tol, guess=guess)
        return self.energy(pot.values, pot._co)


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

    Returns (fd_p, analytic_p, fd_eta, analytic_eta) where the FD entries are
    central differences of H(p, eta) = E_k(eta, p/eta) + E_p(eta) in the p-
    and eta-directions at fixed eta resp. fixed p, and the analytic entries
    are

        analytic_p   = integral  G(eta) psi . delta_p,
        analytic_eta = integral (-psi G(eta) psi
                                 + eta (sigma (H - 1/(2R)) + N)) . delta_eta.
    """
    eta = eta.drop_nyquist()
    psi = psi.drop_nyquist()
    delta_p = delta_p.drop_nyquist()
    delta_eta = delta_eta.drop_nyquist()
    p = dealiased_product(eta, psi)

    def total_energy(eta_f, p_f):
        psi_f = nonlinear_eval(lambda a, e: a / e, p_f, eta_f)
        ek = solver.kinetic_energy(eta_f, psi_f, tol)
        return ek + potential_energy(eta_f, R, sigma)

    eps_p = 1e-4 * max(p.max_norm(), 1.0) / max(delta_p.max_norm(), 1e-30)
    fd_p = (total_energy(eta, p + eps_p * delta_p)
            - total_energy(eta, p - eps_p * delta_p)) / (2.0 * eps_p)

    eps_e = 1e-4 * eta.max_norm() / max(delta_eta.max_norm(), 1e-30)
    fd_eta = (total_energy(eta + eps_e * delta_eta, p)
              - total_energy(eta - eps_e * delta_eta, p)) / (2.0 * eps_e)

    bundle = solver.trace_bundle(eta, psi, tol)
    analytic_p = integrate_product(bundle.G, delta_p)
    H = mean_curvature(eta)
    inner = sigma * (H - 1.0 / (2.0 * R)) + bundle.N
    analytic_eta = (
        -integrate_product(psi, bundle.G, delta_eta)
        + integrate_product(eta, inner, delta_eta)
    )
    return fd_p, analytic_p, fd_eta, analytic_eta
