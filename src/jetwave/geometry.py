"""Geometry of the jet surface r = eta(theta, z).

Everything here is determined by eta alone: the metric factor
l = sqrt(1 + (eta_theta/eta)^2 + eta_z^2), the modified gradient
grad_bar f = (f_theta/eta, f_z), the mean curvature H, the (normalized)
potential energy, and the enclosed volume.  All derivatives are spectral and
all quotients/products are evaluated on a padded grid (see
``spectral.nonlinear_eval``).

The mean curvature is available through two independent routes:

* the direct divergence form
      H = (1/2) [ 1/(eta l) - (1/eta) d_theta(eta_theta/(eta l))
                  - d_z(eta_z/l) ],
* the quasilinear decomposition
      H - 1/(2R) = F(eta, grad eta) + sum_jk G^jk(eta, grad eta) eta_jk,

whose agreement is one of the package's standing cross-checks.  The same
F, G^jk functions later feed the curvature symbol, so their partial
derivatives are exposed here as well (evaluated by complex-step
differentiation, exact to machine precision).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainViolationError
from .spectral import (
    TorusField,
    dealiased_product,
    integrate_product,
    nonlinear_eval,
    spectral_derivative,
)

#: states with min(eta) below this multiple of R are rejected
POSITIVITY_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceState:
    """Unknowns of the jet system: radius field eta and potential trace psi.

    R is the reference radius, sigma the surface-tension coefficient, t the
    current time.  Nyquist content is projected out at construction so that
    every downstream operation keeps fields real.
    """

    eta: TorusField
    psi: TorusField
    R: float
    sigma: float
    t: float = 0.0

    def __post_init__(self):
        if self.eta.grid != self.psi.grid:
            raise ValueError("eta and psi live on different grids")
        if not (self.R > 0 and self.sigma > 0):
            raise DomainViolationError("R and sigma must be positive")
        object.__setattr__(self, "eta", self.eta.drop_nyquist())
        object.__setattr__(self, "psi", self.psi.drop_nyquist())
        if self.eta.min() <= POSITIVITY_FLOOR * self.R:
            raise DomainViolationError(
                f"min(eta) = {self.eta.min():.3e} at or below the positivity "
                f"floor {POSITIVITY_FLOOR * self.R:.3e}"
            )

    @property
    def grid(self):
        return self.eta.grid

    def with_fields(self, eta=None, psi=None, t=None):
        return replace(
            self,
            eta=self.eta if eta is None else eta,
            psi=self.psi if psi is None else psi,
            t=self.t if t is None else t,
        )

    @classmethod
    def cylinder(cls, grid, R, sigma):
        return cls(TorusField.constant(grid, R), TorusField.zeros(grid), R, sigma)


def _require_positive(eta: TorusField):
    if eta.min() <= 0.0:
        raise DomainViolationError(f"eta must be strictly positive (min {eta.min():.3e})")


# ---------------------------------------------------------------------------
# first-order quantities
# ---------------------------------------------------------------------------

def _h(x, u, v):
    """The metric factor as a function of (eta, eta_theta, eta_z)."""
    return np.sqrt(1.0 + (u / x) ** 2 + v ** 2)


def modified_gradient(f: TorusField, eta: TorusField):
    """grad_bar f = (f_theta / eta, f_z)."""
    _require_positive(eta)
    ft = spectral_derivative(f, "theta")
    fz = spectral_derivative(f, "z")
    return nonlinear_eval(lambda a, e: a / e, ft, eta), fz


def grad_bar_eta(eta: TorusField):
    """grad_bar eta = (eta_theta/eta, eta_z), used all over the trace algebra."""
    return modified_gradient(eta, eta)


# ---------------------------------------------------------------------------
# curvature coefficient functions and their derivatives
# ---------------------------------------------------------------------------

def curvature_F(x, u, v, R):
    """Zeroth-order part of H - 1/(2R) in the quasilinear decomposition.

    The last term carries x^3: that exponent is forced both by matching the
    divergence form of H and by the self-adjointness of the curvature
    Hessian (the decomposed path would otherwise drift from the direct one
    at first order in eta - R).
    """
    h = _h(x, u, v)
    return 1.0 / (2.0 * x * h) - 1.0 / (2.0 * R) + u ** 2 / (2.0 * x ** 3 * h ** 3)


def curvature_G(x, u, v):
    """Second-order coefficients (G_tt, G_tz, G_zz); G_zt = G_tz."""
    h = _h(x, u, v)
    g_tt = -(1.0 + v ** 2) / (2.0 * h ** 3 * x ** 2)
    g_zz = -(1.0 + (u / x) ** 2) / (2.0 * h ** 3)
    g_tz = (u * v) / (2.0 * h ** 3 * x ** 2)
    return g_tt, g_tz, g_zz


_CS_STEP = 1e-150


def cs_partial(fn, argnum, *args):
    """Partial derivative of a real-analytic function by complex step.

    Exact to machine precision (no subtractive cancellation) because the
    step is far below representable differences.
    """
    perturbed = list(args)
    perturbed[argnum] = np.asarray(args[argnum], dtype=complex) + 1j * _CS_STEP
    return np.imag(fn(*perturbed)) / _CS_STEP


def curvature_F_uv(x, u, v, R):
    """(dF/du, dF/dv) evaluated pointwise."""
    return (
        cs_partial(lambda a, b, c: curvature_F(a, b, c, R), 1, x, u, v),
        cs_partial(lambda a, b, c: curvature_F(a, b, c, R), 2, x, u, v),
    )


def curvature_G_uv(x, u, v):
    """u- and v-partials of (G_tt, G_tz, G_zz): returns two triples."""
    gu = tuple(
        cs_partial(lambda a, b, c, i=i: curvature_G(a, b, c)[i], 1, x, u, v)
        for i in range(3)
    )
    gv = tuple(
        cs_partial(lambda a, b, c, i=i: curvature_G(a, b, c)[i], 2, x, u, v)
        for i in range(3)
    )
    return gu, gv


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def mean_curvature(eta: TorusField, method="direct") -> TorusField:
    """Mean curvature of the surface r = eta.

    method="direct" evaluates the divergence form; method="decomposed" uses
    the quasilinear F/G^jk decomposition, evaluated at R = 1 (the 1/(2R) of
    F is added back, so R cancels in H).  Both agree to spectral accuracy
    on smooth resolved fields.
    """
    _require_positive(eta)
    if method == "direct":
        et = spectral_derivative(eta, "theta")
        ez = spectral_derivative(eta, "z")
        l = nonlinear_eval(_h, eta, et, ez)
        t1 = nonlinear_eval(lambda e, ll: 1.0 / (e * ll), eta, l)
        q1 = nonlinear_eval(lambda u, e, ll: u / (e * ll), et, eta, l)
        t2 = nonlinear_eval(
            lambda d, e: d / e, spectral_derivative(q1, "theta"), eta
        )
        q2 = nonlinear_eval(lambda v, ll: v / ll, ez, l)
        t3 = spectral_derivative(q2, "z")
        return 0.5 * (t1 - t2 - t3)
    if method == "decomposed":
        et = spectral_derivative(eta, "theta")
        ez = spectral_derivative(eta, "z")
        F = nonlinear_eval(lambda x, u, v: curvature_F(x, u, v, 1.0), eta, et, ez)
        g_tt = nonlinear_eval(lambda x, u, v: curvature_G(x, u, v)[0], eta, et, ez)
        g_tz = nonlinear_eval(lambda x, u, v: curvature_G(x, u, v)[1], eta, et, ez)
        g_zz = nonlinear_eval(lambda x, u, v: curvature_G(x, u, v)[2], eta, et, ez)
        e_tt = spectral_derivative(eta, "theta", 2)
        e_zz = spectral_derivative(eta, "z", 2)
        e_tz = spectral_derivative(et, "z")
        second = (
            dealiased_product(g_tt, e_tt)
            + 2.0 * dealiased_product(g_tz, e_tz)
            + dealiased_product(g_zz, e_zz)
        )
        return F + second + 0.5
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# integral quantities
# ---------------------------------------------------------------------------

def potential_energy(eta: TorusField, R, sigma) -> float:
    """Normalized surface energy.

    (sigma/2) * integral of [ eta (l - 1) - (eta - R)^2 / (2R) ], which
    vanishes exactly on the reference cylinder eta = R and whose first
    variation is sigma * eta * (H - 1/(2R)).
    """
    _require_positive(eta)
    et = spectral_derivative(eta, "theta")
    ez = spectral_derivative(eta, "z")
    integrand = nonlinear_eval(
        lambda e, u, v: e * (_h(e, u, v) - 1.0) - (e - R) ** 2 / (2.0 * R),
        eta, et, ez)
    return 0.5 * float(sigma) * integrand.integral()


def enclosed_volume(eta: TorusField) -> float:
    """Volume of the region r < eta: integral of eta^2/2 over the torus."""
    _require_positive(eta)
    return 0.5 * integrate_product(eta, eta)
