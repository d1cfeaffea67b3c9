"""Closed-form symbol calculus for the jet system.

Symbols are two-term expansions a = a^(m) + a^(m-1), each term homogeneous in
the frequency xi and sampled pointwise on (grid point w) x (arbitrary real
xi).  Components are stored as closures that broadcast over stacked xi
arrays, so whole-lattice evaluations run in vectorized chunks.

Available constructions:

* principal Dirichlet-to-Neumann symbol
      lambda1 = sqrt(xi_t^2/eta^2 + xi_z^2
                     + (xi_t eta_z/eta - xi_z eta_theta/eta)^2)
  and its subprincipal part lambda0 = (l^2/eta) A0, with A0 read from the
  radial factorization of the pulled-back Laplacian at rho = 1, which
  _factorization gives as A = A1 + A0 and the principal a = a1:

      A1 = (S - i b.xi)/(2 alpha),   a1 = (S + i b.xi)/(2 alpha),
      S  = sqrt(4 alpha (xi_t^2/(rho^2 eta^2) + xi_z^2) - (b.xi)^2),
      A0 = -(A1 gamma/alpha + d_rho A1 + grad_xi a1 . D_w A1) / (A1 + a1),

  with the rho-derivative of A1 differentiated by hand (no numerical
  rho-differencing) and D_w = -i d_w spectral;
* curvature symbol mu2 = lambda1^2 / (2 l^3) (equivalently
  -G^jk xi_j xi_k) with subprincipal
      mu1 = i (grad_uv F . xi) + i eta_jk (grad_uv G^jk . xi);
* symmetrizer symbols
      a = 2^(-1/2) (1 + |grad_bar eta|^2)^(-3/4),
      gamma = sqrt(sigma mu2 lambda1) + gamma^(1/2),
      q = eta^(1/2) a^(-1/3),   p = (gamma # q) # lambda~;
* the truncated composition a # b, Poisson bracket, parametrix of an
  elliptic symbol, and the mollifier exp(-eps gamma^(3/2)).

xi-derivatives
--------------
Every xi-derivative differentiates the closures by a small complex step,
(f(xi + ih) - f(xi - ih))/(2ih), which is exact to ~1e-11 for these
holomorphic closed forms and is what the identity report needs to resolve
its thresholds.  A closure may declare its Schwarz reflection
f*(xi) = conj f(conj xi), so that f(xi - ih) = conj f*(xi + ih): a closure
with real coefficients (lambda1, mu2) is its own reflection, a1 and A1 are
each other's and come from one root, and a product, quotient, root or
exponential of self-reflecting closures (gamma^(3/2), the parametrix and
composition principals, the mollifier) is self-reflecting again.  A declared
closure is evaluated at xi + ih only; conjugation is exact, so the gradient
takes the same values as from both points.  A closure that declares nothing
(a user's lambda, or one built on a1) is evaluated at both points.

Within one symbol_identity_report, every closure evaluation and xi-gradient
is computed once per xi chunk and shared by all identities on that chunk.
The report and paradiff.apply_paradiff size their chunks by one rule,
TorusGrid.xi_chunk.  The evaluations one chunk shares take about 10 MB on
32^2, under the heap thresholds that spectral raises as it loads, so the
next chunk reuses that memory instead of faulting it in again.  The values
of an a1/A1 pair at xi + ih are shared only between the two and dropped
after their gradient, which keeps the peak lower.

Each symbol has one constructor, which takes the surface record of
_surface_data (eta projected once, its first derivatives and l^2) and
computes the xi-independent profiles of its closures once (1/eta^2,
1/(2 alpha), gamma/alpha, ...), so a closure only multiplies and adds on its
(n, n_theta, n_z) stack.  lambda_symbol(eta) is the one public constructor
that takes eta; the report builds one record and every symbol from it.
w_divergence sums two spectra before one inverse transform; the
w-transforms run on scipy.fft.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools

import numpy as np
import scipy.fft as _sfft

from .errors import DomainViolationError, EllipticityError
from .geometry import (
    curvature_F_uv,
    curvature_G,
    curvature_G_uv,
)
from .spectral import TorusField, TorusGrid, derivative_multipliers

# Evaluations shared within the current xi chunk of an identity report; None
# (nothing shared) outside one.  A context variable, so concurrent reports
# on other threads never see each other's entries.
_SHARED = contextvars.ContextVar("jetwave_shared_evaluations", default=None)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _sharing():
    """Share evaluations made inside the block; drop them on exit."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _key(arg):
    if callable(arg):
        return arg
    a = np.asarray(arg)
    return a.dtype.str, a.shape, a.tobytes()


def _evaluate(fn, *args):
    """fn(*args), computed once per sharing scope.

    Arguments are keyed by value (functions by identity), so the same xi
    reached by different routes -- e.g. the complex-step points of several
    xi-gradients -- hits one entry.  Shared results are made read-only.
    """
    memo = _SHARED.get()
    if memo is None:
        return fn(*args)
    key = (fn,) + tuple(_key(a) for a in args)
    if key not in memo:
        out = fn(*args)
        for a in out if isinstance(out, tuple) else (out,):
            a.setflags(write=False)
        memo[key] = out
    return memo[key]


def _shared(fn):
    """A symbol closure whose evaluations are shared (see _evaluate)."""
    if fn is None or getattr(fn, "func", None) is _evaluate:
        return fn
    return functools.partial(_evaluate, fn)


def _reflecting(fn):
    """fn, shared, declared its own Schwarz reflection: a closure with real
    coefficients has fn(conj xi) = conj fn(xi).

    A shared closure's ``reflection`` attribute names its reflection f*, and
    promises f(xi - ih) == conj f*(xi + ih) exactly: xi_gradient reads the
    one for the other."""
    fn = _shared(fn)
    fn.reflection = fn
    return fn


def _derived(fn, *factors):
    """fn, declared its own reflection when every factor it combines (with
    real coefficients) is; otherwise undeclared."""
    if all(getattr(f, "reflection", None) is f for f in factors):
        return _reflecting(fn)
    return fn


def _on_grid(arr, grid: TorusGrid):
    """arr, expanded to the grid shape in w if it is constant in w."""
    arr = np.asarray(arr)
    shape = (grid.n_theta, grid.n_z)
    if arr.shape[-2:] != shape:
        arr = np.broadcast_to(arr, arr.shape[:-2] + shape) \
            if arr.ndim >= 2 else np.broadcast_to(arr, shape)
    return arr


def w_derivatives(arr, grid: TorusGrid):
    """(d_theta, d_z) of a (complex) grid array, spectral, Nyquist-zeroed.

    Broadcasts over leading axes; inputs constant in w (trailing shape not
    matching the grid) are expanded first.
    """
    mt, mz = derivative_multipliers(grid)
    c = _sfft.fft2(_on_grid(arr, grid), axes=(-2, -1))
    return (
        _sfft.ifft2(c * mt, axes=(-2, -1)),
        _sfft.ifft2(c * mz, axes=(-2, -1)),
    )


def w_divergence(f, g, grid: TorusGrid):
    """d_theta f + d_z g, as w_derivatives(f)[0] + w_derivatives(g)[1] but
    with the two spectra summed before one inverse transform."""
    mt, mz = derivative_multipliers(grid)
    c = (_sfft.fft2(_on_grid(f, grid), axes=(-2, -1)) * mt
         + _sfft.fft2(_on_grid(g, grid), axes=(-2, -1)) * mz)
    return _sfft.ifft2(c, axes=(-2, -1))


def xi_gradient(fn, xi_t, xi_z):
    """Gradient in xi of a symbol closure, by central complex step
    h = 1e-5 |xi| (1e-5 at xi = 0): (f(xi + ih) - f(xi - ih))/(2ih) per
    direction, exact to ~1e-11 for holomorphic closures, at small |xi| too.

    A closure that declares its Schwarz reflection f* (see _reflecting) is
    evaluated at xi + ih only, with f(xi - ih) read as conj f*(xi + ih): the
    same values from half the evaluations.  Any other closure is evaluated
    at both points."""
    return _evaluate(_xi_gradient, fn, xi_t, xi_z)


def _xi_gradient(fn, xi_t, xi_z):
    xi_t = np.asarray(xi_t, dtype=float)
    xi_z = np.asarray(xi_z, dtype=float)
    r = np.sqrt(xi_t ** 2 + xi_z ** 2)
    h = 1e-5 * np.where(r == 0.0, 1.0, r)
    scale = -0.5j / h     # 1/(2ih), on the xi shape only
    reflection = getattr(fn, "reflection", None)

    def difference(plus, minus):
        if reflection is None:
            return (fn(*plus) - fn(*minus)) * scale
        if reflection is fn:
            up = down = fn(*plus)
        else:
            # a pair such as a1 and A1 shares its work at this one point;
            # the inner scope drops it here rather than with the chunk
            with _sharing():
                up, down = fn(*plus), reflection(*plus)
        return (up - np.conj(down)) * scale

    ih = 1j * h
    return (difference((xi_t + ih, xi_z), (xi_t - ih, xi_z)),
            difference((xi_t, xi_z + ih), (xi_t, xi_z - ih)))


def _as_xi(x):
    """Reshape stacked xi values for broadcasting against grid arrays."""
    a = np.asarray(x)
    return a.reshape(a.shape + (1, 1)) if a.ndim else a


def lattice_points(grid: TorusGrid):
    """Flat arrays (xi_t, xi_z) of the Nyquist-free frequency lattice
    without xi = 0."""
    xt, xz = grid.xi_mesh()
    keep = ~grid.nyquist_mask() & ((xt != 0) | (xz != 0))
    return xt[keep], xz[keep]


# ---------------------------------------------------------------------------
# the symbol container
# ---------------------------------------------------------------------------

class HomogeneousSymbol:
    """Two-term symbol a^(m) + a^(m-1) sampled on grid x frequency.

    principal/subprincipal are closures (xi_t, xi_z) -> complex array of
    shape xi.shape + (n_theta, n_z); xi may be scalars or stacked arrays
    shaped (..., 1, 1).  For operators mapping real fields to real fields the
    samples satisfy a(w, -xi) = conj(a(w, xi)).
    """

    def __init__(self, grid, degree, principal, subprincipal=None, name=""):
        self.grid = grid
        self.degree = float(degree)
        self.principal = _shared(principal)
        self.subprincipal = _shared(subprincipal)
        self.name = name

    def total(self, xi_t, xi_z):
        out = self.principal(_as_xi(xi_t), _as_xi(xi_z))
        if self.subprincipal is not None:
            out = out + self.subprincipal(_as_xi(xi_t), _as_xi(xi_z))
        return out

    def principal_at(self, xi_t, xi_z):
        return self.principal(_as_xi(xi_t), _as_xi(xi_z))

    # -- invariants ---------------------------------------------------------
    def homogeneity_residual(self):
        """max |a^(m)(2 xi) - 2^m a^(m)(xi)| over 12 rays of |xi| = 1."""
        ang = np.linspace(0.0, np.pi, 12, endpoint=False) + 0.2
        p1 = self.principal_at(np.cos(ang), np.sin(ang))
        p2 = self.principal_at(2.0 * np.cos(ang), 2.0 * np.sin(ang))
        return float(np.abs(p2 - 2.0 ** self.degree * p1).max())

    def reality_residual(self):
        """max |a(w, -xi) - conj a(w, xi)| over a lattice sample."""
        xt, xz = lattice_points(self.grid)
        take = slice(0, min(len(xt), 64))
        plus = self.total(xt[take], xz[take])
        minus = self.total(-xt[take], -xz[take])
        return float(np.abs(minus - np.conj(plus)).max())

    def ellipticity_margin(self):
        """min Re a^(m) at 16 points of |xi| = 1; positive if elliptic."""
        ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False) + 0.13
        return float(np.real(self.principal_at(np.cos(ang), np.sin(ang))).min())


# ---------------------------------------------------------------------------
# the surface record every symbol is built from
# ---------------------------------------------------------------------------

_Surface = collections.namedtuple("_Surface", "grid e et ez l2")


def _surface_data(eta: TorusField) -> _Surface:
    """eta projected once (Nyquist dropped) as e, its spectral derivatives
    et = eta_theta and ez = eta_z, and l2 = 1 + (eta_theta/eta)^2 + eta_z^2."""
    if eta.min() <= 0.0:
        raise DomainViolationError("eta must be strictly positive")
    e = eta.drop_nyquist().values
    et, ez = (np.real(d) for d in w_derivatives(e, eta.grid))
    return _Surface(eta.grid, e, et, ez, 1.0 + (et / e) ** 2 + ez ** 2)


def _lambda1_squared(s: _Surface):
    """The closure xi -> xi_t^2/eta^2 + xi_z^2 + (xi_t eta_z/eta
    - xi_z eta_theta/eta)^2 = lambda^(1)^2, its profiles computed once."""
    inv_e2, ez_e, et_e = 1.0 / s.e ** 2, s.ez / s.e, s.et / s.e

    def lam1_sq(xt, xz):
        return xt ** 2 * inv_e2 + xz ** 2 + (xt * ez_e - xz * et_e) ** 2

    return lam1_sq


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann symbol
# ---------------------------------------------------------------------------

def lambda_symbol(eta: TorusField) -> HomogeneousSymbol:
    """lambda = lambda^(1) + lambda^(0), symbol of the DtN operator.

    lambda^(0) = (l^2/eta) A^(0) with A^(0) the subprincipal factor of the
    radial factorization at rho = 1.  Requesting xi = 0 is rejected by the
    ellipticity of the closed form (sqrt(0) is harmless but the
    subprincipal part divides by S).
    """
    return _lambda_from(_surface_data(eta))


def _lambda_from(s: _Surface):
    """lambda_symbol of the surface record s."""
    A0 = _factorization(s, 1.0)[0].subprincipal
    lam1_sq = _lambda1_squared(s)
    l2_e = s.l2 / s.e

    @_reflecting
    def lam1(xt, xz):
        return np.sqrt(lam1_sq(xt, xz))

    def lam0(xt, xz):
        return l2_e * A0(xt, xz)

    return HomogeneousSymbol(s.grid, 1.0, lam1, lam0, name="lambda")


def _factorization(s: _Surface, rho):
    """(A, a, alpha): the symbol A = A^(1) + A^(0) and the principal symbol
    a = a^(1) of the radial factorization of the surface record s at rho,
    and its profile alpha.

    The discriminant 4 alpha (xi_t^2/(rho^2 eta^2) + xi_z^2) - (beta.xi)^2 is
    verified positive on a lattice sample before the root is taken.
    """
    grid, e, et, ez, _ = s
    r = float(rho)
    if not 0.0 < r <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    alpha = (1.0 + (et / e) ** 2 + r ** 2 * ez ** 2) / e ** 2
    four_alpha, half_inv_alpha = 4.0 * alpha, 0.5 / alpha
    # beta.xi = b_t xi_t + b_z xi_z and T = t_t xi_t^2 + xi_z^2
    b_t, b_z = -2.0 * et / (r * e ** 3), -2.0 * r * ez / e
    t_t = 1.0 / (r ** 2 * e ** 2)

    def disc(xt, xz):
        """T, beta.xi and the discriminant 4 alpha T - (beta.xi)^2."""
        t = t_t * xt ** 2 + xz ** 2
        b = b_t * xt + b_z * xz
        return t, b, four_alpha * t - b ** 2

    xt_s, xz_s = lattice_points(grid)
    dmin = float(np.real(disc(_as_xi(xt_s[:64]), _as_xi(xz_s[:64]))[2]).min())
    if dmin <= 0.0:
        raise EllipticityError(
            f"factorization discriminant nonpositive (min {dmin:.3e}); "
            "the surface leaves the elliptic regime"
        )

    @_shared
    def branches(xt, xz):
        """a1 = (S + i beta.xi)/(2 alpha) and A1 = (S - i beta.xi)/(2 alpha)
        from one root S; each is the other's Schwarz reflection."""
        _, b, d = disc(xt, xz)
        s, ib = np.sqrt(d), 1j * b
        return (s + ib) * half_inv_alpha, (s - ib) * half_inv_alpha

    def A1(xt, xz):
        return branches(xt, xz)[1]

    def a1(xt, xz):
        return branches(xt, xz)[0]

    A1, a1 = _shared(A1), _shared(a1)
    A1.reflection, a1.reflection = a1, A1

    q_t = np.real(w_derivatives(et / e ** 2, grid)[0])
    q_z = np.real(w_derivatives(ez / e ** 2, grid)[1])
    gamma = -q_t / (r * e) - r * e * q_z + 1.0 / (r * e ** 2)
    gamma_alpha = gamma / alpha

    # hand-differentiated rho-dependence: d_rho alpha, d_rho T = dt_t xi_t^2
    # and d_rho beta.xi = db_t xi_t + db_z xi_z, so that
    # d_rho S = (2 d_rho alpha T + 2 alpha d_rho T - beta.xi d_rho beta.xi)/S
    # and d_rho A1 = (d_rho S - i d_rho beta.xi)/(2 alpha)
    #                - A1 d_rho alpha/alpha
    dalpha = 2.0 * r * ez ** 2 / e ** 2
    two_dalpha, two_alpha_dt = 2.0 * dalpha, -4.0 * alpha / (r ** 3 * e ** 2)
    db_t, db_z = 2.0 * et / (r ** 2 * e ** 3), -2.0 * ez / e
    dalpha_alpha = dalpha / alpha

    def dA1(xt, xz, t, b, s, A):
        db = db_t * xt + db_z * xz
        ds = (two_dalpha * t + two_alpha_dt * xt ** 2 - b * db) / s
        return (ds - 1j * db) * half_inv_alpha - A * dalpha_alpha

    def A0(xt, xz):
        t, b, d = disc(xt, xz)
        root = np.sqrt(d)
        A = (root - 1j * b) * half_inv_alpha
        a = (root + 1j * b) * half_inv_alpha
        ga, gb = xi_gradient(a1, xt, xz)
        dth, dz = w_derivatives(A, grid)
        return -(A * gamma_alpha + dA1(xt, xz, t, b, root, A)
                 - 1j * (ga * dth + gb * dz)) / (A + a)

    big_A = HomogeneousSymbol(grid, 1.0, A1, A0, name="A")
    small_a = HomogeneousSymbol(grid, 1.0, a1, name="a_fact")
    return big_A, small_a, alpha


# ---------------------------------------------------------------------------
# curvature symbol
# ---------------------------------------------------------------------------

def _mu_from(s: _Surface):
    """mu = mu^(2) + mu^(1), symbol of the linearized mean curvature of the
    surface record s."""
    grid, e, et, ez, _ = s
    lam1_sq = _lambda1_squared(s)
    half_inv_l3 = 0.5 / s.l2 ** 1.5

    @_reflecting
    def mu2(xt, xz):
        return lam1_sq(xt, xz) * half_inv_l3

    fu, fv = curvature_F_uv(e, et, ez)
    (gu_tt, gu_tz, gu_zz), (gv_tt, gv_tz, gv_zz) = curvature_G_uv(e, et, ez)
    e_tt, e_tz = (np.real(d) for d in w_derivatives(et, grid))
    e_zz = np.real(w_derivatives(ez, grid)[1])
    cu = fu + e_tt * gu_tt + 2.0 * e_tz * gu_tz + e_zz * gu_zz
    cv = fv + e_tt * gv_tt + 2.0 * e_tz * gv_tz + e_zz * gv_zz

    def mu1(xt, xz):
        return 1j * (cu * xt + cv * xz)

    return HomogeneousSymbol(grid, 2.0, mu2, mu1, name="mu")


def _mu2_gjk_from(s: _Surface):
    """-G^jk(eta, grad eta) xi_j xi_k as a closure (second mu^(2) route) of
    the surface record s."""
    g_tt, g_tz, g_zz = curvature_G(s.e, s.et, s.ez)
    m_tt, m_tz, m_zz = -g_tt, -2.0 * g_tz, -g_zz

    @_reflecting
    def mu2(xt, xz):
        return m_tt * xt ** 2 + m_tz * (xt * xz) + m_zz * xz ** 2

    return HomogeneousSymbol(s.grid, 2.0, mu2, None, name="mu2_gjk")


# ---------------------------------------------------------------------------
# symmetrizer and mollifier
# ---------------------------------------------------------------------------

def _ones_like_xi(xt, xz):
    shape = np.broadcast_shapes(np.shape(xt), np.shape(xz))
    return np.ones(shape if shape else (1, 1))


def mollifier_symbol(gamma_sym: HomogeneousSymbol, eps) -> HomogeneousSymbol:
    """j_eps = exp(-eps gamma^(3/2)) - (i/2) d_w . d_xi of the same."""
    if eps < 0:
        raise ValueError("mollifier strength eps must be nonnegative")
    grid = gamma_sym.grid

    def j0(xt, xz):
        return np.exp(-eps * gamma_sym.principal(xt, xz))

    j0 = _derived(j0, gamma_sym.principal)

    def jm1(xt, xz):
        return -0.5j * w_divergence(*xi_gradient(j0, xt, xz), grid)

    return HomogeneousSymbol(grid, 0.0, j0, jm1, name="j_eps")


# ---------------------------------------------------------------------------
# symbol algebra
# ---------------------------------------------------------------------------

def sharp_compose(a: HomogeneousSymbol, b: HomogeneousSymbol) -> HomogeneousSymbol:
    """Two-term composition a # b = a^(m) b^(m') + (d_xi a^(m) . D_w b^(m')
    + a^(m) b^(m'-1) + a^(m-1) b^(m'))."""
    if a.grid != b.grid:
        raise ValueError("symbols live on different grids")
    grid = a.grid

    def principal(xt, xz):
        return a.principal(xt, xz) * b.principal(xt, xz)

    principal = _derived(principal, a.principal, b.principal)

    def sub(xt, xz):
        ga, gb = xi_gradient(a.principal, xt, xz)
        dth, dz = w_derivatives(b.principal(xt, xz), grid)
        out = -1j * (ga * dth + gb * dz)
        if b.subprincipal is not None:
            out = out + a.principal(xt, xz) * b.subprincipal(xt, xz)
        if a.subprincipal is not None:
            out = out + a.subprincipal(xt, xz) * b.principal(xt, xz)
        return out

    return HomogeneousSymbol(grid, a.degree + b.degree, principal, sub,
                             name=f"({a.name}#{b.name})")


def poisson_bracket(a: HomogeneousSymbol, b: HomogeneousSymbol):
    """{a, b} = d_xi a^(m) . d_w b^(m') - d_w a^(m) . d_xi b^(m')."""
    if a.grid != b.grid:
        raise ValueError("symbols live on different grids")
    grid = a.grid

    def bracket(xt, xz):
        gat, gaz = xi_gradient(a.principal, xt, xz)
        gbt, gbz = xi_gradient(b.principal, xt, xz)
        awt, awz = w_derivatives(a.principal(xt, xz), grid)
        bwt, bwz = w_derivatives(b.principal(xt, xz), grid)
        return gat * bwt + gaz * bwz - awt * gbt - awz * gbz

    return HomogeneousSymbol(grid, a.degree + b.degree - 1.0, bracket, None,
                             name=f"{{{a.name},{b.name}}}")


def parametrix(a: HomogeneousSymbol) -> HomogeneousSymbol:
    """Approximate inverse of an elliptic symbol, exact at two orders:

        ~a^(-m) = 1/a^(m),
        ~a^(-m-1) = -( d_xi a^(m) . D_w (1/a^(m)) + a^(m-1)/a^(m) ) / a^(m).
    """
    margin = a.ellipticity_margin()
    if margin <= 0.0:
        raise EllipticityError(
            f"symbol {a.name or '<anonymous>'} is not elliptic "
            f"(min Re principal on |xi|=1 is {margin:.3e})"
        )
    grid = a.grid

    def inv_principal(xt, xz):
        return 1.0 / a.principal(xt, xz)

    inv_principal = _derived(inv_principal, a.principal)

    def sub(xt, xz):
        ga, gb = xi_gradient(a.principal, xt, xz)
        dth, dz = w_derivatives(inv_principal(xt, xz), grid)
        out = -1j * (ga * dth + gb * dz)
        if a.subprincipal is not None:
            out = out + a.subprincipal(xt, xz) * inv_principal(xt, xz)
        return -out / a.principal(xt, xz)

    return HomogeneousSymbol(grid, -a.degree, inv_principal, sub,
                             name=f"~{a.name}")


# ---------------------------------------------------------------------------
# identity report
# ---------------------------------------------------------------------------

class IdentityCheck:
    """One line of the symbol identity report."""

    def __init__(self, name, residual, threshold):
        self.name = name
        self.residual = float(residual)
        self.threshold = float(threshold)
        self.passed = bool(self.residual < self.threshold)

    def __repr__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: residual {self.residual:.3e} "
                f"(threshold {self.threshold:.1e})")


def _lattice_checks(identities, grid, xt, xz):
    """IdentityChecks from name -> (threshold, residual closures); each
    residual is the max of |fn| over the lattice and over that name's fns.

    The lattice is taken one xi chunk at a time and every closure is
    evaluated on it in one sharing scope, so evaluations common to several
    identities are computed once per chunk.  The max is exact, so neither
    the chunking nor the order changes a bit of the result.
    """
    res = dict.fromkeys(identities, 0.0)
    chunk = grid.xi_chunk()
    for start in range(0, len(xt), chunk):
        sl = slice(start, start + chunk)
        a, b = _as_xi(xt[sl]), _as_xi(xz[sl])
        with _sharing():
            for name, (_, fns) in identities.items():
                for fn in fns:
                    res[name] = max(res[name], float(np.abs(fn(a, b)).max()))
    return [IdentityCheck(name, res[name], threshold)
            for name, (threshold, _) in identities.items()]


def symbol_identity_report(eta: TorusField, sigma, R):
    """Numerically certify every symbol-level identity.

    Returns a list of IdentityCheck records (one per identity) with max
    pointwise residuals over the resolved Nyquist-free lattice.  The
    thresholds of the subprincipal identities rest on the complex-step
    xi-derivative being exact to ~1e-11.  No symbol depends on the
    reference radius R; it is accepted and not read.
    """
    surface = _surface_data(eta)
    grid, e, et, ez, _ = surface

    lam = _lambda_from(surface)
    mu = _mu_from(surface)
    mu2_alt = _mu2_gjk_from(surface)
    lam_inv = parametrix(lam)
    a_sym, gamma_sym, q_sym, p_sym = _symmetrizer_from(surface, sigma, lam,
                                                       mu, lam_inv)
    j_eps = mollifier_symbol(gamma_sym, 0.5)

    xt, xz = lattice_points(grid)
    lattice = {}    # name -> (threshold, residual closures)

    # algebraic identities among principal parts
    lattice["mu2_eq_a2_lambda1_sq"] = (1e-10, [
        lambda a, b: mu.principal(a, b)
        - a_sym.principal(a, b) ** 2 * lam.principal(a, b) ** 2])
    lattice["mu2_two_paths"] = (1e-10, [
        lambda a, b: mu.principal(a, b) - mu2_alt.principal(a, b)])
    lattice["p_times_lambda_eq_gamma_q"] = (1e-10, [
        lambda a, b: p_sym.principal(a, b) * lam.principal(a, b)
        - gamma_sym.principal(a, b) * q_sym.principal(a, b)])
    lattice["q_sigma_mu2_eq_gamma_p"] = (1e-10, [
        lambda a, b: q_sym.principal(a, b) * sigma * mu.principal(a, b)
        - gamma_sym.principal(a, b) * p_sym.principal(a, b)])

    # subprincipal imaginary parts
    dlog_t = et / e
    dlog_z = ez / e

    def im_sub_residual(sym):
        """Im sym^(m-1) + (1/2)(div_w + d_w log eta .) Re d_xi sym^(m)."""
        def residual(a, b):
            gt, gz = xi_gradient(sym.principal, a, b)
            div = w_divergence(gt, gz, grid)
            rhs = -0.5 * np.real(div) - 0.5 * (dlog_t * np.real(gt)
                                               + dlog_z * np.real(gz))
            return np.imag(sym.subprincipal(a, b)) - rhs

        return residual

    lattice["im_lambda0"] = (1e-8, [im_sub_residual(lam)])
    lattice["im_mu1"] = (1e-8, [im_sub_residual(mu)])
    lattice["re_mu1"] = (1e-12, [lambda a, b: np.real(mu.subprincipal(a, b))])

    # the q^(0) transport equation
    q0 = np.real(q_sym.principal(0.0, 1.0))
    q0_t, q0_z = (np.real(d) for d in w_derivatives(q0, grid))
    bracket_lm = poisson_bracket(lam, mu).principal

    def prod_ml(a, b):
        return mu.principal(a, b) * lam.principal(a, b)

    prod_ml = _derived(prod_ml, mu.principal, lam.principal)

    def q0_equation_residual(a, b):
        gpt, gpz = xi_gradient(prod_ml, a, b)
        lhs = 0.5 * q0 * (bracket_lm(a, b) - (dlog_t * gpt + dlog_z * gpz))
        rhs = -(gpt * q0_t + gpz * q0_z)
        return lhs - rhs

    lattice["q0_equation"] = (1e-8, [q0_equation_residual])

    # parametrix: lambda # ~lambda = ~lambda # lambda = 1
    comp1 = sharp_compose(lam, lam_inv)
    comp2 = sharp_compose(lam_inv, lam)
    lattice["lambda_parametrix"] = (1e-9, [
        lambda a, b: comp1.principal(a, b) - 1.0, comp1.subprincipal,
        lambda a, b: comp2.principal(a, b) - 1.0, comp2.subprincipal])

    # mollifier commutes with gamma at principal level
    lattice["poisson_gamma_mollifier"] = (
        1e-9, [poisson_bracket(gamma_sym, j_eps).principal])
    checks = _lattice_checks(lattice, grid, xt, xz)

    # structural invariants; the reality sample shares nothing with the rays
    # of the other two, so its evaluations are not kept past their use
    syms = (lam, mu, gamma_sym, q_sym, p_sym)
    with _sharing():
        checks += [
            IdentityCheck("homogeneity",
                          max(s.homogeneity_residual() for s in syms), 1e-12),
            IdentityCheck("ellipticity_margin",
                          -min(s.ellipticity_margin() for s in syms), 0.0),
        ]
    checks.append(IdentityCheck("lambda_reality", lam.reality_residual(), 1e-10))

    # radial factorization: alpha a1 A1 = xi_t^2/(rho^2 eta^2) + xi_z^2
    factorization = {}
    for rho in (1.0, 0.7):
        big_A, small_a, alpha = _factorization(surface, rho)

        def fact_residual(a, b, rho=rho, A=big_A, s=small_a, al=alpha):
            target = a ** 2 / (rho ** 2 * e ** 2) + b ** 2
            return al * s.principal(a, b) * A.principal(a, b) - target

        factorization[f"factorization_rho_{rho:g}".replace(".", "_")] = (
            1e-10, [fact_residual])
    return checks + _lattice_checks(factorization, grid, xt, xz)


def _symmetrizer_from(s: _Surface, sigma, lam, mu, lam_inv):
    """(a, gamma, q, p) of the symmetrizer of the surface record s, from its
    lambda, mu and lam_inv = parametrix(lambda).

    a and q are xi-independent profiles; gamma carries the dispersive 3/2
    order with subprincipal part fixed by self-adjointness; p is assembled as
    (gamma # q) # parametrix(lambda) so that its principal part
    automatically equals gamma^(3/2) q^(0) / lambda^(1).
    """
    grid = s.grid
    a_prof = (1.0 / np.sqrt(2.0)) * s.l2 ** (-0.75)
    a_sym = HomogeneousSymbol(
        grid, 0.0, lambda xt, xz: a_prof * _ones_like_xi(xt, xz),
        None, name="a",
    )

    def gamma32(xt, xz):
        return np.sqrt(sigma * mu.principal(xt, xz) * lam.principal(xt, xz))

    gamma32 = _derived(gamma32, mu.principal, lam.principal)

    def gamma12(xt, xz):
        im = -0.5 * np.real(w_divergence(*xi_gradient(gamma32, xt, xz), grid))
        re = sigma * np.real(mu.principal(xt, xz)) * np.real(
            lam.subprincipal(xt, xz)
        ) / (2.0 * np.real(gamma32(xt, xz)))
        return re + 1j * im

    gamma_sym = HomogeneousSymbol(grid, 1.5, gamma32, gamma12, name="gamma")
    q_prof = 2.0 ** (1.0 / 6.0) * np.sqrt(s.e) * s.l2 ** 0.25
    q_sym = HomogeneousSymbol(
        grid, 0.0, lambda xt, xz: q_prof * _ones_like_xi(xt, xz),
        None, name="q",
    )
    p_sym = sharp_compose(sharp_compose(gamma_sym, q_sym), lam_inv)
    p_sym.name = "p"
    return a_sym, gamma_sym, q_sym, p_sym
