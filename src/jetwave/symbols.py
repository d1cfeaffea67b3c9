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
Each built-in principal closure declares its xi-gradient in closed form
where it is built (_declare): lambda1 = sqrt(Q) has grad Q / (2 lambda1),
mu2 = Q/(2 l^3) has grad Q/(2 l^3), and a1 = (S + i beta.xi)/(2 alpha) has
(grad S + i beta)/(2 alpha) with grad S = grad(S^2)/(2 S).  gamma^(3/2), the
mollifier exp(-eps gamma^(3/2)), the parametrix principal 1/a^(m) and the
report's mu2 lambda1 take theirs by the chain rule from their factors'
declared gradients (forward mode; Griewank & Walther, Evaluating
Derivatives, SIAM 2008), a few real array operations on the chunk.
xi_gradient returns the declared gradient at real xi != 0, which is every
xi the identity report and apply_paradiff sample.  A closure that declares
nothing (a user's lambda, a sharp_compose principal, a closure built on an
undeclared one), and any closure at xi = 0, is differentiated by the
central complex step (f(xi + ih) - f(xi - ih))/(2ih), h = 1e-5 |xi|
(Squire & Trapp, SIAM Rev. 40, 1998), exact to ~1e-11 for these
holomorphic closed forms.  At xi = 0, where the square-root closures have
no gradient, the step gives the symmetric difference.  A complex xi is
rejected (ValueError).

w-derivatives
-------------
w_derivatives and w_divergence transform each derivative along its own
axis only, d_theta along theta and d_z along z, with real transforms for
real input: the principal parts, their xi-gradients and the surface
profiles are real, so most inputs are.  The transforms run on scipy.fft,
and the 1-d multipliers are i xi_theta and i xi_z, Nyquist zeroed by the
rule of spectral.derivative_multipliers and cached per grid.

The identity report samples half of the Nyquist-free lattice
(lattice_points: k_z > 0, or k_z = 0 < k_theta, the half apply_paradiff
samples).  The operators are real, so every symbol has
a(w, -xi) = conj a(w, xi); each report line is a max or min over the lattice
of a quantity whose modulus is the same at xi and -xi, so the other half
adds nothing.  The lambda_reality line certifies the property by pairing
each xi of a 64-point sample, spread over the half lattice, with -xi.

Within one symbol_identity_report, every closure evaluation, xi-gradient
and w-derivative pair of a closure is computed once per xi chunk and shared
by all identities on that chunk.  The report builds the rho = 1
factorization once, and lambda^(0) and the factorization_rho_1 line read
its root and branches; all twelve lattice lines, the two factorization
lines among them, walk the lattice in one pass.  The report and
paradiff.apply_paradiff size their chunks by one rule, TorusGrid.xi_chunk.
The evaluations one chunk shares take about 10 MB on 32^2, under the heap
thresholds that spectral raises as it loads, so the next chunk reuses that
memory instead of faulting it in again.  A declared gradient reads its
factors' values, gradients and the root S of the factorization from the
same chunk.

Each symbol has one constructor, which takes the surface record of
_surface_data (eta projected once, its first derivatives and l^2) and
computes the xi-independent profiles of its closures once (1/eta^2,
1/(2 alpha), gamma/alpha, ...), so a closure only multiplies and adds on its
(n, n_theta, n_z) stack.  lambda_symbol(eta) is the one public constructor
that takes eta; the report builds one record and every symbol from it.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools

import numpy as np
import scipy.fft as _sfft

from .errors import EllipticityError
from .geometry import (
    _require_positive,
    curvature_F_uv,
    curvature_G,
    curvature_G_uv,
)
from .spectral import TorusField, TorusGrid

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
    if callable(arg) or isinstance(arg, TorusGrid):
        return arg
    a = np.asarray(arg)
    return a.dtype.str, a.shape, a.tobytes()


def _evaluate(fn, *args):
    """fn(*args), computed once per sharing scope.

    Arguments are keyed by value (functions by identity, grids as
    themselves), so the same xi reached by different routes -- e.g. a
    factor's gradient, read by an identity and by the chain rule of a
    declared gradient -- hits one entry.  Shared
    results are made read-only.
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


def _declare(fn, gradient, *factors):
    """fn, shared, declaring its closed-form xi-gradient when every factor it
    is built from declares one: gradient(xt, xz) -> (d_t fn, d_z fn) at real
    xi != 0, which xi_gradient returns in place of the complex step.

    A closure of other declared closures writes its gradient by the chain
    rule from theirs (read through _gradient); with an undeclared factor (a
    user's symbol, say) it is left undeclared, and xi_gradient steps it."""
    fn = _shared(fn)
    if all(getattr(f, "gradient", None) is not None for f in factors):
        fn.gradient = gradient
    return fn


def _product_gradient(f, g, xt, xz):
    """The xi-gradient g grad f + f grad g of the product of two declared
    closures."""
    fv, gv = f(xt, xz), g(xt, xz)
    return tuple(gv * df + fv * dg for df, dg in
                 zip(_gradient(f, xt, xz), _gradient(g, xt, xz)))


def _on_grid(arr, grid: TorusGrid):
    """arr, expanded to the grid shape in w if it is constant in w."""
    arr = np.asarray(arr)
    shape = (grid.n_theta, grid.n_z)
    if arr.shape[-2:] != shape:
        arr = np.broadcast_to(arr, arr.shape[:-2] + shape) \
            if arr.ndim >= 2 else np.broadcast_to(arr, shape)
    return arr


@functools.lru_cache(maxsize=16)
def _axis_multipliers(grid: TorusGrid):
    """(i xi_theta as a column, i xi_z), Nyquist zeroed: the 1-d
    multipliers of _w_derivative, indexed by its axis; cached per grid and
    read-only."""
    out = (1j * grid.xi_theta[:, None], 1j * grid.xi_z)
    for mult in out:
        mult[len(mult) // 2] = 0.0
        mult.setflags(write=False)
    return out


def _w_derivative(arr, grid: TorusGrid, axis):
    """d_theta (axis -2) or d_z (axis -1) of a grid array, spectral along
    that axis only, Nyquist-zeroed; real transforms for real input."""
    arr = _on_grid(arr, grid)
    mult = _axis_multipliers(grid)[axis]
    if np.iscomplexobj(arr):
        return _sfft.ifft(_sfft.fft(arr, axis=axis) * mult, axis=axis)
    n = arr.shape[axis]
    c = _sfft.rfft(arr, axis=axis) * mult[:n // 2 + 1]
    return _sfft.irfft(c, n, axis=axis)


def w_derivatives(arr, grid: TorusGrid):
    """(d_theta, d_z) of a grid array, spectral, Nyquist-zeroed; real for
    real input.

    Broadcasts over leading axes; inputs constant in w (trailing shape not
    matching the grid) are expanded first.
    """
    return _w_derivative(arr, grid, -2), _w_derivative(arr, grid, -1)


def w_divergence(f, g, grid: TorusGrid):
    """d_theta f + d_z g, as w_derivatives(f)[0] + w_derivatives(g)[1]."""
    return _w_derivative(f, grid, -2) + _w_derivative(g, grid, -1)


def _w_derivatives_of(fn, xt, xz, grid):
    """w_derivatives of the closure fn at xi, computed once per sharing
    scope (see _evaluate)."""
    return _evaluate(_w_derivatives_at, fn, xt, xz, grid)


def _w_derivatives_at(fn, xt, xz, grid):
    return w_derivatives(fn(xt, xz), grid)


def xi_gradient(fn, xi_t, xi_z):
    """Gradient (d_t fn, d_z fn) in xi of a symbol closure at real xi; a
    complex xi raises ValueError.

    With no xi = 0 a closure that declares its closed-form gradient (see
    _declare) returns it: lambda1, mu2, a1 and the chain-rule closures built
    from them.  Any other closure, and every closure at xi = 0, is
    differentiated by the central complex step of _complex_step."""
    if np.iscomplexobj(xi_t) or np.iscomplexobj(xi_z):
        raise ValueError("xi_gradient takes real xi")
    return _gradient(fn, xi_t, xi_z)


def _gradient(fn, xi_t, xi_z):
    """xi_gradient, computed once per sharing scope; the chain rules of
    declared gradients read their factors' gradients here."""
    return _evaluate(_xi_gradient, fn, xi_t, xi_z)


def _xi_gradient(fn, xi_t, xi_z):
    gradient = getattr(fn, "gradient", None)
    if gradient is not None and np.all((np.asarray(xi_t) != 0.0)
                                       | (np.asarray(xi_z) != 0.0)):
        return gradient(xi_t, xi_z)
    return _complex_step(fn, xi_t, xi_z)


def _complex_step(fn, xi_t, xi_z):
    """(f(xi + ih) - f(xi - ih))/(2ih) per direction, h = 1e-5 |xi| (1e-5 at
    xi = 0): exact to ~1e-11 for holomorphic closures, at small |xi| too."""
    xi_t = np.asarray(xi_t, dtype=float)
    xi_z = np.asarray(xi_z, dtype=float)
    r = np.sqrt(xi_t ** 2 + xi_z ** 2)
    h = 1e-5 * np.where(r == 0.0, 1.0, r)
    ih = 1j * h
    scale = -0.5j / h     # 1/(2ih), on the xi shape only
    plus = ((xi_t + ih, xi_z), (xi_t, xi_z + ih))
    minus = ((xi_t - ih, xi_z), (xi_t, xi_z - ih))
    return tuple((fn(*p) - fn(*m)) * scale for p, m in zip(plus, minus))


def _as_xi(x):
    """Reshape stacked xi values for broadcasting against grid arrays."""
    a = np.asarray(x)
    return a.reshape(a.shape + (1, 1)) if a.ndim else a


def lattice_points(grid: TorusGrid):
    """Flat arrays (xi_t, xi_z), row-major, of half of the Nyquist-free
    lattice without xi = 0 (TorusGrid.half_lattice, as apply_paradiff): a
    real operator's symbol has a(w, -xi) = conj a(w, xi), so the mirror half
    -xi repeats every modulus the identity report takes."""
    own = grid.half_lattice()
    xt, xz = (x[:, :own.shape[1]] for x in grid.xi_mesh())
    return xt[own], xz[own]


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
        """max |a(w, -xi) - conj a(w, xi)| over 64 points of lattice_points,
        evenly strided over all of it (every k_theta row on 32^2)."""
        xt, xz = lattice_points(self.grid)
        take = np.arange(min(len(xt), 64)) * len(xt) // min(len(xt), 64)
        plus = self.total(xt[take], xz[take])
        minus = self.total(-xt[take], -xz[take])
        return float(np.abs(minus - np.conj(plus)).max())

    def ellipticity_margin(self):
        """min Re a^(m) at the 16 directions (2k+1) pi/16 of |xi| = 1;
        positive if elliptic.  Built by sign flips from the first quadrant,
        the set maps onto itself bit for bit under xi_theta -> -xi_theta
        and xi_z -> -xi_z, so a reflected surface has the same margin."""
        ang = np.arange(1, 8, 2) * np.pi / 16
        c, s = np.cos(ang), np.sin(ang)
        return float(np.real(self.principal_at(np.concatenate([c, -c, -c, c]),
                                               np.concatenate([s, s, -s, -s]))).min())


# ---------------------------------------------------------------------------
# the surface record every symbol is built from
# ---------------------------------------------------------------------------

_Surface = collections.namedtuple("_Surface", "grid e et ez l2")


def _surface_data(eta: TorusField) -> _Surface:
    """eta Nyquist-projected once as e (positive, else DomainViolationError),
    et = eta_theta, ez = eta_z and l2 = 1 + (eta_theta/eta)^2 + eta_z^2."""
    eta = eta.drop_nyquist()
    _require_positive(eta)
    e = eta.values
    et, ez = w_derivatives(e, eta.grid)
    return _Surface(eta.grid, e, et, ez, 1.0 + (et / e) ** 2 + ez ** 2)


def _lambda1_squared(s: _Surface):
    """The closure Q: xi -> xi_t^2/eta^2 + xi_z^2 + (xi_t eta_z/eta
    - xi_z eta_theta/eta)^2 = lambda^(1)^2 and the closure of its half
    xi-gradient grad Q / 2, their profiles computed once."""
    inv_e2, ez_e, et_e = 1.0 / s.e ** 2, s.ez / s.e, s.et / s.e

    def lam1_sq(xt, xz):
        return xt ** 2 * inv_e2 + xz ** 2 + (xt * ez_e - xz * et_e) ** 2

    def half_gradient(xt, xz):
        c = xt * ez_e - xz * et_e
        return xt * inv_e2 + c * ez_e, xz - c * et_e

    return lam1_sq, half_gradient


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
    s = _surface_data(eta)
    return _lambda_from(s, _factorization(s, 1.0))


def _lambda_from(s: _Surface, factorization):
    """lambda_symbol of the surface record s, its lambda^(0) read from
    factorization = _factorization(s, 1.0)."""
    A0 = factorization[0].subprincipal
    lam1_sq, half_gradient = _lambda1_squared(s)
    l2_e = s.l2 / s.e

    def lam1(xt, xz):
        return np.sqrt(lam1_sq(xt, xz))

    def lam1_gradient(xt, xz):
        # grad sqrt(Q) = (grad Q / 2) / lambda1
        inv = 1.0 / lam1(xt, xz)
        return tuple(g * inv for g in half_gradient(xt, xz))

    lam1 = _declare(lam1, lam1_gradient)

    def lam0(xt, xz):
        return l2_e * A0(xt, xz)

    return HomogeneousSymbol(s.grid, 1.0, lam1, lam0, name="lambda")


def _factorization(s: _Surface, rho):
    """(A, a, alpha): the symbol A = A^(1) + A^(0) and the principal symbol
    a = a^(1) of the radial factorization of the surface record s at rho,
    and its profile alpha.

    The discriminant 4 alpha T - (beta.xi)^2, T = xi_t^2/(rho^2 eta^2)
    + xi_z^2, is positive at every real xi != 0, rho in (0, 1] and eta > 0:
    with X = xi_t/(rho eta), Y = xi_z, A = eta_theta/eta and B = rho eta_z it
    is (4/eta^2) [(1 + A^2 + B^2)(X^2 + Y^2) - (A X + B Y)^2] >= 4 T/eta^2
    by Cauchy-Schwarz, so the root is taken unchecked.
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
    four_alpha_t = four_alpha * t_t

    @_shared
    def root(xt, xz):
        """T, beta.xi and the root S of the discriminant."""
        t = t_t * xt ** 2 + xz ** 2
        b = b_t * xt + b_z * xz
        return t, b, np.sqrt(four_alpha * t - b ** 2)

    @_shared
    def branches(xt, xz):
        """a1 = (S + i beta.xi)/(2 alpha) and A1 = (S - i beta.xi)/(2 alpha)
        from one root S."""
        _, b, s = root(xt, xz)
        ib = 1j * b
        return (s + ib) * half_inv_alpha, (s - ib) * half_inv_alpha

    def A1(xt, xz):
        return branches(xt, xz)[1]

    def a1(xt, xz):
        return branches(xt, xz)[0]

    def a1_gradient(xt, xz):
        # grad S = grad(4 alpha T - (beta.xi)^2) / (2 S), grad T = (2 t_t xi_t,
        # 2 xi_z), grad beta.xi = (b_t, b_z)
        _, b, s = root(xt, xz)
        inv_s = 1.0 / s
        return (((four_alpha_t * xt - b * b_t) * inv_s + 1j * b_t)
                * half_inv_alpha,
                ((four_alpha * xz - b * b_z) * inv_s + 1j * b_z)
                * half_inv_alpha)

    A1, a1 = _shared(A1), _declare(a1, a1_gradient)

    q_t = _w_derivative(et / e ** 2, grid, -2)
    q_z = _w_derivative(ez / e ** 2, grid, -1)
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
        t, b, s = root(xt, xz)
        a, A = branches(xt, xz)
        ga, gb = xi_gradient(a1, xt, xz)
        dth, dz = w_derivatives(A, grid)
        return -(A * gamma_alpha + dA1(xt, xz, t, b, s, A)
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
    lam1_sq, half_gradient = _lambda1_squared(s)
    half_inv_l3 = 0.5 / s.l2 ** 1.5
    inv_l3 = 2.0 * half_inv_l3

    def mu2(xt, xz):
        return lam1_sq(xt, xz) * half_inv_l3

    def mu2_gradient(xt, xz):
        return tuple(g * inv_l3 for g in half_gradient(xt, xz))

    mu2 = _declare(mu2, mu2_gradient)

    fu, fv = curvature_F_uv(e, et, ez)
    (gu_tt, gu_tz, gu_zz), (gv_tt, gv_tz, gv_zz) = curvature_G_uv(e, et, ez)
    e_tt, e_tz = w_derivatives(et, grid)
    e_zz = _w_derivative(ez, grid, -1)
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

    def j0_gradient(xt, xz):
        g = -eps * j0(xt, xz)
        return tuple(g * d for d in _gradient(gamma_sym.principal, xt, xz))

    j0 = _declare(j0, j0_gradient, gamma_sym.principal)

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

    def sub(xt, xz):
        ga, gb = xi_gradient(a.principal, xt, xz)
        dth, dz = _w_derivatives_of(b.principal, xt, xz, grid)
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
        awt, awz = _w_derivatives_of(a.principal, xt, xz, grid)
        bwt, bwz = _w_derivatives_of(b.principal, xt, xz, grid)
        return gat * bwt + gaz * bwz - awt * gbt - awz * gbz

    return HomogeneousSymbol(grid, a.degree + b.degree - 1.0, bracket, None,
                             name=f"{{{a.name},{b.name}}}")


def parametrix(a: HomogeneousSymbol) -> HomogeneousSymbol:
    """Approximate inverse of an elliptic symbol, exact at two orders:

        ~a^(-m) = 1/a^(m),
        ~a^(-m-1) = -( d_xi a^(m) . D_w (1/a^(m)) + a^(m-1)/a^(m) ) / a^(m).
    """
    margin = a.ellipticity_margin()
    if not margin > 0.0:
        raise EllipticityError(
            f"symbol {a.name or '<anonymous>'} is not elliptic "
            f"(min Re principal on |xi|=1 is {margin:.3e})"
        )
    grid = a.grid

    def inv_principal(xt, xz):
        return 1.0 / a.principal(xt, xz)

    def inv_gradient(xt, xz):
        # grad (1/a) = -grad a / a^2
        g = -inv_principal(xt, xz) ** 2
        return tuple(g * d for d in _gradient(a.principal, xt, xz))

    inv_principal = _declare(inv_principal, inv_gradient, a.principal)

    def sub(xt, xz):
        ga, gb = xi_gradient(a.principal, xt, xz)
        dth, dz = _w_derivatives_of(inv_principal, xt, xz, grid)
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
    residual is the max of |fn| over the lattice and over that name's fns,
    NaN if any value is NaN.

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
                    res[name] = np.maximum(res[name], np.abs(fn(a, b)).max())
    return [IdentityCheck(name, res[name], threshold)
            for name, (threshold, _) in identities.items()]


def symbol_identity_report(eta: TorusField, sigma, R):
    """Numerically certify every symbol-level identity.

    Returns a list of IdentityCheck records (one per identity) with max
    pointwise residuals over half of the resolved Nyquist-free lattice
    (lattice_points): each residual's modulus is the same at -xi as at xi,
    since real operators have a(w, -xi) = conj a(w, xi), which the
    lambda_reality line checks.  The subprincipal identities read the
    closed-form xi-gradients the closures declare (see xi_gradient), so on
    the 32^2 reference surface they sit at roundoff, 1e-15 to 1e-12,
    against thresholds of 1e-9 and 1e-8.  The twelve lattice lines run in
    one _lattice_checks pass; lambda and the factorization_rho_1 line share
    one factorization at rho = 1.  No symbol depends on the reference
    radius R; it is accepted and not read.
    """
    surface = _surface_data(eta)
    grid, e, et, ez, _ = surface

    factorizations = {rho: _factorization(surface, rho) for rho in (1.0, 0.7)}
    lam = _lambda_from(surface, factorizations[1.0])
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
            rhs = -0.5 * div - 0.5 * (dlog_t * gt + dlog_z * gz)
            return np.imag(sym.subprincipal(a, b)) - rhs

        return residual

    lattice["im_lambda0"] = (1e-8, [im_sub_residual(lam)])
    lattice["im_mu1"] = (1e-8, [im_sub_residual(mu)])
    lattice["re_mu1"] = (1e-12, [lambda a, b: np.real(mu.subprincipal(a, b))])

    # the q^(0) transport equation
    q0 = np.real(q_sym.principal(0.0, 1.0))
    q0_t, q0_z = w_derivatives(q0, grid)
    bracket_lm = poisson_bracket(lam, mu).principal

    def prod_ml(a, b):
        return mu.principal(a, b) * lam.principal(a, b)

    def prod_ml_gradient(a, b):
        return _product_gradient(mu.principal, lam.principal, a, b)

    prod_ml = _declare(prod_ml, prod_ml_gradient, mu.principal, lam.principal)

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

    # radial factorization: alpha a1 A1 = xi_t^2/(rho^2 eta^2) + xi_z^2; at
    # rho = 1 on the branches lambda^(0) reads
    for rho, (big_A, small_a, alpha) in factorizations.items():
        def fact_residual(a, b, rho=rho, A=big_A, s=small_a, al=alpha):
            target = a ** 2 / (rho ** 2 * e ** 2) + b ** 2
            return al * s.principal(a, b) * A.principal(a, b) - target

        lattice[f"factorization_rho_{rho:g}".replace(".", "_")] = (
            1e-10, [fact_residual])
    checks = _lattice_checks(lattice, grid, xt, xz)

    # structural invariants; the reality sample shares nothing with the rays
    # of the other two, so its evaluations are not kept past their use
    syms = (lam, mu, gamma_sym, q_sym, p_sym)
    with _sharing():
        structural = [
            IdentityCheck("homogeneity",
                          np.max([s.homogeneity_residual() for s in syms]),
                          1e-12),
            IdentityCheck("ellipticity_margin",
                          -np.min([s.ellipticity_margin() for s in syms]), 0.0),
        ]
    structural.append(IdentityCheck("lambda_reality", lam.reality_residual(),
                                    1e-10))
    # the two factorization lines close the report
    return checks[:-2] + structural + checks[-2:]


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

    def gamma32_gradient(xt, xz):
        # grad sqrt(sigma mu2 lambda1) = sigma grad(mu2 lambda1) / (2 gamma32)
        g = (0.5 * sigma) / gamma32(xt, xz)
        return tuple(g * d for d in _product_gradient(mu.principal,
                                                      lam.principal, xt, xz))

    gamma32 = _declare(gamma32, gamma32_gradient, mu.principal, lam.principal)

    def gamma12(xt, xz):
        im = -0.5 * w_divergence(*xi_gradient(gamma32, xt, xz), grid)
        re = sigma * mu.principal(xt, xz) * np.real(
            lam.subprincipal(xt, xz)) / (2.0 * gamma32(xt, xz))
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
