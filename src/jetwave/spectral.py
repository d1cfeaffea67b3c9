"""Fourier analysis on the 2-torus.

Fields live on a uniform (theta, z) grid with theta-period 2*pi and a
configurable z-period (default 2*pi).  Frequencies are carried explicitly:
xi_theta is an integer lattice, xi_z a multiple of 2*pi/z_period.  The module
provides each field's half-spectrum (``scipy.fft.rfft2``), spectral
derivatives, dealiased (zero-padded) products, and a smooth dyadic
(Littlewood-Paley) decomposition with exact telescoping on the lattice, whose
multipliers `decomposition` stacks once per grid, read-only, for
`dyadic_block` and `low_pass`.

Conventions
-----------
* Coefficients are normalized so that f(w) = sum_xi c(xi) exp(i w.xi); a
  constant field has c(0) equal to the constant.  A real field has
  c(-xi) = conj c(xi), so only the half-spectrum k_z >= 0 is stored.
* Nyquist columns/rows are zeroed in every derivative and every symbol
  application so real fields stay real; a second derivative is two first
  derivatives, so it drops the Nyquist mode too.
* Quadratic products are dealiased by 3/2 zero padding; they are exact
  whenever the result is resolved on the lattice.

Dealiasing runs on real transforms (``scipy.fft.rfft2``/``irfft2``, the
theta axis full and the z axis halved), and each field keeps its padded
samples once computed, so a field that enters several products is padded
once.  The real path keeps the Nyquist convention of the complex embedding
it replaces, which places the coarse Nyquist row and column at -n/2 and
keeps the real part:

* padding splits the Nyquist row evenly between the fine rows +-n/2, puts
  the Nyquist column at +n/2 with half its weight (its conjugate partner
  carries the other half), and puts the corner in the +n/2 row;
* truncation averages each fine +-n/2 pair of the Nyquist row and column
  and takes the corner from the (+n/2, +n/2) entry.

Integrals of products multiply the same cached padded samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft as _sfft


TAU = 2.0 * np.pi

# Freeing an mmapped block raises glibc's mmap threshold to its size, at most
# 32 MiB, and its trim threshold to twice that (mallopt(3)): temporaries then
# stay on the heap, not faulted in afresh.  An untouched block costs no memory.
np.empty(30 << 20, np.uint8)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the (theta, z) torus.

    n_theta, n_z must be even and >= 8.  z_period defaults to 2*pi; a longer
    period makes fractional axial wavenumbers (k = 2*pi/z_period * integer)
    available, which the long-wave Plateau instability needs.
    """

    n_theta: int
    n_z: int
    z_period: float = TAU

    def __post_init__(self):
        for name, n in (("n_theta", self.n_theta), ("n_z", self.n_z)):
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 8, got {n}")
        if not self.z_period > 0:
            raise ValueError("z_period must be positive")

    # -- coordinates -------------------------------------------------------
    @property
    def theta(self):
        return np.arange(self.n_theta) * (TAU / self.n_theta)

    @property
    def z(self):
        return np.arange(self.n_z) * (self.z_period / self.n_z)

    def mesh(self):
        """Meshgrid (theta, z) with indexing 'ij' (theta is axis 0)."""
        return np.meshgrid(self.theta, self.z, indexing="ij")

    # -- frequencies -------------------------------------------------------
    @property
    def xi_theta(self):
        """Integer angular frequencies in FFT order."""
        return np.fft.fftfreq(self.n_theta, 1.0 / self.n_theta)

    @property
    def xi_z(self):
        """Axial frequencies (2*pi/z_period times integers) in FFT order."""
        return np.fft.fftfreq(self.n_z, 1.0 / self.n_z) * (TAU / self.z_period)

    def xi_mesh(self):
        return np.meshgrid(self.xi_theta, self.xi_z, indexing="ij")

    def xi_chunk(self):
        """Frequencies per stacked symbol evaluation: about 2^14 samples
        (frequencies x grid points), a cache-sized 256 KB complex stack (16 on
        32^2, 4 on 64^2, 64 on 16^2)."""
        return max(1, 2 ** 14 // (self.n_theta * self.n_z))

    @property
    def dz_lattice(self):
        """Spacing of the axial frequency lattice."""
        return TAU / self.z_period

    def axial_index(self, k):
        """The integer n with k = n dz_lattice; ValueError if k is not
        finite or lies off the axial lattice by more than 1e-12 steps."""
        n = k / self.dz_lattice
        if not (np.isfinite(n) and abs(n - round(n)) <= 1e-12):
            raise ValueError(f"k={k} is not on the axial lattice "
                             f"(step {self.dz_lattice})")
        return round(n)

    def resolves(self, m, k):
        """Whether the grid resolves cos(m theta + k z): k on the axial
        lattice (``axial_index``), |m| < n_theta/2 and |k| < (n_z/2) dz; a
        state projects out the Nyquist modes, and modes past them alias."""
        try:
            n = self.axial_index(k)
        except ValueError:
            return False
        return abs(m) < self.n_theta // 2 and abs(n) < self.n_z // 2

    def nyquist_mask(self):
        """True on modes that must be dropped to keep real fields real."""
        mask = np.zeros((self.n_theta, self.n_z), dtype=bool)
        mask[self.n_theta // 2, :] = True
        mask[:, self.n_z // 2] = True
        return mask

    def half_lattice(self):
        """True on the half-spectrum's own half, k_z > 0 or k_z = 0 <
        k_theta, Nyquist modes dropped; shape (n_theta, n_z // 2 + 1).  With
        its mirror -xi it covers every Nyquist-free xi != 0 once, and a real
        operator's symbol, a(w, -xi) = conj a(w, xi), is known from it."""
        nzr = self.n_z // 2 + 1
        return (((self.xi_z[:nzr] > 0) | (self.xi_theta[:, None] > 0))
                & ~self.nyquist_mask()[:, :nzr])

    # -- measures ----------------------------------------------------------
    @property
    def area(self):
        return TAU * self.z_period

    @property
    def cell_area(self):
        return self.area / (self.n_theta * self.n_z)

    def padded(self):
        """Grid refined by 3/2 in both directions (rounded up to even; same
        periods): the grid of every dealiased evaluation."""
        mt, mz = 3 * self.n_theta // 2, 3 * self.n_z // 2
        return TorusGrid(mt + mt % 2, mz + mz % 2, self.z_period)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class TorusField:
    """Real scalar field carried as grid samples plus Fourier coefficients.

    ``coefficients`` is the ``scipy.fft.rfft2`` half-spectrum, shape
    (n_theta, n_z//2 + 1): row i holds k_theta = xi_theta[i] (FFT order),
    column j the axial index j = 0..n_z/2, the last column the Nyquist one.
    The modes k_z < 0 are not stored: c(-xi) = conj c(xi), which
    ``coefficient`` reads.

    Instances are immutable; all operations return new fields.  The
    coefficients and the 3/2-padded samples are computed on first use and
    kept, read-only.
    """

    __slots__ = ("grid", "values", "_coefficients", "_padded")

    def __init__(self, grid: TorusGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_theta, grid.n_z):
            raise ValueError("field shape does not match grid")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coefficients", None)
        object.__setattr__(self, "_padded", None)

    def __setattr__(self, *_):
        raise AttributeError("TorusField is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_coefficients(cls, grid, coefficients):
        """The real field of a half-spectrum, shape (n_theta, n_z//2 + 1),
        or of a full lattice, shape (n_theta, n_z), which is reduced to the
        half-spectrum of its Hermitian part (c(xi) + conj c(-xi))/2: the
        coefficients of the real part of its field."""
        nt, nz = grid.n_theta, grid.n_z
        c = np.asarray(coefficients, dtype=complex)
        if c.shape == (nt, nz):
            mirror = np.roll(c[::-1, ::-1], 1, axis=(0, 1))
            c = 0.5 * (c[:, :nz // 2 + 1] + np.conj(mirror[:, :nz // 2 + 1]))
        elif c.shape != (nt, nz // 2 + 1):
            raise ValueError(f"coefficient shape {c.shape} is neither "
                             f"({nt}, {nz // 2 + 1}) nor ({nt}, {nz})")
        return cls(grid, _sfft.irfft2(c, s=(nt, nz), norm="forward"))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.n_theta, grid.n_z)))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full((grid.n_theta, grid.n_z), float(c)))

    @classmethod
    def from_modes(cls, grid, modes):
        """Sum of cosine modes, each given as (amplitude, m, k, phase).

        k must lie on the axial lattice (``TorusGrid.axial_index``).
        """
        th, zz = grid.mesh()
        out = np.zeros_like(th)
        for amp, m, k, phase in modes:
            grid.axial_index(k)
            out += amp * np.cos(m * th + k * zz + phase)
        return cls(grid, out)

    # -- representation ----------------------------------------------------
    @property
    def coefficients(self):
        if self._coefficients is None:
            c = _sfft.rfft2(self.values, norm="forward")
            c.setflags(write=False)
            object.__setattr__(self, "_coefficients", c)
        return self._coefficients

    @property
    def padded_samples(self):
        """Samples of the Fourier interpolant on ``grid.padded()``, the
        inputs of a dealiased evaluation."""
        if self._padded is None:
            p = _pad_real(self.grid, self.values)
            p.setflags(write=False)
            object.__setattr__(self, "_padded", p)
        return self._padded

    def coefficient(self, m, k_index):
        """Single coefficient addressed by integer lattice indices; a mode
        k_z < 0 reads the conjugate of its mirror."""
        if k_index % self.grid.n_z > self.grid.n_z // 2:
            return np.conj(self.coefficient(-m, -k_index))
        return self.coefficients[m % self.grid.n_theta, k_index % self.grid.n_z]

    # -- algebra (pointwise, no dealiasing; use dealiased_product for that) -
    def __add__(self, other):
        if isinstance(other, TorusField):
            self._check(other)
            return TorusField(self.grid, self.values + other.values)
        return TorusField(self.grid, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TorusField):
            self._check(other)
            return TorusField(self.grid, self.values - other.values)
        return TorusField(self.grid, self.values - float(other))

    def __rsub__(self, other):
        return TorusField(self.grid, float(other) - self.values)

    def __mul__(self, scalar):
        return TorusField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return TorusField(self.grid, -self.values)

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    # -- reductions --------------------------------------------------------
    def mean(self):
        return float(self.values.mean())

    def integral(self):
        return float(self.values.mean() * self.grid.area)

    def l2_norm(self):
        return float(np.sqrt((self.values ** 2).mean() * self.grid.area))

    def max_norm(self):
        return float(np.abs(self.values).max())

    def min(self):
        return float(self.values.min())

    def max(self):
        return float(self.values.max())

    def shift(self, steps_theta=0, steps_z=0):
        """Translate by whole grid steps (exact)."""
        return TorusField(self.grid, np.roll(self.values, (steps_theta, steps_z), (0, 1)))

    def drop_nyquist(self):
        """Project out the Nyquist rows/columns."""
        c = self.coefficients.copy()
        c[self.grid.n_theta // 2] = 0.0
        c[:, -1] = 0.0
        return TorusField.from_coefficients(self.grid, c)


def spectral_derivative(f: TorusField, direction):
    """d/d(direction) by the Fourier multiplier i*xi, Nyquist mode zeroed so
    the result stays real; a second derivative applies it twice."""
    if direction == "theta":
        axis = 0
    elif direction == "z":
        axis = 1
    else:
        raise ValueError(f"unknown direction {direction!r}")
    mult = derivative_multipliers(f.grid)[axis]
    return TorusField.from_coefficients(f.grid, f.coefficients * mult)


@lru_cache(maxsize=16)
def derivative_multipliers(grid: TorusGrid):
    """Half-spectrum first-derivative multipliers (i xi_theta, i xi_z),
    Nyquist zeroed; cached per grid and read-only."""
    nzr = grid.n_z // 2 + 1
    mt = 1j * grid.xi_theta[:, None] * np.ones((1, nzr))
    mz = 1j * np.ones((grid.n_theta, 1)) * grid.xi_z[None, :nzr]
    mt[grid.n_theta // 2, :] = 0.0
    mz[:, -1] = 0.0
    mt.setflags(write=False)
    mz.setflags(write=False)
    return mt, mz


# ---------------------------------------------------------------------------
# dealiasing
# ---------------------------------------------------------------------------

def _pad_real(grid: TorusGrid, values):
    """Samples on grid.padded() of the interpolant of real grid values."""
    fine = grid.padded()
    h, kz = grid.n_theta // 2, grid.n_z // 2
    c = _sfft.rfft2(values, norm="forward")           # (n_theta, kz + 1)
    out = np.zeros((fine.n_theta, fine.n_z // 2 + 1), dtype=complex)
    out[:h, :kz + 1] = c[:h]
    out[-h:, :kz + 1] = c[h:]                         # row h lands at -h
    out[:, kz] *= 0.5
    out[-h, :kz] *= 0.5
    out[h, :kz] = out[-h, :kz]
    out[h, kz] = out[-h, kz]
    out[-h, kz] = 0.0
    return _sfft.irfft2(out, s=(fine.n_theta, fine.n_z), norm="forward")


def _truncate_real(grid: TorusGrid, values):
    """Grid values of the coarse-lattice part of real samples on
    grid.padded()."""
    h, kz = grid.n_theta // 2, grid.n_z // 2
    c = _sfft.rfft2(values, norm="forward")
    out = np.empty((grid.n_theta, kz + 1), dtype=complex)
    out[:h] = c[:h, :kz + 1]
    out[h + 1:] = c[1 - h:, :kz + 1]
    out[h, :kz] = 0.5 * (c[h, :kz] + c[-h, :kz])
    out[h, kz] = c[h, kz]
    return _sfft.irfft2(out, s=(grid.n_theta, grid.n_z), norm="forward")


def nonlinear_eval(fn, *fields):
    """Evaluate a pointwise function of several fields on a padded grid.

    fn is applied to the inputs' padded samples (their spectral interpolants
    on the grid refined by 3/2) and the result is truncated back.  For a
    product of two fields this is exact dealiasing; for general
    nonlinearities (quotients, roots) it removes the dominant aliasing
    contributions.
    """
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields live on different grids")
    out = fn(*(f.padded_samples for f in fields))
    return TorusField(grid, _truncate_real(grid, out))


def dealiased_product(f: TorusField, g: TorusField):
    """Pointwise product, dealiased by 3/2 zero padding.

    Exact (equal to the truncated lattice convolution) for any resolved
    inputs; in particular exact with no truncation whenever the combined
    bandwidth fits on the lattice.
    """
    return nonlinear_eval(lambda a, b: a * b, f, g)


def integrate_product(*fields):
    """Integral over the torus of a pointwise product of fields.

    The trapezoid rule on the fields' cached padded samples (the grid refined
    by 3/2) is exact for products of up to three fields unless all three
    carry Nyquist content.
    """
    grid = fields[0].grid
    prod = fields[0].padded_samples
    for f in fields[1:]:
        prod = prod * f.padded_samples
    return float(prod.mean() * grid.area)


# ---------------------------------------------------------------------------
# dyadic (Littlewood-Paley) decomposition
# ---------------------------------------------------------------------------

def _smooth_step(t):
    """C^inf ramp: 0 for t<=0, 1 for t>=1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(1 - t > 0, np.exp(-1.0 / np.where(1 - t > 0, 1 - t, 1.0)), 0.0)
    return a / (a + b)


def chi_profile(r):
    """Radial low-pass profile: 1 on r<=1, 0 on r>=2, smooth monotone ramp.

    This fixed choice (exp(-1/t) gluing) is documented for reproducibility;
    any smooth monotone ramp would do.
    """
    r = np.abs(np.asarray(r, dtype=float))
    return _smooth_step(2.0 - r)


def annulus_profile(r):
    """phi(r) = chi(r/2) - chi(r); supported on 1 <= r <= 4."""
    return chi_profile(np.asarray(r) / 2.0) - chi_profile(r)


class DyadicDecomposition(NamedTuple):
    """Dyadic frequency multipliers of one grid, stacked and read-only.

    On the half-spectrum, ``blocks[j]`` = phi(|xi|/2^j) for j = 0..jmax
    multiplies the coefficients of Delta_j, and ``lowpass[j]`` =
    chi(|xi|/2^j) for j = 0..jmax+1 those of S_j, where phi(r) = chi(r/2) - chi(r).  Because
    phi is defined by differencing chi, the partition telescopes exactly on
    the lattice:

        chi(xi) + sum_{k=0}^{j-1} phi(xi/2^k) = chi(xi/2^j),

    and S_{jmax+1} = identity on every resolved frequency.  jmax is the
    largest index whose annulus still meets the lattice.
    """

    jmax: int
    blocks: np.ndarray      # (jmax + 1, n_theta, n_z // 2 + 1)
    lowpass: np.ndarray     # (jmax + 2, n_theta, n_z // 2 + 1)


@lru_cache(maxsize=16)
def decomposition(grid: TorusGrid) -> DyadicDecomposition:
    """The dyadic multipliers of grid; cached per grid."""
    radii = np.sqrt(grid.xi_theta[:, None] ** 2
                    + grid.xi_z[:grid.n_z // 2 + 1] ** 2)
    blocks = [annulus_profile(radii)]
    while blocks[-1].any():
        blocks.append(annulus_profile(radii / 2.0 ** len(blocks)))
    blocks = np.stack(blocks[:-1])      # the last annulus misses the lattice
    jmax = len(blocks) - 1
    lowpass = np.stack([chi_profile(radii / 2.0 ** j) for j in range(jmax + 2)])
    blocks.setflags(write=False)
    lowpass.setflags(write=False)
    return DyadicDecomposition(jmax, blocks, lowpass)


def dyadic_block(f: TorusField, j):
    """Delta_j f (annulus projection around |xi| ~ 2^j), 0 <= j <= jmax."""
    dec = decomposition(f.grid)
    if not 0 <= j <= dec.jmax:
        raise ValueError(f"block index {j} outside [0, {dec.jmax}]")
    return TorusField.from_coefficients(f.grid, f.coefficients * dec.blocks[j])


def low_pass(f: TorusField, j):
    """S_j f (smooth cutoff to |xi| <~ 2^(j+1)), 0 <= j <= jmax + 1."""
    dec = decomposition(f.grid)
    if not 0 <= j <= dec.jmax + 1:
        raise ValueError(f"low-pass index {j} outside [0, {dec.jmax + 1}]")
    return TorusField.from_coefficients(f.grid, f.coefficients * dec.lowpass[j])


# ---------------------------------------------------------------------------
# seeded random fields (shared by property tests and the verification CLI)
# ---------------------------------------------------------------------------

def band_limited_random(grid: TorusGrid, rng, kmax=4, decay=2.0, max_norm=1.0,
                        zero_mean=True):
    """Random smooth real field with |xi| <= kmax and geometric mode decay.

    Normalized so the sup norm equals max_norm.  Deterministic for a given
    rng state.
    """
    xt, xz = grid.xi_mesh()
    radii = np.sqrt(xt ** 2 + xz ** 2)
    c = rng.standard_normal(radii.shape) + 1j * rng.standard_normal(radii.shape)
    c *= decay ** (-radii)
    c[radii > kmax] = 0.0
    c[grid.nyquist_mask()] = 0.0
    if zero_mean:
        c[0, 0] = 0.0
    f = TorusField.from_coefficients(grid, c)
    m = f.max_norm()
    if m == 0.0:
        return f
    return f * (max_norm / m)
