"""Executable verification battery.

Every identity in the package that can be checked numerically is collected
here as a named check with a value, a threshold, and a pass flag.  The CLI
``verify`` subcommand runs the battery and exits nonzero if anything fails;
the acceptance test suite asserts the same checks one by one, so the two
surfaces cannot drift apart.

Checks are deterministic: random fields come from a seeded generator and all
reductions have fixed order.  Running worsts are np.maximum/np.minimum, not
max/min, which drop a NaN that comes second: a NaN anywhere makes the value
NaN, which fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import (
    DtnSolver,
    fd_shape_derivative,
    hamiltonian_variations,
    shape_derivative,
)
from .evolution import (
    EvolutionConfig,
    SurfaceState,
    bessel_dtn_eigenvalue,
    fit_growth_rate,
    fit_oscillation_frequency,
    linearized_growth_rate,
    simulate,
    step_rk4,
)
from .geometry import grad_bar_eta, mean_curvature
from .paradiff import apply_paradiff, bony_remainder, good_unknown, paraproduct
from .spectral import (
    TAU,
    TorusField,
    TorusGrid,
    band_limited_random,
    chi_profile,
    annulus_profile,
    dealiased_product,
    decomposition,
    dyadic_block,
    integrate_product,
    low_pass,
    nonlinear_eval,
    spectral_derivative,
)
from .symbols import lambda_symbol, symbol_identity_report


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return (f"{tag} {self.name}: value {self.value:.6e} "
                f"threshold {self.threshold:.1e}{extra}")

    def record(self):
        return (f"check.{self.name}={self.value:.17g} "
                f"threshold={self.threshold:.17g} pass={int(self.passed)}")


def _below(name, value, threshold, note=""):
    return CheckResult(name, float(value), float(threshold),
                       float(value) < float(threshold), note)


def _above(name, value, threshold, note=""):
    return CheckResult(name, float(value), float(threshold),
                       float(value) >= float(threshold), note)


def _run(state, cfg, solver):
    """simulate for a check: a solver failure raises its error, as a direct
    solve does, so no check measures a truncated trajectory."""
    traj = simulate(state, cfg, solver)
    if traj.error is not None:
        raise traj.error
    return traj


def _desk(grid):
    """Identity thresholds are stated at desk scale; run those checks on a
    grid of at least 32 points in theta and 32 per 2 pi in z (64 on a 4 pi
    period) whatever the configured one."""
    n_z = 32 * max(1, round(grid.z_period / TAU))
    if grid.n_theta >= 32 and grid.n_z >= n_z:
        return grid
    return TorusGrid(max(grid.n_theta, 32), max(grid.n_z, n_z), grid.z_period)


# Random smooth surface ensemble for the pointwise identity checks:
# (kmax, amplitude factor, spectral decay).  Calibrated so the identity
# thresholds certify the algebra rather than grid truncation (worst case
# over seeds sits two orders under the tightest threshold at desk scale).
_ENSEMBLE = (3, 0.05, 3.0)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_transforms(grid, seed):
    rng = np.random.default_rng(seed)
    f = TorusField(grid, rng.standard_normal((grid.n_theta, grid.n_z)))
    roundtrip = (TorusField.from_coefficients(grid, f.coefficients) - f).max_norm()
    grid_norm = f.l2_norm() ** 2
    # the half-spectrum's interior columns stand for their k_z < 0 mirrors too
    power = np.abs(f.coefficients) ** 2
    power[:, 1:-1] *= 2.0
    coef_norm = float(np.sum(power) * grid.area)
    parseval = abs(grid_norm - coef_norm) / grid_norm
    return [
        _below("transform.roundtrip", roundtrip, 1e-12),
        _below("transform.parseval", parseval, 1e-12),
    ]


def check_dyadic(grid, seed):
    rng = np.random.default_rng(seed)
    dec = decomposition(grid)
    xt, xz = grid.xi_mesh()
    radii = np.sqrt(xt ** 2 + xz ** 2)
    tele = 0.0
    for j in range(1, dec.jmax + 2):
        lhs = chi_profile(radii) + sum(
            annulus_profile(radii / 2.0 ** k) for k in range(j))
        tele = np.maximum(tele, np.abs(lhs - chi_profile(radii / 2.0 ** j)).max())
    f = TorusField(grid, rng.standard_normal((grid.n_theta, grid.n_z)))
    recon = low_pass(f, 0)
    for j in range(0, dec.jmax + 1):
        recon = recon + dyadic_block(f, j)
    return [
        _below("dyadic.telescoping", tele, 1e-15),
        _below("dyadic.reconstruction", (recon - f).max_norm(), 1e-12),
    ]


def check_bony(grid, seed):
    rng = np.random.default_rng(seed)
    a = band_limited_random(grid, rng, kmax=grid.n_theta // 3,
                            max_norm=1.0, zero_mean=False)
    b = band_limited_random(grid, rng, kmax=grid.n_theta // 3,
                            max_norm=1.0, zero_mean=False)
    recon = (dealiased_product(a, b) - paraproduct(a, b) - paraproduct(b, a)
             - bony_remainder(a, b)).max_norm()
    shift = (paraproduct(a, b + 2.31) - paraproduct(a, b)).max_norm()
    return [
        _below("bony.reconstruction", recon, 1e-12),
        _below("bony.constant_shift", shift, 1e-12),
    ]


def _bessel_worst(grid, n_rho, R, modes, tol):
    """Worst relative error of G(R) cos(m theta + k z) against the Bessel
    oracle over the (m, k) in modes, on the cylinder of radius R."""
    solver = DtnSolver(grid, n_rho)
    eta = TorusField.constant(grid, R)
    th, zz = grid.mesh()
    worst = 0.0
    for m, k in modes:
        psi = TorusField(grid, np.cos(m * th + k * zz))
        bundle = solver.trace_bundle(eta, psi, tol)
        lam = bessel_dtn_eigenvalue(m, k, R)
        worst = np.maximum(worst, np.abs(bundle.G.values - lam * psi.values).max()
                           / abs(lam))
    return float(worst)


def check_dtn_bessel(grid, n_rho, R=1.0):
    """Criterion: relative error vs the Bessel oracle below 1e-8 for all
    resolved 1 <= |(m,k)| <= 8 (k on the axial lattice)."""
    dz = grid.dz_lattice
    ks = [dz * n for n in range(0, int(np.floor(8.0 / dz)) + 1)]
    modes = [(m, k) for m in range(0, 9) for k in ks
             if 1.0 <= np.hypot(m, k) <= 8.0 and grid.resolves(m, k)]
    return [_below("dtn.bessel_accuracy",
                   _bessel_worst(grid, n_rho, R, modes, 1e-12), 1e-8,
                   note=f"n_rho={n_rho}")]


def bessel_error_at(grid, n_rho, R=1.0):
    """Worst Bessel-oracle error over the resolved modes of a fixed set."""
    modes = [(m, k) for m, k in ((0, 8), (8, 0), (5, 5), (1, 2), (3, 7))
             if grid.resolves(m, k)]
    return _bessel_worst(grid, n_rho, R, modes, 1e-13)


# Criterion 1b (error drops >= 1e3 as n_rho doubles 24 -> 48) is measured at
# this mean radius: the radial profile I_m(|k| R rho) steepens with R, and at
# R = 1 the 24-node error is already roundoff (~3e-14), so the ratio there
# compares roundoff with roundoff.  At R = 8 error(24) is ~6e-8.
DOUBLING_RADIUS = 8.0
DOUBLING_FLOOR = 1e-11


def check_dtn_convergence(R=1.0):
    """Bessel error against n_rho on the 32 x 32 grid, whatever the
    configured one: pre-floor log-log slope and 6 -> 12 ratio at radius R,
    and criterion 1b's 24 -> 48 ratio at R = DOUBLING_RADIUS."""
    desk = TorusGrid(32, 32)
    errs = {n: bessel_error_at(desk, n, R) for n in (6, 12, 24, 48)}
    pre_floor = [(n, e) for n, e in errs.items() if e > 1e-13]
    slope = 0.0
    if len(pre_floor) >= 2:
        ns = np.log([p[0] for p in pre_floor])
        es = np.log([p[1] for p in pre_floor])
        slope = float(np.polyfit(ns, es, 1)[0])
    ratio_6_12 = errs[6] / max(errs[12], 1e-300)
    e24 = bessel_error_at(desk, 24, DOUBLING_RADIUS)
    e48 = bessel_error_at(desk, 48, DOUBLING_RADIUS)
    ratio_24_48 = e24 / max(e48, 1e-300)
    return [
        _below("dtn.spectral_slope", slope, -4.0,
               note="pre-floor log-log slope; steeper than -4 required"),
        _above("dtn.convergence_6_12", ratio_6_12, 1e3,
               note=f"errors {errs[6]:.2e} -> {errs[12]:.2e}"),
        CheckResult("dtn.convergence_24_48", float(ratio_24_48), 1e3,
                    ratio_24_48 >= 1e3 and e24 >= DOUBLING_FLOOR,
                    note=(f"errors {e24:.3e} -> {e48:.3e} at "
                          f"R={DOUBLING_RADIUS:g} on 32x32; error(24) >= "
                          f"{DOUBLING_FLOOR:.0e} required")),
    ]


def check_dtn_structure(grid, n_rho, seed, R=1.0, n_states=100):
    """Self-adjointness, positivity, and G(eta)1 = 0 on a seeded ensemble
    of n_states >= 1 states with ||eta - R||_inf <= 0.2 R."""
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, n_rho)
    asym_worst = 0.0
    ek_min = np.inf
    gconst_worst = 0.0
    for _ in range(n_states):
        amp = rng.uniform(0.05, 0.2)
        eta = TorusField.constant(grid, R) + band_limited_random(
            grid, rng, kmax=4, max_norm=amp * R)
        psi1 = band_limited_random(grid, rng, kmax=5, max_norm=0.3)
        psi2 = band_limited_random(grid, rng, kmax=5, max_norm=0.3)
        b1 = solver.solve(eta, psi1, 1e-11)
        b2 = solver.solve(eta, psi2, 1e-11)
        s12 = integrate_product(b1.flux, psi2)
        s21 = integrate_product(b2.flux, psi1)
        scale = 0.5 * (b1.flux.l2_norm() * psi2.l2_norm()
                       + b2.flux.l2_norm() * psi1.l2_norm())
        asym_worst = np.maximum(asym_worst, abs(s12 - s21) / scale)
        ek_min = np.min([ek_min, b1.kinetic_energy, b2.kinetic_energy])
        bc = solver.trace_bundle(eta, TorusField.constant(grid, 1.7), 1e-11)
        gconst_worst = np.maximum(gconst_worst, bc.G.max_norm())
    return [
        _below("dtn.symmetry", asym_worst, 1e-8,
               note=f"{n_states} seeded states"),
        _above("dtn.positivity", ek_min, -1e-12),
        _below("dtn.g_constant", gconst_worst, 1e-9),
    ]


# battery thresholds of TraceBundle.identity_residuals
TRACE_THRESHOLDS = {"gradient_identity": 1e-10, "b_formula": 1e-9,
                    "g_consistency": 1e-9}


def check_trace_identities(grid, n_rho, seed, R=1.0):
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, n_rho)
    kmax, amp, decay = _ENSEMBLE
    eta = TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=kmax, decay=decay, max_norm=amp * R)
    psi = band_limited_random(grid, rng, kmax=kmax, decay=decay, max_norm=0.3)
    bundle = solver.trace_bundle(eta, psi, 1e-12)
    return [_below("trace." + name, value, TRACE_THRESHOLDS[name])
            for name, value in bundle.identity_residuals(psi, eta).items()]


def check_shape_derivative(grid, n_rho, seed, R=1.0):
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, n_rho)
    kmax, amp, decay = _ENSEMBLE
    eta = TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=kmax, decay=decay, max_norm=0.08 * R)
    psi = band_limited_random(grid, rng, kmax=kmax, decay=decay, max_norm=0.3)
    delta = band_limited_random(grid, rng, kmax=kmax, decay=decay, max_norm=4.0)
    analytic = shape_derivative(eta, psi, delta, solver, 1e-12)
    fds = [fd_shape_derivative(eta, psi, delta, eps, solver, 1e-12)
           for eps in (1e-3, 1e-4, 1e-5)]
    rel = (analytic - fds[1]).l2_norm() / analytic.l2_norm()
    d1 = (fds[0] - fds[1]).l2_norm()
    d2 = (fds[1] - fds[2]).l2_norm()
    order = float(np.log10(d1 / d2))
    return [
        _below("shape_derivative.fd_agreement", rel, 1e-5,
               note="central FD at eps=1e-4"),
        _above("shape_derivative.fd_order", order, 1.9,
               note="successive FD differences over eps in {1e-3,1e-4,1e-5}"),
    ]


def check_cancellation(grid, n_rho, seed, R=1.0):
    """delta_eta = 1: the combination G(eta)B + div_bar V decays one dyadic
    order faster than its summands.  Measured as the per-band suppression
    ratio ||Delta_j combo|| / ||Delta_j G(eta)B|| shrinking by >= 2^0.5 per
    band over the clean bands (the top band sits at truncation level and is
    excluded).  Needs enough dyadic bands, so it always runs at desk scale
    regardless of the config grid."""
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, max(n_rho, 24))
    eta = TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=3, max_norm=0.1 * R)
    psi = band_limited_random(grid, rng, kmax=3, max_norm=0.3)
    bundle = solver.trace_bundle(eta, psi, 1e-12)
    gb = solver.trace_bundle(eta, bundle.B, 1e-12).G
    div_v = nonlinear_eval(
        lambda a, e: a / e,
        spectral_derivative(bundle.V_theta, "theta"), eta,
    ) + spectral_derivative(bundle.V_z, "z")
    combo = gb + div_v
    dec = decomposition(grid)
    js, ratios = [], []
    for j in range(1, dec.jmax):
        den = dyadic_block(gb, j).l2_norm()
        if den < 1e-12:
            continue
        js.append(j)
        ratios.append(dyadic_block(combo, j).l2_norm() / den)
    gain = -float(np.polyfit(js, np.log2(ratios), 1)[0])
    return [_above("shape_derivative.cancellation_gain", gain, 0.5,
                   note="extra dyadic decay rate of G(eta)B + div_bar V")]


def check_hamiltonian_variations(grid, n_rho, seed, R=1.0, sigma=1.0,
                                 n_states=20):
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, n_rho)
    worst_p = worst_eta = 0.0
    for _ in range(n_states):
        eta = TorusField.constant(grid, R) + band_limited_random(
            grid, rng, kmax=3, max_norm=rng.uniform(0.02, 0.08) * R)
        psi = band_limited_random(grid, rng, kmax=3, max_norm=0.25)
        dp = band_limited_random(grid, rng, kmax=3, max_norm=1.0)
        de = band_limited_random(grid, rng, kmax=3, max_norm=1.0)
        fd_p, an_p, fd_e, an_e = hamiltonian_variations(
            eta, psi, dp, de, R, sigma, solver, 1e-12)
        worst_p = np.maximum(worst_p, abs(fd_p - an_p) / max(abs(an_p), 1e-12))
        worst_eta = np.maximum(worst_eta,
                               abs(fd_e - an_e) / max(abs(an_e), 1e-12))
    return [
        _below("hamiltonian.variation_p", worst_p, 1e-5,
               note=f"{n_states} seeded states"),
        _below("hamiltonian.variation_eta", worst_eta, 1e-5,
               note=f"{n_states} seeded states"),
    ]


def check_curvature(grid, seed, R=1.0):
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    kmax, amp, decay = _ENSEMBLE
    worst = 0.0
    for _ in range(5):
        eta = TorusField.constant(grid, R) + band_limited_random(
            grid, rng, kmax=kmax, decay=decay, max_norm=amp * R)
        h1 = mean_curvature(eta, "direct")
        h2 = mean_curvature(eta, "decomposed")
        worst = np.maximum(worst, (h1 - h2).max_norm() / h1.max_norm())
    return [_below("curvature.two_paths", worst, 1e-9,
                   note=f"random smooth eta, kmax {kmax}, decay {decay}, "
                        f"amplitude {amp}R")]


def check_symbols(grid, R=1.0, sigma=1.0):
    """Symbol identity report on the documented reference surface
    eta = R (1 + 0.1 cos theta cos z)."""
    grid = _desk(grid)
    th, zz = grid.mesh()
    eta = TorusField(grid, R * (1.0 + 0.1 * np.cos(th) * np.cos(zz)))
    out = []
    for c in symbol_identity_report(eta, sigma, R):
        out.append(CheckResult("symbol." + c.name, c.residual, c.threshold,
                               c.passed))
    return out


def check_symbol_vs_bessel(grid, R=1.0):
    """Two-term DtN symbol against the Bessel oracle: log-log tail slope of
    the per-shell max error over 4 <= |xi| <= 14 (k = 0 rows are exact and
    excluded), at desk scale."""
    grid = _desk(grid)
    eta = TorusField.constant(grid, R)
    lam = lambda_symbol(eta)
    shells = {}
    for m in range(0, 15):      # |xi| <= 14 lies inside every desk grid's band
        for k in range(1, 15):
            r = float(np.hypot(m, k))
            if not 4.0 <= r <= 14.0:
                continue
            sym = complex(np.asarray(
                lam.principal_at(float(m), float(k))
                + lam.subprincipal(float(m), float(k))).ravel()[0])
            err = abs(bessel_dtn_eigenvalue(m, k, R) - sym.real)
            key = round(r, 9)
            shells[key] = np.maximum(shells.get(key, 0.0), err)
    rr = np.array(sorted(shells))
    ee = np.array([shells[k] for k in sorted(shells)])
    slope = float(np.polyfit(np.log(rr), np.log(ee), 1)[0])
    return [_below("symbol.dtn_tail_slope", slope, -0.9,
                   note="per-shell max error, 4 <= |xi| <= 14")]


def check_paralinearization(grid, n_rho, seed, R=1.0):
    """Relative L2 size of f1 = G psi - T_lambda U + T_V . grad_bar eta on
    the documented small-amplitude, high-frequency family, at desk scale."""
    grid = _desk(grid)
    rng = np.random.default_rng(seed)
    solver = DtnSolver(grid, n_rho)
    eta = TorusField.constant(grid, R) + band_limited_random(
        grid, rng, kmax=3, max_norm=0.05 * R)
    xt, xz = grid.xi_mesh()
    rad = np.sqrt(xt ** 2 + xz ** 2)
    c = rng.standard_normal(rad.shape) + 1j * rng.standard_normal(rad.shape)
    c[(rad < 8.0) | (rad > 11.0)] = 0.0
    c[grid.nyquist_mask()] = 0.0
    psi = TorusField.from_coefficients(grid, c)
    psi = psi * (0.3 / psi.max_norm())

    bundle = solver.trace_bundle(eta, psi, 1e-12)
    U = good_unknown(eta, psi, bundle.B)
    lam = lambda_symbol(eta)
    gbt, gbz = grad_bar_eta(eta)
    f1 = (bundle.G - apply_paradiff(lam, U)
          + paraproduct(bundle.V_theta, gbt) + paraproduct(bundle.V_z, gbz))
    rel = f1.l2_norm() / bundle.G.l2_norm()
    return [_below("paralin.residual", rel, 0.05,
                   note="|eta-R| <= 0.05R, psi in annuli j=3..")]


def check_conservation(R=1.0, sigma=1.0, n_rho=48):
    grid = TorusGrid(32, 32)
    eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
        grid, [(0.01, 1, 1, 0.3), (0.005, 2, 0, 1.1)])
    psi0 = TorusField.from_modes(grid, [(0.005, 0, 1, 0.7)])
    state = SurfaceState(eta0, psi0, R, sigma)
    solver = DtnSolver(grid, n_rho)
    cfg = EvolutionConfig(dt="auto", t_final=1.0, record_every=20,
                          tol_elliptic=1e-11)
    traj = _run(state, cfg, solver)
    h = np.array([r.total for r in traj.reports])
    v = np.array([r.volume for r in traj.reports])
    h_drift = float(np.abs(h - h[0]).max() / max(abs(h[0]), sigma))
    v_drift = float(np.abs(v - v[0]).max() / v[0])
    return [
        _below("conservation.hamiltonian", h_drift, 1e-6, note="T = 1"),
        _below("conservation.volume", v_drift, 1e-8, note="T = 1"),
    ]


def check_rk4(R=1.0, sigma=1.0):
    grid = TorusGrid(16, 16)
    solver = DtnSolver(grid, 32)
    eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
        grid, [(0.05, 1, 1, 0.3), (0.02, 0, 2, 1.0)])
    psi0 = TorusField.from_modes(grid, [(0.05, 2, 1, 0.5)])
    state = SurfaceState(eta0, psi0, R, sigma)
    T = 0.16
    finals = []
    for nsteps in (8, 16, 32):
        s = state
        for _ in range(nsteps):
            s = step_rk4(s, T / nsteps, solver, 1e-12).state
        finals.append(s)
    d1 = np.maximum((finals[0].eta - finals[1].eta).max_norm(),
                    (finals[0].psi - finals[1].psi).max_norm())
    d2 = np.maximum((finals[1].eta - finals[2].eta).max_norm(),
                    (finals[1].psi - finals[2].psi).max_norm())
    order = float(np.log2(d1 / d2))
    shifted = state.with_fields(eta=state.eta.shift(0, grid.n_z // 2),
                                psi=state.psi.shift(0, grid.n_z // 2))
    a = step_rk4(shifted, 0.02, solver, 1e-12).state
    b = step_rk4(state, 0.02, solver, 1e-12).state
    equi = np.maximum((a.eta - b.eta.shift(0, grid.n_z // 2)).max_norm(),
                      (a.psi - b.psi.shift(0, grid.n_z // 2)).max_norm())
    return [
        _above("rk4.self_convergence_order", order, 3.9),
        _below("rk4.translation_equivariance", equi, 1e-11),
    ]


def check_plateau_growth():
    """m = 0, kR = 0.5 on the long torus: measured growth rate vs the
    closed form, seeded on the unstable eigenvector at amplitude 1e-6."""
    R, sigma = 1.0, 2.0
    grid = TorusGrid(8, 8, z_period=2 * TAU)
    k = 0.5
    rate = linearized_growth_rate(R, sigma, 0, k).imag
    lam = bessel_dtn_eigenvalue(0, k, R)
    amp = 1e-6
    eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
        grid, [(amp, 0, k, 0.0)])
    psi0 = TorusField.from_modes(grid, [(amp * rate / lam, 0, k, 0.0)])
    state = SurfaceState(eta0, psi0, R, sigma)
    solver = DtnSolver(grid, 24)
    cfg = EvolutionConfig(dt="auto", t_final=10.0, record_every=5,
                          tol_elliptic=1e-12)
    traj = _run(state, cfg, solver)
    measured = fit_growth_rate(traj.times, traj.mode_amplitude(0, 1))
    rel = abs(measured - rate) / rate
    return [_below("plateau.growth_rate", rel, 0.01,
                   note=f"measured {measured:.6f} vs {rate:.6f}")]


def check_plateau_oscillation():
    """m = 2, k = 0: measured oscillation frequency vs
    omega^2 = sigma m (m^2 - 1)/(2 R^3)."""
    R, sigma = 1.0, 2.0
    grid = TorusGrid(16, 8)
    omega2 = sigma * 2 * (4 - 1) / (2 * R ** 3)
    eta0 = TorusField.constant(grid, R) + TorusField.from_modes(
        grid, [(1e-4, 2, 0, 0.0)])
    state = SurfaceState(eta0, TorusField.zeros(grid), R, sigma)
    solver = DtnSolver(grid, 24)
    cfg = EvolutionConfig(dt="auto", t_final=4.0, record_every=1,
                          tol_elliptic=1e-12)
    traj = _run(state, cfg, solver)
    vals = [2.0 * s.eta.coefficient(2, 0).real for s in traj.states]
    omega_meas = fit_oscillation_frequency(traj.times, vals)
    rel = abs(omega_meas ** 2 - omega2) / omega2
    return [_below("plateau.oscillation", rel, 0.01,
                   note=f"omega^2 measured {omega_meas ** 2:.6f} vs {omega2:g}")]


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def run_battery(grid, n_rho=48, seed=0, R=1.0, sigma=1.0, heavy=True,
                n_structure_states=100):
    """Run every check; heavy=False skips the long time-integration runs
    (used by quick smoke configurations)."""
    checks = []
    checks += check_transforms(grid, seed)
    checks += check_dyadic(grid, seed + 1)
    checks += check_bony(grid, seed + 2)
    checks += check_curvature(grid, seed + 3, R)
    checks += check_dtn_bessel(grid, n_rho, R)
    checks += check_dtn_structure(grid, n_rho, seed + 4, R,
                                  n_states=n_structure_states)
    checks += check_trace_identities(grid, n_rho, seed + 5, R)
    checks += check_shape_derivative(grid, n_rho, seed + 6, R)
    checks += check_cancellation(grid, n_rho, seed + 7, R)
    checks += check_hamiltonian_variations(grid, n_rho, seed + 8, R, sigma,
                                           n_states=20 if heavy else 3)
    checks += check_symbols(grid, R, sigma)
    checks += check_symbol_vs_bessel(grid, R)
    checks += check_paralinearization(grid, n_rho, seed + 10, R)
    checks += check_rk4(R, sigma)
    if heavy:
        checks += check_dtn_convergence(R)
        checks += check_conservation(R, sigma, n_rho)
        checks += check_plateau_growth()
        checks += check_plateau_oscillation()
    return checks
