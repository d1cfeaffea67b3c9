"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Desk scale: 32 x 32 grid, 48 radial nodes, double precision.

Every criterion is also reachable through the command line:
`jetwave verify --config configs/verify_default.ini` runs the same battery
(criteria 1-7, 10-12 directly; criteria 8-9 as its conservation/instability
runs), and `jetwave simulate --config configs/rayleigh_plateau.ini`
reproduces the growth measurement of criterion 8.

Criterion 1 is split: the absolute-accuracy clause (1a) holds with orders of
margin at R = 1; the resolution-doubling clause (1b) keeps its oracle, modes,
node counts and ratio but is measured at mean radius R = 8.  At R = 1 the
spectral radial discretization reaches the double-precision floor before 24
nodes, so a 24 -> 48 ratio there divides roundoff by roundoff (see the
README, "Install and test").  Test 1b-prefloor shows the same property at
R = 1 on 6 -> 12 nodes.
"""

import pytest

from jetwave.spectral import TorusGrid
from jetwave import verification as V

SEED = 42


def _report(tag, checks):
    for c in checks:
        print(c.line() if hasattr(c, "line") else c)
    failed = [c for c in checks if not c.passed]
    assert not failed, f"{tag}: " + "; ".join(c.name for c in failed)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32, 32)


def test_criterion_01a_dtn_bessel_accuracy(grid):
    """DtN vs modified-Bessel oracle, all 1 <= |(m,k)| <= 8, rel < 1e-8."""
    checks = V.check_dtn_bessel(grid, 48)
    _report("criterion 1a", checks)


def test_criterion_01b_resolution_doubling(grid):
    """Error decreases by >= 1e3 when n_rho doubles 24 -> 48.

    Measured at mean radius R = V.DOUBLING_RADIUS (8), where the radial
    profile I_m(|k| R rho) is steep enough that 24 nodes leave an error
    above the roundoff floor (~6e-8); at R = 1 both errors are roundoff
    (~3e-14 and ~7e-14).  The floor guard keeps the ratio from sliding
    back into floor-versus-floor.  See the README, "Install and test".
    """
    R = V.DOUBLING_RADIUS
    e24 = V.bessel_error_at(grid, 24, R)
    e48 = V.bessel_error_at(grid, 48, R)
    ratio = e24 / max(e48, 1e-300)
    print(f"{'PASS' if ratio >= 1e3 and e24 >= V.DOUBLING_FLOOR else 'FAIL'} "
          f"criterion 1b: R={R:g} error(24)={e24:.3e} error(48)={e48:.3e} "
          f"ratio={ratio:.1f} (>= 1e3 required)")
    assert e24 >= V.DOUBLING_FLOOR, (
        f"error(24)={e24:.3e} is at the roundoff floor at R={R:g}, so the "
        "doubling ratio would compare roundoff with roundoff; the radius "
        "must grow (see the README, \"Install and test\")")
    assert ratio >= 1e3, (
        f"error(24)={e24:.3e} -> error(48)={e48:.3e} at R={R:g}: the radial "
        "discretization no longer gains 1e3 per doubling")


def test_criterion_01b_battery_check_matches(grid):
    """`jetwave verify` reports the 1b ratio from the same fixed inputs as
    the test above, whatever grid and radius the battery is configured
    with, and counts it as a real check."""
    R = V.DOUBLING_RADIUS
    e24 = V.bessel_error_at(grid, 24, R)
    e48 = V.bessel_error_at(grid, 48, R)
    (check,) = [c for c in V.check_dtn_convergence(1.0)
                if c.name == "dtn.convergence_24_48"]
    print(check.line())
    assert check.passed
    assert check.value == e24 / e48
    assert f"{e24:.3e} -> {e48:.3e}" in check.note


def test_criterion_01b_prefloor_doubling(grid):
    """The same >= 1e3 drop per doubling at the default radius R = 1, on
    6 -> 12 nodes: below the range where R = 1 reaches the roundoff floor."""
    e6 = V.bessel_error_at(grid, 6)
    e12 = V.bessel_error_at(grid, 12)
    ratio = e6 / max(e12, 1e-300)
    print(f"PASS criterion 1b(pre-floor): error(6)={e6:.3e} "
          f"error(12)={e12:.3e} ratio={ratio:.1e}")
    assert ratio >= 1e3


def test_criterion_02_self_adjointness_positivity(grid):
    """Asymmetry of <eta G ., .> below 1e-8 relative and E_k >= -1e-12 on
    100 seeded random smooth states with ||eta - R|| <= 0.2 R."""
    checks = V.check_dtn_structure(grid, 48, SEED, n_states=100)
    _report("criterion 2+3",
            [c for c in checks if c.name != "dtn.g_constant"])


def test_criterion_03_g_of_constants(grid):
    """G(eta) 1 = 0 to 1e-9 on the same ensemble."""
    checks = V.check_dtn_structure(grid, 48, SEED, n_states=20)
    _report("criterion 3", [c for c in checks if c.name == "dtn.g_constant"])


def test_criterion_04_shape_derivative(grid):
    """Central-FD agreement < 1e-5 at eps = 1e-4; FD order >= 1.9 over
    eps in {1e-3, 1e-4, 1e-5}."""
    _report("criterion 4", V.check_shape_derivative(grid, 48, SEED + 6))


def test_criterion_05_hamiltonian_variations(grid):
    """Both variational identities match central FD to < 1e-5 relative on
    20 seeded states."""
    _report("criterion 5",
            V.check_hamiltonian_variations(grid, 48, SEED + 8, n_states=20))


def test_criterion_06_symbol_identities(grid):
    """All symbol identities at their stated pointwise thresholds."""
    wanted = {
        "symbol.mu2_eq_a2_lambda1_sq", "symbol.mu2_two_paths",
        "symbol.p_times_lambda_eq_gamma_q", "symbol.q_sigma_mu2_eq_gamma_p",
        "symbol.im_lambda0", "symbol.im_mu1", "symbol.q0_equation",
        "symbol.lambda_parametrix", "symbol.poisson_gamma_mollifier",
    }
    checks = [c for c in V.check_symbols(grid) if c.name in wanted]
    assert len(checks) == len(wanted)
    _report("criterion 6", checks)


def test_criterion_07_symbol_tail(grid):
    """|Lambda - lambda1 - lambda0| decays with log-log slope <= -0.9 over
    4 <= |xi| <= 14 at constant radius."""
    _report("criterion 7", V.check_symbol_vs_bessel(grid))


def test_criterion_08_rayleigh_plateau():
    """Growth rate of (m=0, kR=0.5) within 1% of the closed form at
    R=1, sigma=2, amplitude 1e-6; (m=2, k=0) oscillates at
    omega^2 = sigma m (m^2-1)/(2R^3) within 1%."""
    checks = V.check_plateau_growth() + V.check_plateau_oscillation()
    _report("criterion 8", checks)


def test_criterion_09_conservation():
    """Hamiltonian drift < 1e-6 and volume drift < 1e-8 over T = 1 of the
    bare RK4 flow."""
    _report("criterion 9", V.check_conservation())


def test_criterion_10_bony(grid):
    """Reconstruction ab = T_a b + T_b a + R(a,b) to 1e-12; constant-shift
    invariance of T_a, exact."""
    _report("criterion 10", V.check_bony(grid, SEED + 2))


def test_criterion_11_paralinearization(grid):
    """Relative L2 residual of G psi - T_lambda U + T_V . grad_bar eta
    below 0.05 on the documented family."""
    _report("criterion 11", V.check_paralinearization(grid, 48, SEED + 10))


def test_criterion_12_rk4(grid):
    """RK4 self-convergence order >= 3.9; one-step z-translation
    equivariance < 1e-11."""
    _report("criterion 12", V.check_rk4())
