"""Battery checks on grids coarser or longer than desk scale."""

import warnings

from jetwave import verification as V
from jetwave.spectral import TAU, TorusGrid


def test_coarse_long_period_checks_pass_without_warnings():
    """On the 8 x 8, 4 pi grid of configs/rayleigh_plateau.ini the
    paralinearization family's annulus is empty and the symbol tail has one
    shell; both checks run at desk scale, and the convergence check on its
    own 32 x 32 grid, so each passes with no exception or warning."""
    grid = TorusGrid(8, 8, 2 * TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = (V.check_paralinearization(grid, 24, 10)
                  + V.check_symbol_vs_bessel(grid)
                  + V.check_dtn_convergence())
    assert [c.name for c in checks if not c.passed] == []


def test_bessel_error_keeps_lattice_modes():
    """At z_period 4 pi the fixed integer k are lattice indices 2k: only
    the resolved ones enter, so the error is the solver's, not aliasing."""
    assert V.bessel_error_at(TorusGrid(16, 16, 2 * TAU), 24) < 1e-8
