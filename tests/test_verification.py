"""Battery checks on grids coarser or longer than desk scale."""

import warnings

import numpy as np

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


def test_long_period_identity_checks_keep_desk_resolution():
    """At z_period 4 pi the desk grid keeps 32 points per 2 pi in z, and the
    Hamiltonian check runs on it too: the eight checks that failed on
    configs/rayleigh_plateau.ini at half that axial resolution (or, for the
    Hamiltonian pair, on its 8 x 8 grid) pass at unchanged thresholds."""
    grid = TorusGrid(8, 8, 2 * TAU)
    assert V._desk(grid) == TorusGrid(32, 64, 2 * TAU)
    assert V._desk(TorusGrid(16, 16)) == TorusGrid(32, 32)
    checks = (V.check_curvature(grid, 3)
              + V.check_trace_identities(grid, 24, 5)
              + V.check_shape_derivative(grid, 24, 6)
              + V.check_hamiltonian_variations(grid, 24, 8, 1.0, 2.0,
                                               n_states=3)
              + V.check_symbols(grid, 1.0, 2.0))
    names = {c.name for c in checks}
    assert {"curvature.two_paths", "trace.b_formula", "trace.g_consistency",
            "shape_derivative.fd_agreement", "symbol.im_mu1",
            "symbol.q0_equation", "hamiltonian.variation_p",
            "hamiltonian.variation_eta"} <= names
    assert [c.name for c in checks if not c.passed] == []


def test_hamiltonian_variations_beyond_central_difference_accuracy():
    """State 291 on the desk grid puts the eta-variation's central difference
    at 1.66e-5 of the analytic value, over the 1e-5 threshold, from its
    O(eps^2) truncation alone; the Richardson step removes it."""
    checks = V.check_hamiltonian_variations(TorusGrid(32, 32), 48, 291,
                                            n_states=1)
    assert [c.name for c in checks if not c.passed] == []


def test_nan_in_a_later_state_fails(monkeypatch):
    """A NaN that reaches a running worst after a finite value makes the
    value NaN and fails the check, for the curvature and Hamiltonian
    ensembles alike."""
    grid = TorusGrid(32, 32)
    curvature = V.mean_curvature
    calls = []

    def nan_on_third_state(eta, method):
        calls.append(method)
        h = curvature(eta, method)
        return h * np.nan if len(calls) == 6 else h

    monkeypatch.setattr(V, "mean_curvature", nan_on_third_state)
    states = iter([(1.0, 1.0, 1.0, 1.0), (np.nan, 1.0, np.nan, 1.0)])
    monkeypatch.setattr(V, "hamiltonian_variations",
                        lambda *args: next(states))
    checks = (V.check_curvature(grid, 3)
              + V.check_hamiltonian_variations(grid, 8, 8, n_states=2))
    assert [c.name for c in checks] == ["curvature.two_paths",
                                        "hamiltonian.variation_p",
                                        "hamiltonian.variation_eta"]
    for c in checks:
        assert np.isnan(c.value) and not c.passed, c
