"""jetwave: pseudo-spectral simulation and verification toolbox for the
motion of a 3D capillary liquid jet under surface tension.

The package is organized around one module per subsystem:

* ``spectral``  -- Fourier analysis on the torus, dealiasing, dyadic blocks
* ``geometry``  -- mean curvature, energies and volume of the surface
* ``elliptic``  -- mapped Laplace solve and the Dirichlet-to-Neumann operator
* ``paradiff``  -- Bony paraproducts, paradifferential quantization
* ``symbols``   -- closed-form symbol calculus and the identity report
* ``evolution`` -- time integration, conservation tracking, dispersion
* ``cli``       -- configuration-driven command line entry points

The names below are loaded on first access (PEP 562), so importing the
package, or ``jetwave.cli``, loads no numeric module: the command line caps
the thread pools (JETWAVE_THREADS) before numpy starts them.  Each access
resolves the name from its submodule again, so a name rebound there (by a
tracer, say) is what the package hands out.
"""

import importlib

_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DomainViolationError",
               "EllipticityError", "JetwaveError"),
    "spectral": ("TAU", "DyadicDecomposition", "TorusField", "TorusGrid",
                 "band_limited_random", "dealiased_product", "dyadic_block",
                 "forward_transform", "integrate_product", "inverse_transform",
                 "low_pass", "nonlinear_eval", "spectral_derivative"),
    "geometry": ("SurfaceState", "enclosed_volume", "mean_curvature",
                 "modified_gradient", "potential_energy"),
    "elliptic": ("DtnSolver", "TraceBundle", "hamiltonian_variations",
                 "shape_derivative"),
    "paradiff": ("apply_paradiff", "bony_remainder", "good_unknown",
                 "paraproduct"),
    "symbols": ("HomogeneousSymbol", "lambda_symbol", "mollifier_symbol",
                "parametrix", "poisson_bracket", "sharp_compose",
                "symbol_identity_report"),
    "evolution": ("EvolutionConfig", "Trajectory", "bessel_dtn_eigenvalue",
                  "linearized_growth_rate", "rhs", "simulate", "step_rk4"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
