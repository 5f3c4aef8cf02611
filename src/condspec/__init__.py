"""condspec: condition spectra and pseudospectra of dense complex matrices.

Fix a matrix A and a level 0 < eps < 1.  The eps-condition spectrum is the
set of z where z*I - A is singular or has condition number at least 1/eps;
the eps-pseudospectrum is where the resolvent norm reaches 1/eps.  The
package computes both over complex-plane grids, extracts boundary
contours, constructs rank-one perturbation witnesses certifying
membership, and verifies a family of localization / growth / equivariance
theorems as executable checks.  Everything is measured in the spectral
(2-)norm.

Each public name resolves on first use (PEP 562), importing only the
module that defines it, so `import condspec` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# Each defining module and the public names it gives the package.
_EXPORTS = {
    "errors": ("CondspecError", "ConvergenceError", "GridResolutionError",
               "GridTooSmallError", "NotAMemberError", "ParseError", "PreconditionError"),
    "numkernel": ("ComplexMatrix", "EigenDecomposition", "SVDResult", "as_matrix",
                  "condition_number", "eigen_decomposition", "eigenvalues", "power_norms",
                  "spectral_norm", "svd"),
    "report": ("TheoremReport",),
    "spectra": ("CONDITION", "PSEUDO", "ContourLevel", "ContourSet", "GridSpec",
                "SpectralField", "auto_grid", "bounding_region", "component_count",
                "compute_field", "condition_number_at", "condition_spectral_radius",
                "distance_to_condition_spectrum", "extract_contours",
                "in_condition_spectrum", "in_pseudospectrum"),
    "theorems": ("NumericalRangeBoundary", "TransientConfig", "check_t1", "check_t2",
                 "check_t3", "check_t4", "check_t5", "check_t6", "check_t7", "check_t8",
                 "check_t9", "check_t10", "numerical_range_boundary", "run_suite"),
    "witness": ("Witness", "check_equivalence", "membership_from_perturbation",
                "witness_perturbation"),
    "matrixio": ("generate", "parse_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached: the defining module's attribute stays the one source.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
