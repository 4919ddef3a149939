"""Quantitative Hessian-integrability bounds for fully nonlinear supersolutions.

Three layers: real Lambert W branches and the bracket lemma that seeds them
(special_functions), the closed-form and optimized exponent bounds built on
W_{-1} (exponent_bounds), and a discrete sliding-paraboloid laboratory for
measuring contact sets, minimal openings, and tail distributions on sampled
grids (envelope_lab), plus the radially symmetric sharpness construction
(counterexample). The `hessint` console script drives all of it.

The first two layers are pure Python and are imported with the package. The
numpy layers, envelope_lab and counterexample, are imported on the first
access to one of their names (a module `__getattr__`, PEP 562), so
`import hessint` loads neither numpy nor scipy. A resolved name is stored in
the package's namespace, so later lookups are ordinary attribute reads.
"""

import importlib

from .errors import (AdmissibilityError, ConditionError, DegenerateData,
                     DomainError, GeometryError, GridFormatError,
                     OptimizationError)
from .special_functions import (Branch, BranchValue, lambert_w0, lambert_wm1,
                                ratio_a, wm1_envelope_bounds,
                                BRACKET_RATIO_MAX)
from .exponent_bounds import (Ellipticity, ExponentReport, T0Result,
                              ThresholdData, abstract_lower, ass_conjecture,
                              c_lower_bound, c_star, closed_form_lower,
                              compute_report, epsilon_global,
                              epsilon_interior, epsilon_upper, gamma_star,
                              global_rho_j, phi, phi_lower, pucci_c,
                              refined_lower, rho_for_beta, tau, t0_maximizer,
                              thresholds)

__version__ = "0.1.0"

# the public names of the numpy layers, by module, imported on first access
_LAZY = {
    "envelope_lab": ("DecayReport", "EnvelopeResult", "GridFunction", "TailDistribution",
                     "ThetaField", "a_convex_envelope", "convex_envelope",
                     "decay_experiment", "grid_from_callable", "tail_distribution",
                     "theta_field"),
    "counterexample": ("DivergenceScan", "RadialProfile", "build_v", "capped_bump",
                       "divergence_scan", "hessian_eigenvalues",
                       "lattice_admissible_radius", "lattice_ball_count",
                       "lp_lower_bound", "pucci_minus", "theta_lower", "u_value"),
}

__all__ = [
    "AdmissibilityError", "ConditionError", "DegenerateData", "DomainError",
    "GeometryError", "GridFormatError", "OptimizationError",
    "Branch", "BranchValue", "lambert_w0", "lambert_wm1", "ratio_a",
    "wm1_envelope_bounds", "BRACKET_RATIO_MAX",
    "Ellipticity", "ExponentReport", "T0Result", "ThresholdData", "abstract_lower",
    "ass_conjecture", "c_lower_bound", "c_star", "closed_form_lower",
    "compute_report", "epsilon_global", "epsilon_interior", "epsilon_upper",
    "gamma_star", "global_rho_j", "phi", "phi_lower", "pucci_c",
    "refined_lower", "rho_for_beta", "tau", "t0_maximizer", "thresholds",
    *(name for names in _LAZY.values() for name in names),
    "__version__",
]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value  # later lookups skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
