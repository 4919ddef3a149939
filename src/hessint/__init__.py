"""Quantitative Hessian-integrability bounds for fully nonlinear supersolutions.

Three layers: real Lambert W branches and the bracket lemma that seeds them
(special_functions), the closed-form and optimized exponent bounds built on
W_{-1} (exponent_bounds), and a discrete sliding-paraboloid laboratory for
measuring contact sets, minimal openings, and tail distributions on sampled
grids (envelope_lab), plus the radially symmetric sharpness construction
(counterexample). The `hessint` console script drives all of it.
"""

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
from .envelope_lab import (DecayReport, EnvelopeResult, GridFunction,
                           TailDistribution, ThetaField, a_convex_envelope,
                           convex_envelope, decay_experiment,
                           grid_from_callable, tail_distribution, theta_field)
from .counterexample import (DivergenceScan, RadialProfile, build_v,
                             divergence_scan, hessian_eigenvalues,
                             lattice_admissible_radius, lattice_ball_count,
                             lp_lower_bound, pucci_minus, theta_lower, u_value)

__version__ = "0.1.0"

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
    "DecayReport", "EnvelopeResult", "GridFunction", "TailDistribution",
    "ThetaField", "a_convex_envelope", "convex_envelope", "decay_experiment",
    "grid_from_callable", "tail_distribution", "theta_field",
    "DivergenceScan", "RadialProfile", "build_v", "divergence_scan",
    "hessian_eigenvalues", "lattice_admissible_radius", "lattice_ball_count",
    "lp_lower_bound", "pucci_minus", "theta_lower", "u_value",
    "__version__",
]
