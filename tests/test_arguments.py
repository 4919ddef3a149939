"""Every public entry point refuses a bool, NaN or infinity in a numeric parameter by name.

ROWS gives each public callable valid keyword arguments. Its numeric
parameters are those annotated int or float; each is set in turn to True,
nan, inf and -inf, and the call must raise the row's exception class with the
parameter's name in the message, unless the row documents the result instead.
"""

import inspect
import math
import re

import numpy as np
import pytest

import hessint as h

E = h.Ellipticity(3, 2.0, 1)
P = h.RadialProfile(3, 3.0, 0.1, 1.0, 2.0)
GRID = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 9)
THETA = h.theta_field(GRID, 4.0)
HOSTILE = {"True": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
NUMERIC = {"int", "float", "float | None"}


def row(errors=h.DomainError, documented=None, **kwargs):
    # errors: one exception class, or a {parameter: class} map; documented:
    # {(parameter, hostile label): predicate on the value returned}
    return kwargs, errors, documented or {}


ROWS = {
    "lambert_w0": row(z=1.0),
    "lambert_wm1": row(z=-0.2),
    "ratio_a": row(u=1.0),
    "wm1_envelope_bounds": row(u=1.0),
    "Ellipticity": row(n=3, ratio=2.0, k=1),
    "abstract_lower": row(n=3, ratio=2.0),
    "ass_conjecture": row(ratio=2.0),
    "c_lower_bound": row(e=E),
    "c_star": row(e=E),
    "closed_form_lower": row(e=E),
    "compute_report": row(e=E),
    "epsilon_global": row(e=E),
    "epsilon_interior": row(e=E),
    "epsilon_upper": row(n=3, ratio=2.0),
    "gamma_star": row(n=3),
    "global_rho_j": row(j=1, e=E),
    "phi": row(gamma=0.5, c=0.5, n=3),
    "phi_lower": row(gamma=0.5, c=0.5, n=3),
    "pucci_c": row(e=E),
    "refined_lower": row(e=E),
    "rho_for_beta": row(n=3, beta=2.0),
    "tau": row(n=3),
    "t0_maximizer": row(n=3, ratio=2.5),
    "thresholds": row(alpha=0.01, e=E),
    "GridFunction": row(h.GridFormatError, dim=2, shape=(9, 9), spacing=0.25,
                        center=(0.0, 0.0), domain_radius=1.0, values=GRID.values),
    "a_convex_envelope": row(v=GRID, a=1.0),
    "convex_envelope": row(w=GRID),
    "decay_experiment": row(v=GRID, delta=0.1, levels=2, e=E),
    "grid_from_callable": row(f=lambda p: p[:, 0], dim=2, points_per_axis=9),
    "tail_distribution": row(theta=THETA, restrict_radius=0.5,
                             t_grid=np.geomspace(0.1, 4.0, 5)),
    # bisect_tol is accepted and ignored (theta_field's docstring)
    "theta_field": row(documented={("bisect_tol", label): lambda out: isinstance(out, h.ThetaField)
                                   for label in HOSTILE}, v=GRID, a_max=4.0),
    "RadialProfile": row(n=3, alpha=1.0, R=0.1, lam=1.0, Lam=2.0),
    "build_v": row(p=P, grid=GRID),
    "capped_bump": row(p=P, points_per_axis=9),
    "divergence_scan": row(n=3, ratio=2.0, epsilon=0.7, m_range=[3, 4]),
    "hessian_eigenvalues": row(p=P, r=0.05),
    "lattice_admissible_radius": row(dim=2, m=3),
    "lattice_ball_count": row({"dim": h.DomainError, "R": h.GeometryError}, dim=2, R=0.1),
    "lp_lower_bound": row(p=P, epsilon=0.7),
    "pucci_minus": row(p=P, r=0.05),
    "theta_lower": row(p=P, r=0.05),
    # u = 0 for r >= R, as u_value's docstring says
    "u_value": row(documented={("r", "inf"): lambda out: out == 0.0}, p=P, r=0.05),
}

# names in hessint.__all__ that take no argument of their own: results,
# exceptions, the branch tag and constants
NOT_ENTRY_POINTS = {
    "BranchValue", "ExponentReport", "T0Result", "ThresholdData", "EnvelopeResult",
    "ThetaField", "TailDistribution", "DecayReport", "DivergenceScan",
    "AdmissibilityError", "ConditionError", "DegenerateData", "DomainError",
    "GeometryError", "GridFormatError", "OptimizationError",
    "Branch", "BRACKET_RATIO_MAX", "__version__",
}


def numeric_parameters(name):
    params = inspect.signature(getattr(h, name)).parameters.values()
    return [p.name for p in params if p.annotation in NUMERIC]


CASES = [(name, param, label) for name in ROWS for param in numeric_parameters(name)
         for label in HOSTILE]


@pytest.mark.parametrize("name, param, label", CASES, ids=["-".join(c) for c in CASES])
def test_hostile_number_is_refused_by_name(name, param, label):
    kwargs, errors, documented = ROWS[name]
    fn, args = getattr(h, name), {**kwargs, param: HOSTILE[label]}
    if (param, label) in documented:
        assert documented[param, label](fn(**args))
        return
    error = errors.get(param, h.DomainError) if isinstance(errors, dict) else errors
    with pytest.raises(error) as info:
        fn(**args)
    assert re.search(rf"\b{param}\b", str(info.value)), str(info.value)


def test_every_public_name_declares_its_rule():
    # a new public callable needs a row, and a new result type a place in the list
    assert set(h.__all__) == set(ROWS) | NOT_ENTRY_POINTS
    assert not set(ROWS) & NOT_ENTRY_POINTS
    for name, (kwargs, _, _) in ROWS.items():
        getattr(h, name)(**kwargs)  # the valid arguments are valid


SEQUENCES = [
    ("capped_bump", "centre", (math.nan, 0.0)),
    ("capped_bump", "centre", (True, 0.0)),
    ("capped_bump", "centre", (np.bool_(True), 0.0)),
    ("capped_bump", "centre", (0.0, math.inf)),
    ("capped_bump", "centre", (0.0,) * 4),
    ("capped_bump", "centre", ()),
    ("capped_bump", "centre", 0.5),
    ("tail_distribution", "t_grid", [True, 2.0, 3.0]),
    ("tail_distribution", "t_grid", np.array([True, False])),
]


@pytest.mark.parametrize("name, param, value", SEQUENCES)
def test_sequence_with_a_hostile_entry_is_refused_by_name(name, param, value):
    # the tuple and array parameters outside the table: a bool entry must not
    # pass for 1.0, and a non-finite or misshapen centre is named
    kwargs, _, _ = ROWS[name]
    with pytest.raises(h.DomainError, match=rf"\b{param}\b"):
        getattr(h, name)(**{**kwargs, param: value})
