"""Discrete sliding-paraboloid laboratory on uniform ball grids.

A GridFunction samples a scalar function on a uniform grid over a ball. The
a-convex envelope of v is the supremum of all paraboloids of opening -a lying
below v; via the shift identity it equals ConvexEnvelope(v + (a/2)|x|^2) -
(a/2)|x|^2, so one convex-envelope engine serves every opening. The contact
set (where the envelope touches v) drives two experiments: the measure-decay
iteration in the opening, and the pointwise minimal opening Theta whose
super-level sets give the Hessian integrability tail.

Theta, the envelope's contact mask and the decay counts share one contact
test: the lifted sample is a vertex of a downward facet of the lower hull.
Samples strictly inside a flat facet touch yet count as contact only at larger a.
Theta comes exact from one hull of the samples lifted to (x, v, |x|^2/2) in
R^(d+2): contact at opening a is a direction inside a vertex's normal cone,
so Theta_i is the least c_q/c_v over the inward facet normals at sample i
(see theta_field), with both ends checked against the data by an LP-duality
certificate pair.

The convex envelope of the discrete point cloud is computed exactly, by one
routine for every dimension d = 1, 2, 3: the sampled points are lifted to
graph space, qhull builds their convex hull in R^(d+1), and the envelope at
every sample is the maximum over the supporting planes of the
downward-facing facets (each such plane minorizes the hull function globally
and is attained on its facet). A wholly flat lift is one facet whose vertices
are the x-hull corners, and its envelope is the data. qhull is not joggled:
if it raises on a lift that is not flat, or the samples do not span R^d, the
result is a GeometryError. An iterated direction-sweep scheme was
considered and rejected: it converges to the separately-convex envelope,
which on generic 2-D data sits order-one above the true envelope.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateData, DomainError, GeometryError, GridFormatError
from .exponent_bounds import Ellipticity, c_star

_VERTICAL_TOL = 1e-12
_AFFINE_RTOL = 1e-9
_CERT_RTOL = 1e-12
_CERT_BLOCK = 100_000  # elements per block of the primal certificate check
_QHULL_OPTIONS = ("Q0", "Qx")  # no pre-merge first, then merged facets


@dataclass
class GridFunction:
    """Scalar samples on a uniform axis-aligned grid covering a ball.

    Axis i coordinates are center[i] + (j - (shape[i]-1)/2) * spacing for
    j = 0..shape[i]-1. Samples outside the ball |x - center| <= domain_radius
    are flagged invalid by :meth:`inside_mask` and may hold NaN; all samples
    inside the ball must be finite.
    """

    dim: int
    shape: tuple
    spacing: float
    center: tuple
    domain_radius: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridFormatError(f"dim must be 1, 2 or 3, got {self.dim}")
        self.shape = tuple(int(s) for s in self.shape)
        if len(self.shape) != self.dim or min(self.shape) < 3:
            raise GridFormatError(f"shape {self.shape} invalid for dim {self.dim}")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise GridFormatError(f"spacing must be positive, got {self.spacing}")
        self.center = tuple(float(c) for c in self.center)
        if len(self.center) != self.dim:
            raise GridFormatError(f"center {self.center} invalid for dim {self.dim}")
        if not (self.domain_radius > 0.0 and math.isfinite(self.domain_radius)):
            raise GridFormatError(f"domain_radius must be positive, got {self.domain_radius}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.shape:
            raise GridFormatError(
                f"values shape {self.values.shape} does not match grid shape {self.shape}"
            )
        if not np.all(np.isfinite(self.values.ravel()[self.inside_mask().ravel()])):
            raise GridFormatError("values must be finite at all samples inside the ball")

    def axis_coords(self, i: int) -> np.ndarray:
        n = self.shape[i]
        return self.center[i] + (np.arange(n) - (n - 1) / 2.0) * self.spacing

    def points(self) -> np.ndarray:
        """All grid coordinates, row-major, shape (N, dim)."""
        axes = [self.axis_coords(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def inside_mask(self) -> np.ndarray:
        return self._coords()[2].reshape(self.shape)

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # points(), their squared distances to the centre and the inside flags,
        # all flat and from one meshgrid
        pts = self.points()
        d2 = ((pts - np.asarray(self.center)) ** 2).sum(axis=1)
        return pts, d2, d2 <= self.domain_radius ** 2 + 1e-12

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.dim

    def content_hash(self) -> str:
        h = hashlib.sha256()
        head = json.dumps({
            "dim": self.dim, "shape": list(self.shape), "spacing": self.spacing,
            "center": list(self.center), "domain_radius": self.domain_radius,
        }, sort_keys=True)
        h.update(head.encode())
        h.update(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        return h.hexdigest()

    def save(self, path, inline: bool | None = None) -> None:
        """Write the header JSON; values inline or in a float64 sidecar.

        The header holds dim/shape/spacing/center/domain_radius plus a payload
        field: either the row-major value list itself (NaN encoded as null) or
        a sidecar filename holding raw little-endian float64 in row-major
        order next to the header file.
        """
        path = Path(path)
        if inline is None:
            inline = self.values.size <= 4096
        header = {
            "dim": self.dim,
            "shape": list(self.shape),
            "spacing": self.spacing,
            "center": list(self.center),
            "domain_radius": self.domain_radius,
        }
        if inline:
            vals = self.values.ravel()
            header["payload"] = [None if not math.isfinite(x) else x for x in vals.tolist()]
        else:
            sidecar = path.stem + ".bin"
            header["payload"] = sidecar
            np.ascontiguousarray(self.values, dtype="<f8").tofile(path.parent / sidecar)
        path.write_text(json.dumps(header))

    @classmethod
    def load(cls, path) -> "GridFunction":
        path = Path(path)
        try:
            header = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise GridFormatError(f"cannot parse grid header {path}: {exc}") from exc
        if not isinstance(header, dict):
            raise GridFormatError(f"grid header {path} is not a JSON object")
        required = {"dim", "shape", "spacing", "center", "domain_radius", "payload"}
        missing = required - header.keys()
        if missing:
            raise GridFormatError(f"grid header {path} missing keys: {sorted(missing)}")
        shape, center = header["shape"], header["center"]
        if not (_is_int(header["dim"]) and isinstance(shape, list) and shape
                and all(_is_int(s) and s > 0 for s in shape)):
            raise GridFormatError(f"grid header {path}: dim and shape must be positive integers")
        if not (isinstance(center, list) and all(map(_is_number, center))
                and _is_number(header["spacing"]) and _is_number(header["domain_radius"])):
            raise GridFormatError(
                f"grid header {path}: spacing, center and domain_radius must be numbers")
        count = math.prod(shape)
        payload = header["payload"]
        if payload == "inline":
            # older writers kept the list under a sibling "values" key
            payload = header.get("values")
        if isinstance(payload, list):
            if len(payload) != count:
                raise GridFormatError(f"inline payload in {path} has wrong length")
            if not all(x is None or _is_number(x) for x in payload):
                raise GridFormatError(f"inline payload in {path} holds a non-number")
            vals = np.array([math.nan if x is None else float(x) for x in payload])
        elif isinstance(payload, str):
            if payload in ("", "..") or Path(payload).name != payload:
                raise GridFormatError(
                    f"sidecar {payload!r} in {path} must be a bare filename next to the header"
                )
            sidecar = path.parent / payload
            if not sidecar.exists():
                raise GridFormatError(f"sidecar {sidecar} referenced by {path} not found")
            vals = np.fromfile(sidecar, dtype="<f8")
            if vals.size != count:
                raise GridFormatError(
                    f"sidecar {sidecar} has {vals.size} values, expected {count}"
                )
        else:
            raise GridFormatError(f"grid header {path} has an unusable payload field")
        return cls(
            dim=header["dim"],
            shape=tuple(shape),
            spacing=float(header["spacing"]),
            center=tuple(float(c) for c in center),
            domain_radius=float(header["domain_radius"]),
            values=vals.reshape(shape),
        )


def _is_int(x) -> bool:
    # JSON integers only: bool is an int subclass, and true must not read as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def grid_from_callable(f, dim: int, points_per_axis: int, domain_radius: float = 1.0,
                       center: tuple | None = None, extent: float | None = None) -> GridFunction:
    """Sample f(points)->values on a fresh grid; NaN outside the ball."""
    if center is None:
        center = (0.0,) * dim
    if extent is None:
        extent = domain_radius
    spacing = 2.0 * extent / (points_per_axis - 1)
    shape = (points_per_axis,) * dim
    g = GridFunction(dim=dim, shape=shape, spacing=spacing, center=tuple(center),
                     domain_radius=domain_radius, values=np.zeros(shape))
    pts, _, inside = g._coords()
    vals = np.asarray(f(pts), dtype=np.float64).reshape(shape)
    g.values = np.where(inside.reshape(shape), vals, np.nan)
    return g


@dataclass
class EnvelopeResult:
    """Envelope values and the contact mask at one opening."""

    opening: float
    envelope: np.ndarray
    contact_mask: np.ndarray


@dataclass
class ThetaField:
    """Per-point minimal paraboloid opening with certified bounds.

    bracket_lo <= Theta <= bracket_hi, each end checked against the data (see
    theta_field); the two agree to rounding. theta is bracket_hi where
    converged (Theta <= a_max), and a_max where Theta exceeds a_max
    (converged False; tail counts treat such points as Theta > t for every
    t <= a_max). Samples outside the ball are NaN / False. interior flags
    points at least two cells away from the ball boundary; boundary-ring
    values are reported but carry extra discretization error.

    stats holds the engine's integer counters: hull_points, hull_facets,
    contact_facets (facets with c_v > 0), qhull_option (0 for "Q0", 1 for
    "Qx", -1 where no lifted hull is needed: a flat cloud, or one whose
    samples are all x-hull vertices), fallbacks (hull builds that raised or
    left a sample uncertified) and certified (samples whose two bounds
    agree).
    """

    theta: np.ndarray
    converged: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    interior: np.ndarray
    grid: GridFunction
    stats: dict = field(default_factory=dict)


@dataclass
class TailDistribution:
    """Super-level measures of Theta and the fitted power-law exponent.

    Iterates as (threshold, measure) pairs.
    """

    thresholds: np.ndarray
    measures: np.ndarray
    fitted_exponent: float

    def __iter__(self):
        return iter(zip(self.thresholds.tolist(), self.measures.tolist()))

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass
class DecayReport:
    """Non-contact measures along geometric openings vs the guaranteed ratio."""

    delta: float
    openings: np.ndarray
    counts: np.ndarray
    empirical_ratio: float
    theoretical_ratio: float


def _corners(points: np.ndarray) -> np.ndarray:
    """Indices of the x-hull vertices; GeometryError if the points do not span R^d."""
    n, d = points.shape
    if d == 1 or n == 1:
        return np.unique([points[:, 0].argmin(), points[:, 0].argmax()])
    try:
        return ConvexHull(points).vertices
    except QhullError as exc:
        raise GeometryError(f"the {n} samples inside the ball do not span R^{d}") from exc


def _affine_fit(A: np.ndarray, y: np.ndarray):
    """Least-squares coefficients of y on the columns of A, or None if they miss y."""
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if np.abs(A @ coef - y).max() > _AFFINE_RTOL * max(1.0, float(np.abs(y).max())):
        return None
    return coef


def _contact(points: np.ndarray, values: np.ndarray, a: float, need_values: bool):
    """Lower hull of values + (a/2)|x|^2: (a-convex envelope or None, contact mask).

    The mask marks vertices of downward facets; the envelope at each sample is
    the largest supporting plane of those facets. A flat lift is one facet
    whose vertices are the x-hull corners, and its envelope is the data.
    """
    n, d = points.shape
    shift = 0.5 * a * (points ** 2).sum(axis=1)
    lifted = values + shift
    on_hull = np.zeros(n, dtype=bool)
    try:
        hull = ConvexHull(np.column_stack([points, lifted]))
    except QhullError as exc:
        if _affine_fit(np.column_stack([points, np.ones(n)]), lifted) is None:
            raise GeometryError(f"qhull failed on a lift of {n} samples that is not flat") from exc
        on_hull[_corners(points)] = True
        return (lifted - shift if need_values else None), on_hull

    eqs = hull.equations
    lower = eqs[:, d] < -_VERTICAL_TOL
    if lower.any():
        on_hull[np.unique(hull.simplices[lower])] = True
    if not need_values:
        return None, on_hull

    env = np.full(n, -np.inf)
    E = eqs[lower]
    # z(x) = -(offset + n_x . x) / n_z, maximized over downward facets;
    # blockwise to bound the temporary at ~8 MB
    block = max(1, int(1_000_000 // max(1, n)))
    for s in range(0, len(E), block):
        chunk = E[s:s + block]
        z = -(chunk[:, :d] @ points.T + chunk[:, d + 1][:, None]) / chunk[:, d][:, None]
        env = np.maximum(env, z.max(axis=0))
    env = np.minimum(env, lifted)
    env[on_hull] = lifted[on_hull]
    return env - shift, on_hull


def convex_envelope(w: GridFunction) -> GridFunction:
    """Exact convex envelope of the sampled points inside the ball.

    The envelope is taken with respect to the discrete point set; it is
    idempotent and equals w for convex data. Samples outside the ball stay NaN.
    """
    pts, _, inside = w._coords()
    env_in, _ = _contact(pts[inside], w.values.ravel()[inside], 0.0, need_values=True)
    out = np.full(w.values.size, np.nan)
    out[inside] = env_in
    return GridFunction(dim=w.dim, shape=w.shape, spacing=w.spacing, center=w.center,
                        domain_radius=w.domain_radius, values=out.reshape(w.shape))


def a_convex_envelope(v: GridFunction, a: float) -> EnvelopeResult:
    """Envelope by paraboloids of opening -a and its contact set.

    Uses the shift identity: the a-convex envelope equals the convex envelope
    of v + (a/2)|x|^2 minus (a/2)|x|^2. Contact is the module's hull-vertex test.
    """
    if not (a >= 0.0 and math.isfinite(a)):
        raise DomainError(f"opening must be finite and >= 0, got {a}")
    pts, _, inside = v._coords()
    env_in, on_hull = _contact(pts[inside], v.values.ravel()[inside], a, need_values=True)

    envelope = np.full(v.values.size, np.nan)
    envelope[inside] = env_in
    contact = np.zeros(v.values.size, dtype=bool)
    contact[inside] = on_hull
    return EnvelopeResult(
        opening=float(a),
        envelope=envelope.reshape(v.shape),
        contact_mask=contact.reshape(v.shape),
    )


def theta_field(v: GridFunction, a_max: float, bisect_tol: float | None = None) -> ThetaField:
    """Exact minimal contact opening per point, from one hull in R^(d+2).

    Lift sample j to y_j = (x_j, v_j, q_j) with q = |x|^2/2. Sample i is in
    contact at opening a exactly when it strictly minimises v + a q - p.x over
    the cloud for some p, that is when (-p, 1, a) lies inside the normal cone
    of y_i in conv{y_j}. That cone is spanned by the inward normals
    c = (c_x, c_v, c_q) of the hull facets incident to i, so
    Theta_i = max(0, min c_q / c_v) over those facets with c_v > 0. Vertices
    of the x-hull have Theta = 0 exactly (a linear function exposes them at
    every opening). A cloud whose lift is flat (v = affine + c q) has
    Theta = max(0, -c) off those vertices.

    Both ends of every value are checked in numpy against the data:
    bracket_hi is an opening a whose paraboloid, with the slope read off the
    minimising facet, stays below all N samples (so Theta <= a), and
    bracket_lo is sum_k lam_k (v_i - v_k) for weights lam >= 0 on the other
    vertices of a minimising facet with sum lam_k dx_k = 0 and
    sum lam_k |dx_k|^2/2 = 1 (so Theta >= it, by LP duality). qhull runs
    without pre-merging ("Q0") first; if it raises or any certificate fails,
    the hull is rebuilt once with merged facets ("Qx"), and if that fails too
    GeometryError names the count of uncertified samples.

    theta is bracket_hi where it is at most a_max (converged), and a_max with
    converged False elsewhere. bisect_tol is accepted and ignored; it is
    removed with the benchmark revision that stops passing it (ROADMAP
    direction 2).
    """
    if not (a_max > 0.0 and math.isfinite(a_max)):
        raise DomainError(f"a_max must be positive, got {a_max}")

    pts, d2, inside = v._coords()
    lo, hi, stats = _exact_theta(pts[inside], v.values.ravel()[inside])
    converged = hi <= a_max

    def expand(arr_inside, fill, dtype):
        out = np.full(v.values.size, fill, dtype=dtype)
        out[inside] = arr_inside
        return out.reshape(v.shape)

    d_to_boundary = v.domain_radius - np.sqrt(d2)
    interior = (d_to_boundary >= 2.0 * v.spacing) & inside
    return ThetaField(
        theta=expand(np.where(converged, hi, a_max), np.nan, float),
        converged=expand(converged, False, bool),
        bracket_lo=expand(lo, np.nan, float),
        bracket_hi=expand(hi, np.nan, float),
        interior=interior.reshape(v.shape),
        grid=v,
        stats=stats,
    )


def _exact_theta(points: np.ndarray, values: np.ndarray):
    """Certified (lo, hi) bounds on Theta per sample, and the engine's counters."""
    n, d = points.shape
    q = 0.5 * (points ** 2).sum(axis=1)
    corners = _corners(points)
    stats = dict(hull_points=n, hull_facets=0, contact_facets=0, qhull_option=-1,
                 fallbacks=0, certified=n)
    if len(corners) == n:
        return np.zeros(n), np.zeros(n), stats
    cloud = np.column_stack([points, values, q])
    failed = n
    for k, option in enumerate(_QHULL_OPTIONS):
        try:
            hull = ConvexHull(cloud, qhull_options=option)
        except QhullError:
            # a flat lift, v = b.x + c q + e: Theta = max(0, -c) off the corners
            coef = (_affine_fit(np.column_stack([points, q, np.ones(n)]), values)
                    if k == 0 else None)
            if coef is not None:
                theta = np.full(n, max(0.0, -float(coef[-2])))
                theta[corners] = 0.0
                stats["fallbacks"] = 1
                return theta, theta, stats
            continue
        lo, hi, failed, contact_facets = _certified_theta(hull, cloud, d, corners)
        if failed == 0:
            stats.update(hull_facets=len(hull.simplices), contact_facets=contact_facets,
                         qhull_option=k, fallbacks=k)
            return lo, hi, stats
    raise GeometryError(f"Theta left {failed} of {n} samples uncertified with qhull options"
                        f" {' and '.join(_QHULL_OPTIONS)}")


def _certified_theta(hull, cloud: np.ndarray, d: int, corners: np.ndarray):
    """(lo, hi, failed count, contact facet count) from the hull's normal cones."""
    n = len(cloud)
    points, values, q = cloud[:, :d], cloud[:, d], cloud[:, d + 1]
    normal = -hull.equations[:, :d + 2]          # inward
    up = normal[:, d] > _VERTICAL_TOL
    simplices = hull.simplices[up]
    ratio = normal[up, d + 1] / normal[up, d]
    slope = normal[up, :d] / normal[up, d][:, None]

    # (sample, facet) incidences sorted by ratio within each sample
    owner = simplices.ravel()
    facet = np.repeat(np.arange(len(simplices)), d + 2)
    order = np.lexsort((ratio[facet], owner))
    owner, facet = owner[order], facet[order]
    touched, first = np.unique(owner, return_index=True)
    best = np.full(n, np.inf)
    best[touched] = ratio[facet[first]]

    lo = np.full(n, np.inf)
    hi = np.full(n, np.inf)

    # primal: the paraboloid of opening a = max(r, 0) and slope p at x_i stays
    # below every sample; slack_ij = K_i . (v_j, q_j, x_j, 1), blockwise
    r = best[touched]
    a = np.maximum(r, 0.0)
    x = points[touched]
    p = -(slope[facet[first]] + r[:, None] * x)
    m = a[:, None] * x + p
    const = -values[touched] + a * q[touched] + (p * x).sum(axis=1)
    K = np.column_stack([np.ones(len(r)), a, -m, const])
    feats = np.column_stack([values, q, points, np.ones(n)])
    scale = np.abs(K) @ np.abs(feats).max(axis=0) + np.abs(p).sum(axis=1) * np.abs(points).max()
    worst = np.empty(len(r))
    block = max(1, _CERT_BLOCK // n)
    for s in range(0, len(r), block):
        worst[s:s + block] = (K[s:s + block] @ feats.T).min(axis=1)
    hi[touched] = a

    # dual: on each facet tying the minimum, weights lam on its other d+1
    # vertices with sum lam dx = 0 and sum lam |dx|^2/2 = 1 prove Theta >= sum lam (v_i - v_k)
    tie = ratio[facet] <= best[owner] + _CERT_RTOL * np.maximum(1.0, np.abs(best[owner]))
    tie &= best[owner] > 0.0
    i, f = owner[tie], facet[tie]
    verts = simplices[f]
    others = verts[verts != i[:, None]].reshape(len(i), d + 1)
    dx = points[others] - points[i][:, None, :]
    M = np.concatenate([np.swapaxes(dx, 1, 2), 0.5 * (dx ** 2).sum(axis=2)[:, None, :]], axis=1)
    det = np.linalg.det(M)
    regular = np.abs(det) > _CERT_RTOL * np.prod(np.abs(M).sum(axis=2), axis=1)
    lam = np.zeros((len(i), d + 1))
    lam[regular] = np.linalg.inv(M[regular])[:, :, d]   # M lam = (0, ..., 0, 1)
    # clipped to lam >= 0, the weights must still solve the system
    lam = np.clip(lam, 0.0, None)
    resid = np.abs(np.einsum("pkl,pl->pk", M, lam) - np.eye(d + 1)[d]).max(axis=1)
    valid = regular & (resid <= _CERT_RTOL * np.maximum(1.0, lam.sum(axis=1)))
    bound = (lam * (values[i][:, None] - values[others])).sum(axis=1)
    lo_pos = np.full(n, -np.inf)
    np.maximum.at(lo_pos, i[valid], bound[valid])
    lo[touched] = np.where(r > 0.0, np.minimum(lo_pos[touched], a), 0.0)

    # every sample is in contact at a large enough opening, so one that no
    # facet with c_v > 0 touches fails too
    ok = np.zeros(n, dtype=bool)
    gap = np.where(r > 0.0, np.abs(a - lo_pos[touched]), 0.0)
    ok[touched] = (worst >= -_CERT_RTOL * scale) & (gap <= _CERT_RTOL * np.maximum(1.0, a))
    ok[corners] = True
    lo[corners] = hi[corners] = 0.0
    return lo, hi, int((~ok).sum()), int(up.sum())


def tail_distribution(theta: ThetaField, restrict_radius: float,
                      t_grid: np.ndarray) -> TailDistribution:
    """Measures |{Theta > t} ∩ B_restrict| and their log-log power-law fit.

    Non-converged points count as exceeding every threshold (their true
    Theta is only known to exceed a_max); thresholds above a_max would be
    uninformative there and trigger a warning.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0) or np.any(t_grid <= 0):
        raise DomainError("t_grid must be a strictly increasing positive 1-D array")
    g = theta.grid
    _, d2, inside = g._coords()
    region = ((d2 <= restrict_radius ** 2 + 1e-12) & inside).reshape(g.shape)
    field = theta.theta
    exceed_all = ~theta.converged
    nonconv = exceed_all & region
    if nonconv.any() and np.any(t_grid > float(np.nanmin(field[nonconv]))):
        # non-converged points carry theta = a_max; above that they would be
        # counted as exceeding without evidence
        warnings.warn("t_grid exceeds a_max; non-converged points dominate those entries",
                      stacklevel=2)
    measures = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        hit = region & (exceed_all | (np.nan_to_num(field, nan=-np.inf) > t))
        measures[i] = hit.sum() * g.cell_measure

    pos = measures > 0
    if pos.sum() >= 3:
        slope, _ = np.polyfit(np.log(t_grid[pos]), np.log(measures[pos]), 1)
    else:
        slope = math.nan
    return TailDistribution(thresholds=t_grid, measures=measures, fitted_exponent=float(slope))


def decay_experiment(v: GridFunction, delta: float, levels: int,
                     e: Ellipticity) -> DecayReport:
    """Non-contact measure along openings (1+delta)^j, j = 0..levels.

    counts[j] is the grid-cell measure of the ball minus the contact set at
    opening (1+delta)^j (the module's hull-vertex test); the least-squares
    geometric decay factor of the nonzero counts is compared with the
    guaranteed 1 - c*(1+1/delta)^-n.
    Raises DegenerateData (carrying the partial report) when fewer than 3
    counts are nonzero.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive, got {delta}")
    if not isinstance(levels, int) or levels < 2:
        raise DomainError(f"levels must be an integer >= 2, got {levels}")

    openings = (1.0 + delta) ** np.arange(levels + 1)
    pts, _, inside = v._coords()
    pts = pts[inside]
    base = v.values.ravel()[inside]
    counts = np.empty(levels + 1)
    for j, a in enumerate(openings):
        on_hull = _contact(pts, base, float(a), need_values=False)[1]
        counts[j] = (~on_hull).sum() * v.cell_measure

    theoretical = 1.0 - c_star(e) * (1.0 + 1.0 / delta) ** (-e.n)
    nz = counts > 0
    if nz.sum() < 3:
        partial = DecayReport(delta=float(delta), openings=openings, counts=counts,
                              empirical_ratio=math.nan, theoretical_ratio=theoretical)
        raise DegenerateData(
            f"only {int(nz.sum())} nonzero counts; need 3 for a decay fit", report=partial
        )
    slope, _ = np.polyfit(np.arange(levels + 1)[nz], np.log(counts[nz]), 1)
    return DecayReport(delta=float(delta), openings=openings, counts=counts,
                       empirical_ratio=float(math.exp(slope)), theoretical_ratio=theoretical)
