"""Discrete sliding-paraboloid laboratory on uniform ball grids.

A GridFunction samples a scalar function on a uniform grid over a ball. The
a-convex envelope of v is the supremum of all paraboloids of opening -a lying
below v; via the shift identity it equals ConvexEnvelope(v + (a/2)|x|^2) -
(a/2)|x|^2, so one convex-envelope engine serves every opening. The contact
set (where the envelope touches v) drives two experiments: the measure-decay
iteration in the opening, and the pointwise minimal opening Theta whose
super-level sets give the Hessian integrability tail.

Theta, decay and the envelope read one cloud per experiment (_ball_cloud):
the rows (x, v, q), q = |x|^2/2, of the samples inside the ball, with x
taken about the grid's centre. Its lift at opening a is (x, v + a q)
(_lift), and a paraboloid of opening a touches v from below at a sample
exactly when the lifted sample is a vertex of a downward facet of the lower
hull: the one contact test of Theta, the envelope's contact mask and the
decay counts. Samples strictly inside a flat facet touch yet count as
contact only at larger a. Moving x by a constant changes the lift by an
affine function only, so no result depends on where the grid sits.

All of them come from qhull hulls, built by _lifted_hull with one qhull
policy and one counter set. The lower hull of the lift in R^(d+1),
d = 1, 2, 3, gives the contact mask and the exact a-convex envelope: at
every sample, the maximum over the supporting planes of the downward-facing
facets (each minorizes the hull function globally and is attained on its
facet). The hull of the cloud itself in R^(d+2) gives Theta exactly, read
off its facet normals and certified by LP duality (see theta_field). An
iterated direction-sweep scheme was considered and rejected: it converges to
the separately-convex envelope, which on generic 2-D data sits order-one
above the true envelope.

The samples at the grid's minimum (the floor) are in contact at every
opening a > 0, so they need no hull: Theta and decay hull only the samples
within _NEAR_CELLS cells of the rest, and check what that hull proposes
against every sample with one support certificate (_support_margin). The
paraboloid v_i + p.(x - x_i) - (a/2)|x - x_i|^2 stays below every other
sample exactly when the plane through the lifted sample (x_i, v_i + a q_i)
with slope p + a x_i stays below every other lifted sample: Theta proposes
the paraboloid, decay the plane. The full hull decides only where that
neighbourhood holds over _NEAR_SHARE of the samples or leaves any undecided.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (DegenerateData, DomainError, GeometryError, GridFormatError, is_int,
                     is_number, require_finite, require_int, require_positive)
from .exponent_bounds import Ellipticity, c_star

_VERTICAL_TOL = 1e-12
_AFFINE_RTOL = 1e-9
_CERT_RTOL = 1e-12
# rows per block of the certificate checks (_least_slack): a few rows keep each
# block a BLAS matrix product (1-row blocks at 257^2 were 4x slower) and, at
# 8 x 12,853 columns (0.8 MB), in cache; Theta's and decay's checks on the
# 129^2 bump took 19-21 and 22-25 ms in 8-row blocks, 29 and 26-31 ms in 32
_CERT_ROWS = 8
# least eigenvalue of sum n n^T (unit facet normals at a vertex) that shows the
# vertex is an extreme point; inside a flat face it is zero up to rounding
_VERTEX_MARGIN = 1e-12
_LIFT_RESOLUTION = 4096  # K of the contact opening limit, see _require_resolved
# Theta and decay decide the samples off the floor (decay: out of contact at
# the last opening) from the hull of the samples within _NEAR_CELLS cells of
# them, unless those are over _NEAR_SHARE of all: past half, that hull and its
# checks cost about as much as the full hull (9 grids in 2-D and 3-D at
# openings 1.5^j)
_NEAR_CELLS = 2
_NEAR_SHARE = 0.5


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
        if not (is_int(self.dim) and 1 <= self.dim <= 3):
            raise GridFormatError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if not (isinstance(self.shape, Sequence) and len(self.shape) == self.dim
                and all(is_int(s) and s >= 3 for s in self.shape)):
            raise GridFormatError(f"shape must be {self.dim} ints >= 3, got {self.shape!r}")
        self.shape = tuple(self.shape)
        for name in ("spacing", "domain_radius"):
            x = getattr(self, name)
            if not (is_number(x) and 0.0 < x < math.inf):
                raise GridFormatError(f"{name} must be a finite positive number, got {x!r}")
            setattr(self, name, float(x))
        if not (isinstance(self.center, Sequence) and len(self.center) == self.dim
                and all(is_number(c) and math.isfinite(c) for c in self.center)):
            raise GridFormatError(f"center must be {self.dim} finite numbers, got {self.center!r}")
        self.center = tuple(float(c) for c in self.center)
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

    def _scatter(self, inside: np.ndarray, arr: np.ndarray, fill) -> np.ndarray:
        """arr at the flat sample indices flagged by inside, fill elsewhere, in grid shape."""
        out = np.full(self.values.size, fill, dtype=arr.dtype)
        out[inside] = arr
        return out.reshape(self.shape)

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # points(), their squared distances to the centre and the inside flags,
        # all flat and from one meshgrid
        pts = self.points()
        d2 = ((pts - np.asarray(self.center)) ** 2).sum(axis=1)
        return pts, d2, d2 <= self.domain_radius ** 2 * (1.0 + 1e-12)

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.dim

    def _header(self) -> dict:
        return {"dim": self.dim, "shape": list(self.shape), "spacing": self.spacing,
                "center": list(self.center), "domain_radius": self.domain_radius}

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self._header(), sort_keys=True).encode())
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
        header = self._header()
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
        if not (isinstance(shape, list) and shape and all(is_int(s) and s > 0 for s in shape)
                and isinstance(center, list)):
            raise GridFormatError(f"grid header {path}: shape and center must be lists of numbers")
        count = math.prod(shape)
        payload = header["payload"]
        if payload == "inline":
            # older writers kept the list under a sibling "values" key
            payload = header.get("values")
        if isinstance(payload, list):
            if len(payload) != count:
                raise GridFormatError(f"inline payload in {path} has wrong length")
            if not all(x is None or is_number(x) for x in payload):
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
        return cls(dim=header["dim"], shape=tuple(shape), spacing=header["spacing"],
                   center=tuple(center), domain_radius=header["domain_radius"],
                   values=vals.reshape(shape))


def grid_from_callable(f, dim: int, points_per_axis: int, domain_radius: float = 1.0,
                       extent: float | None = None) -> GridFunction:
    """Sample f(points)->values on [-extent, extent]^dim; NaN outside the ball about 0."""
    require_int("dim", dim, 1)
    require_int("points_per_axis", points_per_axis, 3)
    require_positive("domain_radius", domain_radius)
    if extent is None:
        extent = domain_radius
    require_positive("extent", extent)
    spacing = 2.0 * extent / (points_per_axis - 1)
    shape = (points_per_axis,) * dim
    g = GridFunction(dim=dim, shape=shape, spacing=spacing, center=(0.0,) * dim,
                     domain_radius=domain_radius, values=np.zeros(shape))
    pts, _, inside = g._coords()
    vals = np.asarray(f(pts), dtype=np.float64).reshape(shape)
    return replace(g, values=np.where(inside.reshape(shape), vals, np.nan))


@dataclass
class EnvelopeResult:
    """Envelope values and the contact mask at one opening.

    stats holds the counters of _lifted_hull (hull_calls, hull_points,
    q0_raised), q0_rejected (see _contact) and lower_facets, the downward
    facets of the hull used (0 for a flat lift).
    """

    opening: float
    envelope: np.ndarray
    contact_mask: np.ndarray
    stats: dict = field(default_factory=dict)


@dataclass
class ThetaField:
    """Per-point minimal paraboloid opening with certified bounds.

    bracket_lo <= Theta <= bracket_hi, each end checked against the data (see
    theta_field); the two agree to rounding. theta is bracket_hi at every
    sample; converged flags Theta <= a_max, for the benchmark's Theta check
    (see theta_field). Samples outside the ball are NaN / False. interior
    flags points at least two cells away from the ball boundary; boundary-ring
    values are reported but carry extra discretization error.

    stats holds the counters of _lifted_hull (hull_calls, hull_points,
    q0_raised) summed over the neighbourhood's and the full hull's builds,
    hull_facets and contact_facets (facets of the hull used, and those with
    c_v > 0; 0 without a lifted hull), certified (all samples) and floor (the
    samples at the minimum, decided without a hull).
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
    """Non-contact measures along geometric openings vs the guaranteed ratio.

    stats sums the hull engine's counters (as in EnvelopeResult) over the
    hulls built: each neighbourhood's and each opening's full hull where one
    decided; undecided counts the samples sent to a full hull, and floor the
    samples at the minimum, in contact at every opening without a hull (see
    decay_experiment).
    """

    delta: float
    openings: np.ndarray
    counts: np.ndarray
    empirical_ratio: float
    theoretical_ratio: float
    stats: dict = field(default_factory=dict)


def ConvexHull(points: np.ndarray, qhull_options: str | None = None):
    """scipy's qhull hull. scipy.spatial is imported on the first hull, not with
    hessint: its import costs 0.3-0.4 s that the scalar commands never use."""
    from scipy.spatial import ConvexHull as hull
    return hull(points, qhull_options=qhull_options)


def _qhull_error() -> type:
    """scipy's QhullError, for except clauses: they evaluate it only on the error path."""
    from scipy.spatial import QhullError
    return QhullError


def _corners(points: np.ndarray) -> np.ndarray:
    """Indices of the x-hull vertices; GeometryError if the points do not span R^d."""
    n, d = points.shape
    if d == 1 or n == 1:
        return np.unique([points[:, 0].argmin(), points[:, 0].argmax()])
    try:
        return ConvexHull(points).vertices
    except _qhull_error() as exc:
        raise GeometryError(f"the {n} samples inside the ball do not span R^{d}") from exc


def _lifted_hull(cloud: np.ndarray, d: int, stats: dict):
    """Hull of a lifted cloud: (hull, None), or (None, affine fit), counted into stats.

    Built with "Q0" (no pre-merge; merging the coplanar lifts of cocircular
    cells costs 2.5 times on the bump's contact hull, 10-25 times on Theta's),
    so a sample inside a flat face can come back as a vertex. If "Q0" raises,
    the lift is flat when column d is affine in the others plus a constant
    (last in the fit); else one merged hull is built. Counters: hull_calls,
    hull_points (raised builds included) and q0_raised (flat lifts included).
    """
    n = len(cloud)
    stats["hull_calls"] += 1
    stats["hull_points"] += n
    try:
        return ConvexHull(cloud, qhull_options="Q0"), None
    except _qhull_error():
        stats["q0_raised"] += 1
    A, y = np.column_stack([np.delete(cloud, d, axis=1), np.ones(n)]), cloud[:, d]
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    # the least-squares fit must reproduce y; a NaN residual (non-finite data) is not flat
    if np.abs(A @ coef - y).max() <= _AFFINE_RTOL * max(1.0, float(np.abs(y).max())):
        return None, coef
    return _merged_hull(cloud, stats), None


def _merged_hull(cloud: np.ndarray, stats: dict):
    """The "Qx" (merged facets) hull, counted into stats; no joggle: raising is a GeometryError."""
    stats["hull_calls"] += 1
    stats["hull_points"] += len(cloud)
    try:
        return ConvexHull(cloud, qhull_options="Qx")
    except _qhull_error() as exc:
        raise GeometryError(
            f"qhull failed on a lift of {len(cloud)} samples that is not flat") from exc


def _ball_cloud(v: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """The rows (x, v, |x|^2/2) of the samples inside the ball, x taken about the
    grid's centre, and the flat inside flags of all samples."""
    pts, _, inside = v._coords()
    x = pts[inside] - v.center
    return np.column_stack([x, v.values.ravel()[inside], 0.5 * (x ** 2).sum(axis=1)]), inside


def _lift(cloud: np.ndarray, a: float) -> np.ndarray:
    """The rows (x, v + a q) of cloud's rows (x, v, q): its lift at opening a."""
    return np.column_stack([cloud[:, :-2], cloud[:, -2] + a * cloud[:, -1]])


def _contact(cloud: np.ndarray, a: float, stats: dict):
    """Lower hull of cloud's lift at a and the contact mask: (hull, or None where flat, mask).

    The mask marks vertices of downward facets (the x-hull corners where the
    lift is flat: one facet). If _extreme_at refuses a "Q0" hull's marked
    vertices, the merged hull decides. Counts into stats: _lifted_hull's,
    q0_rejected (that rebuild) and lower_facets.
    """
    n, d = len(cloud), cloud.shape[1] - 2
    lifted = _lift(cloud, a)

    def lower_vertices(hull):
        mask = np.zeros(n, dtype=bool)
        mask[hull.simplices[hull.equations[:, d] < -_VERTICAL_TOL]] = True
        return mask

    raised = stats["q0_raised"]
    hull, _ = _lifted_hull(lifted, d, stats)
    if hull is None:
        on_hull = np.zeros(n, dtype=bool)
        on_hull[_corners(cloud[:, :d])] = True
        return None, on_hull
    on_hull = lower_vertices(hull)
    if stats["q0_raised"] == raised and not _extreme_at(hull, np.flatnonzero(on_hull)):
        stats["q0_rejected"] += 1
        hull = _merged_hull(lifted, stats)
        on_hull = lower_vertices(hull)
    stats["lower_facets"] += int((hull.equations[:, d] < -_VERTICAL_TOL).sum())
    return hull, on_hull


def _extreme_at(hull, verts: np.ndarray) -> bool:
    """Whether every hull vertex in verts is an extreme point of the cloud.

    A vertex is extreme exactly when the unit normals of the facets at it span
    R^D; at a point inside a flat face they lie in one proper subspace. So
    G_i = sum n n^T over every facet at vertex i (vertical ones included) must
    have its least eigenvalue above _VERTEX_MARGIN for each i in verts.
    It is not exact: just above an opening where the lift is flat, it refuses true vertices.
    """
    normals = hull.equations[:, :-1]
    D = normals.shape[1]
    owner = hull.simplices.ravel()
    G = np.empty((len(verts), D, D))
    for j, k in zip(*np.triu_indices(D)):
        weights = np.repeat(normals[:, j] * normals[:, k], D)
        G[:, j, k] = G[:, k, j] = np.bincount(owner, weights)[verts]
    return bool((np.linalg.eigvalsh(G)[:, 0] > _VERTEX_MARGIN).all())


def _least_slack(K: np.ndarray, cols: np.ndarray, extra=0.0,
                 skip: np.ndarray | None = None) -> np.ndarray:
    """Per row of K, the least entry of K @ cols over _CERT_RTOL times the row's scale.

    The scale is |K| @ max|cols| + extra. A margin >= -1 holds to rounding,
    one > 1 strictly. Row i leaves out column skip[i] when skip is given. In
    _CERT_ROWS row blocks.
    """
    worst = np.empty(len(K))
    for s in range(0, len(K), _CERT_ROWS):
        block = K[s:s + _CERT_ROWS] @ cols
        if skip is not None:
            block[np.arange(len(block)), skip[s:s + _CERT_ROWS]] = np.inf
        worst[s:s + _CERT_ROWS] = block.min(axis=1)
    return worst / (_CERT_RTOL * (np.abs(K) @ np.abs(cols).max(axis=1) + extra))


def _support_margin(cloud: np.ndarray, d: int, rows: np.ndarray, a: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    """Per sample i in rows, _least_slack's margin of the other samples over the
    paraboloid v_i + p.(x - x_i) - (a/2)|x - x_i|^2, cloud holding (x, v, q = |x|^2/2).

    It is also the margin of the lifted samples (x, v + a q) over the plane
    through sample i's lift with slope p + a x_i.
    """
    n = len(cloud)
    points, values, q = cloud[:, :d], cloud[:, d], cloud[:, d + 1]
    x = points[rows]
    # slack_ij = K_i . (v_j, q_j, x_j, 1); rows of cols contiguous: a transposed
    # (n, d+3) array made the 8-row products about 1.5 times slower
    const = -values[rows] + a * q[rows] + (p * x).sum(axis=1)
    K = np.column_stack([np.ones(len(rows)), a, -(a[:, None] * x + p), const])
    cols = np.vstack([values, q, points.T, np.ones(n)])
    return _least_slack(K, cols, np.abs(p).sum(axis=1) * np.abs(points).max(), skip=rows)


def _dilated(shape: tuple, at: np.ndarray, cells: int) -> np.ndarray:
    """Grid mask of the cells within `cells` steps along every axis of the flat indices at."""
    grid = np.zeros(shape, dtype=bool)
    grid.reshape(-1)[at] = True
    for axis in range(len(shape)):
        out = grid.copy()
        for s in range(1, cells + 1):
            up, down = [slice(None)] * len(shape), [slice(None)] * len(shape)
            up[axis], down[axis] = slice(s, None), slice(None, -s)
            out[tuple(up)] |= grid[tuple(down)]
            out[tuple(down)] |= grid[tuple(up)]
        grid = out
    return grid


def _near(shape: tuple, inside: np.ndarray, cand: np.ndarray):
    """Mask of the samples within _NEAR_CELLS cells of the samples cand, or None past _NEAR_SHARE.

    inside flags the samples on the grid; cand is a mask or indices over them.
    """
    near = _dilated(shape, np.flatnonzero(inside)[cand], _NEAR_CELLS).reshape(-1)[inside]
    return None if near.sum() > _NEAR_SHARE * len(near) else near


def _neighbourhood_contact(cloud: np.ndarray, a: float, cand: np.ndarray, near, stats: dict):
    """Contact at opening a of the samples cand, from the hull of the samples near, or None.

    near holds cand, or is None (_near's answer past _NEAR_SHARE), and the
    hull is _lifted_hull's of near's lift. A candidate is out of contact
    when it is no lower vertex and lies strictly inside every lower facet
    (more samples only lower the envelope), in contact when it is one and the
    plane normal to N, its lower facets' summed normal, passes the support
    certificate; both margins must exceed 1. None where near is None, its
    lift is flat or any candidate is undecided; stats["undecided"] counts
    those (all in the first two cases).
    """
    d = cloud.shape[1] - 2
    idx = None if near is None else np.flatnonzero(near)
    hull = None if idx is None else _lifted_hull(_lift(cloud[idx], a), d, stats)[0]
    if hull is None:
        stats["undecided"] += len(cand)
        return None
    lower = hull.equations[:, d] < -_VERTICAL_TOL
    E, simplices = hull.equations[lower], hull.simplices[lower]
    stats["lower_facets"] += len(E)
    local = np.searchsorted(idx, cand)
    vertex = np.zeros(len(idx), dtype=bool)
    vertex[simplices] = True
    vertex = vertex[local]

    # out of contact: -(n . p + offset) > 0 for every lower facet (unit n)
    K = -np.column_stack([_lift(cloud[cand[~vertex]], a), np.ones((~vertex).sum())])
    below = _least_slack(K, E.T) > 1.0

    # in contact: the plane normal to N has slope -N_x/N_z = p + a x_i
    owner = simplices.ravel()
    N = np.column_stack([np.bincount(owner, np.repeat(E[:, c], d + 1), len(idx))[local[vertex]]
                         for c in range(d + 1)])
    at = cand[vertex]
    p = -N[:, :d] / N[:, d:] - a * cloud[at, :d]
    above = _support_margin(cloud, d, at, np.full(len(at), a), p) > 1.0

    undecided = int((~below).sum() + (~above).sum())
    stats["undecided"] += undecided
    return None if undecided else vertex


def _require_resolved(a: float, cloud: np.ndarray, spacing: float, context: str = "") -> None:
    """DomainError unless a R^3 eps <= h^2/K, K = 4096 (R the largest |x| of the
    cloud, so about the grid's centre, h the spacing).

    Beyond, rounding at the lift's size a R^2/2 swamps a sample's gap to its neighbours'
    facets (about h^2/R): on 1-3-D grids contact first went wrong from K = 64 down to 10.
    """
    limit = spacing ** 2 / (_LIFT_RESOLUTION * np.finfo(float).eps)
    if a * float(np.sqrt(2.0 * cloud[:, -1].max())) ** 3 > limit:
        raise DomainError(f"opening {a:.6g}{context} is past the lift's resolution on this "
                          f"grid: contact needs a R^3 eps <= h^2/{_LIFT_RESOLUTION}")


def convex_envelope(w: GridFunction) -> GridFunction:
    """Exact convex envelope of the sampled points inside the ball.

    The envelope is taken with respect to the discrete point set; it is
    idempotent and equals w for convex data. Samples outside the ball stay NaN.
    """
    return replace(w, values=a_convex_envelope(w, 0.0).envelope)


def a_convex_envelope(v: GridFunction, a: float) -> EnvelopeResult:
    """Envelope by paraboloids of opening -a and its contact set.

    Uses the shift identity: the a-convex envelope equals the convex envelope
    of v + (a/2)|x|^2 minus (a/2)|x|^2, x about the grid's centre (see the
    module docstring). Contact is the module's hull-vertex test. An opening
    with a R^3 eps > h^2/4096, R the largest |x - center| and h the spacing,
    is past the lift's resolution: a DomainError (see _require_resolved).
    """
    require_finite("a", a, 0.0)
    cloud, inside = _ball_cloud(v)
    _require_resolved(a, cloud, v.spacing)
    stats = dict(hull_calls=0, hull_points=0, q0_raised=0, q0_rejected=0, lower_facets=0)
    hull, on_hull = _contact(cloud, a, stats)
    # the lift where it touches or is flat, elsewhere the largest plane of the
    # downward facets, z(x) = -(offset + n_x . x) / n_z, in blocks of ~8 MB
    d = v.dim
    shift = a * cloud[:, d + 1]
    env = cloud[:, d] + shift
    if hull is not None:
        off = ~on_hull
        off_pts = cloud[off, :d]
        best = np.full(len(off_pts), -np.inf)
        E = hull.equations[hull.equations[:, d] < -_VERTICAL_TOL]
        block = max(1, int(1_000_000 // max(1, len(off_pts))))
        for s in range(0, len(E), block):
            chunk = E[s:s + block]
            z = -(chunk[:, :d] @ off_pts.T + chunk[:, d + 1][:, None]) / chunk[:, d][:, None]
            best = np.maximum(best, z.max(axis=0))
        env[off] = np.minimum(best, env[off])
    return EnvelopeResult(opening=float(a), envelope=v._scatter(inside, env - shift, np.nan),
                          contact_mask=v._scatter(inside, on_hull, False), stats=stats)


def theta_field(v: GridFunction, a_max: float, bisect_tol: float | None = None) -> ThetaField:
    """Exact minimal contact opening per point, from hulls in R^(d+2) checked against the data.

    Sample j is the cloud's row y_j = (x_j, v_j, q_j) (see _ball_cloud). Sample i is in
    contact at opening a exactly when it strictly minimises v + a q - p.x over
    the cloud for some p, that is when (-p, 1, a) lies inside the normal cone
    of y_i in conv{y_j}. That cone is spanned by the inward normals
    c = (c_x, c_v, c_q) of the hull facets incident to i, so
    Theta_i = max(0, min c_q / c_v) over those facets with c_v > 0. Vertices
    of the x-hull have Theta = 0 exactly (a linear function exposes them at
    every opening), and so do the samples at the grid's minimum, the floor:
    v_j + (a/2)|x_j - x_i|^2 > v_i for every other j at every a > 0. A
    cloud whose lift is flat (v = affine + c q) has Theta = max(0, -c) off
    the x-hull vertices.

    The floor needs no hull. The others are proposed by the hull of the
    samples within _NEAR_CELLS cells of them (a cloud with fewer
    constraints, whose normal cones can only be wider), unless those hold
    over _NEAR_SHARE of all, and by the full hull where that leaves any
    sample uncertified. Both ends of every proposal are checked in numpy
    against all N samples: bracket_hi is an opening a whose paraboloid, with
    the slope read off the minimising facet, stays below every sample (so
    Theta <= a), and bracket_lo is sum_k lam_k (v_i - v_k) for weights
    lam >= 0 on the other vertices of a minimising facet with
    sum lam_k dx_k = 0 and sum lam_k |dx_k|^2/2 = 1 (so Theta >= it, by LP
    duality). GeometryError names the count the full hull leaves uncertified.

    theta is bracket_hi at every sample. a_max only sets converged
    (Theta <= a_max), which the benchmark's Theta check reads, and bisect_tol
    is accepted and ignored, as the benchmark's self-test passes it
    positionally; both go with the benchmark revision (ROADMAP direction 1).
    """
    require_positive("a_max", a_max)

    cloud, inside = _ball_cloud(v)
    d = v.dim
    floor = cloud[:, d] == cloud[:, d].min()
    lo, hi, stats = _exact_theta(cloud, floor, _near(v.shape, inside, ~floor))
    interior = v.domain_radius - np.sqrt(2.0 * cloud[:, d + 1]) >= 2.0 * v.spacing
    return ThetaField(
        theta=v._scatter(inside, hi, np.nan),
        converged=v._scatter(inside, hi <= a_max, False),
        bracket_lo=v._scatter(inside, lo, np.nan),
        bracket_hi=v._scatter(inside, hi, np.nan),
        interior=v._scatter(inside, interior, False),
        grid=v,
        stats=stats,
    )


def _exact_theta(cloud: np.ndarray, floor: np.ndarray, near):
    """Certified (lo, hi) bounds on Theta per sample of cloud, and the counters (see ThetaField).

    floor flags samples at the minimum; near flags the samples whose hull
    proposes first, or is None (the full hull only).
    """
    n, d = len(cloud), cloud.shape[1] - 2
    corners = _corners(cloud[:, :d])
    stats = dict(hull_calls=0, hull_points=0, q0_raised=0)
    no_hull = dict(hull_facets=0, contact_facets=0, certified=n, floor=int(floor.sum()))
    need = ~floor
    need[corners] = False
    if not need.any():
        # Theta = 0 on the floor and at every x-hull vertex; with no sample
        # left, the cloud may span no hull (constant data, four square corners)
        return np.zeros(n), np.zeros(n), stats | no_hull
    for idx in ([] if near is None else [np.flatnonzero(near)]) + [np.arange(n)]:
        hull, coef = _lifted_hull(cloud[idx], d, stats)
        if hull is None:
            if len(idx) < n:
                continue        # a flat neighbourhood proposes nothing
            # a flat lift, v = b.x + c q + e: Theta = max(0, -c) off the corners
            theta = np.full(n, max(0.0, -float(coef[-2])))
            theta[corners] = 0.0
            return theta, theta, stats | no_hull
        rows, r, slope, dual, contact_facets = _theta_proposals(hull, idx, cloud, d, need)
        # hi = max(r, 0) holds where its paraboloid, with the proposal's slope,
        # passes the support certificate; lo, the dual bound capped at hi where
        # r > 0 (else 0), must agree with it. A sample no facet with c_v > 0
        # touches fails: every sample is in contact at a large enough opening
        lo, hi, ok = np.zeros(n), np.zeros(n), ~need
        hi[rows] = a = np.maximum(r, 0.0)
        lo[rows] = np.where(r > 0.0, np.minimum(dual, a), 0.0)
        gap = np.where(r > 0.0, np.abs(a - dual), 0.0)
        p = -(slope + r[:, None] * cloud[rows, :d])
        ok[rows] = ((_support_margin(cloud, d, rows, a, p) >= -1.0)
                    & (gap <= _CERT_RTOL * np.maximum(1.0, a)))
        failed = int((~ok).sum())
        if not failed:
            return lo, hi, stats | no_hull | dict(hull_facets=len(hull.simplices),
                                                  contact_facets=contact_facets)
    raise GeometryError(f"Theta left {failed} of {n} samples uncertified")


def _theta_proposals(hull, idx: np.ndarray, cloud: np.ndarray, d: int, need: np.ndarray):
    """Theta proposed by the hull of cloud[idx] at the samples need flags that it touches.

    Returns their indices into cloud (ascending), and per sample the least
    ratio r = c_q/c_v over its facets with c_v > 0, that facet's c_x/c_v and
    the dual bound: the largest sum_k lam_k (v_i - v_k) over the facets tying
    r, lam >= 0 on their other vertices with sum lam dx = 0 and
    sum lam |dx|^2/2 = 1 (-inf where no weights hold). Then the count of
    facets with c_v > 0.
    """
    n = len(cloud)
    points, values = cloud[:, :d], cloud[:, d]
    normal = -hull.equations[:, :d + 2]          # inward
    up = normal[:, d] > _VERTICAL_TOL
    simplices = idx[hull.simplices[up]]
    ratio = normal[up, d + 1] / normal[up, d]
    slope = normal[up, :d] / normal[up, d][:, None]

    # (sample, facet) incidences of the samples need flags, sorted by ratio within each sample
    owner = simplices.ravel()
    facet = np.repeat(np.arange(len(simplices)), d + 2)
    mine = need[owner]
    owner, facet = owner[mine], facet[mine]
    order = np.lexsort((ratio[facet], owner))
    owner, facet = owner[order], facet[order]
    touched, first = np.unique(owner, return_index=True)
    best = np.full(n, np.inf)
    best[touched] = ratio[facet[first]]

    # on each facet tying the minimum, weights lam on its other d+1 vertices
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
    dual = np.full(n, -np.inf)
    np.maximum.at(dual, i[valid], bound[valid])
    return touched, best[touched], slope[facet[first]], dual[touched], int(up.sum())


def tail_distribution(theta: ThetaField, restrict_radius: float,
                      t_grid: np.ndarray) -> TailDistribution:
    """Measures |{Theta > t} ∩ B_restrict| and their log-log power-law fit.

    Theta is exact at every sample, so every t, above a_max too, counts the
    samples with theta > t. Raises DomainError unless restrict_radius is
    finite and positive and t_grid holds numbers (no bool) that are finite,
    positive and strictly increasing.
    """
    require_positive("restrict_radius", restrict_radius)
    if not all(is_number(t) for t in np.asarray(t_grid, dtype=object).ravel()):
        raise DomainError(f"t_grid must hold numbers (a bool is not one), got {t_grid!r}")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if (t_grid.ndim != 1 or len(t_grid) < 2 or not np.all(np.isfinite(t_grid))
            or np.any(np.diff(t_grid) <= 0) or np.any(t_grid <= 0)):
        raise DomainError("t_grid must be a strictly increasing, finite, positive 1-D array")
    g = theta.grid
    _, d2, inside = g._coords()
    region = ((d2 <= restrict_radius ** 2 * (1.0 + 1e-12)) & inside).reshape(g.shape)
    field = np.where(region, theta.theta, -np.inf)
    measures = np.array([(field > t).sum() * g.cell_measure for t in t_grid])

    pos = measures > 0
    if pos.sum() >= 3:
        slope, _ = np.polyfit(np.log(t_grid[pos]), np.log(measures[pos]), 1)
    else:
        slope = math.nan
    return TailDistribution(thresholds=t_grid, measures=measures, fitted_exponent=float(slope))


def _decay_masks(shape: tuple, inside: np.ndarray, cloud: np.ndarray, openings: np.ndarray,
                 stats: dict):
    """The contact mask at each opening in turn, as _contact's, counted into stats.

    Contact only grows with the opening: a plane strictly supporting the lift
    at a sample, plus ((a'-a)/2)(|x|^2 - |x - x_i|^2), which is affine,
    strictly supports it at every a' > a. The samples at the minimum (the
    floor) are in contact at every a > 0. So each opening decides only the
    samples out of contact before it, from the floor on, by the hull of those
    within _NEAR_CELLS grid cells of them (_neighbourhood_contact). Where that
    neighbourhood holds over _NEAR_SHARE of the samples, or leaves any of them
    undecided, the opening's full _contact decides.
    """
    d = cloud.shape[1] - 2
    on_hull = cloud[:, d] == cloud[:, d].min()
    stats["floor"] = int(on_hull.sum())
    if on_hull.all():
        _corners(cloud[:, :d])    # constant data builds no lifted hull, yet must span R^d
    for a in openings.tolist():
        if not on_hull.all():
            cand = np.flatnonzero(~on_hull)
            touched = _neighbourhood_contact(cloud, a, cand, _near(shape, inside, cand), stats)
            if touched is None:
                on_hull = _contact(cloud, a, stats)[1]
            else:
                on_hull = on_hull.copy()    # the mask yielded last stays as it was
                on_hull[cand[touched]] = True
        yield on_hull


def decay_experiment(v: GridFunction, delta: float, levels: int,
                     e: Ellipticity) -> DecayReport:
    """Non-contact measure along openings (1+delta)^j, j = 0..levels.

    counts[j] is the grid-cell measure of the ball minus the contact set at
    opening (1+delta)^j (the module's hull-vertex test); the least-squares
    geometric decay factor of the nonzero counts is compared with the
    guaranteed 1 - c*(1+1/delta)^-n.
    Contact only grows with the opening, and the samples at the minimum are in
    contact at every opening, so at each opening the hull of the samples near
    those still out of contact decides them, each decision certified in numpy
    (_decay_masks); an opening it leaves undecided gets its full hull. Every
    mask is the full hull's at that opening. An exception of any hull is
    raised as it is.
    Raises DegenerateData (carrying the partial report) when fewer than 3
    counts are nonzero, and DomainError if the last opening is too large.
    """
    require_positive("delta", delta)
    require_int("levels", levels, 2)

    openings = (1.0 + delta) ** np.arange(levels + 1)
    cloud, inside = _ball_cloud(v)
    _require_resolved(openings[-1], cloud, v.spacing, f" (delta={delta:g}, levels={levels})")
    stats = dict(hull_calls=0, hull_points=0, q0_raised=0, q0_rejected=0, lower_facets=0,
                 undecided=0)
    masks = _decay_masks(v.shape, inside, cloud, openings, stats)
    counts = np.array([(~on_hull).sum() * v.cell_measure for on_hull in masks])

    theoretical = 1.0 - c_star(e) * (1.0 + 1.0 / delta) ** (-e.n)
    nz = counts > 0
    if nz.sum() < 3:
        partial = DecayReport(delta=float(delta), openings=openings, counts=counts,
                              empirical_ratio=math.nan, theoretical_ratio=theoretical,
                              stats=stats)
        raise DegenerateData(
            f"only {int(nz.sum())} nonzero counts; need 3 for a decay fit", report=partial
        )
    slope, _ = np.polyfit(np.arange(levels + 1)[nz], np.log(counts[nz]), 1)
    return DecayReport(delta=float(delta), openings=openings, counts=counts,
                       empirical_ratio=float(math.exp(slope)), theoretical_ratio=theoretical,
                       stats=stats)
