import json
import re
import threading
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

import hessint as h
import hessint.envelope_lab as lab
from _oracles import (CertificateError, envelope_1d_bruteforce, envelope_certificates,
                      lp_envelope, theta_lp)

RNG = np.random.default_rng(20260819)


def ridge_1d(points_per_axis=101):
    return h.grid_from_callable(
        lambda p: np.abs(p[:, 0]) - 0.8 * (p ** 2).sum(axis=1) + 0.3 * np.sin(5.0 * p[:, 0]),
        1, points_per_axis, domain_radius=1.0)


def ridge_2d(points_per_axis=29):
    return h.grid_from_callable(
        lambda p: np.abs(p[:, 0]) - 0.5 * (p ** 2).sum(axis=1) + 0.2 * np.cos(6 * p[:, 1]),
        2, points_per_axis, domain_radius=1.0)


def test_gridfunction_validation():
    with pytest.raises(h.GridFormatError):
        h.GridFunction(dim=4, shape=(5,) * 4, spacing=0.1, center=(0.0,) * 4,
                       domain_radius=1.0, values=np.zeros((5,) * 4))
    with pytest.raises(h.GridFormatError):
        h.GridFunction(dim=1, shape=(2,), spacing=0.1, center=(0.0,),
                       domain_radius=1.0, values=np.zeros(2))
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(h.GridFormatError):
        h.GridFunction(dim=1, shape=(5,), spacing=0.1, center=(0.0,),
                       domain_radius=1.0, values=bad)
    valid = dict(dim=1, shape=(5,), spacing=0.1, center=(0.0,), domain_radius=1.0,
                 values=np.zeros(5))
    for key, wrong in (("spacing", 0.0), ("center", (0.0, 0.0)), ("domain_radius", 0.0),
                       ("values", np.zeros(4)), ("dim", 2.0)):
        with pytest.raises(h.GridFormatError, match=key):
            h.GridFunction(**{**valid, key: wrong})


def test_grid_from_callable_masks_outside():
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 21, domain_radius=0.7, extent=1.0)
    inside = g.inside_mask()
    assert np.isfinite(g.values[inside]).all()
    assert np.isnan(g.values[~inside]).all()


def test_grid_from_callable_rejects_non_finite_inside():
    def one_inf(p):
        v = -(p ** 2).sum(axis=1)
        v[len(v) // 2] = np.inf  # the centre sample
        return v
    with pytest.raises(h.GridFormatError):
        h.grid_from_callable(one_inf, 2, 17, domain_radius=1.0)


def test_theta_of_non_finite_values_is_geometry_error():
    # values changed after construction skip the grid's checks; Theta must
    # not certify such a cloud as flat
    g = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 17, domain_radius=1.0)
    g.values[8, 8] = np.inf
    with pytest.raises(h.GeometryError):
        h.theta_field(g, 10.0)


def test_save_load_inline(tmp_path):
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 9, domain_radius=1.0)
    path = tmp_path / "g.json"
    g.save(path)
    header = json.loads(path.read_text())
    assert set(header) >= {"dim", "shape", "spacing", "center", "domain_radius", "payload"}
    assert isinstance(header["payload"], list)
    assert h.GridFunction.load(path).content_hash() == g.content_hash()


def test_save_load_sidecar(tmp_path):
    g = h.grid_from_callable(lambda p: np.cos(3.0 * p[:, 0]), 2, 65, domain_radius=1.0)
    path = tmp_path / "big.json"
    g.save(path)  # 65^2 > inline cutoff
    header = json.loads(path.read_text())
    assert header["payload"] == "big.bin"
    assert (tmp_path / "big.bin").exists()
    assert h.GridFunction.load(path).content_hash() == g.content_hash()


def test_load_legacy_inline_marker(tmp_path):
    g = h.grid_from_callable(lambda p: p[:, 0], 1, 5, domain_radius=1.0)
    path = tmp_path / "g.json"
    g.save(path)
    header = json.loads(path.read_text())
    header["values"] = header["payload"]
    header["payload"] = "inline"
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(header))
    assert h.GridFunction.load(legacy).content_hash() == g.content_hash()


def test_load_errors(tmp_path):
    g = h.grid_from_callable(lambda p: p[:, 0], 1, 5, domain_radius=1.0)
    path = tmp_path / "g.json"
    g.save(path)
    header = json.loads(path.read_text())

    broken = dict(header)
    del broken["spacing"]
    p1 = tmp_path / "missing.json"
    p1.write_text(json.dumps(broken))
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p1)

    broken = dict(header)
    broken["payload"] = broken["payload"][:-1]
    p2 = tmp_path / "short.json"
    p2.write_text(json.dumps(broken))
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p2)

    broken = dict(header)
    broken["payload"] = "nowhere.bin"
    p3 = tmp_path / "orphan.json"
    p3.write_text(json.dumps(broken))
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p3)

    broken = dict(header)
    broken["payload"] = 7
    p4 = tmp_path / "junk.json"
    p4.write_text(json.dumps(broken))
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p4)

    np.zeros(4).tofile(tmp_path / "short.bin")
    broken = dict(header)
    broken["payload"] = "short.bin"
    p8 = tmp_path / "sidecar.json"
    p8.write_text(json.dumps(broken))
    with pytest.raises(h.GridFormatError, match="has 4 values, expected 5"):
        h.GridFunction.load(p8)

    # sidecars that exist with the right size, but are not a bare filename
    # next to the header
    np.zeros(5).tofile(tmp_path / "data.bin")
    (tmp_path / "sub").mkdir()
    np.zeros(5).tofile(tmp_path / "sub" / "dir.bin")
    (tmp_path / "hdr").mkdir()
    for where, payload in ((tmp_path, str(tmp_path / "data.bin")),
                           (tmp_path / "hdr", "../data.bin"),
                           (tmp_path, "sub/dir.bin")):
        broken = dict(header)
        broken["payload"] = payload
        p6 = where / "pathed.json"
        p6.write_text(json.dumps(broken))
        with pytest.raises(h.GridFormatError, match="bare filename"):
            h.GridFunction.load(p6)

    p5 = tmp_path / "notjson.json"
    p5.write_text("{nope")
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p5)

    # well-formed JSON with the wrong types: a usage error, never a traceback
    # or a silent conversion
    p7 = tmp_path / "typed.json"
    p7.write_text(json.dumps([header]))
    with pytest.raises(h.GridFormatError):
        h.GridFunction.load(p7)
    nested = [[x] for x in header["payload"]]
    for key, bad in (("shape", 3), ("shape", ["a"]), ("shape", [5.0]), ("dim", "two"),
                     ("payload", ["x"] * 5), ("payload", nested), ("spacing", None),
                     ("spacing", True), ("center", [True]), ("domain_radius", "1")):
        broken = dict(header)
        broken[key] = bad
        p7.write_text(json.dumps(broken))
        with pytest.raises(h.GridFormatError):
            h.GridFunction.load(p7)


def test_content_hash_tracks_values():
    g1 = h.grid_from_callable(lambda p: p[:, 0], 1, 5, domain_radius=1.0)
    g2 = h.grid_from_callable(lambda p: 2.0 * p[:, 0], 1, 5, domain_radius=1.0)
    assert g1.content_hash() != g2.content_hash()


def test_convex_envelope_affine_fixed_point():
    for dim in (1, 2):
        g = h.grid_from_callable(lambda p: 0.3 * p[:, 0] + 0.1, dim, 21, domain_radius=1.0)
        env = h.convex_envelope(g)
        inside = g.inside_mask()
        assert np.abs(env.values[inside] - g.values[inside]).max() <= 1e-12


def test_convex_envelope_concave_chord():
    g = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 1, 101, domain_radius=1.0)
    env = h.convex_envelope(g)
    assert np.abs(env.values[g.inside_mask()] + 1.0).max() <= 1e-12


def test_convex_envelope_double_well_vs_bruteforce():
    g = h.grid_from_callable(lambda p: p[:, 0] ** 4 - p[:, 0] ** 2, 1, 201, domain_radius=1.0)
    env = h.convex_envelope(g)
    x = g.points()[:, 0]
    oracle = envelope_1d_bruteforce(x, g.values.copy())
    assert np.abs(env.values - oracle).max() <= 1e-10


def test_convex_envelope_idempotent():
    g = ridge_1d()
    once = h.convex_envelope(g)
    twice = h.convex_envelope(once)
    assert np.abs(twice.values[g.inside_mask()] - once.values[g.inside_mask()]).max() <= 1e-10

    g2 = h.grid_from_callable(
        lambda p: np.abs(p[:, 0]) + np.sin(4.0 * p[:, 1]) * 0.2, 2, 33, domain_radius=1.0)
    once2 = h.convex_envelope(g2)
    twice2 = h.convex_envelope(once2)
    assert np.abs(twice2.values[g2.inside_mask()] - once2.values[g2.inside_mask()]).max() <= 1e-10


def test_convex_envelope_below_data_and_convex_unchanged():
    g = ridge_1d()
    env = h.convex_envelope(g)
    inside = g.inside_mask()
    assert (env.values[inside] <= g.values[inside] + 1e-12).all()

    conv = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 25, domain_radius=1.0)
    env2 = h.convex_envelope(conv)
    assert np.abs(env2.values[conv.inside_mask()] - conv.values[conv.inside_mask()]).max() <= 1e-10


def test_convex_envelope_2d_vs_lp_oracle():
    g = h.grid_from_callable(
        lambda p: np.cos(4.0 * np.sqrt((p ** 2).sum(axis=1))), 2, 21, domain_radius=1.0)
    env = h.convex_envelope(g)
    inside = g.inside_mask()
    pts = g.points()[inside.ravel()]
    vals = g.values[inside]
    oracle = lp_envelope(pts, vals, pts)
    assert np.abs(env.values[inside] - oracle).max() <= 1e-7


def test_envelope_certificates_vs_lp_oracle():
    g = h.grid_from_callable(
        lambda p: np.cos(4.0 * np.sqrt((p ** 2).sum(axis=1))), 2, 21, domain_radius=1.0)
    inside = g.inside_mask()
    pts = g.points()[inside.ravel()]
    vals = g.values[inside]
    assert len(pts) == 317
    lower, upper = envelope_certificates(pts, vals)
    oracle = lp_envelope(pts, vals, pts)
    assert np.abs(lower - oracle).max() <= 1e-7
    assert np.abs(upper - oracle).max() <= 1e-7

    lib = h.convex_envelope(g).values[inside]
    assert np.maximum(lib - lower, upper - lib).max() <= 1e-7
    # a wrong envelope at a single sample, on the hull or off it, is rejected
    for i in (0, int(np.argmax(vals - lib))):
        for bump in (1e-6, -1e-6):
            wrong = lib.copy()
            wrong[i] += bump
            assert np.maximum(wrong - lower, upper - wrong).max() > 1e-7


def test_envelope_certificates_refuse_flat_cloud():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(CertificateError):
        envelope_certificates(pts, pts @ np.array([0.5, -2.0]) + 1.0)


def test_a_convex_envelope_of_zero():
    g = h.grid_from_callable(lambda p: np.zeros(len(p)), 2, 25, domain_radius=1.0)
    res = h.a_convex_envelope(g, 3.0)
    inside = g.inside_mask()
    assert np.abs(res.envelope[inside]).max() <= 1e-10
    assert res.contact_mask[inside].all()
    assert res.opening == 3.0


def _corner_mask(pts):
    corners = np.zeros(len(pts), dtype=bool)
    if pts.shape[1] == 1:
        corners[[pts[:, 0].argmin(), pts[:, 0].argmax()]] = True
    else:
        corners[ConvexHull(pts).vertices] = True
    return corners


def test_a_convex_envelope_paraboloid_thresholds():
    a0 = 4.0
    g = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    inside = g.inside_mask()
    at = h.a_convex_envelope(g, a0)
    # the lift is flat at a0: one facet, whose vertices are the x-hull corners
    assert np.array_equal(at.contact_mask[inside], _corner_mask(g.points()[inside.ravel()]))

    below = h.a_convex_envelope(g, a0 / 2.0)
    r = np.sqrt((g.points() ** 2).sum(axis=1)).reshape(g.shape)
    core = inside & (r <= 0.8)
    assert not below.contact_mask[core].any()
    touched = below.contact_mask & inside
    assert touched.any()
    assert r[touched].min() >= 0.9  # contact survives only near the boundary ring


def test_flat_lift_contact_is_corners_in_every_dimension():
    # v = -(a0/2)|x|^2 + affine lifts flat at a0 and strictly convex above it;
    # just above a0 the vertex test refuses true vertices, whose facet normals
    # nearly share a plane, so the merged rebuild decides there
    a0 = 3.0
    for dim, n in ((1, 33), (2, 25), (3, 11)):
        g = h.grid_from_callable(
            lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1) + 0.3 * p[:, 0] - 0.2 * p[:, -1] + 1.0,
            dim, n, domain_radius=1.0)
        inside = g.inside_mask()
        at = h.a_convex_envelope(g, a0)
        assert np.array_equal(at.contact_mask[inside], _corner_mask(g.points()[inside.ravel()]))
        assert np.abs(at.envelope[inside] - g.values[inside]).max() <= 1e-12
        above = h.a_convex_envelope(g, a0 * (1.0 + 1e-9))
        assert above.contact_mask[inside].all(), dim
        assert (above.stats["hull_calls"], above.stats["q0_rejected"]) == (2, 1), dim


def test_qhull_failure_on_non_flat_lift_is_geometry_error(monkeypatch):
    def hull(cloud, qhull_options=None):
        raise QhullError("forced failure")
    monkeypatch.setattr(lab, "ConvexHull", hull)
    g = ridge_2d()
    with pytest.raises(h.GeometryError, match="not flat"):
        h.a_convex_envelope(g, 1.0)
    with pytest.raises(h.GeometryError, match="not flat"):
        h.decay_experiment(g, 1.0, 3, h.Ellipticity(2, 2.0, 1))


def test_samples_not_spanning_space_are_geometry_error():
    # on these grids only the two samples (0, ..., 0, +-1/2) lie inside the ball
    for shape in ((3, 4), (3, 3, 4)):
        g = h.GridFunction(dim=len(shape), shape=shape, spacing=1.0,
                           center=(0.0,) * len(shape), domain_radius=0.6,
                           values=np.zeros(shape))
        assert g.inside_mask().sum() == 2
        for run in (lambda: h.a_convex_envelope(g, 1.0),
                    lambda: h.convex_envelope(g),
                    lambda: h.theta_field(g, a_max=4.0),
                    lambda: h.decay_experiment(g, 1.0, 3, h.Ellipticity(2, 2.0, 1))):
            with pytest.raises(h.GeometryError, match="do not span"):
                run()


def test_contact_mask_matches_oracle_gap():
    # contact is exactly {lifted - L <= 1e-9 scale}, L an oracle envelope of the lift;
    # the openings are non-critical (no flat facet), so the off-hull gaps are >= 2e-4
    for g in (ridge_1d(81), ridge_2d()):
        inside = g.inside_mask()
        pts = g.points()[inside.ravel()]
        for a in (0.5, 2.0, 7.0):
            lifted = g.values[inside] + 0.5 * a * (pts ** 2).sum(axis=1)
            if g.dim == 1:
                lower = envelope_1d_bruteforce(pts[:, 0], lifted)
            else:
                lower, _ = envelope_certificates(pts, lifted)
            scale = max(1.0, float(np.abs(lifted).max()))
            contact = h.a_convex_envelope(g, a).contact_mask[inside]
            assert np.array_equal(contact, lifted - lower <= 1e-9 * scale)
            assert 0 < contact.sum() < len(contact)


def test_contact_mask_agrees_with_theta_brackets():
    # Theta and the contact mask share one predicate, and contact only grows
    # with a. At a = Theta a sample may sit inside a flat facet, which counts
    # as no contact (ridge_2d has 152 samples with Theta = 1, none in contact at a = 1),
    # so both sides are strict, by more than the brackets' rounding
    for g in (ridge_1d(81), ridge_2d()):
        inside = g.inside_mask()
        tf = h.theta_field(g, a_max=6.0)
        assert (tf.converged & inside).any() and (inside & ~tf.converged).any()
        for a in (0.3, 1.0, 2.5, 4.0, 6.0):
            contact = h.a_convex_envelope(g, a).contact_mask
            margin = 1e-12 * max(1.0, a)
            assert contact[inside & (tf.bracket_hi < a - margin)].all()
            assert not contact[inside & (tf.bracket_lo > a + margin)].any()


def _merged_mask(pts, lifted):
    # the contact mask read from qhull's default merged hull: the vertices of
    # its downward facets, or the x-hull corners where the lift is flat
    try:
        hull = ConvexHull(np.column_stack([pts, lifted]))
    except QhullError:
        return _corner_mask(pts)
    mask = np.zeros(len(pts), dtype=bool)
    mask[hull.simplices[hull.equations[:, -2] < -1e-12].ravel()] = True
    return mask


def _hull_corpus():
    # (grid, openings, the critical opening, (hull_calls, q0_raised, q0_rejected)
    # there): the paraboloid lifts flat at 4, so "Q0" raises and no rebuild
    # follows; the others have a flat face in the lift there, whose inner
    # samples fail the vertex check, so the hull is rebuilt
    parab = h.grid_from_callable(lambda p: -2.0 * (p ** 2).sum(axis=1), 2, 33)
    plateau = h.grid_from_callable(lambda p: np.maximum(-8.0 * (p ** 2).sum(axis=1), -1.0),
                                   2, 65)
    lattice = h.build_v(h.RadialProfile(3, 3.0, 0.125, 1.0, 2.0),
                        h.grid_from_callable(lambda p: np.zeros(len(p)), 2, 65))
    bump3 = h.capped_bump(h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 17, centre=(0.0, 0.0, 0.0))
    return [(parab, (2.0, 4.0, 8.0), 4.0, (1, 1, 0)),
            (plateau, (3.0, 16.0, 40.0), 16.0, (2, 0, 1)),
            (ridge_2d(), (0.5, 1.0, 2.0), 1.0, (2, 0, 1)),
            (lattice, (1.0, 2.0, 5.0), 2.0, (2, 0, 1)),
            (bump3, (0.0, 4.0), 0.0, (2, 0, 1))]


def test_contact_mask_equals_merged_hull():
    # the "Q0" hull is kept only where its marked vertices are extreme points,
    # so the mask is the merged hull's, at generic and at critical openings
    corpus = _hull_corpus()
    for g, openings, critical, counts in corpus:
        pts, _, inside = g._coords()
        pts, vals = pts[inside], g.values.ravel()[inside]
        for a in openings:
            _, mask, stats = lab._contact(pts, vals, a, need_values=False)
            lifted = vals + 0.5 * a * (pts ** 2).sum(axis=1)
            assert np.array_equal(mask, _merged_mask(pts, lifted)), (g.shape, a)
            assert (stats["hull_calls"], stats["q0_raised"], stats["q0_rejected"]) == \
                (counts if a == critical else (1, 0, 0)), (g.shape, a, stats)
            assert stats["hull_points"] == stats["hull_calls"] * len(pts)
    # the counters reach EnvelopeResult; a flat lift has no lower facets
    parab = corpus[0][0]
    assert h.a_convex_envelope(parab, 4.0).stats == dict(
        hull_calls=1, hull_points=int(parab.inside_mask().sum()), lower_facets=0,
        q0_raised=1, q0_rejected=0)


@pytest.mark.parametrize("engine", ["contact", "theta"])
def test_lifted_hull_policy(engine, monkeypatch):
    # both engines' lifts go through one policy: the "Q0" hull as built; if
    # "Q0" raises, a flat lift is None with its affine fit, and any other
    # lift gets one "Qx" hull, whose raising is the one GeometryError
    def lift(values):
        g = h.grid_from_callable(values, 2, 17, domain_radius=1.0)
        pts, _, inside = g._coords()
        pts, v = pts[inside], g.values.ravel()[inside]
        q = 0.5 * (pts ** 2).sum(axis=1)
        return np.column_stack([pts, v + 2.0 * q] if engine == "contact" else [pts, v, q])

    ridge = lift(lambda p: np.abs(p[:, 0]) - 0.5 * (p ** 2).sum(axis=1) + 0.2 * np.cos(6 * p[:, 1]))
    n, d = len(ridge), 2
    raising, built = set(), []

    def hull(cloud, qhull_options=None):
        built.append((qhull_options, None))
        if qhull_options in raising:
            raise QhullError(f"forced failure with {qhull_options}")
        built[-1] = (qhull_options, ConvexHull(cloud, qhull_options=qhull_options))
        return built[-1][1]
    monkeypatch.setattr(lab, "ConvexHull", hull)

    def options():
        return [o for o, _ in built]

    # "Q0" builds: its hull is returned as it is, with no fit
    got, coef, stats = lab._lifted_hull(ridge, d)
    assert options() == ["Q0"] and got is built[-1][1] and coef is None
    assert stats == dict(hull_calls=1, hull_points=n, q0_raised=0)

    # "Q0" raises on a lift that is not flat: one "Qx" build is returned
    raising.add("Q0")
    built.clear()
    got, coef, stats = lab._lifted_hull(ridge, d)
    assert options() == ["Q0", "Qx"] and got is built[-1][1] and coef is None
    assert stats == dict(hull_calls=2, hull_points=2 * n, q0_raised=1)

    # a flat lift costs one build and comes back as None with its affine fit:
    # v + 2q = 0.3 x1 - 0.2 x2 + 1 (contact), v = 0.3 x1 - 0.2 x2 - 3q + 1 (Theta)
    raising.clear()
    built.clear()
    flat = lift(lambda p: -1.5 * (p ** 2).sum(axis=1) + 0.3 * p[:, 0] - 0.2 * p[:, 1] + 1.0
                + (0.5 * (p ** 2).sum(axis=1) if engine == "contact" else 0.0))
    got, coef, stats = lab._lifted_hull(flat, d)
    want = [0.3, -0.2, 1.0] if engine == "contact" else [0.3, -0.2, -3.0, 1.0]
    assert got is None and np.allclose(coef, want, rtol=0.0, atol=1e-12)
    assert options() == ["Q0"] and stats == dict(hull_calls=1, hull_points=n, q0_raised=1)

    # "Q0" and "Qx" both raising on a lift that is not flat is the GeometryError
    raising.update({"Q0", "Qx"})
    built.clear()
    with pytest.raises(h.GeometryError, match="not flat"):
        lab._lifted_hull(ridge, d)
    assert options() == ["Q0", "Qx"]


def test_q0_hull_with_a_non_extreme_vertex_is_rebuilt(monkeypatch):
    # a "Q0" hull built with one sample inside the lower hull pushed 1e-12 below
    # its envelope: that sample comes back as a vertex of near-coplanar facets,
    # the vertex check refuses the hull and the merged build is used
    g = ridge_2d()
    a = 2.0
    inside = g.inside_mask()
    plain = h.a_convex_envelope(g, a)
    off = np.flatnonzero(~plain.contact_mask[inside])
    target = off[len(off) // 2]
    gap = g.values[inside][target] - plain.envelope[inside][target]
    assert gap > 1e-4

    def hull(cloud, qhull_options=None):
        if qhull_options == "Q0":
            cloud = cloud.copy()
            cloud[target, -1] -= gap + 1e-12
        return ConvexHull(cloud, qhull_options=qhull_options)
    monkeypatch.setattr(lab, "ConvexHull", hull)
    pts = g.points()[inside.ravel()]
    shifted = g.values[inside] + 0.5 * a * (pts ** 2).sum(axis=1)
    shifted[target] -= gap + 1e-12
    assert (ConvexHull(np.column_stack([pts, shifted]), qhull_options="Q0").simplices
            == target).any()
    checked = h.a_convex_envelope(g, a)
    assert checked.stats["q0_rejected"] == 1 and checked.stats["hull_calls"] == 2
    assert np.array_equal(checked.contact_mask, plain.contact_mask)
    # plain kept its "Q0" hull: another triangulation of the same lower hull
    assert np.abs(checked.envelope[inside] - plain.envelope[inside]).max() <= 1e-13


def test_envelope_ordering_in_opening():
    for g in (ridge_1d(), ridge_2d()):
        inside = g.inside_mask()
        prev = None
        for a in (0.5, 2.0, 8.0):
            res = h.a_convex_envelope(g, a)
            assert (res.envelope[inside] <= g.values[inside] + 1e-12).all()
            if prev is not None:
                assert (prev.envelope[inside] <= res.envelope[inside] + 1e-12).all()
                assert not (prev.contact_mask & ~res.contact_mask)[inside].any()
            prev = res


def test_scaling_identity():
    for dim, npts in ((1, 81), (2, 29)):
        g = h.grid_from_callable(
            lambda p: np.abs(p[:, 0]) - 0.7 * (p ** 2).sum(axis=1) + 0.1 * np.sin(3 * p[:, 0]),
            dim, npts, domain_radius=1.0)
        sq = ((g.points() ** 2).sum(axis=1)).reshape(g.shape)
        inside = g.inside_mask()
        for beta, gamma, lam in ((2.0, 1.0, 3.0), (0.5, 0.0, 1.0), (3.0, 4.0, 0.5)):
            lifted = h.GridFunction(dim=g.dim, shape=g.shape, spacing=g.spacing,
                                    center=g.center, domain_radius=g.domain_radius,
                                    values=np.where(inside, beta * g.values + 0.5 * gamma * sq,
                                                    np.nan))
            lhs = h.a_convex_envelope(lifted, lam).envelope
            rhs = beta * h.a_convex_envelope(g, (lam + gamma) / beta).envelope \
                + 0.5 * gamma * sq
            scale = max(1.0, np.abs(lhs[inside]).max())
            assert np.abs(lhs[inside] - rhs[inside]).max() <= 1e-8 * scale


def test_theta_convex_is_zero():
    g = h.grid_from_callable(lambda p: np.abs(p[:, 0]) + 0.5 * (p ** 2).sum(axis=1),
                             2, 33, domain_radius=1.0)
    tf = h.theta_field(g, a_max=8.0)
    assert tf.converged[tf.interior].all()
    assert tf.theta[tf.interior].max() <= 0.05
    assert (tf.theta[g.inside_mask()] >= 0.0).all()


def test_theta_paraboloid_recovers_opening():
    a0 = 4.0
    g = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    tf = h.theta_field(g, a_max=16.0)
    assert tf.converged[tf.interior].all()
    dev = np.abs(tf.theta[tf.interior] - a0).max()
    assert dev <= max(0.02 * a0, 0.1)
    width = (tf.bracket_hi - tf.bracket_lo)[tf.interior & tf.converged]
    assert width.max() <= 1e-12


def test_theta_nonconvergence_is_data():
    # Theta above a_max is reported as it is: a_max only sets converged
    a0 = 8.0
    g = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1), 2, 17,
                             domain_radius=1.0)
    tf = h.theta_field(g, a_max=2.0)
    assert not tf.converged[tf.interior].any()
    assert (tf.theta[tf.interior] == tf.bracket_hi[tf.interior]).all()
    assert np.abs(tf.theta[tf.interior] - a0).max() <= 1e-12 * a0  # the flat lift's fit


def test_theta_monotone_in_data():
    g2 = h.grid_from_callable(lambda p: -2.0 * (p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    g1 = h.grid_from_callable(
        lambda p: -2.0 * (p ** 2).sum(axis=1) - 5.0 * ((p ** 2).sum(axis=1)) ** 2,
        2, 33, domain_radius=1.0)
    t1 = h.theta_field(g1, a_max=64.0)
    t2 = h.theta_field(g2, a_max=64.0)
    c = (g2.shape[0] // 2, g2.shape[1] // 2)  # origin, where the two agree
    assert g1.values[c] == g2.values[c]
    assert t1.theta[c] >= t2.theta[c] - 0.05


def test_theta_boundary_flagged_not_interior():
    g = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    tf = h.theta_field(g, a_max=8.0)
    r = np.sqrt((g.points() ** 2).sum(axis=1)).reshape(g.shape)
    near_edge = g.inside_mask() & (r > 1.0 - g.spacing)
    assert near_edge.any()
    assert not tf.interior[near_edge].any()
    assert np.isfinite(tf.theta[near_edge]).all()


@pytest.fixture(scope="module")
def bump33():
    return h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 33)


@pytest.fixture(scope="module")
def lattice65():
    # build_v at 65^2, m = 3 (alpha = 3, R = 1/8): "Q0" raises on its Theta
    # lift, and 45 samples have Theta above 600
    return h.build_v(h.RadialProfile(3, 3.0, 0.125, 1.0, 2.0),
                     h.grid_from_callable(lambda p: np.zeros(len(p)), 2, 65))


@pytest.fixture(scope="module")
def lattice65_theta(lattice65):
    # about 0.3 s
    return h.theta_field(lattice65, a_max=600.0)


def _assert_matches_lp(tf, sample):
    # sample indexes the samples inside the ball; both certified ends agree
    # with HiGHS, and theta is the upper end
    g = tf.grid
    inside = g.inside_mask().ravel()
    pts, vals = g.points()[inside], g.values.ravel()[inside]
    lo, hi = tf.bracket_lo.ravel()[inside], tf.bracket_hi.ravel()[inside]
    assert np.array_equal(tf.theta.ravel()[inside], hi)
    for i in sample:
        want = theta_lp(pts, vals, int(i))
        tol = 1e-9 * max(1.0, want)
        assert abs(hi[i] - want) <= tol and abs(lo[i] - want) <= tol, (i, lo[i], hi[i], want)


def test_theta_matches_lp_oracle(bump33, lattice65_theta):
    shifted = h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 65,
                            centre=(1.0 / 64.0, -1.0 / 64.0))
    tf = h.theta_field(shifted, a_max=600.0)
    n_in = int(shifted.inside_mask().sum())
    _assert_matches_lp(tf, np.sort(RNG.choice(n_in, size=40, replace=False)))

    tf = h.theta_field(bump33, a_max=600.0)
    inside = bump33.inside_mask()
    ring = np.nonzero((inside & ~tf.interior)[inside])[0]
    assert len(ring) > 100
    _assert_matches_lp(tf, ring)

    # on strongly concave data the facets at an x-hull vertex give a positive
    # ratio, yet Theta is 0 there
    concave = h.grid_from_callable(
        lambda p: -4.0 * (p ** 2).sum(axis=1) + 0.1 * np.cos(5.0 * p[:, 0]) + 0.3 * p[:, 1],
        2, 17, domain_radius=1.0)
    for g in (ridge_1d(81), ridge_2d(), concave):
        tf = h.theta_field(g, a_max=6.0)
        _assert_matches_lp(tf, range(int(g.inside_mask().sum())))

    # every sample above a_max, each reported at its own Theta
    tf = lattice65_theta
    above = np.nonzero(tf.theta[tf.grid.inside_mask()] > 600.0)[0]
    assert len(above) == 45
    _assert_matches_lp(tf, above)


def test_theta_is_symmetric_with_its_grid(lattice65_theta):
    # the lattice is symmetric under the grid's reflections and transpose, and
    # so is Theta, above a_max too, on a lift where "Q0" raises
    tf = lattice65_theta
    assert (tf.stats["hull_calls"], tf.stats["q0_raised"]) == (2, 1)
    theta, inside = tf.theta, tf.grid.inside_mask()
    assert theta[inside].max() > 600.0
    for image in (theta[::-1, :], theta[:, ::-1], theta.T):
        assert np.array_equal(np.isnan(image), ~inside)
        assert np.abs(image[inside] - theta[inside]).max() <= 1e-12 * theta[inside].max()


def test_theta_does_not_grow_on_a_subgrid(lattice65, lattice65_theta):
    # Theta at a sample is the least opening of a paraboloid below all the
    # samples that touches there; on every other sample (33^2, spacing 2h)
    # fewer samples constrain it, so it is never larger
    g = lattice65
    sub = replace(g, shape=(33, 33), spacing=2.0 * g.spacing, values=g.values[::2, ::2])
    coarse = h.theta_field(sub, a_max=600.0)
    fine = lattice65_theta.theta[::2, ::2]
    inside = sub.inside_mask()
    assert np.array_equal(inside, ~np.isnan(fine))
    assert fine[inside].max() > 600.0
    assert (coarse.theta[inside] <= fine[inside]).all()


def test_theta_matches_lp_oracle_in_3d():
    # the extremal 3-d profile, alpha = (n-1) Lambda/lambda - 1: a 5-d hull
    g = h.capped_bump(h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 17, centre=(0.0, 0.0, 0.0))
    tf = h.theta_field(g, a_max=600.0)
    assert tf.stats["certified"] == int(g.inside_mask().sum())
    n_in = int(g.inside_mask().sum())
    _assert_matches_lp(tf, np.sort(RNG.choice(n_in, size=40, replace=False)))


def test_theta_without_lifted_hull():
    # four samples, all x-hull vertices: Theta = 0 whatever the data, though
    # their lift spans too little for a hull in R^4
    g = h.grid_from_callable(lambda p: p[:, 0] * p[:, 1], 2, 4)
    tf = h.theta_field(g, a_max=8.0)
    assert (tf.theta[g.inside_mask()] == 0.0).all()
    assert tf.stats["hull_calls"] == tf.stats["hull_facets"] == 0

    # v = paraboloid of opening 3 plus an affine part: the lift is flat, so no
    # hull; Theta = 3 off the x-hull vertices and 0 on them
    for dim in (1, 2):
        g = h.grid_from_callable(
            lambda p: -1.5 * (p ** 2).sum(axis=1) + 0.3 * p[:, 0] - 0.2 * p[:, -1] + 1.0,
            dim, 21, domain_radius=1.0)
        tf = h.theta_field(g, a_max=8.0)
        inside = g.inside_mask()
        corners = _corner_mask(g.points()[inside.ravel()])
        theta = tf.theta[inside]
        assert np.abs(theta[~corners] - 3.0).max() <= 1e-9
        assert (theta[corners] == 0.0).all()
        assert tf.converged[inside].all()
        # one "Q0" build, which raised on the flat lift, and no hull used
        assert (tf.stats["hull_calls"], tf.stats["q0_raised"], tf.stats["hull_facets"]) == (1, 1, 0)


def _failing_hull(fail):
    # ConvexHull, except that the lifted builds whose options fail(options)
    # says True raise; the x-hull (no options) always builds
    def hull(cloud, qhull_options=None):
        if qhull_options is not None and fail(qhull_options):
            raise QhullError(f"forced failure with {qhull_options}")
        return ConvexHull(cloud, qhull_options=qhull_options)
    return hull


def test_theta_merged_fallback_matches(bump33, monkeypatch):
    plain = h.theta_field(bump33, a_max=600.0)
    assert (plain.stats["hull_calls"], plain.stats["q0_raised"]) == (1, 0)
    assert plain.stats["hull_facets"] > 0
    monkeypatch.setattr(lab, "ConvexHull", _failing_hull(lambda opt: opt == "Q0"))
    merged = h.theta_field(bump33, a_max=600.0)
    # "Q0" raised, and the "Qx" hull was used and certified; Theta counts no rejection
    assert (merged.stats["hull_calls"], merged.stats["q0_raised"]) == (2, 1)
    assert merged.stats["hull_facets"] > 0 and "q0_rejected" not in merged.stats
    inside = bump33.inside_mask()
    for name in ("theta", "bracket_lo", "bracket_hi"):
        x, y = getattr(plain, name)[inside], getattr(merged, name)[inside]
        assert (np.abs(x - y) <= 1e-12 * np.maximum(1.0, x)).all(), name
    assert np.array_equal(plain.converged, merged.converged)


def test_theta_non_supporting_facets_are_caught(bump33, monkeypatch):
    # every hull is built with the sample at x = (0, 3h) lifted far up in v:
    # that sample loses its facets with c_v > 0, and the facets now spanning
    # over it pass above the real sample, which the primal certificates of its
    # neighbours reject
    def hull(cloud, qhull_options=None):
        if qhull_options is not None:
            cloud = cloud.copy()
            cloud[len(cloud) // 2 + 3, -2] += 10.0
        return ConvexHull(cloud, qhull_options=qhull_options)
    monkeypatch.setattr(lab, "ConvexHull", hull)
    with pytest.raises(h.GeometryError) as info:
        h.theta_field(bump33, a_max=600.0)
    failed = int(re.search(r"left (\d+) of", str(info.value)).group(1))
    assert failed > 1


def test_theta_missing_facets_are_caught(bump33, monkeypatch):
    # a "Q0" hull without the facets that give one sample its Theta: the next
    # facet still supports the data, but its ratio is too high, which the dual
    # certificate rejects; Theta keeps the hull it built, so that sample is
    # named as uncertified after one lifted build
    target = int(bump33.inside_mask().sum()) // 2 + 3   # x = (0, 3h), Theta about 5.0
    built = []

    def hull(cloud, qhull_options=None):
        full = ConvexHull(cloud, qhull_options=qhull_options)
        if qhull_options is None:
            return full
        built.append(qhull_options)
        inward = -full.equations
        at = (full.simplices == target).any(axis=1) & (inward[:, -3] > 0.0)
        ratio = np.where(at, inward[:, -2] / np.where(at, inward[:, -3], 1.0), np.inf)
        keep = ratio > ratio.min() + 1e-9
        return SimpleNamespace(simplices=full.simplices[keep], equations=full.equations[keep])
    monkeypatch.setattr(lab, "ConvexHull", hull)
    with pytest.raises(h.GeometryError, match=r"left 1 of \d+ samples uncertified"):
        h.theta_field(bump33, a_max=600.0)
    assert built == ["Q0"]


def test_theta_all_hulls_failing_is_geometry_error(bump33, monkeypatch):
    monkeypatch.setattr(lab, "ConvexHull", _failing_hull(lambda opt: True))
    with pytest.raises(h.GeometryError, match="not flat"):
        h.theta_field(bump33, a_max=600.0)


def test_tail_step_function():
    a0 = 4.0
    g = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    tf = h.theta_field(g, a_max=16.0)
    td = h.tail_distribution(tf, 0.5, np.array([1.0, 3.9, 4.1, 8.0]))
    pairs = list(td)
    assert len(td) == len(pairs) == 4
    assert pairs[0][1] == pairs[1][1] > 0.0
    assert pairs[2][1] == pairs[3][1] == 0.0
    assert abs(pairs[0][1] - np.pi / 4.0) <= 0.05 * np.pi / 4.0
    assert (np.diff(td.measures) <= 0.0).all()


def test_tail_empty_region():
    g = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 4, domain_radius=1.0)
    tf = h.theta_field(g, a_max=4.0)
    td = h.tail_distribution(tf, 1e-9, np.array([0.5, 1.0, 2.0]))
    assert (td.measures == 0.0).all()
    assert np.isnan(td.fitted_exponent)


def test_tail_past_a_max_is_exact_and_silent():
    # Theta is exact above a_max too, so the tail does not depend on a_max
    g = h.grid_from_callable(lambda p: -1.0 * (p ** 2).sum(axis=1), 2, 17, domain_radius=1.0)
    t_grid = np.array([0.5, 1.5, 1.99, 2.01, 32.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = h.tail_distribution(h.theta_field(g, a_max=16.0), 0.5, t_grid)
        starved = h.tail_distribution(h.theta_field(g, a_max=1.0), 0.5, t_grid)
    assert np.array_equal(starved.measures, full.measures)
    assert full.measures[2] > 0.0 and full.measures[3] == 0.0


def test_tail_t_grid_validation():
    g = h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 9, domain_radius=1.0)
    tf = h.theta_field(g, a_max=4.0)
    for bad in ([2.0, 1.0], [0.0, 1.0], [1.0], [-1.0, 2.0]):
        with pytest.raises(h.DomainError):
            h.tail_distribution(tf, 0.5, np.array(bad))


def test_decay_convex_degenerates_with_zero_counts():
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    with pytest.raises(h.DegenerateData) as exc:
        h.decay_experiment(g, 1.0, 5, h.Ellipticity(2, 2.0, 1))
    rep = exc.value.report
    assert (rep.counts == 0.0).all()
    assert np.isnan(rep.empirical_ratio)


def test_decay_paraboloid_crossing():
    a0 = 16.0
    g = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    rep = h.decay_experiment(g, 1.0, 6, h.Ellipticity(2, 2.0, 1))
    assert np.allclose(rep.openings, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    assert (np.diff(rep.counts) <= 1e-12).all()
    assert (rep.counts[:4] > 0.0).all()
    # at a0 the lift is one flat facet: only the x-hull corners are in contact
    inside = g.inside_mask().ravel()
    corners = len(ConvexHull(g.points()[inside]).vertices)
    assert rep.counts[4] == (inside.sum() - corners) * g.cell_measure
    assert (rep.counts[5:] == 0.0).all()  # openings above a0 reach contact everywhere
    assert rep.counts[0] >= 0.9 * np.pi
    assert abs(rep.theoretical_ratio - (1.0 - h.c_star(h.Ellipticity(2, 2.0, 1)) / 4.0)) <= 1e-15


def test_decay_truncated_paraboloid_plateau():
    # max(-8|x|^2, -1): no paraboloid of opening below 16 touches the core v > -1
    g = h.grid_from_callable(lambda p: np.maximum(-8.0 * (p ** 2).sum(axis=1), -1.0),
                             2, 65, domain_radius=1.0)
    inside = g.inside_mask()
    core = inside & (g.values > -1.0)
    assert core.sum() == 401
    counts = h.decay_experiment(g, 1.0, 6, h.Ellipticity(3, 2.0, 1)).counts / g.cell_measure
    assert (counts[:4] == core.sum()).all()          # openings 1, 2, 4, 8
    # at 16 the core lifts to one flat facet: only its corners are hull vertices
    corners = len(ConvexHull(g.points()[core.ravel()]).vertices)
    assert counts[4] == core.sum() - corners
    assert (counts[5:] == 0).all()                   # openings 32, 64


def test_openings_past_the_lift_resolution_are_domain_errors(bump_grid):
    # max(-8|x|^2, -1) lifts strictly convex above 16, so every sample is in
    # contact; yet qhull's hull left only 2,913 of 3,209 samples in contact at
    # 3.2e11 and 10 at 1e13 on 65^2, and 10,158 of 12,853 at 1e11 on 129^2.
    # Past a R^3 eps = h^2/4096 (R = 1 here: (0, +-1) are samples) the
    # opening is refused instead
    def plateau(n):
        return h.grid_from_callable(lambda p: np.maximum(-8.0 * (p ** 2).sum(axis=1), -1.0),
                                    2, n)
    for n, wrong in ((65, (3.2e11, 1e13)), (129, (1e11,))):
        g = plateau(n)
        for a in wrong:
            with pytest.raises(h.DomainError, match="past the lift's resolution") as info:
                h.a_convex_envelope(g, a)
            assert str(info.value).startswith(f"opening {a:g} ")
    # the lift is taken about the grid's centre, so a moved grid keeps R = 1,
    # the centred limit and the centred mask
    moved, far = (replace(plateau(33), center=c) for c in ((3.0, 0.0), (100.0, 0.0)))
    for g in (plateau(65), plateau(129), moved, far):
        limit = g.spacing ** 2 / (4096 * np.finfo(float).eps)
        assert h.a_convex_envelope(g, limit).contact_mask[g.inside_mask()].all()
        with pytest.raises(h.DomainError):
            h.a_convex_envelope(g, limit * (1.0 + 1e-12))
    for a in (16.0, 1e6):      # 16: the plateau's flat facet
        assert (h.a_convex_envelope(far, a).contact_mask
                == h.a_convex_envelope(plateau(33), a).contact_mask).all()
    # decay on 17^2 up to 2^44 returned counts that climbed back from 0 to
    # 3.08 from 2^40 on; the last opening is checked before any hull is built
    e = h.Ellipticity(3, 2.0, 1)
    with pytest.raises(h.DomainError, match=r"\(delta=1, levels=44\) is past"):
        h.decay_experiment(plateau(17), 1.0, 44, e)
    assert (h.decay_experiment(plateau(17), 1.0, 34, e).counts[5:] == 0.0).all()
    # the benchmark's openings are far below the limit (2.7e8 on the 129^2 bump)
    assert h.a_convex_envelope(bump_grid, 1e6).contact_mask[bump_grid.inside_mask()].all()


def test_decay_bump_family_beats_lemma_rate(bump_grid):
    rep = h.decay_experiment(bump_grid, 1.0, 8, h.Ellipticity(2, 2.0, 1))
    assert (np.diff(rep.counts) <= 1e-12).all()
    assert rep.empirical_ratio <= rep.theoretical_ratio


def _decay_or_partial(g, levels):
    try:
        return h.decay_experiment(g, 1.0, levels, h.Ellipticity(3, 2.0, 1))
    except h.DegenerateData as exc:
        return exc.report


def test_decay_two_at_a_time_equals_serial(monkeypatch):
    # the openings are built on two threads; the counts, every opening's mask
    # and the summed counters equal one _contact call per opening, at critical
    # openings too (the README plateau's 16 refuses its "Q0" hull)
    contact, masks = lab._contact, {}

    def recorded(points, values, a, need_values):
        out = contact(points, values, a, need_values)
        masks[a] = out[1]
        return out
    monkeypatch.setattr(lab, "_contact", recorded)
    serial_stats = []
    for g, *_ in _hull_corpus():
        pts, _, inside = g._coords()
        serial_masks, counts, stats = {}, [], {}
        for a in 2.0 ** np.arange(8):
            _, on_hull, hull_stats = contact(pts[inside], g.values.ravel()[inside], a, False)
            serial_masks[a] = on_hull
            counts.append((~on_hull).sum() * g.cell_measure)
            for k, c in hull_stats.items():
                stats[k] = stats.get(k, 0) + c
        masks.clear()
        paired = _decay_or_partial(g, 7)
        assert np.array_equal(paired.counts, counts), g.shape
        assert paired.stats == stats and list(paired.stats) == list(stats)
        assert masks.keys() == serial_masks.keys()
        assert all(np.array_equal(masks[a], serial_masks[a]) for a in serial_masks)
        serial_stats.append(stats)
    plateau = serial_stats[1]
    assert (plateau["hull_calls"], plateau["q0_rejected"]) == (9, 1)


def test_decay_builds_on_two_threads_at_most(monkeypatch):
    # the first two builds wait for each other, so a serial decay times out
    # here; no more than two builds are ever in flight
    lock, both = threading.Lock(), threading.Barrier(2, timeout=10)
    seen, calls, active, most = set(), [0], [0], [0]

    def hull(*args, **kwargs):
        with lock:
            seen.add(threading.get_ident())
            calls[0] += 1
            active[0] += 1
            most[0] = max(most[0], active[0])
            first_two = calls[0] <= 2
        try:
            if first_two:
                both.wait()
            return ConvexHull(*args, **kwargs)
        finally:
            with lock:
                active[0] -= 1
    monkeypatch.setattr(lab, "ConvexHull", hull)
    _decay_or_partial(ridge_2d(), 5)
    assert len(seen) == 2 and threading.get_ident() not in seen
    assert most[0] == 2 and calls[0] >= 6


def test_decay_worker_error_is_raised_as_it_is(monkeypatch):
    contact, error, built = lab._contact, h.GeometryError("forced at opening 4"), []

    def failing(points, values, a, need_values):
        if a == 4.0:
            raise error
        built.append(a)
        return contact(points, values, a, need_values)
    monkeypatch.setattr(lab, "_contact", failing)
    with pytest.raises(h.GeometryError) as info:
        h.decay_experiment(ridge_2d(), 1.0, 5, h.Ellipticity(3, 2.0, 1))
    assert info.value is error and {1.0, 2.0} <= set(built)


def test_decay_partial_report_sums_the_counters():
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    pts, _, inside = g._coords()
    want = {}
    for a in 2.0 ** np.arange(6):
        for k, c in lab._contact(pts[inside], g.values.ravel()[inside], a, False)[2].items():
            want[k] = want.get(k, 0) + c
    with pytest.raises(h.DegenerateData) as exc:
        h.decay_experiment(g, 1.0, 5, h.Ellipticity(2, 2.0, 1))
    assert exc.value.report.stats == want and want["hull_calls"] == 6


def test_extreme_at_margin():
    # G = diag(1, s) at vertex 0: the least eigenvalue s decides against 1e-12
    for s, extreme in ((2e-12, True), (0.5e-12, False)):
        hull = SimpleNamespace(equations=np.array([[1.0, 0.0, 0.0], [0.0, np.sqrt(s), 0.0]]),
                               simplices=np.array([[0, 1], [0, 2]]))
        assert lab._extreme_at(hull, np.array([0])) is extreme


def test_envelope_determinism():
    g = ridge_1d(65)
    r1 = h.a_convex_envelope(g, 2.0)
    r2 = h.a_convex_envelope(g, 2.0)
    assert np.array_equal(r1.envelope, r2.envelope, equal_nan=True)
    assert np.array_equal(r1.contact_mask, r2.contact_mask)
