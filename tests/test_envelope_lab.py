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
                       ("values", np.zeros(4)), ("dim", 2.0), ("shape", (5.7,)),
                       ("shape", 5), ("center", 0.0)):
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


def test_content_hash_reads_every_nan_alike(tmp_path):
    # outside samples holding -nan hashed apart from nan, and from their
    # inline copy, which reads null back as nan; the sidecar keeps the sign
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 9)
    neg = replace(g, values=np.where(g.inside_mask(), g.values, -np.nan))
    hashes = {g.content_hash(), neg.content_hash()}
    for inline in (True, False):
        neg.save(tmp_path / f"g{inline}.json", inline=inline)
        copy = h.GridFunction.load(tmp_path / f"g{inline}.json")
        assert np.signbit(copy.values[~g.inside_mask()]).all() == (not inline)
        hashes.add(copy.content_hash())
    assert len(hashes) == 1


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
        cloud, _ = lab._ball_cloud(g)
        pts, vals = cloud[:, :g.dim], cloud[:, g.dim]
        for a in openings:
            stats = dict(hull_calls=0, hull_points=0, q0_raised=0, q0_rejected=0,
                         lower_facets=0)
            _, mask = lab._contact(cloud, a, stats)
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

    def lifted_hull(cloud):
        stats = dict(hull_calls=0, hull_points=0, q0_raised=0)
        return lab._lifted_hull(cloud, d, stats) + (stats,)

    # "Q0" builds: its hull is returned as it is, with no fit
    got, coef, stats = lifted_hull(ridge)
    assert options() == ["Q0"] and got is built[-1][1] and coef is None
    assert stats == dict(hull_calls=1, hull_points=n, q0_raised=0)

    # "Q0" raises on a lift that is not flat: one "Qx" build is returned
    raising.add("Q0")
    built.clear()
    got, coef, stats = lifted_hull(ridge)
    assert options() == ["Q0", "Qx"] and got is built[-1][1] and coef is None
    assert stats == dict(hull_calls=2, hull_points=2 * n, q0_raised=1)

    # a flat lift costs one build and comes back as None with its affine fit:
    # v + 2q = 0.3 x1 - 0.2 x2 + 1 (contact), v = 0.3 x1 - 0.2 x2 - 3q + 1 (Theta)
    raising.clear()
    built.clear()
    flat = lift(lambda p: -1.5 * (p ** 2).sum(axis=1) + 0.3 * p[:, 0] - 0.2 * p[:, 1] + 1.0
                + (0.5 * (p ** 2).sum(axis=1) if engine == "contact" else 0.0))
    got, coef, stats = lifted_hull(flat)
    want = [0.3, -0.2, 1.0] if engine == "contact" else [0.3, -0.2, -3.0, 1.0]
    assert got is None and np.allclose(coef, want, rtol=0.0, atol=1e-12)
    assert options() == ["Q0"] and stats == dict(hull_calls=1, hull_points=n, q0_raised=1)

    # "Q0" and "Qx" both raising on a lift that is not flat is the GeometryError
    raising.update({"Q0", "Qx"})
    built.clear()
    with pytest.raises(h.GeometryError, match="not flat"):
        lifted_hull(ridge)
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
    # its 8 floor samples have the whole grid as their neighbourhood: both
    # builds are full ones, and the result is the full path's, bit for bit
    assert tf.stats["hull_points"] == 2 * int(inside.sum()) and tf.stats["floor"] == 8
    for got, want in zip((tf.bracket_lo, tf.bracket_hi), _full_path(tf.grid)):
        assert np.array_equal(got[inside], want)
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


def test_theta_does_not_depend_on_where_the_grid_sits(lattice65, lattice65_theta):
    # the cloud is taken about the grid's centre, and moving x by a constant
    # changes the lift by an affine function only: at (1e4, 0) Theta's arrays
    # and counters are the lattice's at the origin, bit for bit
    moved = h.theta_field(replace(lattice65, center=(1e4, 0.0)), a_max=600.0)
    for name in ("theta", "converged", "bracket_lo", "bracket_hi", "interior"):
        assert np.array_equal(getattr(moved, name), getattr(lattice65_theta, name),
                              equal_nan=True), name
    assert moved.stats == lattice65_theta.stats


def _full_path(g):
    # (lo, hi) of Theta from the full hull alone, in the order of the samples inside
    cloud, _ = lab._ball_cloud(g)
    values = cloud[:, g.dim]
    return lab._exact_theta(cloud, values == values.min(), None)[:2]


def _floor_band(g):
    # the samples at the grid's minimum, and those within 2 cells (2h) of a
    # sample on the other side of the floor's edge
    inside = g.inside_mask().ravel()
    pts, values = g.points()[inside], g.values.ravel()[inside]
    floor = values == values.min()
    gap = np.sqrt(((pts[floor][:, None, :] - pts[~floor][None, :, :]) ** 2).sum(axis=2))
    close = gap <= 2.0 * g.spacing * (1.0 + 1e-9)
    band = np.zeros(len(pts), dtype=bool)
    band[np.flatnonzero(floor)[close.any(axis=1)]] = True
    band[np.flatnonzero(~floor)[close.any(axis=0)]] = True
    return floor, np.flatnonzero(band)


@pytest.mark.parametrize("dim", [2, 3])
def test_theta_floor_path_matches_lp_oracle(bump33, dim):
    # the floor is exactly 0 without a hull, and the neighbourhood hull of the
    # rest proposes: on both sides of the floor's edge, where that hull ends,
    # Theta agrees with HiGHS
    g = bump33 if dim == 2 else h.capped_bump(h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 17,
                                                centre=(0.0, 0.0, 0.0))
    tf = h.theta_field(g, a_max=600.0)
    inside = g.inside_mask()
    floor, band = _floor_band(g)
    assert tf.stats["floor"] == floor.sum() and tf.stats["hull_points"] < len(floor)
    for end in (tf.bracket_lo, tf.bracket_hi):
        assert (end[inside][floor] == 0.0).all()
    assert floor[band].any() and not floor[band].all()
    _assert_matches_lp(tf, band)


def test_theta_falls_back_to_the_full_hull(bump33, monkeypatch):
    # a neighbourhood hull without the facets at one sample off the floor
    # leaves that sample unproposed; the full hull decides, and Theta is the
    # full path's
    at, built = (0.0, 3.0 * bump33.spacing), []
    n = int(bump33.inside_mask().sum())

    def hull(cloud, qhull_options=None):
        full = ConvexHull(cloud, qhull_options=qhull_options)
        if qhull_options is None:
            return full
        built.append(len(cloud))
        if len(cloud) == n:
            return full
        keep = ~(full.simplices == _row_at(cloud, at)).any(axis=1)
        return SimpleNamespace(simplices=full.simplices[keep], equations=full.equations[keep])
    monkeypatch.setattr(lab, "ConvexHull", hull)
    tf = h.theta_field(bump33, a_max=600.0)
    assert len(built) == 2 and built[0] < built[1] == n
    assert tf.stats["hull_points"] == sum(built) and tf.stats["certified"] == n
    inside = bump33.inside_mask()
    for got, want in zip((tf.bracket_lo, tf.bracket_hi), _full_path(bump33)):
        assert np.array_equal(got[inside], want)


def test_theta_passes_over_a_flat_neighbourhood():
    # v = 0 up to x = 0.3 and (x - 0.3)(x - 0.3 + h) beyond, h the spacing:
    # 27 floor samples, and the 16 of the neighbourhood lie on one quadratic,
    # whose lift is flat. That hull proposes nothing, and the full hull decides
    step = 2.0 / 40

    def v(p):
        s = p[:, 0] - 0.3
        return np.where(s < step / 2, 0.0, s * (s + step))
    g = h.grid_from_callable(v, 1, 41)
    tf = h.theta_field(g, a_max=8.0)
    assert tf.stats["floor"] == 27
    assert (tf.stats["hull_calls"], tf.stats["hull_points"], tf.stats["q0_raised"]) == (2, 57, 1)
    _assert_matches_lp(tf, range(41))


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_theta_of_constant_data_is_zero_without_a_hull(dim):
    # every sample is floor: none needs a hull, though the cloud spans none
    g = h.grid_from_callable(lambda p: np.full(len(p), 2.5), dim, 9)
    tf = h.theta_field(g, a_max=1.0)
    inside = g.inside_mask()
    n = int(inside.sum())
    for end in (tf.theta, tf.bracket_lo, tf.bracket_hi):
        assert (end[inside] == 0.0).all()
    assert tf.stats["hull_calls"] == 0
    assert tf.stats["certified"] == tf.stats["floor"] == n


@pytest.mark.parametrize("radius", [1.0, 1e3, 1e-5, 1e-6])
def test_ball_slack_is_relative_to_the_radius(radius):
    # |x - c|^2 <= R^2 (1 + 1e-12) admits the same 797 samples of a 33^2
    # grid at every radius; an absolute 1e-12 admitted 805 at 1e-5 and all
    # 1,089 at 1e-6. tail_distribution's region of the same radius, on a ball
    # twice as large, holds the same samples
    g = h.grid_from_callable(lambda p: np.zeros(len(p)), 2, 33, domain_radius=radius)
    assert g.inside_mask().sum() == 797
    g = replace(g, domain_radius=2.0 * radius, values=np.zeros(g.shape))
    inside = g.inside_mask()
    assert inside.all()
    ones = np.ones(g.shape)
    tf = h.ThetaField(theta=ones, converged=inside, bracket_lo=ones, bracket_hi=ones,
                      interior=inside, grid=g)
    tail = h.tail_distribution(tf, radius, [0.5, 2.0])
    assert tail.measures.tolist() == [797 * g.cell_measure, 0.0]


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


def _row_at(cloud, x):
    # the row of a lifted cloud whose sample sits at x
    rows = np.flatnonzero((cloud[:, :len(x)] == x).all(axis=1))
    assert len(rows) == 1
    return rows[0]


def test_theta_non_supporting_facets_are_caught(bump33, monkeypatch):
    # every lifted hull is built with the sample at x = (0, 3h) lifted far up
    # in v: that sample loses its facets with c_v > 0, and the facets now
    # spanning over it pass above the real sample, which the primal
    # certificates of its neighbours reject, on the floor's neighbourhood hull
    # and again on the full hull it falls back to
    at, built = (0.0, 3.0 * bump33.spacing), []

    def hull(cloud, qhull_options=None):
        if qhull_options is not None:
            built.append(len(cloud))
            cloud = cloud.copy()
            cloud[_row_at(cloud, at), -2] += 10.0
        return ConvexHull(cloud, qhull_options=qhull_options)
    monkeypatch.setattr(lab, "ConvexHull", hull)
    with pytest.raises(h.GeometryError) as info:
        h.theta_field(bump33, a_max=600.0)
    failed = int(re.search(r"left (\d+) of", str(info.value)).group(1))
    assert failed > 1
    assert len(built) == 2 and built[0] < built[1] == int(bump33.inside_mask().sum())


def test_theta_missing_facets_are_caught(bump33, monkeypatch):
    # a "Q0" hull without the facets that give one sample its Theta: the next
    # facet still supports the data, but its ratio is too high, which the dual
    # certificate rejects, on the floor's neighbourhood hull and again on the
    # full hull it falls back to; that sample is named as uncertified
    at, built = (0.0, 3.0 * bump33.spacing), []     # Theta about 5.0

    def hull(cloud, qhull_options=None):
        full = ConvexHull(cloud, qhull_options=qhull_options)
        if qhull_options is None:
            return full
        built.append(qhull_options)
        inward = -full.equations
        at_target = (full.simplices == _row_at(cloud, at)).any(axis=1) & (inward[:, -3] > 0.0)
        ratio = np.where(at_target, inward[:, -2] / np.where(at_target, inward[:, -3], 1.0), np.inf)
        keep = ratio > ratio.min() + 1e-9
        return SimpleNamespace(simplices=full.simplices[keep], equations=full.equations[keep])
    monkeypatch.setattr(lab, "ConvexHull", hull)
    with pytest.raises(h.GeometryError, match=r"left 1 of \d+ samples uncertified"):
        h.theta_field(bump33, a_max=600.0)
    assert built == ["Q0", "Q0"]


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


def test_decay_and_theta_agree_on_the_floor_path(bump_grid, bump_theta, monkeypatch):
    # both engines decide from neighbourhood hulls and certificates here: the
    # non-contact count at each opening a is #{Theta >= a}, and no Theta lies
    # within 1e-12 a of an opening
    masks, decay_masks = [], lab._decay_masks

    def recorded(*args):
        for mask in decay_masks(*args):
            masks.append(mask)
            yield mask
    monkeypatch.setattr(lab, "_decay_masks", recorded)
    rep = h.decay_experiment(bump_grid, 1.0, 8, h.Ellipticity(2, 2.0, 1))
    assert rep.stats["undecided"] == 0 and bump_theta.stats["hull_calls"] == 1
    inside = bump_grid.inside_mask()
    theta, lo, hi = (f[inside] for f in (bump_theta.theta, bump_theta.bracket_lo,
                                         bump_theta.bracket_hi))
    want = [981, 749, 529, 357, 225, 145, 89, 61, 37]
    assert [int((theta >= a).sum()) for a in rep.openings] == want
    assert (rep.counts / bump_grid.cell_measure).tolist() == want
    assert len(masks) == len(rep.openings)
    for a, mask in zip(rep.openings, masks):
        assert (np.abs(theta - a) > 1e-12 * a).all()
        assert mask[hi < a * (1.0 - 1e-12)].all() and not mask[lo > a * (1.0 + 1e-12)].any()


def _decay_or_partial(g, levels):
    try:
        return h.decay_experiment(g, 1.0, levels, h.Ellipticity(3, 2.0, 1))
    except h.DegenerateData as exc:
        return exc.report


def _masks_and_full(monkeypatch, g, openings, stats):
    # decay's mask at each opening, the openings at which it built a full
    # _contact hull, and one full _contact per opening
    contact, full = lab._contact, []

    def recorded(cloud, a, hull_stats):
        full.append(a)
        return contact(cloud, a, hull_stats)
    cloud, inside = lab._ball_cloud(g)
    with monkeypatch.context() as patch:
        patch.setattr(lab, "_contact", recorded)
        masks = list(lab._decay_masks(g.shape, inside, cloud, openings, stats))
    return masks, full, [contact(cloud, a, _decay_stats())[1] for a in openings]


def _decay_stats():
    return dict(hull_calls=0, hull_points=0, q0_raised=0, q0_rejected=0, lower_facets=0,
                undecided=0, cert_pairs=0)


def test_decay_masks_equal_one_full_hull_per_opening(monkeypatch):
    # from the floor on, only the samples out of contact are decided, from
    # their neighbourhood's hull; every opening's mask and count still equal
    # one full _contact, at the critical openings too (the paraboloid lifts
    # flat at 4, the plateau and the lattice have flat faces at 16 and 2)
    h_bump = 2.0 / 128
    bump = h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 129,
                         centre=(h_bump / 2, -h_bump / 2))
    openings, fallbacks = 2.0 ** np.arange(8), []
    for g in [g for g, *_ in _hull_corpus()] + [bump]:
        stats = _decay_stats()
        masks, full, want = _masks_and_full(monkeypatch, g, openings, stats)
        assert all(np.array_equal(m, w) for m, w in zip(masks, want)), g.shape
        counts = [(~w).sum() * g.cell_measure for w in want]
        assert np.array_equal(_decay_or_partial(g, 7).counts, counts), g.shape
        fallbacks.append((full, stats))
    # the README plateau falls back at its flat face only, where its 385 inner
    # samples tie and the full hull's vertex check refuses "Q0"; on the
    # shifted bump every opening is decided by its neighbourhood
    plateau, bump = fallbacks[1], fallbacks[-1]
    assert plateau[0] == [16.0] and (plateau[1]["hull_calls"], plateau[1]["q0_rejected"],
                                     plateau[1]["undecided"]) == (8, 1, 385)
    assert bump[0] == [] and (bump[1]["hull_calls"], bump[1]["undecided"]) == (8, 0)


def test_decay_certifies_contact_against_every_sample(monkeypatch):
    # the README plateau with the ring sample k = (0.375, 0) sunk by 0.3: at
    # 32 its core neighbour m = (0.34375, 0) lies above the chord to k, so it
    # is out of contact. With k taken out of the neighbourhood, m is a lower
    # vertex of that hull, and only the check against all samples, k among
    # them, refuses the plane the hull proposes at m: the opening falls back
    g = h.grid_from_callable(lambda p: np.maximum(-8.0 * (p ** 2).sum(axis=1), -1.0), 2, 65)
    k, m = np.ravel_multi_index((44, 32), g.shape), np.ravel_multi_index((43, 32), g.shape)
    g.values.reshape(-1)[k] -= 0.3
    openings = 2.0 ** np.arange(6)
    assert _masks_and_full(monkeypatch, g, openings, _decay_stats())[1] == [1.0, 2.0, 16.0]
    dilated = lab._dilated

    def without_k(shape, at, cells):
        grid = dilated(shape, at, cells)
        grid.reshape(-1)[k] = False
        return grid
    monkeypatch.setattr(lab, "_dilated", without_k)
    masks, full, want = _masks_and_full(monkeypatch, g, openings, _decay_stats())
    assert full == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert all(np.array_equal(mask, w) for mask, w in zip(masks, want))
    inside = g.inside_mask().reshape(-1)
    at = np.cumsum(inside) - 1      # sample index of each inside grid cell
    assert not masks[-1][at[m]]
    # the hull of the neighbourhood without k has m as a lower vertex at 32
    pts = g.points()[inside]
    lifted = g.values.reshape(-1)[inside] + 16.0 * (pts ** 2).sum(axis=1)
    near = without_k(g.shape, np.flatnonzero(inside)[~masks[-2]], 2).reshape(-1)[inside]
    hull = ConvexHull(np.column_stack([pts, lifted])[near], qhull_options="Q0")
    lower = hull.simplices[hull.equations[:, 2] < 0]
    assert np.flatnonzero(near).searchsorted(at[m]) in lower


def test_neighbourhood_leaves_a_candidate_within_the_margin_undecided(monkeypatch):
    # the middle sample of a convex 1-d lift moved onto the chord of its
    # neighbours, 1e-13 (far below the 1e-12 margin, far above rounding) off
    # it: above, it lies inside the hull, within rounding of the lower facet;
    # below, it is a vertex that a "Q0" hull may drop as coplanar (built here
    # without it). Neither is called out of contact; 1e-3 above, it is
    x, k = np.linspace(-1.0, 1.0, 9)[:, None], 4
    for offset, dropped, want in ((1e-13, False, None), (-1e-13, True, None),
                                  (1e-3, False, [False])):
        lifted = x[:, 0] ** 2 + 1.0
        lifted[k] = 0.5 * (lifted[k - 1] + lifted[k + 1]) + offset

        def hull(cloud, qhull_options=None):
            if dropped:
                cloud = cloud.copy()
                cloud[k, -1] += 1.0
            return ConvexHull(cloud, qhull_options=qhull_options)
        monkeypatch.setattr(lab, "ConvexHull", hull)
        stats = dict(hull_calls=0, hull_points=0, q0_raised=0, lower_facets=0, undecided=0,
                     cert_pairs=0)
        got = lab._neighbourhood_contact(np.column_stack([x, lifted, 0.5 * x ** 2]), 0.0,
                                         np.array([k]), np.ones(len(x), bool), stats)
        assert (got if got is None else got.tolist()) == want, offset
        assert stats["undecided"] == (want is None), offset


def test_neighbourhood_leaves_a_vertex_within_the_margin_undecided():
    # the middle sample of a convex 1-d lift moved 1e-13 below the chord of
    # its neighbours: a lower vertex of the "Q0" hull, whose support plane
    # leaves the neighbours within the 1e-12 margin, so it is not called in
    # contact; 1e-3 below, it is
    x, k = np.linspace(-1.0, 1.0, 9)[:, None], 4
    for offset, want in ((-1e-13, None), (-1e-3, [True])):
        lifted = x[:, 0] ** 2 + 1.0
        lifted[k] = 0.5 * (lifted[k - 1] + lifted[k + 1]) + offset
        assert k in ConvexHull(np.column_stack([x, lifted]), qhull_options="Q0").vertices
        stats = dict(hull_calls=0, hull_points=0, q0_raised=0, lower_facets=0, undecided=0,
                     cert_pairs=0)
        got = lab._neighbourhood_contact(np.column_stack([x, lifted, 0.5 * x ** 2]), 0.0,
                                         np.array([k]), np.ones(len(x), bool), stats)
        assert (got if got is None else got.tolist()) == want, offset
        assert stats["undecided"] == (want is None), offset


def test_neighbourhood_whose_q0_raises_gets_qx_or_the_full_hull(monkeypatch):
    # "Q0" is made to raise on every neighbourhood (a cloud short of the
    # grid's samples), never on the full cloud. The shifted 33^2 bump's
    # neighbourhood lifts are not flat: each opening is decided by the "Qx"
    # hull, with the lower facets the "Q0" hulls had. The README plateau
    # shrunk to radius 1.2e-4 (v scaled by its square, plus 100) lifts within
    # 1e-7, 1e-9 of its size, of a plane on each neighbourhood: flat, which
    # decides nothing, so each opening with candidates gets its full hull
    def raising(n):
        def hull(cloud, qhull_options=None):
            if qhull_options == "Q0" and len(cloud) < n:
                raise QhullError("forced on a neighbourhood")
            return ConvexHull(cloud, qhull_options=qhull_options)
        return hull

    rho, openings = 1.2e-4, 2.0 ** np.arange(8)
    bump = h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 33,
                         centre=(1.0 / 32.0, -1.0 / 32.0))
    small = h.grid_from_callable(
        lambda p: 100.0 + np.maximum(-rho ** 2, -8.0 * (p ** 2).sum(axis=1)), 2, 33,
        domain_radius=rho)
    runs = []
    for g in (bump, small):
        plain = _decay_stats()
        _masks_and_full(monkeypatch, g, openings, plain)
        stats = _decay_stats()
        with monkeypatch.context() as patch:
            patch.setattr(lab, "ConvexHull", raising(int(g.inside_mask().sum())))
            masks, full, want = _masks_and_full(monkeypatch, g, openings, stats)
        assert all(np.array_equal(m, w) for m, w in zip(masks, want)), g.shape
        runs.append((plain, full, stats))
    plain, full, stats = runs[0]
    assert full == [] and stats == plain | dict(
        hull_calls=16, hull_points=2 * plain["hull_points"], q0_raised=8)
    assert (plain["hull_calls"], plain["q0_raised"], plain["undecided"]) == (8, 0, 0)
    # six openings have candidates; the full hull at 16, the plateau's flat
    # face, is rebuilt as in test_decay_masks_equal_one_full_hull_per_opening
    _, full, stats = runs[1]
    assert full == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert (stats["hull_calls"], stats["q0_raised"], stats["q0_rejected"],
            stats["undecided"]) == (13, 6, 1, 574)


def test_support_margin_leaves_out_the_sample_itself():
    # on v = |x|^2 the paraboloid of opening a with the tangent slope 2 x_i
    # leaves every other sample (1 + a/2)|x_j - x_i|^2 >= h^2 above it, so
    # the margin is far above 1 at every sample, though the sample itself
    # sits on its paraboloid
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 9, domain_radius=1.0)
    pts, _, inside = g._coords()
    pts = pts[inside]
    cloud = np.column_stack([pts, g.values.ravel()[inside], 0.5 * (pts ** 2).sum(axis=1)])
    rows = np.arange(len(pts))
    for a in (0.0, 1.0):
        margin = lab._support_margin(cloud, 2, rows, np.full(len(rows), a), 2.0 * pts,
                                     dict(cert_pairs=0))
        assert (margin > 1.0).all(), a


def _certificate_calls(monkeypatch, run):
    # the (cloud, d, rows, a, p) of every _support_margin call that run() makes
    calls, margin = [], lab._support_margin

    def recorded(cloud, d, rows, a, p, stats):
        calls.append((cloud, d, rows.copy(), a.copy(), p.copy()))
        return margin(cloud, d, rows, a, p, stats)
    with monkeypatch.context() as patch:
        patch.setattr(lab, "_support_margin", recorded)
        run()
    return calls


def _full_margin(cloud, d, rows, a, p):
    # every row's least slack over all the other samples, from the whole
    # K @ cols row (64 rows a product), in units of 1e-12 of its scale
    points, values, q = cloud[:, :d], cloud[:, d], cloud[:, d + 1]
    x = points[rows]
    K = np.column_stack([np.ones(len(rows)), a, -(a[:, None] * x + p),
                         -values[rows] + a * q[rows] + (p * x).sum(axis=1)])
    cols = np.vstack([values, q, points.T, np.ones(len(cloud))])
    least = np.empty(len(rows))
    for s in range(0, len(rows), 64):
        slack = K[s:s + 64] @ cols
        slack[np.arange(len(slack)), rows[s:s + 64]] = np.inf
        least[s:s + 64] = slack.min(axis=1)
    scale = np.abs(K) @ np.abs(cols).max(axis=1) + np.abs(p).sum(axis=1) * np.abs(points).max()
    return least / (1e-12 * scale)


def test_support_margin_equals_the_full_product_where_it_decides(monkeypatch, bump_grid):
    # each row reads only the samples of its x_0 slab: a margin at or below 1
    # is the full product's bit for bit, and the verdicts at > 1 (decay) and
    # >= -1 (Theta) are the same everywhere; rows with a = 0 read every sample.
    # On the 129^2 bump decay's slabs hold under a third of the pairs
    lattice = h.build_v(h.RadialProfile(3, 3.0, 0.125, 1.0, 2.0),
                        h.grid_from_callable(lambda p: np.zeros(len(p)), 2, 65))
    bump3 = h.capped_bump(h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 17, centre=(0.0, 0.0, 0.0))
    e = h.Ellipticity(3, 2.0, 1)
    runs = {"decay bump129": lambda: h.decay_experiment(bump_grid, 1.0, 6, e),
            "theta bump129": lambda: h.theta_field(bump_grid, 600.0),
            "theta build_v 65": lambda: h.theta_field(lattice, 600.0),
            "theta bump 17^3": lambda: h.theta_field(bump3, 600.0),
            "decay bump 17^3": lambda: _decay_or_partial(bump3, 6),
            "theta ridge 1-d": lambda: h.theta_field(ridge_1d(), 600.0),
            "decay ridge 1-d": lambda: _decay_or_partial(ridge_1d(), 6)}
    cases = {name: _certificate_calls(monkeypatch, run) for name, run in runs.items()}
    assert all(cases.values())
    flat = []
    for cloud, d, rows, a, p in cases["decay bump129"][:1] + cases["theta ridge 1-d"]:
        a = a.copy()
        a[::3] = 0.0
        flat.append((cloud, d, rows, a, p))
    cases["a = 0 on every third row"] = flat
    decided, pairs, all_pairs = 0, 0, 0     # pairs: decay's on the 129^2 bump
    for name, calls in cases.items():
        for cloud, d, rows, a, p in calls:
            stats = dict(cert_pairs=0)
            got = lab._support_margin(cloud, d, rows, a, p, stats)
            full = _full_margin(cloud, d, rows, a, p)
            low = full <= 1.0
            assert np.array_equal(got[low], full[low]), name
            assert np.array_equal(got > 1.0, full > 1.0), name
            assert np.array_equal(got >= -1.0, full >= -1.0), name
            assert len(rows) <= stats["cert_pairs"] <= len(rows) * len(cloud), name
            if name.startswith("a = 0"):
                assert stats["cert_pairs"] >= len(cloud) * (a == 0.0).sum(), name
            decided += int(low.sum())
            if name == "decay bump129":
                pairs += stats["cert_pairs"]
                all_pairs += len(rows) * len(cloud)
    assert decided > 0 and pairs < all_pairs / 3


def test_support_margin_reach_comes_from_the_clouds_minimum(monkeypatch, bump_grid):
    # a sample far outside a certified row's slab, lowered below that row's
    # paraboloid, lowers the cloud's minimum and so widens the slab: the row fails
    e = h.Ellipticity(3, 2.0, 1)
    cloud, d, rows, a, p = _certificate_calls(
        monkeypatch, lambda: h.decay_experiment(bump_grid, 1.0, 6, e))[0]
    assert (lab._support_margin(cloud, d, rows, a, p, dict(cert_pairs=0)) > 1.0).all()
    k = len(rows) // 2
    i = rows[k]
    centre = cloud[i, 0] + p[k, 0] / a[k]
    vmin = cloud[:, d].min()
    reach = np.sqrt(((p[k] / a[k]) ** 2).sum() + 2.0 * (cloud[i, d] - vmin) / a[k])
    j = int(np.abs(cloud[:, 0] - centre).argmax())
    assert abs(cloud[j, 0] - centre) > 2.0 * reach
    dx = cloud[j, :d] - cloud[i, :d]
    broken = cloud.copy()
    broken[j, d] = cloud[i, d] + p[k] @ dx - 0.5 * a[k] * (dx @ dx) - 1.0
    assert broken[j, d] < vmin
    margin = lab._support_margin(broken, d, rows, a, p, dict(cert_pairs=0))
    assert margin[k] < -1.0


@pytest.mark.parametrize("grid", [
    ridge_1d(33), ridge_2d(17),
    h.capped_bump(h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 9, centre=(0.0, 0.0, 0.0)),
    h.GridFunction(dim=2, shape=(11, 14), spacing=0.25, center=(0.3, -1.7), domain_radius=1.4,
                   values=np.zeros((11, 14)))], ids=["1-d", "2-d", "3-d", "off-centre"])
def test_ball_cloud_rows_are_in_flat_grid_order(grid):
    # the certificate's slabs rest on x_0 being nondecreasing along the rows
    cloud, inside = lab._ball_cloud(grid)
    d, shape = grid.dim, np.array(grid.shape)
    index = np.rint(cloud[:, :d] / grid.spacing + (shape - 1) / 2.0).astype(int)
    flat = np.ravel_multi_index(tuple(index.T), grid.shape)
    assert np.array_equal(flat, np.flatnonzero(inside))
    assert (np.diff(cloud[:, 0]) >= 0.0).all() and len(cloud) > 1


def test_dilated_marks_the_cells_two_steps_away_along_every_axis():
    rng = np.random.default_rng(7)
    for shape in ((9,), (7, 8), (5, 6, 7)):
        at = rng.choice(np.prod(shape), 3, replace=False)
        cells = np.indices(shape).reshape(len(shape), -1).T
        steps = np.abs(cells[:, None, :] - cells[at][None, :, :]).max(axis=2).min(axis=1)
        assert np.array_equal(lab._dilated(shape, at, 2).reshape(-1), steps <= 2), shape


def test_decay_builds_on_the_calling_thread(monkeypatch):
    # one thread builds every hull, the first opening's and the neighbourhoods'
    seen = []

    def hull(*args, **kwargs):
        seen.append(threading.get_ident())
        return ConvexHull(*args, **kwargs)
    monkeypatch.setattr(lab, "ConvexHull", hull)
    _decay_or_partial(ridge_2d(), 5)
    assert len(seen) >= 2 and set(seen) == {threading.get_ident()}


def test_decay_fallback_error_is_raised_as_it_is(monkeypatch):
    # the plateau's flat face at 16 leaves samples undecided; the full hull
    # built for it raises, and decay raises that very object, with no full
    # hull built before it
    contact, error, built = lab._contact, h.GeometryError("forced at opening 16"), []

    def failing(cloud, a, stats):
        if a == 16.0:
            raise error
        built.append(a)
        return contact(cloud, a, stats)
    monkeypatch.setattr(lab, "_contact", failing)
    g = h.grid_from_callable(lambda p: np.maximum(-8.0 * (p ** 2).sum(axis=1), -1.0), 2, 65)
    with pytest.raises(h.GeometryError) as info:
        h.decay_experiment(g, 1.0, 5, h.Ellipticity(3, 2.0, 1))
    assert info.value is error and built == []


def test_decay_partial_report_sums_the_counters():
    # convex data is in contact everywhere at the first opening; its floor is
    # the centre, whose neighbourhood holds every sample, so decay sends the
    # others to that opening's full hull and decides nothing after it
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    cloud, inside = lab._ball_cloud(g)
    n = int(inside.sum())
    want = dict(hull_calls=0, hull_points=0, q0_raised=0, q0_rejected=0, lower_facets=0)
    lab._contact(cloud, 1.0, want)
    want |= {"undecided": n - 1, "cert_pairs": 0, "floor": 1}
    with pytest.raises(h.DegenerateData) as exc:
        h.decay_experiment(g, 1.0, 5, h.Ellipticity(2, 2.0, 1))
    assert exc.value.report.stats == want and want["hull_calls"] == 1


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
