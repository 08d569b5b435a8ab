"""Jets with a batch axis: every lane equals the scalar evaluation bitwise.

Covers the curve batch method against the per-point methods, the batched
quadrature of the tangent-sliding curves against a per-node reference, the
batched Newton refinement of the scan against a scalar reference loop, the
residual landscape against ``partial_value``, the field-dependence scan
against a per-point reference loop, and errors raised by a single failing
lane.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transurf import instances, jets, surface
from transurf.curves import (CurveJets, build_curve, catalog, catalog_names,
                             frenet_lift, parse_curve, vec_values)
from transurf.errors import (DegenerateDivision, DomainError,
                             NotNonDegenerate, OriginAtan2)
from transurf.framefield import (entry_bijet, entry_value, frame_dot,
                                 reconstruct_framed_curves)
from transurf.jets import Jet
from transurf.surface import TranslationSurface, _newton_t3
from transurf.verify import all_pairs, surface_for


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _assert_lanes(batch_vec, scalar_vecs):
    """Lane k of every batch jet equals the scalar jet at the k-th t."""
    for c in range(len(batch_vec)):
        stacked = np.stack([vec[c].d for vec in scalar_vecs], axis=1)
        assert batch_vec[c].d.shape == stacked.shape
        assert _bits(batch_vec[c].d) == _bits(stacked)


def _curvature_jets(c):
    return (c.l, c.m, c.n, c.alpha)


def _reconstructed():
    a, _ = reconstruct_framed_curves(
        catalog("s1m_a").batch_curvature, catalog("s0_b").batch_curvature,
        np.eye(3), (0.0, 0.0), (-0.5, 0.5), (-0.5, 0.5), step=1e-2)
    return a


CURVES = {name: (lambda name=name: catalog(name)) for name in catalog_names()}
CURVES.update({
    "helix": instances.helix,
    "line": lambda: instances.line_curve((1.0, 2.0, 0.5)),
    "cusp_planar": lambda: instances.cusp_curve(planar=True),
    "cusp_spatial": lambda: instances.cusp_curve(planar=False),
    # Frenet-framed slide, and a slide with a vanishing speed framed by transport
    "slide_edge": lambda: instances.slide_pair("edge")[0].curve_v,
    "slide_fading": lambda: instances.rank_zero_pair()[0].curve_v,
    "reconstructed": _reconstructed,
    "expr_planar": lambda: build_curve(parse_curve("(u, 0.7*u^2, 0)")),
    "expr_spatial": lambda: build_curve(
        parse_curve("(sin(u), u - exp(u/3), sqrt(2 + u^2))")),
})

fractions = st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1,
                     max_size=4)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", sorted(CURVES))
@settings(max_examples=8, deadline=None)
@given(fracs=fractions)
def test_lanes_equal_scalar_evaluation(name, order, fracs):
    fc = CURVES[name]()
    lo, hi = fc.domain
    ts = [lo + f * (hi - lo) for f in fracs]
    batch = fc.batch_jets(np.array(ts), order)
    # one CurveJets at each float t, and the curvature reader, whose order
    # is one lower than that of its CurveJets
    points = [CurveJets(fc, t, order) for t in ts]
    _assert_lanes(batch.gamma, [p.gamma for p in points])
    for i in (1, 2, 3):
        _assert_lanes(batch.row(i), [p.row(i) for p in points])
    _assert_lanes((batch.alpha,), [(p.alpha,) for p in points])
    _assert_lanes(_curvature_jets(batch.curvature),
                  [_curvature_jets(p.curvature) for p in points])
    _assert_lanes(_curvature_jets(batch.curvature),
                  [_curvature_jets(fc.curvature(t, order - 1)) for t in ts])
    # a lane read off the batch is the scalar CurveJets at its t, and lanes
    # gathered in any order are the batch at those t
    lanes = [batch.take(k) for k in range(len(ts))]
    assert [lane.t for lane in lanes] == ts
    for i in (1, 2, 3):
        _assert_lanes(batch.row(i), [lane.row(i) for lane in lanes])
    _assert_lanes(_curvature_jets(batch.curvature),
                  [_curvature_jets(lane.curvature) for lane in lanes])
    idx = np.array([len(ts) - 1, 0, len(ts) - 1])
    gathered = batch.take(idx)
    for i in (1, 2, 3):
        _assert_lanes(gathered.row(i), [points[k].row(i) for k in idx])
    _assert_lanes(_curvature_jets(gathered.curvature),
                  [_curvature_jets(points[k].curvature) for k in idx])


@pytest.mark.parametrize("name", sorted(CURVES))
def test_lower_order_is_a_truncation(name):
    # a point read at several orders is evaluated once, at the highest: the
    # jets of every lower order are its truncations, bitwise
    fc = CURVES[name]()
    lo, hi = fc.domain
    for t in np.linspace(lo, hi, 5)[1:-1]:
        top = CurveJets(fc, float(t), 7)
        for order in range(2, 7):
            at = CurveJets(fc, float(t), order)
            pairs = list(zip(at.gamma, top.gamma))
            for i in (1, 2, 3):
                pairs += zip(at.row(i), top.row(i))
            pairs += zip(_curvature_jets(at.curvature),
                         _curvature_jets(top.curvature))
            for a, b in pairs:
                assert _bits(a.d) == _bits(b.d[: len(a.d)]), (t, order)


def test_scaled_and_negated_curves_batch():
    base = catalog("sin_curve")
    ts = np.array([-1.0, 0.25, 2.5])
    for fc in (base.scaled(0.5), base.scaled(0.5).negated()):
        _assert_lanes(fc.batch_jets(ts, 3).gamma,
                      [fc.gamma_jets(float(t), 3) for t in ts])


def _slide_value_reference(base, h0, h1, h2, s0, s1, t):
    """The Simpson sum of a tangent-sliding curve with one scalar direction
    jet per node: speed(x) * (mu_base o h)(x), both jets of order 2."""
    h_jet = instances._quadratic(h0, h1, h2)

    def direction(x):
        hj = h_jet(x, 2)
        mu = base.frame_row(3, hj.value, 2)
        spj = Jet(x, [s0 + s1 * x, s1, 0.0])
        return [(spj * Jet(x, hj.compose_outer(mu[c].d).d)).value
                for c in range(3)]

    n = max(16, 2 * int(abs(t) / 0.05) + 2)
    ss = np.linspace(0.0, t, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    vals = np.array([direction(float(x)) for x in ss])
    return (t / n) / 3.0 * (w[:, None] * vals).sum(axis=0)


# (surface builder, base curve, h0, h1, h2, s0, s1) as each instance
# passes them to ``tangent_slide_curve``
SLIDES = {
    "edge": (lambda: instances.slide_pair("edge"), instances.helix,
             0.2, 1.7, 0.6, 1.0, 0.0),
    "swallowtail": (lambda: instances.slide_pair("swallowtail"),
                    instances.helix, 0.2, -1.0, 0.8, 1.0, 0.0),
    "nonfront": (lambda: instances.slide_pair("nonfront"), instances.helix,
                 0.2, 1.0, 0.9, 1.0, 0.0),
    "cusp": (instances.singular_speed_pair,
             lambda: instances.cusp_curve(planar=False),
             0.0, 1.3, 0.0, 1.0, 0.0),
    "fading": (instances.rank_zero_pair,
               lambda: instances.cusp_curve(planar=False),
               0.0, 1.4, 0.0, 0.0, 1.0),
}


@pytest.mark.parametrize("kind", sorted(SLIDES))
def test_slide_quadrature_matches_scalar_reference(kind):
    pair, base, *params = SLIDES[kind]
    slide = pair()[0].curve_v
    # |t| = 0.45 takes 20 Simpson intervals, more than the minimum of 16
    for t in (-0.45, -0.1, 0.17, 0.45):
        got = vec_values(slide.gamma_jets(t, 2))
        want = _slide_value_reference(base(), *params, t)
        assert _bits(got) == _bits(want), t


def _newton_reference(s, u, v, tol, max_iter=80):
    """The scalar Newton loop on (t31, t32) = 0, one start at a time, each
    iterate from one scalar evaluation of each curve."""
    converged = False
    for _ in range(max_iter):
        mu_b = CurveJets(s.curve_v, v, 2).row(3)
        ju = CurveJets(s.curve_u, u, 2)
        b31 = entry_bijet(mu_b, ju.row(1), u, v, degree=2)
        b32 = entry_bijet(mu_b, ju.row(2), u, v, degree=2)
        r = np.array([b31.value, b32.value])
        rn = math.hypot(*r)
        if rn < tol:
            converged = True
        J = np.array([[b31.part(1, 0), b31.part(0, 1)],
                      [b32.part(1, 0), b32.part(0, 1)]])
        step, *_ = np.linalg.lstsq(J, -r, rcond=1e-10)
        nrm = float(np.linalg.norm(step))
        if converged and nrm < 1e-12:
            return u, v
        if nrm > 0.5:
            step *= 0.5 / nrm
        new = (u + step[0], v + step[1])
        if not np.isfinite(new).all():
            return None
        u, v = new
    return (u, v) if converged else None


PAIRS = {
    "s0": lambda: TranslationSurface.general(catalog("s0_a"), catalog("s0_b")),
    "s1p": lambda: TranslationSurface.general(catalog("s1p_a"), catalog("s1p_b")),
    "s1m": lambda: TranslationSurface.general(catalog("s1m_a"), catalog("s1m_b")),
    "sin_minus": lambda: TranslationSurface.self_translation(
        catalog("sin_curve"), -1),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_batched_newton_matches_scalar_reference(pair):
    s = PAIRS[pair]()
    rng = np.random.default_rng(11)
    starts = [(0.05, -0.04), (0.3, 0.3), (-0.7, 0.2), (1.9, -1.9)]
    starts += [tuple(p) for p in rng.uniform(-1.5, 1.5, size=(6, 2))]
    us, vs = [u for u, _ in starts], [v for _, v in starts]
    tol = s.tols.sing_tol
    got = _newton_t3(s, us, vs, tol)
    want = [_newton_reference(s, u, v, tol) for u, v in starts]
    assert any(w is not None for w in want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert _bits(g) == _bits(w)


def test_landscape_nodes_equal_partial_value():
    s = PAIRS["s1m"]()
    us, vs = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 1.5, 4)
    on_u, on_v = s.curve_u.batch_jets(us, 2), s.curve_v.batch_jets(vs, 2)
    mu_v = [c.value[None, :] for c in on_v.mu]
    for j, row in zip((1, 2), on_u.frame):
        grid = frame_dot(mu_v, [c.value[:, None] for c in row])
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                node = s.field.partial_value(3, j, float(u), float(v))
                assert _bits(grid[a, b]) == _bits(node)
                assert _bits(node) == _bits(
                    s.field.t_bijet(3, j, float(u), float(v), degree=2).value)


def _dependence_rows_reference(s, window, n):
    """Rows (t31, t32) and (A, B) of the dependence scan, point by point
    from one scalar evaluation of each curve per grid parameter."""
    u0, u1, v0, v1 = window
    on_v = [CurveJets(s.curve_v, float(v), 2) for v in np.linspace(v0, v1, n)]
    rows_t, rows_ab = [], []
    for u in np.linspace(u0, u1, n):
        ju = CurveJets(s.curve_u, float(u), 2)
        for jv in on_v:
            t31 = entry_value(jv.row(3), ju.row(1))
            t32 = entry_value(jv.row(3), ju.row(2))
            au, av = ju.alpha.value, jv.alpha.value
            rows_t.append((t31, t32))
            rows_ab.append((-au * av * t32, au * av * t31))
    return np.asarray(rows_t), np.asarray(rows_ab)


def _sigma_ratio_reference(rows):
    sv = np.linalg.svd(rows, compute_uv=False)
    return 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])


DEPENDENCE_PAIRS = {key: (lambda key=key: surface_for(key))
                    for key in all_pairs()}
DEPENDENCE_PAIRS["expr"] = lambda: TranslationSurface.general(
    build_curve(parse_curve("(u, 0.7*u^2, 0)")),
    build_curve(parse_curve("(v, 0, 1.3*v^2)")))


@pytest.mark.parametrize("pair", sorted(DEPENDENCE_PAIRS))
def test_dependence_scan_matches_pointwise_reference(pair, monkeypatch):
    s = DEPENDENCE_PAIRS[pair]()
    window, n = (-0.9, 0.9, -0.8, 1.1), 9
    want_t, want_ab = _dependence_rows_reference(s, window, n)

    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rep = surface.ab_dependence_scan(s, window, n=n)
    monkeypatch.undo()

    assert len(seen) == 2
    assert seen[0].shape == want_t.shape and _bits(seen[0]) == _bits(want_t)
    assert seen[1].shape == want_ab.shape and _bits(seen[1]) == _bits(want_ab)
    assert _bits(rep.t_sigma_ratio) == _bits(_sigma_ratio_reference(want_t))
    assert _bits(rep.ab_sigma_ratio) == _bits(_sigma_ratio_reference(want_ab))


def test_scan_evaluates_only_merged_points(monkeypatch):
    s = PAIRS["s1m"]()
    made = []
    original = surface._make_point

    def spy(pj, *args, **kwargs):
        made.append(pj.p)
        return original(pj, *args, **kwargs)

    monkeypatch.setattr(surface, "_make_point", spy)
    pts = surface.find_singular_points(s, (-1.5, 1.5, -1.5, 1.5), grid_n=20)
    assert len(made) == len(pts) == 1


def test_failing_lane_raises_scalar_error_type():
    t = np.array([0.5, 1.0, 2.0])
    x = Jet.variable(t, 3)
    with pytest.raises(DomainError):
        jets.sqrt(x - 1.0)
    with pytest.raises(DomainError):
        (x - 1.5) ** 0.5
    with pytest.raises(DegenerateDivision):
        x / (x - 1.0)
    with pytest.raises(OriginAtan2):
        jets.atan2(x - 1.0, x - 1.0)
    with pytest.raises(ValueError):
        x * Jet.variable(np.array([0.5, 1.0, 2.5]), 3)


def test_failing_lane_of_frenet_curve_raises():
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, u * u * u, Jet.constant(0.0, t, order))

    # 33 validation samples over (-1, 1.1) miss the inflection at 0
    fc = frenet_lift(gamma, (-1.0, 1.1), name="cubic")
    with pytest.raises(NotNonDegenerate):
        fc.frame_row(1, 0.0, 2)
    with pytest.raises(NotNonDegenerate, match="t=0.0"):
        fc.batch_jets(np.array([0.5, 0.0, -0.5]), 2).frame


def _newton_alpha_reference(curve, t, tol, max_iter=30):
    """The scalar Newton loop on alpha = 0 from one start."""
    for _ in range(max_iter):
        c = curve.curvature(t, 1)
        f, df = c.alpha.value, c.alpha.deriv(1)
        if abs(f) < tol:
            return t
        if df == 0.0:
            return None
        step = -f / df
        while abs(step) > 0.5:
            step *= 0.5
        t = t + step
    return None


ALPHA_CURVES = {
    "cusp_planar": lambda: instances.cusp_curve(planar=True),
    "cusp_spatial": lambda: instances.cusp_curve(planar=False),
    "slide_fading": lambda: instances.rank_zero_pair()[0].curve_v,
    "sin_curve": lambda: catalog("sin_curve"),
}


@pytest.mark.parametrize("name", sorted(ALPHA_CURVES))
def test_batched_alpha_newton_matches_scalar_reference(name):
    fc = ALPHA_CURVES[name]()
    starts = np.linspace(*fc.domain, 9)
    tol = 1e-12
    got = surface._newton_alpha(fc, starts, tol)
    want = [_newton_alpha_reference(fc, float(t), tol) for t in starts]
    # alpha >= 1 on sin_curve; the others vanish at t = 0
    assert all(w is None for w in want) == (name == "sin_curve")
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert type(g) is float and _bits(g) == _bits(w)


def test_scan_reads_kept_points_from_one_batch_per_curve(monkeypatch):
    # the data of every kept point are lanes of one batch per curve: the
    # only scalar CurveJets of a scan are those lanes, and a kept point's
    # criteria evaluate no curve
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    built, making = [], []
    original = CurveJets.__init__

    def spy(self, curve, t, order):
        built.append((isinstance(t, np.ndarray), bool(making)))
        original(self, curve, t, order)

    make = surface._make_point

    def spy_make(pj, isolated):
        making.append(pj)
        try:
            return make(pj, isolated)
        finally:
            making.pop()

    monkeypatch.setattr(CurveJets, "__init__", spy)
    monkeypatch.setattr(surface, "_make_point", spy_make)
    pts = surface.find_singular_points(s, (-3.2, 3.2, -3.2, 3.2), grid_n=20)
    assert len(pts) > 2
    assert not any(in_make for _, in_make in built)
    assert sum(not batch for batch, _ in built) == 2 * len(pts)
