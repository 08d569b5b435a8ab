"""Jets with a batch axis: every lane equals the scalar evaluation bitwise.

Covers the curve batch method against the per-point methods; the
tangent-sliding and reconstructed curves against stacked scalar lanes and
their former scalar algorithms (a quadrature per node, a derivative stack
per lane, a one-time RK4 state read); the source calls of a reconstructed
curve's state sweep; the probe count of ``verify jets``, which loads no
numpy.random; the slide's reads of its base in a classify; the batched Newton
refinement of the scan against a scalar reference loop, and the roots of
its alpha Newton, which gives up once |alpha| stops falling, against the
loop that runs to its iteration cap; the residual
landscape against ``partial_value``; the field-dependence scan against a
per-point reference loop; the refinement's stacked least-squares solve
against numpy's one-matrix call; a scan's point data against one-point
evaluation; a self pair's shared frame evaluation against the separate
evaluation of its two curves; and errors raised by a single failing lane.
"""
import math
import os
import pathlib
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transurf import curves, instances, jets, surface
from transurf.curves import (CurveJets, FramedCurve, FrenetFrame, build_curve,
                             catalog, catalog_names, frenet_lift, parse_curve,
                             vec_values)
from transurf.errors import (DegenerateDivision, DomainError,
                             NotNonDegenerate, OriginAtan2, TransurfError)
from transurf.classify import classify
from transurf.framefield import (FrameField, entry_bijet, entry_value,
                                 frame_dot, polar_rotation,
                                 reconstruct_framed_curves)
from transurf.jets import Jet
from transurf.surface import (PointJets, TranslationSurface, _newton_t3,
                              residual_landscape)
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
    fc = catalog("sin_curve").negated()
    ts = np.array([-1.0, 0.25, 2.5])
    _assert_lanes(fc.batch_jets(ts, 3).gamma,
                  [fc.gamma_jets(float(t), 3) for t in ts])


def _slide_direction_reference(base, h0, h1, h2, s0, s1, t, order):
    """speed * (mu_base o h) at one t, from one scalar evaluation of the
    base curve at h(t)."""
    hj = instances._quadratic(h0, h1, h2)(t, order)
    mu = CurveJets(base, hj.value, order).mu
    sp = np.zeros(order + 1)
    sp[0], sp[1] = s0 + s1 * t, s1
    return [Jet(t, sp) * hj.compose_outer(c.d) for c in mu]


def _slide_value_reference(base, h0, h1, h2, s0, s1, t):
    """The Simpson sum of a tangent-sliding curve with one scalar direction
    jet per node: speed(x) * (mu_base o h)(x), both jets of order 2."""
    n = max(16, 2 * int(abs(t) / 0.05) + 2)
    ss = np.linspace(0.0, t, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    vals = np.array([[c.value for c in _slide_direction_reference(
        base, h0, h1, h2, s0, s1, float(x), 2)] for x in ss])
    return (t / n) / 3.0 * (w[:, None] * vals).sum(axis=0)


def _slide_gamma_reference(base, h0, h1, h2, s0, s1, t, order):
    """The scalar gamma jets of a tangent-sliding curve at one t: B(t) from
    the Simpson sum (B(0) = 0), then the direction's jets."""
    val = (np.zeros(3) if t == 0.0
           else _slide_value_reference(base, h0, h1, h2, s0, s1, t))
    direction = _slide_direction_reference(base, h0, h1, h2, s0, s1, t,
                                           max(order - 1, 2))
    return tuple(Jet(t, np.concatenate(([val[c]], dj.d[:order])))
                 for c, dj in enumerate(direction))


def _stack_lanes(t, lanes):
    """One batch jet per leaf of the nested tuples the lanes share."""
    if isinstance(lanes[0], Jet):
        return Jet(t, np.stack([lane.d for lane in lanes], axis=1))
    return tuple(_stack_lanes(t, [lane[k] for lane in lanes])
                 for k in range(len(lanes[0])))


def _lanewise(fn):
    """A batch evaluator that calls ``fn`` once per lane with a float and
    stacks the lanes: the reference for the evaluators written for arrays."""
    def wrapped(t, order):
        return _stack_lanes(t, [fn(float(tk), order) for tk in t])
    return wrapped


def _leaves(x):
    return [x] if isinstance(x, Jet) else [y for z in x for y in _leaves(z)]


def _assert_same_jets(got, want):
    got, want = _leaves(got), _leaves(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.d.shape == w.d.shape and _bits(g.d) == _bits(w.d)


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


# t = 0, and lanes of 20, 16, 18 and 16 Simpson intervals in one batch
MIXED_TS = np.array([0.0, -0.45, 0.17, 0.41, -0.1, 0.45, 0.0])


@pytest.mark.parametrize("kind", sorted(SLIDES))
def test_slide_batch_equals_scalar_lanes(kind):
    pair, base, *params = SLIDES[kind]
    slide = pair()[0].curve_v
    batch = slide.batch_jets(MIXED_TS, 6)
    _assert_same_jets(batch.gamma, _lanewise(slide._gamma)(MIXED_TS, 6))
    _assert_same_jets(batch.frame, _lanewise(slide._frame)(MIXED_TS, 6))
    # each lane is the former scalar algorithm: one base evaluation for the
    # direction and one per Simpson node
    _assert_same_jets(batch.gamma, _stack_lanes(MIXED_TS, [
        _slide_gamma_reference(base(), *params, float(t), 6)
        for t in MIXED_TS]))
    assert not np.any(vec_values(batch.gamma)[:, 0])


@pytest.mark.parametrize("kind", ["edge", "cusp"])
def test_slide_frame_reads_the_base_at_h_alone(kind, monkeypatch):
    # the Frenet frame of a constant-speed slide reads B' alone: a frame
    # evaluation asks the base for the lanes h(t) and no Simpson node, and
    # equals the frame lifted from the derivatives of B's gamma bitwise
    pair, base, h0, h1, h2, *_ = SLIDES[kind]
    slide = pair()[0].curve_v
    asked = []
    original = FramedCurve.batch_jets

    def spy(self, ts, order=6):
        if self is base():
            asked.append(np.array(ts))
        return original(self, ts, order)

    monkeypatch.setattr(FramedCurve, "batch_jets", spy)
    frame = slide.batch_jets(MIXED_TS, 6).frame
    monkeypatch.undo()
    h = instances._quadratic(h0, h1, h2)(MIXED_TS, 2).value
    assert len(asked) == 1 and _bits(asked[0]) == _bits(h)
    lifted = frenet_lift(slide._gamma, slide.domain)
    _assert_same_jets(frame, lifted.batch_jets(MIXED_TS, 6).frame)


def _ode_frame_reference(curve, t, order):
    """The frame jets of an ODE curve at one t: the derivative stack
    d^{k+1} R = d^k (F R) from the RK4 state and one curvature lane."""
    c = curve.curvature_fn(np.array([t]), order)
    F = np.zeros((order + 1, 3, 3))
    for (r, s), x in {(0, 1): c.l, (0, 2): c.m, (1, 2): c.n}.items():
        F[:, r, s], F[:, s, r] = x.d[: order + 1, 0], -x.d[: order + 1, 0]
    stack = [curve.state_at(t)[0]]
    for k in range(order):
        M = np.zeros((3, 3))
        for i in range(k + 1):
            M += math.comb(k, i) * F[i] @ stack[k - i]
        stack.append(M)
    stack = np.array(stack)
    return tuple(tuple(Jet(t, stack[:, row, c]) for c in range(3))
                 for row in (0, 1))


def test_ode_curve_batch_equals_scalar_lanes():
    # the s0 curve of ``verify recon``, at nodes and between them
    a, b = (catalog(n) for n in ("s0_a", "s0_b"))
    curve, _ = reconstruct_framed_curves(
        a.batch_curvature, b.batch_curvature, FrameField(a, b).value(0.0, 0.0),
        (0.0, 0.0), (-0.9, 0.9), (-0.9, 0.9), step=1e-3)
    ts = np.array([0.0, -0.35, 0.2, 5e-4, 0.41, -0.0123])
    batch = curve.batch_jets(ts, 6)
    _assert_same_jets(batch.gamma, _lanewise(curve._gamma)(ts, 6))
    _assert_same_jets(batch.frame, _lanewise(curve._frame)(ts, 6))
    _assert_same_jets(batch.frame, _stack_lanes(
        ts, [_ode_frame_reference(curve, float(t), 6) for t in ts]))


def _ode_state_reference(curve, t):
    """(R, gamma) of an ODE curve at one t as the scalar read formed it:
    integrate out to the nearest node, then one RK4 step from it with its
    own source call for the midpoint and the end."""
    k = int(round((t - curve.t0) / curve.step))
    curve._advance_to(k)
    node = curve._nodes[k]
    tk = curve.t0 + k * curve.step
    if t == tk:
        return node[0], node[1]
    h = t - tk
    R, g = curve._rk4_step(node, h, *curve._stage_values([tk + h / 2, t]))
    return polar_rotation(R), g


def test_ode_states_read_in_one_sweep():
    # a fresh curve, unsorted times on both sides of t0: a node time, off-node
    # times and a repeated time; the lanes equal one-time reads of another
    # fresh curve, and the evaluator reads its source four times at most
    def fresh(source):
        return reconstruct_framed_curves(
            source, catalog("s0_b").batch_curvature, np.eye(3), (0.1, 0.0),
            (-0.5, 0.5), (-0.5, 0.5), step=1e-2)[0]

    asked = []

    def spy(ts, order):
        asked.append(len(ts))
        return catalog("s1m_a").batch_curvature(ts, order)

    curve, ref = fresh(spy), fresh(catalog("s1m_a").batch_curvature)
    node = curve.t0 + 23 * curve.step
    ts = np.array([0.317, -0.2414, node, 0.1004, -0.2414, 0.083, -0.45])
    asked.clear()
    frame = curve._frame(ts, 6)
    assert len(asked) <= 4
    gamma = curve._gamma(ts, 6)
    scalar = [_ode_state_reference(ref, float(t)) for t in ts]
    for (R, g), (Rr, gr) in zip(curve.states_at(ts), scalar):
        assert _bits(R) == _bits(Rr) and _bits(g) == _bits(gr)
    _assert_same_jets(frame, _stack_lanes(
        ts, [_ode_frame_reference(ref, float(t), 6) for t in ts]))
    _assert_same_jets(gamma, _lanewise(ref._gamma)(ts, 6))
    assert _bits(vec_values(gamma).T) == _bits([g for _, g in scalar])


def test_verify_jets_keeps_every_probe_without_numpy_random():
    # a fresh interpreter, so that no other test has loaded numpy.random;
    # 17 probes of each of 6 functions at 4 orders, and 100 curve probes of
    # 3 components at 4 orders: 1,608 Richardson differences
    code = textwrap.dedent("""
        import sys
        from transurf import fd, verify
        calls = []
        original = fd.richardson_derivative

        def spy(*args):
            calls.append(args)
            return original(*args)

        fd.richardson_derivative = spy
        assert all(c.passed for c in verify.suite_jets())
        print(len(calls), "numpy.random" in sys.modules)
    """)
    src = str(pathlib.Path(curves.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1608", "False"]


@pytest.mark.parametrize("kind", sorted(SLIDES))
def test_slide_classify_reads_its_base_in_batches(kind, monkeypatch):
    # the slide's evaluators read the base curve as batches: the only
    # scalar base jets of a classify are the surface's own, at the point
    # (the float twin of a batch of one lane is that batch's evaluation)
    pair, base, *_ = SLIDES[kind]
    s, p0 = pair()
    built = []
    original = CurveJets.__init__

    def spy(self, curve, t, order):
        if (curve is base() and not isinstance(t, np.ndarray)
                and sys._getframe(1).f_code.co_name != "_one"):
            built.append(t)
        original(self, curve, t, order)

    monkeypatch.setattr(CurveJets, "__init__", spy)
    classify(s, p0)
    assert len(built) <= 10


def _newton_reference(s, u, v, tol, max_iter=80):
    """The scalar Newton loop on (t31, t32) = 0, one start at a time, each
    iterate from one scalar evaluation of each curve. A start whose last
    two plain steps each shrank by a ratio within LINEAR_RATE (the linear
    rate of a degenerate zero) from a step of length at most 0.5 (one taken
    in full), or a converged start whose Jacobian J has
    sigma_min / sigma_max below ROOT_SIGMA_RATIO, takes the least-squares
    step of (t31, t32, det J) instead where its augmented Jacobian
    [J; grad det J] has a ratio of at least ROOT_SIGMA_RATIO; the ratios
    come from numpy's SVD. A converged start retires once the step it would
    take is below 1e-12, after taking it if it is augmented."""
    gate = surface.ROOT_SIGMA_RATIO
    lo, hi = surface.LINEAR_RATE

    def ratio(M):
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[-1] / sv[0]

    converged = False
    last, halved = 0.0, False
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
        rate = last <= 0.5 and lo * last < nrm < hi * last
        linear, halved, last = rate and halved, rate, nrm
        augmented = False
        if linear or converged and ratio(J) < gate:
            (a, b), (c, d) = J
            det_u = (b31.part(2, 0) * d + a * b32.part(1, 1)
                     - b31.part(1, 1) * c - b * b32.part(2, 0))
            det_v = (b31.part(1, 1) * d + a * b32.part(0, 2)
                     - b31.part(0, 2) * c - b * b32.part(1, 1))
            A = np.array([[a, b], [c, d], [det_u, det_v]])
            if ratio(A) >= gate:
                F = np.array([r[0], r[1], a * d - b * c])
                step, *_ = np.linalg.lstsq(A, -F, rcond=1e-10)
                nrm = float(np.linalg.norm(step))
                augmented = True
        if converged and nrm < 1e-12:
            return (u + step[0], v + step[1]) if augmented else (u, v)
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
# the self pairs x+ and x- of the catalog's closed curves, as a scan builds
# them: the two curves share one frame evaluator, and x+ is one curve
SELF_PAIRS = {
    f"{name}_{kind}": (lambda name=name, sign=sign:
                       TranslationSurface.self_translation(catalog(name),
                                                           sign))
    for name in ("sin_curve", "self_s1p")
    for kind, sign in (("plus", 1), ("minus", -1))
}


@pytest.mark.parametrize("pair", sorted(PAIRS) + sorted(SELF_PAIRS))
def test_batched_newton_matches_scalar_reference(pair):
    s = {**PAIRS, **SELF_PAIRS}[pair]()
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



def _lstsq_systems(rng, n):
    """n seeded 2x2 systems (J, r) of each kind: random, rank 1, all zero
    and near-singular (rank 1 plus a perturbation at the rcond scale)."""
    full = rng.normal(size=(n, 2, 2)) * rng.choice([1e-6, 1.0, 1e6], (n, 1, 1))
    rank1 = rng.normal(size=(n, 2, 1)) * rng.normal(size=(n, 1, 2))
    near = rank1 + rng.normal(size=(n, 2, 2)) * 1e-10 * np.abs(rank1).max()
    J = np.concatenate([full, rank1, np.zeros((n, 2, 2)), near])
    r = rng.normal(size=(4 * n, 2))
    r[n:2 * n:2] = 0.0     # zero residuals on half of the rank-1 systems
    return J, r


def test_stacked_lstsq_equals_lstsq_per_system():
    # the refinement's stacked solve and step norm against numpy's public
    # one-matrix calls, which the per-lane loop made: a numpy whose gufunc
    # or vecdot drifts from them fails here; the 2x2 systems of the plain
    # step and the 3x2 ones of the augmented step (each 2x2 system with a
    # random third row)
    rng = np.random.default_rng(19)
    J2, r2 = _lstsq_systems(rng, 250)
    J3 = np.concatenate([J2, rng.normal(size=(len(J2), 1, 2))], 1)
    r3 = np.concatenate([r2, rng.normal(size=(len(r2), 1))], 1)
    for J, r in ((J2, r2), (J3, r3)):
        steps = surface._lstsq_steps(J, r)
        norms = np.sqrt(np.vecdot(steps, steps))
        assert steps.shape == (len(J), 2)
        for k in range(len(J)):
            want, *_ = np.linalg.lstsq(J[k], -r[k], rcond=1e-10)
            assert _bits(steps[k]) == _bits(want)
            assert _bits(norms[k]) == _bits(np.linalg.norm(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_lstsq_raises_on_non_finite_jacobian(bad):
    J, r = np.stack([np.eye(2)] * 3), np.ones((3, 2))
    J[1, 0, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(J[1], -r[1], rcond=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        surface._lstsq_steps(J, r)


@pytest.mark.parametrize("pair", ["s1p", "sin_minus"])
def test_scan_solves_all_lanes_with_one_lstsq_per_iteration(pair,
                                                            monkeypatch):
    # per Newton iteration, one least-squares call over every live lane
    # (2x2 systems) and at most one more over the tail lanes that take the
    # augmented step (3x2 systems), and none of numpy's one-matrix calls
    s = PAIRS[pair]()
    calls = []
    pair_jets, steps = surface._pair_jets, surface._lstsq_steps

    def spy_jets(s, p, order):
        if sys._getframe(1).f_code.co_name == "_newton_t3":
            calls.append([len(p[0])])
        return pair_jets(s, p, order)

    def spy_steps(J, r):
        calls[-1].append(J.shape)
        return steps(J, r)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(surface, "_pair_jets", spy_jets)
    monkeypatch.setattr(surface, "_lstsq_steps", spy_steps)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    pts = surface.find_singular_points(s, (-2.0, 2.0, -2.0, 2.0), grid_n=24)
    assert pts and calls
    for lanes, plain, *augmented in calls:
        assert plain == (lanes, 2, 2)
        assert len(augmented) <= 1
        assert all(shape[0] <= lanes and shape[1:] == (3, 2)
                   for shape in augmented)
    assert max(lanes for lanes, *_ in calls) > 1
    assert any(augmented for _, _, *augmented in calls) == (pair == "s1p")


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
    """The scalar Newton loop on alpha = 0 from one start, which gives up
    where |alpha| is not below its value at the previous iterate."""
    last = math.inf
    for _ in range(max_iter):
        c = curve.curvature(t, 1)
        f, df = c.alpha.value, c.alpha.deriv(1)
        if abs(f) < tol:
            return t
        if df == 0.0 or not abs(f) < last:
            return None
        last, step = abs(f), -f / df
        if not math.isfinite(step):
            return None
        while abs(step) > 0.5:
            step *= 0.5
        t = t + step
    return None


def _newton_alpha_capped(curve, ts, tol):
    """The batched Newton loop on alpha = 0 that gives up only where
    alpha' = 0 or at the iteration cap: the oracle of the roots that the
    give-up rule on |alpha| must keep."""
    t = np.array(ts, dtype=float)
    roots = [None] * len(t)
    live = np.arange(len(t))
    for _ in range(surface.ALPHA_NEWTON_ITER):
        if not len(live):
            break
        alpha = curve.batch_jets(t[live], 2).alpha
        f, df = alpha.value, alpha.d[1]
        done = np.abs(f) < tol
        for lane in live[done].tolist():
            roots[lane] = float(t[lane])
        go = ~done & (df != 0.0)
        live, step = live[go], -f[go] / df[go]
        while (long := np.abs(step) > 0.5).any():
            step[long] *= 0.5
        t[live] += step
    return roots


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


# ALPHA_CURVES and the curves of the beaks and unstructured rank-zero pairs
SWEEP_CURVES = ALPHA_CURVES | {
    "beaks_slide": lambda: instances.singular_speed_pair()[0].curve_v,
    "cusp_z": lambda: instances.rank_zero_pair(False)[0].curve_v,
}


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
def test_alpha_newton_gives_up_on_no_root_of_the_capped_loop(name, tol):
    # a start gives up once |alpha| stops falling; across 257 starts it
    # loses no root that the loop capped at ALPHA_NEWTON_ITER finds
    fc = SWEEP_CURVES[name]()
    starts = np.linspace(*fc.domain, 257)
    got = surface._newton_alpha(fc, starts, tol)
    want = _newton_alpha_capped(fc, starts, tol)
    # sin_curve and the unit-speed beaks slide have no root of alpha
    assert any(w is not None for w in want) == (name not in ("sin_curve",
                                                             "beaks_slide"))
    assert ([None if r is None else _bits(r) for r in got]
            == [None if r is None else _bits(r) for r in want])


class _ConstantAlpha:
    """A stand-in curve with alpha = value and alpha' = slope everywhere."""

    def __init__(self, value, slope):
        self.value, self.slope = value, slope

    def batch_jets(self, ts, order):
        d = np.array([[self.value], [self.slope]]).repeat(len(ts), axis=1)
        return SimpleNamespace(alpha=SimpleNamespace(value=d[0], d=d))


@pytest.mark.parametrize("value, slope", [(0.5, 1e-320), (math.nan, 1.0)])
def test_alpha_newton_gives_up_on_a_non_finite_step(value, slope):
    # -0.5 / 1e-320 overflows to -inf, which no halving brings to 0.5
    assert surface._newton_alpha(_ConstantAlpha(value, slope), [0.0],
                                 1e-12) == [None]


def _spy_alpha_newton(monkeypatch):
    """Lists of the curve and the number of starts of each ``_newton_alpha``
    run, and of each curve evaluation that a run makes."""
    runs, evaluations = [], []
    newton, batch_jets = surface._newton_alpha, FramedCurve.batch_jets

    def spy_newton(curve, ts, tol):
        runs.append((curve, len(ts)))
        return newton(curve, ts, tol)

    def spy_jets(self, ts, order=6):
        if sys._getframe(1).f_code.co_name == "_newton_alpha":
            evaluations.append(self)
        return batch_jets(self, ts, order)

    monkeypatch.setattr(surface, "_newton_alpha", spy_newton)
    monkeypatch.setattr(FramedCurve, "batch_jets", spy_jets)
    return runs, evaluations


@pytest.mark.parametrize("pair", ["sin_plus", "sin_minus", "self_s1p_plus",
                                  "self_s1p_minus", "s0", "s1m", "cusp_plus",
                                  "cusp_minus"])
def test_self_pair_runs_one_alpha_newton(pair, monkeypatch):
    # the v-curve of a self pair is its u-curve or that curve negated, so
    # one Newton run, one curve evaluation per iteration, serves both
    # curves; a general pair runs one per curve. The cusp curve's speed
    # vanishes at t = 0, where u = 0 and v = 0 share their starts; the sin
    # curve's |alpha| >= 1 gives its pairs no start at all
    if pair.startswith("cusp"):
        sign = 1 if pair == "cusp_plus" else -1
        s = TranslationSurface.self_translation(
            instances.cusp_curve(planar=False), sign)
        window = (-1.0, 1.0) * 2
    else:
        s, window = surface_for(pair), (-math.pi, math.pi) * 2
    runs, evaluations = _spy_alpha_newton(monkeypatch)
    pts = surface.find_singular_points(s, window, grid_n=16)
    if s.kind == "general":
        assert [c for c, _ in runs] == [s.curve_u, s.curve_v]
        return
    assert [c for c, _ in runs] == [s.curve_u]
    assert len(evaluations) <= surface.ALPHA_NEWTON_ITER
    assert (len(evaluations) > 0) == (runs[0][1] > 0)
    if pair.startswith("sin"):
        assert runs[0][1] == 0
    if pair.startswith("cusp"):
        # one run from 4 starts finds the roots u = 0 and v = 0 alike
        assert runs[0][1] == 4
        on_u = {p.u for p in pts if "i" in p.conditions and abs(p.u) < 1e-8}
        on_v = {p.v for p in pts if "ii" in p.conditions and abs(p.v) < 1e-8}
        assert on_u and on_u == on_v


@pytest.mark.parametrize("pair, grid_n", [("sin_plus", 16), ("sin_minus", 24)])
def test_rootless_alpha_newton_stops_early(pair, grid_n, monkeypatch):
    # |alpha| >= 1 on the sin curve and its negation: from every grid node
    # the starts bounce between the minima of |alpha|, which no longer fall
    # after a few steps
    curve = catalog("sin_curve")
    if pair == "sin_minus":
        curve = curve.negated()
    runs, evaluations = _spy_alpha_newton(monkeypatch)
    roots = surface._newton_alpha(curve, np.linspace(-math.pi, math.pi,
                                                     grid_n), 1e-8)
    assert runs == [(curve, grid_n)] and 0 < len(evaluations) <= 5
    assert roots == [None] * grid_n


@pytest.mark.parametrize("sign", [+1, -1])
def test_shared_alpha_newton_equals_runs_apart(sign):
    # alpha of the negated curve is -alpha bitwise, and Newton's steps are
    # sign-symmetric: the shared run finds each curve's roots bitwise
    s = TranslationSurface.self_translation(instances.cusp_curve(), sign)
    starts = np.linspace(-1.0, 1.0, 9)
    got = surface._alpha_roots(s, starts, starts[::-2] + 0.01, 1e-12)
    want = (surface._newton_alpha(s.curve_u, starts, 1e-12),
            surface._newton_alpha(s.curve_v, starts[::-2] + 0.01, 1e-12))
    assert any(r is not None for r in want[0] + want[1])
    assert ([[None if r is None else _bits(r) for r in side] for side in got]
            == [[None if r is None else _bits(r) for r in side]
                for side in want])


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

    def spy_make(pj, *args):
        making.append(pj)
        try:
            return make(pj, *args)
        finally:
            making.pop()

    monkeypatch.setattr(CurveJets, "__init__", spy)
    monkeypatch.setattr(surface, "_make_point", spy_make)
    pts = surface.find_singular_points(s, (-3.2, 3.2, -3.2, 3.2), grid_n=20)
    assert len(pts) > 2
    assert not any(in_make for _, in_make in built)
    assert sum(not batch for batch, _ in built) == 2 * len(pts)



@pytest.mark.parametrize("pair", ["s1m", "sin_minus"])
def test_scan_reads_point_data_off_the_batch(pair, monkeypatch):
    # the kept points' entries and ranks are read for their batch, never at
    # one point, and each point's dependence test is fed its lane of the
    # entries; every field equals the one-point evaluation at the root
    s = PAIRS[pair]()
    entries, ranked, tested = [], [], []
    t, dx_rank = PointJets.t, PointJets.dx_rank
    dependence_test = surface.dependence_test

    def spy_t(self, i, j):
        entries.append(np.ndim(self.p[0]))
        return t(self, i, j)

    def spy_rank(self):
        ranked.append(np.ndim(self.p[0]))
        return dx_rank(self)

    def spy_dependence(pj, t3=None):
        tested.append((pj.p, t3))
        return dependence_test(pj, t3)

    monkeypatch.setattr(PointJets, "t", spy_t)
    monkeypatch.setattr(PointJets, "dx_rank", spy_rank)
    monkeypatch.setattr(surface, "dependence_test", spy_dependence)
    pts = surface.find_singular_points(s, (-math.pi, math.pi) * 2, grid_n=24)
    monkeypatch.undo()
    assert pts
    assert entries and set(entries) == {1}
    assert ranked == [1]
    assert [p for p, _ in tested] == [q.p for q in pts]
    for q, (_, t3) in zip(pts, tested):
        pj = s.at(q.p, order=2)
        dep = dependence_test(pj)
        assert _bits(t3) == _bits([pj.t(3, j) for j in (1, 2, 3)])
        assert q.conditions == surface.singular_conditions(
            s, pj.alpha_values(), dep.t_pair_norm)
        assert q.dependence == ("dependent" if dep.dependent
                                else "independent")
        assert q.corank == max(2 - pj.dx_rank(), 1)
        au, av = pj.alpha_values()
        assert _bits(q.residual) == _bits(min(abs(au), abs(av),
                                              dep.t_pair_norm))

def _curve_jets_reference(curve, t, order):
    """The former per-curve path: the jets of one curve at a float t, or at
    every entry of a 1-D array t, from one batch at its distinct values
    (told apart bitwise) with one lane per entry."""
    if not isinstance(t, np.ndarray):
        return CurveJets(curve, t, order)
    _, first, inv = np.unique(np.ascontiguousarray(t).view(np.int64),
                              return_index=True, return_inverse=True)
    return curve.batch_jets(t[first], order).take(inv)


def _assert_same_curve_jets(got, want):
    assert _bits(got.t) == _bits(want.t)
    _assert_same_jets(got.gamma, want.gamma)
    for i in (1, 2, 3):
        _assert_same_jets(got.row(i), want.row(i))
    _assert_same_jets((got.alpha,), (want.alpha,))
    _assert_same_jets(_curvature_jets(got.curvature),
                      _curvature_jets(want.curvature))


# points of both sides: diagonal and off it, repeated parameters, a u value
# that is also a v value, and 0.0 against -0.0
SELF_US = np.array([0.5, 0.5, -1.25, 0.0, 2.0, -0.0, 0.3])
SELF_VS = np.array([0.5, -1.25, 0.3, -0.0, 2.0, 0.0, 1.7])


@pytest.mark.parametrize("pair", sorted(SELF_PAIRS))
def test_self_pair_jets_equal_separate_evaluation(pair):
    s = SELF_PAIRS[pair]()
    assert s.curve_u._frame is s.curve_v._frame
    cu, cv = s.curve_u, s.curve_v
    # a batch of points
    pj = PointJets(s, (SELF_US, SELF_VS))
    _assert_same_curve_jets(pj.ju, _curve_jets_reference(cu, SELF_US, 6))
    _assert_same_curve_jets(pj.jv, _curve_jets_reference(cv, SELF_VS, 6))
    # a scalar point on the diagonal is one evaluation of the frame
    for u in (0.5, 0.0):
        pj = s.at((u, u))
        if cv is cu:
            assert pj.jv is pj.ju
        assert pj.jv.frame is pj.ju.frame
        _assert_same_curve_jets(pj.ju, _curve_jets_reference(cu, u, 6))
        _assert_same_curve_jets(pj.jv, _curve_jets_reference(cv, u, 6))
    # 0.0 and -0.0 are two points
    pj = s.at((0.0, -0.0))
    _assert_same_curve_jets(pj.jv, _curve_jets_reference(cv, -0.0, 6))
    # the residual landscape, on grids that share some of their values
    us, vs = np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 3.0, 5)
    on_u, on_v = cu.batch_jets(us, 2), cv.batch_jets(vs, 2)
    mu_v = [c.value[None, :] for c in on_v.mu]
    want = (on_u.alpha.value, on_v.alpha.value,
            *(frame_dot(mu_v, [c.value[:, None] for c in row])
              for row in on_u.frame))
    got = residual_landscape(s, us, vs)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and _bits(g) == _bits(w)


def _frame_spy(curve, calls):
    """``curve``'s frame evaluator, counting its calls in ``calls``."""
    frame = curve._frame

    def spy(t, order):
        calls.append(t)
        return frame(t, order)
    return spy


def _tail_spy(monkeypatch, calls):
    """Count the runs of the Frenet frame tail in ``calls``."""
    tail = curves.frenet_tail

    def spy(g1, t, nondeg_tol):
        calls.append(t)
        return tail(g1, t, nondeg_tol)
    monkeypatch.setattr(curves, "frenet_tail", spy)


@pytest.mark.parametrize("pair,want", [
    *((name, 1) for name in sorted(SELF_PAIRS)), ("s0", 2), ("s1m", 1)])
def test_point_batch_evaluates_a_shared_frame_once(pair, want, monkeypatch):
    # frame evaluations: runs of the Frenet frame tail, and calls of any
    # other frame evaluator; a self pair shares its frame, and so do two
    # Frenet frames
    s = {**PAIRS, **SELF_PAIRS}[pair]()
    calls = []
    _tail_spy(monkeypatch, calls)
    spies = {}
    for curve in dict.fromkeys((s.curve_u, s.curve_v)):
        if not isinstance(curve._frame, FrenetFrame):
            spy = spies.setdefault(curve._frame, _frame_spy(curve, calls))
            monkeypatch.setattr(curve, "_frame", spy)
    pj = PointJets(s, (SELF_US, SELF_VS))
    pj.t(3, 1), pj.t(1, 2), pj.alpha_values()
    pj.ju.curvature, pj.jv.curvature
    assert len(calls) == want
    calls.clear()
    residual_landscape(s, SELF_US, SELF_VS)
    assert len(calls) == want


def test_classify_runs_each_frenet_tail_once(monkeypatch):
    # the unit-speed shortcut reads kappa and tau off the point's jets, so
    # a classify at the S1- point of the helix pair runs the Frenet frame
    # tail once per curve
    calls = []
    _tail_spy(monkeypatch, calls)
    rep = classify(PAIRS["s1m"](), (0.0, 0.0))
    assert rep.s1.value("frenet_s1_discriminant") is not None
    assert len(calls) == 2


@pytest.mark.parametrize("pair", sorted(SELF_PAIRS))
def test_one_point_batch_runs_the_float_path(pair, monkeypatch):
    # a batch of one lane is evaluated at its float and given a lane axis,
    # and a self pair shares its frame at one point only on the diagonal,
    # as at a scalar point
    s = SELF_PAIRS[pair]()
    calls = []
    spy = _frame_spy(s.curve_u, calls)
    for curve in (s.curve_u, s.curve_v):
        monkeypatch.setattr(curve, "_frame", spy)
    for u, v, frames in ((0.5, 0.5, 1), (0.5, -1.25, 2)):
        calls.clear()
        pj = s.at((np.array([u]), np.array([v])))
        got = [(j.gamma, j.frame, j.mu, (j.alpha,),
                _curvature_jets(j.curvature)) for j in (pj.ju, pj.jv)]
        assert len(calls) == frames
        assert all(isinstance(t, float) for t in calls)
        for g, curve, t in zip(got, (s.curve_u, s.curve_v), (u, v)):
            want = CurveJets(curve, t, 6)
            for a, b in zip(_leaves(g), _leaves(
                    (want.gamma, want.frame, want.mu, (want.alpha,),
                     _curvature_jets(want.curvature)))):
                assert a.d.shape == (b.d.shape[0], 1)
                assert _bits(a.d[:, 0]) == _bits(b.d)


# pairs of two Frenet-lifted curves: catalog curves, expressions, and a
# helix with a slide over it, whose frame reads a velocity hook
FRENET_PAIRS = {
    "s1m": PAIRS["s1m"],
    "expr": DEPENDENCE_PAIRS["expr"],
    "slide_edge": lambda: instances.slide_pair("edge")[0],
}


@pytest.mark.parametrize("pair", sorted(FRENET_PAIRS))
def test_frenet_pair_jets_equal_separate_evaluation(pair, monkeypatch):
    s = FRENET_PAIRS[pair]()
    cu, cv = s.curve_u, s.curve_v
    assert isinstance(cu._frame, FrenetFrame) and cu._frame is not cv._frame
    tails = []
    _tail_spy(monkeypatch, tails)
    pj = PointJets(s, (SELF_US, SELF_VS))
    pj.ju.mu, pj.jv.mu
    us, vs = np.linspace(-0.3, 0.3, 7), np.linspace(-0.35, 0.25, 5)
    got = residual_landscape(s, us, vs)
    monkeypatch.undo()
    # one tail for both curves per batch of points, none for either alone
    # (the slide's velocity runs its base's frame at other parameters)
    ran = [_bits(t) for t in tails]
    for u, v in ((SELF_US, SELF_VS), (us, vs)):
        assert ran.count(_bits(np.concatenate((u, v)))) == 1
        assert _bits(u) not in ran and _bits(v) not in ran
    _assert_same_curve_jets(pj.ju, _curve_jets_reference(cu, SELF_US, 6))
    _assert_same_curve_jets(pj.jv, _curve_jets_reference(cv, SELF_VS, 6))
    on_u, on_v = cu.batch_jets(us, 2), cv.batch_jets(vs, 2)
    mu_v = [c.value[None, :] for c in on_v.mu]
    want = (on_u.alpha.value, on_v.alpha.value,
            *(frame_dot(mu_v, [c.value[:, None] for c in row])
              for row in on_u.frame))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and _bits(g) == _bits(w)


def test_newton_runs_one_frame_tail_per_iteration(monkeypatch):
    # each Newton step of a Frenet pair runs the frame tail once for both
    # curves; a step of one live start takes the float path, one per curve
    s = PAIRS["s1m"]()
    tails, steps = [], []
    _tail_spy(monkeypatch, tails)
    pair_jets = surface._pair_jets

    def spy(s, p, order):
        before = len(tails)
        out = pair_jets(s, p, order)
        out[0].frame, out[1].mu    # the rows a Newton step reads
        if sys._getframe(1).f_code.co_name == "_newton_t3":
            steps.append((len(p[0]), len(tails) - before))
        return out

    monkeypatch.setattr(surface, "_pair_jets", spy)
    surface.find_singular_points(s, (-1.5, 1.5, -1.5, 1.5), grid_n=40)
    assert steps and max(lanes for lanes, _ in steps) > 1
    assert all(runs == (1 if lanes > 1 else 2) for lanes, runs in steps)


def _inflected(shift: float = 0.0):
    """A Frenet-lifted planar curve, (u, sin(u - shift), 0), whose frame
    fails at u = shift and u = shift + pi: the 33 samples over its domain
    miss both."""
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, jets.sin(u - shift), Jet.constant(0.0, t, order))
    return frenet_lift(gamma, (-3.5, 3.3), name=f"inflected{shift:+g}")


def _raised(read) -> tuple[type, str]:
    with pytest.raises(TransurfError) as info:
        read()
    return type(info.value), str(info.value)


def test_failing_frenet_pair_raises_the_separate_error():
    # the u-curve fails at pi and the v-curve at 0.5; the joined batch fails
    # first at pi, so the v side's error shows that the curves were
    # evaluated apart
    s = TranslationSurface.general(_inflected(), _inflected(0.5))
    us, vs = np.array([0.25, math.pi]), np.array([0.3, 0.5])
    joined = _raised(lambda: curves.frenet_pair(s.curve_u, us, s.curve_v,
                                                vs, 6))
    assert f"t={math.pi!r}" in joined[1]
    pj = PointJets(s, (us, vs))
    for side, curve, t in (("ju", s.curve_u, us), ("jv", s.curve_v, vs)):
        want = _raised(lambda: _curve_jets_reference(curve, t, 6).frame)
        assert want == _raised(lambda: getattr(pj, side).frame)
    assert "t=0.5" in _raised(lambda: pj.jv.frame)[1]
    # where only the v side fails, the u side evaluates
    us = np.array([0.25, 1.0])
    pj = PointJets(s, (us, vs))
    _assert_same_curve_jets(pj.ju, _curve_jets_reference(s.curve_u, us, 6))
    assert _raised(lambda: pj.jv.frame) == _raised(
        lambda: _curve_jets_reference(s.curve_v, vs, 6).frame)


@pytest.mark.parametrize("sign", [1, -1])
def test_failing_shared_batch_raises_the_separate_error(sign):
    # u fails at pi and v at 0.0; the shared batch, at the distinct values
    # of both, fails first at 0.0, so the u side's error shows that the
    # curves were evaluated apart
    s = TranslationSurface.self_translation(_inflected(), sign)
    us, vs = np.array([math.pi, 0.5]), np.array([0.25, 0.0])
    shared, _ = surface._distinct(np.concatenate((us, vs)))
    assert "t=0.0" in _raised(lambda: s.curve_u.batch_jets(shared, 6).frame)[1]
    for side, curve, t in (("ju", s.curve_u, us), ("jv", s.curve_v, vs)):
        want = _raised(lambda: _curve_jets_reference(curve, t, 6).frame)
        assert want == _raised(
            lambda: getattr(PointJets(s, (us, vs)), side).frame)
    # a diagonal point
    for u in (0.0, math.pi):
        want = _raised(lambda: CurveJets(s.curve_v, u, 6).frame)
        assert want == _raised(lambda: s.at((u, u)).jv.frame)
