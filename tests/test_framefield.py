import math

import numpy as np
import pytest

from transurf import curves, verify
from transurf.curves import CurveJets, FramedCurve, catalog
from transurf.errors import TransurfError
from transurf.framefield import (CompatibilityReport, FrameField,
                                 OdeFramedCurve, _curvature_matrix,
                                 check_compatibility, entry_bijet,
                                 polar_rotation,
                                 reconstruct_framed_curves)
from transurf.jets import BiJet, Jet

PAIRS = [("s0_a", "s0_b"), ("s1p_a", "s1p_b"), ("s1m_a", "s1m_b"),
         ("sin_curve", "sin_curve"), ("self_s1p", "self_s1p")]


def _constant_frame_line(d, n1):
    d = np.asarray(d, float) / np.linalg.norm(d)
    n1 = np.asarray(n1, float)
    n1 -= d * (n1 @ d)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(d, n1)
    # rows (nu1, nu2, mu) must be right-handed with mu = nu1 x nu2
    mu = np.cross(n1, n2)
    if mu @ d < 0:
        n2 = -n2

    def gamma(t, order):
        u = Jet.variable(t, order)
        return tuple(float(c) * u for c in d)

    def frame(t, order):
        return tuple(tuple(Jet.constant(float(c), t, order) for c in vec)
                     for vec in (n1, n2))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name="line")


def test_example_matrix_values():
    ff = FrameField(catalog("s0_a"), catalog("s0_b"))
    assert ff.value(1.0, 1.0)[2, 2] == pytest.approx(0.5, abs=1e-14)
    u, v = 0.7, -0.4
    expected = np.array([
        [-u * v / math.sqrt((1 + u * u) * (1 + v * v)),
         -1 / math.sqrt(1 + v * v),
         v / math.sqrt((1 + u * u) * (1 + v * v))],
        [1 / math.sqrt(1 + u * u), 0.0, u / math.sqrt(1 + u * u)],
        [-u / math.sqrt((1 + u * u) * (1 + v * v)),
         v / math.sqrt(1 + v * v),
         1 / math.sqrt((1 + u * u) * (1 + v * v))],
    ])
    assert np.allclose(ff.value(u, v), expected, atol=1e-14)


def test_cubic_pair_matrix_closed_form():
    ff = FrameField(catalog("s1p_a"), catalog("s1p_b"))
    for u in (-0.9, 0.0, 0.6):
        for v in (-0.5, 0.0, 1.1):
            ru = math.sqrt(1 + u**4)
            rv = math.sqrt(1 + v * v)
            expected = np.array([
                [-u * u * v / (ru * rv), -1 / rv, v / (ru * rv)],
                [1 / ru, 0.0, u * u / ru],
                [-u * u / (ru * rv), v / rv, 1 / (ru * rv)],
            ])
            assert np.allclose(ff.value(u, v), expected, atol=1e-13)


def test_helix_pair_matrix_closed_form():
    # closed-form entries from the two Frenet frames; the t21 middle term
    # carries 1/sqrt(5) (anything else breaks orthogonality)
    w2, w5, w10 = math.sqrt(2), math.sqrt(5), math.sqrt(10)

    def closed_T(u, v):
        s2u, c2u = math.sin(w2 * u), math.cos(w2 * u)
        s5v, c5v = math.sin(w5 * v), math.cos(w5 * v)
        r20 = math.sqrt(20)
        return np.array([
            [c2u * c5v + 3 * s2u * s5v / w10,
             -s2u * c5v / w2 - s5v * (1 - 3 * c2u) / r20,
             s2u * c5v / w2 - s5v * (1 + 3 * c2u) / r20],
            [w2 * s2u / 5 - c2u * s5v / w5 + 3 * s2u * c5v / (5 * w2),
             (3 + c2u) / 5 + s2u * s5v / w10 - c5v * (1 - 3 * c2u) / 10,
             (3 - c2u) / 5 - s2u * s5v / w10 - c5v * (1 + 3 * c2u) / 10],
            [s2u / (5 * w2) + 2 * c2u * s5v / w5 - 3 * w2 * s2u * c5v / 5,
             (3 + c2u) / 10 - 2 * s2u * s5v / w10 + c5v * (1 - 3 * c2u) / 5,
             (3 - c2u) / 10 + 2 * s2u * s5v / w10 + c5v * (1 + 3 * c2u) / 5],
        ])

    ff = FrameField(catalog("s1m_a"), catalog("s1m_b"))
    for u in (-1.2, 0.0, 0.7):
        for v in (-0.4, 0.0, 1.3):
            assert np.allclose(ff.value(u, v), closed_T(u, v), atol=1e-12)


def test_self_pair_matrix_is_identity_on_diagonal():
    sc = catalog("sin_curve")
    ff = FrameField(sc, sc)
    for u in (-2.0, 0.0, 0.9):
        assert np.max(np.abs(ff.value(u, u) - np.eye(3))) < 1e-12


@pytest.mark.parametrize("degree,du,dv", [(2, 0, 0), (3, 0, 0), (2, 1, 0),
                                           (3, 0, 1)])
def test_t_bijet_equals_bijet_product_assembly(degree, du, dv):
    # reference: the sum of products from_u_jet * from_v_jet of BiJets
    rng = np.random.default_rng(degree + 10 * du + 100 * dv)
    for na, nb in PAIRS:
        ff = FrameField(catalog(na), catalog(nb))
        for _ in range(3):
            u, v = (float(x) for x in rng.uniform(-1.5, 1.5, 2))
            order = degree + max(du, dv)
            on_b = CurveJets(ff.curve_b, v, order)
            on_a = CurveJets(ff.curve_a, u, order)
            for i, j in ((3, 1), (3, 2), (1, 3), (2, 2), (3, 3)):
                row_b, row_a = on_b.row(i), on_a.row(j)
                for _ in range(dv):
                    row_b = curves.shift3(row_b)
                for _ in range(du):
                    row_a = curves.shift3(row_a)
                want = BiJet.constant(0.0, u, v, degree)
                for c in range(3):
                    want = want + (
                        BiJet.from_u_jet(row_a[c].truncate(degree), v, degree)
                        * BiJet.from_v_jet(row_b[c].truncate(degree), u, degree))
                got = ff.t_bijet(i, j, u, v, degree, du=du, dv=dv)
                assert got.c.tobytes() == want.c.tobytes()


def test_orthogonality_everywhere():
    rng = np.random.default_rng(4)
    for na, nb in PAIRS:
        ff = FrameField(catalog(na), catalog(nb))
        lo, hi = ff.curve_a.domain
        for _ in range(10):
            u, v = rng.uniform(lo, hi, 2)
            T = ff.value(float(u), float(v))
            assert np.max(np.abs(T.T @ T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(T) - 1) < 1e-12


@pytest.mark.parametrize("na,nb", PAIRS)
def test_compatibility_identities(na, nb):
    ff = FrameField(catalog(na), catalog(nb))
    lo, hi = ff.curve_a.domain
    us = np.linspace(lo + 0.05, hi - 0.05, 8)
    lo, hi = ff.curve_b.domain
    vs = np.linspace(lo + 0.05, hi - 0.05, 8)
    rep = check_compatibility(ff, us, vs)
    assert max(r for _, r in rep.rows()) < 1e-8, rep.rows()


def _check_compatibility_reference(ff, us, vs):
    """The identities of check_compatibility node by node: nine t_ij BiJets
    per node, from one scalar evaluation of each curve per grid parameter."""
    rep = CompatibilityReport()
    on_b = [CurveJets(ff.curve_b, float(v), 3) for v in vs]
    for u in us:
        u = float(u)
        ja = CurveJets(ff.curve_a, u, 3)
        ca = ja.curvature
        Fu = _curvature_matrix(ca)
        for jb in on_b:
            v = jb.t
            cb = jb.curvature
            Fv = _curvature_matrix(cb)
            M = [[entry_bijet(jb.row(i), ja.row(j), u, v, degree=2)
                  for j in (1, 2, 3)] for i in (1, 2, 3)]
            T = np.array([[M[i][j].value for j in range(3)] for i in range(3)])
            Tu = np.array([[M[i][j].part(1, 0) for j in range(3)] for i in range(3)])
            Tv = np.array([[M[i][j].part(0, 1) for j in range(3)] for i in range(3)])
            Tuv = np.array([[M[i][j].part(1, 1) for j in range(3)] for i in range(3)])

            so3 = float(np.max(np.abs(T.T @ T - np.eye(3))))
            det = abs(float(np.linalg.det(T)) - 1.0)
            r1 = float(np.max(np.abs(Tu + T @ Fu)))
            r2 = float(np.max(np.abs(Tv - Fv @ T)))
            r4 = float(np.max(np.abs(Tuv - Tv @ T.T @ Tu)))

            l, m, n = ca.l.value, ca.m.value, ca.n.value
            lt, mt, nt = cb.l.value, cb.m.value, cb.n.value
            rec = 0.0
            for i in range(3):
                rec = max(rec,
                          abs(Tu[i, 0] - (l * T[i, 1] + m * T[i, 2])),
                          abs(Tu[i, 1] - (-l * T[i, 0] + n * T[i, 2])),
                          abs(Tu[i, 2] - (-m * T[i, 0] - n * T[i, 1])))
            for j in range(3):
                rec = max(rec,
                          abs(Tv[0, j] - (lt * T[1, j] + mt * T[2, j])),
                          abs(Tv[1, j] - (-lt * T[0, j] + nt * T[2, j])),
                          abs(Tv[2, j] - (-mt * T[0, j] - nt * T[1, j])))

            rep.so3_orth = max(rep.so3_orth, so3)
            rep.so3_det = max(rep.so3_det, det)
            rep.du_identity = max(rep.du_identity, r1)
            rep.dv_identity = max(rep.dv_identity, r2)
            rep.scalar_recursions = max(rep.scalar_recursions, rec)
            rep.second_order = max(rep.second_order, r4)
    return rep


def _suite_grid(s, n):
    lo_u, hi_u = s.curve_u.domain
    lo_v, hi_v = s.curve_v.domain
    return (np.linspace(lo_u + 0.05, hi_u - 0.05, n),
            np.linspace(lo_v + 0.05, hi_v - 0.05, n))


@pytest.mark.parametrize("grid_n", [6, 32])
@pytest.mark.parametrize("key", verify.all_pairs())
def test_compatibility_grid_matches_pointwise_reference(key, grid_n):
    s = verify.surface_for(key)
    us, vs = _suite_grid(s, grid_n)
    got = check_compatibility(s.field, us, vs)
    want = _check_compatibility_reference(s.field, us, vs)
    for (name, g), (_, w) in zip(got.rows(), want.rows()):
        assert type(g) is float, name
        assert float(g).hex() == float(w).hex(), name


def _frame_values(curve, ts):
    """The frame rows (nu1, nu2, mu) as a 3 x 3 matrix at each float of
    ``ts``, from one scalar evaluation per parameter."""
    out = []
    for t in ts:
        at = CurveJets(curve, float(t), 2)
        out.append(np.array([[c.value for c in at.row(i)] for i in (1, 2, 3)]))
    return out


def _value_reference(av, bv):
    """T at one point from the frame-row matrices of its two curves."""
    return bv @ av.T


def _frames_reference(s, grid_n):
    """suite_frames' residuals for one pair, node by node."""
    us, vs = _suite_grid(s, grid_n)
    on_b = _frame_values(s.curve_v, vs)
    worst_orth, worst_det = 0.0, 0.0
    for av in _frame_values(s.curve_u, us):
        for bv in on_b:
            T = _value_reference(av, bv)
            worst_orth = max(worst_orth,
                             float(np.max(np.abs(T.T @ T - np.eye(3)))))
            worst_det = max(worst_det, abs(float(np.linalg.det(T)) - 1.0))
    return worst_orth, worst_det


@pytest.mark.parametrize("key", verify.all_pairs())
def test_value_grid_nodes_equal_pointwise_reference(key):
    s = verify.surface_for(key)
    us, vs = _suite_grid(s, 12)
    grid = s.field.value(us, vs)
    assert grid.shape == (12, 12, 3, 3)
    on_a, on_b = _frame_values(s.curve_u, us), _frame_values(s.curve_v, vs)
    for a, u in enumerate(us):
        for b, v in enumerate(vs):
            want = _value_reference(on_a[a], on_b[b]).tobytes()
            assert grid[a, b].tobytes() == want
            assert s.field.value(float(u), float(v)).tobytes() == want


def test_frames_suite_matches_pointwise_reference():
    checks = {c.name: c.value for c in verify.suite_frames()}
    for key in verify.all_pairs():
        orth, det = _frames_reference(verify.surface_for(key), 12)
        assert checks[f"so3_orthogonality_{key}"] == orth
        assert checks[f"so3_determinant_{key}"] == det


def test_constant_frames_zero_residual():
    a = _constant_frame_line((1, 0, 0), (0, 1, 0))
    b = _constant_frame_line((0, 1, 1), (1, 0, 0))
    rep = check_compatibility(FrameField(a, b),
                              np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    assert rep.du_identity == 0.0
    assert rep.dv_identity == 0.0
    assert rep.second_order == 0.0


def test_polar_rotation_projects():
    rng = np.random.default_rng(0)
    M = polar_rotation(np.eye(3) + 0.05 * rng.standard_normal((3, 3)))
    assert np.allclose(M.T @ M, np.eye(3), atol=1e-14)
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-14)


def test_identity_field_reconstructs_parallel_lines():
    def unit_curv(t, order):
        order = max(order, 2)
        z = Jet.constant(0.0, t, order)
        one = Jet.constant(1.0, t, order)
        return curves.FramedCurvature(l=z, m=z, n=z, alpha=one)

    a, b = reconstruct_framed_curves(unit_curv, unit_curv, np.eye(3),
                                     (0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))
    pa = np.array([a.point(t) for t in (-0.5, 0.0, 0.5)])
    pb = np.array([b.point(t) for t in (-0.5, 0.0, 0.5)])
    assert np.allclose(pa, pb, atol=1e-12)
    d = pa[2] - pa[0]
    assert np.allclose(d / np.linalg.norm(d), a.frame_row(3, 0.0, 2)[0].value
                       * np.array([0, 0, 0])
                       + [m.value for m in a.frame_row(3, 0.0, 2)],
                       atol=1e-12)


def _roundtrip_error(name_a, name_b, step, window=0.9, grid=6):
    a, b = catalog(name_a), catalog(name_b)
    ff = FrameField(a, b)
    ra, rb = reconstruct_framed_curves(
        a.batch_curvature, b.batch_curvature, ff.value(0.0, 0.0),
        (0.0, 0.0), (-window, window), (-window, window), step=step)
    g = np.linspace(-window, window, grid)
    return float(np.max(np.abs(FrameField(ra, rb).value(g, g)
                               - ff.value(g, g))))


@pytest.mark.parametrize("na,nb", [("s0_a", "s0_b"), ("s1m_a", "s1m_b")])
def test_reconstruction_roundtrip(na, nb):
    assert _roundtrip_error(na, nb, 1e-3) < 1e-6


def test_reconstruction_rk4_order():
    # a fast-turning helix keeps the truncation error above roundoff; the
    # constant-curvature frame equation has the exact Rodrigues solution
    w = 8.0
    F = np.array([[0.0, 0.6 * w, -w], [-0.6 * w, 0.0, 0.0], [w, 0.0, 0.0]])

    def exact(t):
        nrm = math.sqrt((0.6 * w)**2 + w * w)
        K = F / nrm
        th = nrm * t
        return np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)

    def curv(t, order):
        order = max(order, 2)
        z = Jet.constant(0.0, t, order)
        return curves.FramedCurvature(
            l=Jet.constant(0.6 * w, t, order), m=Jet.constant(-w, t, order),
            n=z, alpha=Jet.constant(1.0, t, order))

    def err_for(step):
        a, _ = reconstruct_framed_curves(curv, curv, np.eye(3), (0.0, 0.0),
                                         (0.0, 1.0), (0.0, 1.0), step=step)
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 9):
            Ra, _ = a.state_at(float(t))
            worst = max(worst, float(np.max(np.abs(Ra - exact(float(t))))))
        return worst

    errs = [err_for(h) for h in (2e-3, 1e-3, 5e-4)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5, (errs, orders)


class NotIntegrable(TransurfError):
    """Frame-matrix field fails the compatibility identities."""


# bound on the mixed-derivative residual of a closed-form field in
# reconstruct_from_field: its finite differences (step 1e-5) cannot
# certify a smaller one
_FIELD_FD_TOL = 1e-5


def reconstruct_from_field(field_fn, p0, domain_a, domain_b, alpha_a, alpha_b,
                           step=1e-3, check_points=9):
    """Reconstruct a curve pair from a closed-form matrix field T(u, v).

    ``field_fn(us, vs)`` takes 1-D arrays and returns T on the grid us x vs,
    of shape (len(us), len(vs), 3, 3), as :meth:`FrameField.value` does.
    ``alpha_a`` and ``alpha_b`` map (ts, order), with ``ts`` a 1-D array, to
    the speed jets at ``ts``, as the ``alpha`` of
    :meth:`FramedCurve.batch_curvature`.

    The field must satisfy the mixed-derivative identity
    T_uv = T_v T^t T_u (checked by finite differences on a sample grid);
    otherwise NotIntegrable is raised. The curvature matrices are recovered
    as F(u) = -T^t T_u and F~(v) = T_v T^t, and the curves are integrated by
    :func:`reconstruct_framed_curves`: this is the converse of the
    translation construction.
    """
    u0, v0 = p0
    h = 1e-5

    def max_abs(x):
        return float(np.max(np.abs(x)))

    def stencil(ts, hh):
        return np.concatenate((ts - hh, ts, ts + hh))

    us = np.linspace(domain_a[0] + h, domain_a[1] - h, check_points)
    vs = np.linspace(domain_b[0] + h, domain_b[1] - h, check_points)
    # node [i, a, j, b] is T(us[a] + (i - 1) h, vs[b] + (j - 1) h)
    G = field_fn(stencil(us, h), stencil(vs, h)).reshape(
        3, check_points, 3, check_points, 3, 3)
    T = G[1, :, 1]
    Tu = (G[2, :, 1] - G[0, :, 1]) / (2 * h)
    Tv = (G[1, :, 2] - G[1, :, 0]) / (2 * h)
    Tuv = (G[2, :, 2] - G[0, :, 2] - G[2, :, 0] + G[0, :, 0]) / (4 * h * h)
    Tt = T.swapaxes(-1, -2)
    worst = max(max_abs(Tuv - Tv @ Tt @ Tu), max_abs(Tt @ T - np.eye(3)))
    if worst > _FIELD_FD_TOL:
        raise NotIntegrable(
            f"field fails the mixed-derivative identity (residual {worst:.3e})")

    def curv_from_F(extract, alpha_fn):
        # curvature entries (and two derivative orders) by central
        # differences; one call of ``extract`` takes every lane's stencil
        ht = 1e-4

        def fn(ts, order):
            F = extract(stencil(ts, ht)).reshape(3, len(ts), 3, 3)

            def entry_jet(i, j):
                lo, mid, hi = F[:, :, i, j]
                rows = (mid, (hi - lo) / (2 * ht), (hi - 2 * mid + lo) / ht**2)
                d = np.zeros((order + 1, len(ts)))
                d[:3] = rows[: order + 1]
                return Jet(ts, d)

            return curves.FramedCurvature(entry_jet(0, 1), entry_jet(0, 2),
                                          entry_jet(1, 2), alpha_fn(ts, order))
        return fn

    def extract_a(us):
        G = field_fn(stencil(us, h), np.array([v0]))[:, 0]
        G = G.reshape(3, len(us), 3, 3)
        return -G[1].swapaxes(-1, -2) @ ((G[2] - G[0]) / (2 * h))

    def extract_b(vs):
        G = field_fn(np.array([u0]), stencil(vs, h))[0]
        G = G.reshape(3, len(vs), 3, 3)
        return ((G[2] - G[0]) / (2 * h)) @ G[1].swapaxes(-1, -2)

    return reconstruct_framed_curves(
        curv_from_F(extract_a, alpha_a), curv_from_F(extract_b, alpha_b),
        field_fn(np.array([u0]), np.array([v0]))[0, 0], p0, domain_a,
        domain_b, step=step)


def test_reconstruct_from_closed_form_field():
    ff = FrameField(catalog("s0_a"), catalog("s0_b"))

    def alpha_a(ts, order):
        return catalog("s0_a").batch_curvature(ts, order).alpha

    def alpha_b(ts, order):
        return catalog("s0_b").batch_curvature(ts, order).alpha

    ra, rb = reconstruct_from_field(ff.value, (0.0, 0.0), (-0.5, 0.5),
                                    (-0.5, 0.5), alpha_a, alpha_b)
    g = np.linspace(-0.45, 0.45, 4)
    worst = float(np.max(np.abs(FrameField(ra, rb).value(g, g)
                                - ff.value(g, g))))
    assert worst < 1e-6


def test_incompatible_field_rejected():
    def bogus(us, vs):
        # orthogonal at each node (u, v) but not generated by any curve pair
        w = np.multiply.outer(us, vs)
        c, s = np.cos(w), np.sin(w)
        T = np.zeros(w.shape + (3, 3))
        T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1] = c, -s, s, c
        T[..., 2, 2] = 1.0
        return T

    def one(t, order):
        return Jet.constant(1.0, t, order)

    with pytest.raises(NotIntegrable):
        reconstruct_from_field(bogus, (0.5, 0.5), (0.2, 0.8), (0.2, 0.8),
                               one, one)


def _counted_ode_curve(calls, sources, t0=0.3, step=1e-3):
    """An ODE curve over the s1m_a curvature that logs each (t, order) it
    asks the curvature source for, one entry per lane, and the length of
    each source call."""
    base = catalog("s1m_a").batch_curvature

    def curvature_fn(ts, order):
        calls.extend((float(t), order) for t in ts)
        sources.append(len(ts))
        return base(ts, order)

    return OdeFramedCurve(curvature_fn, t0, np.eye(3), (-1.0, 1.0), step=step)


def test_rk4_evaluates_curvature_once_per_stage_time():
    # each step needs F at its midpoint and at its end node; the end node
    # starts the next step
    calls, sources = [], []
    n = 200
    curve = _counted_ode_curve(calls, sources)
    before = len(sources)
    curve.state_at(0.3 + n * 1e-3)
    assert {order for _, order in calls} == {1}
    assert len(calls) <= 2 * n + 1
    # the stage times of all n steps are known in advance: one source call
    assert len(sources) == before + 1


def test_frame_rows_share_one_derivative_stack():
    # one CurveJets evaluates the frame pair once, from one derivative stack
    calls = []
    curve = _counted_ode_curve(calls, [])
    t = 0.3171
    at = CurveJets(curve, t, 4)
    at.row(1)
    at.row(2)
    assert calls.count((t, 4)) == 1


def _reference_state(curvature, t0, step, t):
    """The per-step RK4 integrator from R = I, gamma = 0 at t0: F and alpha
    at each stage time from their own scalar curvature call, then an
    off-node step to t."""
    def fmat(x):
        c = curvature(x, 1)
        l, m, n = c.l.value, c.m.value, c.n.value
        return (np.array([[0.0, l, m], [-l, 0.0, n], [-m, -n, 0.0]]),
                c.alpha.value)

    def rk4_step(tk, node, h, end):
        R, g, F0, a0 = node
        Fm, am = fmat(tk + h / 2)
        F1, a1 = end

        def rhs(F, a, Rc):
            return F @ Rc, a * Rc[2]

        k1R, k1g = rhs(F0, a0, R)
        k2R, k2g = rhs(Fm, am, R + h / 2 * k1R)
        k3R, k3g = rhs(Fm, am, R + h / 2 * k2R)
        k4R, k4g = rhs(F1, a1, R + h * k3R)
        return (R + h / 6 * (k1R + 2 * k2R + 2 * k3R + k4R),
                g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g))

    k = int(round((t - t0) / step))
    sign = 1 if k >= 0 else -1
    node = (np.eye(3), np.zeros(3), *fmat(t0))
    for j in range(0, k, sign):
        end = fmat(t0 + (j + sign) * step)
        R, g = rk4_step(t0 + j * step, node, sign * step, end)
        node = (polar_rotation(R), g, *end)
    tk = t0 + k * step
    if t == tk:
        return node[0], node[1]
    R, g = rk4_step(tk, node, t - tk, fmat(t))
    return polar_rotation(R), g


@pytest.mark.parametrize("step,n", [(1e-3, 60), (1.6e-2, 40)])
def test_batched_stage_times_match_per_step_reference(step, n):
    # nodes on both sides of t0 = 0.3, and one off-node time on each side
    base = catalog("s1m_a")
    curve = OdeFramedCurve(base.batch_curvature, 0.3, np.eye(3), (-1.0, 1.0),
                           step=step)
    times = [0.3 + j * step for j in (n, 1, -n, -1, 0)]
    times += [0.3 + 2.5 * step, 0.3 - 3.5 * step]
    for t in times:
        R, g = curve.state_at(t)
        R_ref, g_ref = _reference_state(base.curvature, 0.3, step, t)
        assert R.tobytes() == R_ref.tobytes(), t
        assert g.tobytes() == g_ref.tobytes(), t
