import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transurf import expr, jets
from transurf.curves import build_curve, parse_curve
from transurf.errors import (DegenerateDivision, DomainError, OriginAtan2,
                             TransurfError)
from transurf.fd import normalized_error, richardson_derivative
from transurf.jets import BiJet, Jet


# Reference BiJet arithmetic over partials arrays: an exactly rounded
# Leibniz sum, a quotient solved in graded order, and composition by Horner's
# rule on Taylor coefficients. They are independent of the product kernel.

def _ref_product(a, b):
    n = a.shape[0] - 1
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i, j] = math.fsum(
                math.comb(i, p) * math.comb(j, q) * a[p, q] * b[i - p, j - q]
                for p in range(i + 1) for q in range(j + 1))
    return out


def _ref_quotient(a, b):
    n = a.shape[0] - 1
    r = np.zeros((n + 1, n + 1))
    for s in range(n + 1):
        for i in range(s, -1, -1):
            j = s - i
            acc = a[i, j]
            for p in range(i + 1):
                for q in range(j + 1):
                    if (p, q) != (i, j):
                        acc -= (math.comb(i, p) * math.comb(j, q)
                                * r[p, q] * b[i - p, j - q])
            r[i, j] = acc / b[0, 0]
    return r


def _poly2_mul(a, b, n):
    """Product of two truncated Taylor-coefficient arrays."""
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for p in range(n + 1 - i):
                for q in range(n + 1 - i - j - p):
                    out[i + p, j + q] += a[i, j] * b[p, q]
    return out


def _ref_compose(c, outer_derivs):
    n = c.shape[0] - 1
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    fact2 = np.outer(fact, fact)
    p = c / fact2
    p[0, 0] = 0.0
    ft = np.asarray(outer_derivs[: n + 1], dtype=float) / fact
    acc = np.zeros((n + 1, n + 1))
    acc[0, 0] = ft[n]
    for k in range(n - 1, -1, -1):
        acc = _poly2_mul(acc, p, n)
        acc[0, 0] += ft[k]
    return acc * fact2


# Reference Jet product and composition: the row loops the table kernels
# replaced. A row is a float at a point and a lane array for a batch; each
# derivative order sums its terms one at a time, in the kernels' order.

def _leibniz_rows(a, b):
    out = []
    for k in range(len(a)):
        acc = None
        for i in range(k // 2 + 1):
            j = k - i
            term = a[i] * b[j] if i == j else a[i] * b[j] + a[j] * b[i]
            if math.comb(k, i) != 1:
                term = float(math.comb(k, i)) * term
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out, dtype=float)


def _horner_rows(d, f):
    """F(jet) from the rows d of the jet and f of F's derivatives: Horner's
    rule in the nilpotent part of the inner series, every entry summed from
    +0.0 in ascending order."""
    n = len(d) - 1
    fact = [float(math.factorial(k)) for k in range(n + 1)]
    p = [dk / fact[k] for k, dk in enumerate(d)]
    ft = [fk / fact[k] for k, fk in enumerate(f[: n + 1])]
    acc = [ft[n]] + [0.0] * n
    for k in range(n - 1, -1, -1):
        nxt = [0.0 + ft[k]]
        for m in range(1, n + 1):
            s = 0.0
            for i in range(m):
                s = s + acc[i] * p[m - i]
            nxt.append(s)
        acc = nxt
    return np.array([acc[k] * fact[k] for k in range(n + 1)], dtype=float)


def _rows_of(d):
    return d.tolist() if d.ndim == 1 else list(d)


def _coordinates(u0, v0, degree):
    """The coordinate functions u and v as BiJets at (u0, v0)."""
    return (BiJet.from_u_jet(Jet.variable(u0, degree), v0, degree),
            BiJet.from_v_jet(Jet.variable(v0, degree), u0, degree))


def test_polynomial_product_derivatives():
    u = Jet.variable(0.0, 6)
    p = (1 + u) * (1 - u)
    assert np.allclose(p.d, [1, 0, -2, 0, 0, 0, 0])


def test_mixed_partial_of_u2_v():
    U, V = _coordinates(0.7, -0.3, 3)
    f = U * U * V
    assert f.part(1, 1) == pytest.approx(2 * 0.7, abs=1e-14)
    assert f.part(2, 1) == pytest.approx(2.0, abs=1e-14)
    assert f.part(0, 1) == pytest.approx(0.7**2, abs=1e-14)


def test_random_quartic_products_match_expanded_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(-2, 2, size=5)
        b = rng.uniform(-2, 2, size=5)
        t0 = float(rng.uniform(-1, 1))
        # brute-force oracle: expand the product with numpy, differentiate
        prod = np.polynomial.polynomial.polymul(a, b)
        u = Jet.variable(t0, 8)
        ja = sum(float(c) * u**k for k, c in enumerate(a))
        jb = sum(float(c) * u**k for k, c in enumerate(b))
        jp = ja * jb
        poly = np.polynomial.Polynomial(prod)
        for k in range(9):
            exact = poly.deriv(k)(t0) if k else poly(t0)
            assert jp.deriv(k) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_sin_jet_is_maclaurin():
    s = jets.sin(Jet.variable(0.0, 6))
    assert np.allclose(s.d, [0, 1, 0, -1, 0, 1, 0])


def test_atan2_at_unit_x():
    y = Jet.variable(0.0, 6)
    x = Jet.constant(1.0, 0.0, 6)
    a = jets.atan2(y, x)
    assert a.value == 0.0
    assert a.deriv(1) == pytest.approx(1.0, abs=1e-15)


def test_sqrt_jet_against_finite_differences():
    def f(t):
        return math.sqrt(1 + t * t)

    j = jets.sqrt(1 + Jet.variable(1.0, 6) ** 2)
    for k in (1, 2):
        fd = richardson_derivative(f, 1.0, k, h=1e-4)
        assert j.deriv(k) == pytest.approx(fd, rel=1e-6)
    for k in (3, 4):
        assert normalized_error(j.deriv(k), richardson_derivative(f, 1.0, k)) < 1e-5


@pytest.mark.parametrize("name,fn,jfn,lo,hi", [
    ("sin", math.sin, jets.sin, -2.0, 2.0),
    ("cos", math.cos, jets.cos, -2.0, 2.0),
    ("exp", math.exp, jets.exp, -1.0, 1.0),
    ("tan", math.tan, jets.tan, -1.0, 1.0),
    ("atan", math.atan, jets.atan, -2.0, 2.0),
    ("sqrt", math.sqrt, jets.sqrt, 0.3, 3.0),
])
def test_elementary_jets_match_richardson(name, fn, jfn, lo, hi):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        t0 = float(rng.uniform(lo, hi))
        j = jfn(Jet.variable(t0, 6))
        for k in range(1, 5):
            fd = richardson_derivative(fn, t0, k)
            assert normalized_error(j.deriv(k), fd) < 1e-5, (name, t0, k)


def test_tensor_assembly_exact():
    u0, v0 = 0.4, -1.2
    fu = jets.sin(Jet.variable(u0, 6))
    gv = Jet.variable(v0, 6) ** 2
    prod = BiJet.from_u_jet(fu, v0, 3) * BiJet.from_v_jet(gv, u0, 3)
    assert prod.part(1, 1) == math.cos(u0) * 2 * v0


def test_bijet_atan2_partials():
    u0, v0 = 1.0, 0.5
    U, V = _coordinates(u0, v0, 3)
    th = jets.atan2(V, U)
    r2 = u0**2 + v0**2
    assert th.value == math.atan2(v0, u0)
    assert th.part(1, 0) == pytest.approx(-v0 / r2, rel=1e-14)
    assert th.part(0, 1) == pytest.approx(u0 / r2, rel=1e-14)
    assert th.part(2, 0) == pytest.approx(2 * u0 * v0 / r2**2, rel=1e-13)
    assert th.part(1, 1) == pytest.approx((v0**2 - u0**2) / r2**2, rel=1e-13)


def test_division_and_vector_helpers():
    u = Jet.variable(0.5, 6)
    a = (jets.sin(u), jets.cos(u), u * u)
    b = (u, 1 - u, jets.exp(u))
    n = jets.norm3(a)
    val = math.sqrt(math.sin(0.5)**2 + math.cos(0.5)**2 + 0.5**4)
    assert n.value == pytest.approx(val, rel=1e-15)
    d = jets.det3(a, b, jets.cross3(a, b))
    cr = jets.cross3(a, b)
    assert d.value == pytest.approx(jets.dot3(cr, cr).value, rel=1e-12)


def test_errors():
    u = Jet.variable(0.0, 6)
    with pytest.raises(DegenerateDivision):
        (1 + u) / u
    with pytest.raises(DomainError):
        jets.sqrt(u - 1)
    with pytest.raises(OriginAtan2):
        jets.atan2(u, u)
    with pytest.raises(ValueError):
        Jet.variable(0.0, 1)


def test_order_closure_is_min():
    a = Jet.variable(0.0, 6)
    b = Jet.variable(0.0, 4)
    assert (a * b).order == 4
    assert (a + b).order == 4


finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite, finite)
def test_commutativity_bitwise(x1, x2, y1, y2):
    a = Jet(0.0, np.array([x1, x2, 0.5]))
    b = Jet(0.0, np.array([y1, y2, -0.25]))
    assert np.array_equal((a + b).d, (b + a).d)
    assert np.array_equal((a * b).d, (b * a).d)
    a6 = Jet(0.0, np.array([x1, x2, 0.5, y1, -1.5, x2 * y2, 3.0]))
    b6 = Jet(0.0, np.array([y1, y2, -0.25, x1, 2.0, -x1, y2]))
    assert (a6 * b6).d.tobytes() == (b6 * a6).d.tobytes()
    # a batch with the two order-6 jets as lanes, times its lane swap
    t = np.zeros(2)
    ab = Jet(t, np.stack([a6.d, b6.d], axis=1))
    ba = Jet(t, np.stack([b6.d, a6.d], axis=1))
    assert (ab * ba).d.tobytes() == (ba * ab).d.tobytes()
    assert (ab * ba).d[:, 0].tobytes() == (a6 * b6).d.tobytes()
    assert (ab * ba).d[:, 1].tobytes() == (b6 * a6).d.tobytes()
    # BiJets whose partials cycle through the entries of the order-6 jets
    for n in (3, 5):
        p = BiJet(0.0, 0.0, np.resize(a6.d, (n + 1, n + 1)))
        q = BiJet(0.0, 0.0, np.resize(b6.d, (n + 1, n + 1)))
        assert (p * q).c.tobytes() == (q * p).c.tobytes()


@st.composite
def _jet_arrays(draw):
    """Three derivative arrays of one order in 2..7, at a point (1-D) or
    with 1, 2, 16, 66 or 660 lanes: normal draws over six decades, with a
    drawn share of the entries replaced by drawn values and signed zeros."""
    order = draw(st.integers(2, 7))
    lanes = draw(st.sampled_from((None, 1, 2, 16, 66, 660)))
    shape = (order + 1,) if lanes is None else (order + 1, lanes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.lists(finite, max_size=4)) + [0.0, -0.0]
    share = draw(st.sampled_from((0.0, 0.3, 0.9, 1.0)))

    def one():
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        pick = rng.random(shape) < share
        x[pick] = rng.choice(palette, pick.sum())
        return x
    return lanes, one(), one(), one()


def _strided(x):
    """A copy of x whose rows are not contiguous."""
    return np.stack((x, x), axis=-1)[..., 0]


@settings(max_examples=300, deadline=None)
@given(_jet_arrays())
@example((None, np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, -0.0]),
          np.array([-0.0, 1.0, -0.0])))
def test_jet_kernels_equal_row_loops_bitwise(drawn):
    # the product and the composition equal the row loops bitwise, signs
    # of zero included, at a point and on lanes; a*b and b*a agree bitwise;
    # strided derivative arrays read as contiguous ones
    lanes, a, b, f = drawn
    t0 = 0.0 if lanes is None else np.zeros(lanes)
    ja, jb = Jet(t0, a), Jet(t0, b)
    want = _leibniz_rows(_rows_of(a), _rows_of(b)).tobytes()
    assert (ja * jb).d.tobytes() == want
    assert (jb * ja).d.tobytes() == want
    assert (Jet._fresh(t0, _strided(a)) * jb).d.tobytes() == want
    want = _horner_rows(_rows_of(a), _rows_of(f)).tobytes()
    assert ja.compose_outer(_rows_of(f)).d.tobytes() == want
    assert ja.compose_outer(f).d.tobytes() == want
    assert Jet._fresh(t0, _strided(a)).compose_outer(f).d.tobytes() == want


def test_jet_kernel_tables_do_not_grow_with_lanes():
    # the kernels' tables are per order: lanes add no cached table
    x = Jet.variable(np.linspace(0.1, 1.0, 3), 5)
    jets.sqrt(x * x + 1.0)
    cached = jets._tables.cache_info().currsize
    for lanes in (1, 16, 660):
        x = Jet.variable(np.linspace(0.1, 1.0, lanes), 5)
        jets.sqrt(x * x + 1.0)
    assert jets._tables.cache_info().currsize == cached


@pytest.mark.parametrize("order", [2, 4, 6, 7])
def test_jet_kernels_hold_transients_under_128_kb(order):
    # a large batch goes through the kernels in blocks of lanes: beside the
    # inputs, the blocks' results and the joined result, a product or a
    # composition holds less than 128 KB at once
    rng = np.random.default_rng(order)
    t0 = np.zeros(1088)
    a, b = (Jet(t0, rng.standard_normal((order + 1, 1088))) for _ in "ab")
    f = list(rng.standard_normal((order + 1, 1088)))
    tracemalloc.start()
    try:
        for op in (lambda: a * b, lambda: a.compose_outer(f)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = op()
            peak = tracemalloc.get_traced_memory()[1] - held
            assert peak < 128 * 1024 + 2 * out.d.nbytes + 16 * 1024
    finally:
        tracemalloc.stop()


@st.composite
def _bijet_pairs(draw):
    """Two BiJets of one degree in 2..5, entries in [-2, 2], |b00| >= 0.5."""
    n = draw(st.integers(2, 5)) + 1
    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    a, b = (np.reshape(draw(st.lists(entry, min_size=n * n, max_size=n * n)),
                       (n, n)) for _ in range(2))
    b[0, 0] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
    return BiJet(0.3, -0.7, a), BiJet(0.3, -0.7, b)


def _v_partials(degree, head):
    c = np.zeros((degree + 1, degree + 1))
    c[0, : len(head)] = head
    return BiJet(0.3, -0.7, c)


@settings(max_examples=200, deadline=None)
@given(_bijet_pairs())
# a near-cancelling quotient: its (0, 5) partial missed the bound by 10%
# with the reciprocal composition
@example((_v_partials(5, (0.5, 1.7771852134944002, 1.0)),
          _v_partials(5, (0.5, 1.77734375, 1.0))))
def test_bijet_arithmetic_matches_reference(pair):
    a, b = pair
    assert (a * b).c.tobytes() == (b * a).c.tobytes()
    n = a.degree
    s, c = math.sin(a.value), math.cos(a.value)
    sin_derivs = [(s, c, -s, -c)[k % 4] for k in range(n + 1)]
    for got, want in ((a * b, _ref_product(a.c, b.c)),
                      (a / b, _ref_quotient(a.c, b.c)),
                      (jets.sin(a), _ref_compose(a.c, sin_derivs))):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got.c - want)) <= 1e-12 * scale


@st.composite
def _lane_bijets(draw):
    """Two BiJets of one degree in 2..4 with 2..5 lanes, entries in
    [-2, 2], signed zeros included; the divisor's lanes have
    |b00| >= 0.5, lane 0 of the pair (a, b) has |b00| > |a00| and lane 1
    |a00| > |b00|, so that atan2(a, b) takes both branches."""
    n, lanes = draw(st.integers(2, 4)) + 1, draw(st.integers(2, 5))
    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    a, b = (np.reshape(draw(st.lists(entry, min_size=n * n * lanes,
                                     max_size=n * n * lanes)), (n, n, lanes))
            for _ in range(2))
    b[0, 0] = [draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
               for _ in range(lanes)]
    a[0, 0, 0], a[0, 0, 1] = 0.5 * b[0, 0, 0], 2.0 * b[0, 0, 1]
    u0, v0 = (np.array(draw(st.lists(entry, min_size=lanes, max_size=lanes)))
              for _ in range(2))
    return BiJet(u0, v0, a), BiJet(u0, v0, b)


_LANE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "sin": lambda a, b: jets.sin(a),
    "cos": lambda a, b: jets.cos(a),
    "sqrt": lambda a, b: jets.sqrt(b * b),
    "atan": lambda a, b: jets.atan(a),
    "atan2": lambda a, b: jets.atan2(a, b),
    "du": lambda a, b: a.du(),
    "dv": lambda a, b: a.dv(),
    "truncate": lambda a, b: a.truncate(1),
}


@settings(max_examples=100, deadline=None)
@given(_lane_bijets())
def test_bijet_lanes_equal_one_point_bitwise(pair):
    # every lane of a lane BiJet equals the BiJet of its own point, signs
    # of zero included: one product kernel serves both
    a, b = pair

    def point(x, k):
        return BiJet(float(x.u0[k]), float(x.v0[k]), x.c[..., k])

    for name, op in _LANE_OPS.items():
        got = op(a, b)
        assert got.c.shape[-1] == len(a.u0), name
        for k in range(len(a.u0)):
            want = op(point(a, k), point(b, k))
            assert got.c[..., k].tobytes() == want.c.tobytes(), (name, k)
            assert (got.u0[k], got.v0[k]) == (want.u0, want.v0), name


def test_bijet_lane_checks_raise_when_any_lane_fails():
    u0, v0 = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    c = np.zeros((3, 3, 2))
    c[0, 0] = (1.0, 0.0)
    x = BiJet(u0, v0, c)
    with pytest.raises(DegenerateDivision):
        x / x
    with pytest.raises(DomainError):
        jets.sqrt(x)
    with pytest.raises(OriginAtan2):
        jets.atan2(x, x)
    with pytest.raises(ValueError):
        x + BiJet(u0[::-1], v0, c)


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite)
def test_associativity_within_ulps(x, y, z):
    # Reassociation error is bounded by ulps of the intermediate magnitudes,
    # which can exceed ulps of the result when terms cancel.
    a = Jet(0.0, np.array([x, 1.0, 0.0]))
    b = Jet(0.0, np.array([y, -1.0, 2.0]))
    c = Jet(0.0, np.array([z, 0.5, 1.0]))
    mag_a = Jet(0.0, np.abs(a.d))
    mag_b = Jet(0.0, np.abs(b.d))
    mag_c = Jet(0.0, np.abs(c.d))
    eps = np.finfo(float).eps
    s1, s2 = ((a + b) + c).d, (a + (b + c)).d
    s_scale = (mag_a + mag_b + mag_c).d
    assert np.all(np.abs(s1 - s2) <= 2 * eps * s_scale + 1e-300)
    p1, p2 = ((a * b) * c).d, (a * (b * c)).d
    p_scale = ((mag_a * mag_b) * mag_c).d
    assert np.all(np.abs(p1 - p2) <= 4 * eps * p_scale + 1e-300)


def test_bijet_derivative_shift():
    U, V = _coordinates(0.3, 0.8, 4)
    f = jets.sin(U * V)
    fu = f.du()
    assert fu.value == f.part(1, 0)
    assert fu.part(0, 1) == f.part(1, 1)
    assert fu.degree == 3


def test_jet_immutable():
    j = Jet.variable(0.0, 3)
    with pytest.raises(ValueError):
        j.d[0] = 5.0


@pytest.mark.parametrize("t0", [0.3, np.array([0.3, -1.2, 2.0])])
def test_jet_operations_build_read_only_jets(t0):
    # the operations own the arrays they build, so they skip the copy; the
    # jets stay read-only, and the public constructor still copies
    x = Jet.variable(t0, 4)
    y = jets.sqrt(x * x + 1.0)
    results = [x + y, x - y, 1.0 - x, -x, 2.0 * x, x / 2.0, x * y, x / y,
               jets.sin(x), jets.atan(x)]
    for r in results:
        assert r.d.dtype == float and r.d.shape == x.d.shape
        assert r.d is not x.d and r.d is not y.d
        with pytest.raises(ValueError):
            r.d[0] = 5.0
    d = np.array(x.d)
    j = Jet(t0, d)
    d[0] = 5.0
    assert np.all(j.d[0] == x.d[0])


@pytest.mark.parametrize("t0", [0.3, -1.7, 0.0, np.array([0.3, -1.2, 2.0])])
def test_integer_power_by_squaring(t0):
    # u^2 and u^3 keep the products of one factor at a time bitwise, and a
    # higher power agrees with them to roundoff
    u = jets.sin(Jet.variable(t0, 6)) + 1.1

    def repeated(k):
        out = Jet.constant(1.0, u.t0, u.order)
        for _ in range(k):
            out = out * u
        return out

    for k in (0, 1, 2, 3):
        assert (u ** k).d.tobytes() == repeated(k).d.tobytes()
    want = repeated(7).d
    assert np.max(np.abs((u ** 7).d - want)
                  / np.maximum(1.0, np.abs(want))) < 1e-12


def test_huge_integer_power_is_fast():
    # the exponent comes from user input: u^1e9 takes O(log k) products
    start = time.perf_counter()
    x = expr.evaluate(expr.parse_expression("u^1e9"), {"u": Jet.variable(0.9, 6)})
    assert x.value == 0.0
    with pytest.raises(TransurfError):
        build_curve(parse_curve("(u, u^1e9, 0)"))
    assert time.perf_counter() - start < 1.0
