"""Truncated Taylor arithmetic: univariate jets for curve data, bivariate jets
for surface data.

A :class:`Jet` stores raw derivatives ``(f, f', ..., f^(K))`` at a base point,
not Taylor coefficients, so formulas written in partial derivatives transcribe
one-to-one. A :class:`BiJet` stores the triangle of partials
``d^{i+j} f / du^i dv^j`` for ``i + j <= degree`` with mixed partials stored
once. Bivariate data for products ``f(u) g(v)`` is assembled exactly from the
two univariate jets, so no accuracy is lost to grid differencing anywhere.

A :class:`Jet` may carry a trailing batch axis: with ``t0`` a 1-D array of B
base points, ``d`` has shape ``(K + 1, B)`` and ``value``/``deriv`` return
arrays. Products and compositions gather their terms with tables by order
and add each order's terms in ascending order with one masked
``np.add.reduce``, from -0.0 for a product and +0.0 for a composition, as a
sum of floats term by term does, a batch in blocks of lanes whose transient
arrays stay under 128 KB; quotients run per order over rows. So lane b
equals the result at ``t0[b]`` bitwise, signs of zero included. Value
checks (near-zero divisors, the sqrt/pow domain) raise when any lane fails.
:class:`BiJet` has the same lane axis and one product kernel; both kernels
pair each Leibniz term with its mate, so ``a*b`` and ``b*a`` agree bitwise.

Values are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDivision, DomainError, OriginAtan2

DIV_EPS = 1e-12

_NMAX = 24
_BINOM_ROWS = [[float(math.comb(n, k)) for k in range(n + 1)]
               for n in range(_NMAX + 1)]
_FACT_ROWS = [float(math.factorial(k)) for k in range(_NMAX + 1)]


def _any(mask) -> bool:
    """True when a value check fails at the base point or at any lane."""
    return mask if mask.__class__ is bool else bool(np.any(mask))


def _ufunc(fn, *args):
    """A numpy ufunc at a jet value: a float for a scalar, an array for a
    batch. Scalars go through the same ufunc as batches so lanes agree."""
    y = fn(*args)
    return y if y.ndim else float(y)


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: a cache hands them to every caller."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _order_tables(n: int) -> tuple:
    """Read-only tables of the kernels at order n for a jet at one point,
    built from lists. :func:`_leibniz`, by column c <= n/2 and order k: the
    rows (c, k - c) of a term and (k - c, c) of its mate, its weight
    C(k, c), halved at k = 2c, and the mask c <= k - c.
    :meth:`Jet.compose_outer`, by term (i, m): the rows i of acc and m - i
    of p, the mask i < m, and the factorials by order."""
    ck = [(c, k) for c in range(n // 2 + 1) for k in range(n + 1)]
    im = [(i, m) for i in range(n) for m in range(n + 1)]
    lo, hi = [c for c, k in ck], [max(k - c, 0) for c, k in ck]
    pair = (2, n // 2 + 1, n + 1)
    return _frozen(
        np.array([lo, hi], dtype=np.intp).reshape(pair),
        np.array([hi, lo], dtype=np.intp).reshape(pair),
        np.array([math.comb(k, c) / (1 + (k == 2 * c))
                  for c, k in ck]).reshape(pair[1:]),
        np.array([k >= 2 * c for c, k in ck]).reshape(pair[1:]),
        np.array([[i for i, m in im], [max(m - i, 0) for i, m in im]],
                 dtype=np.intp).reshape(2, n, n + 1),
        np.array([m > i for i, m in im], bool).reshape(n, n + 1),
        np.array(_FACT_ROWS[: n + 1]))


@functools.lru_cache(maxsize=None)
def _tables(n: int, ndim: int) -> tuple:
    """The tables of :func:`_order_tables` for ``ndim`` axes: for a batch,
    the index tables themselves (they index rows, not lanes), and views of
    the weights, masks and factorials with ``ndim - 1`` lane axes of length
    1, so that the lanes broadcast against them."""
    tables, lanes = _order_tables(n), (1,) * (ndim - 1)
    return tables if ndim == 1 else tuple(
        t if t.dtype == np.intp else t.reshape(t.shape + lanes)
        for t in tables)


def _leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivatives of a product: row k sums C(k, c) (a_c b_{k-c} + a_{k-c}
    b_c) over c <= k - c in ascending c, at c = k - c as a_c b_c + a_c b_c
    at half weight (exact short of overflow). A pair is symmetric in a and
    b, so ``a*b`` and ``b*a`` agree bitwise."""
    # a block's transients take under 16 (n + 1)(n + 2) bytes a lane
    step = 8192 // (len(a) * (len(a) + 1))
    if a.ndim > 1 and a.shape[1] > step:
        return np.concatenate([_leibniz(a[:, s:s + step], b[:, s:s + step])
                               for s in range(0, a.shape[1], step)], 1)
    lohi, hilo, weight, mask = _tables(len(a) - 1, a.ndim)[:4]
    terms = a.take(lohi, 0)
    terms *= b.take(hilo, 0)
    pairs = terms[0] + terms[1]
    pairs *= weight
    return np.add.reduce(pairs, 0, where=mask, initial=-0.0)


# ---------------------------------------------------------------------------
# univariate jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Derivatives of a scalar function of one variable at a base point.

    ``d[k]`` is the k-th derivative. Arithmetic truncates to the smaller
    operand order. Derivative shifts (:meth:`differentiate`) may produce
    orders below the public minimum of 2; the public constructors enforce it.
    With ``t0`` a 1-D array the jet holds one lane per base point and ``d``
    has shape ``(order + 1, len(t0))``; jets of one batch share ``t0``.
    """

    t0: float
    d: np.ndarray

    def __post_init__(self):
        arr = np.array(self.d, dtype=float, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    @staticmethod
    def _fresh(t0, d) -> "Jet":
        """A jet on rows or an array its operation just built and nothing
        else holds, or on a view of a read-only array: read-only, no copy."""
        d = np.asarray(d, dtype=float)
        d.setflags(write=False)
        jet = object.__new__(Jet)
        object.__setattr__(jet, "t0", t0)
        object.__setattr__(jet, "d", d)
        return jet

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(t0: float, order: int = 6) -> "Jet":
        if order < 2:
            raise ValueError("jet order must be >= 2")
        d = np.zeros((order + 1,) + np.shape(t0))
        d[0], d[1] = t0, 1.0
        return Jet(t0, d)

    @staticmethod
    def constant(value: float, t0: float = 0.0, order: int = 6) -> "Jet":
        if order < 2:
            raise ValueError("jet order must be >= 2")
        d = np.zeros((order + 1,) + np.shape(t0))
        d[0] = value
        return Jet(t0, d)

    # -- accessors -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.d) - 1

    @property
    def value(self) -> float:
        return float(self.d[0]) if self.d.ndim == 1 else self.d[0]

    def deriv(self, k: int) -> float:
        return float(self.d[k]) if self.d.ndim == 1 else self.d[k]

    # -- helpers -------------------------------------------------------------

    def _align(self, other) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(other, Jet):
            if other.t0 is not self.t0 and _any(other.t0 != self.t0):
                raise ValueError("jet base points differ")
            a, b = self.d, other.d
            return (a, b) if len(a) == len(b) else (a[:len(b)], b[:len(a)])
        c = np.zeros(self.d.shape)
        c[0] = float(other)
        return self.d, c

    def truncate(self, order: int) -> "Jet":
        return Jet._fresh(self.t0, self.d[: order + 1])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        return Jet._fresh(self.t0, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        return Jet._fresh(self.t0, a - b)

    def __rsub__(self, other):
        a, b = self._align(other)
        return Jet._fresh(self.t0, b - a)

    def __neg__(self):
        return Jet._fresh(self.t0, -self.d)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._fresh(self.t0, self.d * float(other))
        a, b = self._align(other)
        return Jet._fresh(self.t0, _leibniz(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            other = float(other)
            if abs(other) <= DIV_EPS:
                raise DegenerateDivision("division by near-zero constant")
            return Jet._fresh(self.t0, self.d / other)
        # rows by derivative order: floats, or batch rows of length B
        a, b = (x.tolist() if x.ndim == 1 else list(x)
                for x in self._align(other))
        if _any(abs(b[0]) <= DIV_EPS):
            raise DegenerateDivision("division by jet with near-zero value")
        r = []
        for k in range(len(a)):
            binom = _BINOM_ROWS[k]
            acc = a[k]
            for i in range(k):
                acc = acc - binom[i] * r[i] * b[k - i]
            r.append(acc / b[0])
        return Jet._fresh(self.t0, r)

    def __rtruediv__(self, other):
        return Jet.constant(float(other), self.t0, self.order) / self

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            raise TypeError("jet-valued exponents are not supported")
        e = float(exponent)
        if e == int(e):
            k = int(e)
            if k < 0:
                return 1.0 / self ** -k
            # square-and-multiply: O(log k) products for a k read from input
            out, base = None, self
            while k:
                if k & 1:
                    out = base if out is None else out * base
                k >>= 1
                if k:
                    base = base * base
            return out or Jet.constant(1.0, self.t0, self.order)
        if _any(self.value <= 0.0):
            raise DomainError("real power of nonpositive value")
        return self.compose_outer(_pow_derivs(self.value, e, self.order))

    # -- calculus ------------------------------------------------------------

    def differentiate(self) -> "Jet":
        """Jet of the derivative function; order drops by one."""
        return Jet._fresh(self.t0, self.d[1:])

    def antiderivative(self, value: float) -> "Jet":
        """Jet of an antiderivative with prescribed value; order rises by one."""
        head = np.reshape(value, (1,) + self.d.shape[1:])
        return Jet._fresh(self.t0, np.concatenate((head, self.d)))

    def compose_outer(self, outer_derivs) -> "Jet":
        """Jet of F(self) from the derivatives of F at ``self.value``, a row
        per order like ``d``: Horner's rule in p_j = d_j / j!, j >= 1; a step
        sets entry m >= 1 to the sum of acc_i p_{m-i} over i < m in
        ascending i, and entry 0 to 0.0 + F^(k)(value) / k!."""
        n, f = self.order, outer_derivs
        if len(f) < n + 1:
            raise ValueError("need outer derivatives up to the jet order")
        step = 8192 // ((n + 1) * (n + 2))
        if self.d.ndim > 1 and self.d.shape[1] > step:
            return Jet._fresh(self.t0, np.concatenate([Jet._fresh(
                self.t0[s:s + step], self.d[:, s:s + step]).compose_outer(
                    [r[s:s + step] if np.ndim(r) else r for r in f[: n + 1]]
                ).d for s in range(0, self.d.shape[1], step)], 1))
        (rows, lag), mask, fact = _tables(n, self.d.ndim)[4:]
        p = (self.d / fact).take(lag, 0)
        acc = np.zeros(self.d.shape)
        acc[0] = f[n] / _FACT_ROWS[n]
        for k in range(n - 1, -1, -1):
            terms = acc.take(rows, 0)
            terms *= p
            acc = np.add.reduce(terms, 0, where=mask, initial=0.0)
            acc[0] += f[k] / _FACT_ROWS[k]
        acc *= fact
        return Jet._fresh(self.t0, acc)


# ---------------------------------------------------------------------------
# bivariate jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiJet:
    """Partial derivatives of a scalar function of (u, v) at a base point.

    ``c[i, j]`` holds the partial of order i in u and j in v; entries with
    ``i + j > degree`` are kept at zero. Products go through
    :func:`_product`; :meth:`compose_outer` is Horner's rule over it, and a
    quotient is solved over it shell by shell of total degree. With ``u0``
    and ``v0`` 1-D arrays of L base points, ``c`` has shape (n, n, L), lane
    k for the point (u0[k], v0[k]), and ``value``/``part`` return arrays.
    """

    u0: float
    v0: float
    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float).copy()
        np.copyto(arr, 0.0, where=_beyond_degree(arr.shape[0], arr.ndim))
        arr.setflags(write=False)
        object.__setattr__(self, "c", arr)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: float, u0: float = 0.0, v0: float = 0.0,
                 degree: int = 3) -> "BiJet":
        c = np.zeros((degree + 1, degree + 1) + np.shape(u0))
        c[0, 0] = value
        return BiJet(u0, v0, c)

    @staticmethod
    def from_u_jet(jet: Jet, v0: float, degree: int = 3) -> "BiJet":
        """Embed a function of u alone; exact up to ``degree``."""
        if jet.order < degree:
            raise ValueError("univariate jet order too low for requested degree")
        c = np.zeros((degree + 1, degree + 1) + jet.d.shape[1:])
        c[: degree + 1, 0] = jet.d[: degree + 1]
        return BiJet(jet.t0, v0, c)

    @staticmethod
    def from_v_jet(jet: Jet, u0: float, degree: int = 3) -> "BiJet":
        if jet.order < degree:
            raise ValueError("univariate jet order too low for requested degree")
        c = np.zeros((degree + 1, degree + 1) + jet.d.shape[1:])
        c[0, : degree + 1] = jet.d[: degree + 1]
        return BiJet(u0, jet.t0, c)

    def take(self, idx) -> "BiJet":
        """The point of lane ``idx`` for an int, else a batch of lanes."""
        return BiJet(self.u0[idx], self.v0[idx], self.c[..., idx])

    # -- accessors -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    @property
    def value(self) -> float:
        return self.part(0, 0)

    def part(self, i: int, j: int) -> float:
        return float(self.c[i, j]) if self.c.ndim == 2 else self.c[i, j]

    @property
    def hessian(self) -> np.ndarray:
        return np.array([[self.c[2, 0], self.c[1, 1]],
                         [self.c[1, 1], self.c[0, 2]]])

    # -- helpers -------------------------------------------------------------

    def _align(self, other) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(other, BiJet):
            if ((other.u0 is not self.u0 and _any(other.u0 != self.u0))
                    or (other.v0 is not self.v0 and _any(other.v0 != self.v0))):
                raise ValueError("bijet base points differ")
            n = min(self.degree, other.degree)
            return self.c[: n + 1, : n + 1], other.c[: n + 1, : n + 1]
        c = np.zeros_like(self.c)
        c[0, 0] = float(other)
        return self.c, c

    def truncate(self, degree: int) -> "BiJet":
        return BiJet(self.u0, self.v0, self.c[: degree + 1, : degree + 1])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        return BiJet(self.u0, self.v0, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        return BiJet(self.u0, self.v0, a - b)

    def __neg__(self):
        return BiJet(self.u0, self.v0, -self.c)

    def __mul__(self, other):
        if not isinstance(other, BiJet):
            return BiJet(self.u0, self.v0, self.c * float(other))
        return BiJet(self.u0, self.v0, _product(*self._align(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, BiJet):
            other = float(other)
            if abs(other) <= DIV_EPS:
                raise DegenerateDivision("division by near-zero constant")
            return BiJet(self.u0, self.v0, self.c / other)
        a, b = self._align(other)
        b00 = b[0, 0]
        if _any(abs(b00) <= DIV_EPS):
            raise DegenerateDivision("division by bijet with near-zero value")
        # graded solve of r b = a: on the shell i + j = s, r b is b00 times
        # r's own shell plus terms of the shells of r below s
        n = a.shape[0]
        shells = np.add.outer(np.arange(n), np.arange(n))
        r = np.zeros_like(a)
        for s in range(n):
            on = shells == s
            r[on] = (a[on] - _product(r, b)[on]) / b00
        return BiJet(self.u0, self.v0, r)

    # -- calculus ------------------------------------------------------------

    def du(self) -> "BiJet":
        """Bijet of the u-partial; degree drops by one."""
        return BiJet(self.u0, self.v0, self.c[1:, :-1])

    def dv(self) -> "BiJet":
        return BiJet(self.u0, self.v0, self.c[:-1, 1:])

    def compose_outer(self, outer_derivs) -> "BiJet":
        """BiJet of F(self) given derivatives of F at ``self.value``."""
        n = self.degree
        f = np.asarray(outer_derivs, dtype=float)[: n + 1]
        if len(f) < n + 1:
            raise ValueError("need outer derivatives up to the bijet degree")
        # Horner in p = self - value: F(self) = sum over k of f_k / k! p^k
        p = self.c.copy()
        p[0, 0] = 0.0
        acc = np.zeros_like(p)
        acc[0, 0] = f[n] / _FACT_ROWS[n]
        for k in range(n - 1, -1, -1):
            acc = _product(acc, p)
            acc[0, 0] += f[k] / _FACT_ROWS[k]
        return BiJet(self.u0, self.v0, acc)


@functools.lru_cache(maxsize=None)
def _beyond_degree(n: int, ndim: int) -> np.ndarray:
    """Mask of the entries (i, j) with i + j >= n of an n x n partials array
    of ``ndim`` axes, the lane axis included."""
    r = np.arange(n)
    return _frozen((np.add.outer(r, r) >= n).reshape(
        (n, n) + (1,) * (ndim - 2)))[0]


@functools.lru_cache(maxsize=64)
def _product_terms(n: int, lanes: int) -> tuple:
    """Read-only index table of :func:`_product` for n x n partials arrays
    of ``lanes`` lanes, raveled in C order: entry (i, j) of a product sums
    C(i, p) C(j, q) a[p, q] b[i - p, j - q] over p <= i, q <= j. A term and
    its mate (i - p, j - q) share the weight, so each pair is listed once, by
    ascending flat index ``lo`` of its first member within each (i, j); the
    kernel counts a term that is its own mate twice, so it carries half its
    weight (exact short of overflow). Index i of a lane is i * lanes + lane."""
    rows = [(p * n + q, (i - p) * n + j - q, math.comb(i, p) * math.comb(j, q),
             i * n + j)
            for i in range(n) for j in range(n - i)
            for p in range(i + 1) for q in range(j + 1)
            if (p, q) <= (i - p, j - q)]
    lo, hi, weight, out = (np.array(col) for col in zip(*rows))
    lane = np.arange(lanes)
    table = tuple((x[:, None] * lanes + lane).ravel() for x in (lo, hi, out))
    table += (np.repeat(np.where(lo == hi, 0.5, 1.0) * weight, lanes),)
    return _frozen(*table)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partials array of the product of two BiJets of one degree and one
    lane count: a mated pair is a[lo] b[hi] + a[hi] b[lo], symmetric in a
    and b, and one ``np.bincount`` sums the weighted pairs of every lane.
    Each (bin, lane) sums its terms from +0.0 in table order, so every lane
    equals the product of its own partials bitwise."""
    n, shape = a.shape[0], a.shape
    lo, hi, out, weight = _product_terms(n, a.size // (n * n))
    a, b = a.ravel(), b.ravel()
    terms = weight * (a[lo] * b[hi] + a[hi] * b[lo])
    return np.bincount(out, weights=terms, minlength=a.size).reshape(shape)


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

def _order_of(x) -> int:
    return x.order if isinstance(x, Jet) else x.degree


# Derivative tables hold one row per order (like ``Jet.d``) and use numpy
# ufuncs for scalars too: ``float ** e`` and ``np.power`` differ in the last
# bit on some inputs, and a batch lane must equal the scalar evaluation.

def _sin_derivs(a, n: int) -> list:
    s, c = _ufunc(np.sin, a), _ufunc(np.cos, a)
    return ([s, c, -s, -c] * (n // 4 + 1))[: n + 1]


def _cos_derivs(a, n: int) -> list:
    return _sin_derivs(a, n + 1)[1:]


def _exp_derivs(a, n: int) -> list:
    return [_ufunc(np.exp, a)] * (n + 1)


def _pow_derivs(a, e: float, n: int) -> list:
    out = [_ufunc(np.power, a, e)]
    coef = 1.0
    for k in range(1, n + 1):
        coef *= e - (k - 1)
        out.append(coef * _ufunc(np.power, a, e - k))
    return out


def sin(x):
    return x.compose_outer(_sin_derivs(x.value, _order_of(x)))


def cos(x):
    return x.compose_outer(_cos_derivs(x.value, _order_of(x)))


def exp(x):
    return x.compose_outer(_exp_derivs(x.value, _order_of(x)))


def tan(x):
    return sin(x) / cos(x)


def sqrt(x):
    if _any(x.value <= 0.0):
        raise DomainError("sqrt of nonpositive value")
    return x.compose_outer(_pow_derivs(x.value, 0.5, _order_of(x)))


def atan(x):
    if isinstance(x, Jet):
        # g = atan(f) has g' = f' / (1 + f^2); integrate the derivative jet.
        w = x.differentiate() / (1.0 + (x * x).truncate(x.order - 1))
        return w.antiderivative(_ufunc(np.arctan, x.value))
    return x.compose_outer(atan(Jet.variable(x.value, max(2, x.degree))).d)


def atan2(y, x):
    y0, x0 = y.value, x.value
    if _any((x0 == 0.0) & (y0 == 0.0)):
        raise OriginAtan2("atan2 at the origin")
    base = _ufunc(np.arctan2, y0, x0)
    if isinstance(y, Jet):
        n = min(y.order, x.order)
        yj, xj = y.truncate(n), x.truncate(n)
        num = xj * yj.differentiate() - yj * xj.differentiate()
        den = (xj * xj + yj * yj).truncate(n - 1)
        return (num / den).antiderivative(base)
    # Bivariate: compose atan on whichever ratio is well conditioned in each
    # lane; the branch constant only shifts the value: pin it to atan2.
    ratio = np.abs(x0) >= np.abs(y0)
    if y.c.ndim == 2:
        c = (atan(y / x) if ratio else -atan(x / y)).c.copy()
    else:
        c = np.empty(y.c.shape)
        for on, fn in ((ratio, lambda q, r: atan(q / r)),
                       (~ratio, lambda q, r: -atan(r / q))):
            if on.any():
                c[..., on] = fn(y.take(on), x.take(on)).c
    c[0, 0] = base
    return BiJet(y.u0, y.v0, c)


# ---------------------------------------------------------------------------
# 3-vector helpers over jets
# ---------------------------------------------------------------------------

def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def norm3(a):
    return sqrt(dot3(a, a))


def det3(a, b, c):
    return dot3(a, cross3(b, c))
