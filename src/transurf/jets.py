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
arrays. Products, quotients and compositions are written per derivative
order over "rows" (Python floats for a scalar jet, length-B arrays for a
batch) with the same floating-point operations in the same order, so lane b
of a batch result equals the scalar result at ``t0[b]`` bitwise. Checks on
values (near-zero divisors, the sqrt/pow domain) raise when any lane fails.
:class:`BiJet` has no batch axis; its products, quotients and compositions
share one product kernel, which pairs each Leibniz term with its mate so
that ``a*b`` and ``b*a`` agree bitwise.

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


def _rows(d: np.ndarray) -> list:
    """Coefficients by derivative order: floats, or batch rows of length B."""
    return d.tolist() if d.ndim == 1 else list(d)


def _any(mask) -> bool:
    """True when a value check fails at the base point or at any lane."""
    return mask if mask.__class__ is bool else bool(np.any(mask))


def _ufunc(fn, *args):
    """A numpy ufunc at a jet value: a float for a scalar, an array for a
    batch. Scalars go through the same ufunc as batches so lanes agree."""
    y = fn(*args)
    return y if y.ndim else float(y)


def _leibniz(a: list, b: list, n: int) -> list:
    """Derivatives of a product from the rows of its factors.

    Row k is sum over i < k - i of C(k, i) (a_i b_{k-i} + a_{k-i} b_i), then
    C(k, k/2) a_{k/2} b_{k/2} for even k, added in that order. Each pair is
    symmetric in a and b, so ``a*b`` and ``b*a`` agree bitwise; rows are
    floats or batch arrays, so a lane equals the scalar product bitwise.
    """
    out = []
    for k in range(n + 1):
        binom = _BINOM_ROWS[k]
        acc = None
        for i in range(k // 2 + 1):
            j = k - i
            term = a[i] * b[j] if i == j else a[i] * b[j] + a[j] * b[i]
            if binom[i] != 1.0:
                term = binom[i] * term
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


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
        arr = np.asarray(self.d, dtype=float)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    @staticmethod
    def _fresh(t0, d) -> "Jet":
        """A jet on rows or an array that its operation has just built and
        nothing else holds, or on a view of a read-only array: made
        read-only in place, with no copy."""
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
        d = _blank(t0, order)
        d[0], d[1] = t0, 1.0
        return Jet(t0, d)

    @staticmethod
    def constant(value: float, t0: float = 0.0, order: int = 6) -> "Jet":
        if order < 2:
            raise ValueError("jet order must be >= 2")
        d = _blank(t0, order)
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
            n = min(self.order, other.order)
            return self.d[: n + 1], other.d[: n + 1]
        other = float(other)
        c = np.zeros(self.d.shape)
        c[0] = other
        return self.d, c

    def truncate(self, order: int) -> "Jet":
        return Jet(self.t0, self.d[: order + 1])

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
        return Jet._fresh(self.t0, _leibniz(_rows(a), _rows(b), len(a) - 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            other = float(other)
            if abs(other) <= DIV_EPS:
                raise DegenerateDivision("division by near-zero constant")
            return Jet._fresh(self.t0, self.d / other)
        a, b = self._align(other)
        a, b = _rows(a), _rows(b)
        b0 = b[0]
        if _any(abs(b0) <= DIV_EPS):
            raise DegenerateDivision("division by jet with near-zero value")
        r = []
        for k in range(len(a)):
            binom = _BINOM_ROWS[k]
            acc = a[k]
            for i in range(k):
                acc = acc - binom[i] * r[i] * b[k - i]
            r.append(acc / b0)
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
            out = Jet.constant(1.0, self.t0, self.order)
            for _ in range(k):
                out = out * self
            return out
        if _any(self.value <= 0.0):
            raise DomainError("real power of nonpositive value")
        return self.compose_outer(_pow_derivs(self.value, e, self.order))

    # -- calculus ------------------------------------------------------------

    def differentiate(self) -> "Jet":
        """Jet of the derivative function; order drops by one."""
        return Jet(self.t0, self.d[1:])

    def antiderivative(self, value: float) -> "Jet":
        """Jet of an antiderivative with prescribed value; order rises by one."""
        head = np.reshape(value, (1,) + self.d.shape[1:])
        return Jet._fresh(self.t0, np.concatenate((head, self.d)))

    def compose_outer(self, outer_derivs) -> "Jet":
        """Jet of F(self) given derivatives of F at ``self.value``.

        ``outer_derivs`` holds one row per derivative order, like ``d``.
        """
        n = self.order
        if len(outer_derivs) < n + 1:
            raise ValueError("need outer derivatives up to the jet order")
        f = outer_derivs[: n + 1]
        if isinstance(f, np.ndarray):
            f = _rows(f)
        fact = _FACT_ROWS
        p = [dk / fact[k] for k, dk in enumerate(_rows(self.d))]
        ft = [fk / fact[k] for k, fk in enumerate(f)]
        # Horner in the nilpotent part p[1:] of the inner series; every
        # entry sums from +0.0 in ascending order
        acc = [ft[n]] + [0.0] * n
        for k in range(n - 1, -1, -1):
            nxt = [0.0 + ft[k]]
            for m in range(1, n + 1):
                s = 0.0
                for i in range(m):
                    s = s + acc[i] * p[m - i]
                nxt.append(s)
            acc = nxt
        return Jet._fresh(self.t0, [acc[k] * fact[k] for k in range(n + 1)])


def _blank(t0, order: int) -> np.ndarray:
    """Zero derivative rows for a jet at ``t0`` (a float or a 1-D array)."""
    if isinstance(t0, np.ndarray):
        return np.zeros((order + 1, len(t0)))
    return np.zeros(order + 1)


# ---------------------------------------------------------------------------
# bivariate jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiJet:
    """Partial derivatives of a scalar function of (u, v) at a base point.

    ``c[i, j]`` holds the partial of order i in u and j in v; entries with
    ``i + j > degree`` are kept at zero. Products go through
    :func:`_product`; :meth:`compose_outer` is Horner's rule over it, and a
    quotient is solved over it shell by shell of total degree.
    """

    u0: float
    v0: float
    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float).copy()
        arr[_beyond_degree(arr.shape[0])] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "c", arr)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: float, u0: float = 0.0, v0: float = 0.0,
                 degree: int = 3) -> "BiJet":
        c = np.zeros((degree + 1, degree + 1))
        c[0, 0] = value
        return BiJet(u0, v0, c)

    @staticmethod
    def from_u_jet(jet: Jet, v0: float, degree: int = 3) -> "BiJet":
        """Embed a function of u alone; exact up to ``degree``."""
        if jet.order < degree:
            raise ValueError("univariate jet order too low for requested degree")
        c = np.zeros((degree + 1, degree + 1))
        c[: degree + 1, 0] = jet.d[: degree + 1]
        return BiJet(jet.t0, v0, c)

    @staticmethod
    def from_v_jet(jet: Jet, u0: float, degree: int = 3) -> "BiJet":
        if jet.order < degree:
            raise ValueError("univariate jet order too low for requested degree")
        c = np.zeros((degree + 1, degree + 1))
        c[0, : degree + 1] = jet.d[: degree + 1]
        return BiJet(u0, jet.t0, c)

    # -- accessors -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    @property
    def value(self) -> float:
        return float(self.c[0, 0])

    def part(self, i: int, j: int) -> float:
        return float(self.c[i, j])

    @property
    def hessian(self) -> np.ndarray:
        return np.array([[self.c[2, 0], self.c[1, 1]],
                         [self.c[1, 1], self.c[0, 2]]])

    # -- helpers -------------------------------------------------------------

    def _align(self, other) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(other, BiJet):
            if other.u0 != self.u0 or other.v0 != self.v0:
                raise ValueError("bijet base points differ")
            n = min(self.degree, other.degree)
            return self.c[: n + 1, : n + 1], other.c[: n + 1, : n + 1]
        other = float(other)
        c = np.zeros_like(self.c)
        c[0, 0] = other
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
        a, b = self._align(other)
        if not isinstance(other, BiJet):
            return BiJet(self.u0, self.v0, a * b[0, 0])
        return BiJet(self.u0, self.v0, _product(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._align(other)
        if not isinstance(other, BiJet):
            if abs(b[0, 0]) <= DIV_EPS:
                raise DegenerateDivision("division by near-zero constant")
            return BiJet(self.u0, self.v0, a / b[0, 0])
        if abs(b[0, 0]) <= DIV_EPS:
            raise DegenerateDivision("division by bijet with near-zero value")
        # graded solve of r b = a: on the shell i + j = s, r b is b00 times
        # r's own shell plus terms of the shells of r below s
        n = a.shape[0]
        shells = np.add.outer(np.arange(n), np.arange(n))
        r = np.zeros_like(a)
        for s in range(n):
            on = shells == s
            r[on] = (a[on] - _product(r, b)[on]) / b[0, 0]
        return BiJet(self.u0, self.v0, r)

    # -- calculus ------------------------------------------------------------

    def du(self) -> "BiJet":
        """Bijet of the u-partial; degree drops by one."""
        return BiJet(self.u0, self.v0, self.c[1:, :-1])

    def dv(self) -> "BiJet":
        return BiJet(self.u0, self.v0, self.c[:-1, 1:])

    def compose_outer(self, outer_derivs: np.ndarray) -> "BiJet":
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
def _beyond_degree(n: int) -> np.ndarray:
    """Mask of the entries (i, j) with i + j >= n of an n x n partials array."""
    r = np.arange(n)
    mask = np.add.outer(r, r) >= n
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=None)
def _product_terms(n: int) -> tuple:
    """Read-only index table of :func:`_product` for n x n partials arrays.

    Entry (i, j) of a product sums C(i, p) C(j, q) a[p, q] b[i - p, j - q]
    over p <= i, q <= j. A term and its mate (i - p, j - q) share the weight,
    so each pair is listed once, by ascending flat index ``lo`` of its first
    member within each (i, j). The kernel counts a term that is its own mate
    twice, so it carries half its weight (exact short of overflow).
    """
    rows = [(p * n + q, (i - p) * n + j - q, math.comb(i, p) * math.comb(j, q),
             i * n + j)
            for i in range(n) for j in range(n - i)
            for p in range(i + 1) for q in range(j + 1)
            if (p, q) <= (i - p, j - q)]
    lo, hi, weight, out = (np.array(col) for col in zip(*rows))
    table = (lo, hi, np.where(lo == hi, 0.5, 1.0) * weight, out)
    for arr in table:
        arr.setflags(write=False)
    return table


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partials array of the product of two BiJets of one degree: a mated
    pair is a[lo] b[hi] + a[hi] b[lo], symmetric in a and b, and one
    ``np.bincount`` sums the weighted pairs in table order."""
    n = a.shape[0]
    lo, hi, weight, out = _product_terms(n)
    a, b = a.ravel(), b.ravel()
    terms = weight * (a[lo] * b[hi] + a[hi] * b[lo])
    return np.bincount(out, weights=terms, minlength=n * n).reshape(n, n)


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

def _order_of(x) -> int:
    return x.order if isinstance(x, Jet) else x.degree


# Derivative tables hold one row per order (see ``_rows``) and use numpy
# ufuncs for scalars too: ``float ** e`` and ``np.power`` differ in the last
# bit on some inputs, and a batch lane must equal the scalar evaluation.

def _sin_derivs(a, n: int) -> list:
    s, c = _ufunc(np.sin, a), _ufunc(np.cos, a)
    cycle = (s, c, -s, -c)
    return [cycle[k % 4] for k in range(n + 1)]


def _cos_derivs(a, n: int) -> list:
    s, c = _ufunc(np.sin, a), _ufunc(np.cos, a)
    cycle = (c, -s, -c, s)
    return [cycle[k % 4] for k in range(n + 1)]


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
    outer = atan(Jet.variable(x.value, max(2, x.degree))).d
    return x.compose_outer(outer)


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
    # Bivariate: compose atan on whichever ratio is well conditioned; the
    # branch constant only shifts the value, so pin it to atan2 exactly.
    th = atan(y / x) if abs(x0) >= abs(y0) else -atan(x / y)
    c = th.c.copy()
    c[0, 0] = base
    return BiJet(th.u0, th.v0, c)


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
