"""The frame matrix T(u, v) between two framed curves, its differential
identities, and reconstruction of framed curves from curvature data.

Row/column conventions are load-bearing: T maps the frame of curve A at u to
the frame of curve B at v, with rows ordered (nu1, nu2, mu), so

    t_ij(u, v) = (frame of B at v)_i . (frame of A at u)_j.

Every entry (and any of its partials) is assembled exactly from tensor
products of univariate jets of the two curves; nothing is ever obtained by
differencing a truncated field, so derivative entries carry full accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (FramedCurve, FramedCurvature, VecJets, batch_evaluator,
                     shift3, vec_values)
from .jets import BiJet, Jet


def frame_dot(row_b, row_a):
    """sum_c row_b[c] row_a[c] over three components, added left to right
    from zero: ((0 + b0 a0) + b1 a1) + b2 a2.

    This is the order in which :func:`entry_bijet` accumulates its
    entries, so a value formed here from frame-row derivatives equals the
    matching BiJet entry bitwise. The components are floats or arrays, which
    broadcast: per lane for Newton iterates, outer for a grid.
    """
    return ((0.0 + row_b[0] * row_a[0]) + row_b[1] * row_a[1]
            + row_b[2] * row_a[2])


def entry_bijet(row_b: VecJets, row_a: VecJets, u: float, v: float,
                degree: int = 3, du: int = 0, dv: int = 0) -> BiJet:
    """BiJet of (d/du)^du (d/dv)^dv t_ij at (u, v) from the frame row i of
    curve B at v and row j of curve A at u, jets of order at least
    degree + max(du, dv).

    Differentiated entries are assembled from shifted univariate frame jets,
    so they have full degree (no truncation loss); batch rows give one lane
    per point.
    """
    row_b, row_a = shift3(row_b, dv), shift3(row_a, du)
    # the partials of f(u) g(v) are f^(p)(u) g^(q)(v): an outer product
    c = 0.0
    for k in range(3):
        c = c + (row_a[k].d[: degree + 1, None]
                 * row_b[k].d[None, : degree + 1])
    return BiJet(u, v, c)


class FrameField:
    """Evaluator for the frame matrix of a pair of framed curves."""

    def __init__(self, curve_a: FramedCurve, curve_b: FramedCurve):
        self.curve_a = curve_a
        self.curve_b = curve_b

    def t_bijet(self, i: int, j: int, u: float, v: float,
                degree: int = 3, du: int = 0, dv: int = 0) -> BiJet:
        """BiJet of (d/du)^du (d/dv)^dv t_ij at (u, v); see
        :func:`entry_bijet`."""
        order = degree + max(du, dv)
        return entry_bijet(self.curve_b.frame_row(i, v, order),
                           self.curve_a.frame_row(j, u, order), u, v, degree,
                           du, dv)

    def value(self, u, v) -> np.ndarray:
        """T at (u, v), a 3 x 3 matrix. For 1-D arrays ``u`` and ``v``, T at
        every node of the grid u x v, of shape (len(u), len(v), 3, 3), from
        one batch per curve; a float call is the grid of one node."""
        if not isinstance(u, np.ndarray):
            return self.value(np.array([u]), np.array([v]))[0, 0]
        ja, jb = self.curve_a.batch_jets(u, 2), self.curve_b.batch_jets(v, 2)
        # the frame rows (nu1, nu2, mu) of a curve, one 3 x 3 matrix per lane
        av, bv = (np.ascontiguousarray(np.moveaxis(np.array(
            [vec_values(on.row(i)) for i in (1, 2, 3)]), -1, 0)) for on in (ja, jb))
        return bv[None] @ av[:, None].swapaxes(-1, -2)

    def partial_value(self, i: int, j: int, u: float, v: float) -> float:
        """t_ij at (u, v), from one evaluation of each curve."""
        return entry_value(self.curve_b.frame_row(i, v, 2),
                           self.curve_a.frame_row(j, u, 2))


def entry_value(row_b: VecJets, row_a: VecJets) -> float:
    """t_ij from the frame row i of curve B and row j of curve A: the value
    of the matching :func:`entry_bijet`, bitwise."""
    return frame_dot([c.value for c in row_b], [c.value for c in row_a])


# ---------------------------------------------------------------------------
# compatibility identities
# ---------------------------------------------------------------------------

def _curvature_matrix(c: FramedCurvature) -> np.ndarray:
    """F = [[0, l, m], [-l, 0, n], [-m, -n, 0]]; for batch jets one matrix
    per lane, of shape (B, 3, 3)."""
    l, m, n = (np.asarray(x.value) for x in (c.l, c.m, c.n))
    F = np.zeros(l.shape + (3, 3))
    F[..., 0, 1], F[..., 0, 2], F[..., 1, 2] = l, m, n
    F[..., 1, 0], F[..., 2, 0], F[..., 2, 1] = -l, -m, -n
    return F


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


@dataclass
class CompatibilityReport:
    """Max-norm residuals of the frame-matrix identities over a grid."""

    so3_orth: float = 0.0          # || T^t T - I ||_max
    so3_det: float = 0.0           # | det T - 1 |
    du_identity: float = 0.0       # T_u + T F(u)
    dv_identity: float = 0.0       # T_v - F~(v) T
    scalar_recursions: float = 0.0
    second_order: float = 0.0      # T_uv - T_v T^t T_u

    def rows(self) -> list[tuple[str, float]]:
        return [("so3_orthogonality", self.so3_orth),
                ("so3_determinant", self.so3_det),
                ("first_order_u", self.du_identity),
                ("first_order_v", self.dv_identity),
                ("scalar_recursions", self.scalar_recursions),
                ("second_order_mixed", self.second_order)]


def check_compatibility(ff: FrameField, us: np.ndarray, vs: np.ndarray) -> CompatibilityReport:
    """Evaluate every frame-matrix identity on the grid us x vs.

    T, T_u, T_v and T_uv at every node come from one ``batch_jets`` per
    curve, as ``frame_dot`` of frame-row derivatives; each equals the
    matching ``t_bijet`` entry bitwise.
    """
    ja, jb = ff.curve_a.batch_jets(us, 3), ff.curve_b.batch_jets(vs, 3)

    def partial(p, q):
        # d^p/du^p d^q/dv^q T at every node: shape (len(us), len(vs), 3, 3)
        return np.stack([np.stack([
            frame_dot([c.d[q][None, :] for c in jb.row(i)],
                      [c.d[p][:, None] for c in ja.row(j)])
            for j in (1, 2, 3)], axis=-1) for i in (1, 2, 3)], axis=-2)

    T, Tu, Tv, Tuv = partial(0, 0), partial(1, 0), partial(0, 1), partial(1, 1)
    ca, cb = ja.curvature, jb.curvature
    Tt = T.swapaxes(-1, -2)
    # curvatures along the u or v axis; the last axis is the row or column
    l, m, n = (x.value[:, None, None] for x in (ca.l, ca.m, ca.n))
    lt, mt, nt = (x.value[None, :, None] for x in (cb.l, cb.m, cb.n))
    rec = [Tu[..., 0] - (l * T[..., 1] + m * T[..., 2]),
           Tu[..., 1] - (-l * T[..., 0] + n * T[..., 2]),
           Tu[..., 2] - (-m * T[..., 0] - n * T[..., 1]),
           Tv[..., 0, :] - (lt * T[..., 1, :] + mt * T[..., 2, :]),
           Tv[..., 1, :] - (-lt * T[..., 0, :] + nt * T[..., 2, :]),
           Tv[..., 2, :] - (-mt * T[..., 0, :] - nt * T[..., 1, :])]
    return CompatibilityReport(
        so3_orth=_max_abs(Tt @ T - np.eye(3)),
        so3_det=_max_abs(np.linalg.det(T) - 1.0),
        du_identity=_max_abs(Tu + T @ _curvature_matrix(ca)[:, None]),
        dv_identity=_max_abs(Tv - _curvature_matrix(cb)[None, :] @ T),
        scalar_recursions=max(_max_abs(r) for r in rec),
        second_order=_max_abs(Tuv - Tv @ Tt @ Tu))


# ---------------------------------------------------------------------------
# reconstruction from curvature data
# ---------------------------------------------------------------------------

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def polar_rotation(M: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor, det +1).

    For near-orthogonal input the Newton iteration R <- (R + R^-T)/2
    converges quadratically; fall back to an SVD otherwise.
    """
    R = np.asarray(M, dtype=float)
    for _ in range(3):
        err = float(np.max(np.abs(R.T @ R - _EYE3)))
        if err < 1e-15:
            return R
        if err > 0.5 or abs(np.linalg.det(R)) < 0.5:
            break
        R = 0.5 * (R + np.linalg.inv(R).T)
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R


class OdeFramedCurve(FramedCurve):
    """Framed curve defined by its curvature functions and an initial frame.

    The frame R(t) (rows nu1, nu2, mu) solves R' = F(t) R from R(t0) = R0 and
    gamma' = alpha(t) mu(t) from gamma(t0) = 0, integrated with fixed-step
    RK4 and a polar re-orthonormalization after every step. Jets at any t
    come from the ODE recursion, so only the values depend on the integrator.

    ``curvature_fn(ts, order)`` is called only with a 1-D array of times and
    returns a :class:`FramedCurvature` of batch jets whose lane k equals the
    curvature at ``ts[k]``; a single time is a batch of length one.
    :meth:`FramedCurve.batch_curvature` is such a source. The times of every
    step that one call integrates are known before the first step, so they
    are evaluated in one call; :meth:`states_at` reads a batch of times
    with one such call per side of t0 and one for the steps off the grid.
    """

    def __init__(self, curvature_fn, t0: float, R0: np.ndarray,
                 domain: tuple[float, float], step: float = 1e-3,
                 name: str = "reconstructed"):
        if not step > 1e-12:
            raise ValueError("integration step underflow")
        self.curvature_fn = curvature_fn   # (ts, order) -> FramedCurvature
        self.t0 = float(t0)
        self.step = float(step)
        # RK4 node j at t0 + j * step: (R, gamma, F, alpha)
        self._nodes: dict[int, tuple] = {
            0: (np.asarray(R0, dtype=float), np.zeros(3),
                *self._stage_values([self.t0])[0])}
        self._far = {+1: 0, -1: 0}         # furthest integrated node per side
        super().__init__(batch_evaluator(self._gamma_jets_impl),
                         batch_evaluator(self._frame_impl), domain, name=name,
                         validate=False)

    # -- integration ---------------------------------------------------------

    def _stage_values(self, ts) -> list[tuple[np.ndarray, float]]:
        """(F, alpha) at each time of ``ts``, from one call of the source."""
        c = self.curvature_fn(np.array(ts, dtype=float), 1)
        return list(zip(_curvature_matrix(c), c.alpha.value.tolist()))

    def _advance_to(self, k: int):
        sign = 1 if k >= 0 else -1
        js = range(self._far[sign], k, sign)
        if not js:
            return
        h = sign * self.step
        # each step's midpoint and end node, as floats formed exactly as a
        # step from t0 + j * step would form them
        times = []
        for j in js:
            times += [(self.t0 + j * self.step) + h / 2,
                      self.t0 + (j + sign) * self.step]
        stages = self._stage_values(times)
        for j, mid, end in zip(js, stages[0::2], stages[1::2]):
            R, g = self._rk4_step(self._nodes[j], h, mid, end)
            self._nodes[j + sign] = (polar_rotation(R), g, *end)
        self._far[sign] = k

    @staticmethod
    def _rk4_step(node, h, mid, end):
        """One RK4 step of length h from ``node`` = (R, gamma, F, alpha) at
        a time t; ``mid`` and ``end`` are (F, alpha) at t + h/2 and t + h."""
        R, g, F0, a0 = node
        Fm, am = mid
        F1, a1 = end

        def rhs(F, a, Rc):
            return F @ Rc, a * Rc[2]

        k1R, k1g = rhs(F0, a0, R)
        k2R, k2g = rhs(Fm, am, R + h / 2 * k1R)
        k3R, k3g = rhs(Fm, am, R + h / 2 * k2R)
        k4R, k4g = rhs(F1, a1, R + h * k3R)
        Rn = R + h / 6 * (k1R + 2 * k2R + 2 * k3R + k4R)
        gn = g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        return Rn, gn

    def states_at(self, ts) -> list[tuple[np.ndarray, np.ndarray]]:
        """(R, gamma) at each time of ``ts``, in its order.

        The nodes out to the furthest lane on each side of t0 are integrated
        first (one source call per side), then the midpoint and end times of
        every lane off the node grid are evaluated in one source call, and
        each such lane takes one RK4 step from its nearest node.
        """
        ts = np.asarray(ts, dtype=float).tolist()
        ks = [int(round((t - self.t0) / self.step)) for t in ts]
        self._advance_to(min(min(ks), 0))
        self._advance_to(max(max(ks), 0))
        # (node, node time, t) of each lane
        lanes = [(self._nodes[k], self.t0 + k * self.step, t)
                 for t, k in zip(ts, ks)]
        off = [(tk, t) for _, tk, t in lanes if t != tk]
        stages = iter(self._stage_values(
            [x for tk, t in off for x in (tk + (t - tk) / 2, t)])
            if off else ())
        out = []
        for node, tk, t in lanes:
            if t == tk:
                out.append((node[0], node[1]))
            else:
                R, g = self._rk4_step(node, t - tk, next(stages), next(stages))
                out.append((polar_rotation(R), g))
        return out

    def state_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return self.states_at([t])[0]

    # -- jet assembly from the ODE -------------------------------------------

    def _derivative_stacks(self, ts: np.ndarray, order: int):
        """d^k R / dt^k for k = 0..order via R' = F R at each time of the 1-D
        array ``ts``, shape (len(ts), order + 1, 3, 3), with gamma, shape
        (len(ts), 3), and the framed curvature from one source call; the
        RK4 states come from :meth:`states_at`."""
        c = self.curvature_fn(ts, order)
        F = np.zeros((len(ts), order + 1, 3, 3))
        entries = {(0, 1): c.l.d, (0, 2): c.m.d, (1, 0): -c.l.d, (1, 2): c.n.d,
                   (2, 0): -c.m.d, (2, 1): -c.n.d}
        for (r, s), d in entries.items():
            n = min(len(d), order + 1)
            F[:, :n, r, s] = d[:n].T

        stacks, gs = [], []
        for (R, g), Fl in zip(self.states_at(ts), F):
            stack = [R]
            for k in range(order):
                # d^{k+1} R = d^k (F R) by Leibniz over the stored stacks
                M = np.zeros((3, 3))
                for i in range(k + 1):
                    M += math.comb(k, i) * Fl[i] @ stack[k - i]
                stack.append(M)
            stacks.append(stack)
            gs.append(g)
        return np.array(stacks), np.array(gs), c

    def _frame_impl(self, ts: np.ndarray, order: int) -> tuple[VecJets, VecJets]:
        stacks, _, _ = self._derivative_stacks(ts, order)
        return tuple(tuple(Jet(ts, stacks[:, :, row, c].T) for c in range(3))
                     for row in (0, 1))

    def _gamma_jets_impl(self, ts: np.ndarray, order: int) -> VecJets:
        stacks, g, c = self._derivative_stacks(ts, max(order - 1, 2))
        return tuple(Jet(ts, np.concatenate((
            g[None, :, k], (c.alpha * Jet(ts, stacks[:, :, 2, k].T)).d[:order])))
            for k in range(3))


def reconstruct_framed_curves(curv_a, curv_b, T0: np.ndarray,
                              p0: tuple[float, float],
                              domain_a: tuple[float, float],
                              domain_b: tuple[float, float],
                              step: float = 1e-3,
                              ) -> tuple[OdeFramedCurve, OdeFramedCurve]:
    """Build two framed curves whose frame matrix is the one generated by the
    curvature data and the initial matrix T0 at p0.

    ``curv_a`` and ``curv_b`` are curvature sources as
    :class:`OdeFramedCurve` takes them: they map (ts, order), with ``ts`` a
    1-D array, to a FramedCurvature of batch jets whose lane k equals the
    curvature at ``ts[k]``. The ``batch_curvature`` method of a framed curve
    is one.

    The first curve starts from the identity frame at u0 and the second from
    T0 (both gammas start at the origin; the data only fixes them up to
    translation).
    """
    u0, v0 = p0
    a = OdeFramedCurve(curv_a, u0, np.eye(3), domain_a, step=step,
                       name="reconstructed-a")
    b = OdeFramedCurve(curv_b, v0, np.asarray(T0, dtype=float), domain_b,
                       step=step, name="reconstructed-b")
    return a, b

