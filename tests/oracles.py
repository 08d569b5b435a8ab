"""Reference computations that several test modules compare the library
against: a one-matrix polar rotation, a per-step RK4 chain, and the read of
one RK4 state."""
import numpy as np


def polar_rotation_reference(M):
    """The nearest rotation to one 3 x 3 matrix, and how it was found: the
    number of Newton steps R <- (R + R^-T)/2 taken before the error
    max|R^T R - I| fell below 1e-15, or "svd" for a matrix with an error
    above 0.5, a determinant below 0.5 or no convergence in three steps."""
    R = np.asarray(M, dtype=float)
    for steps in range(3):
        err = float(np.max(np.abs(R.T @ R - np.eye(3))))
        if err > 0.5 or np.linalg.det(R) < 0.5:
            break
        if err < 1e-15:
            return R, steps
        R = 0.5 * (R + np.linalg.inv(R).T)
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R, "svd"


def reference_state(curvature, t0, step, t):
    """(R, gamma) at t of the per-step RK4 integrator from R = I, gamma = 0
    at t0: F and alpha at each stage time from their own scalar curvature
    call, one chain of node steps, then an off-node step to t."""
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

    def polar(R):
        return polar_rotation_reference(R)[0]

    k = int(round((t - t0) / step))
    sign = 1 if k >= 0 else -1
    node = (np.eye(3), np.zeros(3), *fmat(t0))
    for j in range(0, k, sign):
        end = fmat(t0 + (j + sign) * step)
        R, g = rk4_step(t0 + j * step, node, sign * step, end)
        node = (polar(R), g, *end)
    tk = t0 + k * step
    if t == tk:
        return node[0], node[1]
    R, g = rk4_step(tk, node, t - tk, fmat(t))
    return polar(R), g


def state_at(curve, t):
    """(R, gamma) of a reconstructed curve at one time, read as a batch of
    one."""
    return curve.states_at([t])[0]
