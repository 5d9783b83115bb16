"""Reference implementations that the tests compare the package against.

They are the direct, slow forms of what the package computes: dense
N x N kernel sums in place of the O(N) contraction, and the small-beta
resolvent expansions written out as formulas in place of the monomial
tables.
"""
import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

_ROW_CHUNK = 256


def dense_contract(g, p, k, m, f):
    """Dense kernel sum with the own-panel kink correction, and its scale.

    Returns (h, scale) with h_i = sum_j w_j |x_i - x_j|^k x_j^m V_j f_j,
    the own panel of every node re-integrated split at the node for odd
    k, and scale_i the same sum with every summand taken in absolute
    value (the roundoff scale of h_i).
    """
    x, w = g.nodes, g.weights
    u = np.asarray(p.evaluate(x), dtype=float) * x**m * f
    h, scale = np.empty(g.size), np.empty(g.size)
    for lo in range(0, g.size, _ROW_CHUNK):
        kernel = np.abs(x[lo : lo + _ROW_CHUNK, None] - x[None, :]) ** k
        h[lo : lo + _ROW_CHUNK] = kernel @ (w * u)
        scale[lo : lo + _ROW_CHUNK] = kernel @ np.abs(w * u)
    if k % 2 == 0:
        return h, scale
    P, q = g.P, g.q
    xs, ws = leggauss(q)
    panel = np.repeat(np.arange(P), q)
    lo, hi = g.edges[panel], g.edges[panel + 1]
    coeffs = (f.reshape(P, q) @ np.linalg.inv(legvander(xs, q - 1)).T)[panel]
    x_own, w_own, u_own = (a.reshape(P, q)[panel] for a in (x, w, u))
    h -= np.sum(w_own * np.abs(x[:, None] - x_own) ** k * u_own, axis=1)
    for a, b in ((lo, x), (x, hi)):
        halfw = 0.5 * (b - a)
        y = 0.5 * (a + b)[:, None] + halfw[:, None] * xs[None, :]
        local = 2.0 * (y - lo[:, None]) / (hi - lo)[:, None] - 1.0
        vand = legvander(local.ravel(), q - 1).reshape(g.size, q, q)
        uy = np.asarray(p.evaluate(y), dtype=float) * y**m * np.einsum("nij,nj->ni", vand, coeffs)
        wk = halfw[:, None] * ws[None, :] * np.abs(x[:, None] - y) ** k
        h += np.sum(wk * uy, axis=1)
        scale += np.sum(wk * np.abs(uy), axis=1)
    return h, scale


def greens_expansion_formula(l: int, beta: float, x1, x2):
    """Truncated small-beta expansion of G^(l), l in 0..3.

    Terms from the leading 1/beta^{2l+1} down to beta^0; the omitted
    remainder is O(beta). Vectorized over x1, x2.
    """
    if l not in (0, 1, 2, 3):
        raise ValueError(f"expansion order must lie in 0..3, got {l}")
    if not (beta > 0.0):
        raise ValueError("beta must be positive")
    b = beta
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a1, a2 = np.abs(x1), np.abs(x2)
    d = np.abs(x1 - x2)
    if l == 0:
        return 1.0 / (4 * b) + 0.25 * (-a1 - 2 * d - a2)
    if l == 1:
        return (
            1.0 / (16 * b**3)
            - (a1 + a2) / (16 * b**2)
            + (2 * a1 * a2 - 3 * x1**2 + 8 * x1 * x2 - 3 * x2**2) / (32 * b)
            + (
                8 * d * (x1 - x2) ** 2
                + 3 * a2 * (3 * x1**2 + x2**2)
                + 3 * a1 * (x1**2 + 3 * x2**2)
            )
            / 96.0
        )
    if l == 2:
        return (
            1.0 / (32 * b**5)
            - (a1 + a2) / (32 * b**4)
            - (-2 * a1 * a2 + x1**2 - 4 * x1 * x2 + x2**2) / (64 * b**3)
            + ((a1 + 3 * a2) * x1**2 + (3 * a1 + a2) * x2**2) / (192 * b**2)
            + (
                5 * x1**4
                - 24 * x1**3 * x2
                + 30 * x1**2 * x2**2
                - 24 * x1 * x2**3
                + 5 * x2**4
                - 4 * a1 * a2 * (x1**2 + x2**2)
            )
            / (768 * b)
            + (
                -16 * d * (x1 - x2) ** 4
                - 5 * a2 * (5 * x1**4 + 10 * x1**2 * x2**2 + x2**4)
                - 5 * a1 * (x1**4 + 10 * x1**2 * x2**2 + 5 * x2**4)
            )
            / 3840.0
        )
    return (
        5.0 / (256 * b**7)
        - 5 * (a1 + a2) / (256 * b**6)
        + (10 * a1 * a2 - 3 * x1**2 + 16 * x1 * x2 - 3 * x2**2) / (512 * b**5)
        + ((a1 + 3 * a2) * x1**2 + (3 * a1 + a2) * x2**2) / (512 * b**4)
        + (
            5 * x1**4
            - 32 * x1**3 * x2
            + 30 * x1**2 * x2**2
            - 32 * x1 * x2**3
            + 5 * x2**4
            - 12 * a1 * a2 * (x1**2 + x2**2)
        )
        / (6144 * b**3)
        - (
            (a1 + 5 * a2) * x1**4
            + 10 * (a1 + a2) * x1**2 * x2**2
            + (5 * a1 + a2) * x2**4
        )
        / (6144 * b**2)
        + (
            -7 * x1**6
            + 48 * x1**5 * x2
            - 105 * x1**4 * x2**2
            + 160 * x1**3 * x2**3
            - 105 * x1**2 * x2**4
            + 48 * x1 * x2**5
            - 7 * x2**6
            + 2 * a1 * a2 * (3 * x1**2 + x2**2) * (x1**2 + 3 * x2**2)
        )
        / (36864 * b)
        + (
            128 * d * (x1 - x2) ** 6
            + 35 * a2 * (7 * x1**6 + 35 * x1**4 * x2**2 + 21 * x1**2 * x2**4 + x2**6)
            + 35 * a1 * (x1**6 + 21 * x1**4 * x2**2 + 35 * x1**2 * x2**4 + 7 * x2**6)
        )
        / 1290240.0
    )


def dense_e4_finite_beta(p, g, beta):
    """e4_finite_beta from dense kernels greens_expansion_formula(l)(x_i, x_j).

    The plain panel rule sees the kinks of |x_i - x_j| inside the panels,
    so it converges only at second order in the panel width. The kernel
    rows are built in chunks, so no N x N array is held.
    """
    x, w = g.nodes, g.weights
    Vx = np.asarray(p.evaluate(x), dtype=float)
    ew = np.exp(-beta * np.abs(x))
    vend, vmid = w * Vx * ew, w * Vx

    def apply(l, v):
        out = np.empty(g.size)
        for lo in range(0, g.size, _ROW_CHUNK):
            rows = greens_expansion_formula(l, beta, x[lo : lo + _ROW_CHUNK, None], x[None, :])
            out[lo : lo + _ROW_CHUNK] = rows @ v
        return out

    A = beta * float(np.sum(w * Vx * ew * ew))
    m0 = apply(0, vend)
    B1, B2, B3 = (beta * float(vend @ m) for m in (m0, apply(1, vend), apply(2, vend)))
    C = beta * float(vend @ apply(1, vmid * m0))
    D = beta * float(vend @ apply(0, vmid * apply(0, vmid * m0)))
    return B1 * B2 + 2.0 * A * C - A * A * B3 - D
