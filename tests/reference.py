"""Reference implementations that the tests compare the package against.

They are the direct, slow forms of what the package computes: dense
N x N kernel sums in place of the O(N) contraction, and the small-beta
resolvent expansions written out as formulas in place of the monomial
tables. The Gaussian-well closed forms, an erf from first principles and
the series fit of solver energies are independent oracles that only the
tests use.
"""
import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import erf as _erf

from shallowwell.quadrature import build_grid, integrate

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


# ---------------------------------------------------------------------------
# Gaussian closed-form coefficients


def _f_integrand(x):
    rp = math.pi**1.5
    return (rp * np.exp(-2 * x * x) / 128.0) * (
        np.exp(x * x)
        * x
        * (2 * _erf(x) - 1)
        * (4 * math.sqrt(2) * x * _erf(math.sqrt(2) * x) - math.sqrt(math.pi) * _erf(x) ** 2)
        - 2 * _erf(x) ** 2
    )


def _g_integrand(x):
    pi = math.pi
    rp = pi**1.5
    e1 = np.exp(-x * x)
    s2 = math.sqrt(2)
    return (
        pi**2 * e1 * x * _erf(x) ** 3 / (64 * s2)
        + pi**2 * e1 * x * _erf(s2 * x) * _erf(x) ** 2 / (32 * s2)
        + rp * np.exp(-3 * x * x) * _erf(x) ** 2 / 64.0
        + rp * np.exp(-2 * x * x) * _erf(x) ** 2 / (64 * s2)
        - rp * e1 * x * x * _erf(s2 * x) * _erf(x) / 16.0
        - rp * e1 * x * x * _erf(s2 * x) ** 2 / 16.0
    )


def gaussian_closed_coefficients():
    """Closed forms of the Gaussian-well c4, c5, c6.

    The constant blocks are explicit surds; the remaining pieces are two
    one-dimensional erf integrals evaluated by composite quadrature on
    [-10, 10] (the integrands decay like e^{-x^2}).
    """
    pi = math.pi
    g = build_grid(10.0, 64, 8)
    int_f = integrate(g, _f_integrand(g.nodes))
    int_g = integrate(g, _g_integrand(g.nodes))
    c4 = -(pi / 8.0 + math.sqrt(3.0) * pi / 8.0 + pi**2 / 12.0)
    c5 = 7.0 * pi / 96.0 + math.sqrt(1.5) * pi / 8.0 + 3.0 * pi**2 / (8.0 * math.sqrt(2.0)) + int_f
    c6 = (
        -3.0 * pi / 64.0
        - 7.0 * pi / (96.0 * math.sqrt(2.0))
        - 7.0 * pi / (96.0 * math.sqrt(5.0))
        - 5.0 * pi**2 / 16.0
        - pi**2 / (64.0 * math.sqrt(3.0))
        - 7.0 * math.sqrt(3.0) * pi**2 / 64.0
        - 2.0 * pi**3 / 45.0
        + int_g
    )
    return c4, c5, c6


def erf_reference(x: float, terms: int = 80) -> float:
    """erf from first principles: Maclaurin series for small arguments,
    a continued fraction for erfc beyond the series' comfort zone.

    Used to verify the library erf rather than to replace it; accurate
    to ~1e-14 everywhere.
    """
    if x < 0:
        return -erf_reference(-x, terms)
    if x <= 2.0:
        total = 0.0
        term = x
        for n in range(terms):
            total += term / (2 * n + 1)
            term *= -x * x / (n + 1)
        return 2.0 / math.sqrt(math.pi) * total
    # erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    cf = 0.0
    for n in range(60, 0, -1):
        cf = (0.5 * n) / (x + cf)
    erfc = math.exp(-x * x) / math.sqrt(math.pi) / (x + cf)
    return 1.0 - erfc


# ---------------------------------------------------------------------------
# series-coefficient recovery


def fit_series_coefficients(
    energy_fn,
    s_lo: float = 0.01,
    s_hi: float = 0.05,
    npts: int = 36,
    degree: int = 11,
):
    """Recover c2..c6 from solver energies over a weak-coupling window.

    Fits E(s) to a polynomial sum_{k=2}^{degree} b_k (s/s_hi)^k by least
    squares. The guard terms beyond degree 6 matter: the true E(s) has
    an s^7 tail whose projection onto a degree-6 basis shifts c6 by tens
    of percent; with guard degree 11 the aliasing drops below 1e-4 for
    all benchmark shapes.

    Returns (c2, c3, c4, c5, c6).
    """
    s = np.linspace(s_lo, s_hi, npts)
    E = np.array([energy_fn(float(v)) for v in s])
    t = s / s_hi
    basis = np.vstack([t**k for k in range(2, degree + 1)]).T
    coeffs, *_ = np.linalg.lstsq(basis, E, rcond=None)
    return tuple(coeffs[k - 2] / s_hi**k for k in range(2, 7))
