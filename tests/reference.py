"""Reference implementations that the tests compare the package against.

They are the direct, slow forms of what the package computes: math.fsum
in place of the extraction sum of integrate, dense N x N kernel sums in
place of the O(N) contraction, every power row of that contraction's
sums from one numpy pow in place of exact rows 0 and 1, the small-beta
resolvent expansions
written out as formulas in place of the monomial tables, the shooting
propagation one Magnus step at a time in place of sub-block products,
the carry across sub-block products over whole columns of kappas in
place of one kappa's carry in Python floats, and, in place of the
one-strength bisection and Illinois search of shooting_sweep, the same
search as array code over every strength, the scan-and-polish search
before it and a plain bisection on the level count, all three passing
their (strength, kappa) pairs to the engine one at a time. The
Gaussian-well closed forms, an erf from first principles, the series fit
of solver energies, the exact square-well and Poschl-Teller levels, the
closed-form and spectral resolvents of the regulator delta well and the
Taylor coefficients of a Pade approximant are independent oracles that
only the tests use. The golden-section search that Brent's search
replaced in variational.minimize, and the Nelder-Mead ladder before it,
stand in for that search.
"""
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.integrate import quad
from scipy.optimize import minimize as _nm_minimize
from scipy.special import erf as _erf

from shallowwell.errors import BelowWellFloor, BracketFailure, NonNormalizable, ShallowWellError
from shallowwell.greens import _expansion, _monomial
from shallowwell.oracles import _MAGNUS_D, BoundStateResult, _cosh_sinhc, _WronskianEngine
from shallowwell.quadrature import build_grid, integrate
from shallowwell.resummation import PadeApproximant
from shallowwell.variational import (
    _LOG_C,
    _TOL,
    ExpSqrtTrial,
    GaussianTrial,
    _trial,
    rayleigh_quotient,
)

_ROW_CHUNK = 256
#: step-matrix entries built per block by propagate_steps
_STEP_BLOCK = 1 << 12


def fsum_oracle(a):
    """The correctly rounded sum of a, one element at a time (math.fsum).

    integrate(g, f) must equal fsum_oracle(g.weights * f) bit for bit,
    including the sign of zero and the exception raised.
    """
    return math.fsum(a)


def propagate_steps(shape, svec, kvec, h):
    """The shooting propagation of oracles._propagate, one step at a time.

    Applies each Magnus step matrix to (u, u') in turn, renormalizing and
    counting the sign changes of u after every step. Returns (u, u',
    sign changes of u at step ends).
    """
    u = np.ones_like(kvec)
    v = kvec.copy()
    k2 = kvec * kvec
    nodes = np.zeros(kvec.shape, dtype=int)
    block = max(1, _STEP_BLOCK // kvec.size)
    for b0 in range(0, len(shape), block):
        c1 = k2 - svec * shape[b0 : b0 + block, :1]
        c2 = k2 - svec * shape[b0 : b0 + block, 1:]
        d = (_MAGNUS_D * h * h) * (c1 - c2)
        hc = (0.5 * h) * (c1 + c2)
        C, S = _cosh_sinhc(d * d + h * hc)
        m00, m11 = C + S * d, C - S * d
        m01, m10 = S * h, S * hc
        for i in range(len(m00)):
            unew = m00[i] * u + m01[i] * v
            v = m10[i] * u + m11[i] * v
            nodes += (unew * u) < 0.0
            u = unew
            m = np.maximum(np.abs(u), np.abs(v))
            u /= m
            v /= m
    return u, v, nodes


def carry_batch(prods, u, v, nodes):
    """Carry (u, u') across the (2, 2, batch, runs) products, all columns at once.

    Renormalizes by max(|u|, |u'|) after each product and counts the
    sign changes of u. Returns the new (u, u', nodes).
    """
    nodes = nodes.copy()
    for (p00, p01), (p10, p11) in np.moveaxis(prods, -1, 0):
        unew = p00 * u + p01 * v
        v = p10 * u + p11 * v
        nodes += (unew * u) < 0.0
        u = unew
        r = np.maximum(np.abs(u), np.abs(v))
        u /= r
        v /= r
    return u, v, nodes


def wronskian_pairs(engine, svec, kvec):
    """W and N of engine.wronskian at each (strength, kappa) pair in turn, as arrays."""
    svec, kvec = np.asarray(svec, dtype=float).tolist(), np.asarray(kvec, dtype=float).tolist()
    W, N = zip(*map(engine.wronskian, svec, kvec))
    return np.array(W), np.array(N)


def wronskian_steps(engine, svec, kvec):
    """W and the level count N of engine.wronskian, through propagate_steps."""
    svec = np.asarray(svec, dtype=float)
    kvec = np.asarray(kvec, dtype=float)
    sols = [propagate_steps(side, svec, kvec, engine.h) for side in engine.sides]
    (uL, vL, nL), (uR, vR, nR) = sols[0], sols[-1]
    W = (vL * uR + uL * vR) / (np.hypot(uL, vL) * np.hypot(uR, vR))
    n = nL + nR
    return W, n + ((-1) ** n * W < 0.0)


def vectorized_search_sweep(p, s_values, nsteps=4000):
    """The search of shooting_sweep as array code over all strengths at once.

    The bisection and Illinois search that shooting_sweep runs one
    strength at a time, written over arrays of every strength's bracket,
    weights and phase, with every candidate kappa formed by np.where on
    each pass, and each pass's pairs passed to the engine one at a time
    (wronskian_pairs). It counts its passes itself. Same kappas, same
    results, bit for bit, except that it keeps the search's own failure
    text where shooting_sweep names an unresolved well.
    """
    svec = np.asarray(s_values, dtype=float)
    hi = np.sqrt(np.maximum(svec, 0.0) * p.shape_max()) * (1.0 - 1e-9)
    lo = hi * 1e-6
    results: list = [
        BracketFailure("a nonzero attractive potential is required")
        if not (s > 0.0 and p.shape_max() > 0.0)
        # every kappa searched is >= lo, so lo^2 > 0 keeps _propagate's q > 0
        else None if k * k > 0.0
        else BracketFailure(f"the well depth underflows for strength s={s:g}")
        for s, k in zip(svec.tolist(), lo.tolist())
    ]
    a = np.array([j for j, r in enumerate(results) if r is None], dtype=int)
    if not a.size:
        return results
    eng = _WronskianEngine(p, nsteps=nsteps)
    n, passes = len(svec), 0
    # N at lo (0 until probed), W at the ends and its Illinois weights, the
    # end the last probe moved (-1 lo, +1 hi), and which strengths run Illinois
    levels, side = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    w_lo, w_hi, f_lo, f_hi = (np.full(n, np.nan) for _ in range(4))
    falsi = np.zeros(n, dtype=bool)
    k = lo[a]
    while a.size:
        W, N = wronskian_pairs(eng, svec[a], k)
        passes += 1
        for j in a[(levels[a] == 0) & (N == 0)]:
            results[j] = BracketFailure(f"no Wronskian sign change for strength s={svec[j]:g}")
        below, above = N >= 1, (N == 0) & (levels[a] > 0)
        up, down = a[below], a[above]
        lo[up], w_lo[up], f_lo[up], levels[up] = k[below], W[below], W[below], N[below]
        hi[down], w_hi[down], f_hi[down] = k[above], W[above], W[above]
        # Illinois: an end kept twice in a row has its weight halved
        f_hi[up[falsi[up] & (side[up] < 0)]] *= 0.5
        f_lo[down[falsi[down] & (side[down] > 0)]] *= 0.5
        side[up], side[down] = -1, 1
        start = ~falsi & (levels == 1) & ~np.isnan(w_hi) & (hi <= 2.0 * lo)
        side[start] = 0
        falsi |= start
        a = a[levels[a] > 0]
        l, h, m = lo[a], hi[a], levels[a]
        k = np.where(h <= 2.0 * l, 0.5 * (l + h), np.sqrt(l * h))
        k = np.where((m >= 2) & (side[a] <= 0), np.sqrt(h * h - (h * h - l * l) / m), k)
        k = np.where(falsi[a], h - f_hi[a] * (h - l) / (f_hi[a] - f_lo[a]), k)
        done = ~((l < k) & (k < h)) | (falsi[a] & (h - l <= 4.0 * np.spacing(h)))
        for j in a[done]:
            if not falsi[j]:
                results[j] = BracketFailure(f"no level bracket for strength s={svec[j]:g}")
                continue
            kappa, w = (lo[j], w_lo[j]) if abs(w_lo[j]) <= abs(w_hi[j]) else (hi[j], w_hi[j])
            results[j] = BoundStateResult(
                energy=-float(kappa) ** 2,
                residual=abs(float(w)),
                iterations=passes,
                bracket=(-float(hi[j]) ** 2, -float(lo[j]) ** 2),
            )
        a, k = a[~done], k[~done]
    return results


#: the scan, subdivision and polish of scan_search_sweep
_SCAN_POINTS = 160
_SUBDIV = 64
_MAX_ROUNDS = 40


def scan_search_sweep(p, s_values, nsteps=4000):
    """The search that the bisection and Illinois search replaced, on the same engine.

    A 160-point geometric kappa scan down from sqrt(s * shape_max())
    brackets each strength where the level count first reaches 1; rounds
    of 64 evenly spaced kappas narrow every bracket to one level and
    1e-4 relative width; three least-squares line fits of W over 64
    kappas, in windows shrinking by 1e-2, polish the root. Returns what
    shooting_sweep returns, with every strength taking every pass.
    """
    svec = np.asarray(s_values, dtype=float)
    results: list = [
        None if s > 0.0 and p.shape_max() > 0.0
        else BracketFailure("a nonzero attractive potential is required")
        for s in svec
    ]
    active = [j for j, r in enumerate(results) if r is None]
    if not active:
        return results
    eng = _WronskianEngine(p, nsteps=nsteps)
    lo, hi, levels = np.zeros(len(svec)), np.ones(len(svec)), np.zeros(len(svec), dtype=int)

    passes = 0

    def wronskian_rows(active, ks):
        """W and N at one row of kappas per active strength, in one counted pass."""
        nonlocal passes
        passes += 1
        W, N = wronskian_pairs(eng, np.repeat(svec[active], ks.shape[1]), ks.ravel())
        return W.reshape(ks.shape), N.reshape(ks.shape)

    def narrow(active, ks, N):
        """Bracket each row of kappas (running downward) at its first level."""
        rows = np.arange(len(active))
        i = np.maximum(np.argmax(N >= 1, axis=1), 1)
        lo[active], hi[active], levels[active] = ks[rows, i], ks[rows, i - 1], N[rows, i]

    # ---- scan, all strengths in one pass ---------------------------------
    kmax = np.sqrt(svec[active] * p.shape_max()) * (1.0 - 1e-9)
    ks = kmax[:, None] * np.geomspace(1.0, 1e-6, _SCAN_POINTS)[None, :]
    _, N = wronskian_rows(active, ks)
    narrow(active, ks, N)
    for row, j in enumerate(active):
        if not N[row].any():
            results[j] = BracketFailure(f"no Wronskian sign change for strength s={svec[j]:g}")
    active = [j for j in active if results[j] is None]
    if not active:
        return results

    # ---- subdivide until each bracket holds one level and is narrow ------
    frac = np.linspace(0.0, 1.0, _SUBDIV)[::-1]
    for _ in range(_MAX_ROUNDS):
        multi = bool(np.any(levels[active] > 1))
        if not multi and np.all((hi[active] - lo[active]) / hi[active] <= 1e-4):
            break
        grid = lo[active][:, None] + (hi[active] - lo[active])[:, None] * frac
        _, N = wronskian_rows(active, grid)
        narrow(active, grid, N)

    # ---- three linear least-squares polish rounds with shrinking windows -
    root = 0.5 * (lo[active] + hi[active])
    width = hi[active] - lo[active]
    t = np.linspace(-0.5, 0.5, _SUBDIV)
    for shrink in (1.0, 1e-2, 1e-4):
        w = np.maximum(width * shrink, np.abs(root) * 1e-13)
        Wg, _ = wronskian_rows(active, root[:, None] + w[:, None] * t[None, :])
        slope = Wg @ t / (t @ t)
        mean = Wg.mean(axis=1)
        step = np.where(slope != 0.0, -mean / slope, 0.0)
        root = root + np.clip(step, -0.5, 0.5) * w

    Wf, _ = wronskian_rows(active, root[:, None])
    for row, j in enumerate(active):
        kappa = float(root[row])
        results[j] = BoundStateResult(
            energy=-kappa * kappa,
            residual=abs(float(Wf[row, 0])),
            iterations=passes,
            bracket=(-float(hi[j]) ** 2, -float(lo[j]) ** 2),
        )
    return results


def count_bisection(p, s_values, nsteps=4000, steps=60):
    """Ground-state energies by bisection on the level count alone.

    Bisects kappa in [0, sqrt(s * shape_max())] steps times on N >= 1,
    all strengths in each pass, and returns -kappa^2 at the midpoints.
    """
    svec = np.asarray(s_values, dtype=float)
    eng = _WronskianEngine(p, nsteps=nsteps)
    lo, hi = np.zeros_like(svec), np.sqrt(svec * p.shape_max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        _, N = wronskian_pairs(eng, svec, mid)
        lo, hi = np.where(N >= 1, mid, lo), np.where(N >= 1, hi, mid)
    return -(0.5 * (lo + hi)) ** 2


def polynomial_sum(x, wu, k):
    """quadrature._polynomial_sum with every power row from one numpy pow.

    h_i = sum_j |x_i - x_j|^k wu_j by k+1 sums per node, the rows
    (-y)^b, b = 0..k, all taken by numpy's generic pow in one call with
    an exponent column, as the package did before it wrote rows 0 and 1
    exactly. The package must give these bits.
    """
    mass = np.abs(wu)
    total = float(mass.sum())
    y = x - (float(mass @ x) / total if total > 0.0 else 0.0)
    terms = (-y) ** np.arange(k + 1)[:, None]
    terms *= wu
    if k % 2 == 0:
        sums = terms.sum(axis=1, keepdims=True)
    else:
        sums = np.zeros_like(terms)
        np.cumsum(terms[:, :-1], axis=1, out=sums[:, 1:])
        sums[:, :-1] -= np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]
    h = np.zeros_like(x)
    for b in range(k + 1):
        h = h * y + math.comb(k, b) * sums[b]
    return h


def dense_contract(g, p, k, sources):
    """Dense kernel sums with the own-panel kink correction, and their scales.

    Returns, for each (m, f) in sources, (h, scale) with
    h_i = sum_j w_j |x_i - x_j|^k x_j^m V_j f_j, the own panel of every
    node re-integrated split at the node for odd k, and scale_i the same
    sum with every summand taken in absolute value (the roundoff scale of
    h_i). The |x_i - x_j|^k kernel is built once, a chunk of rows at a
    time, and applied to every source.
    """
    x, w = g.nodes, g.weights
    v = p.evaluate(x)
    us = [v * x**m * f for m, f in sources]
    wu = np.stack([w * u for u in us], axis=1)
    h, scale = np.empty(wu.shape), np.empty(wu.shape)
    for lo in range(0, g.size, _ROW_CHUNK):
        kernel = np.abs(x[lo : lo + _ROW_CHUNK, None] - x[None, :]) ** k
        h[lo : lo + _ROW_CHUNK] = kernel @ wu
        scale[lo : lo + _ROW_CHUNK] = kernel @ np.abs(wu)
    if k % 2 == 0:
        return list(zip(h.T, scale.T))
    P, q = g.P, g.q
    xs, ws = leggauss(q)
    panel = np.repeat(np.arange(P), q)
    lo, hi = g.edges[panel], g.edges[panel + 1]
    x_own, w_own = (a.reshape(P, q)[panel] for a in (x, w))
    own_kernel = w_own * np.abs(x[:, None] - x_own) ** k
    to_coeffs = np.linalg.inv(legvander(xs, q - 1)).T
    splits = []
    for a, b in ((lo, x), (x, hi)):
        halfw = 0.5 * (b - a)
        y = 0.5 * (a + b)[:, None] + halfw[:, None] * xs[None, :]
        local = 2.0 * (y - lo[:, None]) / (hi - lo)[:, None] - 1.0
        vand = legvander(local.ravel(), q - 1).reshape(g.size, q, q)
        wk = halfw[:, None] * ws[None, :] * np.abs(x[:, None] - y) ** k
        splits.append((y, p.evaluate(y), vand, wk))
    for i, ((m, f), u) in enumerate(zip(sources, us)):
        coeffs = (f.reshape(P, q) @ to_coeffs)[panel]
        h[:, i] -= np.sum(own_kernel * u.reshape(P, q)[panel], axis=1)
        for y, vy, vand, wk in splits:
            uy = vy * y**m * np.einsum("nij,nj->ni", vand, coeffs)
            h[:, i] += np.sum(wk * uy, axis=1)
            scale[:, i] += np.sum(wk * np.abs(uy), axis=1)
    return list(zip(h.T, scale.T))


def greens_expansion(l: int, beta: float, x1, x2):
    """G^(l), l in 0..2, summed from the package's monomial tables.

    The same truncation as greens_expansion_formula, which it is checked
    against; e4_finite_beta applies these tables as kernels. Vectorized
    over x1, x2.
    """
    if l not in (0, 1, 2):
        raise ValueError(f"expansion order must lie in 0..2, got {l}")
    if not (beta > 0.0):
        raise ValueError("beta must be positive")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    kink, rows = _expansion(l)
    total = kink * np.abs(x1 - x2) ** (2 * l + 1)
    for coeff, e, i1, j1, i2, j2 in rows:
        total = total + coeff / beta**e * _monomial(x1, i1, j1) * _monomial(x2, i2, j2)
    return total


def greens_expansion_formula(l: int, beta: float, x1, x2):
    """Truncated small-beta expansion of G^(l), l in 0..2.

    Terms from the leading 1/beta^{2l+1} down to beta^0; the omitted
    remainder is O(beta). Vectorized over x1, x2.
    """
    if l not in (0, 1, 2):
        raise ValueError(f"expansion order must lie in 0..2, got {l}")
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


def dense_e4_finite_beta(p, g, beta):
    """e4_finite_beta from dense kernels greens_expansion_formula(l)(x_i, x_j).

    The plain panel rule sees the kinks of |x_i - x_j| inside the panels,
    so it converges only at second order in the panel width. Each kernel
    is built once per call, in row chunks. The l = 0 kernel is applied
    three times in a row, each to the last result, so it is held whole:
    one N x N array (32 MB at N = 2,048). The l = 1 and l = 2 kernels are
    applied chunk by chunk to every source at once, and never held whole.
    """
    x, w = g.nodes, g.weights
    Vx = p.evaluate(x)
    ew = np.exp(-beta * np.abs(x))
    vend, vmid = w * Vx * ew, w * Vx

    def row_chunks(l):
        for lo in range(0, g.size, _ROW_CHUNK):
            rows = slice(lo, lo + _ROW_CHUNK)
            yield rows, greens_expansion_formula(l, beta, x[rows, None], x[None, :])

    K0 = np.empty((g.size, g.size))
    for rows, block in row_chunks(0):
        K0[rows] = block
    m0 = K0 @ vend
    m2 = K0 @ (vmid * (K0 @ (vmid * m0)))
    sources = {1: np.column_stack([vend, vmid * m0]), 2: vend[:, None]}
    applied = {l: np.empty_like(v) for l, v in sources.items()}
    for l, v in sources.items():
        for rows, block in row_chunks(l):
            applied[l][rows] = block @ v

    A = beta * float(np.sum(w * Vx * ew * ew))
    B1, B2, B3 = (beta * float(vend @ m) for m in (m0, applied[1][:, 0], applied[2][:, 0]))
    C = beta * float(vend @ applied[1][:, 1])
    D = beta * float(vend @ m2)
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


# ---------------------------------------------------------------------------
# exact solvers


def exact_square_well(s: float, a: float = 1.0) -> float:
    """Ground-state energy of the depth-s halfwidth-a square well.

    Even-state matching condition k sin(ka) = sqrt(s - k^2) cos(ka) with
    k in (0, min(sqrt(s), pi/2a)), solved by bisection to machine
    precision. A single even bound state exists for every s > 0. The
    energy is -kappa^2 with kappa = k tan(ka), the matching condition
    itself: s - k^2 would cancel on shallow levels, kappa^2 << s.
    """
    if not (s > 0.0):
        raise ValueError("depth must be positive")

    def f(k):
        return k * math.sin(k * a) - math.sqrt(max(s - k * k, 0.0)) * math.cos(k * a)

    lo = 1e-300
    hi = min(math.sqrt(s), math.pi / (2.0 * a)) * (1.0 - 1e-15)
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return -((k * math.tan(k * a)) ** 2)


def exact_poschl_teller(s: float) -> float:
    """Ground-state energy -kappa^2 of -s/cosh^2(x), kappa = (sqrt(1+4s)-1)/2."""
    if not (s > 0.0):
        raise ValueError("depth must be positive")
    kappa = 0.5 * (math.sqrt(1.0 + 4.0 * s) - 1.0)
    return -kappa * kappa


# ---------------------------------------------------------------------------
# resolvent of the regulator delta well in closed form


class DegenerateShift(ShallowWellError):
    """Resolvent shift gamma = 0 where the closed form is singular."""


@dataclass(frozen=True)
class GreensParams:
    """Regulator strength beta > 0 and resolvent shift gamma >= 0."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (self.gamma >= 0.0):
            raise ValueError("gamma must be nonnegative")

    @property
    def Gamma(self) -> float:
        return math.sqrt(self.beta**2 + self.gamma)


def greens_closed(params: GreensParams, x1: float, x2: float) -> float:
    """Closed-form G_gamma(x1, x2), six theta-function regions.

    Each region is the same three-exponential combination written with
    the absolute values resolved; ties at x1 = x2 or x = 0 are broken
    toward x1 >= x2 and x >= 0 (the kernel is continuous, so any
    consistent tie-break is exact).

    Raises:
        DegenerateShift: gamma = 0 (gamma appears in denominators).
    """
    b, g = params.beta, params.gamma
    if g == 0.0:
        raise DegenerateShift("closed form is singular at gamma = 0")
    G = params.Gamma
    if x1 >= x2:
        if x2 >= 0.0:
            d, ssum = x1 - x2, x1 + x2
        elif x1 <= 0.0:
            d, ssum = x1 - x2, -x1 - x2
        else:
            d = ssum = x1 - x2
    else:
        if x1 >= 0.0:
            d, ssum = x2 - x1, x1 + x2
        elif x2 <= 0.0:
            d, ssum = x2 - x1, -x1 - x2
        else:
            d = ssum = x2 - x1
    return (
        math.exp(-G * d) / (2.0 * G)
        + b * (b + G) * math.exp(-G * ssum) / (2.0 * g * G)
        - b * math.exp(-b * ssum) / g
    )


def greens_spectral(params: GreensParams, x1: float, x2: float) -> float:
    """Independent check: continuum-eigenfunction p-integral for G_gamma.

    Uses the even/odd scattering states of the delta well,

        psi_even = sqrt(2)/sqrt(p^2+b^2) (p cos(px) - b sin(p|x|)),
        psi_odd  = sqrt(2) sin(px),

    and evaluates int_0^inf dp/(2 pi) [psi_e psi_e + psi_o psi_o] /
    (p^2 + b^2 + gamma). The oscillatory pieces are integrated with
    QUADPACK's cos/sin-weighted rule over the half line.
    """
    b = params.beta
    G2 = b * b + params.gamma
    a1, a2 = abs(x1), abs(x2)
    sg = math.copysign(1.0, x1) * math.copysign(1.0, x2)
    d, ssum = abs(a1 - a2), a1 + a2

    def r1(p):
        return (p * p / (p * p + b * b) + b * b / (p * p + b * b) + sg) / (p * p + G2)

    def r2(p):
        return (p * p / (p * p + b * b) - b * b / (p * p + b * b) - sg) / (p * p + G2)

    def r3(p):
        return -2 * b * p / ((p * p + b * b) * (p * p + G2))

    total = 0.0
    for r, wvar, weight in ((r1, d, "cos"), (r2, ssum, "cos"), (r3, ssum, "sin")):
        if wvar == 0.0:
            if weight == "cos":
                total += quad(r, 0.0, np.inf)[0]
        else:
            total += quad(r, 0.0, np.inf, weight=weight, wvar=wvar, limlst=200)[0]
    return total / (2.0 * math.pi)


def greens_gamma_derivative(
    l: int, beta: float, x1: float, x2: float, step_scale: float = 1e-2
) -> float:
    """Estimate G^(l) from gamma-Taylor coefficients of greens_closed.

    G_gamma = sum_l (-gamma)^l G^(l), so the degree-l coefficient of a
    local polynomial model of gamma -> greens_closed carries G^(l) up to
    sign. Samples at gamma = h..6h with h = step_scale * beta^2 stay
    inside the Taylor region gamma << beta^2 while keeping the 1/gamma
    cancellations of the closed form well conditioned. The result should
    approach greens_expansion(l) up to O(beta).
    """
    if l not in (0, 1, 2):
        raise ValueError("l must lie in 0..2")
    h = step_scale * beta * beta
    t = np.arange(1, 7, dtype=float)
    vals = [greens_closed(GreensParams(beta, float(ti) * h), x1, x2) for ti in t]
    coeffs = np.polynomial.polynomial.polyfit(t, vals, 5)
    return (-1.0) ** l * coeffs[l] / h**l


# ---------------------------------------------------------------------------
# Pade approximants


def taylor_coefficients(pa: PadeApproximant, order: int):
    """Taylor coefficients t0..t_order of the full approximant at s=0."""
    num = list(pa.numerator) + [0.0] * (order + 1 - len(pa.numerator))
    den = pa.denominator
    t = []
    for k in range(order + 1):
        val = num[k] - math.fsum(
            den[i] * t[k - i] for i in range(1, min(k, len(den) - 1) + 1)
        )
        t.append(val)
    if order >= 1:
        t[1] += pa.alpha
    return t


# ---------------------------------------------------------------------------
# variational minima


_FAMILIES = {"gaussian": GaussianTrial, "expsqrt": ExpSqrtTrial}
_ALPHA_LADDER = (0.05, 0.2, 1.0, 5.0)
_BETA_LADDER = (0.2, 1.0, 5.0)


def nelder_mead_minimize(tf_kind, p, g):
    """Minimize the Rayleigh quotient over one trial family.

    Nelder-Mead over log-parameters, restarted from a fixed ladder of
    initial points; the best restart wins, ties broken by lexicographic
    parameters. Deterministic by construction.

    Returns:
        (trial instance at the optimum, energy).

    Raises:
        ShallowWellError: no restart produced a usable minimum.
    """
    family = _FAMILIES.get(tf_kind)
    if family is None:
        raise ValueError(f"unknown trial family {tf_kind!r}")

    vx = p.evaluate(g.nodes)

    def objective(logparams):
        tf = family(*(float(v) for v in np.exp(logparams)))
        try:
            return rayleigh_quotient(tf, vx, g)
        except NonNormalizable:
            return 0.0  # flat ceiling; any bound state beats it

    ladders = (_ALPHA_LADDER,) if family is GaussianTrial else (_ALPHA_LADDER, _BETA_LADDER)
    starts = [[math.log(v) for v in x0] for x0 in itertools.product(*ladders)]
    best = None
    for x0 in starts:
        res = _nm_minimize(
            objective,
            np.asarray(x0),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 400},
        )
        if not np.isfinite(res.fun):
            continue
        params = tuple(float(v) for v in np.exp(res.x))
        key = (res.fun, params)
        if best is None or key < best:
            best = key
    if best is None:
        raise ShallowWellError("all simplex restarts failed to produce a value")
    value, params = best
    return family(*params), float(value)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a, b):
    """Least f(x) of a golden-section search on [a, b]; f returns tuples led by the value."""
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return min(f1, f2)


def golden_section_minimize(tf_kind, p, g):
    """Minimize the Rayleigh quotient over one trial family.

    Golden-section search (Kiefer 1953) to _TOL in log c at
    u = 1 for the Gaussian family, and in u over the log-c minima for
    exp-sqrt, keeping the better of that and u = 1: 56 and 47 x 56
    objective calls.

    Returns:
        (trial instance at the optimum, energy).

    Raises:
        BelowWellFloor: the minimum is at or below -s * shape_max.
    """
    if tf_kind not in _FAMILIES:
        raise ValueError(f"unknown trial family {tf_kind!r}")

    vx = p.evaluate(g.nodes)

    def at_u(u):
        return _golden(lambda t: (rayleigh_quotient(_trial(t, u), vx, g), t, u), *_LOG_C)

    best = at_u(1.0)
    if tf_kind == "expsqrt":
        best = min(best, _golden(at_u, 0.0, 1.0))
    energy, log_c, u = best
    floor = -p.s * p.shape_max()
    if energy <= floor:
        raise BelowWellFloor(f"minimum {energy:.9g} at or below the well floor {floor:.9g}")
    return _trial(log_c, u), float(energy)
