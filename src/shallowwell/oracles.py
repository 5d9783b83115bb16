"""Independent ground truths for the series machinery.

Exact eigenvalues for the square well and the Poschl-Teller well, the
closed-form Gaussian series coefficients (including the two erf-integral
pieces), a shooting/Wronskian bound-state solver with one fourth-order
Magnus propagator for every shape, and the polynomial fit that recovers
series coefficients from any solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from .errors import BracketFailure, NoConvergence, ShallowWellError
from .potential import Potential
from .quadrature import build_grid, default_grid, integrate

# ---------------------------------------------------------------------------
# exact solvers


def exact_square_well(s: float, a: float = 1.0) -> float:
    """Ground-state energy of the depth-s halfwidth-a square well.

    Even-state matching condition k sin(ka) = sqrt(s - k^2) cos(ka) with
    k in (0, min(sqrt(s), pi/2a)), solved by bisection to machine
    precision. A single even bound state exists for every s > 0.
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
    return -(s - k * k)


def exact_poschl_teller(s: float) -> float:
    """Ground-state energy -kappa^2 of -s/cosh^2(x), kappa = (sqrt(1+4s)-1)/2."""
    if not (s > 0.0):
        raise ValueError("depth must be positive")
    kappa = 0.5 * (math.sqrt(1.0 + 4.0 * s) - 1.0)
    return -kappa * kappa


# ---------------------------------------------------------------------------
# shooting / Wronskian solver


@dataclass(frozen=True)
class BoundStateResult:
    """A converged bound-state energy with matching diagnostics."""

    energy: float
    residual: float
    iterations: int
    bracket: tuple


#: |t| below which the degree-5 series gives C and S to roundoff
_SERIES_T = 0.05
#: step-matrix entries built per block, bounding the temporaries (blocks
#: of 32,768 entries added 5 MB to the peak memory of one solve)
_BLOCK = 1 << 12
#: weight of the commutator term of the two-node Magnus step
_MAGNUS_D = math.sqrt(3.0) / 12.0


def _cosh_sinhc(t):
    """C = cosh(sqrt t) and S = sinh(sqrt t)/sqrt t, elementwise, any sign of t.

    A degree-5 series in t, exact to roundoff for |t| <= 0.05. Each
    larger t is scaled down by the smallest 4^k that brings it there,
    and its C, S are doubled back k times (S <- S*C, C <- 2C^2 - 1).
    """
    _, e = np.frexp(t / _SERIES_T)  # the exponent of |t| / 0.05
    k = np.maximum((e + 1) // 2, 0)
    t = np.ldexp(t, -2 * k)
    C = 1.0 + t * (1 / 2 + t * (1 / 24 + t * (1 / 720 + t * (1 / 40320 + t / 3628800))))
    S = 1.0 + t * (1 / 6 + t * (1 / 120 + t * (1 / 5040 + t * (1 / 362880 + t / 39916800))))
    for i in range(int(k.max(initial=0))):
        grow = k > i
        S = np.where(grow, S * C, S)
        C = np.where(grow, 2.0 * C * C - 1.0, C)
    return C, S


def _propagate(shape, svec, kvec, h, count_nodes=False):
    """Propagate u'' = (kappa^2 - s*shape) u across the steps of one half-line.

    shape holds each step's two Gauss-Legendre node values, in the
    direction of travel. Starts on the decaying branch u = e^{kappa x};
    each step applies the fourth-order Magnus matrix C*I + S*[[d, h],
    [h*cbar, -d]] of determinant 1, the exact propagator where the two
    node values agree. u and u' are renormalized each step to avoid
    overflow (scaling leaves the Wronskian direction intact). Returns
    (u, u', sign changes of u at step ends).
    """
    u = np.ones_like(kvec)
    v = kvec.copy()
    k2 = kvec * kvec
    nodes = np.zeros(kvec.shape, dtype=int)
    block = max(1, _BLOCK // kvec.size)
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
            if count_nodes:
                nodes += (unew * u) < 0.0
            u = unew
            m = np.maximum(np.abs(u), np.abs(v))
            u /= m
            v /= m
    return u, v, nodes


class _WronskianEngine:
    """Evaluates the normalized x=0 matching Wronskian for one shape.

    The steps are the panels of default_grid(p, 2*nsteps, 2), so a
    square well's edges fall on step ends and each of its steps is
    exact. The right half of an uneven well is the left half of its
    mirror image. Batched over (strength, kappa) pairs so that
    bracketing, refinement and sweeps over many strengths all cost one
    integration pass per round.
    """

    def __init__(self, p: Potential, nsteps: int = 4000):
        g = default_grid(p, P=2 * nsteps, q=2)
        shape = np.asarray(p.shape(g.nodes), dtype=float).reshape(g.P, 2)
        half = g.P // 2
        self.h = 2.0 * g.L / g.P
        self.sides = [shape[:half]]
        if not p.is_even():
            self.sides.append(shape[half:][::-1, ::-1])
        self.evaluations = 0

    def wronskian(self, svec, kvec, count_nodes=False):
        svec = np.asarray(svec, dtype=float)
        kvec = np.asarray(kvec, dtype=float)
        self.evaluations += 1
        sols = [_propagate(side, svec, kvec, self.h, count_nodes) for side in self.sides]
        (uL, vL, nL), (uR, vR, nR) = sols[0], sols[-1]
        # right solution at 0: u_R = uR, u_R' = -vR (mirror variable)
        W = (vL * uR + uL * vR) / (np.hypot(uL, vL) * np.hypot(uR, vR))
        return (W, nL + nR) if count_nodes else W


_SCAN_POINTS = 160
_SUBDIV = 64
_MAX_ROUNDS = 40


def _sign_change_brackets(ks, Ws):
    """Adjacent sign changes, ordered from the largest kappa down."""
    out = []
    for i in range(len(ks) - 1):
        if np.sign(Ws[i]) != np.sign(Ws[i + 1]) or Ws[i] == 0.0:
            out.append((min(ks[i], ks[i + 1]), max(ks[i], ks[i + 1])))
    return out


def shooting_sweep(p: Potential, s_values, nsteps: int = 4000) -> list:
    """Ground-state energies for one shape at many strengths.

    All strengths advance through bracketing and refinement together,
    batched into shared integration passes. A strength that fails
    leaves the batch and the others go on.

    Returns a list aligned with s_values holding, for each strength,
    its BoundStateResult or the ShallowWellError it failed with:
        BracketFailure: no attractive potential, or no Wronskian sign
            change in the scan.
        NoConvergence: the sign change was lost or the subdivision
            stalled, or no bracket holds a nodeless state.
    """
    svec = np.asarray(s_values, dtype=float)
    results: list = [
        None if s > 0.0 and p.shape_max() > 0.0
        else BracketFailure("shooting requires a nonzero attractive potential")
        for s in svec
    ]
    active = [j for j, r in enumerate(results) if r is None]
    if not active:
        return results
    eng = _WronskianEngine(p, nsteps=nsteps)

    def wronskian_rows(active, ks):
        """W at one row of kappas per active strength, in one pass."""
        return eng.wronskian(np.repeat(svec[active], ks.shape[1]), ks.ravel()).reshape(ks.shape)

    # ---- scan for sign changes, all strengths in one pass ----------------
    kmax = np.sqrt(svec[active] * p.shape_max()) * (1.0 - 1e-9)
    ks = kmax[:, None] * np.geomspace(1.0, 1e-6, _SCAN_POINTS)[None, :]
    Ws = wronskian_rows(active, ks)
    brackets = {j: _sign_change_brackets(ks[row], Ws[row]) for row, j in enumerate(active)}
    for j in active:
        if not brackets[j]:
            results[j] = BracketFailure(f"no Wronskian sign change for strength s={svec[j]:g}")
    active = [j for j in active if brackets[j]]
    candidate = dict.fromkeys(active, 0)  # which bracket each strength is working on
    lo, hi = np.zeros(len(svec)), np.ones(len(svec))
    for j in active:
        lo[j], hi[j] = brackets[j][0]

    def refine(active):
        """Subdivide then polish the active brackets down to roundoff.

        Returns the strengths that survive and their roots; each one
        that fails gets its error in results.
        """
        for _ in range(_MAX_ROUNDS):
            if np.all((hi[active] - lo[active]) / hi[active] <= 1e-4):
                break
            frac = np.linspace(0.0, 1.0, _SUBDIV)[None, :]
            grid = lo[active][:, None] + (hi[active] - lo[active])[:, None] * frac
            Wg = wronskian_rows(active, grid)
            for row, j in enumerate(active):
                sub = _sign_change_brackets(grid[row], Wg[row])
                if sub:
                    lo[j], hi[j] = sub[-1]  # largest-kappa root: the ground state
                else:
                    results[j] = NoConvergence(
                        f"sign change lost during subdivision at s={svec[j]:g}"
                    )
            active = [j for j in active if results[j] is None]
        for j in active:
            if not (hi[j] - lo[j]) / hi[j] <= 1e-4:
                results[j] = NoConvergence("bracket subdivision stalled")
        active = [j for j in active if results[j] is None]
        if not active:
            return active, None
        # three linear least-squares polish rounds with shrinking windows
        root = 0.5 * (lo[active] + hi[active])
        width = hi[active] - lo[active]
        t = np.linspace(-0.5, 0.5, _SUBDIV)
        for shrink in (1.0, 1e-2, 1e-4):
            w = np.maximum(width * shrink, np.abs(root) * 1e-13)
            Wg = wronskian_rows(active, root[:, None] + w[:, None] * t[None, :])
            slope = Wg @ t / (t @ t)
            mean = Wg.mean(axis=1)
            step = np.where(slope != 0.0, -mean / slope, 0.0)
            root = root + np.clip(step, -0.5, 0.5) * w
        return active, root

    while active:
        active, roots = refine(active)
        if not active:
            break
        Wf, nodes = eng.wronskian(svec[active], roots, count_nodes=True)
        still = []
        for row, j in enumerate(active):
            if nodes[row] == 0:
                kappa = float(roots[row])
                results[j] = BoundStateResult(
                    energy=-kappa * kappa,
                    residual=abs(float(Wf[row])),
                    iterations=eng.evaluations,
                    bracket=(-float(hi[j]) ** 2, -float(lo[j]) ** 2),
                )
                continue
            candidate[j] += 1
            if candidate[j] < len(brackets[j]):
                lo[j], hi[j] = brackets[j][candidate[j]]
                still.append(j)
            else:
                results[j] = NoConvergence(f"no nodeless state among brackets at s={svec[j]:g}")
        active = still
    return results


def shooting_solve(p: Potential, nsteps: int = 4000) -> BoundStateResult:
    """Ground-state energy of p by Wronskian matching at x = 0.

    Integrates u'' = (V - E) u inward from +-L on the asymptotic
    decaying branches and locates the energy where the two solutions
    have a vanishing Wronskian, then checks that the matched solution is
    nodeless.

    Raises:
        ShallowWellError: the error shooting_sweep returns for p.s.
    """
    result = shooting_sweep(p, [p.s], nsteps=nsteps)[0]
    if isinstance(result, ShallowWellError):
        raise result
    return result


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


__all__ = [
    "BoundStateResult",
    "exact_square_well",
    "exact_poschl_teller",
    "shooting_solve",
    "shooting_sweep",
    "gaussian_closed_coefficients",
    "erf_reference",
    "fit_series_coefficients",
]
