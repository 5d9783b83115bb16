"""Independent ground truth for the series machinery.

A shooting/Wronskian bound-state solver with one fourth-order Magnus
propagator for every shape, which finds the ground state by counting
levels (Sturm oscillation). Each integration pass multiplies the step
matrices pairwise into sub-block products, each short enough (by the
Sturm bound on the spacing of zeros) to hold at most one zero of the
solution, so counting levels costs one sign test per sub-block. The
exact square-well and Poschl-Teller levels, the closed-form Gaussian
coefficients, the erf reference, the step-by-step propagation and the
series fit that only the tests use live in tests/reference.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, ShallowWellError
from .potential import Potential
from .quadrature import default_grid


@dataclass(frozen=True)
class BoundStateResult:
    """A converged bound-state energy with matching diagnostics."""

    energy: float
    residual: float
    iterations: int
    bracket: tuple


#: |t| below which the degree-5 series gives C and S to roundoff
_SERIES_T = 0.05
#: step-matrix entries built per chunk of steps; this bounds the
#: temporaries of one pass to about 2.5 MB up to 2,048 kappas per pass
_BLOCK = 1 << 14
#: fewest steps per chunk, so that a large batch still reduces several
#: steps per vectorized product
_MIN_CHUNK = 8
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


def _products(m00, m01, m10, m11):
    """Product M[:, r-1] ... M[:, 1] M[:, 0] of each run of 2x2 matrices.

    The entries are (runs, r, batch) arrays; each pairwise level
    multiplies neighbours, later on the left, with the four entries
    written out, and pads an odd level with one identity matrix.
    Returns the four (runs, batch) entries of the products.
    """
    while m00.shape[1] > 1:
        if m00.shape[1] % 2:
            one, zero = np.ones_like(m00[:, :1]), np.zeros_like(m00[:, :1])
            m00, m01, m10, m11 = (
                np.concatenate((m, e), axis=1)
                for m, e in zip((m00, m01, m10, m11), (one, zero, zero, one))
            )
        a00, a01, a10, a11 = m00[:, 0::2], m01[:, 0::2], m10[:, 0::2], m11[:, 0::2]
        b00, b01, b10, b11 = m00[:, 1::2], m01[:, 1::2], m10[:, 1::2], m11[:, 1::2]
        m00, m01 = b00 * a00 + b01 * a10, b00 * a01 + b01 * a11
        m10, m11 = b10 * a00 + b11 * a10, b10 * a01 + b11 * a11
    return m00[:, 0], m01[:, 0], m10[:, 0], m11[:, 0]


def _propagate(shape, svec, kvec, h):
    """Propagate u'' = (kappa^2 - s*shape) u across the steps of one half-line.

    shape holds each step's two Gauss-Legendre node values, in the
    direction of travel. Starts on the decaying branch u = e^{kappa x};
    each step is the fourth-order Magnus matrix C*I + S*[[d, h],
    [h*cbar, -d]] of determinant 1, the exact propagator where the two
    node values agree. The steps are taken in sub-blocks of b steps with
    h*b*sqrt(q) <= pi/2, q the largest kappa^2 or s*max(shape) of the
    batch. All sub-blocks of a chunk are reduced at once to one product
    each (_products; the last chunk is padded with identity steps), and
    (u, u') is carried across the products, renormalized after each.

    Each step is the exact flow of a constant-coefficient system that
    turns the phase of (u, u') one way at every zero of u, at a rate of
    at most sqrt(q) plus O(h*q); by Sturm comparison the zeros of u are
    then at least about pi/sqrt(q) apart. So a sub-block holds at most
    one zero, and the sign changes of u at sub-block ends count every
    zero that a step-by-step count would. The same bound keeps each
    product within about e^{pi/2} of norm 1, so none needs
    renormalizing inside. Returns (u, u', sign changes of u).
    """
    u = np.ones_like(kvec)
    v = kvec.copy()
    k2 = kvec * kvec
    nodes = np.zeros(kvec.shape, dtype=int)
    q = max(float(k2.max()), float(svec.max()) * float(shape.max()))
    chunk = max(_MIN_CHUNK, _BLOCK // kvec.size)
    b = min(max(1, int(0.5 * math.pi / (h * math.sqrt(q)))), chunk, len(shape))
    chunk -= chunk % b
    for b0 in range(0, len(shape), chunk):
        c1 = k2 - svec * shape[b0 : b0 + chunk, :1]
        c2 = k2 - svec * shape[b0 : b0 + chunk, 1:]
        d = (_MAGNUS_D * h * h) * (c1 - c2)
        hc = (0.5 * h) * (c1 + c2)
        C, S = _cosh_sinhc(d * d + h * hc)
        m = C + S * d, S * h, S * hc, C - S * d
        pad = -len(C) % b
        if pad:
            one, zero = np.ones((pad, kvec.size)), np.zeros((pad, kvec.size))
            m = [np.concatenate((e, f)) for e, f in zip(m, (one, zero, zero, one))]
        for p00, p01, p10, p11 in zip(*_products(*(e.reshape(-1, b, kvec.size) for e in m))):
            unew = p00 * u + p01 * v
            v = p10 * u + p11 * v
            nodes += (unew * u) < 0.0
            u = unew
            r = np.maximum(np.abs(u), np.abs(v))
            u /= r
            v /= r
    return u, v, nodes


class _WronskianEngine:
    """Evaluates the normalized x=0 matching Wronskian and level count for one shape.

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

    def wronskian(self, svec, kvec):
        """W and the level count N at each (strength, kappa) pair.

        N = n + [(-1)^n W < 0] is the number of levels below -kappa^2,
        with n the nodes of the two half-line solutions.
        """
        svec = np.asarray(svec, dtype=float)
        kvec = np.asarray(kvec, dtype=float)
        self.evaluations += 1
        sols = [_propagate(side, svec, kvec, self.h) for side in self.sides]
        (uL, vL, nL), (uR, vR, nR) = sols[0], sols[-1]
        # right solution at 0: u_R = uR, u_R' = -vR (mirror variable)
        W = (vL * uR + uL * vR) / (np.hypot(uL, vL) * np.hypot(uR, vR))
        n = nL + nR
        return W, n + ((-1) ** n * W < 0.0)


_SCAN_POINTS = 160
_SUBDIV = 64
_MAX_ROUNDS = 40


def shooting_sweep(p: Potential, s_values, nsteps: int = 4000) -> list:
    """Ground-state energies for one shape at many strengths.

    All strengths advance through bracketing and refinement together,
    batched into shared integration passes. The ground state's bracket
    is the kappa step where the level count N (_WronskianEngine.wronskian)
    first reaches 1; once N(lo) = 1, W changes sign once in it. A
    strength that fails leaves the batch and the others go on.

    Returns a list aligned with s_values holding, for each strength,
    its BoundStateResult or the BracketFailure it failed with: no
    attractive potential, or no level in the scan.
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
    lo, hi, levels = np.zeros(len(svec)), np.ones(len(svec)), np.zeros(len(svec), dtype=int)

    def wronskian_rows(active, ks):
        """W and N at one row of kappas per active strength, in one pass."""
        W, N = eng.wronskian(np.repeat(svec[active], ks.shape[1]), ks.ravel())
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

    Wf, _ = eng.wronskian(svec[active], root)
    for row, j in enumerate(active):
        kappa = float(root[row])
        results[j] = BoundStateResult(
            energy=-kappa * kappa,
            residual=abs(float(Wf[row])),
            iterations=eng.evaluations,
            bracket=(-float(hi[j]) ** 2, -float(lo[j]) ** 2),
        )
    return results


def shooting_solve(p: Potential, nsteps: int = 4000) -> BoundStateResult:
    """Ground-state energy of p by Wronskian matching at x = 0.

    Integrates u'' = (V - E) u inward from +-L on the asymptotic
    decaying branches and locates the energy where the two solutions
    have a vanishing Wronskian, in the bracket where the level count
    first reaches 1, so the root is the ground state.

    Raises:
        BracketFailure: the error shooting_sweep returns for p.s.
    """
    result = shooting_sweep(p, [p.s], nsteps=nsteps)[0]
    if isinstance(result, ShallowWellError):
        raise result
    return result


__all__ = ["BoundStateResult", "shooting_solve", "shooting_sweep"]
