"""Independent ground truth for the series machinery.

A shooting/Wronskian bound-state solver with one fourth-order Magnus
propagator for every shape, matched at the peak of the well. Its one
entry point is shooting_sweep; a single strength is a sweep of one, and
each strength of a sweep runs alone, so its result does not depend on
the others. Each strength runs its own search in Python floats,
bisection on the level count (Sturm oscillation) then Illinois regula
falsi on the Wronskian. A pass writes the step matrices of one half-line
into one (2, 2, steps) array and multiplies them pairwise into sub-block
products, each short enough (by the Sturm bound on the spacing of zeros)
to hold at most one zero of the solution, so counting levels costs one
sign test per sub-block, made as the solution is carried across the
products in Python floats; a search that fails where steps exceed that
bound says so. The exact levels, the Gaussian closed forms, the erf
reference, the step-by-step propagation, the carry over whole columns of
kappas, this search as array code over all strengths, the scan-and-polish
search before it, a plain count bisection and the series fit that only
the tests use live in tests/reference.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure
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
#: weight of the commutator term of the two-node Magnus step
_MAGNUS_D = math.sqrt(3.0) / 12.0
#: the 2x2 identity, entry first, as it pads a (2, 2, steps) array
_EYE = np.eye(2)[:, :, None]
#: the NaN that numpy's 0/0 gives, made by the same kind of invalid operation
_ZERO_BY_ZERO = math.inf - math.inf


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


def _products(m):
    """Product M[..., r-1] ... M[..., 1] M[..., 0] of each run of 2x2 matrices.

    m is a (2, 2, runs, r) array, entry first. Each pairwise level
    multiplies neighbours, later on the left, in one broadcast expression
    whose every element is b_i0*a_0j + b_i1*a_1j, and pads an odd level
    with one identity matrix. Returns the (2, 2, runs) products.
    """
    if m.shape[-1] > 1:
        pad = np.empty(m.shape[:-1] + (1,))
        pad[...] = _EYE[..., None]
    while m.shape[-1] > 1:
        if m.shape[-1] % 2:
            m = np.concatenate((m, pad), axis=-1)
        a, b = m[..., 0::2], m[..., 1::2]
        m = b[:, :1] * a[:1] + b[:, 1:] * a[1:]
    return m[..., 0]


def _carry(prods, u, v):
    """Carry (u, u') across the (2, 2, runs) products, in Python floats.

    Renormalizes by max(|u|, |u'|) after each product and counts the
    sign changes of u. A NaN |u| is taken as the max, as np.maximum
    takes it, and a zero max gives 0/0, the NaN that numpy's division
    gives, where Python's would raise. Returns (u, u', sign changes).
    """
    nodes = 0
    (p00, p01), (p10, p11) = prods.tolist()
    for a00, a01, a10, a11 in zip(p00, p01, p10, p11):
        unew = a00 * u + a01 * v
        v = a10 * u + a11 * v
        nodes += (unew * u) < 0.0
        u = unew
        au, av = abs(u), abs(v)
        r = au if au >= av or au != au else av
        if r == 0.0:
            u = v = _ZERO_BY_ZERO
        else:
            u /= r
            v /= r
    return u, v, nodes


def _propagate(shape, s, kappa, h):
    """Propagate u'' = (kappa^2 - s*shape) u across the steps of one half-line.

    shape holds each step's two Gauss-Legendre node values, in the
    direction of travel. Starts on the decaying branch u = e^{kappa x};
    each step is the fourth-order Magnus matrix C*I + S*[[d, h],
    [h*cbar, -d]] of determinant 1, the exact propagator where the two
    node values agree. The step matrices are written into one (2, 2,
    steps) array, its last sub-block padded with identity steps, and
    taken in sub-blocks of b steps with h*b*sqrt(q) <= pi/2, q the larger
    of kappa^2 and s*max(shape); each sub-block is reduced to one product
    (_products), and (u, u') is carried across the products (_carry).

    Each step is the exact flow of a constant-coefficient system that
    turns the phase of (u, u') one way at every zero of u, at a rate of
    at most sqrt(q) plus O(h*q); by Sturm comparison the zeros of u are
    then at least about pi/sqrt(q) apart. So a sub-block holds at most
    one zero, and the sign changes of u at sub-block ends count every
    zero that a step-by-step count would. The same bound keeps each
    product within about e^{pi/2} of norm 1, so none needs
    renormalizing inside. Returns (u, u', sign changes of u).
    """
    k2 = kappa * kappa
    q = max(k2, s * float(shape.max()))
    n = len(shape)
    b = min(max(1, int(0.5 * math.pi / (h * math.sqrt(q)))), n)
    c1 = k2 - s * shape[:, 0]
    c2 = k2 - s * shape[:, 1]
    d = (_MAGNUS_D * h * h) * (c1 - c2)
    hc = (0.5 * h) * (c1 + c2)
    C, S = _cosh_sinhc(d * d + h * hc)
    m = np.empty((2, 2, n + -n % b))
    Sd = S * d
    np.add(C, Sd, out=m[0, 0, :n])
    np.multiply(S, h, out=m[0, 1, :n])
    np.multiply(S, hc, out=m[1, 0, :n])
    np.subtract(C, Sd, out=m[1, 1, :n])
    m[:, :, n:] = _EYE
    return _carry(_products(m.reshape(2, 2, -1, b)), 1.0, kappa)


class _WronskianEngine:
    """Evaluates the normalized matching Wronskian and level count for one shape.

    The steps are the panels of default_grid(p, P=2*nsteps, q=2), so a
    square well's edges fall on step ends and each of its steps is
    exact. An even well is matched at x = 0; an uneven one at the left
    edge of the panel that holds its largest node value, inside the
    core of the well, where W varies smoothly with kappa. The right
    half-line runs backwards from +L, as the left half-line of the
    mirror image.
    """

    def __init__(self, p: Potential, nsteps: int = 4000):
        g = default_grid(p, P=2 * nsteps, q=2)
        shape = np.asarray(p.shape(g.nodes), dtype=float).reshape(g.P, 2)
        split = g.P // 2 if p.is_even() else max(int(np.argmax(shape)) // 2, 1)
        self.h = 2.0 * g.L / g.P
        self.sides = [shape[:split]]
        if not p.is_even():
            self.sides.append(shape[split:][::-1, ::-1])

    def wronskian(self, s: float, kappa: float):
        """W and the level count N at one (strength, kappa) pair, as a float and an int.

        N = n + [(-1)^n W < 0] is the number of levels below -kappa^2,
        with n the nodes of the two half-line solutions.
        """
        sols = [_propagate(side, s, kappa, self.h) for side in self.sides]
        (uL, vL, nL), (uR, vR, nR) = sols[0], sols[-1]
        # right solution at the split: u_R = uR, u_R' = -vR (mirror variable);
        # numpy scalars divide to inf or NaN where Python floats would raise
        W = np.float64(vL * uR + uL * vR) / (np.hypot(uL, vL) * np.hypot(uR, vR))
        n = nL + nR
        return float(W), n + bool((-1) ** n * W < 0.0)


def _search(s: float, depth: float, wronskian):
    """One strength's search; wronskian(s, kappa) gives one pass's (W, N).

    kappa runs over [1e-6, 1] * sqrt(s * depth), depth = shape_max().
    Bisection on the exact level count N keeps N(lo) >= 1 and N(hi) = 0,
    in log kappa while hi > 2 lo; while N(lo) >= 2 it probes where N would
    reach 1 if those levels were evenly spaced in kappa^2, and bisects
    after a probe that overshoots. Once N(lo) = 1 and hi <= 2 lo, W changes
    sign once in the bracket, at the ground state, and Illinois regula
    falsi on W (Dowell & Jarratt, BIT 11, 168, 1971), sides taken from N,
    runs until the bracket is a few ulps wide or the next point is not
    inside it, as when W = 0 at an end. Returns the search's outcome and
    its passes.
    """
    if not (s > 0.0 and depth > 0.0):
        return BracketFailure("a nonzero attractive potential is required"), 0
    hi = math.sqrt(s * depth) * (1.0 - 1e-9)
    lo = hi * 1e-6
    if not lo * lo > 0.0:  # every kappa searched is >= lo, so lo^2 > 0 keeps _propagate's q > 0
        return BracketFailure(f"the well depth underflows for strength s={s:g}"), 0
    # N at lo, the end the last probe moved (-1 lo, +1 hi), Illinois on, passes, kappa
    levels, side, falsi, passes, k = 0, 0, False, 0, lo
    w_lo = w_hi = f_lo = f_hi = math.nan  # W at the ends, and their Illinois weights
    while True:
        W, N = wronskian(s, k)
        passes += 1
        if N >= 1:
            lo, w_lo, f_lo, levels = k, W, W, N
            f_hi *= 0.5 if falsi and side < 0 else 1.0  # Illinois: halve an end kept twice
        elif not levels:
            return BracketFailure(f"no Wronskian sign change for strength s={s:g}"), passes
        else:
            hi, w_hi, f_hi = k, W, W
            f_lo *= 0.5 if falsi and side > 0 else 1.0
        side = -1 if N >= 1 else 1
        if not falsi and levels == 1 and not math.isnan(w_hi) and hi <= 2.0 * lo:
            side, falsi = 0, True
        if falsi:  # where f_hi = f_lo the secant has no root, and NaN ends the search
            k = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else math.nan
        elif levels >= 2 and side <= 0:
            k = math.sqrt(hi * hi - (hi * hi - lo * lo) / levels)
        else:
            k = 0.5 * (lo + hi) if hi <= 2.0 * lo else math.sqrt(lo * hi)
        if not lo < k < hi or falsi and hi - lo <= 4.0 * math.ulp(hi):
            break
    if not falsi:
        return BracketFailure(f"no level bracket for strength s={s:g}"), passes
    kappa, w = (lo, w_lo) if abs(w_lo) <= abs(w_hi) else (hi, w_hi)
    bracket = (-float(hi) ** 2, -float(lo) ** 2)
    return BoundStateResult(-float(kappa) ** 2, abs(float(w)), passes, bracket), passes


def shooting_sweep(p: Potential, s_values, nsteps: int = 4000) -> list:
    """Ground-state energies for one shape at many strengths, one _search each.

    The strengths run one after another, each search to its end, on one
    engine built at the first pass. Returns, aligned with s_values, each
    strength's BoundStateResult (bracket: the last count bracket, one
    level below its lower kappa and none below its upper; iterations: its
    passes) or BracketFailure: no attractive potential, a depth
    s*shape_max() whose lower kappa^2 underflows, or no level in the
    search range, read as "nsteps steps do not resolve the well" where a
    step spans more than pi/2 of sqrt(s*shape_max()), the phase bound the
    level count rests on. A pass through such a well overflows to inf
    and NaN, and its search fails; numpy's warnings on those values are
    silenced once for the whole sweep, not pass by pass.
    """
    depth, eng, results = p.shape_max(), None, []

    def wronskian(s, kappa):
        nonlocal eng
        eng = eng or _WronskianEngine(p, nsteps=nsteps)
        return eng.wronskian(s, kappa)

    with np.errstate(all="ignore"):
        for s in np.asarray(s_values, dtype=float).tolist():
            result, passes = _search(s, depth, wronskian)
            if passes and isinstance(result, BracketFailure) and eng.h * math.sqrt(s * depth) > 0.5 * math.pi:
                result = BracketFailure(f"{nsteps} steps do not resolve the well at s={s:g}")
            results.append(result)
    return results


__all__ = ["BoundStateResult", "shooting_sweep"]
