"""Independent ground truth for the series machinery.

A shooting/Wronskian bound-state solver with one fourth-order Magnus
propagator for every shape, matched at the peak of the well. Its one
entry point is shooting_sweep; a single strength is a sweep of one. Each
strength runs its own search in Python floats, bisection on the level
count (Sturm oscillation) then Illinois regula falsi on the Wronskian,
and each integration pass serves every strength still searching. A pass
writes its step matrices into one batch-major (2, 2, batch, steps)
array and multiplies them pairwise into sub-block products, each short
enough (by the Sturm bound on the spacing of zeros) to hold at most one
zero of the solution, so counting levels costs one sign test per
sub-block; a search that fails where steps exceed that bound says so.
The solution is carried across the products in Python floats, one kappa
at a time, for batches of up to _SCALAR_CARRY kappas (a solve runs at
one), and in numpy arrays above; both make the same IEEE operations in
the same order, so W and the level count are the same bits either way.
The exact levels, the Gaussian closed forms, the erf reference, the
step-by-step propagation, this search as array code over all strengths,
the scan-and-polish search before it, a plain count bisection and the
series fit that only the tests use live in tests/reference.py.
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
#: step-matrix entries built per chunk of steps; this bounds the
#: temporaries of one pass up to 2,048 kappas per pass: by tracemalloc,
#: a Gaussian pass peaks at 0.9 MB at 1 kappa, 2.4 MB at 64 and 160, and
#: 2.3 MB at 480
_BLOCK = 1 << 14
#: fewest steps per chunk, so that a large batch still reduces several
#: steps per vectorized product
_MIN_CHUNK = 8
#: most kappas per pass whose carry runs in Python floats (_carry_columns);
#: on deep wells, where the carry dominates, the two carries break even
#: near 32 kappas, and on shallow ones they tie from 8 to 48
_SCALAR_CARRY = 24
#: weight of the commutator term of the two-node Magnus step
_MAGNUS_D = math.sqrt(3.0) / 12.0
#: the 2x2 identity, entry first, as it pads a (2, 2, batch, steps) array
_EYE = np.eye(2)[:, :, None, None]
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

    m is a (2, 2, batch, runs, r) array, entry first. Each pairwise level
    multiplies neighbours, later on the left, in one broadcast expression
    whose every element is b_i0*a_0j + b_i1*a_1j, and pads an odd level
    with one identity matrix. Returns the (2, 2, batch, runs) products.
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


def _carry_batch(prods, u, v, nodes):
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


def _carry_columns(prods, u, v, nodes):
    """_carry_batch in Python floats, one column at a time, to the same bits.

    Each column makes the same IEEE operations in the same order:
    np.maximum's choice (the first operand if it is NaN or not smaller,
    else the second) is written out, and a zero r gives 0/0, the NaN that
    numpy's division gives, where Python's would raise.
    """
    us, vs, ns = u.tolist(), v.tolist(), nodes.tolist()
    for j, (uj, vj, nj) in enumerate(zip(us, vs, ns)):
        (p00, p01), (p10, p11) = prods[:, :, j].tolist()
        for a00, a01, a10, a11 in zip(p00, p01, p10, p11):
            unew = a00 * uj + a01 * vj
            vj = a10 * uj + a11 * vj
            nj += (unew * uj) < 0.0
            uj = unew
            au, av = abs(uj), abs(vj)
            r = au if au >= av or au != au else av
            if r == 0.0:
                uj = vj = _ZERO_BY_ZERO
            else:
                uj /= r
                vj /= r
        us[j], vs[j], ns[j] = uj, vj, nj
    return np.array(us), np.array(vs), np.array(ns, dtype=nodes.dtype)


def _propagate(shape, svec, kvec, h):
    """Propagate u'' = (kappa^2 - s*shape) u across the steps of one half-line.

    shape holds each step's two Gauss-Legendre node values, in the
    direction of travel. Starts on the decaying branch u = e^{kappa x};
    each step is the fourth-order Magnus matrix C*I + S*[[d, h],
    [h*cbar, -d]] of determinant 1, the exact propagator where the two
    node values agree. The steps are taken in sub-blocks of b steps with
    h*b*sqrt(q) <= pi/2, q the largest kappa^2 or s*max(shape) of the
    batch. The step matrices of a chunk are written into one batch-major
    (2, 2, batch, steps) array, the last chunk padded in place with
    identity steps; all its sub-blocks are reduced at once to one product
    each (_products), and (u, u') is carried across the products,
    renormalized after each. Up to _SCALAR_CARRY kappas the carry runs in
    Python floats, one column at a time (_carry_columns), where numpy's
    per-call cost would outweigh its arithmetic; above, it runs on whole
    columns (_carry_batch). Every element takes the same IEEE operations
    in the same order in either layout and either carry, so W and the
    level count are the same bits whichever path runs.

    Each step is the exact flow of a constant-coefficient system that
    turns the phase of (u, u') one way at every zero of u, at a rate of
    at most sqrt(q) plus O(h*q); by Sturm comparison the zeros of u are
    then at least about pi/sqrt(q) apart. So a sub-block holds at most
    one zero, and the sign changes of u at sub-block ends count every
    zero that a step-by-step count would. The same bound keeps each
    product within about e^{pi/2} of norm 1, so none needs
    renormalizing inside. Returns (u, u', sign changes of u).
    """
    batch = kvec.size
    u = np.ones_like(kvec)
    v = kvec.copy()
    k2 = kvec * kvec
    nodes = np.zeros(kvec.shape, dtype=int)
    q = max(float(k2.max()), float(svec.max()) * float(shape.max()))
    chunk = max(_MIN_CHUNK, _BLOCK // batch)
    b = min(max(1, int(0.5 * math.pi / (h * math.sqrt(q)))), chunk, len(shape))
    chunk -= chunk % b
    carry = _carry_columns if batch <= _SCALAR_CARRY else _carry_batch
    k2, svec = k2[:, None], svec[:, None]
    for b0 in range(0, len(shape), chunk):
        c1 = k2 - svec * shape[b0 : b0 + chunk, 0]
        c2 = k2 - svec * shape[b0 : b0 + chunk, 1]
        d = (_MAGNUS_D * h * h) * (c1 - c2)
        hc = (0.5 * h) * (c1 + c2)
        C, S = _cosh_sinhc(d * d + h * hc)
        n = C.shape[1]
        m = np.empty((2, 2, batch, n + -n % b))
        Sd = S * d
        np.add(C, Sd, out=m[0, 0, :, :n])
        np.multiply(S, h, out=m[0, 1, :, :n])
        np.multiply(S, hc, out=m[1, 0, :, :n])
        np.subtract(C, Sd, out=m[1, 1, :, :n])
        m[..., n:] = _EYE
        u, v, nodes = carry(_products(m.reshape(2, 2, batch, -1, b)), u, v, nodes)
    return u, v, nodes


class _WronskianEngine:
    """Evaluates the normalized matching Wronskian and level count for one shape.

    The steps are the panels of default_grid(p, P=2*nsteps, q=2), so a
    square well's edges fall on step ends and each of its steps is
    exact. An even well is matched at x = 0; an uneven one at the left
    edge of the panel that holds its largest node value, inside the
    core of the well, where W varies smoothly with kappa. The right
    half-line runs backwards from +L, as the left half-line of the
    mirror image. Batched over (strength, kappa) pairs, so that many
    strengths cost one integration pass per round.
    """

    def __init__(self, p: Potential, nsteps: int = 4000):
        g = default_grid(p, P=2 * nsteps, q=2)
        shape = np.asarray(p.shape(g.nodes), dtype=float).reshape(g.P, 2)
        split = g.P // 2 if p.is_even() else max(int(np.argmax(shape)) // 2, 1)
        self.h = 2.0 * g.L / g.P
        self.sides = [shape[:split]]
        if not p.is_even():
            self.sides.append(shape[split:][::-1, ::-1])

    def wronskian(self, svec, kvec):
        """W and the level count N at each (strength, kappa) pair.

        N = n + [(-1)^n W < 0] is the number of levels below -kappa^2,
        with n the nodes of the two half-line solutions.
        """
        svec = np.asarray(svec, dtype=float)
        kvec = np.asarray(kvec, dtype=float)
        sols = [_propagate(side, svec, kvec, self.h) for side in self.sides]
        (uL, vL, nL), (uR, vR, nR) = sols[0], sols[-1]
        # right solution at the split: u_R = uR, u_R' = -vR (mirror variable)
        W = (vL * uR + uL * vR) / (np.hypot(uL, vL) * np.hypot(uR, vR))
        n = nL + nR
        return W, n + ((-1) ** n * W < 0.0)


def _search(s: float, depth: float):
    """One strength's search, as a generator: yields each kappa, is sent its (W, N).

    kappa runs over [1e-6, 1] * sqrt(s * depth), depth = shape_max().
    Bisection on the exact level count N keeps N(lo) >= 1 and N(hi) = 0,
    in log kappa while hi > 2 lo; while N(lo) >= 2 it probes where N would
    reach 1 if those levels were evenly spaced in kappa^2, and bisects
    after a probe that overshoots. Once N(lo) = 1 and hi <= 2 lo, W changes
    sign once in the bracket, at the ground state, and Illinois regula
    falsi on W (Dowell & Jarratt, BIT 11, 168, 1971), sides taken from N,
    runs until the bracket is a few ulps wide or the next point is not
    inside it, as when W = 0 at an end. Returns the search's outcome.
    """
    if not (s > 0.0 and depth > 0.0):
        return BracketFailure("a nonzero attractive potential is required")
    hi = math.sqrt(s * depth) * (1.0 - 1e-9)
    lo = hi * 1e-6
    if not lo * lo > 0.0:  # every kappa searched is >= lo, so lo^2 > 0 keeps _propagate's q > 0
        return BracketFailure(f"the well depth underflows for strength s={s:g}")
    # N at lo, the end the last probe moved (-1 lo, +1 hi), Illinois on, passes, kappa
    levels, side, falsi, passes, k = 0, 0, False, 0, lo
    w_lo = w_hi = f_lo = f_hi = math.nan  # W at the ends, and their Illinois weights
    while True:
        W, N = yield k
        passes += 1
        if N >= 1:
            lo, w_lo, f_lo, levels = k, W, W, N
            f_hi *= 0.5 if falsi and side < 0 else 1.0  # Illinois: halve an end kept twice
        elif not levels:
            return BracketFailure(f"no Wronskian sign change for strength s={s:g}")
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
        return BracketFailure(f"no level bracket for strength s={s:g}")
    kappa, w = (lo, w_lo) if abs(w_lo) <= abs(w_hi) else (hi, w_hi)
    bracket = (-float(hi) ** 2, -float(lo) ** 2)
    return BoundStateResult(-float(kappa) ** 2, abs(float(w)), passes, bracket)


def shooting_sweep(p: Potential, s_values, nsteps: int = 4000) -> list:
    """Ground-state energies for one shape at many strengths, one _search each.

    Each engine pass probes the next kappa of every live search, in the
    order of s_values. Returns, aligned with s_values, each strength's
    BoundStateResult (bracket: the last count bracket, one level below
    its lower kappa and none below its upper; iterations: its passes) or
    BracketFailure: no attractive potential, a depth s*shape_max() whose
    lower kappa^2 underflows, or no level in the search range, read as
    "nsteps steps do not resolve the well" where a step spans more than
    pi/2 of sqrt(s*shape_max()), the phase bound the level count rests on.
    """
    svec = np.asarray(s_values, dtype=float).tolist()
    depth = p.shape_max()
    searches = {j: _search(s, depth) for j, s in enumerate(svec)}
    results, sent, eng = [None] * len(svec), {}, None
    while searches:
        kappas = {}
        for j, search in searches.items():
            try:
                kappas[j] = search.send(sent.get(j))
            except StopIteration as stop:
                unresolved = j in sent and eng.h * math.sqrt(svec[j] * depth) > 0.5 * math.pi
                results[j] = stop.value
                if unresolved and isinstance(stop.value, BracketFailure):
                    results[j] = BracketFailure(f"{nsteps} steps do not resolve the well at s={svec[j]:g}")
        searches = {j: searches[j] for j in kappas}
        if kappas:
            eng = eng or _WronskianEngine(p, nsteps=nsteps)
            W, N = eng.wronskian([svec[j] for j in kappas], list(kappas.values()))
            sent = dict(zip(kappas, zip(W.tolist(), N.tolist())))
    return results


__all__ = ["BoundStateResult", "shooting_sweep"]
