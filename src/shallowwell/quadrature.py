"""Composite Gauss-Legendre grids and the two integral primitives.

Every multi-dimensional integral in the energy corrections is reduced to
repeated applications of contract() (apply one |x-y|^k kernel weighted by
the potential) followed by a final integrate(). The |x-y|^k kernels are
polynomials once the sign of x-y is split off, so contract() applies them
in O(N): an even power as k+1 weighted sums times powers of x_i, an odd
power as prefix and suffix sums over the sorted nodes. An odd power also
has a kink on the diagonal, where plain panel rules converge only as
O(P^-2); contract() re-integrates each target node's own panel with the
panel split at the kink, interpolating the incoming grid function
polynomially inside the panel. That restores spectral accuracy at
moderate panel counts. The Gauss-Legendre rule and the split-panel
geometry depend only on q, and the split rule's weights times distance^k
only on (q, k); each is built once. All that depends on a (grid,
potential) pair is one record, plan(g, p), built once per pair: V at the
nodes and sub-nodes, and a memo that keeps the sub-node coordinates
raised to each m, perturbation's chain values and greens' monomials.
Rows 0 and 1 of the contraction's powers are written exactly; only the
rows from 2 on run numpy's pow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import InvalidGridSpec, LengthMismatch


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid on [-L, L].

    P equal panels with q nodes each; nodes/weights are flattened in
    increasing order. Equality and hash go by (L, P, q), which fix them.
    """

    L: float
    P: int
    q: int
    nodes: np.ndarray = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)
    edges: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def _gauss(q: int):
    """The q-point Gauss-Legendre rule on [-1, 1], (nodes, weights), read-only.

    leggauss solves an eigenvalue problem; every grid and split rule of
    one q shares this one solve.
    """
    rule = leggauss(q)
    for a in rule:
        a.setflags(write=False)
    return rule


def build_grid(L: float, P: int, q: int) -> QuadratureGrid:
    """Build a composite Gauss-Legendre grid.

    Args:
        L: domain halfwidth, > 0, with 2L finite.
        P: number of equal panels, >= 1.
        q: Gauss-Legendre nodes per panel, 1 <= q <= 16 (q=1 is the
           midpoint rule).

    Raises:
        InvalidGridSpec: parameters out of range, or more than MAX_NODES
            nodes, checked before anything is allocated.
    """
    if not 0.0 < 2.0 * L < math.inf:
        raise InvalidGridSpec(f"domain halfwidth must be positive with 2L finite, got L={L:g}")
    if not (isinstance(P, (int, np.integer)) and P >= 1):
        raise InvalidGridSpec(f"panel count must be an integer >= 1, got {P}")
    if not (isinstance(q, (int, np.integer)) and 1 <= q <= 16):
        raise InvalidGridSpec(f"nodes per panel must satisfy 1 <= q <= 16, got {q}")
    if P * q > MAX_NODES:
        raise InvalidGridSpec(f"{P} panels of {q} nodes exceed the {MAX_NODES} nodes of one grid")
    xs, ws = _gauss(int(q))
    edges = np.linspace(-L, L, int(P) + 1)
    half = L / P
    nodes = (edges[:-1, None] + half * (xs[None, :] + 1.0)).ravel()
    weights = np.tile(half * ws, int(P))
    return QuadratureGrid(float(L), int(P), int(q), nodes, weights, edges)


def default_grid(p, L: float | None = None, P: int = 128, q: int = 8) -> QuadratureGrid:
    """Grid suited to a potential: build_grid(*default_spec(p, L, P, q))."""
    return build_grid(*default_spec(p, L, P, q))


def default_spec(p, L: float | None = None, P: int = 128, q: int = 8) -> tuple:
    """(L, P, q) of a grid suited to a potential: L = support radius + 5 unless given.

    For the square well the panel width is snapped so that the well edges
    +-a fall exactly on panel boundaries; otherwise the discontinuity
    ruins the panel rule. A well that needs more than MAX_NODES nodes
    for that is refused before the panel count is formed, and so is one
    whose panel width 2L/P or panel count a/(2L/P) overflows.
    """
    if L is None:
        L = p.support_radius() + 5.0
    if p.kind == "square_well":
        width0 = 2.0 * L / P
        ratio = p.a / width0
        if not (width0 < math.inf and ratio < math.inf):
            raise InvalidGridSpec(f"square well a={p.a:g} on a grid of L={L:g} overflows its panels")
        m = max(1, round(ratio))
        width = p.a / m
        half = L / (2.0 * width)  # a quarter of the snapped panel count, before rounding up
        if not half <= MAX_NODES // (4 * q):
            raise InvalidGridSpec(f"square well a={p.a:g} needs more than {MAX_NODES} grid nodes")
        P = 2 * math.ceil(half) * 2
        L = P * width / 2.0
    return L, P, q


def _check_aligned(g: QuadratureGrid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != g.nodes.shape:
        raise LengthMismatch(
            f"grid function has {f.size} values for a grid of {g.size} nodes"
        )
    return f


#: the most nodes of a grid; the error bounds of integrate() need n u far below 1/n
MAX_NODES = 2**26
_TINY = math.ldexp(1.0, -1074)  # the smallest subnormal


def integrate(g: QuadratureGrid, f) -> float:
    """Sum a_i = w_i f_i correctly rounded: bit for bit math.fsum(g.weights * f).

    Error-free extraction at numpy speed (Rump, Ogita & Oishi, Accurate
    floating-point summation I, SIAM J. Sci. Comput. 31, 189, 2008). With
    sigma the power of two at least 2^M max|a|, M = ceil(log2(n + 2)), the
    high parts (sigma + a) - sigma and the low parts a minus them are exact,
    and the numpy sum of the high parts is exact too (see _extract). The
    exact sum t1 of the high parts plus the plain sum c of the low parts is
    certified after this one pass (_certified): a rigorous bound delta on
    the error of c makes fl(t1 + c) the correctly rounded sum when
    fl(t1 + (c - delta)) == fl(t1 + (c + delta)). Only when that fails does
    a second pass split the low parts the same way; the TwoSum s + e of the
    two exact sums, plus the plain sum of what is left, gives c = e + sum,
    certified alike with the low parts' max. When that fails too, or max|a|
    is 0, not finite or too large for sigma, the result is math.fsum(a)
    itself, so every value, sign of zero and exception is that of
    math.fsum. One pass certifies almost every call; the fallback is left
    to sums that cancel to within delta of a rounding boundary, such as
    exact ties.
    """
    f = _check_aligned(g, f)
    a = g.weights * f
    n = a.size
    M = (n + 1).bit_length()  # ceil(log2(n + 2))
    mu = float(np.max(np.abs(a)))
    if not 0.0 < mu < math.inf or math.frexp(mu)[1] + M > 1023 or n > MAX_NODES:
        return math.fsum(a)
    t1, r = _extract(a, mu, M)
    c = float(r.sum())
    if _certified(t1, c, mu, M):
        return t1 + c
    mu = float(np.max(np.abs(r)))
    t2, r = _extract(r, mu, M)
    s = t1 + t2  # TwoSum: s + e == t1 + t2 exactly
    b = s - t1
    e = (t1 - (s - b)) + (t2 - b)
    c = e + float(r.sum())
    if _certified(s, c, mu, M):
        return s + c
    return math.fsum(a)


def _certified(s, c, mu, M):
    """Whether fl(s + c) is the correctly rounded s + sum(r), c = [e +] the plain sum of r.

    mu is the max|.| of the array whose low parts r are, so that with
    u = 2^-53, |r_i| <= u sigma <= 2^(M+1) u mu and n < 2^M: the plain sum
    of r is off by at most 2(n-1)u * n 2^(M+1) u mu <= 2^(3M+2) u^2 mu, and
    e + sum(r) by u|c| more. Four times that plus the smallest subnormal
    also covers rounding c -+ delta, and these terms where they fall below
    the normal range.
    """
    delta = 4.0 * (math.ldexp(mu, 3 * M - 104) + math.ldexp(abs(c), -53)) + _TINY
    return s + (c - delta) == s + (c + delta)


def _extract(r, mu, M):
    """Split r exactly into high parts, returned as their exact sum, and low parts.

    mu = max|r| and sigma = 2^(floor(log2 mu) + 1 + M). Since |r_i| <= sigma/4,
    fl(sigma + r_i) - sigma is exact (Sterbenz), and so is its difference
    from r_i, at most 2^-53 sigma. The high parts are multiples of 2^-53 sigma
    and sum to less than sigma in absolute value, as 2^M >= n + 2, so every
    partial sum is exact, in any order.
    """
    sigma = math.ldexp(1.0, math.frexp(mu)[1] + M)
    q = (sigma + r) - sigma
    return float(q.sum()), r - q


def contract(g: QuadratureGrid, p, k: int, m: int, f) -> np.ndarray:
    """One chain link: h_i = sum_j w_j |x_i - x_j|^k x_j^m V(x_j) f_j, in O(N).

    The kernel is expanded binomially in powers of x - c, with c the
    centroid of |w x^m V f|, so the powers stay small where the source
    lives. An even k needs only the k+1 weighted sums of those powers; an
    odd k is sgn(x_i - x_j)(x_i - x_j)^k, so the sums run over j < i and
    j > i as prefix and suffix sums on the sorted nodes. For odd k the
    diagonal kink is then handled exactly: the contribution of node i's
    own panel is replaced by two sub-panel Gauss rules split at x_i, with
    f interpolated in the panel and V taken at the sub-nodes from
    plan(g, p).

    Args:
        g: quadrature grid.
        p: potential supplying V(x).
        k: kernel power, >= 0.
        m: polynomial weight power attached to the source variable, >= 0.
        f: incoming grid function.
    """
    if k < 0 or m < 0:
        raise ValueError("kernel and polynomial powers must be nonnegative")
    f = _check_aligned(g, f)
    x = g.nodes
    V, Vsub, memo = plan(g, p)
    u = V * x**m * f
    h = _polynomial_sum(x, g.weights * u, k)
    if k % 2 == 1:
        h += _kink_correction(g, k, m, f, u, Vsub, memo)
    return h


def _polynomial_sum(x, wu, k):
    """h_i = sum_j |x_i - x_j|^k wu_j on sorted nodes, by k+1 sums per node."""
    mass = np.abs(wu)
    total = float(mass.sum())
    y = x - (float(mass @ x) / total if total > 0.0 else 0.0)
    # terms[b, j] = (-y_j)^b wu_j, so that (y_i - y_j)^k = sum_b C(k, b) y_i^(k-b) (-y_j)^b.
    # Rows 0 and 1 are exact; rows 2..k come from numpy's generic pow, in one call with
    # several exponent rows. A lone exponent row 2 would take numpy's square path, whose
    # bits differ, so k = 2 takes row 1 along.
    terms = np.empty((k + 1, x.size))
    terms[0] = 1.0
    terms[1:2] = -y  # no row where k = 0
    if k >= 2:
        first = 1 if k == 2 else 2
        terms[first:] = terms[1] ** np.arange(first, k + 1)[:, None]
    terms *= wu
    if k % 2 == 0:
        sums = terms.sum(axis=1, keepdims=True)
    else:  # sums over j < i minus sums over j > i
        sums = np.zeros_like(terms)
        np.cumsum(terms[:, :-1], axis=1, out=sums[:, 1:])
        sums[:, :-1] -= np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]
    h = np.zeros_like(x)
    for b in range(k + 1):  # Horner in y_i
        h = h * y + math.comb(k, b) * sums[b]
    return h


@lru_cache(maxsize=None)
def _split_rule(q: int):
    """Reference geometry of the kink-split own-panel rule, per node r.

    Node r of the q-point rule on [-1, 1] splits its panel into
    [-1, xi_r] and [xi_r, 1], each carrying a q-point rule. Returns the
    sub-nodes eta (q, 2q), sub-weights (q, 2q), distances |xi_r - eta|
    (q, 2q), the interpolation from the q nodes to the sub-nodes
    (q, 2q, q), the nodes' own weights (q,) and distances |xi_r - xi_t|
    (q, q). Scaled by the panel half-width they hold for every panel.
    There is one rule per q <= 16.
    """
    xi, om = _gauss(q)
    left, right = (1.0 + xi)[:, None] / 2.0, (1.0 - xi)[:, None] / 2.0
    eta = np.hstack([xi[:, None] - left * (1.0 - xi), xi[:, None] + right * (1.0 + xi)])
    sub_weights = np.hstack([left * om, right * om])
    dist = np.hstack([left * (1.0 - xi), right * (1.0 + xi)])
    interp = legvander(eta, q - 1) @ np.linalg.inv(legvander(xi, q - 1))
    own_dist = np.abs(xi[:, None] - xi[None, :])
    rule = (eta, sub_weights, dist, interp, om, own_dist)
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=4)
def plan(g: QuadratureGrid, p):
    """The one record of a (grid, potential) pair: (V, Vsub, memo).

    V at the grid nodes (N,) and at every node's kink-split sub-nodes
    (P, q, 2q), both read-only, and a memo dict of the pair's fixed and
    computed arrays: the sub-node coordinates raised to each m > 0 that
    contract() has used, under ("sub_nodes", m); the monomials
    x^i |x|^j at the nodes that greens applies, under ("monomial", i, j);
    and the chain values and suffix contractions of perturbation. Built
    on first use, so grids that are never contracted cost nothing; four
    plans cover the coarse and fine grids of two potentials. Keyed on the
    grid's (L, P, q) and on the potential object, by identity, so a memo
    never serves another well or grid.
    """
    V, Vsub = p.evaluate(g.nodes), p.evaluate(_sub_nodes(g, _split_rule(g.q)[0]))
    V.setflags(write=False)
    Vsub.setflags(write=False)
    return V, Vsub, {}


def _sub_nodes(g, eta):
    half = g.L / g.P
    return g.edges[:-1, None, None] + half * (eta[None] + 1.0)


@lru_cache(maxsize=None)
def _kernel_weights(q: int, k: int):
    """The split rule's weights times distance^k: sub-panels (q, 2q), own panel (q, q); read-only."""
    _, sub_weights, dist, _, om, own_dist = _split_rule(q)
    weights = (sub_weights * dist**k, om * own_dist**k)
    for a in weights:
        a.setflags(write=False)
    return weights


def _kink_correction(g, k, m, f, u, Vsub, memo):
    """Replace each node's own-panel contribution by a kink-split rule.

    memo is that of plan(g, p); the sub-node coordinates raised to m are
    kept in it, under ("sub_nodes", m).
    """
    P, q = g.P, g.q
    eta, _, _, interp, _, _ = _split_rule(q)
    usub = (f.reshape(P, q) @ interp.reshape(2 * q * q, q).T).reshape(P, q, 2 * q)
    usub *= Vsub
    if m:
        if ("sub_nodes", m) not in memo:
            ysub = _sub_nodes(g, eta)
            ysub **= m
            ysub.setflags(write=False)
            memo["sub_nodes", m] = ysub
        usub *= memo["sub_nodes", m]
    sub_kernel, own_kernel = _kernel_weights(q, k)
    refined = np.einsum("rs,prs->pr", sub_kernel, usub)
    crude = u.reshape(P, q) @ own_kernel.T
    return (g.L / g.P) ** (k + 1) * (refined - crude).ravel()


# plan is public but left out, so that a span recorder wrapping __all__ does
# not record a lookup per chain, several hundred per energy_series
__all__ = ["QuadratureGrid", "build_grid", "default_grid", "default_spec", "integrate", "contract"]
