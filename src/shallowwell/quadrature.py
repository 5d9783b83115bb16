"""Composite Gauss-Legendre grids and the two integral primitives.

Every multi-dimensional integral in the energy corrections is reduced to
repeated applications of contract() (apply one |x-y|^k kernel weighted by
the potential) followed by a final integrate(). The |x-y|^k kernel with
odd k has a kink on the diagonal; plain panel rules converge only as
O(P^-2) there, so contract() re-integrates each target node's own panel
with the panel split at the kink, interpolating the incoming grid
function polynomially inside the panel. That restores spectral accuracy
at moderate panel counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import InvalidGridSpec, LengthMismatch

_ROW_CHUNK = 256


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid on [-L, L].

    P equal panels with q nodes each; nodes/weights are flattened in
    increasing order. ref_nodes/ref_weights are the q-point rule on
    [-1, 1]; interp is the inverse Legendre-Vandermonde matrix used to
    interpolate grid functions inside a single panel.
    """

    L: float
    P: int
    q: int
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    ref_nodes: np.ndarray
    ref_weights: np.ndarray
    interp: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    def __hash__(self):
        return hash((self.L, self.P, self.q))

    def __eq__(self, other):
        return (
            isinstance(other, QuadratureGrid)
            and (self.L, self.P, self.q) == (other.L, other.P, other.q)
        )


def build_grid(L: float, P: int, q: int) -> QuadratureGrid:
    """Build a composite Gauss-Legendre grid.

    Args:
        L: domain halfwidth, > 0.
        P: number of equal panels, >= 1.
        q: Gauss-Legendre nodes per panel, 1 <= q <= 16 (q=1 is the
           midpoint rule).

    Raises:
        InvalidGridSpec: parameters out of range.
    """
    if not (L > 0.0) or not math.isfinite(L):
        raise InvalidGridSpec(f"domain halfwidth must be positive, got {L}")
    if not (isinstance(P, (int, np.integer)) and P >= 1):
        raise InvalidGridSpec(f"panel count must be an integer >= 1, got {P}")
    if not (isinstance(q, (int, np.integer)) and 1 <= q <= 16):
        raise InvalidGridSpec(f"nodes per panel must satisfy 1 <= q <= 16, got {q}")
    xs, ws = leggauss(int(q))
    edges = np.linspace(-L, L, int(P) + 1)
    half = L / P
    nodes = (edges[:-1, None] + half * (xs[None, :] + 1.0)).ravel()
    weights = np.tile(half * ws, int(P))
    vand = legvander(xs, q - 1)
    interp = np.linalg.inv(vand)
    return QuadratureGrid(
        L=float(L),
        P=int(P),
        q=int(q),
        nodes=nodes,
        weights=weights,
        edges=edges,
        ref_nodes=xs,
        ref_weights=ws,
        interp=interp,
    )


def default_grid(p, P: int = 128, q: int = 8, L: float | None = None) -> QuadratureGrid:
    """Grid suited to a potential: L = support radius + 5 unless given.

    For the square well the panel width is snapped so that the well edges
    +-a fall exactly on panel boundaries; otherwise the discontinuity
    ruins the panel rule.
    """
    if L is None:
        L = p.support_radius() + 5.0
    if p.kind == "square_well":
        width0 = 2.0 * L / P
        m = max(1, round(p.a / width0))
        width = p.a / m
        P = 2 * math.ceil(L / (2.0 * width)) * 2
        L = P * width / 2.0
    return build_grid(L, P, q)


def _check_aligned(g: QuadratureGrid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != g.nodes.shape:
        raise LengthMismatch(
            f"grid function has {f.size} values for a grid of {g.size} nodes"
        )
    return f


def integrate(g: QuadratureGrid, f) -> float:
    """Sum w_i f_i with compensated (exact pairwise/fsum) accumulation."""
    f = _check_aligned(g, f)
    return math.fsum(g.weights * f)


def contract(g: QuadratureGrid, p, k: int, m: int, f) -> np.ndarray:
    """One chain link: h_i = sum_j w_j |x_i - x_j|^k x_j^m V(x_j) f_j.

    Rows are processed in fixed-size chunks so no N x N kernel matrix is
    ever materialized. For odd k the diagonal kink of |x_i - x_j|^k is
    handled exactly: the contribution of node i's own panel is replaced
    by two sub-panel Gauss rules split at x_i, with f interpolated in the
    panel's Legendre basis and V evaluated directly at the sub-nodes.

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
    x, w = g.nodes, g.weights
    N = g.size
    Vx = np.asarray(p.evaluate(x), dtype=float)
    u = Vx * x**m * f
    wu = w * u
    h = np.empty(N)
    for lo in range(0, N, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, N)
        kernel = np.abs(x[lo:hi, None] - x[None, :])
        if k == 0:
            block = np.ones_like(kernel)
        elif k == 1:
            block = kernel
        else:
            block = kernel**k
        h[lo:hi] = block @ wu
    if k % 2 == 1:
        h += _kink_correction(g, p, k, m, f, u)
    return h


def _kink_correction(g, p, k, m, f, u):
    """Replace each node's own-panel contribution by a kink-split rule."""
    x, w = g.nodes, g.weights
    P, q = g.P, g.q
    panel = np.repeat(np.arange(P), q)
    lo = g.edges[panel]
    hi = g.edges[panel + 1]
    span = hi - lo
    # polynomial coefficients of f per panel in the Legendre basis
    coeffs = f.reshape(P, q) @ g.interp.T
    cnode = coeffs[panel]  # (N, q)
    # crude own-panel contribution to subtract
    x_own = x.reshape(P, q)[panel]
    w_own = w.reshape(P, q)[panel]
    u_own = u.reshape(P, q)[panel]
    corr = -np.sum(w_own * np.abs(x[:, None] - x_own) ** k * u_own, axis=1)
    # refined contribution: two Gauss rules split at the kink x_i
    for a, b in ((lo, x), (x, hi)):
        mid = 0.5 * (a + b)
        halfw = 0.5 * (b - a)
        y = mid[:, None] + halfw[:, None] * g.ref_nodes[None, :]
        wy = halfw[:, None] * g.ref_weights[None, :]
        local = 2.0 * (y - lo[:, None]) / span[:, None] - 1.0
        vand = legvander(local.ravel(), q - 1).reshape(y.shape[0], q, q)
        fy = np.einsum("nij,nj->ni", vand, cnode)
        Vy = np.asarray(p.evaluate(y.ravel()), dtype=float).reshape(y.shape)
        corr += np.sum(wy * np.abs(x[:, None] - y) ** k * Vy * y**m * fy, axis=1)
    return corr


__all__ = ["QuadratureGrid", "build_grid", "default_grid", "integrate", "contract"]
