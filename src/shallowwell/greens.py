"""Resolvent kernels of the regulator delta-well Hamiltonian.

H0 = -d^2/dx^2 - 2*beta*delta(x) has a single bound state
psi0(x) = sqrt(beta) e^{-beta|x|} with energy -beta^2 plus a continuum.
The gamma-Taylor coefficients G^(l) = <x1|Omega^{l+1}|x2> of its
reduced-resolvent kernel G_gamma(x1, x2) carry the small-beta expansions
used to assemble the finite-regulator fourth-order energy, which applies
l = 0, 1 and 2; only those are tabulated. Each expansion is a table of
separable monomials plus one |x1 - x2|^(2l+1) kink term, so the assembly
runs on the same O(N) contract() as the weak-coupling series. The 1/beta
pieces of that assembly cancel identically: their block is three cluster
terms whose coefficients sum to zero. The closed six-region form of
G_gamma and its spectral integral, which the expansions are checked
against, are in tests/reference.py.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidGridSpec
from .perturbation import evaluate_term, parse_terms
from .potential import Potential
from .quadrature import QuadratureGrid, contract, integrate, plan


#: Small-beta expansions of G^(l), l = 0..2, truncated after beta^0:
#:
#:     G^(l)(x1, x2) = kink * |x1 - x2|^(2l+1)
#:                     + sum of coeff * beta^-e * x1^i1 |x1|^j1 * x2^i2 |x2|^j2
#:
#: over the rows "coeff e i1 j1 i2 j2". G^(l) is symmetric, so a row with
#: (i1, j1) != (i2, j2) also stands for its mirror image. All but the kink
#: term separate into functions of x1 and of x2.
_EXPANSIONS = {
    0: ("-1/2", """
        1/4       1  0 0  0 0
        -1/4      0  0 1  0 0
    """),
    1: ("1/12", """
        1/16      3  0 0  0 0
        -1/16     2  0 1  0 0
        -3/32     1  2 0  0 0
        1/4       1  1 0  1 0
        1/16      1  0 1  0 1
        1/32      0  2 1  0 0
        3/32      0  2 0  0 1
    """),
    2: ("-1/240", """
        1/32      5  0 0  0 0
        -1/32     4  0 1  0 0
        -1/64     3  2 0  0 0
        1/16      3  1 0  1 0
        1/32      3  0 1  0 1
        1/192     2  2 1  0 0
        1/64      2  2 0  0 1
        5/768     1  4 0  0 0
        -1/32     1  3 0  1 0
        -1/192    1  2 1  0 1
        5/128     1  2 0  2 0
        -1/768    0  4 1  0 0
        -5/768    0  4 0  0 1
        -5/384    0  2 1  2 0
    """),
}


@lru_cache(maxsize=None)
def _expansion(l: int):
    """Kink coefficient and separable rows of G^(l), mirror images included."""
    kink, text = _EXPANSIONS[l]
    rows = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        coeff, *powers = line.split()
        c = float(Fraction(coeff))
        e, i1, j1, i2, j2 = map(int, powers)
        rows.append((c, e, i1, j1, i2, j2))
        if (i1, j1) != (i2, j2):
            rows.append((c, e, i2, j2, i1, j1))
    return float(Fraction(kink)), tuple(rows)


def _monomial(x, i: int, j: int):
    return x**i * np.abs(x) ** j


def _apply_expansion(l, beta, g, p, Vx, F):
    """sum_j G^(l)(x_i, x_j) w_j V(x_j) F_j at every node x_i.

    The kink term is one contraction; each separable row is a weighted
    sum over x_j times a monomial in x_i. The monomials x^i |x|^j at the
    nodes are built once per (grid, potential) pair, kept in the memo of
    plan(g, p) under ("monomial", i, j), and shared by every beta and
    kernel application.
    """
    kink, rows = _expansion(l)
    _, memo = plan(g, p)

    def monomial(i, j):
        key = ("monomial", i, j)
        if key not in memo:
            memo[key] = _monomial(g.nodes, i, j)
            memo[key].setflags(write=False)
        return memo[key]

    sums = {}
    out = kink * contract(g, p, 2 * l + 1, 0, F)
    for coeff, e, i1, j1, i2, j2 in rows:
        if (i2, j2) not in sums:
            sums[i2, j2] = integrate(g, Vx * F * monomial(i2, j2))
        out = out + coeff / beta**e * sums[i2, j2] * monomial(i1, j1)
    return out


def e4_finite_beta(p: Potential, g: QuadratureGrid, beta: float) -> float:
    """Fourth-order energy assembled from finite-regulator kernels.

    Uses the operator combination

        <V O V><V O^2 V> + 2<V><V O^2 V O V> - <V>^2 <V O^3 V>
        - <V O V O V O V>

    with O^{l+1} kernels given by the G^(l) tables and expectation
    values taken in the regulator bound state psi0 = sqrt(beta)
    e^{-beta|x|}. The individual pieces diverge as powers of 1/beta but
    the combination is finite and tends to E(4) linearly in beta.

    Each kernel is applied as weighted sums plus one contract() call, so
    the grid must have x = 0 on a panel edge, where |x| and e^{-beta|x|}
    have their kinks: the panel count must be even.

    Raises:
        ValueError: beta outside [1e-4, 0.1].
        InvalidGridSpec: odd panel count.
    """
    if not (1e-4 <= beta <= 0.1):
        raise ValueError("beta must lie in [1e-4, 0.1]")
    if g.P % 2:
        raise InvalidGridSpec(f"x = 0 must be a panel edge, but the panel count {g.P} is odd")
    Vx, _ = plan(g, p)
    ew = np.exp(-beta * np.abs(g.nodes))

    def kernel(l, F):
        return _apply_expansion(l, beta, g, p, Vx, F)

    def expect(F):
        return beta * integrate(g, Vx * ew * F)

    A = expect(ew)
    g0 = kernel(0, ew)
    B1, B2, B3 = expect(g0), expect(kernel(1, ew)), expect(kernel(2, ew))
    C = expect(kernel(1, g0))
    D = expect(kernel(0, kernel(0, g0)))
    return B1 * B2 + 2.0 * A * C - A * A * B3 - D


#: The 1/beta kernel of divergent_block, one cluster term per pair |x_i - x_j|
_BLOCK = parse_terms("""
    1/32 | 0 | 0 | 0 1 0
    1/32 | 0 | 0 | 0 1 0
    -1/16 | 0 | 0 | 0 1 0
""")


def divergent_block(p: Potential, g: QuadratureGrid):
    """(symmetrized value, unsymmetrized scale) of the fourth order's 1/beta kernel.

    The kernel (|x1-x2| + |x2-x3| - 2|x3-x4|)/32 has V at all four sites.
    Its pair terms are the cluster terms of _BLOCK, each a coefficient
    times (int V)^2 I, with I = int int V(x) V(y) |x-y| >= 0. The
    coefficients sum to zero, so the value, the terms' fsum, is 0; the
    scale is the fsum of their magnitudes, (int V)^2 I / 8. Both reuse
    the chains in the memo of plan(g, p).
    """
    terms = [evaluate_term(t, p, g) for t in _BLOCK]
    return math.fsum(terms), math.fsum(map(abs, terms))


__all__ = ["e4_finite_beta", "divergent_block"]
