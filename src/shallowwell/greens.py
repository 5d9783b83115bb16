"""Resolvent kernels of the regulator delta-well Hamiltonian.

H0 = -d^2/dx^2 - 2*beta*delta(x) has a single bound state
psi0(x) = sqrt(beta) e^{-beta|x|} with energy -beta^2 plus a continuum.
The reduced-resolvent kernel G_gamma(x1, x2) at shift gamma admits a
closed piecewise form in six regions (signs and ordering of x1, x2);
its gamma-Taylor coefficients G^(l) = <x1|Omega^{l+1}|x2> carry the
small-beta expansions used to assemble the finite-regulator fourth-order
energy. The 1/beta pieces of that assembly cancel identically; the
cancellation is demonstrated numerically here rather than re-proved.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateShift
from .potential import Potential
from .quadrature import QuadratureGrid, build_grid


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


def greens_expansion(l: int, beta: float, x1, x2):
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


def e4_finite_beta(p: Potential, g: QuadratureGrid, beta: float) -> float:
    """Fourth-order energy assembled from finite-regulator kernels.

    Uses the operator combination

        <V O V><V O^2 V> + 2<V><V O^2 V O V> - <V>^2 <V O^3 V>
        - <V O V O V O V>

    with O^{l+1} kernels given by greens_expansion(l) and expectation
    values taken in the regulator bound state psi0 = sqrt(beta)
    e^{-beta|x|}. The individual pieces diverge as powers of 1/beta but
    the combination is finite and tends to E(4) linearly in beta.
    """
    if not (1e-4 <= beta <= 0.1):
        raise ValueError("beta must lie in [1e-4, 0.1]")
    x, w = g.nodes, g.weights
    Vx = np.asarray(p.evaluate(x), dtype=float)
    ew = np.exp(-beta * np.abs(x))
    vend = w * Vx * ew
    vmid = w * Vx
    X1, X2 = x[:, None], x[None, :]
    M0 = greens_expansion(0, beta, X1, X2)
    M1 = greens_expansion(1, beta, X1, X2)
    M2 = greens_expansion(2, beta, X1, X2)
    A = beta * float(np.sum(w * Vx * ew * ew))
    B1 = beta * float(vend @ (M0 @ vend))
    B2 = beta * float(vend @ (M1 @ vend))
    B3 = beta * float(vend @ (M2 @ vend))
    C = beta * float(vend @ (M1 @ (vmid * (M0 @ vend))))
    D = beta * float(vend @ (M0 @ (vmid * (M0 @ (vmid * (M0 @ vend))))))
    return B1 * B2 + 2.0 * A * C - A * A * B3 - D


def divergent_block(p: Potential, n: int = 16):
    """The isolated 1/beta kernel of the fourth order, symmetrized.

    The kernel (|x1-x2| + |x2-x3| - 2|x3-x4|)/32 multiplies V at all
    four sites. Averaged over the 4! relabelings of the integration
    variables it vanishes identically; this evaluates both the
    symmetrized integral and the magnitude scale of the unsymmetrized
    pieces on an n-point tensor grid.

    Returns:
        (symmetrized value, unsymmetrized magnitude scale).
    """
    from numpy.polynomial.legendre import leggauss

    R = p.support_radius() + 1.0
    xs, ws = leggauss(n)
    x = R * xs
    wv = R * ws * np.asarray(p.evaluate(x), dtype=float)
    D = np.abs(x[:, None] - x[None, :])
    W4 = (
        wv[:, None, None, None]
        * wv[None, :, None, None]
        * wv[None, None, :, None]
        * wv[None, None, None, :]
    )

    def pair_kernel(a, b):
        shape = [1] * 4
        shape[a] = n
        shape[b] = n
        return np.broadcast_to(D.reshape(shape), (n, n, n, n))

    K12 = pair_kernel(0, 1)
    K23 = pair_kernel(1, 2)
    K34 = pair_kernel(2, 3)
    v12 = float(np.sum(W4 * K12)) / 32.0
    v23 = float(np.sum(W4 * K23)) / 32.0
    v34 = float(np.sum(W4 * K34)) / 32.0
    scale = abs(v12) + abs(v23) + 2.0 * abs(v34)

    sym = np.zeros((n, n, n, n))
    base = K12 + K23 - 2.0 * K34
    for perm in itertools.permutations(range(4)):
        sym += np.transpose(base, perm)
    sym /= math.factorial(4)
    value = float(np.sum(W4 * sym)) / 32.0
    return value, scale


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
    if l not in (0, 1, 2, 3):
        raise ValueError("l must lie in 0..3")
    h = step_scale * beta * beta
    t = np.arange(1, 7, dtype=float)
    vals = [greens_closed(GreensParams(beta, float(ti) * h), x1, x2) for ti in t]
    coeffs = np.polynomial.polynomial.polyfit(t, vals, 5)
    return (-1.0) ** l * coeffs[l] / h**l


__all__ = [
    "GreensParams",
    "greens_closed",
    "greens_spectral",
    "greens_expansion",
    "e4_finite_beta",
    "divergent_block",
    "greens_gamma_derivative",
]
