"""Pade machinery, including the asymptote-subtracted resummation.

The raw sixth-order series diverges from the true energy once the
coupling is order one. Splitting off the deep-well asymptote E -> -s
(for a unit-peak shape) and Pade-resumming the remainder produces a
rational model that tracks the exact energy into the strong-coupling
regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleAtEvaluation, SingularPade
from .perturbation import EnergySeries

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant alpha*s + p(s)/q(s).

    numerator: p coefficients (p0, p1, ..., pm).
    denominator: q coefficients (1, q1, ..., qn); leading 1 exact.
    alpha: linear asymptote offset (0 for a plain Pade).
    """

    numerator: tuple
    denominator: tuple
    alpha: float = 0.0

    def __post_init__(self):
        if self.denominator[0] != 1.0:
            raise ValueError("denominator must be normalized to leading 1")


def pade(coefficients, m: int, n: int) -> PadeApproximant:
    """Standard [m/n] Pade of a Taylor series c0..c_{m+n}.

    Solves the n x n Hankel-type linear system for the denominator, then
    convolves for the numerator.

    Raises:
        SingularPade: the linear system is rank deficient beyond 1e-12
            (degenerate series; the caller may reduce n).
    """
    c = [float(v) for v in coefficients]
    if len(c) < m + n + 1:
        raise ValueError(f"need {m + n + 1} coefficients for [{m}/{n}], got {len(c)}")
    if n == 0:
        return PadeApproximant(tuple(c[: m + 1]), (1.0,))
    A = np.zeros((n, n))
    b = np.zeros(n)
    for row, k in enumerate(range(m + 1, m + n + 1)):
        for i in range(1, n + 1):
            A[row, i - 1] = c[k - i] if 0 <= k - i < len(c) else 0.0
        b[row] = -c[k]
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= _SINGULAR_TOL * max(sv[0], 1.0):
        raise SingularPade(
            f"denominator system is rank deficient (singular values {sv})"
        )
    q = np.concatenate(([1.0], np.linalg.solve(A, b)))
    p = [
        math.fsum(q[i] * c[j - i] for i in range(0, min(j, n) + 1))
        for j in range(m + 1)
    ]
    return PadeApproximant(tuple(p), tuple(q))


def evaluate_pade(pa: PadeApproximant, s: float) -> float:
    """alpha*s + p(s)/q(s).

    Where p(s) or q(s) overflows, the ratio is t^d p(1/t) / t^d q(1/t) in
    t = 1/s, d the larger degree: polynomials with reversed coefficients.

    Raises:
        PoleAtEvaluation: the denominator vanishes at s (relative to the
            numerator scale).
    """
    polyval = np.polynomial.polynomial.polyval
    with np.errstate(over="ignore"):
        p, q = polyval(s, pa.numerator), polyval(s, pa.denominator)
    if not (math.isfinite(p) and math.isfinite(q)):
        d = max(len(pa.numerator), len(pa.denominator))
        p, q = (polyval(1.0 / s, (*c, *[0.0] * (d - len(c)))[::-1])
                for c in (pa.numerator, pa.denominator))
    if abs(q) < 1e-12 * (abs(p) + 1.0):
        raise PoleAtEvaluation(f"denominator vanishes at s = {s:g}")
    return pa.alpha * s + p / q


def pade_with_asymptote(es: EnergySeries, depth_coefficient: float) -> PadeApproximant:
    """Deep-well-aware resummation of a sixth-order energy series.

    Sets alpha = -depth_coefficient (the E -> -s*shape_max() asymptote
    per unit strength), divides the remainder E - alpha*s by one power of s,
    and [2/3]-Pade-resums the resulting five-coefficient series. The
    returned approximant stores the re-multiplied s so that its rational
    part is a degree-3 over degree-3 function of s vanishing at 0.

    The Pade is taken in t = 2^k s, with k = round(log2|c2|), and its
    coefficients scaled back to s. A well of width a has c_n ~ a^(2n-2), so
    in s the rank test would judge the unit of s, not the series. Both
    scalings are exact powers of two; k = 0, the plain Pade in s, wherever
    2^-0.5 <= |c2| <= 2^0.5, as on every built-in unit well.
    """
    if es.order < 6:
        raise ValueError("asymptote-subtracted resummation needs c1..c6")
    c = es.coefficients
    alpha = -float(depth_coefficient)
    shifted = [c[0] - alpha] + [c[i] for i in range(1, 6)]
    c2 = abs(float(c[1]))
    k = round(math.log2(c2)) if 0.0 < c2 < math.inf else 0
    inner = pade([math.ldexp(d, -k * j) for j, d in enumerate(shifted)], 2, 3)
    return PadeApproximant(
        numerator=(0.0, *(math.ldexp(v, k * i) for i, v in enumerate(inner.numerator))),
        denominator=tuple(math.ldexp(v, k * i) for i, v in enumerate(inner.denominator)),
        alpha=alpha,
    )


__all__ = ["PadeApproximant", "pade", "evaluate_pade", "pade_with_asymptote"]
