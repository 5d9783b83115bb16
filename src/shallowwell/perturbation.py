"""Energy corrections E(2)..E(6) as cluster-term sums.

Every correction order reduces to a sum of terms of the form

    coeff * (product of chains)

where a chain is the multi-variable integral of alternating potential
factors and |x_i - x_(i+1)|^k kernels along a path of sites (a
single-site moment is a one-site chain). Every order ships as a static
data table of ClusterTerms, so it can be audited and cross-checked term
by term; the tables are the only evaluation path. A chain is evaluated
by contracting kernels from its far end; chain values and those suffix
contractions are kept in the memo of quadrature.plan(g, p), so every
term and order on one (grid, potential) pair shares them.

Table dump format (one term per line, '#' comments):

    coeff | m1 k1 m2 k2 m3 | m1 | ...

coeff is an exact rational and each further field is one chain: its
site powers m_i and link powers k_i alternately, so an odd number of
integers, a lone site being just m. The chain stands for the integral of
prod_i V(x_i) x_i^m_i times prod_i |x_i - x_(i+1)|^k_i.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ShallowWellError
from .potential import Potential
from .quadrature import QuadratureGrid, build_grid, contract, default_grid, integrate, plan

#: ulps of c_n below which no error estimate falls: the rounding that the
#: coarse and fine grids share, which their difference cannot see (the
#: fewest that cover the built-in wells' exact c2..c6)
_ULPS = 5


@dataclass(frozen=True)
class ClusterTerm:
    """One additive term of a correction order: coefficient x product of chains.

    coefficient: exact rational prefactor.
    chains: (site_powers, link_powers) pairs, one per chain: the exponents
        m of x_i at its sites and k of |x_i - x_(i+1)| along its links,
        one link fewer than sites.
    """

    coefficient: Fraction
    chains: tuple

    @property
    def degree(self) -> int:
        return sum(sum(m) + sum(k) for m, k in self.chains)


def parse_terms(text: str, expected_degree: int | None = None):
    """Parse the textual dump format into validated ClusterTerms."""
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        coeff, *fields = line.split("|")
        chains = [tuple(int(tok) for tok in field.split()) for field in fields]
        if not chains or any(len(c) % 2 == 0 for c in chains):
            raise ValueError(f"malformed term line: {raw!r}")
        term = ClusterTerm(Fraction(coeff), tuple((c[0::2], c[1::2]) for c in chains))
        if expected_degree is not None and term.degree != expected_degree:
            raise ValueError(
                f"term degree {term.degree} != expected {expected_degree}: {raw!r}"
            )
        terms.append(term)
    return tuple(terms)


@lru_cache(maxsize=None)
def load_terms(order: int):
    """Load the shipped term table for one correction order (2..6).

    The stored per-term degree rule is degree = order - 2: each extra
    power of the coupling beyond second order brings one power of length
    from either a kernel or a site monomial.
    """
    if order not in (2, 3, 4, 5, 6):
        raise ValueError(f"no term table for order {order}")
    text = (
        resources.files("shallowwell")
        .joinpath(f"data/terms_order{order}.txt")
        .read_text()
    )
    return parse_terms(text, expected_degree=order - 2)


def _suffix(p, g, site_powers, link_powers) -> np.ndarray:
    """Grid function of a chain's tail, contracted from the far end.

    site_powers and link_powers are the powers remaining after the head
    site; chains that end the same way share this function in the memo.
    """
    if not link_powers:
        return np.ones_like(g.nodes)
    _, memo = plan(g, p)
    key = ("suffix", site_powers, link_powers)
    if key not in memo:
        tail = _suffix(p, g, site_powers[1:], link_powers[1:])
        memo[key] = contract(g, p, link_powers[0], site_powers[0], tail)
    return memo[key]


def _chain(p, g, site_powers, link_powers) -> float:
    """Chain integral with x^m weights attached at each site."""
    V, memo = plan(g, p)
    key = ("chain", site_powers, link_powers)
    if key not in memo:
        f = _suffix(p, g, site_powers[1:], link_powers)
        memo[key] = integrate(g, V * g.nodes ** site_powers[0] * f)
    return memo[key]


def evaluate_term(t: ClusterTerm, p: Potential, g: QuadratureGrid) -> float:
    """coefficient x product of the chains of one ClusterTerm, in table order.

    Its chains are memoized in plan(g, p), shared by every call on the pair.
    """
    value = float(t.coefficient)
    for powers, link_powers in t.chains:
        # a chain read backwards is the same integral; canonicalize for the memo
        if (powers[::-1], link_powers[::-1]) < (powers, link_powers):
            powers, link_powers = powers[::-1], link_powers[::-1]
        value *= _chain(p, g, powers, link_powers)
    return value


def evaluate_terms(terms, p: Potential, g: QuadratureGrid) -> float:
    """Compensated sum of evaluate_term over terms."""
    return math.fsum(evaluate_term(t, p, g) for t in terms)


def normal_coefficient(n: int, c: float, p: Potential) -> float:
    """c, the c_n (n >= 2) of p's shape; outside __all__, so tracing adds no span.

    Raises:
        ShallowWellError: p is nonzero and c, below the normal floats, underflowed.
    """
    if abs(c) < sys.float_info.min and p.shape_max() > 0:
        raise ShallowWellError(f"c{n} underflows to {c:.9g}, below the normal floats")
    return c


@dataclass(frozen=True)
class EnergySeries:
    """Coefficients c1..c_order of E(s) ~ sum c_n s^n for a unit shape.

    error_estimates holds per-coefficient relative coarse/fine grid
    discrepancies, each at least _ULPS ulps of its coefficient (0.0 for
    the identically-zero c1).
    """

    coefficients: tuple
    shape_kind: str
    grid_spec: tuple
    error_estimates: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def evaluate(self, s: float) -> float:
        return math.fsum(c * s**n for n, c in enumerate(self.coefficients, start=1))


def energy_series(p: Potential, order: int = 6, g: QuadratureGrid | None = None) -> EnergySeries:
    """Weak-coupling series of the bound-state energy for p's shape.

    The coefficients are computed at unit strength (they depend on the
    shape only); E(s) ~ sum c_n s^n. Each coefficient carries a relative
    error estimate from a coarse/fine grid pair (P vs 2P), floored at
    _ULPS ulps of the coefficient for the rounding both grids share; the
    fine-grid values are the ones reported.

    Raises:
        ShallowWellError: a c_n underflowed (normal_coefficient).
    """
    if order not in (2, 3, 4, 5, 6):
        raise ValueError(f"order must lie in 2..6, got {order}")
    unit = replace(p, s=1.0)
    if g is None:
        g = default_grid(unit)
    g_fine = build_grid(g.L, 2 * g.P, g.q)
    tables = [load_terms(n) for n in range(2, order + 1)]
    coarse = [evaluate_terms(terms, unit, g) for terms in tables]
    fine = [normal_coefficient(n, evaluate_terms(terms, unit, g_fine), p)
            for n, terms in enumerate(tables, start=2)]
    estimates = [0.0]
    for c, f in zip(coarse, fine):
        scale = max(abs(f), 1e-300)
        estimates.append(max(abs(f - c), _ULPS * math.ulp(f)) / scale)
    return EnergySeries(
        coefficients=(0.0, *fine),
        shape_kind=p.kind,
        grid_spec=(g.L, g.P, g.q),
        error_estimates=tuple(estimates),
    )


__all__ = [
    "ClusterTerm",
    "EnergySeries",
    "parse_terms",
    "load_terms",
    "evaluate_term",
    "evaluate_terms",
    "energy_series",
]
