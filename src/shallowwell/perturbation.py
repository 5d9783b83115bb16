"""Energy corrections E(2)..E(6) as cluster-term sums.

Every correction order reduces to a sum of terms of the form

    coeff * (product of single-site moments mu_k) * (product of chains)

where a chain is the multi-variable integral of alternating potential
factors and |x_i - x_j|^k kernels along a simple path of sites (a
single-site moment is a one-site chain). Every order ships as a static
data table of ClusterTerms, so it can be audited and cross-checked term
by term; the tables are the only evaluation path. A chain is evaluated
by contracting kernels from its far end; chain values and those suffix
contractions are kept in the memo of quadrature.plan(g, p), so every
term and order on one (grid, potential) pair shares them.

Table dump format (one term per line, '#' comments):

    coeff | p1 p2 ... pn | i-j:k i-j:k ...

coeff is an exact rational, p1..pn are per-site polynomial powers (the
site count is the number of powers listed), and each link i-j:k stands
for a factor |x_i - x_j|^k. Links must form disjoint simple paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import NonPathComponent
from .potential import Potential
from .quadrature import QuadratureGrid, build_grid, contract, default_grid, integrate, plan


@dataclass(frozen=True)
class ClusterTerm:
    """One additive term of a correction order.

    coefficient: exact rational prefactor.
    site_powers: per-site exponent of x_i (length = site count).
    links: (i, j, k) factors |x_i - x_j|^k with 1-based site indices.
    """

    coefficient: Fraction
    site_powers: tuple
    links: tuple

    @property
    def site_count(self) -> int:
        return len(self.site_powers)

    @property
    def degree(self) -> int:
        return sum(self.site_powers) + sum(k for _, _, k in self.links)

    def components(self):
        """Split sites into link paths, in order of their first site.

        Returns a list of (sites, link_powers) pairs: each path is an
        ordered site tuple with the link powers along it, and an
        isolated site is a one-site path with no links.

        Raises:
            NonPathComponent: links branch or close a cycle.
        """
        n = self.site_count
        neighbors = {i: [] for i in range(1, n + 1)}
        power = {}
        for i, j, k in self.links:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise NonPathComponent(f"bad link endpoints ({i},{j}) for {n} sites")
            key = (min(i, j), max(i, j))
            if key in power:
                raise NonPathComponent(f"duplicate link {key}")
            neighbors[i].append(j)
            neighbors[j].append(i)
            power[key] = k
        for i, nb in neighbors.items():
            if len(nb) > 2:
                raise NonPathComponent(f"site {i} has {len(nb)} links (branching)")
        seen = set()
        paths = []
        for start in range(1, n + 1):
            if start in seen or len(neighbors[start]) == 2:
                continue  # interior of a path; reached from an endpoint
            path = [start]
            seen.add(start)
            cur, prev = start, None
            while True:
                nxt = [j for j in neighbors[cur] if j != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                path.append(cur)
                seen.add(cur)
            powers = [power[(min(a, b), max(a, b))] for a, b in zip(path, path[1:])]
            paths.append((tuple(path), tuple(powers)))
        if len(seen) != n:
            raise NonPathComponent("links contain a cycle")
        return paths


def parse_terms(text: str, expected_degree: int | None = None):
    """Parse the textual dump format into validated ClusterTerms."""
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != 3:
            raise ValueError(f"malformed term line: {raw!r}")
        coeff = Fraction(fields[0])
        powers = tuple(int(tok) for tok in fields[1].split())
        links = []
        for tok in fields[2].split():
            sites, _, kpow = tok.partition(":")
            i, _, j = sites.partition("-")
            links.append((int(i), int(j), int(kpow)))
        term = ClusterTerm(coeff, powers, tuple(links))
        term.components()  # path validation
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
    _, _, memo = plan(g, p)
    key = ("suffix", site_powers, link_powers)
    if key not in memo:
        tail = _suffix(p, g, site_powers[1:], link_powers[1:])
        memo[key] = contract(g, p, link_powers[0], site_powers[0], tail)
    return memo[key]


def _chain(p, g, site_powers, link_powers) -> float:
    """Chain integral with x^m weights attached at each site."""
    V, _, memo = plan(g, p)
    key = ("chain", site_powers, link_powers)
    if key not in memo:
        f = _suffix(p, g, site_powers[1:], link_powers)
        memo[key] = integrate(g, V * g.nodes ** site_powers[0] * f)
    return memo[key]


def evaluate_term(t: ClusterTerm, p: Potential, g: QuadratureGrid) -> float:
    """coefficient x product of component factors of one ClusterTerm.

    Its chains are memoized in plan(g, p), shared by every call on the pair.
    """
    value = float(t.coefficient)
    for path, link_powers in t.components():
        powers = tuple(t.site_powers[s - 1] for s in path)
        # a chain read backwards is the same integral; canonicalize for the memo
        if (powers[::-1], link_powers[::-1]) < (powers, link_powers):
            powers, link_powers = powers[::-1], link_powers[::-1]
        value *= _chain(p, g, powers, link_powers)
    return value


def evaluate_terms(terms, p: Potential, g: QuadratureGrid) -> float:
    """Compensated sum of evaluate_term over terms."""
    return math.fsum(evaluate_term(t, p, g) for t in terms)


@dataclass(frozen=True)
class EnergySeries:
    """Coefficients c1..c_order of E(s) ~ sum c_n s^n for a unit shape.

    error_estimates holds per-coefficient relative coarse/fine grid
    discrepancies (0.0 for the identically-zero c1).
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
    error estimate from a coarse/fine grid pair (P vs 2P); the fine-grid
    values are the ones reported.
    """
    if order not in (2, 3, 4, 5, 6):
        raise ValueError(f"order must lie in 2..6, got {order}")
    unit = replace(p, s=1.0)
    if g is None:
        g = default_grid(unit)
    g_fine = build_grid(g.L, 2 * g.P, g.q)
    tables = [load_terms(n) for n in range(2, order + 1)]
    coarse = [evaluate_terms(terms, unit, g) for terms in tables]
    fine = [evaluate_terms(terms, unit, g_fine) for terms in tables]
    estimates = [0.0]
    for c, f in zip(coarse, fine):
        scale = max(abs(f), 1e-300)
        estimates.append(abs(f - c) / scale)
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
