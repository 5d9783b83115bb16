"""Regenerate the embedded cluster-term tables.

The sixth-order correction is a sum of three structural blocks:

  (a) a 4-variable monomial kernel times two extra bare-potential
      factors (so 6 sites, the last two isolated);
  (b) quadratic difference prefactors (x_i - x_j)(x_k - x_l) multiplying
      the kernels |x1-x2||x2-x3| and |x1-x2||x3-x4| over 6 sites;
  (c) pure chain terms with unit link powers.

Block (b) is stored here as the list of (coefficient, (i,j), (k,l))
prefactors; this script expands each quadratic into its four monomials,
attaches the resulting site powers, merges identical terms, and writes
each term as its chains, the runs of linked neighbouring sites, to the
per-term dump consumed by shallowwell.perturbation.load_terms.

Run from the repository root:

    python scripts/make_term_tables.py
"""
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "shallowwell" / "data"

HEADER = """\
# shallowwell cluster-term table, order {order}
# format: coeff | chain | chain ...
# a chain lists site powers m and link powers k alternately, m1 k1 m2 k2 m3,
# for the integral of prod V(x_i) x_i^m_i times prod |x_i - x_(i+1)|^k_i
"""


def fmt_term(coeff, powers, links):
    """coeff | chain | chain ...: the runs of linked neighbouring sites, in site order."""
    if any(j != i + 1 for i, j, _ in links):
        raise ValueError(f"links {links} join sites that are not neighbours")
    link = {i: k for i, _, k in links}
    chains, chain = [], []
    for site, m in enumerate(powers, start=1):
        chain.append(m)
        if site in link:
            chain.append(link[site])
        else:
            chains.append(" ".join(map(str, chain)))
            chain = []
    return " | ".join([str(coeff), *chains])


def write_table(order, terms):
    lines = [HEADER.format(order=order)]
    lines += [fmt_term(*t) for t in terms]
    path = DATA / f"terms_order{order}.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(terms)} terms)")


def expand_quadratic_block(table, links, sites=6):
    """Expand (x_i - x_j)(x_k - x_l) prefactors into monomial terms."""
    merged = defaultdict(F)
    for coeff, (i, j), (k, l) in table:
        for s1, site1 in ((1, i), (-1, j)):
            for s2, site2 in ((1, k), (-1, l)):
                powers = [0] * sites
                powers[site1 - 1] += 1
                powers[site2 - 1] += 1
                merged[(tuple(powers), links)] += coeff * s1 * s2
    return [
        (coeff, powers, links)
        for (powers, links), coeff in sorted(merged.items())
        if coeff != 0
    ]


def main():
    DATA.mkdir(exist_ok=True)

    write_table(2, [(F(-1, 4), (0, 0), ())])
    write_table(3, [(F(-1, 4), (0, 0, 0), ((2, 3, 1),))])
    write_table(4, [
        (F(-1, 16), (0, 0, 0, 0), ((3, 4, 2),)),
        (F(-1, 8), (0, 0, 0, 0), ((2, 3, 1), (3, 4, 1))),
        (F(-1, 16), (0, 0, 0, 0), ((1, 2, 1), (3, 4, 1))),
    ])
    write_table(5, [
        (F(-1, 96), (0,) * 5, ((4, 5, 3),)),
        (F(-1, 16), (0,) * 5, ((3, 4, 1), (4, 5, 2))),
        (F(-1, 16), (0,) * 5, ((2, 3, 1), (3, 4, 1), (4, 5, 1))),
        (F(-1, 16), (0,) * 5, ((2, 3, 1), (4, 5, 2))),
        (F(-1, 16), (0,) * 5, ((1, 2, 1), (3, 4, 1), (4, 5, 1))),
    ])

    # ---- sixth order ----------------------------------------------------
    terms = []

    # block (a): monomial kernel on sites 1-4, sites 5-6 isolated bare factors
    block_a = [
        (F(-1, 96), (4, 0, 0, 0)),
        (F(1, 24), (3, 1, 0, 0)),
        (F(-5, 64), (2, 2, 0, 0)),
        (F(3, 32), (2, 1, 1, 0)),
        (F(-3, 64), (1, 1, 1, 1)),
    ]
    for coeff, powers in block_a:
        terms.append((coeff, powers + (0, 0), ()))

    # block (b): quadratic difference prefactors times two unit kernels
    b1 = [
        (F(-1, 48), (1, 2), (1, 2)), (F(-1, 32), (2, 3), (1, 2)),
        (F(-1, 32), (3, 4), (1, 2)), (F(-1, 48), (4, 5), (1, 2)),
        (F(-1, 96), (5, 6), (1, 2)), (F(-1, 48), (2, 3), (2, 3)),
        (F(-1, 32), (3, 4), (3, 4)), (F(-1, 24), (4, 5), (4, 5)),
        (F(-1, 32), (5, 6), (5, 6)), (F(-1, 32), (2, 3), (3, 4)),
        (F(-1, 48), (2, 3), (4, 5)), (F(-1, 24), (3, 4), (4, 5)),
        (F(-1, 96), (2, 3), (5, 6)), (F(-1, 48), (3, 4), (5, 6)),
        (F(-1, 24), (4, 5), (5, 6)),
    ]
    b2 = [
        (F(-1, 32), (1, 2), (1, 2)), (F(-3, 64), (2, 3), (1, 2)),
        (F(-5, 128), (3, 4), (1, 2)), (F(-1, 32), (4, 5), (1, 2)),
        (F(-1, 64), (5, 6), (1, 2)), (F(-3, 64), (2, 3), (2, 3)),
        (F(-1, 16), (3, 4), (3, 4)), (F(-1, 16), (4, 5), (4, 5)),
        (F(-3, 64), (5, 6), (5, 6)), (F(-5, 64), (2, 3), (3, 4)),
        (F(-1, 16), (2, 3), (4, 5)), (F(-3, 32), (3, 4), (4, 5)),
        (F(-1, 32), (2, 3), (5, 6)), (F(-3, 64), (3, 4), (5, 6)),
        (F(-1, 16), (4, 5), (5, 6)),
    ]
    terms += expand_quadratic_block(b1, ((1, 2, 1), (2, 3, 1)))
    terms += expand_quadratic_block(b2, ((1, 2, 1), (3, 4, 1)))

    # block (c): pure unit-power chains
    terms += [
        (F(-1, 32), (0,) * 6, ((2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1))),
        (F(-1, 64), (0,) * 6, ((1, 2, 1), (2, 3, 1), (4, 5, 1), (5, 6, 1))),
        (F(-1, 32), (0,) * 6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (5, 6, 1))),
    ]

    write_table(6, terms)


if __name__ == "__main__":
    main()
