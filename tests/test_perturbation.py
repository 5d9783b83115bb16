import collections
import importlib.util
import math
from fractions import Fraction
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest

from shallowwell import perturbation, quadrature
from shallowwell.perturbation import (
    energy_series,
    evaluate_term,
    evaluate_terms,
    load_terms,
    parse_terms,
)
from shallowwell.potential import Potential
from shallowwell.quadrature import build_grid, contract, default_grid, integrate


# closed forms of orders 2-5, written directly on the quadrature
# primitives as an oracle independent of the term tables and the chain memo


def _mu0(p, g):
    return integrate(g, p.evaluate(g.nodes))


def _chain(p, g, *link_powers):
    f = np.ones_like(g.nodes)
    for k in reversed(link_powers):
        f = contract(g, p, k, 0, f)
    return integrate(g, p.evaluate(g.nodes) * f)


def _e2(p, g):
    mu0 = _mu0(p, g)
    return -mu0 * mu0 / 4.0


def _e3(p, g):
    return -(_mu0(p, g) / 4.0) * _chain(p, g, 1)


def _e4(p, g):
    mu0 = _mu0(p, g)
    c1 = _chain(p, g, 1)
    return (
        -(mu0 * mu0 / 16.0) * _chain(p, g, 2)
        - (mu0 / 8.0) * _chain(p, g, 1, 1)
        - c1 * c1 / 16.0
    )


def _e5(p, g):
    mu0 = _mu0(p, g)
    c1 = _chain(p, g, 1)
    return (
        -(mu0**3 / 96.0) * _chain(p, g, 3)
        - (mu0 * mu0 / 16.0) * _chain(p, g, 1, 2)
        - (mu0 / 16.0) * _chain(p, g, 1, 1, 1)
        - (mu0 / 16.0) * c1 * _chain(p, g, 2)
        - (c1 / 16.0) * _chain(p, g, 1, 1)
    )


_CLOSED_FORMS = {2: _e2, 3: _e3, 4: _e4, 5: _e5}


def _order(n, p, g):
    return evaluate_terms(load_terms(n), p, g)


# ---------------------------------------------------------------------------
# term tables


def test_table_sizes():
    assert [len(load_terms(n)) for n in (2, 3, 4, 5, 6)] == [1, 1, 3, 5, 46]


def test_table_degree_invariant():
    for order in (2, 3, 4, 5, 6):
        for t in load_terms(order):
            assert t.degree == order - 2


def test_parse_round_trip():
    text = "-3/8 | 1 1 0 2 2 | 3\n# comment\n"
    (t,) = parse_terms(text)
    assert t.coefficient == Fraction(-3, 8)
    assert t.chains == (((1, 0, 2), (1, 2)), ((3,), ()))
    assert t.degree == 9


def test_parse_rejects_degree_mismatch():
    assert parse_terms("-1/4 | 0 1 0", expected_degree=1)[0].degree == 1
    with pytest.raises(ValueError, match="degree 1 != expected 0"):
        parse_terms("-1/4 | 0 1 0", expected_degree=0)


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError):
        parse_terms("-1/4 | 0 0")


def test_shipped_tables_match_generator(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_term_tables.py"
    spec = importlib.util.spec_from_file_location("make_term_tables", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.DATA = tmp_path
    gen.main()
    shipped = resources.files("shallowwell") / "data"
    for order in (2, 3, 4, 5, 6):
        name = f"terms_order{order}.txt"
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_load_terms_rejects_unknown_order():
    with pytest.raises(ValueError):
        load_terms(7)


# ---------------------------------------------------------------------------
# chains and moments


def _term(text, p, g):
    """Value of one term written in the table syntax."""
    (t,) = parse_terms(text)
    return evaluate_term(t, p, g)


def _moment(p, g, k):
    """mu_k = integral of V(x) x^k dx on the grid: a one-site chain."""
    return _term(f"1 | {k}", p, g)


def test_moment_against_closed_form():
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    assert _moment(p, g, 0) == pytest.approx(-math.sqrt(math.pi), rel=1e-14)
    assert _moment(p, g, 1) == pytest.approx(0.0, abs=1e-15)
    assert _moment(p, g, 2) == pytest.approx(-math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_single_link_chain_matches_dense_tensor():
    p = Potential("gaussian", 1.0)
    g = build_grid(8.0, 64, 8)
    got = _term("1 | 0 1 0", p, g)
    x, w = g.nodes, g.weights
    v = w * p.evaluate(x)
    dense = v @ np.abs(x[:, None] - x[None, :]) @ v
    # dense tensor quadrature has no kink handling; agreement is modest
    assert got == pytest.approx(dense, rel=5e-4)


def test_chain_reversal_symmetry():
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    # sites x^2, 1, x linked by |.|^1 then |.|^2, and the same chain read backwards
    assert _term("1 | 2 1 0 2 1", p, g) == pytest.approx(_term("1 | 1 2 0 1 2", p, g), rel=1e-12)


# ---------------------------------------------------------------------------
# correction orders


@pytest.mark.parametrize(
    "p",
    [Potential("square_well", 1.0), Potential("poschl_teller", 1.0), Potential("gaussian", 1.0)],
    ids=["square_well", "poschl_teller", "gaussian"],
)
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_tables_match_closed_forms(order, p):
    g = default_grid(p)
    closed = _CLOSED_FORMS[order](p, g)
    assert _order(order, p, g) == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_homogeneity_in_strength(order):
    g = default_grid(Potential("gaussian", 1.0))
    lo = _order(order, Potential("gaussian", 0.7), g)
    hi = _order(order, Potential("gaussian", 1.4), g)
    assert hi == pytest.approx(2.0**order * lo, rel=1e-12)


def test_translation_invariance():
    # tabulated copies of the same profile, shifted by a whole number of
    # panels so that the quadrature nodes translate onto each other
    g = build_grid(16.0, 160, 8)  # panel width 0.2
    shift = 0.8
    xs = np.concatenate(([-16.0], g.nodes, [16.0]))
    shape_vals = np.exp(-(xs**2))
    p0 = Potential.tabulated(xs, -shape_vals)
    pd = Potential.tabulated(xs + shift, -shape_vals)
    for order in (2, 3, 4, 5, 6):
        v0 = _order(order, p0, g)
        vd = _order(order, pd, g)
        assert vd == pytest.approx(v0, rel=5e-9), f"order {order}"


def test_parity_of_odd_moments_in_series():
    # an even shape kills all odd single-site moments
    p = Potential("poschl_teller", 1.0)
    g = default_grid(p)
    assert _moment(p, g, 1) == pytest.approx(0.0, abs=1e-14)
    assert _moment(p, g, 3) == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# EnergySeries


def test_energy_series_structure(es_gaussian):
    assert es_gaussian.order == 6
    assert es_gaussian.coefficients[0] == 0.0
    assert es_gaussian.shape_kind == "gaussian"
    assert len(es_gaussian.error_estimates) == 6
    assert all(e < 1e-8 for e in es_gaussian.error_estimates)


def test_energy_series_evaluate_is_polynomial(es_gaussian):
    s = 0.3
    expected = math.fsum(
        c * s**n for n, c in enumerate(es_gaussian.coefficients, start=1)
    )
    assert es_gaussian.evaluate(s) == expected


def test_energy_series_shares_contractions(monkeypatch):
    # orders 2-6 hold 13 distinct chain suffixes; each is contracted
    # once per grid, on the coarse and on the fine grid. V is evaluated
    # only by the two plans, once each, at the nodes.
    calls, evaluations = [], []
    evaluate = Potential.evaluate

    def counting(*args, **kwargs):
        calls.append(args)
        return contract(*args, **kwargs)

    def counting_evaluate(self, x):
        evaluations.append(np.shape(x))
        return evaluate(self, x)

    monkeypatch.setattr(perturbation, "contract", counting)
    monkeypatch.setattr(Potential, "evaluate", counting_evaluate)
    energy_series(Potential("gaussian", 1.0), order=6)
    assert len(calls) == 26
    assert sorted(collections.Counter(args[0].P for args in calls).items()) == [(128, 13), (256, 13)]
    assert evaluations == [(1024,), (2048,)]


def test_chain_memo_belongs_to_one_grid_and_potential():
    # the chain memo lives in plan(g, p): a memo keyed on the grid alone would
    # give Poschl-Teller the Gaussian's chains, one keyed on the potential
    # alone the first grid's chains on the second
    terms = load_terms(4)
    gaussian, poschl_teller = Potential("gaussian", 1.0), Potential("poschl_teller", 1.0)
    g = build_grid(15.0, 256, 8)
    pairs = [(gaussian, g), (poschl_teller, g), (poschl_teller, build_grid(15.0, 16, 8))]
    quadrature.plan.cache_clear()
    in_turn = [evaluate_terms(terms, p, grid) for p, grid in pairs]
    alone = []
    for p, grid in pairs:
        quadrature.plan.cache_clear()
        alone.append(evaluate_terms(terms, p, grid))
    assert in_turn == alone
    assert len(set(alone)) == 3
    assert alone[1] == pytest.approx(-5.0, rel=1e-10)  # Poschl-Teller's E4 is -5


def test_energy_series_wide_square_well():
    # a halfwidth past every fixed radius: c_n = a^(2n-2) times the unit-well rationals
    a = 50.0
    es = energy_series(Potential("square_well", 1.0, a=a))
    assert es.coefficients[1] == pytest.approx(-a * a, rel=1e-14)
    unit = [Fraction(4, 3), Fraction(-92, 45), Fraction(1072, 315), Fraction(-84752, 14175)]
    for n, c in enumerate(unit, start=3):
        assert es.coefficients[n - 1] == pytest.approx(float(c) * a ** (2 * n - 2), rel=1e-13)


def test_energy_series_rejects_bad_order():
    with pytest.raises(ValueError):
        energy_series(Potential("gaussian", 1.0), order=7)


def test_energy_series_all_zero_for_zero_samples():
    p = Potential.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    es = energy_series(p, order=6)
    assert all(c == 0.0 for c in es.coefficients)


def test_error_estimates_cover_the_true_errors(es_square_well, es_gaussian):
    # the coarse/fine difference cannot see the rounding that both grids share, so each
    # estimate is floored at a few ulps of its coefficient; c1 is exactly 0 and keeps 0.
    # Exact: the unit square well's rationals, and the Gaussian's c2 = -pi/4 and
    # c3 = pi sqrt(2)/4 at 40 digits
    with mpmath.workdps(40):
        gaussian = [Fraction(str(-mpmath.pi / 4)), Fraction(str(mpmath.pi * mpmath.sqrt(2) / 4))]
    square = [Fraction(-1), Fraction(4, 3), Fraction(-92, 45), Fraction(1072, 315), Fraction(-84752, 14175)]
    for es, exact in ((es_square_well, square), (es_gaussian, gaussian)):
        assert es.error_estimates[0] == 0.0
        for c, estimate, want in zip(es.coefficients[1:], es.error_estimates[1:], exact):
            assert estimate >= abs(Fraction(c) - want) / abs(want), (c, estimate)
