import itertools
import math

import numpy as np
import pytest
from reference import (
    DegenerateShift,
    GreensParams,
    dense_e4_finite_beta,
    greens_closed,
    greens_expansion,
    greens_expansion_formula,
    greens_gamma_derivative,
    greens_spectral,
)

from shallowwell import greens, perturbation, quadrature
from shallowwell.errors import InvalidGridSpec
from shallowwell.greens import divergent_block, e4_finite_beta
from shallowwell.perturbation import evaluate_terms, load_terms
from shallowwell.potential import Potential
from shallowwell.quadrature import build_grid, default_grid


def test_params_validation():
    with pytest.raises(DegenerateShift):
        greens_closed(GreensParams(beta=1.0, gamma=0.0), 0.3, -0.2)


def test_symmetry_and_parity_at_random_points():
    rng = np.random.default_rng(7)
    for _ in range(100):
        beta = rng.uniform(0.2, 2.0)
        gamma = rng.uniform(0.05, 5.0)
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        gp = GreensParams(beta=beta, gamma=gamma)
        v = greens_closed(gp, x1, x2)
        assert greens_closed(gp, x2, x1) == pytest.approx(v, rel=1e-12, abs=1e-12)
        assert greens_closed(gp, -x1, -x2) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_spectral_cross_check():
    rng = np.random.default_rng(11)
    for _ in range(10):
        beta = rng.uniform(0.3, 1.5)
        gamma = rng.uniform(0.1, 4.0)
        x1, x2 = rng.uniform(-2.5, 2.5, size=2)
        gp = GreensParams(beta=beta, gamma=gamma)
        closed = greens_closed(gp, x1, x2)
        spectral = greens_spectral(gp, x1, x2)
        assert spectral == pytest.approx(closed, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize(
    "l,tol", [(0, 5e-2), (1, 1e-3), (2, 1e-3)]
)
def test_expansion_matches_gamma_derivatives(l, tol):
    # the l-th expansion kernel is the l-th Taylor coefficient in gamma of
    # the closed form; the l=0 comparison carries an O(beta) truncation
    beta = 0.02
    for x1, x2 in ((0.4, -0.7), (1.1, 0.6), (-0.3, -1.2)):
        expansion = float(greens_expansion(l, beta, x1, x2))
        derivative = greens_gamma_derivative(l, beta, x1, x2)
        assert derivative == pytest.approx(expansion, rel=tol)


def test_expansion_kernels_symmetric():
    rng = np.random.default_rng(3)
    for l in range(3):
        for _ in range(20):
            x1, x2 = rng.uniform(-2.0, 2.0, size=2)
            a = float(greens_expansion(l, 0.05, x1, x2))
            b = float(greens_expansion(l, 0.05, x2, x1))
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_expansion_table_matches_formula(l):
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(-4.0, 4.0, size=(2, 200))
    for beta in (0.02, 0.01, 0.005):
        table = greens_expansion(l, beta, x1, x2)
        formula = greens_expansion_formula(l, beta, x1, x2)
        assert np.max(np.abs(table - formula) / np.abs(formula)) <= 1e-12


def test_e4_finite_beta_grid_converged():
    # the kinks of |x1 - x2| are handled by contract() and those of |x| and
    # e^{-beta|x|} sit on the panel edge at 0, so 64 panels already converge
    p = Potential("gaussian", 1.0)
    L = default_grid(p).L
    for beta in (0.02, 0.01, 0.005):
        coarse = e4_finite_beta(p, build_grid(L, 64, 8), beta)
        fine = e4_finite_beta(p, build_grid(L, 256, 8), beta)
        assert abs(coarse - fine) <= 1e-10


def test_e4_finite_beta_matches_dense_richardson():
    # the dense panel rule converges at second order in the panel width
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    dense = [dense_e4_finite_beta(p, build_grid(g.L, P, g.q), 0.02) for P in (128, 256)]
    extrapolated = (4.0 * dense[1] - dense[0]) / 3.0
    assert abs(e4_finite_beta(p, g, 0.02) - extrapolated) <= 1e-8


def test_e4_finite_beta_rejects_odd_panel_count():
    p = Potential("gaussian", 1.0)
    with pytest.raises(InvalidGridSpec, match="129"):
        e4_finite_beta(p, build_grid(15.0, 129, 8), 0.02)


def test_e4_finite_beta_converges_to_e4():
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    limit = evaluate_terms(load_terms(4), p, g)
    res = [abs(e4_finite_beta(p, g, b) - limit) for b in (0.02, 0.01, 0.005)]
    assert res[0] > res[1] > res[2]
    # leading behavior is linear in beta: halving beta about halves the residual
    assert res[0] / res[1] == pytest.approx(2.0, rel=0.08)


def test_e4_finite_beta_rejects_bad_beta():
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    with pytest.raises(ValueError):
        e4_finite_beta(p, g, 0.5)


#: the wells of scripts/report_digest.py, at unit strength
_SECH2_X = np.linspace(1.3 - 12.0, 1.3 + 12.0, 2401)
DIGEST_WELLS = {
    "square": Potential("square_well", 1.0),
    "square-a0.7": Potential("square_well", 1.0, a=0.7),
    "poschl-teller": Potential("poschl_teller", 1.0),
    "gaussian": Potential("gaussian", 1.0),
    "sech2-x0-1.3": Potential.tabulated(_SECH2_X, -1.0 / np.cosh(_SECH2_X - 1.3) ** 2),
}


def test_divergent_block_cancels():
    # looped, not parametrized, so that the test keeps its id
    for name, p in DIGEST_WELLS.items():
        value, scale = divergent_block(p, default_grid(p))
        assert value == 0.0, name
        assert scale > 0.0, name


def test_divergent_block_kernel_averages_to_zero_pointwise():
    # the 1/beta kernel (times 32) summed over the 4! relabelings of
    # (x1, ..., x4) vanishes at every point, not only under the integral
    rng = np.random.default_rng(13)
    for x in rng.uniform(-3.0, 3.0, size=(200, 4)):
        terms = [
            abs(y[0] - y[1]) + abs(y[1] - y[2]) - 2.0 * abs(y[2] - y[3])
            for y in (x[list(perm)] for perm in itertools.permutations(range(4)))
        ]
        assert abs(math.fsum(terms)) <= 1e-15 * math.fsum(map(abs, terms))


def test_divergent_block_reuses_the_fourth_order_chains(monkeypatch):
    # greens-check evaluates the fourth order first; the block then finds
    # its chains, (0) and (0 1 0), in the memo of plan(g, p)
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    evaluate_terms(load_terms(4), p, g)
    calls = []
    for module in (perturbation, greens, quadrature):
        for name in ("contract", "integrate"):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    divergent_block(p, g)
    assert calls == []


@pytest.mark.parametrize(
    "kind, exact",
    [
        # (int V)^2 I / 8 with int e^{-x^2} = sqrt(pi), I = sqrt(2 pi)
        ("gaussian", math.pi * math.sqrt(2.0 * math.pi) / 8.0),
        # int sech^2 = 2, I = 4
        ("poschl_teller", 2.0),
        # the unit square well: int V = 2, I = 8/3
        ("square_well", 4.0 / 3.0),
    ],
    ids=["gaussian", "poschl_teller", "square_well"],
)
def test_divergent_block_scale_matches_closed_form(kind, exact):
    p = Potential(kind, 1.0)
    _, scale = divergent_block(p, default_grid(p))
    assert abs(scale - exact) <= 1e-13 * exact
