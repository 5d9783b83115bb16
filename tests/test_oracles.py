import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from reference import (
    carry_batch,
    count_bisection,
    erf_reference,
    exact_poschl_teller,
    exact_square_well,
    fit_series_coefficients,
    gaussian_closed_coefficients,
    scan_search_sweep,
    vectorized_search_sweep,
    wronskian_pairs,
    wronskian_steps,
)

from shallowwell.errors import BracketFailure
from shallowwell.oracles import _carry, _cosh_sinhc, _WronskianEngine, shooting_sweep
from shallowwell.potential import Potential

#: abscissas of an off-centre sech^2 well, x0 = 1.3 +- 12
_SECH2_X = np.linspace(-10.7, 13.3, 2401)
#: strengths of the solve reports compared across search methods
_S_LADDER = (0.1, 0.37, 1.0, 2.5, 4.0, 30.0, 300.0)

# transcendental square-well levels frozen from an independent bisection
_SQUARE_WELL_FROZEN = {
    (1.0, 1.0): -0.4537531658603282,
    (5.0, 0.5): -2.5144309772746936,
}


def _solve(p, nsteps=4000):
    """p's ground state at its own strength: the result of a one-strength sweep."""
    (result,) = shooting_sweep(p, [p.s], nsteps=nsteps)
    return result


def test_exact_square_well_frozen_values():
    for (s, a), energy in _SQUARE_WELL_FROZEN.items():
        assert exact_square_well(s, a=a) == pytest.approx(energy, rel=1e-12)


def test_exact_square_well_shallow_limit():
    # E -> -(s*a)^2 for s*a^2 -> 0 (delta-like limit with integral 2*a*s)
    s = 1e-4
    assert exact_square_well(s, a=1.0) == pytest.approx(-(s**2), rel=2e-2)


def test_exact_square_well_narrow_shallow_level():
    # at a = 1e-5 the level kappa^2 ~ (s a)^2 is 4e-10 of s, where s - k^2
    # cancels; the weak-coupling series sum c_n s^n a^(2n-2), with the exact
    # unit-well rationals, converges there far below rounding
    s, a = 2.5, 1e-5
    rationals = (Fraction(-1), Fraction(4, 3), Fraction(-92, 45), Fraction(1072, 315),
                 Fraction(-84752, 14175))
    x, y = Fraction(s), Fraction(a)
    series = float(sum(c * x**n * y ** (2 * n - 2) for n, c in enumerate(rationals, start=2)))
    assert abs(exact_square_well(s, a=a) - series) <= 1e-12 * abs(series)


def test_exact_poschl_teller_closed_form():
    assert exact_poschl_teller(2.0) == pytest.approx(-1.0, rel=1e-15)
    assert exact_poschl_teller(6.0) == pytest.approx(-4.0, rel=1e-15)
    s = 0.37
    kappa = (math.sqrt(1.0 + 4.0 * s) - 1.0) / 2.0
    assert exact_poschl_teller(s) == pytest.approx(-(kappa**2), rel=1e-14)


@pytest.mark.parametrize(
    "p,exact",
    [
        (Potential("square_well", 1.0, a=1.0), _SQUARE_WELL_FROZEN[(1.0, 1.0)]),
        (Potential("poschl_teller", 2.0), -1.0),
    ],
)
def test_shooting_matches_exact(p, exact):
    res = _solve(p)
    assert res.energy == pytest.approx(exact, rel=1e-9)
    assert res.residual < 1e-10
    assert res.bracket[0] <= res.energy <= res.bracket[1]


@pytest.mark.parametrize("s,a", sorted(_SQUARE_WELL_FROZEN))
def test_shooting_square_well_exact_on_snapped_steps(s, a):
    # the well edges +-a are step ends, so every step is a constant-coefficient
    # propagator and even a coarse grid is exact to roundoff
    res = _solve(Potential("square_well", s, a=a), nsteps=250)
    assert res.energy == pytest.approx(_SQUARE_WELL_FROZEN[(s, a)], rel=1e-12)
    assert res.residual < 1e-10


def test_shooting_uneven_well_matches_its_mirror_image():
    # off-centre sech^2: the right half-line is the reversed tail of the grid
    x = np.linspace(-10.7, 13.3, 2401)
    v = -1.0 / np.cosh(x - 1.3) ** 2
    p = Potential.tabulated(x, v, s=1.5)
    mirror = Potential.tabulated(-x[::-1], v[::-1], s=1.5)
    assert _solve(mirror).energy == pytest.approx(_solve(p).energy, rel=1e-13)


@pytest.mark.parametrize(
    "p",
    [Potential("square_well", 1.0), Potential("poschl_teller", 1.0), Potential("gaussian", 1.0)],
    ids=["square_well", "poschl_teller", "gaussian"],
)
def test_search_matches_scan_oracle(p):
    # the scan, 64-point rounds and polish of the replaced search, on the same engine
    for s, ref in zip(_S_LADDER, scan_search_sweep(p, _S_LADDER)):
        res = _solve(replace(p, s=s))
        assert res.energy == pytest.approx(ref.energy, rel=1e-13)
        assert res.residual <= 1e-13
        assert res.iterations <= 20


def test_batched_sweep_matches_scan_oracle():
    s_values = np.linspace(0.1, 3.0, 30)
    p = Potential("gaussian", 1.0)
    for res, ref in zip(shooting_sweep(p, s_values), scan_search_sweep(p, s_values)):
        assert res.energy == pytest.approx(ref.energy, rel=1e-13)


@pytest.mark.parametrize("x0,s", [(1.3, 30.0), (1.3, 300.0), (1.9498, 30.0)])
def test_deep_off_centre_well_matches_count_bisection(x0, s):
    # matched in the core of the well, W varies smoothly with kappa at its root
    x = np.linspace(x0 - 12.0, x0 + 12.0, 2401)
    p = Potential.tabulated(x, -1.0 / np.cosh(x - x0) ** 2, s=s)
    res = _solve(p)
    assert res.energy == pytest.approx(count_bisection(p, [s])[0], rel=1e-12)
    assert res.residual <= 1e-12


@pytest.mark.parametrize(
    "p",
    [
        Potential("square_well", 1.0, a=0.5),
        Potential("poschl_teller", 1.0),
        Potential("gaussian", 1.0),
        Potential.tabulated(_SECH2_X, -1.0 / np.cosh(_SECH2_X - 1.3) ** 2),
    ],
    ids=["square_well", "poschl_teller", "gaussian", "tabulated"],
)
def test_sweep_matches_count_bisection_at_random_strengths(p):
    # one sweep from shallow to deep: its strengths take different numbers of passes
    s = np.exp(np.random.default_rng(11).uniform(math.log(0.02), math.log(3000.0), 12))
    results = shooting_sweep(p, s)
    energies = np.array([r.energy for r in results])
    assert np.all(np.abs(energies / count_bisection(p, s) - 1.0) <= 1e-12)
    assert max(r.residual for r in results) <= 1e-12
    for r in results:
        assert r.bracket[0] <= r.energy <= r.bracket[1]


#: a tabulated triangle of halfwidth 1e20: each of its 4,000 steps is about 2.5e16 wide
_WIDE_TRIANGLE = Potential.tabulated([-1e20, 0.0, 1e20], [0.0, -1.0, 0.0])
#: strengths at every edge of the search: refused, underflowing, shallow, deep, beyond any grid
_EDGE_S = (0.0, -0.0, 1e-300, 1e-13, 1e10, 1e12, 1e20, 1e30, 1e300, 5e149)


def _bits(result):
    """A search's outcome as exact bits: a failure's text, or a result's hex floats and passes."""
    if isinstance(result, BracketFailure):
        return str(result)
    floats = (result.energy, result.residual, *result.bracket)
    return [x.hex() for x in floats], result.iterations


@pytest.mark.parametrize(
    "p, s_values",
    [
        (_WIDE_TRIANGLE, _EDGE_S),
        (Potential("gaussian", 1.0), (1e-13, 0.5, 1e12, 1e20)),
        (Potential("square_well", 1.0, a=0.05), np.geomspace(1e-3, 1e6, 3)),
        (Potential("poschl_teller", 1.0), (3.0,)),
        (Potential.tabulated(_SECH2_X, -1.0 / np.cosh(_SECH2_X - 1.3) ** 2), (0.7, 20.0)),
    ],
    ids=["wide-triangle-edges", "gaussian-shallow-to-deep", "square-well-a0.05", "poschl-teller",
         "tabulated"],
)
def test_sweep_matches_vectorized_search_bit_for_bit(p, s_values):
    # the one-strength searches make the passes of the array code they replaced: the
    # same kappas, each passed to the engine alone, so the same W, N and outcomes, to the
    # bit; only a search failure where a step spans over pi/2 of sqrt(s * shape_max) reads
    # differently
    h = _WronskianEngine(p).h
    with np.errstate(all="ignore"):
        got, want = shooting_sweep(p, s_values), vectorized_search_sweep(p, s_values)
    for s, res, ref in zip(s_values, got, want):
        unresolved = s > 0.0 and h * math.sqrt(s * p.shape_max()) > math.pi / 2
        if unresolved and str(ref).startswith(("no Wronskian", "no level")):
            ref = BracketFailure(f"4000 steps do not resolve the well at s={s:g}")
        assert _bits(res) == _bits(ref), s


def test_failures_name_unresolved_steps():
    # phases h * sqrt(s * shape_max) of 2.5e16 and 3.75e3: the steps cannot count levels;
    # at 1.2e-9 the search's own cause stands
    with np.errstate(all="ignore"):
        wide, deep, shallow = (
            shooting_sweep(p, [s])[0]
            for p, s in ((_WIDE_TRIANGLE, 1.0), (Potential("gaussian", 1.0), 1e12),
                         (Potential("gaussian", 1.0), 1e-13))
        )
    assert str(wide) == "4000 steps do not resolve the well at s=1"
    assert str(deep) == "4000 steps do not resolve the well at s=1e+12"
    assert str(shallow) == "no Wronskian sign change for strength s=1e-13"


@pytest.mark.parametrize("kind", ["gaussian", "poschl_teller", "square_well"])
def test_unresolved_sweep_warns_nothing(kind):
    # passes through these wells overflow; the sweep keeps numpy's warnings in,
    # and its results are those of a sweep run with every warning ignored
    p, s_values = Potential(kind, 1.0), [1e12, 1e20, 1e300]
    with np.errstate(all="ignore"):
        quiet = shooting_sweep(p, s_values)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        loud = shooting_sweep(p, s_values)
    assert [str(r) for r in loud] == [str(r) for r in quiet]
    assert all(isinstance(r, BracketFailure) for r in loud)


def test_step_series_matches_cosh_and_cos():
    # beyond |t| = 0.05 the series is scaled by 4^k and doubled back k times
    r = np.geomspace(1e-6, math.sqrt(20.0), 400)
    for t, C_exact, S_exact in (
        (r * r, np.cosh(r), np.sinh(r) / r),
        (-r * r, np.cos(r), np.sin(r) / r),
    ):
        C, S = _cosh_sinhc(t)
        assert np.all(np.abs(C - C_exact) <= 1e-13 * np.maximum(1.0, np.abs(C_exact)))
        assert np.all(np.abs(S - S_exact) <= 1e-13 * np.maximum(1.0, np.abs(S_exact)))


def test_shooting_deep_poschl_teller():
    # |t| = h^2 s shape reaches ~0.1 here, so the step series is scaled and doubled back
    res = _solve(Potential("poschl_teller", 3000.0))
    assert res.energy == pytest.approx(exact_poschl_teller(3000.0), rel=2e-9)


def test_shooting_sweep_deep_poschl_teller():
    # dozens of levels lie below the lower end of the search at these depths
    s_values = [2000.0, 4000.0]
    results = shooting_sweep(Potential("poschl_teller", 1.0), s_values)
    for s, res in zip(s_values, results):
        assert res.energy == pytest.approx(exact_poschl_teller(s), rel=2e-9)


def test_shooting_sweep_deep_gaussian_matches_oscillator_limit():
    # -s exp(-x^2) ~ -s + s x^2 - s x^4 / 2: oscillator level plus its
    # first anharmonic shift, -s + sqrt(s) - 3/8 + O(1/sqrt(s))
    s_values = [5000.0, 1e4]
    results = shooting_sweep(Potential("gaussian", 1.0), s_values)
    for s, res in zip(s_values, results):
        assert abs(res.energy - (-s + math.sqrt(s) - 0.375)) < 1.0 / math.sqrt(s)


def test_level_count_on_deep_poschl_teller():
    # the levels of -s sech^2 sit at kappa_n = kappa_0 - n exactly
    s = 2000.0
    kappa0 = 0.5 * (math.sqrt(1.0 + 4.0 * s) - 1.0)
    kappas = [kappa0 + 0.5] + [kappa0 - n - 0.5 for n in range(5)]
    engine = _WronskianEngine(Potential("poschl_teller", 1.0))
    _, levels = wronskian_pairs(engine, [s] * len(kappas), kappas)
    assert levels.tolist() == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "p",
    [
        Potential("square_well", 1.0),
        Potential("poschl_teller", 1.0),
        Potential("gaussian", 1.0),
        Potential.tabulated(_SECH2_X, -1.0 / np.cosh(_SECH2_X - 1.3) ** 2),
    ],
    ids=["square_well", "poschl_teller", "gaussian", "tabulated"],
)
def test_sub_block_products_match_step_loop(p):
    # up to ~90 levels below -kappa^2 at s = 1e4: every zero of u must be
    # counted at sub-block ends exactly as at step ends
    rng = np.random.default_rng(7)
    engine = _WronskianEngine(p)
    for batch in (1, 3, 64, 160):
        s = np.exp(rng.uniform(math.log(0.05), math.log(1e4), batch))
        kappa = np.sqrt(s * p.shape_max()) * rng.uniform(0.0, 1.0, batch)
        W, N = wronskian_pairs(engine, s, kappa)
        W_ref, N_ref = wronskian_steps(engine, s, kappa)
        assert N.tolist() == N_ref.tolist()
        assert np.max(np.abs(W - W_ref)) <= 1e-13


def test_scalar_carry_matches_batch_carry_bit_for_bit():
    # the same sub-block products through the carry of a whole batch of columns and,
    # column by column, through the carry in Python floats: u, u' and the counts agree
    # to the bit, NaN payloads and signed zeros included
    rng = np.random.default_rng(5)
    runs = 40
    prods = rng.normal(size=(2, 2, 8, runs))
    prods[0, 1, 1, 10] = np.inf
    prods[1, 1, 2, 20] = -np.inf
    prods[0, 0, 0, -1] = prods[1, 0, 3, -1] = np.nan  # u, or u' alone, turns NaN: so does r
    prods[:, :, 4, 30] = 0.0  # r = 0, so u = u' = 0/0
    # sign flips and signed zeros: u' stays a zero whose sign the sums decide
    prods[:, :, 5] = rng.choice([-1.0, 1.0], size=(2, 2, runs)) * np.eye(2)[:, :, None]
    prods[:, :, 6, 3:] = 1.7e308  # overflows to inf, then inf/inf
    u, v = np.ones(8), rng.normal(size=8)
    v[5], v[6] = -0.0, 1.0
    nodes = rng.integers(0, 5, 8)
    with np.errstate(all="ignore"):
        batch = carry_batch(prods, u, v, nodes)
    assert np.isnan(batch[0][[0, 1, 2, 3, 4, 6]]).all() and np.isfinite(batch[0][[5, 7]]).all()
    assert batch[1][5] == 0.0
    for j in range(8):
        uj, vj, nj = _carry(prods[:, :, j], float(u[j]), float(v[j]))
        assert np.array([uj, vj]).view(np.int64).tolist() == [batch[0][j].view(np.int64), batch[1][j].view(np.int64)]
        assert int(nodes[j]) + nj == batch[2][j]


@pytest.mark.parametrize(
    "p",
    [Potential("gaussian", 1.0), Potential.tabulated(_SECH2_X, -1.0 / np.cosh(_SECH2_X - 1.3) ** 2)],
    ids=["gaussian", "tabulated"],
)
def test_wronskian_pass_memory_is_bounded(p):
    engine = _WronskianEngine(p)
    s = 1e4
    kappa = 0.5 * math.sqrt(s * p.shape_max())
    tracemalloc.start()
    try:
        engine.wronskian(s, kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_sweep_mates_do_not_move_a_strength():
    # s = 1e6 beside s = 2 once set the sub-block length of both
    p = Potential("square_well", 1.0)
    assert _bits(shooting_sweep(p, [2.0, 1e6])[0]) == _bits(shooting_sweep(p, [2.0])[0])


@pytest.mark.parametrize(
    "p",
    [Potential("square_well", 1.0), Potential("poschl_teller", 1.0), Potential("gaussian", 1.0)],
    ids=["square_well", "poschl_teller", "gaussian"],
)
def test_sweep_equals_its_strengths_solved_alone(p):
    s = np.exp(np.random.default_rng(13).uniform(math.log(0.02), math.log(3000.0), 12)).tolist()
    alone = [_bits(shooting_sweep(p, [sj])[0]) for sj in s]
    assert [_bits(r) for r in shooting_sweep(p, s)] == alone
    assert [_bits(r) for r in shooting_sweep(p, s[::-1])] == alone[::-1]


def test_shooting_gaussian_regression():
    res = _solve(Potential("gaussian", 1.0))
    assert res.energy == pytest.approx(-0.35399185761383634, rel=1e-9)


def test_shooting_sweep_monotone_in_strength():
    s_values = np.linspace(0.2, 3.0, 12)
    results = shooting_sweep(Potential("gaussian", 1.0), s_values)
    energies = [r.energy for r in results]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_shooting_step_halving_is_fourth_order():
    p = Potential("poschl_teller", 2.0)
    errs = [abs(_solve(p, nsteps=n).energy + 1.0) for n in (250, 500, 1000)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 8.0 < coarse / fine < 32.0


def test_shooting_rejects_zero_potential():
    p = Potential.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], s=1.0)
    assert isinstance(_solve(p), BracketFailure)


def test_erf_reference_against_stdlib():
    for x in (-3.7, -1.0, -0.2, 0.0, 0.4, 1.3, 2.5, 4.2, 6.0):
        assert erf_reference(x) == pytest.approx(math.erf(x), rel=1e-14, abs=1e-15)


def test_gaussian_closed_coefficients_values():
    c4, c5, c6 = gaussian_closed_coefficients()
    assert c4 == pytest.approx(-1.89534, rel=1e-5)
    assert c5 == pytest.approx(3.56727, rel=1e-5)
    assert c6 == pytest.approx(-7.1374, rel=1e-4)


def test_fit_recovers_poschl_teller_series():
    coeffs = fit_series_coefficients(exact_poschl_teller)
    expected = (-1.0, 2.0, -5.0, 14.0, -42.0)
    for got, want in zip(coeffs, expected):
        assert got == pytest.approx(want, rel=2e-4)
