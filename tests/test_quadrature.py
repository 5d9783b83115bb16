import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import dense_contract, fsum_oracle, polynomial_sum
from scipy.special import erf

from shallowwell import greens, perturbation, quadrature, variational
from shallowwell.errors import InvalidGridSpec, LengthMismatch
from shallowwell.potential import Potential
from shallowwell.quadrature import build_grid, contract, default_grid, integrate


def _sech2(x0):
    """Off-centre tabulated sech^2 well: 2,401 samples on [x0 - 12, x0 + 12]."""
    xs = np.linspace(x0 - 12.0, x0 + 12.0, 2401)
    return Potential.tabulated(xs, -1.0 / np.cosh(xs - x0) ** 2)


SHAPES = {
    "square_well": Potential("square_well", 1.0),
    "poschl_teller": Potential("poschl_teller", 1.0),
    "gaussian": Potential("gaussian", 1.0),
    # far from the origin (L = 27): powers of x alone would cancel badly
    "sech2_x0_10": _sech2(10.0),
}


def test_build_grid_validation():
    with pytest.raises(InvalidGridSpec):
        build_grid(10.0, 128, 0)
    with pytest.raises(InvalidGridSpec):
        build_grid(10.0, 128, 17)
    with pytest.raises(InvalidGridSpec):
        build_grid(10.0, 0, 8)
    with pytest.raises(InvalidGridSpec):
        build_grid(-1.0, 128, 8)
    for L in (1e308, math.inf):  # 2L overflows: the edges would start [nan, inf, ...]
        with pytest.raises(InvalidGridSpec, match="2L finite"):
            build_grid(L, 128, 8)


def test_grid_identity_on_spec():
    a = build_grid(10.0, 64, 8)
    b = build_grid(10.0, 64, 8)
    c = build_grid(10.0, 64, 6)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_integrate_gaussian_is_sqrt_pi():
    g = build_grid(10.0, 128, 8)
    val = integrate(g, np.exp(-g.nodes**2))
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_integrate_polynomial_exact_per_panel():
    g = build_grid(2.0, 16, 4)  # degree 2q-1 = 7 exact
    val = integrate(g, g.nodes**6)
    assert val == pytest.approx(2.0 * 2.0**7 / 7.0, rel=1e-14)
    assert integrate(g, g.nodes**7) == pytest.approx(0.0, abs=1e-15)


def test_integrate_length_mismatch():
    g = build_grid(2.0, 16, 4)
    with pytest.raises(LengthMismatch):
        integrate(g, np.ones(g.nodes.size + 1))


def _outcome(fn):
    """The bits of a float result, or the type of the exception raised."""
    try:
        value = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    assert type(value) is float
    return value.hex()  # tells -0.0 from 0.0; every nan is "nan"


def _matches_oracle(g, f):
    return _outcome(lambda: integrate(g, f)) == _outcome(lambda: fsum_oracle(g.weights * f))


@st.composite
def _grid_functions(draw):
    """(grid, f) with mixed signs and magnitudes, subnormals, +-0.0 and cancellation.

    Composite Gauss-Legendre weights are mirror-symmetric bit for bit, so
    f - f[::-1] makes the products w_i f_i cancel in exact pairs.
    """
    g = build_grid(1.0, draw(st.integers(1, 24)), draw(st.integers(1, 16)))
    wide = st.floats(min_value=-1e300, max_value=1e300)  # includes subnormals and +-0.0
    mode = draw(st.sampled_from(["wide", "scaled", "cancel", "near"]))
    if mode == "wide":
        return g, draw(arrays(np.float64, g.size, elements=wide))
    v = draw(arrays(np.float64, g.size, elements=st.floats(min_value=-1.0, max_value=1.0)))
    v *= 10.0 ** draw(st.integers(-300, 300))
    if mode == "cancel":
        v = v - v[::-1]
    elif mode == "near":
        v = v - v[::-1] + 1e-14 * v
    return g, v


@settings(max_examples=400)
@given(_grid_functions())
def test_integrate_is_fsum_bit_for_bit(case):
    g, f = case
    assert _matches_oracle(g, f)


@st.composite
def _hard_sums(draw):
    """Arrays of 1 to 2^14 values whose correctly rounded sum is hard to get.

    Exact half-ulp ties, just off or on; sums that cancel to +-0, or to
    one value far below the rest; sums of subnormals; signed zeros alone;
    and values spread over 2^-1100..2^1000. Numpy draws the values from a
    drawn seed, so large arrays stay cheap.
    """
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 2**14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["tie", "cancel", "near", "subnormal", "zeros", "wide"]))
    if mode == "zeros":
        return rng.choice([0.0, -0.0], n)
    if mode == "subnormal":
        return rng.integers(-(2**20), 2**20, n) * math.ldexp(1.0, -1074)
    wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1100, 1000, n))
    if mode == "wide":
        return wide
    half = wide[: n // 2]
    pairs = np.concatenate([half, -half, rng.choice([0.0, -0.0], n % 2)])
    if mode == "near":
        # the pairs cancel exactly, and what is left is so small that its
        # ulp lies near the error bound of integrate's first pass, about
        # 2^(3M-102) max|a| with M = ceil(log2(n + 2)), and far above that
        # of its second, about 2^(4M-154) max|a|
        big = float(np.max(np.abs(half), initial=1.0))
        M = (n + 1).bit_length()
        shift = 52 - 3 * M + int(rng.integers(4, 40 - M))
        pairs[-1] = math.ldexp(big * rng.uniform(-1.0, 1.0), -shift)
        if n % 2 == 0 and n >= 2:  # pairs[-1] was -half[-1]: restore the pair's cancellation
            pairs[n // 2 - 1] = 0.0
    if mode == "tie" and n >= 2:
        # big + ulp(big)/2 lies halfway between two floats; the pairs cancel exactly
        big = math.ldexp(float(rng.integers(2**52, 2**53)), int(rng.integers(-900, 900)))
        off = draw(st.sampled_from([0.0, math.ldexp(1.0, -1074), -math.ldexp(1.0, -1074)]))
        pairs[:3] = [big, math.ulp(big) / 2.0, off][: min(3, n)]
    return rng.permutation(pairs)


@given(_hard_sums())
def test_integrate_is_fsum_on_hard_sums(f):
    g = build_grid(f.size / 2.0, f.size, 1)  # midpoint rule, every weight 1.0
    assert np.all(g.weights == 1.0)
    assert _matches_oracle(g, f)


@pytest.mark.parametrize(
    "values, passes",
    [
        ([0.5, 1.0, -0.25], [True]),  # one pass certifies
        ([1.0, 1e-30, -1.0], [False, True]),  # the first pass's bound exceeds the sum
        ([1.0, 2.0**-53], [False, False]),  # a tie is never certified: math.fsum
    ],
    ids=["one-pass", "two-passes", "fsum"],
)
def test_integrate_reaches_each_certificate(monkeypatch, values, passes):
    seen = []
    certified = quadrature._certified

    def recording(*args):
        seen.append(certified(*args))
        return seen[-1]

    monkeypatch.setattr(quadrature, "_certified", recording)
    g = build_grid(len(values) / 2.0, len(values), 1)
    assert _matches_oracle(g, np.array(values))
    assert seen == passes


@pytest.mark.parametrize(
    "values",
    [
        [1.0, math.nan, -2.0],
        [1.0, math.inf, -2.0],
        [-math.inf, 3.0],
        [math.inf, -math.inf],
        [1e308, 1e308, -1e308],  # an intermediate sum overflows
        [1.7e308, 1.7e308],  # the sum overflows
        [1.7e308, -1.7e308, 1e308],  # too large for the extraction, finite sum
        [1e308, 1e308, -1e308, -1e308, 5e-324],
        [0.0, -0.0],
        [-0.0, -0.0],
        [5e-324, -5e-324, -0.0],
        [1.0, 2.0**-53],  # exact ties round to even
        [1.0 + 2.0**-52, 2.0**-53],
        [1.0, 2.0**-53, -(2.0**-160)],  # just below a tie
        [1.0, 2.0**-53, 2.0**-1074],  # just above a tie
    ],
)
def test_integrate_special_values_and_ties_match_fsum(values):
    g = build_grid(len(values) / 2.0, len(values), 1)  # midpoint rule, every weight 1.0
    assert np.all(g.weights == 1.0)
    assert _matches_oracle(g, np.array(values))


def test_integrate_matches_fsum_on_every_real_call(monkeypatch):
    calls = []

    def recording(g, f):
        calls.append((g, np.array(f)))
        return integrate(g, f)

    for module in (perturbation, greens, variational):
        monkeypatch.setattr(module, "integrate", recording)
    for p in SHAPES.values():
        if p.kind != "tabulated":
            perturbation.energy_series(p, order=6)
    p = SHAPES["gaussian"]
    g = default_grid(p)
    greens.e4_finite_beta(p, g, 0.01)
    before = len(calls)
    variational.minimize(p, g)
    # one integrate per objective call of the search (test_variational pins 146)
    assert before > 100 and len(calls) - before == 146
    assert all(_matches_oracle(g, f) for g, f in calls)


def test_default_grid_square_well_panel_alignment():
    for a in (1.0, 0.7, 50.0):
        p = Potential("square_well", 1.0, a=a)
        g = default_grid(p)
        # the discontinuities at +-a must fall on panel edges
        assert np.min(np.abs(g.edges - a)) < 1e-12
        assert np.min(np.abs(g.edges + a)) < 1e-12


def _assert_matches_dense(g, p, k, sources):
    # roundoff bound per node: the sum with every summand in absolute value
    for (m, f), (want, scale) in zip(sources, dense_contract(g, p, k, sources)):
        worst = np.max(np.abs(contract(g, p, k, m, f) - want) / scale)
        assert worst <= 1e-14, f"k={k} m={m}: {worst:.2e}"


def test_contract_even_kernel_matches_dense():
    p = Potential("gaussian", 1.0)
    g = build_grid(8.0, 32, 6)
    _assert_matches_dense(g, p, 2, [(1, np.cos(g.nodes))])


@pytest.mark.parametrize("fine", [False, True], ids=["coarse", "fine"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_contract_matches_dense_oracle(shape, fine):
    p = SHAPES[shape]
    g = default_grid(p)
    if fine:
        g = build_grid(g.L, 2 * g.P, g.q)
    fs = (np.ones_like(g.nodes), np.cos(0.7 * g.nodes) + 0.25 * g.nodes)
    for k in range(6):  # one dense kernel per k serves every m and f
        _assert_matches_dense(g, p, k, [(m, f) for f in fs for m in range(5)])


def test_contract_allocates_linear_memory():
    # an N x N block at N = 16,384 would take about 2 GB
    p = Potential("gaussian", 1.0)
    g = build_grid(15.0, 2048, 8)
    f = np.ones_like(g.nodes)
    tracemalloc.start()
    try:
        contract(g, p, 5, 4, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * g.size * 8


def test_kink_plan_built_once_per_grid_and_potential_object(monkeypatch):
    # V at the kink sub-nodes, shape (P, q, 2q), is the one 3-D evaluation
    sub_node_calls = []
    evaluate = Potential.evaluate

    def recording(self, x):
        if np.ndim(x) == 3:
            sub_node_calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(Potential, "evaluate", recording)
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    perturbation.evaluate_terms(perturbation.load_terms(4), p, g)
    for beta in (0.02, 0.01, 0.005):  # the greens-check sequence
        greens.e4_finite_beta(p, g, beta)
    assert sub_node_calls == [p]
    greens.e4_finite_beta(replace(p), g, 0.01)  # equal, but another object
    assert len(sub_node_calls) == 2
    sub_node_calls.clear()
    perturbation.energy_series(_sech2(1.3), order=6)  # its coarse and fine grid
    assert len(sub_node_calls) == 2 and len(set(sub_node_calls)) == 1


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).tolist()]


def _sums_match_reference(x, wu, ks=range(6)):
    for k in ks:
        assert _hex(quadrature._polynomial_sum(x, wu, k)) == _hex(polynomial_sum(x, wu, k)), (x.size, k)


def test_polynomial_sum_bits_on_random_nodes():
    # exact rows 0 and 1 keep the bits of numpy's generic pow, which the rows
    # from 2 on still come from; a lone exponent row 2 would take numpy's square
    # path and round differently on a few percent of the nodes
    rng = np.random.default_rng(30)
    for n in (8, 9, 15, 100, 1000, 1024, 2048, 4096):
        x = np.sort(rng.uniform(-12.0, 12.0, n))
        _sums_match_reference(x, rng.standard_normal(n) * rng.uniform(0.0, 1.0, n))


def test_polynomial_sum_bits_on_every_series_and_greens_input(monkeypatch):
    # every (x, wu) that the sixth-order series and the greens-check sequence
    # hand to the sums on the built-in wells, at k = 0..5; Poschl-Teller's k = 2
    # calls are the ones a lone exponent row 2 changes
    inputs, polynomial_sum_of = [], quadrature._polynomial_sum

    def recording(x, wu, k):
        inputs.append((x, wu.copy(), k))
        return polynomial_sum_of(x, wu, k)

    monkeypatch.setattr(quadrature, "_polynomial_sum", recording)
    for kind in ("square_well", "poschl_teller", "gaussian"):
        perturbation.energy_series(Potential(kind, 1.0), order=6)
        p = Potential(kind, 1.0)
        g = default_grid(p)
        for beta in (0.02, 0.01, 0.005):
            greens.e4_finite_beta(p, g, beta)
    monkeypatch.undo()
    assert len(inputs) == 3 * (26 + 3 * 6)  # 13 per series grid, 6 per beta
    assert {k for _, _, k in inputs} == {1, 2, 3, 5}
    for x, wu, _ in inputs:
        _sums_match_reference(x, wu)


def test_gauss_rule_solved_once_per_q(monkeypatch):
    # build_grid and the split rule share one Gauss-Legendre solve per q, so a
    # second series in the process solves none
    solves, leggauss = [], quadrature.leggauss
    monkeypatch.setattr(quadrature, "leggauss", lambda q: solves.append(q) or leggauss(q))
    quadrature._gauss.cache_clear()
    perturbation.energy_series(Potential("gaussian", 1.0), order=6)
    assert solves == [8]
    perturbation.energy_series(Potential("poschl_teller", 1.0), order=6)
    assert solves == [8]
    assert not quadrature._gauss(8)[0].flags.writeable


def test_contract_odd_kernel_matches_closed_form():
    # integral of e^{-y^2} |x - y| dy = sqrt(pi) x erf(x) + e^{-x^2}
    p = Potential("gaussian", 1.0)
    g = default_grid(p)  # P=128: kink handling must reach ~1e-13
    got = contract(g, p, 1, 0, np.ones_like(g.nodes))
    x = g.nodes
    exact = -(math.sqrt(math.pi) * x * erf(x) + np.exp(-(x**2)))
    assert np.max(np.abs(got - exact)) < 1e-12


def test_contract_cubic_kernel_matches_dense_plus_correction():
    # |x-y|^3 has a mild kink (third derivative); compare to a fine grid
    p = Potential("gaussian", 1.0)
    coarse = build_grid(8.0, 64, 8)
    fine = build_grid(8.0, 512, 8)
    f_c = np.ones_like(coarse.nodes)
    f_f = np.ones_like(fine.nodes)
    vc = integrate(coarse, p.evaluate(coarse.nodes) * contract(coarse, p, 3, 0, f_c))
    vf = integrate(fine, p.evaluate(fine.nodes) * contract(fine, p, 3, 0, f_f))
    assert vc == pytest.approx(vf, rel=1e-10)
