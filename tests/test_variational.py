import math

import mpmath as mp
import numpy as np
import pytest
from reference import golden_section_minimize, minimize_brent, nelder_mead_minimize
from scipy.integrate import quad

from shallowwell import variational
from shallowwell.errors import BelowWellFloor, NonNormalizable
from shallowwell.oracles import shooting_sweep
from shallowwell.potential import Potential
from shallowwell.quadrature import build_grid, default_grid
from shallowwell.variational import ExpSqrtTrial, GaussianTrial, minimize, rayleigh_quotient


def _zero_v(g):
    """V at the nodes of g for a well that is zero everywhere."""
    return np.zeros(g.size)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gaussian_trial_kinetic_energy(alpha):
    # <T> / <1> = alpha for psi = e^{-alpha x^2} and V = 0
    g = build_grid(12.0, 256, 8)
    assert rayleigh_quotient(GaussianTrial(alpha), _zero_v(g), g) == pytest.approx(
        alpha, rel=1e-12
    )


def test_trial_parameter_validation():
    with pytest.raises(ValueError):
        GaussianTrial(0.0)
    with pytest.raises(ValueError):
        ExpSqrtTrial(-1.0)
    with pytest.raises(ValueError):
        ExpSqrtTrial(1.0, beta=-0.1)


def test_expsqrt_reduces_to_pure_exponential_at_zero_beta():
    # psi = e^{-alpha |x|}: <T>/<1> = alpha^2 for the |psi'|^2 form
    g = build_grid(20.0, 400, 8)
    val = rayleigh_quotient(ExpSqrtTrial(1.3, beta=0.0), _zero_v(g), g)
    assert val == pytest.approx(1.3**2, rel=1e-6)


def test_expsqrt_trial_tends_to_gaussian_trial():
    # psi^2 = e^{-2 alpha (sqrt(beta^2 + x^2) - beta)} -> e^{-alpha x^2 / beta} as
    # beta -> inf; minimize searches this limit as the u = 1 edge of the family
    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    v = p.evaluate(g.nodes)
    beta = 1e20
    near_gaussian = rayleigh_quotient(ExpSqrtTrial(0.6 * beta, beta), v, g)
    assert near_gaussian == pytest.approx(rayleigh_quotient(GaussianTrial(0.3), v, g), rel=1e-12)


def test_norm_underflow_raises():
    # the closed-form norm of psi = e^{-alpha |x|} is 1/alpha = 1e-300
    g = build_grid(4.0, 16, 4)
    with pytest.raises(NonNormalizable):
        rayleigh_quotient(ExpSqrtTrial(1e300), _zero_v(g), g)


def _mp_norm_kinetic(alpha, beta):
    """Whole-line <psi|psi> and <psi'|psi'> of ExpSqrtTrial by mpmath quadrature."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    if beta == 0.0:
        # psi = e^{-alpha |x|}, |psi'|^2 = alpha^2 psi^2
        half = mp.quad(lambda x: mp.exp(-2 * a * x), [0, 1 / a, mp.inf])
        return 2 * half, 2 * a**2 * half
    # x = beta sinh t: dx = beta cosh t dt, psi^2 = e^{-z(cosh t - 1)},
    # |psi'|^2 = alpha^2 tanh^2 t psi^2
    z = 2 * a * b
    cut = mp.linspace(0, mp.acosh(1 + 80 / z), 9)  # psi^2 < e^{-80} beyond
    psi2 = lambda t: mp.exp(-z * (mp.cosh(t) - 1))
    norm = 2 * b * mp.quad(lambda t: mp.cosh(t) * psi2(t), cut)
    kinetic = 2 * a**2 * b * mp.quad(lambda t: mp.sinh(t) ** 2 / mp.cosh(t) * psi2(t), cut)
    return norm, kinetic


@pytest.mark.parametrize(
    "z",
    # Brent's search visits z up to 1.41e20 on the off-centre tabulated
    # sech^2 (x0 = 1.3, s = 2), where u comes within 4e-8 of the Gaussian
    # edge u = 1
    [0.0, 1e-15, 1e-12, 1e-6, 1e-3, 0.5, 2.0, 3.0, 10.0, 100.0, 1e4, 1e9, 1e12, 1e15, 4e19, 1e20,
     1.5e20, 1e21],
)
def test_expsqrt_closed_forms_match_mpmath(z):
    alpha = 0.7
    tf = ExpSqrtTrial(alpha, beta=z / (2.0 * alpha))
    got_norm, got_kinetic = tf.norm_and_kinetic()
    # at 30 digits mp.quad misses the kinetic integral by 1e-8 at z = 4e19
    with mp.workdps(50):
        norm, kinetic = _mp_norm_kinetic(tf.alpha, tf.beta)
        assert abs(got_norm - norm) <= 1e-14 * norm
        assert abs(got_kinetic - kinetic) <= 1e-14 * kinetic


def test_minimize_rejects_unknown_family():
    # one search returns the two families' results, and no other family
    p = Potential("gaussian", 1.0)
    g = build_grid(8.0, 64, 8)
    results = minimize(p, g)
    assert list(results) == ["gaussian", "expsqrt"]
    assert isinstance(results["gaussian"][0], GaussianTrial)
    assert isinstance(results["expsqrt"][0], ExpSqrtTrial)
    with pytest.raises(KeyError):
        results["hydrogenic"]


def test_minimize_is_deterministic(gaussian_unit, gaussian_grid):
    a = minimize(gaussian_unit, gaussian_grid)
    b = minimize(gaussian_unit, gaussian_grid)
    assert a == b


def test_minimize_upper_bounds_and_family_ordering(gaussian_unit, gaussian_grid):
    results = minimize(gaussian_unit, gaussian_grid)
    tf_g, e_g = results["gaussian"]
    tf_e, e_e = results["expsqrt"]
    exact = shooting_sweep(gaussian_unit, [gaussian_unit.s])[0].energy
    assert e_g >= exact - 1e-9
    assert e_e >= exact - 1e-9
    # the exponential-tail family contains better approximants
    assert e_e < e_g
    assert e_e == pytest.approx(exact, rel=1e-3)
    assert tf_g.alpha > 0.0 and tf_e.alpha > 0.0


def test_minimize_tracks_weak_coupling():
    # optimal trials widen as s -> 0, far past the grid; only int V psi^2 is
    # cut off there, which can only raise the bound
    p = Potential("gaussian", 0.1)
    g = build_grid(10.0, 128, 8)
    _, e = minimize(p, g)["expsqrt"]
    exact = shooting_sweep(p, [p.s])[0].energy
    assert e >= exact - 1e-9
    assert e == pytest.approx(exact, rel=1e-2)


def _whole_line_quotient(tf, p):
    """(<psi'|psi'> + int V psi^2) / <psi|psi> by QUADPACK over the whole line."""
    a = tf.alpha
    if isinstance(tf, GaussianTrial):
        psi2 = lambda x: math.exp(-2.0 * a * x * x)
        dpsi2 = lambda x: 4.0 * a * a * x * x * psi2(x)
    else:
        b = tf.beta
        psi2 = lambda x: math.exp(-2.0 * a * (math.hypot(b, x) - b))
        dpsi2 = lambda x: a * a * x * x / (b * b + x * x) * psi2(x)

    def whole_line(f):
        # trials and built-in wells are even; split at the square-well edge
        edge = p.a if p.kind == "square_well" else 1.0
        opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
        return 2.0 * (quad(f, 0.0, edge, **opts)[0] + quad(f, edge, math.inf, **opts)[0])

    norm = whole_line(psi2)
    kinetic = whole_line(dpsi2)
    potential_term = whole_line(lambda x: p.evaluate(x) * psi2(x))
    return (kinetic + potential_term) / norm


@pytest.mark.parametrize("family", ["gaussian", "expsqrt"])
@pytest.mark.parametrize("kind", ["square_well", "poschl_teller", "gaussian"])
def test_cut_off_quotient_matches_whole_line(kind, family):
    # at the criterion 8 optima, cutting int V psi^2 off at the grid's L
    # loses nothing the whole-line integrals see
    for s in (0.3, 0.8, 1.5, 2.5):
        p = Potential(kind, s)
        g = default_grid(p)
        tf, _ = minimize(p, g)[family]
        quotient = rayleigh_quotient(tf, p.evaluate(g.nodes), g)
        assert quotient == pytest.approx(_whole_line_quotient(tf, p), rel=1e-10)


def _sech2(x0, s):
    """Off-centre tabulated sech^2 well: 2,401 samples on [x0 - 12, x0 + 12]."""
    xs = np.linspace(x0 - 12.0, x0 + 12.0, 2401)
    return Potential.tabulated(xs, -1.0 / np.cosh(xs - x0) ** 2, s=s)


_SEARCH_CASES = pytest.mark.parametrize(
    "p",
    [
        Potential("gaussian", 1e-13),
        Potential("gaussian", 1e4),
        Potential("poschl_teller", 1.0),
        Potential("square_well", 2.5),
        _sech2(1.3, 0.6),
        _sech2(1.3, 2.0),
    ],
    ids=["gaussian-1e-13", "gaussian-1e4", "poschl_teller-1", "square_well-2.5",
         "sech2_x0_1.3-0.6", "sech2_x0_1.3-2"],
)


@pytest.mark.parametrize("family", ["gaussian", "expsqrt"])
@_SEARCH_CASES
def test_brent_matches_nelder_mead_ladder(p, family):
    g = default_grid(p)
    _, got = minimize(p, g)[family]
    _, want = nelder_mead_minimize(family, p, g)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("family", ["gaussian", "expsqrt"])
@_SEARCH_CASES
def test_golden_section_matches_nelder_mead_ladder(p, family):
    # the two oracles of minimize agree with each other
    g = default_grid(p)
    _, got = golden_section_minimize(family, p, g)
    _, want = nelder_mead_minimize(family, p, g)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("family", ["gaussian", "expsqrt"])
@_SEARCH_CASES
def test_brent_matches_golden_section(p, family):
    # same nesting and _TOL, and brackets that hold the same minima, so both
    # searches land on them
    g = default_grid(p)
    _, got = minimize(p, g)[family]
    _, want = golden_section_minimize(family, p, g)
    assert got == pytest.approx(want, rel=1e-12)


def test_expsqrt_never_loses_to_gaussian_in_the_valley():
    # off centre, the exp-sqrt optimum lies at beta -> inf: the Gaussian
    # limit, which the search reaches as u = 1
    p = _sech2(1.3, 2.0)
    g = default_grid(p)
    results = minimize(p, g)
    assert results["expsqrt"][1] <= results["gaussian"][1]


def test_warm_start_falls_back_at_the_box_edge(monkeypatch):
    # a zero well's optimum lies at the log c = -80 edge of the box, where
    # each warm bracket leaves the box; searching the whole box again, not a
    # bracket clipped to it, keeps every result that of the cold search
    p = Potential("gaussian", 0.0)
    g = default_grid(p)
    warm = minimize(p, g)
    monkeypatch.setattr(variational, "_WARM", math.inf)  # every step searches the whole box
    assert minimize(p, g) == warm


def test_objective_calls_per_minimize(monkeypatch, gaussian_unit, gaussian_grid):
    # Brent's search in log c over [-80, 40] stops after 20 calls here; the
    # exp-sqrt family adds the search in u over [0, 1], whose steps each run
    # one log-c search by Newton steps from the previous step's optimum and
    # one objective call at its result, for 30 in all and 28 Newton passes
    calls, passes = [], []
    quotient, slopes = variational.rayleigh_quotient, variational._slopes

    def counted(tf, *args):
        calls.append(type(tf))
        return quotient(tf, *args)

    def counted_slopes(*args):
        passes.append(args[0])
        return slopes(*args)

    monkeypatch.setattr(variational, "rayleigh_quotient", counted)
    monkeypatch.setattr(variational, "_slopes", counted_slopes)
    minimize(gaussian_unit, gaussian_grid)
    assert calls.count(GaussianTrial) == 20
    assert len(calls) == 30
    assert len(passes) == 28


_ORACLE_WELLS = {
    "square_well": lambda s: Potential("square_well", s),
    "square_well_a0.7": lambda s: Potential("square_well", s, a=0.7),
    "poschl_teller": lambda s: Potential("poschl_teller", s),
    "gaussian": lambda s: Potential("gaussian", s),
    "sech2_x0_1.3": lambda s: _sech2(1.3, s),
}


@pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 3.0, 100.0, 1e4])
@pytest.mark.parametrize("well", sorted(_ORACLE_WELLS))
def test_newton_lines_match_brent_lines(well, s):
    # Newton steps only choose the point of each warm exp-sqrt line; its value
    # is the objective there, so both families land where Brent's lines do
    p = _ORACLE_WELLS[well](s)
    g = default_grid(p)
    got, want = minimize(p, g), minimize_brent(p, g)
    for family in ("gaussian", "expsqrt"):
        if isinstance(want[family], BelowWellFloor):
            assert type(got[family]) is BelowWellFloor and str(got[family]) == str(want[family])
            continue
        e_got, e_want = got[family][1], want[family][1]
        assert f"{e_got:.9g}" == f"{e_want:.9g}"
        assert abs(e_got - e_want) <= 1e-13 * abs(e_want)


def test_deep_gaussian_search_skips_the_spurious_minimum():
    # on the default grid the Gaussian family's quotient has a second, spurious
    # minimum at log c ~ 8.46 (-9197.53) beside the one near 4.6 (-9900.54);
    # the cold search over all of log c must not settle in it
    p = Potential("poschl_teller", 1e4)
    _, energy = minimize(p, default_grid(p))["gaussian"]
    assert energy < -9900.0


@pytest.mark.parametrize("family", ["gaussian", "expsqrt"])
def test_minimum_below_the_well_floor_raises(family):
    # at s = 1e6 the optimal trial (width ~ s^{-1/4}) is narrower than the
    # default grid resolves, and the quotient drops below -s, the floor; the
    # family's result is then the BelowWellFloor, in place of a bound
    p = Potential("gaussian", 1e6)
    got = minimize(p, default_grid(p))[family]
    assert isinstance(got, BelowWellFloor)
    assert "at or below the well floor -1000000" in str(got)
