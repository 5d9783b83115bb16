import numpy as np
import pytest
from reference import taylor_coefficients

from shallowwell.errors import PoleAtEvaluation, SingularPade
from shallowwell.perturbation import EnergySeries, energy_series
from shallowwell.potential import Potential
from shallowwell.resummation import PadeApproximant, evaluate_pade, pade, pade_with_asymptote


def _geometric_series(r, n):
    # 1/(1 - r s) = sum (r s)^k
    return [r**k for k in range(n + 1)]


def test_pade_recovers_geometric_series():
    pa = pade(_geometric_series(0.5, 5), 0, 1)
    assert pa.numerator == pytest.approx((1.0,))
    assert pa.denominator == pytest.approx((1.0, -0.5))


def test_pade_recovers_rational_function():
    # (1 + 2s) / (1 + s + 3s^2), Taylor-expanded then resummed
    num, den = (1.0, 2.0), (1.0, 1.0, 3.0)
    c = []
    for k in range(6):
        v = (num[k] if k < len(num) else 0.0) - sum(
            den[i] * c[k - i] for i in range(1, min(k, 2) + 1)
        )
        c.append(v)
    pa = pade(c, 1, 2)
    assert pa.numerator == pytest.approx(num, rel=1e-12)
    assert pa.denominator == pytest.approx(den, rel=1e-12)


def test_pade_needs_enough_coefficients():
    with pytest.raises(ValueError):
        pade([1.0, 2.0], 2, 2)


def test_pade_singular_system_raises():
    # all-zero tail makes the denominator system rank deficient
    with pytest.raises(SingularPade):
        pade([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2, 3)


def test_evaluate_at_pole_raises():
    pa = PadeApproximant((1.0,), (1.0, -1.0))  # pole at s=1
    with pytest.raises(PoleAtEvaluation):
        evaluate_pade(pa, 1.0)
    assert evaluate_pade(pa, 0.5) == pytest.approx(2.0)


def test_denominator_must_be_monic():
    with pytest.raises(ValueError):
        PadeApproximant((1.0,), (2.0, 1.0))


def test_taylor_round_trip_plain():
    c = [0.3, -1.2, 0.8, 0.05, -0.4, 0.9]
    pa = pade(c, 2, 3)
    assert taylor_coefficients(pa, 5) == pytest.approx(c, rel=1e-10)


def test_asymptote_structure_and_round_trip(es_gaussian):
    pa = pade_with_asymptote(es_gaussian, 1.0)
    assert pa.alpha == -1.0
    assert pa.numerator[0] == 0.0
    assert len(pa.numerator) == 4 and len(pa.denominator) == 4
    got = taylor_coefficients(pa, 6)
    want = (0.0,) + tuple(es_gaussian.coefficients)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_asymptote_requires_full_series():
    es = EnergySeries(
        coefficients=(0.0, -1.0, 1.0),
        shape_kind="gaussian",
        grid_spec=(10.0, 128, 8),
        error_estimates=(0.0, 0.0, 0.0),
    )
    with pytest.raises(ValueError):
        pade_with_asymptote(es, 1.0)


def test_asymptote_dominates_at_strong_coupling(es_gaussian):
    pa = pade_with_asymptote(es_gaussian, 1.0)
    s = 50.0
    assert evaluate_pade(pa, s) / (-s) == pytest.approx(1.0, rel=0.2)


@pytest.mark.parametrize("a", [40.0, 50.0])
def test_asymptote_pade_of_wide_square_well_is_the_unit_well_rescaled(a):
    # c_n = a^(2n-2) c_n(unit), so a^2 E(s) = E_unit(s a^2); the rank test must not judge a^2
    unit = pade_with_asymptote(energy_series(Potential("square_well", 1.0)), 1.0)
    wide = pade_with_asymptote(energy_series(Potential("square_well", 1.0, a=a)), 1.0)
    for s in (0.25, 0.5, 1.0, 2.0, 3.0):
        expected = evaluate_pade(unit, s * a * a)
        assert a * a * evaluate_pade(wide, s) == pytest.approx(expected, rel=3e-15)


def test_evaluate_pade_beyond_polynomial_overflow(es_gaussian):
    # p(s) and q(s) of degree 3 overflow from s ~ 6e102: the ratio is then
    # taken in t = 1/s; below that the direct form is kept bit for bit
    pa = pade_with_asymptote(es_gaussian, 1.0)
    for s in (6e102, 1e103, 1e150, 1e300):
        value = evaluate_pade(pa, s)
        assert np.isfinite(value) and value == pytest.approx(pa.alpha * s, rel=1e-12)
    polyval = np.polynomial.polynomial.polyval
    for s in (1e-3, 0.5, 3.0, 1e10, 1e50, 1e100):
        direct = pa.alpha * s + polyval(s, pa.numerator) / polyval(s, pa.denominator)
        assert evaluate_pade(pa, s) == direct
