"""Rayleigh-quotient upper bounds with two one-well trial families.

GaussianTrial  psi = e^{-alpha x^2}          (wrong e^{-c x^2} tail)
ExpSqrtTrial   psi = e^{-alpha sqrt(beta^2 + x^2)}  (correct e^{-c|x|} tail)

The kinetic term uses the |psi'|^2 form, which is variationally safe for
the kinked-but-continuous second family. Norm and kinetic integrals run
over the whole line: closed forms for the Gaussian, one trapezoid sum in
x = beta sinh t for exp-sqrt. Only int V psi^2 is integrated on the
caller's fixed grid, so one objective call costs one correctly rounded
quadrature.integrate at numpy speed. minimize evaluates V at the nodes
once, and its objective is the public rayleigh_quotient(tf, v, g, den),
called by that name so that a traced run counts it, with psi^2's
denominators den formed once per beta. The module needs numpy alone.

Both families are searched as alpha = c (1 + beta), beta = u / (1 - u),
whose u = 1 edge is the Gaussian trial alpha = c / 2. One minimize
serves both families: the Gaussian search is the u = 1 edge of the
exp-sqrt one, and each log-c search in u starts near the optimum of the
one before. Brent's search (Brent 1973, ch. 5), golden-section steps
sped up by parabolic interpolation, needs no derivatives and is
deterministic; it searches u, and log c from cold over the whole range.
The warm log-c searches in u take safeguarded Newton steps instead
(Nocedal & Wright 2006, ch. 3): at fixed beta, the first two
derivatives of the quotient in log c are plain dot products over the
same exp arrays that it forms, and only the point that they steer to
costs an objective call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowWellFloor, NonNormalizable
from .potential import Potential
from .quadrature import QuadratureGrid, integrate

_NORM_FLOOR = 1e-280
# below this z = 2 alpha beta, 2 beta e^z K_1(z) = 1/alpha to double precision,
# and x = beta sinh t degenerates as beta -> 0
_Z_MIN = 1e-300


@dataclass(frozen=True)
class GaussianTrial:
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError("alpha must be positive")

    def psi_squared(self, x):
        return np.exp(-2.0 * self.alpha * x * x)

    def norm_and_kinetic(self):
        """<psi|psi> and <psi'|psi'> = int 4 alpha^2 x^2 psi^2 = alpha <psi|psi>."""
        norm = math.sqrt(0.5 * math.pi / self.alpha)
        return norm, self.alpha * norm


@dataclass(frozen=True)
class ExpSqrtTrial:
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError("alpha must be positive")
        if not (self.beta >= 0.0):
            raise ValueError("beta must be nonnegative")

    def psi_squared(self, x, den=None):
        """psi^2 at x; den, if given, is hypot(beta, x) + beta at x, which all trials of one beta share."""
        # 1 at x=0; r - beta is x^2 / (r + beta), which near-Gaussian trials
        # (beta >> |x|) would otherwise lose to cancellation
        if den is None:
            den = np.hypot(self.beta, x) + self.beta
        if self.beta == 0.0:  # den = |x|
            return np.exp(-2.0 * self.alpha * den)
        return np.exp(-2.0 * self.alpha * x * x / den)

    def norm_and_kinetic(self):
        """<psi|psi> and <psi'|psi'> over the whole line, from one trapezoid sum.

        With x = beta sinh t, z = 2 alpha beta and a = cosh t - 1, psi^2 is
        e^{-za}, <psi|psi> = 2 beta int_0^inf cosh t psi^2 dt (DLMF 10.32.9)
        and <psi'|psi'> = 2 alpha^2 beta int_0^inf sinh t tanh t psi^2 dt.
        Both integrands are even and entire in t, where the trapezoid rule
        converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 385,
        2014). The step resolves psi^2's width 1/sqrt(z); the sum stops at
        psi^2 = e^{-40}.
        """
        z = 2.0 * self.alpha * self.beta
        if z <= _Z_MIN:  # psi = e^{-alpha |x|}
            return 1.0 / self.alpha, self.alpha
        h, a = _sinh_nodes(z, z)
        w = np.exp(-z * a)
        w[0] = 0.5  # the t = 0 node is shared by both halves of the line
        aw = a * w
        edge = float(aw.sum())
        scale = 2.0 * h * self.beta
        # cosh t = 1 + a and sinh t tanh t = a + a / (1 + a)
        norm = scale * (float(w.sum()) + edge)
        return norm, scale * self.alpha**2 * (edge + float(np.dot(aw, 1.0 / (1.0 + a))))


def _sinh_nodes(z_step, z_cut):
    """Step h and a = cosh t - 1 at t = 0, h, 2h, ... of the sums in x = beta sinh t.

    h resolves psi^2 = e^{-za} for every z <= z_step, and the nodes run on
    to psi^2 = e^{-40} for every z >= z_cut.
    """
    h = min(0.25, 0.25 / math.sqrt(z_step))
    # a = 2 sinh^2(t/2) at t = 0, h, 2h, ...: no cancellation at small t
    return h, 2.0 * np.sinh(np.arange(0.0, math.asinh(math.sqrt(20.0 / z_cut)), 0.5 * h)) ** 2


def rayleigh_quotient(tf, v, g: QuadratureGrid, den=None) -> float:
    """(<psi'|psi'> + int V psi^2) / <psi|psi>, with v the values of V at g.nodes.

    The norm and kinetic terms come from one trial.norm_and_kinetic() call
    over the whole line; int V psi^2 is integrated on g. V = -s*shape <= 0,
    so cutting that integral off at +-L can only raise the quotient, which
    stays an upper bound. den, if given, is an exp-sqrt trial's
    hypot(beta, x) + beta at g.nodes.

    Raises:
        NonNormalizable: the norm underflows (parameters too extreme).
    """
    norm, kinetic = tf.norm_and_kinetic()
    if not (norm > _NORM_FLOOR):
        raise NonNormalizable(f"trial norm {norm:g} underflows")
    psi2 = tf.psi_squared(g.nodes) if den is None else tf.psi_squared(g.nodes, den)
    return (kinetic + integrate(g, v * psi2)) / norm


_LOG_C = (-80.0, 40.0)  # psi^2 = e^{-c x^2} at u = 1, e^{-2c|x|} at u = 0; norms stay >= e^{-40}
_TOL = 1e-9
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
#: half-width of the log-c bracket that the Newton steps of each exp-sqrt step
#: in u search; of 0.05-2, 0.4 took the fewest objective calls over
#: 30-strength compares of five wells, measured with Brent's search on each
#: bracket
_WARM = 0.4


def _tol(x):
    """Brent's tolerance at x: _brent stops once its bracket is within 2 _tol(x) of x."""
    return 1.5e-8 * abs(x) + _TOL / 3.0


def _brent(f, a, b):
    """Least f(x) of Brent's search on [a, b]; f returns tuples led by the value.

    Brent's localmin (Algorithms for Minimization without Derivatives,
    1973, ch. 5): a parabola through the three best points when its
    vertex lies inside the bracket and the step keeps shrinking, a
    golden-section step otherwise. It stops once both ends of the bracket
    are within 2 tol of the best point x, tol = _tol(x).
    """
    x = w = v = a + _CGOLD * (b - a)
    best = f(x)
    fx = fw = fv = best[0]
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _tol(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return best
        p = q = r = 0.0
        if abs(e) > tol:  # parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            u = x + d
            if u - a < 2.0 * tol or b - u < 2.0 * tol:
                d = tol if x < m else -tol
        else:  # golden-section step into the larger part of the bracket
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else tol if d > 0.0 else -tol)
        got = f(u)
        best = min(best, got)
        fu = got[0]
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _newton(slopes, lo, hi, t):
    """A least point of a smooth f on [lo, hi] by safeguarded Newton steps from t.

    slopes(t) returns f'(t) and f''(t). Each pass keeps the part of the
    bracket downhill of t, so the bracket only shrinks. The step is
    Newton's, -f'/f'', or a full downhill step where f'' <= 0, clipped to
    +-1 and to the bracket (Nocedal & Wright, Numerical Optimization,
    2006, ch. 3); where it lands on a bracket end that an earlier pass
    took, the middle of the bracket is taken instead. So a slope that
    points out of the bracket at one of its own ends closes it there. The
    search stops once the step is within _tol(t), the tolerance of _brent.
    """
    seen = set()
    while True:
        d1, d2 = slopes(t)
        seen.add(t)
        if d1 > 0.0:
            hi = t
        else:
            lo = t
        step = -d1 / d2 if d2 > 0.0 else -1.0 if d1 > 0.0 else 1.0
        new = min(max(t + step, t - 1.0, lo), t + 1.0, hi)
        if new in seen and abs(new - t) > _tol(t):
            new = 0.5 * (lo + hi)
        if abs(new - t) <= _tol(t):
            return new
        t = new


def _exp_sqrt_line(u, beta, x, den, wv, lo, hi):
    """The fixed arrays of _slopes on the exp-sqrt line at u, for log c in [lo, hi].

    G = x^2 / den at the grid nodes x, with the rows (wV, wV G, wV G^2) of
    the weights times V; and the nodes a of norm_and_kinetic's trapezoid
    sums, fine and long enough for every z = 2 alpha beta of the bracket,
    with the rows 2 h beta (1 + a) a^j and 2 h beta (a + a / (1 + a)) a^j,
    j = 0, 1, 2, whose t = 0 node is halved.
    """
    G = x * x / den
    z = 2.0 * beta / (1.0 - u)
    h, a = _sinh_nodes(z * math.exp(hi), z * math.exp(lo))
    cosh = 1.0 + a
    sinh_tanh = a + a / cosh
    rows = (cosh, cosh * a, cosh * a * a, sinh_tanh, sinh_tanh * a, sinh_tanh * a * a)
    trap = 2.0 * h * beta * np.stack(rows)
    trap[:, 0] *= 0.5
    return G, np.stack([wv, wv * G, wv * G * G]), a, trap


def _slopes(t, u, beta, G, rows, a, trap):
    """dQ/dt and d^2Q/dt^2 of the exp-sqrt quotient Q at log c = t, from dot products.

    With D = d/dt = alpha d/dalpha, psi^2 = e^{-2 alpha G} on the grid gives
    D int V psi^2 = -2 alpha int V G psi^2 and D^2 int V psi^2 =
    4 alpha^2 int V G^2 psi^2 + D int V psi^2; each trapezoid weight
    e^{-za} of the norm N and of the kinetic sum S = <psi'|psi'> / alpha^2
    gives D e^{-za} = -za e^{-za} and D^2 e^{-za} = (z^2 a^2 - za) e^{-za}.
    The sums are plain ones: they steer _newton, and the cell's value is
    rayleigh_quotient's at the point they steer it to.
    """
    alpha = math.exp(t) / (1.0 - u)
    p0, p1, p2 = rows @ np.exp(-2.0 * alpha * G)
    z = 2.0 * alpha * beta
    n0, n1, n2, s0, s1, s2 = trap @ np.exp(-z * a)
    dn, ds, dp = -z * n1, -z * s1, -2.0 * alpha * p1
    d2n, d2s, d2p = z * z * n2 + dn, z * z * s2 + ds, 4.0 * alpha * alpha * p2 + dp
    aa = alpha * alpha
    q = (aa * s0 + p0) / n0
    dq = (aa * (2.0 * s0 + ds) + dp - q * dn) / n0
    d2q = (aa * (4.0 * s0 + 4.0 * ds + d2s) + d2p - 2.0 * dq * dn - q * d2n) / n0
    return dq, d2q


def _trial(log_c, u):
    """alpha = c (1 + beta) with beta = u / (1 - u); u = 1 is the Gaussian limit e^{-c x^2 / 2}."""
    c = math.exp(log_c)
    return GaussianTrial(0.5 * c) if u == 1.0 else ExpSqrtTrial(c / (1.0 - u), u / (1.0 - u))


def minimize(p: Potential, g: QuadratureGrid) -> dict:
    """Minimize the Rayleigh quotient over both trial families in one search.

    The Gaussian family is Brent's search in log c at u = 1, over all of
    _LOG_C: its quotient need not be unimodal there. The exp-sqrt family
    searches u in [0, 1] by Brent's search over the log-c minima and
    keeps the better of that and u = 1, so it never loses to the
    Gaussian family. Each step in u runs _newton on [t - _WARM, t + _WARM]
    from the previous step's optimum t (the Gaussian one first), steered
    by _slopes, and takes one objective call at the point it returns. It
    runs Brent's search on all of _LOG_C instead when that bracket leaves
    _LOG_C or Newton's point lands within 4 _tol of an end.
    hypot(beta, x) + beta, and the fixed arrays of _slopes, are formed
    once per step in u.

    Returns:
        {"gaussian": result, "expsqrt": result}, each result the pair
        (trial instance at the optimum, energy) or, when that minimum is
        at or below -s * shape_max, which no trial reaches because the
        grid does not resolve it, the BelowWellFloor that says so.
    """
    v = p.evaluate(g.nodes)
    wv = g.weights * v

    def search(u, den, lo, hi):
        return _brent(lambda t: (rayleigh_quotient(_trial(t, u), v, g, den), t, u), lo, hi)

    gaussian = search(1.0, None, *_LOG_C)
    start = gaussian[1]

    def at_u(u):
        nonlocal start
        beta = u / (1.0 - u)
        den = np.hypot(beta, g.nodes) + beta
        lo, hi = start - _WARM, start + _WARM
        t = None
        if _LOG_C[0] <= lo and hi <= _LOG_C[1]:
            line = _exp_sqrt_line(u, beta, g.nodes, den, wv, lo, hi)
            t = _newton(lambda log_c: _slopes(log_c, u, beta, *line), lo, hi, start)
        if t is not None and lo + 4.0 * _tol(t) < t < hi - 4.0 * _tol(t):
            best = rayleigh_quotient(_trial(t, u), v, g, den), t, u
        else:
            best = search(u, den, *_LOG_C)
        start = best[1]
        return best

    floor = -p.s * p.shape_max()

    def result(best):
        energy, log_c, u = best
        if energy <= floor:
            return BelowWellFloor(f"minimum {energy:.9g} at or below the well floor {floor:.9g}")
        return _trial(log_c, u), float(energy)

    return {"gaussian": result(gaussian), "expsqrt": result(min(gaussian, _brent(at_u, 0.0, 1.0)))}


# minimize is public but left out, as quadrature leaves out plan: the span
# recorder of perfbench/spans.py wraps __all__ and reads a wrapped minimize's
# first argument as the trial family of minimize(tf_kind, p, g), which a
# Potential is not, so a traced compare could not write its spans
__all__ = [
    "GaussianTrial",
    "ExpSqrtTrial",
    "rayleigh_quotient",
]
