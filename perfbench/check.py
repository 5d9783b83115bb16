"""Output checker with references computed independently of the program.

An operation is one reported value the checker verifies. It fails when it
is missing, when its job exits nonzero, or when it is outside tolerance.
No tolerance is looser than the acceptance suite's; values the program
computes exactly are held to the 9-significant-digit print resolution.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from scipy.integrate import quad
from scipy.special import erf

#: the CLI prints 9 significant digits; exact values must agree to that
EXACT_REL = 2e-8
#: linear interpolation of the 2401-sample sech^2 table (measured <= 4e-5);
#: criterion 3's bound for sech^2
TABULATED_REL = 1e-4
#: a [2/3] Pade solve amplifies roundoff a little beyond print resolution
PADE_REL = 1e-7
#: criterion 9: var_expsqrt and Pade against shooting
VAR_EXPSQRT_REL = 1e-2
PADE_VS_SHOOTING_REL = 5e-2
#: criterion 4's published coefficients, checked against the reference Pade
CRITERION4 = ((1.0, 2.60002, 1.2553), (1.0, 3.38542, 2.80348, 0.336931), 1e-3)
BETAS = (0.02, 0.01, 0.005)
PADE_SAMPLES = (0.25, 0.5, 1.0, 2.0, 3.0)

SQUARE_WELL = tuple(
    float(Fraction(c)) for c in ("-1", "4/3", "-92/45", "1072/315", "-84752/14175")
)
SECH2 = (-1.0, 2.0, -5.0, 14.0, -42.0)


def _gaussian_coefficients():
    """c2..c6 of the unit Gaussian from closed forms and two erf integrals.

    The integrals are evaluated with QUADPACK, independently of the
    program's composite Gauss-Legendre rules.
    """
    pi, r2, rp = math.pi, math.sqrt(2.0), math.pi**1.5

    def f(x):
        e = math.exp(-x * x)
        return (rp * e / 128.0) * (
            x * (2 * erf(x) - 1) * (4 * r2 * x * erf(r2 * x) - math.sqrt(pi) * erf(x) ** 2)
            - 2 * e * erf(x) ** 2
        )

    def g(x):
        e = math.exp(-x * x)
        return (
            pi**2 * e * x * erf(x) ** 3 / (64 * r2)
            + pi**2 * e * x * erf(r2 * x) * erf(x) ** 2 / (32 * r2)
            + rp * e**3 * erf(x) ** 2 / 64.0
            + rp * e**2 * erf(x) ** 2 / (64 * r2)
            - rp * e * x * x * erf(r2 * x) * erf(x) / 16.0
            - rp * e * x * x * erf(r2 * x) ** 2 / 16.0
        )

    int_f = quad(f, -12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    int_g = quad(g, -12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    c4 = -(pi / 8 + math.sqrt(3.0) * pi / 8 + pi**2 / 12)
    c5 = 7 * pi / 96 + math.sqrt(1.5) * pi / 8 + 3 * pi**2 / (8 * r2) + int_f
    c6 = (
        -3 * pi / 64
        - 7 * pi / (96 * r2)
        - 7 * pi / (96 * math.sqrt(5.0))
        - 5 * pi**2 / 16
        - pi**2 / (64 * math.sqrt(3.0))
        - 7 * math.sqrt(3.0) * pi**2 / 64
        - 2 * pi**3 / 45
        + int_g
    )
    return (-pi / 4, pi / (2 * r2), c4, c5, c6)


GAUSSIAN = _gaussian_coefficients()


def _solve3(a, b):
    """Cramer's rule for a 3x3 system."""

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    d = det(a)
    cols = []
    for j in range(3):
        m = [row[:] for row in a]
        for i in range(3):
            m[i][j] = b[i]
        cols.append(det(m) / d)
    return cols


def _gaussian_pade():
    """[2/3] Pade of (E - alpha*s)/s with alpha = -1, from GAUSSIAN."""
    d = (1.0,) + GAUSSIAN  # (E + s)/s = 1 + c2 s + ... + c6 s^5
    a = [[d[k - i] for i in (1, 2, 3)] for k in (3, 4, 5)]
    q = [1.0] + _solve3(a, [-d[k] for k in (3, 4, 5)])
    p = [sum(q[i] * d[j - i] for i in range(j + 1)) for j in range(3)]
    return -1.0, (0.0, *p), tuple(q)


PADE_ALPHA, PADE_NUM, PADE_DEN = _gaussian_pade()


def pade_energy(s: float) -> float:
    num = sum(c * s**k for k, c in enumerate(PADE_NUM))
    den = sum(c * s**k for k, c in enumerate(PADE_DEN))
    return PADE_ALPHA * s + num / den


def gaussian_series(s: float) -> float:
    return sum(c * s ** (n + 2) for n, c in enumerate(GAUSSIAN))


def square_well_energy(s: float, a: float = 1.0) -> float:
    """Even ground state of the depth-s well: k tan(ka) = sqrt(s - k^2)."""
    lo, hi = 0.0, min(math.sqrt(s), math.pi / (2 * a))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * math.sin(mid * a) - math.sqrt(s - mid * mid) * math.cos(mid * a) < 0.0:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return k * k - s


def poschl_teller_energy(s: float) -> float:
    kappa = 0.5 * (math.sqrt(1.0 + 4.0 * s) - 1.0)
    return -kappa * kappa


def _close(got, want: float, rel: float) -> bool:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        return False
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def _not_below(bound, energy) -> bool:
    """A variational bound may not lie below the shooting energy."""
    return (
        isinstance(bound, float)
        and isinstance(energy, float)
        and bound >= energy - EXACT_REL * abs(energy)
    )


class _Ops:
    def __init__(self, label: str):
        self.label = label
        self.passed = 0
        self.problems = []

    def check(self, name: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.problems.append(f"{self.label}: {name}")


def expected_ops(job) -> int:
    return {
        "series": 6,
        "pade": 9 + len(PADE_SAMPLES),
        "greens-check": 2 + len(BETAS),
        "solve": 1,
        "compare": 5 * (job.sweep[2] if job.sweep else 0),
    }[job.command]


def _series(job, out: str, ops: _Ops) -> None:
    coeffs = json.loads(out)["coefficients"]
    ref, rel = {
        "square_well": (SQUARE_WELL, EXACT_REL),
        "poschl_teller": (SECH2, EXACT_REL),
        "gaussian": (GAUSSIAN, EXACT_REL),
        "tabulated": (SECH2, TABULATED_REL),
    }[job.kind]
    for n, want in enumerate((0.0,) + ref, start=1):
        ops.check(f"c{n}", n <= len(coeffs) and _close(coeffs[n - 1], want, rel))


def _pade(job, out: str, ops: _Ops) -> None:
    rep = json.loads(out)
    ops.check("alpha", _close(rep["alpha"], PADE_ALPHA, PADE_REL))
    for part, ref in (("numerator", PADE_NUM), ("denominator", PADE_DEN)):
        got = rep[part]
        for k, want in enumerate(ref):
            ops.check(f"{part}[{k}]", k < len(got) and _close(got[k], want, PADE_REL))
    samples = rep["samples"]
    for i, s in enumerate(PADE_SAMPLES):
        ok = i < len(samples) and _close(samples[i]["s"], s, EXACT_REL)
        ok = ok and samples[i]["reason"] == ""
        ops.check(f"sample s={s:g}", ok and _close(samples[i]["energy"], pade_energy(s), PADE_REL))


def _greens(job, out: str, ops: _Ops) -> None:
    rep = json.loads(out)
    limit = rep["e4_limit"]
    ops.check("e4_limit", _close(limit, GAUSSIAN[2], EXACT_REL))
    ladder = rep["ladder"]
    previous = math.inf
    for i, beta in enumerate(BETAS):
        ok = i < len(ladder) and _close(ladder[i]["beta"], beta, EXACT_REL)
        if ok:
            res, val = ladder[i]["residual"], ladder[i]["e4_finite_beta"]
            # criterion 7: residuals positive and shrinking with beta
            ok = _close(res, abs(val - limit), 1e-6) and 0.0 < res < previous
            previous = res
        ops.check(f"residual beta={beta:g}", ok)
    block = rep["divergent_block"]
    scale = block["scale"]
    ops.check(
        "divergent block",
        isinstance(scale, float) and scale > 0.0 and abs(block["symmetrized"]) <= 1e-8 * scale,
    )


def _solve(job, out: str, ops: _Ops) -> None:
    energy = json.loads(out)["energy"]
    if job.kind == "square_well":
        ok = _close(energy, square_well_energy(job.s), EXACT_REL)
    elif job.kind == "poschl_teller":
        ok = _close(energy, poschl_teller_energy(job.s), EXACT_REL)
    else:
        ok = _close(energy, poschl_teller_energy(job.s), TABULATED_REL)
    ops.check(f"energy s={job.s:.6g}", ok)


def _cell(text: str):
    return float(text) if text.strip() else None


def _compare(job, out: str, ops: _Ops) -> None:
    s_min, s_max, steps = job.sweep
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for i in range(steps):
        s = s_min + (s_max - s_min) * i / (steps - 1)
        row = rows[i] if i < len(rows) else []
        if len(row) != 7 or not _close(_cell(row[0]), s, EXACT_REL):
            for name in ("series", "pade", "var_gaussian", "var_expsqrt", "shooting"):
                ops.check(f"row {i} {name}", False)
            continue
        series, pade, var_g, var_e, shoot = (_cell(c) for c in row[1:6])
        pade_ref = pade_energy(s)
        ops.check(f"row {i} series", _close(series, gaussian_series(s), EXACT_REL))
        ops.check(
            f"row {i} pade",
            _close(pade, pade_ref, PADE_REL)
            and shoot is not None
            and _close(pade, shoot, PADE_VS_SHOOTING_REL),
        )
        ops.check(f"row {i} var_gaussian", _not_below(var_g, shoot))
        ops.check(
            f"row {i} var_expsqrt",
            _not_below(var_e, shoot) and _close(var_e, shoot, VAR_EXPSQRT_REL),
        )
        ops.check(f"row {i} shooting", _close(shoot, pade_ref, PADE_VS_SHOOTING_REL))


_CHECKERS = {
    "series": _series,
    "pade": _pade,
    "greens-check": _greens,
    "solve": _solve,
    "compare": _compare,
}


def check_job(job, rc, out: str):
    """Return (attempted, failed, problems) for one job's report."""
    attempted = expected_ops(job)
    ops = _Ops(f"{job.command} {job.kind} s={job.s:.6g}")
    if rc != 0:
        return attempted, attempted, [f"{ops.label}: exit code {rc}"]
    try:
        _CHECKERS[job.command](job, out, ops)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        ops.problems.append(f"{ops.label}: unreadable report ({type(exc).__name__}: {exc})")
    passed = min(ops.passed, attempted)
    return attempted, attempted - passed, ops.problems


def _corrupt(job, out: str) -> str:
    """One wrong value of the kind a broken program could print."""
    if job.command == "compare":
        lines = out.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[4] = ""  # empty var_expsqrt cell
        lines[1] = ",".join(cells)
        return "".join(lines)
    rep = json.loads(out)
    if job.command == "series":
        rep["coefficients"][-1] = -rep["coefficients"][-1]
    elif job.command == "pade":
        rep["numerator"][2] = -rep["numerator"][2]
    elif job.command == "greens-check":
        ladder = rep["ladder"]
        ladder[1]["residual"], ladder[2]["residual"] = ladder[2]["residual"], ladder[1]["residual"]
    else:
        rep["energy"] = -rep["energy"]
    return json.dumps(rep)


def self_test(results) -> list:
    """Confirm the checker fails corrupted reports; return any problems.

    ``results`` holds (job, rc, stdout) triples of reports that passed.
    """
    problems = []
    num, den, rel = CRITERION4
    if not all(_close(g, w, rel) for g, w in zip(PADE_NUM[1:] + PADE_DEN, num + den)):
        problems.append("reference Pade disagrees with criterion 4")
    for job, rc, out in results:
        attempted, failed, _ = check_job(job, rc, out)
        if failed:
            continue  # only a passing report shows that corruption is caught
        if check_job(job, rc, _corrupt(job, out))[1] < 1:
            problems.append(f"corrupted {job.command} report was not counted as failed")
        if check_job(job, 3, out)[1] != attempted:
            problems.append(f"nonzero exit of {job.command} was not counted as failed")
    return problems
