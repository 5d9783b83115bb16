"""Golden report tests: every subcommand in every format, byte for byte.

The numeric calls that ``cli`` makes are replaced by fixed values in the
modules that define them, so the files under ``tests/golden/`` pin how
reports are formatted, not what the solvers compute; they stay valid when
the numerics change.
"""
import csv
import io
from pathlib import Path

import pytest

from shallowwell import cli
from shallowwell.errors import BelowWellFloor, BracketFailure
from shallowwell.oracles import BoundStateResult
from shallowwell.perturbation import EnergySeries

GOLDEN = Path(__file__).parent / "golden"

COEFFICIENTS = (0.0, -0.785398163397, 1.11072073454, -1.89534087671, 3.56726988598, -7.13740423488)
ERRORS = (0.0, 0.0, 2.0e-16, -1.17e-16, 1.24e-16, 0.0)
E4_LIMIT = -1.89534087671

SWEEP = "[sweep]\ns_min = 0.5\ns_max = 1.5\nsteps = 3\n"
CONFIGS = {
    "square_well": "[potential]\nkind = square_well\ns = 1\na = 1\n",
    "gaussian": "[potential]\nkind = gaussian\ns = 1.0\n",
    "gaussian_sweep": "[potential]\nkind = gaussian\ns = 1.0\n" + SWEEP,
    "poschl_teller": "[potential]\nkind = poschl_teller\ns = 2.0\n",
    "shooting_fails": "[potential]\nkind = gaussian\ns = 1.0\n" + SWEEP,
}

# name -> (subcommand, config, extra arguments, exit code)
CASES = {
    "series_square_well": ("series", "square_well", [], 0),
    "series_gaussian": ("series", "gaussian", [], 0),
    "series_order3": ("series", "gaussian", ["--order", "3"], 0),
    "pade": ("pade", "gaussian", [], 0),
    "pade_sweep": ("pade", "gaussian_sweep", [], 0),
    "solve": ("solve", "poschl_teller", [], 0),
    "greens_check": ("greens-check", "gaussian", [], 0),
    "compare": ("compare", "gaussian_sweep", [], 0),
    "compare_incomplete": ("compare", "shooting_fails", [], 3),
}
FORMATS = ("text", "csv", "json")


def _fake_numerics(monkeypatch, shooting_fails: bool):
    def energy_series(p, order=6, g=None):
        return EnergySeries(COEFFICIENTS[:order], p.kind, (10.0, 128, 8), ERRORS[:order])

    def shooting_sweep(p, s_values):
        if len(s_values) == 1:  # solve's one strength
            return [BoundStateResult(-0.25 * p.s, 3.0e-13, 41, (-0.5, -0.125))]
        if shooting_fails:
            return [BracketFailure("no sign change in [-10, 0]") for s in s_values]
        return [BoundStateResult(-0.3 * s * s, 1.0e-12, 40, (-1.0, 0.0)) for s in s_values]

    def var_minimize(kind, p, g):
        if kind == "expsqrt" and p.s > 1.2:
            raise BelowWellFloor("no restart converged")
        return None, (-0.29 if kind == "gaussian" else -0.295) * p.s * p.s

    def e4_finite_beta(p, g, beta):
        return E4_LIMIT + 0.37 * beta

    monkeypatch.setattr("shallowwell.perturbation.energy_series", energy_series)
    monkeypatch.setattr("shallowwell.oracles.shooting_sweep", shooting_sweep)
    monkeypatch.setattr("shallowwell.variational.minimize", var_minimize)
    monkeypatch.setattr("shallowwell.greens.e4_finite_beta", e4_finite_beta)
    monkeypatch.setattr("shallowwell.greens.divergent_block", lambda p: (-3.5e-18, 0.0625))
    monkeypatch.setattr("shallowwell.perturbation.evaluate_terms", lambda terms, p, g: E4_LIMIT)


def run_case(name, fmt, tmp_path, monkeypatch, capsys):
    """Exit code and stdout of one golden case with the fake numerics."""
    command, config, extra, _ = CASES[name]
    _fake_numerics(monkeypatch, shooting_fails=config == "shooting_fails")
    path = tmp_path / "run.ini"
    path.write_text(CONFIGS[config])
    rc = cli.main([command, "--config", str(path), "--format", fmt] + extra)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, fmt, tmp_path, monkeypatch, capsys):
    rc, out = run_case(name, fmt, tmp_path, monkeypatch, capsys)
    assert rc == CASES[name][3]
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")


def test_reason_holding_a_comma_is_one_csv_field(tmp_path, monkeypatch, capsys):
    _, out = run_case("compare_incomplete", "csv", tmp_path, monkeypatch, capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [7] * 4
    assert rows[1][-1] == "shooting: no sign change in [-10, 0]"
