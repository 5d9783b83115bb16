import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shallowwell
from shallowwell import cli
from shallowwell.cli import load_config, main
from shallowwell.errors import ConfigError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GAUSS_CFG = "[potential]\nkind = gaussian\ns = 1.0\n"


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["series", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = gaussian\nwobble = 3\n")
    assert main(["series", "--config", cfg]) == 2
    assert "wobble" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG + "[plotting]\nstyle = x\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_bad_order_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["series", "--config", cfg, "--order", "9"]) == 2


def test_bad_grid_override_rejected(tmp_path):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["series", "--config", cfg, "--grid", "10,128"]) == 2
    assert main(["series", "--config", cfg, "--grid", "10,128,99"]) == 2
    assert main(["series", "--config", cfg, "--grid", "ten,128,8"]) == 2


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("series", "[potential]\nkind = gaussian\ns = nan\n", []),
        ("series", "[potential]\nkind = square_well\na = inf\n", []),
        ("series", GAUSS_CFG + "[grid]\nL = inf\nP = 64\nq = 8\n", []),
        ("series", GAUSS_CFG, ["--grid", "inf,64,8"]),
        ("pade", GAUSS_CFG + "[sweep]\ns_min = -inf\ns_max = 0.5\nsteps = 3\n", []),
        ("pade", GAUSS_CFG + "[sweep]\ns_min = 0.5\ns_max = inf\nsteps = 3\n", []),
    ],
    ids=["s", "a", "grid-L", "grid-flag", "s_min", "s_max"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, monkeypatch, command, config, extra):
    def no_computation(*args, **kwargs):
        raise AssertionError("computation ran on a non-finite config value")

    monkeypatch.setattr("shallowwell.perturbation.energy_series", no_computation)
    cfg = _write(tmp_path, "c.ini", config)
    assert main([command, "--config", cfg] + extra) == 2
    assert "is not a finite number" in capsys.readouterr().err


def _one_line_exit(capsys, code, argv):
    """Run the CLI; assert its exit code and one stderr line, no traceback; return (out, err)."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and "Traceback" not in err
    return out, err


GRID_CFG = "[grid]\nL = 10\nP = 64\nq = 8\n"
SWEEP_CFG = "[sweep]\ns_min = 0.5\ns_max = 1.5\nsteps = 3\n"
# one non-numeric value under each numeric key: (command, config)
NOT_NUMBERS = {
    "s": ("series", "[potential]\nkind = gaussian\ns = banana\n"),
    "a": ("series", "[potential]\nkind = square_well\na = banana\n"),
    "L": ("series", GAUSS_CFG + GRID_CFG.replace("10", "banana")),
    "P": ("series", GAUSS_CFG + GRID_CFG.replace("64", "banana")),
    "q": ("series", GAUSS_CFG + GRID_CFG.replace("8", "banana")),
    "order": ("series", GAUSS_CFG + "[run]\norder = banana\n"),
    "s_min": ("pade", GAUSS_CFG + SWEEP_CFG.replace("0.5", "banana")),
    "s_max": ("pade", GAUSS_CFG + SWEEP_CFG.replace("1.5", "banana")),
    "steps": ("pade", GAUSS_CFG + SWEEP_CFG.replace("3", "banana")),
}
REFUSALS = {
    "a-on-gaussian": ("solve", GAUSS_CFG + "a = 0.7\n", [], "a is not read by kind = gaussian"),
    "a-not-a-number-on-gaussian": ("solve", GAUSS_CFG + "a = banana\n", [], "is not a number"),
    "file-on-poschl_teller": (
        "series",
        "[potential]\nkind = poschl_teller\nfile = /nonexistent\n",
        [],
        "file is not read by kind = poschl_teller",
    ),
    **{
        f"not-a-number-{key}": (command, config, [], f"{key}='banana' is not")
        for key, (command, config) in NOT_NUMBERS.items()
    },
    "not-a-number-order-flag": ("series", GAUSS_CFG, ["--order", "banana"], "is not an integer"),
    **{
        f"order-flag-on-{command}": (command, GAUSS_CFG + SWEEP_CFG, ["--order", "2"], "--order")
        for command in ("solve", "compare", "pade", "greens-check")
    },
    "grid-flag-on-solve": ("solve", GAUSS_CFG, ["--grid", "10,64,8"], "--grid"),
    "run-asymptote": ("pade", GAUSS_CFG + "[run]\nasymptote = 1.0\n", [], "'asymptote'"),
}


@pytest.mark.parametrize("command, config, extra, fragment", REFUSALS.values(), ids=REFUSALS)
def test_unread_or_mistyped_input_refused(
    tmp_path, capsys, monkeypatch, command, config, extra, fragment
):
    def no_computation(*args, **kwargs):
        raise AssertionError("computation ran on a refused input")

    for target in ("shallowwell.perturbation.energy_series", "shallowwell.oracles.shooting_sweep"):
        monkeypatch.setattr(target, no_computation)
    cfg = _write(tmp_path, "c.ini", config)
    out, err = _one_line_exit(capsys, 2, [command, "--config", cfg] + extra)
    assert out == "" and err.startswith("config error: ") and fragment in err


def test_sweep_validation(tmp_path):
    cfg = _write(
        tmp_path, "c.ini", GAUSS_CFG + "[sweep]\ns_min = 2.0\ns_max = 1.0\nsteps = 5\n"
    )
    assert main(["compare", "--config", cfg]) == 2


def test_compare_requires_sweep(tmp_path):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["compare", "--config", cfg]) == 2


def test_tabulated_requires_file(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = tabulated\n")
    assert main(["series", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "samples", ["-1 0\n0 nan\n1 0\n", "-1 0\ninf -0.5\n"], ids=["nan-value", "inf-abscissa"]
)
def test_non_finite_tabulated_samples_rejected(tmp_path, capsys, samples):
    path = _write(tmp_path, "samples.txt", samples)
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {path}\n")
    assert main(["series", "--config", cfg]) == 2
    assert "tabulated samples must be finite" in capsys.readouterr().err


def test_empty_sample_file_is_one_config_error(tmp_path, capsys):
    path = _write(tmp_path, "samples.txt", "# x V\n# no rows\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {path}\n")
    _, err = _one_line_exit(capsys, 2, ["series", "--config", cfg])
    assert "has no data rows" in err


# ---------------------------------------------------------------------------
# series


def test_series_gaussian_text(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["series", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "-0.785398163" in out
    assert "coefficient [E/s^n]" in out


def test_series_square_well_prints_rationals(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = square_well\ns = 1\na = 1\n")
    assert main(["series", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for rational in ("4/3", "-92/45", "1072/315", "-84752/14175"):
        assert rational in out


def test_series_zero_tabulated_all_zero(tmp_path, capsys):
    samples = _write(tmp_path, "zeros.txt", "# x V\n-1 0\n0 0\n1 0\n")
    cfg = _write(
        tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n"
    )
    assert main(["series", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == [0.0] * 6


def test_series_json_structure(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["series", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == "gaussian"
    assert len(payload["coefficients"]) == 6
    assert payload["coefficients"][1] == pytest.approx(-0.785398163, rel=1e-8)


def test_series_csv_headers_carry_units(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["series", "--config", cfg, "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",") == [
        "order [1]",
        "coefficient [E/s^n]",
        "rel_error_estimate [1]",
    ]


def test_series_deterministic_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["series", "--config", cfg, "--format", "csv", "--out", out1]) == 0
    assert main(["series", "--config", cfg, "--format", "csv", "--out", out2]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_series_order_and_grid_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(
        ["series", "--config", cfg, "--order", "3", "--grid", "10,64,8", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["coefficients"]) == 3
    assert payload["grid"] == {"L": 10.0, "P": 64, "q": 8}


def test_square_well_grid_override_snaps_to_edges(tmp_path, capsys):
    # P=101 puts the well edges +-1 inside panels; the override is snapped
    # to P=100 so that they fall on panel boundaries
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = square_well\ns = 1\na = 1\n")
    assert main(["series", "--config", cfg, "--grid", "10,101,8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grid"] == {"L": 10.0, "P": 100, "q": 8}
    assert payload["coefficients"][1] == pytest.approx(-1.0, rel=1e-12)
    assert max(abs(e) for e in payload["error_estimates"]) < 1e-14


@pytest.mark.parametrize(
    "command, a, extra",
    [
        ("series", "1e-9", []),
        ("solve", "1e-9", []),
        ("series", "1e-300", []),
        ("series", "1e-320", []),
        ("series", "1e10", ["--grid", "1e-300,64,8"]),
        ("series", "1e308", []),
    ],
    ids=["series", "solve", "series-a-1e-300", "series-a-1e-320", "series-a-1e10-grid-1e-300",
         "series-a-1e308"],
)
def test_tiny_square_well_is_config_error(tmp_path, capsys, command, a, extra):
    # panels of width a = 1e-9 would need 2e10 of them, and 1e-320 an infinite
    # count; refused before allocating, in a short line that names a. So is a
    # well whose panel count a/(2L/P), or panel width 2L/P, overflows a float.
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = square_well\ns = 1\na = {a}\n")
    out, err = _one_line_exit(capsys, 2, [command, "--config", cfg] + extra)
    assert out == "" and err.startswith("config error: ")
    assert f"a={float(a):g} " in err and len(err) < 100


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.mark.parametrize(
    "samples, extra",
    [
        ("-1e-5 0\n0 -1\n1e-5 0\n", []),
        (None, ["--grid", "1e6,64,8"]),
        (None, ["--grid", "1e300,64,8"]),
    ],
    ids=["tabulated-spike", "gaussian-L-1e6", "gaussian-L-1e300"],
)
def test_grid_missing_the_well_is_config_error(tmp_path, capsys, samples, extra):
    # c2 = -(integral of shape)^2 / 4 < 0 for every nonzero well: an all-zero series is wrong
    config = GAUSS_CFG
    if samples is not None:
        config = f"[potential]\nkind = tabulated\nfile = {_write(tmp_path, 's.txt', samples)}\n"
    cfg = _write(tmp_path, "c.ini", config)
    out, err = _one_line_exit(capsys, 2, ["series", "--config", cfg] + extra)
    assert out == "" and "misses the well" in err and " P=" in err


@pytest.mark.parametrize("halfwidth", ["1e31", "1e32", "1e40", "1e200"])
def test_series_overflow_is_numeric_failure(tmp_path, capsys, halfwidth):
    # a triangle of halfwidth W has c_n ~ W^(2n-2): c6 overflows, or an intermediate does
    path = _write(tmp_path, "tri.txt", f"-{halfwidth} 0\n0 -1\n{halfwidth} 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {path}\n")
    out, err = _one_line_exit(capsys, 3, ["series", "--config", cfg, "--format", "json"])
    assert out == "" and err.startswith("numeric failure: ")


# ---------------------------------------------------------------------------
# solve / pade / greens-check / compare


def test_solve_poschl_teller(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = poschl_teller\ns = 2.0\n")
    assert main(["solve", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy"] == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize(
    "s, reason",
    [
        ("0", "a nonzero attractive potential is required"),
        ("1e200", "no Wronskian sign change for strength s=1e+200"),
    ],
)
def test_solve_failure_is_one_numeric_failure_line(tmp_path, capsys, s, reason):
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = gaussian\ns = {s}\n")
    out, err = _one_line_exit(capsys, 3, ["solve", "--config", cfg])
    assert out == "" and err == f"numeric failure: BracketFailure: {reason}\n"


UNDERFLOWING = {"depth-5e-324": ("5e-324", "1"), "depth-1e-300-at-s-1e-300": ("1e-300", "1e-300")}


@pytest.mark.parametrize("depth, s", UNDERFLOWING.values(), ids=UNDERFLOWING)
def test_solve_underflowing_depth_is_one_numeric_failure_line(tmp_path, capsys, depth, s):
    # kappa^2 at the bottom of the search range underflows to 0, and with it
    # the shooting sub-block bound pi/(2 h sqrt(q)) would divide by zero
    samples = _write(tmp_path, "s.txt", f"-1 0\n0 -{depth}\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\ns = {s}\nfile = {samples}\n")
    out, err = _one_line_exit(capsys, 3, ["solve", "--config", cfg])
    reason = f"the well depth underflows for strength s={float(s):g}"
    assert out == "" and err == f"numeric failure: BracketFailure: {reason}\n"


def test_compare_underflowing_depth_leaves_its_shooting_cells_empty(tmp_path, capsys):
    samples = _write(tmp_path, "s.txt", "-1 0\n0 -5e-324\n1 0\n")
    sweep = "[sweep]\ns_min = 1e-3\ns_max = 1e3\nsteps = 3\n"
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n" + sweep)
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["0.001", "500.0005", "1000"]
    for row, s in zip(rows, ("0.001", "500", "1000")):
        assert row[1] == row[2] == row[5] == ""
        assert row[-1].startswith("series: c2 underflows to 0")
        assert "; pade: c2 underflows to 0" in row[-1]
        assert row[-1].endswith(f"; shooting: the well depth underflows for strength s={s}")


@pytest.mark.parametrize("command", ["series", "pade"])
@pytest.mark.parametrize(
    "depth, n", [("5e-324", 2), ("1e-160", 2), ("1e-100", 4), ("1e-60", 6)]
)
def test_underflowing_coefficient_is_numeric_failure(tmp_path, capsys, command, depth, n):
    # c_n ~ depth^n: a nonzero well reported with a 0 or subnormal c_n is wrong
    samples = _write(tmp_path, "s.txt", f"-1 0\n0 -{depth}\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n")
    out, err = _one_line_exit(capsys, 3, [command, "--config", cfg])
    assert out == "" and err.startswith(f"numeric failure: ShallowWellError: c{n} underflows")


def test_series_truncated_above_its_underflow_succeeds(tmp_path, capsys):
    # at depth 1e-100, c4..c6 underflow but c2 and c3 are normal floats
    samples = _write(tmp_path, "s.txt", "-1 0\n0 -1e-100\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n")
    assert main(["series", "--config", cfg, "--order", "3", "--format", "json"]) == 0
    c = json.loads(capsys.readouterr().out)["coefficients"]
    assert c[1] == pytest.approx(-2.5e-201, rel=1e-4) and 0.0 < c[2] < 1e-300


def _cli_child(tmp_path, argv, address_space=1 << 30):
    """Run the CLI in a child process with that much address space: (exit code, stdout, stderr)."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    # one BLAS thread: OpenBLAS reserves about 40 MB of address space per thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(shallowwell.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "shallowwell.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300, preexec_fn=limit_address_space,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "command, config, extra, spec",
    [
        ("series", GAUSS_CFG, ["--grid", "15,1000000,8"], "L=15 P=1000000 q=8"),
        ("greens-check", GAUSS_CFG, ["--grid", "15,1000000,8"], "L=15 P=1000000 q=8"),
        ("series", "[potential]\nkind = square_well\na = 1e-5\n", [], "L=10 P=2000000 q=8"),
    ],
    ids=["series-grid-P-1e6", "greens-check-grid-P-1e6", "series-square-a-1e-5"],
)
def test_grid_whose_fine_plan_is_too_large_is_config_error(tmp_path, command, config, extra, spec):
    # the fine twin's kink plan holds 2P * q * 2q values, 32 times the grid's
    # nodes at q = 8: refused before any of it is built, well inside 1 GiB
    cfg = _write(tmp_path, "c.ini", config)
    code, out, err = _cli_child(tmp_path, [command, "--config", cfg] + extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"config error: grid {spec} is too large")


@pytest.mark.parametrize("command", ["series", "solve", "greens-check"])
def test_huge_abscissas_fail_in_one_line(tmp_path, command):
    # samples 2e308 apart: checking their order must not overflow into a warning,
    # and their default grid, whose width 2L overflows, is refused before it is built
    samples = _write(tmp_path, "s.txt", "-1e308 -1\n1e308 -1\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n")
    code, out, err = _cli_child(tmp_path, [command, "--config", cfg])
    assert (code, out) == (2, "")
    assert err == "config error: domain halfwidth must be positive with 2L finite, got L=1e+308\n"


def test_grid_halfwidth_whose_double_overflows_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    out, err = _one_line_exit(capsys, 2, ["series", "--config", cfg, "--grid", "1e308,64,8"])
    assert out == "" and err.startswith("config error: ") and "L=1e+308" in err


def test_pade_reports_reference_denominator(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["pade", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == -1.0
    assert payload["denominator"] == pytest.approx(
        [1.0, 3.38542, 2.80348, 0.336931], rel=1e-3
    )


def test_pade_default_asymptote_is_shape_peak(tmp_path, capsys):
    # an off-centre sech^2 well: the deep-well limit is E -> -s * max shape,
    # while shape(0) = sech^2(1.3) would give alpha = -0.257
    x0 = 1.3
    xs = np.linspace(x0 - 12.0, x0 + 12.0, 2401)
    samples = tmp_path / "sech2.txt"
    np.savetxt(samples, np.column_stack([xs, -1.0 / np.cosh(xs - x0) ** 2]))
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n")
    assert main(["pade", "--config", cfg, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == -1.0


def test_unwritable_out_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = poschl_teller\ns = 2.0\n")
    out = str(tmp_path / "missing" / "report.txt")
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    assert "config error: cannot write" in capsys.readouterr().err


def test_percent_sign_in_config_path_is_literal(tmp_path):
    out = tmp_path / "100%.txt"
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = poschl_teller\n[run]\nout = {out}\n")
    assert main(["solve", "--config", cfg]) == 0
    assert out.read_text().startswith("# poschl_teller s=1 bound state")


def test_greens_check_residuals_shrink(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["greens-check", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = [row["residual"] for row in payload["ladder"]]
    assert res[0] > res[1] > res[2]
    block = payload["divergent_block"]
    assert abs(block["symmetrized"]) < 1e-8 * block["scale"]


def test_greens_check_reports_per_unit_strength(tmp_path, capsys):
    # every cell is labelled [E/s^4]: the configured strength must not scale it
    reports = []
    for s in ("1", "2"):
        cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = gaussian\ns = {s}\n")
        assert main(["greens-check", "--config", cfg]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "-1.89534088" in reports[0]


@pytest.mark.parametrize("depth", ["5e-324", "1e-100"])
def test_greens_check_underflowing_e4_is_numeric_failure(tmp_path, capsys, depth):
    # e4 ~ depth^4 of a nonzero well: a 0 there is an underflow, not a report
    samples = _write(tmp_path, "s.txt", f"-1 0\n0 -{depth}\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n")
    out, err = _one_line_exit(capsys, 3, ["greens-check", "--config", cfg])
    assert out == ""
    assert err == "numeric failure: ShallowWellError: c4 underflows to 0, below the normal floats\n"


def test_greens_check_odd_panel_count_is_config_error(tmp_path, capsys):
    # an odd panel count puts the kinks of |x| and e^{-beta|x|} inside a panel
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["greens-check", "--config", cfg, "--grid", "15,129,8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "129" in captured.err


def test_compare_small_sweep(tmp_path):
    cfg = _write(
        tmp_path,
        "c.ini",
        GAUSS_CFG + "[sweep]\ns_min = 0.5\ns_max = 1.5\nsteps = 3\n",
    )
    out = str(tmp_path / "sweep.csv")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "s [E]" and header[-1] == "reason [text]"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        s, series, pade_v, var_g, var_e, shoot = (float(c) for c in cells[:6])
        assert cells[6] == ""
        # Rayleigh-Ritz: both variational columns upper-bound the exact energy
        assert var_g >= shoot - 1e-9
        assert var_e >= shoot - 1e-9


def test_compare_shooting_failure_stays_in_its_row(tmp_path):
    # s = 1e-13 binds far below the shooting search range; only its own row may lose the cell
    cfg = _write(
        tmp_path,
        "c.ini",
        GAUSS_CFG + "[sweep]\ns_min = 1e-13\ns_max = 0.5\nsteps = 2\n",
    )
    out = str(tmp_path / "sweep.csv")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    tiny, half = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert tiny.split(",")[5] == ""
    assert "shooting: no Wronskian sign change for strength s=1e-13" in tiny
    shoot = half.split(",")[5]
    assert float(shoot) < 0.0
    assert "shooting" not in half


HUGE_SWEEP = GAUSS_CFG + "[sweep]\ns_min = 1e100\ns_max = 1e200\nsteps = 2\n"


def test_pade_overflowing_sample_fails_alone(tmp_path, capsys):
    # both samples evaluate to the deep-well limit; at s = 1e200 p(s) and q(s)
    # overflow, and evaluate_pade takes their ratio in 1/s
    cfg = _write(tmp_path, "c.ini", HUGE_SWEEP)
    assert main(["pade", "--config", cfg, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    samples = json.loads(out, parse_constant=_refuse_constant)["samples"]
    assert [row["energy"] for row in samples] == [-1e100, -1e200]
    assert [row["reason"] for row in samples] == ["", ""]
    # a well of peak 2 at s = 1e308 lies near -2e308, beyond the floats: that sample fails alone
    path = _write(tmp_path, "tri.txt", "-1 0\n0 -2\n1 0\n")
    sweep = "[sweep]\ns_min = 1\ns_max = 1e308\nsteps = 2\n"
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {path}\n" + sweep)
    assert main(["pade", "--config", cfg, "--format", "json"]) == 0
    samples = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["samples"]
    assert samples[0]["energy"] < 0.0 and samples[1]["energy"] is None
    assert [row["reason"] for row in samples] == ["", "result -inf is not finite"]


def test_compare_overflow_fails_only_its_cells(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", HUGE_SWEEP)
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["1e+100", "1e+200"]
    for row in rows:
        assert len(row) == len(cli.COMPARE_HEADERS)
        assert row[1] == "" and "series: float overflow" in row[-1]
        assert all(cell == "" or math.isfinite(float(cell)) for cell in row[:-1])


def test_compare_series_inf_minus_inf_fails_only_its_cell(tmp_path, capsys):
    # a triangle of halfwidth 1e20 has c_n ~ 1e20^(2n-2) of both signs; at
    # s = 1e30 the terms c_n s^n overflow to +-inf and math.fsum raises
    # ValueError on inf - inf, which fails the series cell and nothing more
    path = _write(tmp_path, "tri.txt", "-1e20 0\n0 -1\n1e20 0\n")
    sweep = "[sweep]\ns_min = 1\ns_max = 1e30\nsteps = 2\n"
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {path}\n" + sweep)
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["1", "1e+30"]
    assert rows[0][1] == "-2.47398435e+198" and "series:" not in rows[0][-1]
    assert rows[1][1] == "" and rows[1][-1].startswith("series: -inf + inf in fsum; ")


def test_compare_zero_well_fails_only_its_pade_cells(tmp_path, capsys):
    # an all-zero series has no Pade approximant; the report is still written
    samples = _write(tmp_path, "zeros.txt", "# x V\n-1 0\n0 0\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n" + SWEEP_CFG)
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["0.5", "1", "1.5"]
    for row in rows:
        assert row[1] == "0" and row[2] == ""
        assert float(row[3]) >= 0.0 and float(row[4]) >= 0.0  # upper bounds on no bound state
        assert row[-1].startswith("pade: denominator system is rank deficient")


def test_compare_zero_well_labels_its_shooting_reason_once(tmp_path, capsys):
    # compare prefixes each reason with its column label; the shooting
    # message must not carry a second one
    samples = _write(tmp_path, "zeros.txt", "-1 0\n0 0\n1 0\n")
    cfg = _write(tmp_path, "c.ini", f"[potential]\nkind = tabulated\nfile = {samples}\n" + SWEEP_CFG)
    out, _ = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 3
    for row in rows:
        assert row[-1].count("shooting:") == 1 and row[-1].count("shooting") == 1
        assert row[-1].endswith("; shooting: a nonzero attractive potential is required")


def test_compare_deep_well_variational_cells_fail_at_the_floor(tmp_path, capsys):
    # the default grid misses the narrow optimal trials at these strengths, so
    # both quotients fall below the floor -s; only those cells are lost
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG + "[sweep]\ns_min = 1e6\ns_max = 2e6\nsteps = 2\n")
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["1000000", "2000000"]
    for row, floor in zip(rows, ("-1000000", "-2000000")):
        assert row[3] == row[4] == ""
        assert float(floor) < float(row[5]) < 0.0  # shooting stays
        for label in ("var_gaussian", "var_expsqrt"):
            assert f"{label}: minimum" in row[-1]
        assert row[-1].count(f"at or below the well floor {floor}") == 2


def test_compare_variational_overflow_fails_both_cells(tmp_path, capsys):
    # from s ~ 1e308 the sum int V psi^2 of a wide trial overflows inside the
    # one search that serves both families, so both cells fail with it
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG + "[sweep]\ns_min = 1.5e308\ns_max = 1.7e308\nsteps = 2\n")
    out, err = _one_line_exit(capsys, 3, ["compare", "--config", cfg])
    assert err == "numeric failure: no row is complete\n"
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["1.5e+308", "1.7e+308"]
    for row in rows:
        assert row[3] == row[4] == ""
        assert "var_gaussian: float overflow; var_expsqrt: float overflow" in row[-1]


# ---------------------------------------------------------------------------
# the exit-code and report contract, on drawn inputs

#: tabulated abscissas: order one, or of either sign anywhere up to 1e308
_ABSCISSAS = st.one_of(
    st.floats(-10.0, 10.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 308.0)),
)
#: tabulated depths -V, down to the smallest subnormal
_DEPTHS = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(-320.0, 10.0).map(lambda e: 10.0**e))


@st.composite
def _cli_runs(draw):
    """(files to write, argv, whether the well is nonzero) of one drawn CLI run."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    # shooting takes 1-5 s per strength from s ~ 1e5 to 1e20 (ROADMAP item 7)
    top = 4.0 if command in ("solve", "compare") else 300.0
    kind = draw(st.sampled_from(sorted(cli._KINDS)))
    config = f"[potential]\nkind = {kind}\ns = {10.0 ** draw(st.floats(-320.0, top))!r}\n"
    files, nonzero = {}, True
    if kind == "square_well":  # narrower wells take seconds (ROADMAP item 9)
        config += f"a = {10.0 ** draw(st.floats(math.log10(0.05), 2.0))!r}\n"
    if kind == "tabulated":
        xs = sorted(draw(st.lists(_ABSCISSAS, min_size=2, max_size=5, unique=True)))
        depths = draw(st.lists(_DEPTHS, min_size=len(xs), max_size=len(xs)))
        files["s.txt"] = "".join(f"{x!r} {-d!r}\n" for x, d in zip(xs, depths))
        config += "file = s.txt\n"
        nonzero = any(depths)
    if command == "compare" or command == "pade" and draw(st.booleans()):
        lo = draw(st.floats(-320.0, top - 0.01))
        s_min, s_max = 10.0**lo, 10.0 ** draw(st.floats(lo + 0.01, top))
        steps = draw(st.integers(2, 3))  # longer sweeps take seconds
        config += f"[sweep]\ns_min = {s_min!r}\ns_max = {s_max!r}\nsteps = {steps}\n"
    files["c.ini"] = config
    argv = [command, "--config", "c.ini", "--format", draw(st.sampled_from(["text", "csv", "json"]))]
    if command != "solve" and draw(st.booleans()):
        L = 10.0 ** draw(st.floats(-3.0, 308.0))
        argv += ["--grid", f"{L!r},{draw(st.integers(1, 256))},{draw(st.integers(1, 16))}"]
    return files, argv, nonzero


def _tables(out):
    """(headers, rows of cells) of each table in a text or csv report."""
    tables = []
    if out.startswith("# "):  # text: columns start where their headers do
        for block in out.split("\n", 1)[1].split("\n\n"):
            lines = block.splitlines()
            starts = [m.start() for m in re.finditer(r"\S+(?: \S+)*", lines[0])]
            spans = list(zip(starts, starts[1:] + [None]))
            tables.append([[line[a:b].strip() for a, b in spans] for line in lines])
        return [(t[0], t[1:]) for t in tables]
    for row in csv.reader(io.StringIO(out)):
        if all(re.fullmatch(r".* \[.*\]", cell) for cell in row):  # every header has a unit
            tables.append((row, []))
        else:
            assert len(row) == len(tables[-1][0]), row
            tables[-1][1].append(row)
    return tables


def _pade_value(alpha, numerator, denominator, s):
    """alpha*s + p(s)/q(s) in exact arithmetic, with the largest term of q(s)."""
    s = Fraction(s)
    p = sum(Fraction(c) * s**i for i, c in enumerate(numerator))
    q_terms = [Fraction(c) * s**i for i, c in enumerate(denominator)]
    q = sum(q_terms)
    return (Fraction(alpha) * s + p / q if q else None), q, max(map(abs, q_terms))


@settings(max_examples=18)
@given(_cli_runs())
# the Pade samples whose polynomials overflow, and a square well
@example(({"c.ini": GAUSS_CFG + "[sweep]\ns_min = 6e102\ns_max = 1e150\nsteps = 3\n"},
          ["pade", "--config", "c.ini", "--format", "json"], True))
@example(({"c.ini": "[potential]\nkind = square_well\ns = 2.5\na = 0.7\n"},
          ["series", "--config", "c.ini", "--format", "text"], True))
def test_cli_contract_on_drawn_inputs(run):
    files, argv, nonzero = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        with ThreadPoolExecutor(2) as pool:  # the second run checks that the bytes repeat
            first, second = pool.map(lambda _: _cli_child(tmp, argv, 2 << 30), range(2))
    assert first == second
    code, out, err = first
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    assert err == "" if code == 0 else err.count("\n") == 1 and err.endswith("\n")
    command, fmt = argv[0], argv[4]
    if fmt == "json" and command != "compare":  # compare writes csv whatever the format
        payload = json.loads(out, parse_constant=_refuse_constant) if out else None
    else:
        payload = None
        for headers, rows in _tables(out):
            for j, header in enumerate(headers):
                # a failed cell is empty; series' exact column holds rationals such as 4/3
                for cell in (row[j] for row in rows if not header.endswith("[text]")):
                    assert cell == "" or "/" in cell or math.isfinite(float(cell)), (header, cell)
    if command == "series" and code == 0 and nonzero:  # else exit 3, say with "c2 underflows"
        c2 = payload["coefficients"][1] if payload else float(_tables(out)[0][1][1][1])
        assert c2 < 0.0
    if command == "pade" and code == 0:
        if payload is None:
            parts, samples = _tables(out)
            payload = {"alpha": [], "numerator": [], "denominator": []}
            for part, _, value in parts[1]:
                payload[part].append(float(value))
            payload["alpha"] = payload["alpha"][0]
            samples = [(float(s), v, why) for s, v, why in samples[1]]
        else:
            samples = [(r["s"], r["energy"], r["reason"]) for r in payload["samples"]]
        alpha, numerator, denominator = (payload[k] for k in ("alpha", "numerator", "denominator"))
        for s, energy, why in samples:
            if energy not in ("", None):
                continue
            # a Pade sample fails only at a pole or where the approximant leaves the floats
            value, q, q_scale = _pade_value(alpha, numerator, denominator, s)
            if why.startswith("denominator vanishes"):
                assert abs(q) <= 1e-8 * q_scale, (s, why)
            else:
                assert value is None or abs(value) > sys.float_info.max * (1 - 1e-8), (s, why)
