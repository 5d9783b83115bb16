import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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
        ("pade", GAUSS_CFG + "[run]\nasymptote = nan\n", []),
        ("pade", GAUSS_CFG + "[sweep]\ns_min = 0.5\ns_max = inf\nsteps = 3\n", []),
    ],
    ids=["s", "a", "grid-L", "grid-flag", "asymptote", "s_max"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, monkeypatch, command, config, extra):
    def no_computation(*args, **kwargs):
        raise AssertionError("computation ran on a non-finite config value")

    monkeypatch.setattr(cli, "energy_series", no_computation)
    cfg = _write(tmp_path, "c.ini", config)
    assert main([command, "--config", cfg] + extra) == 2
    assert "is not a finite number" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["series", "solve"])
def test_tiny_square_well_is_config_error(tmp_path, capsys, command):
    # panels of width a = 1e-9 would need 2e10 of them; refused before allocating
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = square_well\ns = 1\na = 1e-9\n")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# solve / pade / greens-check / compare


def test_solve_poschl_teller(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[potential]\nkind = poschl_teller\ns = 2.0\n")
    assert main(["solve", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy"] == pytest.approx(-1.0, abs=1e-8)


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


def test_greens_check_residuals_shrink(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", GAUSS_CFG)
    assert main(["greens-check", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = [row["residual"] for row in payload["ladder"]]
    assert res[0] > res[1] > res[2]
    block = payload["divergent_block"]
    assert abs(block["symmetrized"]) < 1e-8 * block["scale"]


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


def test_figure_sweep_script(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "figure_sweep.py"
    spec = importlib.util.spec_from_file_location("figure_sweep", script)
    figure_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(figure_sweep)
    out = tmp_path / "sweep.csv"
    argv = ["--steps", "2", "--s-min", "1", "--s-max", "2", "--out", str(out)]
    assert figure_sweep.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == cli.COMPARE_HEADERS
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    summary = capsys.readouterr().out.splitlines()
    assert summary[0] == f"wrote {out} (2 rows)"
    assert summary[1].startswith("max |pade - shooting| / |shooting|:")
    assert summary[2].startswith("max |var_expsqrt - shooting| / |shooting|:")
    assert float(summary[2].split(":")[1]) < 1e-2
