"""Batch front-end: config in, deterministic reports out.

Subcommands
    series       weak-coupling coefficients with error estimates
    compare      five-curve sweep (series / Pade / two variational / shooting)
    pade         asymptote-subtracted Pade coefficients and samples
    solve        single shooting/Wronskian bound-state solve
    greens-check finite-regulator consistency and divergence cancellation

Configs are INI-style key=value files with a [potential] section; unknown
keys are rejected before any computation starts. All floats print with 9
significant digits, so identical configs produce byte-identical output.
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShallowWellError
from .greens import divergent_block, e4_finite_beta
from .oracles import shooting_solve, shooting_sweep
from .perturbation import energy_series, evaluate_terms, load_terms
from .potential import Potential
from .quadrature import build_grid, default_grid
from .resummation import evaluate_pade, pade_with_asymptote
from .variational import minimize as _var_minimize

#: exact rationals for the unit-halfwidth square well, c2..c6
_SQUARE_WELL_RATIONALS = ("-1", "4/3", "-92/45", "1072/315", "-84752/14175")

_KNOWN_KEYS = {
    "potential": {"kind", "s", "a", "file"},
    "grid": {"L", "P", "q"},
    "run": {"order", "format", "out", "asymptote"},
    "sweep": {"s_min", "s_max", "steps"},
}

_BETA_LADDER = (0.02, 0.01, 0.005)


@dataclass
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    potential: Potential
    order: int = 6
    fmt: str = "text"
    out: str | None = None
    grid: tuple | None = None  # (L, P, q) override
    asymptote: float | None = None  # Pade split; default shape_max()
    sweep: tuple | None = None  # (s_min, s_max, steps)
    ini_path: str | None = field(default=None, compare=False)


def _fail(msg: str) -> "ConfigError":
    return ConfigError(msg)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(f"[{section}] {key}={raw!r} is not a number") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(f"[{section}] {key}={raw!r} is not an integer") from None


def _load_samples(path: str):
    """Two whitespace-separated columns (x, V), '#' comments."""
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise _fail(f"cannot read sample file {path!r}: {exc}") from None
    except ValueError as exc:
        raise _fail(f"malformed sample file {path!r}: {exc}") from None
    if data.shape[1] != 2:
        raise _fail(f"sample file {path!r} must have exactly two columns")
    return data[:, 0], data[:, 1]


def load_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file.

    Raises:
        ConfigError: unreadable file, unknown section/key, bad value, or
            missing potential specification.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case so L and P read naturally
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise _fail(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise _fail(f"malformed config {path!r}: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise _fail(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise _fail(f"unknown key {key!r} in section [{section}]")
    if "potential" not in parser:
        raise _fail("config must contain a [potential] section")

    pot = parser["potential"]
    kind = pot.get("kind")
    if kind is None:
        raise _fail("[potential] must set kind")
    s = _parse_float("potential", "s", pot.get("s", "1.0"))
    try:
        if kind == "square_well":
            potential = Potential.square_well(s, a=_parse_float("potential", "a", pot.get("a", "1.0")))
        elif kind == "poschl_teller":
            potential = Potential.poschl_teller(s)
        elif kind == "gaussian":
            potential = Potential.gaussian(s)
        elif kind == "tabulated":
            if "file" not in pot:
                raise _fail("[potential] kind=tabulated needs file=PATH")
            xs, vs = _load_samples(pot["file"])
            potential = Potential.tabulated(xs, vs, s=s)
        else:
            raise _fail(f"unknown potential kind {kind!r}")
    except ValueError as exc:
        raise _fail(f"invalid potential parameters: {exc}") from None

    cfg = RunConfig(potential=potential, ini_path=path)

    if "grid" in parser:
        sec = parser["grid"]
        if set(sec) and set(sec) != {"L", "P", "q"}:
            raise _fail("[grid] must set all of L, P, q or none")
        if set(sec):
            cfg.grid = (
                _parse_float("grid", "L", sec["L"]),
                _parse_int("grid", "P", sec["P"]),
                _parse_int("grid", "q", sec["q"]),
            )
    if "run" in parser:
        sec = parser["run"]
        if "order" in sec:
            cfg.order = _parse_int("run", "order", sec["order"])
        if "format" in sec:
            cfg.fmt = sec["format"]
        if "out" in sec:
            cfg.out = sec["out"]
        if "asymptote" in sec:
            cfg.asymptote = _parse_float("run", "asymptote", sec["asymptote"])
    if "sweep" in parser:
        sec = parser["sweep"]
        missing = {"s_min", "s_max", "steps"} - set(sec)
        if missing:
            raise _fail(f"[sweep] missing keys: {sorted(missing)}")
        cfg.sweep = (
            _parse_float("sweep", "s_min", sec["s_min"]),
            _parse_float("sweep", "s_max", sec["s_max"]),
            _parse_int("sweep", "steps", sec["steps"]),
        )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.order not in (2, 3, 4, 5, 6):
        raise _fail(f"order must lie in 2..6, got {cfg.order}")
    if cfg.fmt not in ("text", "csv", "json"):
        raise _fail(f"format must be text, csv or json, got {cfg.fmt!r}")
    if cfg.grid is not None:
        L, P, q = cfg.grid
        if not (L > 0 and P >= 1 and 1 <= q <= 16):
            raise _fail(f"invalid grid override L={L:g}, P={P}, q={q}")
    if cfg.sweep is not None:
        s_min, s_max, steps = cfg.sweep
        if not (0.0 < s_min < s_max):
            raise _fail(f"sweep needs 0 < s_min < s_max, got [{s_min:g}, {s_max:g}]")
        if steps < 2:
            raise _fail(f"sweep needs steps >= 2, got {steps}")


def _grid_for(cfg: RunConfig):
    if cfg.grid is not None:
        L, P, q = cfg.grid
        return build_grid(L, P, q)
    return default_grid(cfg.potential)


def _workers(n_tasks: int) -> int:
    cap = os.environ.get("SHALLOWWELL_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise _fail(f"SHALLOWWELL_THREADS={cap!r} is not an integer") from None
    return max(1, min(limit, n_tasks))


def _pade(cfg: RunConfig, es):
    """Asymptote-subtracted Pade; the deep-well limit is E -> -s*shape_max()."""
    depth = cfg.asymptote if cfg.asymptote is not None else cfg.potential.shape_max()
    return pade_with_asymptote(es, depth)


# ---------------------------------------------------------------------------
# formatting


def _f9(v: float) -> str:
    return format(float(v) + 0.0, ".9g")  # +0.0 normalizes -0.0


def _round9(v: float) -> float:
    return float(_f9(v))


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(headers, rows) -> str:
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(headers))]
    lines = []
    for row in cols:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv(headers, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(headers) + "\n")
    for r in rows:
        buf.write(",".join(str(c) for c in r) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(cfg: RunConfig) -> int:
    es = energy_series(cfg.potential, order=cfg.order, g=_grid_for(cfg))
    exact = None
    if cfg.potential.kind == "square_well" and cfg.potential.a == 1.0:
        exact = ("0",) + _SQUARE_WELL_RATIONALS[: cfg.order - 1]

    if cfg.fmt == "json":
        payload = {
            "shape": es.shape_kind,
            "grid": {"L": es.grid_spec[0], "P": es.grid_spec[1], "q": es.grid_spec[2]},
            "coefficients": [_round9(c) for c in es.coefficients],
            "error_estimates": [_round9(e) for e in es.error_estimates],
        }
        if exact is not None:
            payload["exact"] = list(exact)
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
        return 0

    headers = ["order [1]", "coefficient [E/s^n]", "rel_error_estimate [1]"]
    if exact is not None:
        headers.append("exact [E/s^n]")
    rows = []
    for n, (c, e) in enumerate(zip(es.coefficients, es.error_estimates), start=1):
        row = [str(n), _f9(c), _f9(e)]
        if exact is not None:
            row.append(exact[n - 1])
        rows.append(row)
    if cfg.fmt == "csv":
        _emit(cfg, _csv(headers, rows))
    else:
        head = f"# {es.shape_kind} series, grid L={es.grid_spec[0]:g} P={es.grid_spec[1]} q={es.grid_spec[2]}\n"
        _emit(cfg, head + _table(headers, rows))
    return 0


def _compare_rows(cfg: RunConfig):
    s_min, s_max, steps = cfg.sweep
    workers = _workers(steps)  # a bad SHALLOWWELL_THREADS fails before any work
    s_values = np.linspace(s_min, s_max, steps)
    p = cfg.potential
    g = _grid_for(cfg)
    es = energy_series(p, order=6, g=g)
    pa = _pade(cfg, es)

    try:
        shots = shooting_sweep(p, s_values)
        shot_vals = [(r.energy, "") for r in shots]
    except ShallowWellError as exc:
        shot_vals = [(None, f"shooting: {exc}")] * steps

    def one_row(i):
        s = float(s_values[i])
        cells, reasons = [], []

        def attempt(label, fn):
            try:
                cells.append(_f9(fn()))
            except ShallowWellError as exc:
                cells.append("")
                reasons.append(f"{label}: {exc}")

        attempt("series", lambda: es.evaluate(s))
        attempt("pade", lambda: evaluate_pade(pa, s))
        ps = replace(p, s=s)
        attempt("var_gaussian", lambda: _var_minimize("gaussian", ps, g)[1])
        attempt("var_expsqrt", lambda: _var_minimize("expsqrt", ps, g)[1])
        energy, why = shot_vals[i]
        if energy is None:
            cells.append("")
            reasons.append(why)
        else:
            cells.append(_f9(energy))
        return [_f9(s)] + cells + ["; ".join(reasons)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(one_row, range(steps)))
    return rows


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise _fail("compare needs a [sweep] section (s_min, s_max, steps)")
    rows = _compare_rows(cfg)
    headers = [
        "s [E]",
        "series_order6 [E]",
        "pade [E]",
        "var_gaussian [E]",
        "var_expsqrt [E]",
        "shooting [E]",
        "reason [text]",
    ]
    _emit(cfg, _csv(headers, rows))
    complete = any(all(c != "" for c in r[:-1]) for r in rows)
    return 0 if complete else 3


def cmd_pade(cfg: RunConfig) -> int:
    es = energy_series(cfg.potential, order=6, g=_grid_for(cfg))
    pa = _pade(cfg, es)
    if cfg.sweep is not None:
        s_min, s_max, steps = cfg.sweep
        samples = np.linspace(s_min, s_max, steps)
    else:
        samples = np.asarray([0.25, 0.5, 1.0, 2.0, 3.0])
    sampled = []
    for s in samples:
        try:
            sampled.append((float(s), _f9(evaluate_pade(pa, float(s))), ""))
        except ShallowWellError as exc:
            sampled.append((float(s), "", str(exc)))

    if cfg.fmt == "json":
        payload = {
            "shape": es.shape_kind,
            "alpha": _round9(pa.alpha),
            "numerator": [_round9(c) for c in pa.numerator],
            "denominator": [_round9(c) for c in pa.denominator],
            "samples": [
                {"s": _round9(s), "energy": (None if v == "" else float(v)), "reason": why}
                for s, v, why in sampled
            ],
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
        return 0

    coeff_rows = [["alpha", "1", _f9(pa.alpha)]]
    coeff_rows += [["numerator", str(k), _f9(c)] for k, c in enumerate(pa.numerator)]
    coeff_rows += [["denominator", str(k), _f9(c)] for k, c in enumerate(pa.denominator)]
    sample_rows = [[_f9(s), v, why] for s, v, why in sampled]
    if cfg.fmt == "csv":
        out = _csv(["part [text]", "power [1]", "value [1]"], coeff_rows)
        out += _csv(["s [E]", "energy [E]", "reason [text]"], sample_rows)
    else:
        out = f"# {es.shape_kind} asymptote-subtracted Pade, alpha={_f9(pa.alpha)}\n"
        out += _table(["part [text]", "power [1]", "value [1]"], coeff_rows)
        out += "\n" + _table(["s [E]", "energy [E]", "reason [text]"], sample_rows)
    _emit(cfg, out)
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    p = cfg.potential
    res = shooting_solve(p)
    headers = ["quantity [text]", "value [E]"]
    rows = [
        ["energy", _f9(res.energy)],
        ["residual", _f9(res.residual)],
        ["iterations", str(res.iterations)],
        ["bracket_lo", _f9(res.bracket[0])],
        ["bracket_hi", _f9(res.bracket[1])],
    ]
    if cfg.fmt == "json":
        payload = {
            "energy": _round9(res.energy),
            "residual": _round9(res.residual),
            "iterations": res.iterations,
            "bracket": [_round9(res.bracket[0]), _round9(res.bracket[1])],
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    elif cfg.fmt == "csv":
        _emit(cfg, _csv(headers, rows))
    else:
        _emit(cfg, f"# {p.kind} s={p.s:g} bound state\n" + _table(headers, rows))
    return 0


def cmd_greens_check(cfg: RunConfig) -> int:
    p = cfg.potential
    g = _grid_for(cfg)
    e4_limit = evaluate_terms(load_terms(4), p, g)
    rows = []
    for beta in _BETA_LADDER:
        val = e4_finite_beta(p, g, beta)
        rows.append([_f9(beta), _f9(val), _f9(e4_limit), _f9(abs(val - e4_limit))])
    block, scale = divergent_block(p)
    extra = [[_f9(block), _f9(scale)]]
    if cfg.fmt == "json":
        payload = {
            "e4_limit": _round9(e4_limit),
            "ladder": [
                {"beta": float(r[0]), "e4_finite_beta": float(r[1]), "residual": float(r[3])}
                for r in rows
            ],
            "divergent_block": {"symmetrized": _round9(block), "scale": _round9(scale)},
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
        return 0
    h1 = ["beta [E^1/2]", "e4_finite_beta [E/s^4]", "e4_limit [E/s^4]", "residual [E/s^4]"]
    h2 = ["divergent_block_symmetrized [E/s^4]", "unsymmetrized_scale [E/s^4]"]
    if cfg.fmt == "csv":
        _emit(cfg, _csv(h1, rows) + _csv(h2, extra))
    else:
        out = f"# {p.kind} finite-regulator consistency\n"
        out += _table(h1, rows) + "\n" + _table(h2, extra)
        _emit(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "series": cmd_series,
    "compare": cmd_compare,
    "pade": cmd_pade,
    "solve": cmd_solve,
    "greens-check": cmd_greens_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowwell",
        description="Weak-well bound-state energy: series, resummation, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="key=value run configuration")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("text", "csv", "json"), help="report format")
        sp.add_argument("--order", type=int, help="series truncation order (2-6)")
        sp.add_argument("--grid", help="grid override as L,P,q")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> None:
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    if args.order is not None:
        cfg.order = args.order
    if args.grid is not None:
        parts = args.grid.split(",")
        if len(parts) != 3:
            raise _fail(f"--grid must be L,P,q, got {args.grid!r}")
        try:
            cfg.grid = (float(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            raise _fail(f"--grid must be L,P,q numbers, got {args.grid!r}") from None
    _validate(cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShallowWellError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
