"""Batch front-end: config in, deterministic reports out.

Subcommands
    series       weak-coupling coefficients with error estimates
    compare      five-curve sweep (series / Pade / two variational / shooting)
    pade         asymptote-subtracted Pade coefficients and samples
    solve        single shooting/Wronskian bound-state solve
    greens-check finite-regulator consistency and divergence cancellation

Configs are INI-style key=value files with a [potential] section; unknown
keys are rejected before any computation starts. All floats print with 9
significant digits, so identical configs produce byte-identical output;
compare writes CSV whatever the format. Non-finite numbers are rejected, and
grid overrides are snapped to the square-well edges like the default grid.
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InvalidGridSpec, ShallowWellError
from .greens import divergent_block, e4_finite_beta
from .oracles import shooting_solve, shooting_sweep
from .perturbation import energy_series, evaluate_terms, load_terms
from .potential import Potential
from .quadrature import default_grid
from .resummation import evaluate_pade, pade_with_asymptote

#: exact rationals for the unit-halfwidth square well, c2..c6
_SQUARE_WELL_RATIONALS = ("-1", "4/3", "-92/45", "1072/315", "-84752/14175")

_KNOWN_KEYS = {
    "potential": {"kind", "s", "a", "file"},
    "grid": {"L", "P", "q"},
    "run": {"order", "format", "out", "asymptote"},
    "sweep": {"s_min", "s_max", "steps"},
}

_BETA_LADDER = (0.02, 0.01, 0.005)


def _var_minimize(kind, p, g):
    """variational.minimize, imported on first call: only compare needs scipy."""
    from .variational import minimize

    return minimize(kind, p, g)


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


def _parse_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name}={raw!r} is not a finite number")
    return value


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not an integer") from None


def _parse_grid(where: str, L: str, P: str, q: str) -> tuple:
    """An (L, P, q) grid override from [grid] or --grid."""
    return _parse_float(f"{where} L", L), _parse_int(f"{where} P", P), _parse_int(f"{where} q", q)


def _load_samples(path: str):
    """Two whitespace-separated columns (x, V), '#' comments."""
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed sample file {path!r}: {exc}") from None
    if data.shape[1] != 2:
        raise ConfigError(f"sample file {path!r} must have exactly two columns")
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
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "potential" not in parser:
        raise ConfigError("config must contain a [potential] section")

    pot = parser["potential"]
    kind = pot.get("kind")
    if kind is None:
        raise ConfigError("[potential] must set kind")
    s = _parse_float("[potential] s", pot.get("s", "1.0"))
    try:
        if kind == "square_well":
            potential = Potential.square_well(s, a=_parse_float("[potential] a", pot.get("a", "1.0")))
        elif kind == "poschl_teller":
            potential = Potential.poschl_teller(s)
        elif kind == "gaussian":
            potential = Potential.gaussian(s)
        elif kind == "tabulated":
            if "file" not in pot:
                raise ConfigError("[potential] kind=tabulated needs file=PATH")
            xs, vs = _load_samples(pot["file"])
            potential = Potential.tabulated(xs, vs, s=s)
        else:
            raise ConfigError(f"unknown potential kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid potential parameters: {exc}") from None

    cfg = RunConfig(potential=potential)

    if "grid" in parser:
        sec = parser["grid"]
        if set(sec) and set(sec) != {"L", "P", "q"}:
            raise ConfigError("[grid] must set all of L, P, q or none")
        if set(sec):
            cfg.grid = _parse_grid("[grid]", sec["L"], sec["P"], sec["q"])
    if "run" in parser:
        sec = parser["run"]
        if "order" in sec:
            cfg.order = _parse_int("[run] order", sec["order"])
        if "format" in sec:
            cfg.fmt = sec["format"]
        if "out" in sec:
            cfg.out = sec["out"]
        if "asymptote" in sec:
            cfg.asymptote = _parse_float("[run] asymptote", sec["asymptote"])
    if "sweep" in parser:
        sec = parser["sweep"]
        missing = {"s_min", "s_max", "steps"} - set(sec)
        if missing:
            raise ConfigError(f"[sweep] missing keys: {sorted(missing)}")
        cfg.sweep = (
            _parse_float("[sweep] s_min", sec["s_min"]),
            _parse_float("[sweep] s_max", sec["s_max"]),
            _parse_int("[sweep] steps", sec["steps"]),
        )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.order not in (2, 3, 4, 5, 6):
        raise ConfigError(f"order must lie in 2..6, got {cfg.order}")
    if cfg.fmt not in ("text", "csv", "json"):
        raise ConfigError(f"format must be text, csv or json, got {cfg.fmt!r}")
    if cfg.grid is not None:
        L, P, q = cfg.grid
        if not (L > 0 and P >= 1 and 1 <= q <= 16):
            raise ConfigError(f"invalid grid override L={L:g}, P={P}, q={q}")
    if cfg.sweep is not None:
        s_min, s_max, steps = cfg.sweep
        if not (0.0 < s_min < s_max):
            raise ConfigError(f"sweep needs 0 < s_min < s_max, got [{s_min:g}, {s_max:g}]")
        if steps < 2:
            raise ConfigError(f"sweep needs steps >= 2, got {steps}")


def _grid_for(cfg: RunConfig):
    if cfg.grid is None:
        return default_grid(cfg.potential)
    L, P, q = cfg.grid
    return default_grid(cfg.potential, P=P, q=q, L=L)


def _pade(cfg: RunConfig, es):
    """Asymptote-subtracted Pade; the deep-well limit is E -> -s*shape_max()."""
    depth = cfg.asymptote if cfg.asymptote is not None else cfg.potential.shape_max()
    return pade_with_asymptote(es, depth)


# ---------------------------------------------------------------------------
# reports


def _f9(v: float) -> str:
    return format(float(v) + 0.0, ".9g")  # +0.0 normalizes -0.0


def _round9(v: float) -> float:
    return float(_f9(v))


def _table(headers, rows) -> str:
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(c) for c in col) for col in zip(*cols)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in cols)


def _csv(headers, rows) -> str:
    return "".join(",".join(str(c) for c in r) + "\n" for r in [headers, *rows])


@dataclass
class Report:
    """What one subcommand produced, renderable as text, csv or json.

    A report without a title or payload renders as csv in every format.
    """

    tables: list  # (headers, rows) pairs
    title: str | None = None
    payload: dict | None = None
    exit_code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json" and self.payload is not None:
            return json.dumps(self.payload, indent=2) + "\n"
        if fmt == "text" and self.title is not None:
            return f"# {self.title}\n" + "\n".join(_table(h, r) for h, r in self.tables)
        return "".join(_csv(h, r) for h, r in self.tables)


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(cfg: RunConfig) -> Report:
    es = energy_series(cfg.potential, order=cfg.order, g=_grid_for(cfg))
    L, P, q = es.grid_spec
    exact = None
    if cfg.potential.kind == "square_well" and cfg.potential.a == 1.0:
        exact = ("0",) + _SQUARE_WELL_RATIONALS[: cfg.order - 1]

    payload = {
        "shape": es.shape_kind,
        "grid": {"L": L, "P": P, "q": q},
        "coefficients": [_round9(c) for c in es.coefficients],
        "error_estimates": [_round9(e) for e in es.error_estimates],
    }
    headers = ["order [1]", "coefficient [E/s^n]", "rel_error_estimate [1]"]
    rows = []
    for n, (c, e) in enumerate(zip(es.coefficients, es.error_estimates), start=1):
        rows.append([str(n), _f9(c), _f9(e)])
    if exact is not None:
        payload["exact"] = list(exact)
        headers.append("exact [E/s^n]")
        for row, value in zip(rows, exact):
            row.append(value)
    title = f"{es.shape_kind} series, grid L={L:g} P={P} q={q}"
    return Report([(headers, rows)], title, payload)


COMPARE_HEADERS = [
    "s [E]",
    "series_order6 [E]",
    "pade [E]",
    "var_gaussian [E]",
    "var_expsqrt [E]",
    "shooting [E]",
    "reason [text]",
]


def compare_rows(cfg: RunConfig) -> list:
    """COMPARE_HEADERS cells per sweep strength; a failed cell is empty, its reason last."""
    s_min, s_max, steps = cfg.sweep
    s_values = np.linspace(s_min, s_max, steps)
    p = cfg.potential
    g = _grid_for(cfg)
    es = energy_series(p, order=6, g=g)
    pa = _pade(cfg, es)

    shots = shooting_sweep(p, s_values)

    rows = []
    for s, shot in zip(s_values.tolist(), shots):
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
        if isinstance(shot, ShallowWellError):
            cells.append("")
            reasons.append(f"shooting: {shot}")
        else:
            cells.append(_f9(shot.energy))
        rows.append([_f9(s)] + cells + ["; ".join(reasons)])
    return rows


def cmd_compare(cfg: RunConfig) -> Report:
    if cfg.sweep is None:
        raise ConfigError("compare needs a [sweep] section (s_min, s_max, steps)")
    rows = compare_rows(cfg)
    complete = any(all(c != "" for c in r[:-1]) for r in rows)
    return Report([(COMPARE_HEADERS, rows)], exit_code=0 if complete else 3)


def cmd_pade(cfg: RunConfig) -> Report:
    es = energy_series(cfg.potential, order=6, g=_grid_for(cfg))
    pa = _pade(cfg, es)
    if cfg.sweep is not None:
        s_min, s_max, steps = cfg.sweep
        samples = np.linspace(s_min, s_max, steps)
    else:
        samples = np.asarray([0.25, 0.5, 1.0, 2.0, 3.0])
    sampled = []
    for s in samples.tolist():
        try:
            sampled.append((s, _f9(evaluate_pade(pa, s)), ""))
        except ShallowWellError as exc:
            sampled.append((s, "", str(exc)))

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
    coeff_rows = [["alpha", "1", _f9(pa.alpha)]]
    coeff_rows += [["numerator", str(k), _f9(c)] for k, c in enumerate(pa.numerator)]
    coeff_rows += [["denominator", str(k), _f9(c)] for k, c in enumerate(pa.denominator)]
    sample_rows = [[_f9(s), v, why] for s, v, why in sampled]
    tables = [
        (["part [text]", "power [1]", "value [1]"], coeff_rows),
        (["s [E]", "energy [E]", "reason [text]"], sample_rows),
    ]
    title = f"{es.shape_kind} asymptote-subtracted Pade, alpha={_f9(pa.alpha)}"
    return Report(tables, title, payload)


def cmd_solve(cfg: RunConfig) -> Report:
    p = cfg.potential
    res = shooting_solve(p)
    rows = [
        ["energy", _f9(res.energy)],
        ["residual", _f9(res.residual)],
        ["iterations", str(res.iterations)],
        ["bracket_lo", _f9(res.bracket[0])],
        ["bracket_hi", _f9(res.bracket[1])],
    ]
    payload = {
        "energy": _round9(res.energy),
        "residual": _round9(res.residual),
        "iterations": res.iterations,
        "bracket": [_round9(res.bracket[0]), _round9(res.bracket[1])],
    }
    title = f"{p.kind} s={p.s:g} bound state"
    return Report([(["quantity [text]", "value [E]"], rows)], title, payload)


def cmd_greens_check(cfg: RunConfig) -> Report:
    p = cfg.potential
    g = _grid_for(cfg)
    e4_limit = evaluate_terms(load_terms(4), p, g)
    rows = []
    for beta in _BETA_LADDER:
        val = e4_finite_beta(p, g, beta)
        rows.append([_f9(beta), _f9(val), _f9(e4_limit), _f9(abs(val - e4_limit))])
    block, scale = divergent_block(p)
    payload = {
        "e4_limit": _round9(e4_limit),
        "ladder": [
            {"beta": float(r[0]), "e4_finite_beta": float(r[1]), "residual": float(r[3])}
            for r in rows
        ],
        "divergent_block": {"symmetrized": _round9(block), "scale": _round9(scale)},
    }
    h1 = ["beta [E^1/2]", "e4_finite_beta [E/s^4]", "e4_limit [E/s^4]", "residual [E/s^4]"]
    h2 = ["divergent_block_symmetrized [E/s^4]", "unsymmetrized_scale [E/s^4]"]
    tables = [(h1, rows), (h2, [[_f9(block), _f9(scale)]])]
    return Report(tables, f"{p.kind} finite-regulator consistency", payload)


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
            raise ConfigError(f"--grid must be L,P,q, got {args.grid!r}")
        cfg.grid = _parse_grid("--grid", *parts)
    _validate(cfg)


def _write(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        report = _COMMANDS[args.command](cfg)
        _write(cfg.out, report.render(cfg.fmt))
    # the config or its valid defaults set every grid, so a bad grid is a config error
    except (ConfigError, InvalidGridSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShallowWellError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
