"""Batch front-end: config in, deterministic reports out.

Subcommands, with the flags each reads besides --config, --out and --format
    series       weak-coupling coefficients with error estimates; --order, --grid
    compare      five-curve sweep: series, Pade, two variational, shooting; --grid
    pade         Pade coefficients and samples, split at the deep-well limit; --grid
    solve        single shooting/Wronskian bound-state solve
    greens-check finite-regulator consistency and divergence cancellation; --grid
series and greens-check report per unit strength, whatever s is.

The module itself loads only errors, potential and quadrature. main imports
the layers the chosen subcommand runs (_LAYERS) after parsing the arguments
and before reading the config, so a job loads no layer it does not run, and
its imports are start-up, not work. Each cmd_* imports its own entry points,
so it also runs when called directly.

_value checks each config key, and each flag as the key it sets, against the
table _KEYS before any computation. Inputs nothing reads are refused; known
sections a subcommand ignores are accepted, since subcommands share configs.
Floats print with 9 significant digits, so identical configs give
byte-identical reports; a non-finite result is a numeric failure. compare
writes CSV whatever the format. A compare cell or pade sample that fails
numerically is empty, with its reason beside it (_cell), and compare exits
3 if no row is complete. Exit codes: 0 success, 2 config error, 3 numeric
failure (_numeric), each on one stderr line.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import importlib
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InvalidGridSpec, ShallowWellError
from .potential import Potential
from .quadrature import MAX_NODES, build_grid, default_spec

#: exact rationals for the unit-halfwidth square well, c2..c6
_SQUARE_WELL_RATIONALS = ("-1", "4/3", "-92/45", "1072/315", "-84752/14175")

#: potential kind -> the key it reads besides kind and s
_KINDS = {"square_well": "a", "poschl_teller": None, "gaussian": None, "tabulated": "file"}

#: section -> key -> (type, allowed values): choices, an int range, a bound such as "> 0", or None
_KEYS = {
    "potential": {"kind": (str, _KINDS), "s": (float, ">= 0"), "a": (float, "> 0"),
                  "file": (str, None)},
    "grid": {"L": (float, "> 0"), "P": (int, ">= 1"), "q": (int, range(1, 17))},
    "run": {"order": (int, range(2, 7)), "format": (str, ("text", "csv", "json")),
            "out": (str, None)},
    "sweep": {"s_min": (float, "> 0"), "s_max": (float, "> 0"), "steps": (int, ">= 2")},
}

_BETA_LADDER = (0.02, 0.01, 0.005)


@dataclass
class RunConfig:
    """Validated run parameters shared by all subcommands; order, format and out are [run] keys."""

    potential: Potential
    order: int = 6
    format: str = "text"
    out: str | None = None
    grid: tuple | None = None  # (L, P, q) override
    sweep: tuple | None = None  # (s_min, s_max, steps)


def _value(section: str, key: str, raw: str):
    """One key's value, or that of the flag setting it: typed, finite and allowed by _KEYS."""
    if key not in _KEYS[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    kind, allowed = _KEYS[section][key]
    name = f"[{section}] {key}={raw!r}"
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{name} is not {'an integer' if kind is int else 'a number'}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} is not a finite number")
    if isinstance(allowed, str):  # a bound such as "> 0"
        op, bound = allowed.split()
        if not (value > float(bound) if op == ">" else value >= float(bound)):
            raise ConfigError(f"{name} must be {allowed}")
    elif allowed is not None and value not in allowed:
        raise ConfigError(f"{name} must be one of {', '.join(map(str, allowed))}")
    return value


def _load_samples(path: str):
    """Two whitespace-separated columns (x, V), '#' comments."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy warns on a file without rows
            data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed sample file {path!r}: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"sample file {path!r} has no data rows")
    if data.shape[1] != 2:
        raise ConfigError(f"sample file {path!r} must have exactly two columns")
    return data[:, 0], data[:, 1]


def load_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file.

    Raises:
        ConfigError: unreadable file, unknown section/key, bad value, a key
            its kind does not read, or missing potential specification.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keep key case so L and P read naturally
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None

    values = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {key: _value(section, key, raw) for key, raw in parser[section].items()}
    pot = values.get("potential", {})
    if "kind" not in pot:
        raise ConfigError("config must set kind in a [potential] section")
    kind = pot["kind"]
    unread = sorted(set(pot) - {"kind", "s", _KINDS[kind]})
    if unread:
        raise ConfigError(f"[potential] {unread[0]} is not read by kind = {kind}")
    try:
        if kind != "tabulated":
            potential = Potential(kind, pot.get("s", 1.0), pot.get("a", 1.0))
        elif "file" not in pot:
            raise ConfigError("[potential] kind=tabulated needs file=PATH")
        else:
            potential = Potential.tabulated(*_load_samples(pot["file"]), s=pot.get("s", 1.0))
    except ValueError as exc:
        raise ConfigError(f"invalid potential parameters: {exc}") from None

    ranges = {}  # the (L, P, q) grid and the (s_min, s_max, steps) sweep
    for section in ("grid", "sweep"):
        sec = values.get(section)
        if sec and set(sec) != set(_KEYS[section]):
            raise ConfigError(f"[{section}] must set all of {', '.join(_KEYS[section])} or none")
        ranges[section] = tuple(sec[key] for key in _KEYS[section]) if sec else None
    if ranges["sweep"] and not ranges["sweep"][0] < ranges["sweep"][1]:
        raise ConfigError("sweep needs s_min < s_max, got [{:g}, {:g}]".format(*ranges["sweep"]))
    return RunConfig(potential, **ranges, **values.get("run", {}))


def _grid_for(cfg: RunConfig):
    """The [grid] override or the default grid, for the subcommands that contract on it.

    Refused before it is built if its 2P twin's kink plan (2P*q*2q values)
    exceeds MAX_NODES, and after, if a nonzero well is 0 at every node.
    """
    p = cfg.potential
    L, P, q = default_spec(p, *(cfg.grid or ()))
    if 2 * P * q * 2 * q > MAX_NODES:
        why = f"its 2P twin's kink plan exceeds {MAX_NODES} values"
        raise ConfigError(f"grid L={L:g} P={P} q={q} is too large: {why}")
    g = build_grid(L, P, q)
    if p.shape_max() > 0 and not np.any(p.shape(g.nodes)):
        raise ConfigError(f"grid L={g.L:g} P={g.P} q={g.q} misses the well: shape 0 at every node")
    return g


# ---------------------------------------------------------------------------
# reports


def _round9(v: float) -> float:
    """v rounded to the 9 significant digits a report prints; a non-finite v fails."""
    v = float(v)
    if not math.isfinite(v):
        raise ShallowWellError(f"result {v} is not finite")
    return float(format(v + 0.0, ".9g"))  # +0.0 normalizes -0.0


#: the errors a numeric failure can raise: a package error, an overflow, math.fsum's inf - inf
_NUMERIC = (ShallowWellError, OverflowError, ValueError)


def _numeric(exc: Exception) -> bool:
    """Whether exc, one of _NUMERIC, is a numeric failure: of ValueErrors, only fsum's is."""
    return not isinstance(exc, ValueError) or "in fsum" in str(exc)


def _cell(fn) -> tuple:
    """(fn() rounded to 9 digits, "") or, if fn fails numerically, (None, the reason)."""
    try:
        return _round9(fn()), ""
    except _NUMERIC as exc:
        if not _numeric(exc):
            raise
        # an OverflowError's own message holds a comma
        return None, "float overflow" if isinstance(exc, OverflowError) else str(exc)


def _unless_failed(result):
    """result, raised instead when it is the error a failed computation left in its place."""
    if isinstance(result, Exception):
        raise result
    return result


def _text(cell) -> str:
    """A report cell as printed: a number to 9 significant digits, None (failed) empty."""
    return "" if cell is None else cell if isinstance(cell, str) else format(cell, ".9g")


def _table(headers, rows) -> str:
    cols = [headers, *rows]
    widths = [max(len(c) for c in col) for col in zip(*cols)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in cols)


def _csv(headers, rows) -> str:
    """Comma-separated rows; a cell holding a comma or quote is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([headers, *rows])
    return out.getvalue()


@dataclass
class Report:
    """What one subcommand produced, renderable as text, csv or json.

    Cells are _round9 numbers, strings or None (failed), printed by _text.
    A report without a title or payload renders as csv in every format. A
    report with a failure is still written, and the run then exits 3.
    """

    tables: list  # (headers, rows) pairs
    title: str | None = None
    payload: dict | None = None
    failure: str | None = None  # why no row of the report is complete

    def render(self, fmt: str) -> str:
        if fmt == "json" and self.payload is not None:
            return json.dumps(self.payload, indent=2) + "\n"
        tables = [(h, [[_text(c) for c in r] for r in rows]) for h, rows in self.tables]
        if fmt == "text" and self.title is not None:
            return f"# {self.title}\n" + "\n".join(_table(h, r) for h, r in tables)
        return "".join(_csv(h, r) for h, r in tables)


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(cfg: RunConfig) -> Report:
    from .perturbation import energy_series

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
    columns = (range(1, es.order + 1), payload["coefficients"], payload["error_estimates"])
    rows = [list(row) for row in zip(*columns)]
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


def cmd_compare(cfg: RunConfig) -> Report:
    """A COMPARE_HEADERS row per sweep strength; a failed cell is empty, its reason last."""
    from .oracles import shooting_sweep
    from .perturbation import energy_series
    from .resummation import evaluate_pade, pade_with_asymptote
    from .variational import minimize

    if cfg.sweep is None:
        raise ConfigError("compare needs a [sweep] section (s_min, s_max, steps)")
    s_values = np.linspace(*cfg.sweep)
    p = cfg.potential
    g = _grid_for(cfg)
    try:
        es = energy_series(p, order=6, g=g)
    except ShallowWellError as exc:  # an underflowing coefficient: the series and pade cells fail
        es = exc
    try:
        pa = pade_with_asymptote(_unless_failed(es), p.shape_max())
    except ShallowWellError as exc:  # or an all-zero well's SingularPade: its pade cells fail alone
        pa = exc

    shots = shooting_sweep(p, s_values)

    rows = []
    for s, shot in zip(s_values.tolist(), shots):
        try:
            var = minimize(replace(p, s=s), g)
        except _NUMERIC as exc:  # fails both variational cells
            if not _numeric(exc):
                raise
            var = dict.fromkeys(("gaussian", "expsqrt"), exc)
        cells = {
            "series": _cell(lambda: _unless_failed(es).evaluate(s)),
            "pade": _cell(lambda: evaluate_pade(_unless_failed(pa), s)),
            "var_gaussian": _cell(lambda: _unless_failed(var["gaussian"])[1]),
            "var_expsqrt": _cell(lambda: _unless_failed(var["expsqrt"])[1]),
            "shooting": _cell(lambda: _unless_failed(shot).energy),
        }
        reasons = [f"{label}: {why}" for label, (cell, why) in cells.items() if cell is None]
        rows.append([_round9(s)] + [cell for cell, _ in cells.values()] + ["; ".join(reasons)])
    complete = any(all(c is not None for c in r[:-1]) for r in rows)
    return Report([(COMPARE_HEADERS, rows)], failure=None if complete else "no row is complete")


def cmd_pade(cfg: RunConfig) -> Report:
    from .perturbation import energy_series
    from .resummation import evaluate_pade, pade_with_asymptote

    es = energy_series(cfg.potential, order=6, g=_grid_for(cfg))
    pa = pade_with_asymptote(es, cfg.potential.shape_max())
    samples = np.linspace(*cfg.sweep) if cfg.sweep else np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    sample_rows = [[_round9(s), *_cell(lambda: evaluate_pade(pa, s))] for s in samples.tolist()]

    payload = {
        "shape": es.shape_kind,
        "alpha": _round9(pa.alpha),
        "numerator": [_round9(c) for c in pa.numerator],
        "denominator": [_round9(c) for c in pa.denominator],
        "samples": [{"s": s, "energy": v, "reason": why} for s, v, why in sample_rows],
    }
    coeff_rows = [["alpha", 1, payload["alpha"]]]
    for part in ("numerator", "denominator"):
        coeff_rows += [[part, k, c] for k, c in enumerate(payload[part])]
    tables = [
        (["part [text]", "power [1]", "value [1]"], coeff_rows),
        (["s [E]", "energy [E]", "reason [text]"], sample_rows),
    ]
    title = f"{es.shape_kind} asymptote-subtracted Pade, alpha={_text(payload['alpha'])}"
    return Report(tables, title, payload)


def cmd_solve(cfg: RunConfig) -> Report:
    from .oracles import shooting_sweep

    p = cfg.potential
    res = _unless_failed(shooting_sweep(p, [p.s])[0])
    payload = {
        "energy": _round9(res.energy),
        "residual": _round9(res.residual),
        "iterations": res.iterations,
        "bracket": [_round9(b) for b in res.bracket],
    }
    rows = [[key, payload[key]] for key in ("energy", "residual", "iterations")]
    rows += [["bracket_lo", payload["bracket"][0]], ["bracket_hi", payload["bracket"][1]]]
    title = f"{p.kind} s={p.s:g} bound state"
    return Report([(["quantity [text]", "value [E]"], rows)], title, payload)


def cmd_greens_check(cfg: RunConfig) -> Report:
    from .greens import divergent_block, e4_finite_beta
    from .perturbation import evaluate_terms, load_terms, normal_coefficient

    p = replace(cfg.potential, s=1.0)  # per unit strength, like series
    g = _grid_for(cfg)
    e4_limit = normal_coefficient(4, evaluate_terms(load_terms(4), p, g), p)
    ladder = ((beta, e4_finite_beta(p, g, beta)) for beta in _BETA_LADDER)
    rows = [[_round9(v) for v in (beta, e4, e4_limit, abs(e4 - e4_limit))] for beta, e4 in ladder]
    block, scale = (_round9(v) for v in divergent_block(p, g))
    payload = {
        "e4_limit": rows[0][2],  # rounded in each row, after e4_finite_beta has checked the grid
        "ladder": [{"beta": b, "e4_finite_beta": v, "residual": r} for b, v, _, r in rows],
        "divergent_block": {"symmetrized": block, "scale": scale},
    }
    h1 = ["beta [E^1/2]", "e4_finite_beta [E/s^4]", "e4_limit [E/s^4]", "residual [E/s^4]"]
    h2 = ["divergent_block_symmetrized [E/s^4]", "unsymmetrized_scale [E/s^4]"]
    tables = [(h1, rows), (h2, [[block, scale]])]
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

#: subcommand -> the modules its cmd_* runs, which main imports before reading the config
_LAYERS = {
    "series": ("perturbation",),
    "compare": ("perturbation", "resummation", "oracles", "variational"),
    "pade": ("perturbation", "resummation"),
    "solve": ("oracles",),
    "greens-check": ("perturbation", "greens"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as one ConfigError line instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shallowwell",
        description="Weak-well bound-state energy: series, resummation, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="key=value run configuration")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", help="report format: text, csv or json")
        if name == "series":
            sp.add_argument("--order", help="series truncation order (2-6)")
        if name != "solve":
            sp.add_argument("--grid", help="grid override as L,P,q")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> None:
    """Each flag sets the [run] or [grid] key of its name, checked as that key."""
    for key in ("out", "format", "order"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, _value("run", key, getattr(args, key)))
    if getattr(args, "grid", None) is not None:
        parts = args.grid.split(",")
        if len(parts) != 3:
            raise ConfigError(f"--grid must be L,P,q, got {args.grid!r}")
        cfg.grid = tuple(_value("grid", key, raw) for key, raw in zip(("L", "P", "q"), parts))


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
    try:
        args = _build_parser().parse_args(argv)
        # importing is start-up work: done before the config is validated, not in the job
        for name in _LAYERS[args.command]:
            importlib.import_module(f".{name}", __package__)
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        # _round9 refuses the non-finite results that numpy would warn about on stderr
        with np.errstate(all="ignore"):
            report = _COMMANDS[args.command](cfg)
        _write(cfg.out, report.render(cfg.format))
    except SystemExit:  # --help has printed its text
        return 0
    # the config or its valid defaults set every grid, so a bad grid is a config error
    except (ConfigError, InvalidGridSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC as exc:
        if not _numeric(exc):
            raise
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if report.failure is not None:
        print(f"numeric failure: {report.failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
