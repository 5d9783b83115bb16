"""Reproduce the five-curve strong-coupling comparison for one shape.

Writes a CSV with, at each strength s: the raw sixth-order series value,
the asymptote-subtracted Pade resummation, both variational bounds, and
the shooting/Wronskian energy; then prints a short deviation summary.

Usage:

    python scripts/figure_sweep.py [--shape gaussian] [--s-min 0.1]
        [--s-max 3.0] [--steps 30] [--out sweep.csv]
"""
import argparse
import sys

from shallowwell.cli import COMPARE_HEADERS, Report, RunConfig, compare_rows
from shallowwell.potential import Potential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shape",
        default="gaussian",
        choices=("gaussian", "poschl_teller", "square_well"),
    )
    parser.add_argument("--s-min", type=float, default=0.1)
    parser.add_argument("--s-max", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args(argv)

    cfg = RunConfig(
        potential=Potential(args.shape, 1.0),
        sweep=(args.s_min, args.s_max, args.steps),
    )
    rows = compare_rows(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(Report([(COMPARE_HEADERS, rows)]).render("csv"))

    worst = {"pade": 0.0, "var_expsqrt": 0.0}
    for row in rows:
        if row[-1]:
            print(f"s={row[0]}: incomplete ({row[-1]})")
            continue
        s, series, pade, _vg, ve, shoot = (float(c) for c in row[:6])
        worst["pade"] = max(worst["pade"], abs(pade - shoot) / abs(shoot))
        worst["var_expsqrt"] = max(worst["var_expsqrt"], abs(ve - shoot) / abs(shoot))
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"max |pade - shooting| / |shooting|:        {worst['pade']:.3e}")
    print(f"max |var_expsqrt - shooting| / |shooting|: {worst['var_expsqrt']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
