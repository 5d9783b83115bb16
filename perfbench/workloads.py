"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of ``shallowwell`` CLI jobs. The seed only
chooses the numbers written into the INI configs and the tabulated sample
file; the program sees nothing but those files.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

#: Why each workload exists: which layer it loads and which it bypasses.
WHY = {
    "series-suite": (
        "series on four shapes plus pade and greens-check: quadrature.contract and "
        "perturbation do the work; variational and shooting never run"
    ),
    "compare-sweep": (
        "one Gaussian compare sweep: variational.minimize does ~90% of the work, "
        "shooting runs batched and the series layer once"
    ),
    "solve-batch": (
        "solve jobs at seeded strengths on three shapes: shooting at batch size 1 does "
        "the work; quadrature and variational never run"
    ),
}

# The expsqrt trial's evaluation domain doubles when the optimal trial
# outgrows L=256, which happens below s ~ 0.092 for the Gaussian; s_min is
# kept above that step so the run time does not depend on the seed bimodally.
COMPARE_S_MIN = (0.10, 0.12)
COMPARE_S_MAX = (2.8, 3.2)
COMPARE_STEPS = 3
SOLVE_S = (0.1, 4.0)
SOLVE_PER_SHAPE = 2
TAB_X0 = (0.5, 2.0)
TAB_HALFWIDTH = 12.0
TAB_SAMPLES = 2401


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its checker needs to know."""

    command: str  # CLI subcommand
    config: str  # path of the generated INI file
    kind: str  # potential kind
    s: float = 1.0
    sweep: tuple = field(default=())  # (s_min, s_max, steps) for compare


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _sech2_samples(path: str, x0: float) -> str:
    """Off-centre sech^2 well, V = -sech^2(x - x0), on [x0-12, x0+12]."""
    lines = ["# x V\n"]
    for i in range(TAB_SAMPLES):
        x = x0 - TAB_HALFWIDTH + 2.0 * TAB_HALFWIDTH * i / (TAB_SAMPLES - 1)
        v = -1.0 / math.cosh(x - x0) ** 2
        lines.append(f"{x!r} {v!r}\n")
    return _write(path, "".join(lines))


def _config(tmp: str, name: str, kind: str, s: float = 1.0, extra: str = "") -> str:
    text = f"[potential]\nkind = {kind}\ns = {s!r}\n"
    if kind == "tabulated":
        text += f"file = {os.path.join(tmp, 'sech2.txt')}\n"
    text += "[run]\nformat = json\n" + extra
    return _write(os.path.join(tmp, name + ".ini"), text)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_jobs(workload: str, seed: int, tmp: str) -> list:
    """Write the workload's inputs for ``seed`` into ``tmp``; return its jobs."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload in ("series-suite", "solve-batch"):
        _sech2_samples(os.path.join(tmp, "sech2.txt"), rng.uniform(*TAB_X0))
    if workload == "series-suite":
        for kind in ("square_well", "poschl_teller", "gaussian", "tabulated"):
            jobs.append(Job("series", _config(tmp, f"series-{kind}", kind), kind))
        jobs.append(Job("pade", _config(tmp, "pade-gaussian", "gaussian"), "gaussian"))
        jobs.append(
            Job("greens-check", _config(tmp, "greens-gaussian", "gaussian"), "gaussian")
        )
    elif workload == "compare-sweep":
        sweep = (rng.uniform(*COMPARE_S_MIN), rng.uniform(*COMPARE_S_MAX), COMPARE_STEPS)
        extra = "[sweep]\ns_min = {!r}\ns_max = {!r}\nsteps = {}\n".format(*sweep)
        jobs.append(
            Job("compare", _config(tmp, "compare", "gaussian", extra=extra), "gaussian",
                sweep=sweep)
        )
    else:
        for i in range(SOLVE_PER_SHAPE):
            for kind in ("square_well", "poschl_teller", "tabulated"):
                s = _log_uniform(rng, *SOLVE_S)
                jobs.append(Job("solve", _config(tmp, f"solve-{kind}-{i}", kind, s), kind, s))
    return jobs
