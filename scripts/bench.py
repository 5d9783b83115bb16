"""Time the package layer by layer, in process, on one or more source trees.

    python scripts/bench.py --out BENCH_<n>.json parent=PARENT/src change=src
    python scripts/bench.py --out BENCH_<n>.json change=src --tier1 3

Each LABEL=SRC tree is timed in its own child process that imports the
package with SRC first on sys.path, as scripts/report_digest.py puts SRC
first on PYTHONPATH. The child warms each row up once, then times it
REPEATS times and prints the median per call. The trees take turns,
ROUNDS times, in alternating order; each row's figure is the median of
its rounds, written beside the rounds themselves. Rows:

    integrate at N = 1,024;
    contract for k = 0, 1, 2, 3 and 5 with m = 0, and for k = 1 with m = 1
      and m = 2, at N = 1,024 and 2,048 (on one grid and well, so the kink
      plan is built once, as in a series);
    _kink_correction, the own-panel part of an odd contract, for k = 1, 3
      and 5 at N = 1,024 and 2,048 (m = 0);
    evaluate_terms for each order 2-6 on the Gaussian, on a new Potential
      each time, so every chain is contracted afresh;
    one objective call (rayleigh_quotient) per trial family;
    the variational search of one compare row (minimize) at s = 0.1, 1, 3;
    energy_series per built-in shape, on a new Potential each time, so
      no kink plan is reused;
    one _WronskianEngine.wronskian pass of one (strength, kappa) pair, at
      the converged kappa, per built-in shape (s = 1) and on a tabulated
      sech^2 centred at x0 = 1.3 (2,401 samples, s = 1.5), called as
      wronskian(s, kappa) or, where the engine takes arrays of pairs, as
      wronskian([s], [kappa]);
    shooting_sweep on 30 Gaussian strengths (s = 0.1-3.0); on the 3 of a
      compare-sweep job (the Gaussian at s = 0.11, 1.5 and 3.0); on 30 of
      the tabulated sech^2 (s = 0.1-3.0); and on 30 and on 160
      Poschl-Teller strengths at s = 1e3-1e5, whose passes carry the
      solution across hundreds of sub-block products each, in Python
      floats one strength at a time (or, in a tree that batches the
      strengths of a pass, across whole columns of a large batch);
    cmd_solve per built-in shape (s = 1), and on Poschl-Teller at s = 1e6;
    divergent_block on the Gaussian, after the fourth order has been
      evaluated on the same grid, as greens-check calls it;
    e4_finite_beta on the Gaussian at beta = 0.01, on one grid and well, as
      greens-check calls it for each of its three betas;
    cmd_greens_check on the Gaussian;
    cmd_compare on the README's example config (the Gaussian,
      s = 0.1-3.0, 30 steps), and the objective calls that it makes;
    start-up: the wall time of a fresh `python -c pass`, of `import numpy`,
      and of each subcommand's imports (shallowwell.cli and the layers
      its _LAYERS entry names), each in a new process with SRC on
      PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, so no run writes bytecode.

Each tree's record also holds accuracy rows, which take no flag: for
each coefficient c2..c6 that energy_series reports on five wells, its
value, its exact value, its relative error against that value, and its
coarse/fine error estimate. The wells and their exact values:

    the unit square well: the exact rationals;
    the square well with a = 0.7: the same rationals times a^(2n-2), with
      a the float 0.7 taken exactly;
    Poschl-Teller: -1, 2, -5, 14, -42;
    the Gaussian: c2 = -pi/4, c3 = pi sqrt(2)/4 and the closed forms of
      c4..c6 in tests/reference.py, evaluated with the package of this
      checkout;
    the tabulated triangle -1 0 / 0 -1 / 1 0: the term tables' exact
      rationals; c2 = -(int V)^2/4 = -1/4 and c3 = (int V)(int int
      V|x - y|V)/4 = 7/60 also follow from the first two orders directly.

--tier1 N also runs each tree's Tier-1 suite N times, from the directory
above SRC, and records each run's wall time and CPU time (user + sys of
the pytest process and of the children it waited for, from getrusage),
with the median of each. CPU time leaves out the time spent waiting for
a core, and counts the CLI children that the suite runs two at a time;
it still moves with the speed of the host. The record holds the core
count and the Python, numpy and scipy versions.
"""
import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

REPEATS = 7
ROUNDS = 3
#: each timed sample runs the row's call until it has taken this long
SAMPLE_S = 0.02
GAUSSIAN = "[potential]\nkind = gaussian\ns = 1.0\n"
README_COMPARE = GAUSSIAN + "[sweep]\ns_min = 0.1\ns_max = 3.0\nsteps = 30\n"
BUILT_IN = ("square_well", "poschl_teller", "gaussian")
DEEP_SOLVE = "[potential]\nkind = poschl_teller\ns = 1e6\n"
#: the unit square well's c2..c6
SQUARE_WELL = tuple(map(Fraction, ("-1", "4/3", "-92/45", "1072/315", "-84752/14175")))
#: well name -> the exact c2..c6 of the wells whose exact values are rationals
RATIONAL = {
    "square_well a=1": SQUARE_WELL,
    # a is the float 0.7 that the well is built with, taken as the exact rational it is
    "square_well a=0.7": tuple(c * Fraction(0.7) ** (2 * n - 2) for n, c in enumerate(SQUARE_WELL, 2)),
    "poschl_teller": tuple(map(Fraction, (-1, 2, -5, 14, -42))),
    "tabulated triangle": tuple(
        map(Fraction, ("-1/4", "7/60", "-463/7200", "386819/9979200", "-8464589/342144000"))
    ),
}


def _per_call(fn) -> float:
    """Median over REPEATS samples of the seconds one fn() call takes."""
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(SAMPLE_S / once)) if once > 0.0 else 1000
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _startup(src: str) -> dict:
    """Start-up rows: name -> median wall seconds of a fresh process running that code."""
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])),
    )
    codes = {"python -c pass": "pass", "import numpy": "import numpy"}
    for command in ("series", "compare", "pade", "solve", "greens-check"):
        # a tree without _LAYERS imports every layer with the cli
        codes[f"imports {command}"] = (
            "import importlib, shallowwell.cli as cli\n"
            f"for name in getattr(cli, '_LAYERS', {{}}).get({command!r}, ()):\n"
            "    importlib.import_module('shallowwell.' + name)"
        )
    rows = {}
    for name, code in codes.items():
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - start)
        rows[f"startup {name}"] = statistics.median(samples)
    return rows


def _series(src: str) -> dict:
    """Well name -> (c2..c6, their error estimates) that energy_series gives in one tree."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from shallowwell.perturbation import energy_series
    from shallowwell.potential import Potential

    wells = {
        "square_well a=1": Potential("square_well", 1.0),
        "square_well a=0.7": Potential("square_well", 1.0, a=0.7),
        "poschl_teller": Potential("poschl_teller", 1.0),
        "gaussian": Potential("gaussian", 1.0),
        "tabulated triangle": Potential.tabulated(np.array([-1.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0])),
    }
    series = {}
    for name, p in wells.items():
        es = energy_series(p, order=6)
        series[name] = (list(es.coefficients[1:]), list(es.error_estimates[1:]))
    return series


def _exact() -> dict:
    """Well name -> the exact c2..c6 as Fractions (the Gaussian's as the floats of its closed forms)."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(here, "src"), os.path.join(here, "tests")]
    from reference import gaussian_closed_coefficients

    # c2 = -(int V)^2 / 4 = -pi/4; c3 = (int V)(int int V|x - y|V)/4 = sqrt(pi) sqrt(2 pi)/4
    gaussian = (-math.pi / 4.0, math.pi * math.sqrt(2.0) / 4.0, *gaussian_closed_coefficients())
    return {**RATIONAL, "gaussian": tuple(map(Fraction, gaussian))}


def _accuracy(series: dict, exact: dict) -> dict:
    """The accuracy rows of one tree: well -> cn -> value, exact value, relative error, estimate."""
    rows = {}
    for name, (values, estimates) in series.items():
        rows[name] = {
            f"c{n}": {
                "value": value,
                "exact": str(want) if name in RATIONAL else float(want),
                "rel_error": float(abs(Fraction(value) - want) / abs(want)),
                "estimate": estimate,
            }
            for n, value, estimate, want in zip(range(2, 7), values, estimates, exact[name])
        }
    return rows


def _rows(src: str) -> dict:
    """Every row of one tree: name -> seconds per call, or a count."""
    rows = _startup(src)
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from shallowwell import cli, quadrature, variational
    from shallowwell.greens import divergent_block, e4_finite_beta
    from shallowwell.oracles import _WronskianEngine, shooting_sweep
    from shallowwell.perturbation import energy_series, evaluate_terms, load_terms
    from shallowwell.potential import Potential
    from shallowwell.quadrature import build_grid, contract, default_grid, integrate

    g = build_grid(10.0, 128, 8)
    f = -np.exp(-g.nodes**2) * np.exp(-0.4 * g.nodes**2)
    rows["quadrature.integrate N=1024"] = _per_call(lambda: integrate(g, f))

    p = Potential("gaussian", 1.0)
    g = default_grid(p)
    for P in (128, 256):
        gk = build_grid(g.L, P, g.q)
        ones = np.ones(gk.size)
        for k in (0, 1, 2, 3, 5):
            rows[f"quadrature.contract k={k} N={gk.size}"] = _per_call(lambda: contract(gk, p, k, 0, ones))
        for m in (1, 2):
            rows[f"quadrature.contract k=1 m={m} N={gk.size}"] = _per_call(lambda: contract(gk, p, 1, m, ones))
        V, Vsub, memo = quadrature.plan(gk, p)
        u = V * ones
        # a tree whose _kink_correction takes the plan's memo, for the sub-node powers
        memo_arg = (memo,) if len(inspect.signature(quadrature._kink_correction).parameters) == 7 else ()
        for k in (1, 3, 5):
            rows[f"quadrature._kink_correction k={k} N={gk.size}"] = _per_call(
                lambda: quadrature._kink_correction(gk, k, 0, ones, u, Vsub, *memo_arg)
            )
    for order in range(2, 7):
        terms = load_terms(order)
        rows[f"perturbation.evaluate_terms order={order}"] = _per_call(
            lambda: evaluate_terms(terms, Potential("gaussian", 1.0), g)
        )
    v = p.evaluate(g.nodes)
    trials = {"gaussian": variational.GaussianTrial(0.19), "expsqrt": variational.ExpSqrtTrial(0.65, 0.93)}
    for family, tf in trials.items():
        rows[f"variational.rayleigh_quotient {family}"] = _per_call(
            lambda: variational.rayleigh_quotient(tf, v, g)
        )

    minimize = variational.minimize
    if next(iter(inspect.signature(minimize).parameters)) == "tf_kind":  # one search per family

        def compare_row(ps):
            return [minimize(family, ps, g) for family in ("gaussian", "expsqrt")]
    else:

        def compare_row(ps):
            return minimize(ps, g)

    for s in (0.1, 1.0, 3.0):
        ps = Potential("gaussian", s)
        rows[f"variational.minimize s={s:g}"] = _per_call(lambda: compare_row(ps))

    for kind in ("square_well", "poschl_teller", "gaussian"):
        rows[f"perturbation.energy_series {kind}"] = _per_call(
            lambda: energy_series(Potential(kind, 1.0), order=6)
        )

    xs = np.linspace(1.3 - 12.0, 1.3 + 12.0, 2401)
    wells = {kind: Potential(kind, 1.0) for kind in BUILT_IN}
    wells["tabulated sech2 x0=1.3"] = Potential.tabulated(xs, -1.0 / np.cosh(xs - 1.3) ** 2, s=1.5)
    for name, pw in wells.items():
        engine = _WronskianEngine(pw)
        (level,) = shooting_sweep(pw, [pw.s])
        pair = (pw.s, math.sqrt(-level.energy))
        if next(iter(inspect.signature(engine.wronskian).parameters)) == "svec":  # arrays of pairs
            pair = ([pw.s], [pair[1]])
        rows[f"oracles.wronskian B=1 {name}"] = _per_call(lambda: engine.wronskian(*pair))

    s_values = np.linspace(0.1, 3.0, 30)
    rows["oracles.shooting_sweep 30 strengths"] = _per_call(lambda: shooting_sweep(p, s_values))
    rows["oracles.shooting_sweep 3 strengths"] = _per_call(lambda: shooting_sweep(p, [0.11, 1.5, 3.0]))
    sech2 = wells["tabulated sech2 x0=1.3"]
    rows["oracles.shooting_sweep 30 tabulated sech2"] = _per_call(lambda: shooting_sweep(sech2, s_values))
    deep = Potential("poschl_teller", 1.0)
    for n in (30, 160):
        s_deep = np.geomspace(1e3, 1e5, n)
        rows[f"oracles.shooting_sweep {n} poschl_teller s=1e3-1e5"] = _per_call(lambda: shooting_sweep(deep, s_deep))

    evaluate_terms(load_terms(4), p, g)
    rows["greens.divergent_block gaussian"] = _per_call(lambda: divergent_block(p, g))
    rows["greens.e4_finite_beta gaussian beta=0.01"] = _per_call(lambda: e4_finite_beta(p, g, 0.01))

    configs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        solve = {f"solve {kind}": f"[potential]\nkind = {kind}\ns = 1.0\n" for kind in BUILT_IN}
        solve["solve poschl_teller s=1e6"] = DEEP_SOLVE
        for name, text in (("greens", GAUSSIAN), ("compare", README_COMPARE), *solve.items()):
            with open(path, "w") as fh:
                fh.write(text)
            configs[name] = cli.load_config(path)
    for name in solve:
        rows[f"cli.cmd_{name}"] = _per_call(lambda: cli.cmd_solve(configs[name]))
    rows["cli.cmd_greens_check gaussian"] = _per_call(lambda: cli.cmd_greens_check(configs["greens"]))
    cfg = configs["compare"]
    rows["cli.cmd_compare README"] = _per_call(lambda: cli.cmd_compare(cfg))

    calls = 0
    quadrature_integrate = variational.integrate

    def counted(*args):
        nonlocal calls
        calls += 1
        return quadrature_integrate(*args)

    variational.integrate = counted
    cli.cmd_compare(cfg)
    variational.integrate = quadrature_integrate
    rows["cli.cmd_compare README objective calls"] = calls
    return rows


def _cpu_children() -> float:
    """User + sys seconds of the waited-for children of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tier1(src: str) -> tuple:
    """(wall seconds, CPU seconds, last output line) of one Tier-1 run of the tree above src."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpu, start = _cpu_children(), time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=os.path.dirname(src), env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    return wall, _cpu_children() - cpu, done.stdout.strip().splitlines()[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH json to write")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--tier1", type=int, default=0, help="Tier-1 runs per tree")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.trees)

    rounds = {label: [] for label in trees}
    for r in range(args.rounds):
        for label, src in (list(trees.items()) if r % 2 == 0 else list(trees.items())[::-1]):
            done = subprocess.run(
                [sys.executable, __file__, "--child", src], capture_output=True, text=True, check=True
            )
            rounds[label].append(json.loads(done.stdout.splitlines()[-1]))
            print(f"round {r + 1}: {label}", file=sys.stderr, flush=True)

    import numpy
    import scipy

    record = {
        "machine": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "settings": {"rounds": args.rounds, "repeats": REPEATS, "sample_s": SAMPLE_S},
        "trees": {},
    }
    for label, runs in rounds.items():
        rows = {
            name: {"median": statistics.median(run[name] for run in runs), "rounds": [run[name] for run in runs]}
            for name in runs[0]
        }
        record["trees"][label] = {"rows": rows}
    exact = _exact()
    for label, src in trees.items():
        done = subprocess.run(
            [sys.executable, __file__, "--series", src], capture_output=True, text=True, check=True
        )
        record["trees"][label]["accuracy"] = _accuracy(json.loads(done.stdout.splitlines()[-1]), exact)
    for r in range(args.tier1):
        for label, src in (list(trees.items()) if r % 2 == 0 else list(trees.items())[::-1]):
            wall, cpu, summary = _tier1(src)
            tier1 = record["trees"][label].setdefault("tier1", {"runs_s": [], "cpu_s": [], "summaries": []})
            tier1["runs_s"].append(wall)
            tier1["cpu_s"].append(cpu)
            tier1["summaries"].append(summary)
            print(f"tier1 {r + 1}: {label} {wall:.1f} s, {cpu:.1f} s CPU, {summary}", file=sys.stderr, flush=True)
    for tree in record["trees"].values():
        if "tier1" in tree:
            tree["tier1"]["median_s"] = statistics.median(tree["tier1"]["runs_s"])
            tree["tier1"]["median_cpu_s"] = statistics.median(tree["tier1"]["cpu_s"])
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_rows(sys.argv[2])))
    elif sys.argv[1:2] == ["--series"]:
        print(json.dumps(_series(sys.argv[2])))
    else:
        main()
