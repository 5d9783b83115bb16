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
    one objective call (rayleigh_quotient) per trial family;
    the variational search of one compare row (minimize) at s = 0.1, 1, 3;
    energy_series per built-in shape, on a new Potential each time, so
      no kink plan is reused;
    a 30-strength shooting_sweep;
    cmd_compare on the README's example config (the Gaussian,
      s = 0.1-3.0, 30 steps), and the objective calls that it makes.

--tier1 N also runs each tree's Tier-1 suite N times, from the directory
above SRC, and records the median wall time. The record holds the core
count and the Python, numpy and scipy versions.
"""
import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 7
ROUNDS = 3
#: each timed sample runs the row's call until it has taken this long
SAMPLE_S = 0.02
README_COMPARE = "[potential]\nkind = gaussian\ns = 1.0\n[sweep]\ns_min = 0.1\ns_max = 3.0\nsteps = 30\n"


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


def _rows(src: str) -> dict:
    """Every row of one tree: name -> seconds per call, or a count."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from shallowwell import cli, variational
    from shallowwell.oracles import shooting_sweep
    from shallowwell.perturbation import energy_series
    from shallowwell.potential import Potential
    from shallowwell.quadrature import build_grid, default_grid, integrate

    rows = {}
    g = build_grid(10.0, 128, 8)
    f = -np.exp(-g.nodes**2) * np.exp(-0.4 * g.nodes**2)
    rows["quadrature.integrate N=1024"] = _per_call(lambda: integrate(g, f))

    p = Potential("gaussian", 1.0)
    g = default_grid(p)
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

    s_values = np.linspace(0.1, 3.0, 30)
    rows["oracles.shooting_sweep 30 strengths"] = _per_call(lambda: shooting_sweep(p, s_values))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(README_COMPARE)
        cfg = cli.load_config(path)
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


def _tier1(src: str) -> tuple:
    """(wall seconds, last output line) of one Tier-1 run of the tree above src."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=os.path.dirname(src), env=env, capture_output=True, text=True,
    )
    return time.perf_counter() - start, done.stdout.strip().splitlines()[-1]


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
    for r in range(args.tier1):
        for label, src in (list(trees.items()) if r % 2 == 0 else list(trees.items())[::-1]):
            wall, summary = _tier1(src)
            tier1 = record["trees"][label].setdefault("tier1", {"runs_s": [], "summaries": []})
            tier1["runs_s"].append(wall)
            tier1["summaries"].append(summary)
            print(f"tier1 {r + 1}: {label} {wall:.1f} s, {summary}", file=sys.stderr, flush=True)
    for tree in record["trees"].values():
        if "tier1" in tree:
            tree["tier1"]["median_s"] = statistics.median(tree["tier1"]["runs_s"])
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_rows(sys.argv[2])))
    else:
        main()
