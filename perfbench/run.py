"""Benchmark of the ``shallowwell`` CLI on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload series-suite --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn. Each job is a fresh
``python perfbench/job.py`` process that imports the package from
``src/`` and calls ``shallowwell.cli.main``, one job at a time, as users
run the CLI. A pass runs every job of the workload once; passes repeat
while that brings the run's end closer to ``--seconds``. Every reported value
is checked against an independent reference (``check.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` every public function of the package is wrapped inside
each job (``spans.py``), the run reports per-layer metrics instead and
writes every span to ``.perfbench-trace/<workload>-seed<N>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
never sets ``SHALLOWWELL_THREADS``; ``compare`` uses its own thread pool.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import check
import spans
from workloads import WHY, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-trace")

END_TO_END = {"setup_s": "s", "run_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
SUBCOMMAND_METRICS = {
    "series": "series_s",
    "pade": "pade_s",
    "greens-check": "greens_check_s",
    "compare": "compare_s",
    "solve": "solve_s",
}
TRACE_ONLY = {
    **{name: "s" for name in SUBCOMMAND_METRICS.values()},
    "failed_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.work_s": "s",
}
#: set-up is sampled at least this often per run, by probes if jobs are few
MIN_SETUP_SAMPLES = 9
#: jobs still running this long after a workload starts are killed
RUN_LIMIT_S = 160


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no program, broken checker)."""


def run_job(job, mode: str, tmp: str, env: dict, deadline: float) -> dict:
    """Run one job in a fresh process; return its report and phase times."""
    stamp_path = os.path.join(tmp, "stamp.json")
    if os.path.exists(stamp_path):
        os.remove(stamp_path)
    argv = [sys.executable, os.path.join(HERE, "job.py"), stamp_path, mode,
            job.command, "--config", job.config]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = time.monotonic() - t0
    result = {"job": job, "rc": proc.returncode, "out": out, "err": err, "wall": wall,
              "setup": None, "work": None, "maxrss_kb": 0, "spans": [], "span_cost": 0.0}
    try:
        with open(stamp_path, encoding="utf-8") as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        if result["rc"] == 0:
            result["rc"] = -1  # exited cleanly without finishing the job
        return result
    if stamp["validated"] is not None:
        result["setup"] = stamp["validated"] - t0
        result["work"] = stamp["done"] - stamp["validated"]
    result["maxrss_kb"] = stamp["maxrss_kb"]
    result["spans"] = stamp.get("spans", [])
    result["span_cost"] = stamp.get("span_cost", 0.0)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str, env: dict):
    """Run passes of the workload for ``seconds``; return passes and probes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = make_jobs(workload, seed, tmp)
    # the first import compiles bytecode and fills the page cache once
    warm = run_job(jobs[0], "probe", tmp, env, deadline)
    if warm["rc"] != 0 or warm["setup"] is None:
        raise BenchmarkError(f"cannot start the program: {warm['err'].strip()[-500:]}")
    mode = "trace" if trace else "run"
    passes, times = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append([run_job(job, mode, tmp, env, deadline) for job in jobs])
        times.append(time.monotonic() - t0)
        # stop where the run ends closest to ``seconds``
        if time.monotonic() - start + statistics.median(times) / 2 > seconds:
            break
    probes = []
    if not trace:
        while len(jobs) * len(passes) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(run_job(jobs[len(probes) % len(jobs)], "probe", tmp, env, deadline))
    return passes, times, probes


def end_to_end(passes, times, probes) -> dict:
    runs = [r for p in passes for r in p] + probes
    setups = [r["setup"] for r in runs if r["setup"] is not None]
    work = [sum(r["work"] or 0.0 for r in p) for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(times),
        "work_s": statistics.median(work),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
    }


def per_layer(passes, failed_ratio: float) -> dict:
    layers = [spans.pass_layers([spans.job_layers(r["spans"]) for r in p]) for p in passes]
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in spans.PER_LAYER}
    by_command = {}
    for p in passes:
        for r in p:
            if r["work"] is not None:
                by_command.setdefault(r["job"].command, []).append(r["work"])
    for command, name in SUBCOMMAND_METRICS.items():
        metrics[name] = statistics.median(by_command.get(command, [0.0]))
    metrics["failed_ratio"] = failed_ratio
    metrics["trace.spans"] = statistics.median(sum(len(r["spans"]) for r in p) for p in passes)
    metrics["trace.overhead_s"] = statistics.median(
        sum(len(r["spans"]) * r["span_cost"] for r in p) for p in passes
    )
    metrics["trace.work_s"] = statistics.median(
        sum(r["work"] or 0.0 for r in p) for p in passes
    )
    return metrics


def write_trace(path: str, passes) -> None:
    """All spans of a traced run as JSON lines; ``job`` identifies the job."""
    keys = ("id", "parent", "name", "via", "start", "end", "error", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        for i, p in enumerate(passes):
            for r in p:
                job = f"pass{i}/{os.path.basename(r['job'].config)[:-4]}"
                for span in r["spans"]:
                    fh.write(json.dumps({"job": job, **dict(zip(keys, span))}) + "\n")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "SHALLOWWELL_THREADS": os.environ.get("SHALLOWWELL_THREADS", "unset"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        passes, times, probes = measure(workload, seed, seconds, trace, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = failed = 0
    for p in passes:
        for r in p:
            a, f, problems = check.check_job(r["job"], r["rc"], r["out"])
            attempted += a
            failed += f
            for line in problems[:5]:
                print(f"check failed: {line}", file=sys.stderr)
            if r["rc"] != 0:
                print(r["err"].strip()[-2000:], file=sys.stderr)
    broken = check.self_test([(r["job"], r["rc"], r["out"]) for r in passes[0]])
    if broken:
        raise BenchmarkError("checker self-test failed: " + "; ".join(broken))

    failed_ratio = failed / attempted
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        write_trace(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl"), passes)
        metrics = per_layer(passes, failed_ratio)
        units = {**spans.PER_LAYER, **TRACE_ONLY}
    else:
        metrics = end_to_end(passes, times, probes)
        units = END_TO_END
    n_setup = sum(r["setup"] is not None for p in passes for r in p) + len(probes)
    commands = Counter(job.command for job in (r["job"] for r in passes[0]))
    print(f"workload {workload}: {WHY[workload]}")
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    print(f"samples: {len(passes)} passes of {dict(commands)}, {n_setup} set-up samples"
          f"{', traced' if trace else ''}")
    print(f"operations: {failed} failed of {attempted} (failed_ratio {failed_ratio!r})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shallowwell CLI benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WHY) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shallowwell", "cli.py")):
        print(f"no program to benchmark: {SRC}/shallowwell is missing", file=sys.stderr)
        return 2
    names = list(WHY) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
