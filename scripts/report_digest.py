"""Digest every CLI report of one source tree, to compare two trees byte for byte.

Runs `python -m shallowwell.cli` with SRC first on PYTHONPATH for each
subcommand and format, on five wells (square well at a = 1 and a = 0.7,
Poschl-Teller, Gaussian, and a tabulated sech^2 centred at x0 = 1.3 with
2,401 samples), each with and without a [sweep], plus `series --grid`.
Then runs the failure paths of FAILURES: wells whose depth underflows the
shooting search or a series coefficient (in series and greens-check),
grids whose 2P twin has too many nodes to contract in 2 GiB (and
`solve` on one such well, which uses no such grid), domains whose width
2L overflows, Pade samples whose polynomials overflow, and sweeps of more
steps than a sweep may have.
Each run gets 2 GiB of address space, so a tree that tries to allocate
more fails in seconds instead of exhausting the machine, and one BLAS
thread, whose reserve fits in that on any core count.
Prints one line per run: name, exit code, sha256 of stdout and of stderr.

    python scripts/report_digest.py PARENT/src > parent.txt
    python scripts/report_digest.py src > change.txt
    diff parent.txt change.txt
"""
import hashlib
import math
import os
import resource
import subprocess
import sys
import tempfile

WELLS = {
    "square": "kind = square_well\ns = 2.5\n",
    "square-a0.7": "kind = square_well\ns = 2.5\na = 0.7\n",
    "poschl-teller": "kind = poschl_teller\ns = 2\n",
    "gaussian": "kind = gaussian\ns = 1\n",
    "sech2-x0-1.3": "kind = tabulated\ns = 1.5\nfile = sech2.txt\n",
}
SWEEP = "[sweep]\ns_min = 0.1\ns_max = 3.0\nsteps = 30\n"
COMMANDS = ("series", "pade", "solve", "greens-check", "compare")
RUNS = [(f"{c}-{f}", [c, "--format", f]) for c in COMMANDS for f in ("text", "csv", "json")]
RUNS.append(("series-grid", ["series", "--grid", "12,64,6"]))

#: depths of triangle wells whose c2, c4 or c6 underflows
UNDERFLOWING = ("1e-60", "1e-100", "1e-160")
#: sample files of the failure paths, beside sech2.txt
SAMPLES = {
    **{f"depth-{d}.txt": f"-1 0\n0 -{d}\n1 0\n" for d in ("5e-324", "1e-300", *UNDERFLOWING)},
    "abscissas-1e308.txt": "-1e308 -1\n1e308 -1\n",
}
TINY = "kind = tabulated\ns = 1\nfile = depth-5e-324.txt\n"
HUGE = "kind = tabulated\ns = 1\nfile = abscissas-1e308.txt\n"
#: (name, [potential] body and any other sections, arguments)
FAILURES = [
    ("depth-5e-324/solve", TINY, ["solve"]),
    ("depth-5e-324+sweep/compare", TINY + "[sweep]\ns_min = 1e-3\ns_max = 1e3\nsteps = 3\n",
     ["compare"]),
    ("depth-1e-300-s-1e-300/solve", "kind = tabulated\ns = 1e-300\nfile = depth-1e-300.txt\n",
     ["solve"]),
    ("gaussian/series-grid-P-1e6", WELLS["gaussian"], ["series", "--grid", "15,1000000,8"]),
    ("gaussian/series-grid-L-1e308", WELLS["gaussian"], ["series", "--grid", "1e308,64,8"]),
    ("gaussian/greens-check-grid-P-1e6", WELLS["gaussian"],
     ["greens-check", "--grid", "15,1000000,8"]),
    ("gaussian/series-grid-P-4e6-q-2", WELLS["gaussian"], ["series", "--grid", "15,4000000,2"]),
    ("square-a1e-5/series", "kind = square_well\ns = 1\na = 1e-5\n", ["series"]),
    ("square-a1e-5/solve", "kind = square_well\ns = 1\na = 1e-5\n", ["solve"]),
    *((f"abscissas-1e308/{c}", HUGE, [c]) for c in ("series", "solve", "greens-check")),
    *((f"depth-{d}/series", f"kind = tabulated\ns = 1\nfile = depth-{d}.txt\n", ["series"])
      for d in UNDERFLOWING),
    *((f"depth-{d}/greens-check", f"kind = tabulated\ns = 1\nfile = depth-{d}.txt\n",
       ["greens-check"]) for d in ("1e-100", "5e-324")),
    ("gaussian+sweep-6e102-1e150/pade",
     WELLS["gaussian"] + "[sweep]\ns_min = 6e102\ns_max = 1e150\nsteps = 3\n", ["pade"]),
    *((f"gaussian+sweep-steps-1e10/{c}",
       WELLS["gaussian"] + "[sweep]\ns_min = 0.1\ns_max = 3\nsteps = 10000000000\n", [c])
      for c in ("pade", "compare")),
]
#: the address space of each run, in bytes
ADDRESS_SPACE = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def main(src: str) -> None:
    path = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    # one BLAS thread: OpenBLAS reserves about 40 MB of address space per thread
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:

        def run(name, config, args):
            with open(os.path.join(tmp, "run.ini"), "w") as fh:
                fh.write("[potential]\n" + config)
            done = subprocess.run(
                [sys.executable, "-m", "shallowwell.cli", *args, "--config", "run.ini"],
                cwd=tmp, env=env, capture_output=True, preexec_fn=_limit_address_space,
            )
            digests = (hashlib.sha256(b).hexdigest() for b in (done.stdout, done.stderr))
            print(name, done.returncode, *digests, flush=True)

        xs = [1.3 - 12.0 + 24.0 * i / 2400 for i in range(2401)]
        with open(os.path.join(tmp, "sech2.txt"), "w") as fh:
            fh.writelines(f"{x!r} {-1.0 / math.cosh(x - 1.3) ** 2!r}\n" for x in xs)
        for file, text in SAMPLES.items():
            with open(os.path.join(tmp, file), "w") as fh:
                fh.write(text)
        for well, potential in WELLS.items():
            for sweep in ("", SWEEP):
                for label, args in RUNS:
                    run(f"{well}{'+sweep' if sweep else ''}/{label}", potential + sweep, args)
        for name, config, args in FAILURES:
            run(name, config, args)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/report_digest.py SRC")
    main(sys.argv[1])
