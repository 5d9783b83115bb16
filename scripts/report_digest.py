"""Digest every CLI report of one source tree, to compare two trees byte for byte.

Runs `python -m shallowwell.cli` with SRC first on PYTHONPATH for each
subcommand and format, on five wells (square well at a = 1 and a = 0.7,
Poschl-Teller, Gaussian, and a tabulated sech^2 centred at x0 = 1.3 with
2,401 samples), each with and without a [sweep], plus `series --grid`.
Prints one line per run: name, exit code, sha256 of stdout and of stderr.

    python scripts/report_digest.py PARENT/src > parent.txt
    python scripts/report_digest.py src > change.txt
    diff parent.txt change.txt
"""
import hashlib
import math
import os
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


def main(src: str) -> None:
    path = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with tempfile.TemporaryDirectory() as tmp:
        xs = [1.3 - 12.0 + 24.0 * i / 2400 for i in range(2401)]
        with open(os.path.join(tmp, "sech2.txt"), "w") as fh:
            fh.writelines(f"{x!r} {-1.0 / math.cosh(x - 1.3) ** 2!r}\n" for x in xs)
        for well, potential in WELLS.items():
            for sweep in ("", SWEEP):
                name = well + ("+sweep" if sweep else "")
                with open(os.path.join(tmp, "run.ini"), "w") as fh:
                    fh.write("[potential]\n" + potential + sweep)
                for label, args in RUNS:
                    done = subprocess.run(
                        [sys.executable, "-m", "shallowwell.cli", *args, "--config", "run.ini"],
                        cwd=tmp, env=env, capture_output=True,
                    )
                    digests = (hashlib.sha256(b).hexdigest() for b in (done.stdout, done.stderr))
                    print(f"{name}/{label}", done.returncode, *digests, flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/report_digest.py SRC")
    main(sys.argv[1])
