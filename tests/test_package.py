import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shallowwell

# Run in a fresh interpreter: the test process has imported everything already.
_PROBE = """
import json, sys
import shallowwell
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith(("scipy.", "shallowwell.")))
import shallowwell.cli
import shallowwell.variational
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"package": loaded, "scipy": scipy}))
"""


def _env() -> dict:
    """This environment, with the package's source directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(shallowwell.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_loads_only_what_is_run():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=_env(), capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert loaded["package"] == []
    assert loaded["scipy"] == []  # the package runs on numpy alone


# Runs cli.main with load_config wrapped, as perfbench/job.py does, and
# lists the package modules loaded when the config is validated and at the end.
_PLAN_PROBE = """
import json, sys
from shallowwell import cli

def package():
    return sorted(m for m in sys.modules if m.startswith("shallowwell."))

seen = {}
load_config = cli.load_config

def stamped_load_config(path):
    cfg = load_config(path)
    seen["validated"] = package()
    return cfg

cli.load_config = stamped_load_config
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "validated": seen["validated"], "done": package(),
                  "fractions": "fractions" in sys.modules}))
"""

_BASE = {"cli", "errors", "potential", "quadrature"}
# subcommand -> the package modules its job loads, besides _BASE
_PLAN = {
    "series": {"perturbation"},
    "pade": {"perturbation", "resummation"},
    "greens-check": {"perturbation", "greens"},
    "solve": {"oracles"},
    "compare": {"perturbation", "resummation", "oracles", "variational"},
}


@pytest.mark.parametrize("command", sorted(_PLAN))
def test_subcommand_imports_its_layers_before_its_config(tmp_path, command):
    config = tmp_path / "run.ini"
    config.write_text(
        "[potential]\nkind = gaussian\ns = 1.0\n[sweep]\ns_min = 0.5\ns_max = 1.5\nsteps = 3\n"
    )
    argv = [command, "--config", str(config), "--out", str(tmp_path / "report")]
    out = subprocess.run(
        [sys.executable, "-c", _PLAN_PROBE, *argv],
        env=_env(), capture_output=True, text=True, check=True,
    ).stdout
    plan = json.loads(out)
    assert plan["rc"] == 0
    assert plan["done"] == sorted(f"shallowwell.{m}" for m in _BASE | _PLAN[command])
    assert plan["validated"] == plan["done"]  # nothing is first imported after the config
    if command == "solve":
        assert not plan["fractions"]
