import json
import os
import subprocess
import sys
from pathlib import Path

import shallowwell

# Run in a fresh interpreter: the test process has imported everything already.
_PROBE = """
import json, sys
import shallowwell
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith(("scipy.", "shallowwell.")))
import shallowwell.cli
cli = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import shallowwell.variational
variational = sorted(m for m in sys.modules if m == "scipy.optimize" or m.startswith("scipy.optimize."))
print(json.dumps({"package": loaded, "cli": cli, "variational": variational}))
"""


def test_import_loads_only_what_is_run():
    env = dict(os.environ)
    src = str(Path(shallowwell.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert loaded["package"] == []
    assert loaded["cli"] == []  # scipy loads only when compare runs the variational fits
    assert loaded["variational"] == []  # scipy.special only: its search is golden-section
