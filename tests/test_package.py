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
import shallowwell.variational
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"package": loaded, "scipy": scipy}))
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
    assert loaded["scipy"] == []  # the package runs on numpy alone
