"""The package imports nothing beyond the standard library and numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qgames

_PROBE = """
import json, sys
before = set(sys.modules)
import qgames, qgames.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_adds_only_stdlib_numpy_and_qgames_modules():
    # a fresh interpreter: site hooks may already have loaded third-party
    # modules before the probe runs, so only the modules the import adds count
    src = str(Path(qgames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "qgames.cli" in added and "numpy" in added
    # multiprocessing registers the main module again as ``__mp_main__``
    allowed = set(sys.stdlib_module_names) | {"numpy", "qgames", "__mp_main__"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []
