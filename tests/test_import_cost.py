"""Import-cost guard: the CLI and server entry points stay lean.

Every CLI call, batch worker and serve worker imports these modules,
so a heavy transitive import is paid on every start-up.
``scipy.spatial`` alone costs about 0.2 s and nothing on these paths
needs it; each check runs in a fresh interpreter so modules imported
by other tests cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.server"])
def test_entry_point_does_not_import_scipy_spatial(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys, {module}; "
            "print('scipy.spatial' in sys.modules)",
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
