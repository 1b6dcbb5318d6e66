"""Let the interpreters that tests start import ``workbot`` from ``src``.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
and import-check children inherit this environment variable instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
