"""The tests run against the package in `src` without installing it: `src`
goes first on sys.path, and on the PYTHONPATH of the processes that the
tests start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
