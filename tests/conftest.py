"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import causalpipe

# Warnings are errors in the interpreters the tests start too (the fork
# server, each generator, every run_python child), as pytest makes them here.
os.environ.setdefault("PYTHONWARNINGS", "error")

# the directory this process imports the package from
SRC = str(Path(causalpipe.__file__).resolve().parents[1])


def run_python(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports this package from
    the same source tree, its output captured as text; `env` is added to
    this process's environment."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          capture_output=True, text=True, **kwargs)
