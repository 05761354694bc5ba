import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import causalpipe

# Every module of the package; `python -m causalpipe` guards its entry point.
MODULES = sorted(f"causalpipe.{m.name}" for m in pkgutil.iter_modules(causalpipe.__path__))


def test_the_package_does_not_import_scipy_stats():
    # A fresh interpreter: this one has scipy.stats loaded by other tests.
    src = str(Path(causalpipe.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = "\n".join([*(f"import {m}" for m in MODULES), "import sys",
                        "print('scipy.stats' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "causalpipe.stats" in MODULES and "causalpipe.cli" in MODULES
    assert proc.stdout.strip() == "False"
