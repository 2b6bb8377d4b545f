"""Packaging guards: the runtime needs numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every dialact module and prints the top-level modules that came in
# with them and are neither the standard library, numpy nor dialact.
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import dialact
for info in pkgutil.iter_modules(dialact.__path__):
    importlib.import_module(f"dialact.{info.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "dialact"})))
"""


def test_every_module_imports_only_numpy_and_the_standard_library():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"dialact imports third-party modules: {proc.stdout.strip()}"
