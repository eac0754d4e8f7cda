"""What an import loads: ``import repro`` loads no subpackage, and the
serving entry points load neither SciPy nor the training and analysis
stack.

Each check runs in a fresh interpreter, so a module an earlier test
imported cannot hide a leak; a failure lists every module that leaked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages a serving process never runs.
NOT_SERVED = ("scipy", "repro.analysis", "repro.experiments", "repro.train",
              "repro.metrics")


def _loaded_by(module: str):
    """Every module in ``sys.modules`` after ``import <module>`` in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _under(modules, packages):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_import_repro_loads_no_subpackage():
    leaked = [m for m in _loaded_by("repro") if m.startswith("repro.")]
    assert not leaked, "import repro loaded: " + " ".join(leaked)


@pytest.mark.parametrize("module", ["repro.gateway.worker", "repro.api"])
def test_serving_import_loads_nothing_it_does_not_run(module):
    leaked = _under(_loaded_by(module), NOT_SERVED)
    assert not leaked, f"import {module} loaded: " + " ".join(leaked)
