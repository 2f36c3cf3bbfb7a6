"""Every script under ``examples/`` runs to completion on the package.

The examples call the public API the way a reader would, so a signature
change that breaks one shows up here rather than in a reader's terminal.
Each runs in a fresh interpreter, as its ``Run:`` line says.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
EXAMPLES = os.path.join(ROOT, "examples")
SCRIPTS = sorted(
    name for name in os.listdir(EXAMPLES) if name.endswith(".py")
)

#: Arguments that keep a script short (one task set per bin).
ARGS = {"energy_sweep.py": ["1"]}


def test_examples_found():
    assert len(SCRIPTS) >= 7, SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script), *ARGS.get(script, [])],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
