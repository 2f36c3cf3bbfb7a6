"""numpy stays off the start-up path; only the batch kernel loads it.

Every CLI call, sweep unit and server starts a fresh interpreter, so an
eager numpy import is paid on every cold start (import time and resident
memory).  These tests run a fresh interpreter each and check which
modules it loaded.
"""

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: Imports every entry point, then runs a tiny sweep on the backend named
#: by its argument; prints whether numpy was loaded after the imports and
#: after the sweep.
SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    import repro.cli
    import repro.harness.figures
    import repro.service.app
    from repro.harness.runner import RunSpec
    from repro.harness.sweep import utilization_sweep

    after_imports = "numpy" in sys.modules
    result = utilization_sweep(
        bins=[(0.3, 0.4)],
        schemes=["MKSS_ST", "MKSS_Selective"],
        sets_per_bin=1,
        seed=3,
        run=RunSpec(horizon_cap_units=100),
        backend=sys.argv[1],
    )
    assert len(result.job_payloads) == 2, result.job_payloads
    print(after_imports, "numpy" in sys.modules)
    """
)


def _numpy_loaded(backend):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, backend],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    after_imports, after_sweep = completed.stdout.split()
    return after_imports == "True", after_sweep == "True"


def test_imports_and_a_pool_sweep_leave_numpy_unloaded():
    assert _numpy_loaded("pool") == (False, False)


def test_batch_sweep_loads_numpy_on_demand():
    pytest.importorskip("numpy", reason="the batch backend requires numpy")
    assert _numpy_loaded("batch") == (False, True)


def test_service_default_backend_resolves_without_numpy():
    """A spec that omits ``backend`` is resolved on the server's event
    loop: a smoke-width one must pick the batch kernel from numpy's
    installed version, leaving the import to the thread that runs it."""
    pytest.importorskip("numpy", reason="the batch backend requires numpy")
    script = textwrap.dedent(
        """
        import sys

        from repro.service.spec import SweepSpec

        spec = SweepSpec.from_dict({"faults": "transient"})
        print(spec.backend, "numpy" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.stdout.split() == ["batch", "False"]
