"""The end-to-end benchmark's tracer still installs on the package.

``e2ebench/tracer.py`` wraps calls it finds by name: every
``SchedulingPolicy`` subclass's own ``prepare``,
``StandbySparingEngine.run``, ``batch.build_batch_item`` and
``validate.audit_scheme`` among them.  Only traced benchmark runs use
it, so renaming one of those would break nothing else; this test
installs it in a fresh interpreter against ``src/`` and checks that it
wrapped every scheme's ``prepare`` and that a traced run records the
engine's and the schedulers' spans.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))

SCRIPT = textwrap.dedent(
    """
    import json

    from tracer import Recorder, install

    recorder = Recorder()
    install(recorder)

    from repro.harness.runner import SCHEME_FACTORIES, RunSpec, run_scheme
    from repro.schedulers import DistanceBasedPriority, SingleProcessorFP
    from repro.workload.presets import fig1_taskset

    classes = {type(factory()) for factory in SCHEME_FACTORIES.values()}
    classes |= {SingleProcessorFP, DistanceBasedPriority}
    unwrapped = sorted(
        cls.__name__
        for cls in classes
        if not hasattr(vars(cls).get("prepare"), "__wrapped__")
    )
    run_scheme(fig1_taskset(), "MKSS_Selective", None, RunSpec(horizon_cap_units=20))
    spans = sorted({span[0] for spans in recorder.threads for span in spans})
    print(json.dumps({"classes": len(classes), "unwrapped": unwrapped, "spans": spans}))
    """
)


def test_tracer_wraps_every_scheme_prepare():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(ROOT, "e2ebench"), os.path.join(ROOT, "src"))
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    report = json.loads(completed.stdout)
    assert report["classes"] >= 8
    assert report["unwrapped"] == []
    assert {"schedulers.prepare", "sim.engine"} <= set(report["spans"])
