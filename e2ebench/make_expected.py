"""Recompute expected.json: sha256 of every reference-seed result document
(one per seed derived from the reference seed, for each workload).

    PYTHONPATH=src python3 e2ebench/make_expected.py

``fig6b-batch``'s digest is computed on the pool backend, so the
benchmark's batch runs are also checked against the scalar engine; the
service panels are computed by ``SweepSpec.run`` directly, without HTTP.
"""

import json
import os
import sys
import tempfile

from repro.service.spec import SweepSpec
from repro.service.store import canonical_result_bytes

from checks import check_document, sha256
from common import (
    HERE,
    MAX_SERVE_SEEDS,
    MAX_UNITS,
    REFERENCE_SEED,
    SERVE_FAULTS,
    derived_seed,
    serve_spec,
)
from sweepchild import run_panel


def digest(sweep, allow_violations: bool = False) -> str:
    payload = canonical_result_bytes(sweep)
    problems = check_document(payload, allow_violations=allow_violations)
    if problems:
        raise SystemExit(f"reference document fails its checks: {problems[:5]}")
    return sha256(payload)


def main() -> int:
    seeds = [derived_seed(REFERENCE_SEED, index) for index in range(MAX_UNITS)]
    expected = {"fig6c-scalar": {}, "fig6b-batch": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            expected["fig6c-scalar"][str(seed)] = digest(
                run_panel("fig6c-scalar", seed, os.path.join(tmp, f"c{seed}.jsonl")),
                allow_violations=seed != REFERENCE_SEED,
            )
            expected["fig6b-batch"][str(seed)] = digest(
                run_panel("fig6b-batch", seed, os.path.join(tmp, f"b{seed}.jsonl"),
                          backend="pool")
            )
    expected["serve"] = {
        f"{seed}/{faults}": digest(
            SweepSpec.from_dict(serve_spec(seed, faults)).run(),
            allow_violations=faults == "transient" and seed != REFERENCE_SEED,
        )
        for seed in seeds[:MAX_SERVE_SEEDS]
        for faults in SERVE_FAULTS
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
