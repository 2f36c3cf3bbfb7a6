"""Self-test of the benchmark's output checks and failure counting.

    python3 e2ebench/selfcheck.py

Feeds the checker a genuine result document and doctored copies of it
(energy edited, violation added, pair dropped, auditor issue added), each
as on the reference seed (committed digest), a held-out seed, and a
held-out seed under transient faults, and forces one 429 from a real
server started with ``--per-tenant 1 --throttle-s``.  Every doctored case
must count exactly one failed operation and the genuine document none.
Exits 0 when all cases behave, 1 otherwise.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import common

sys.path.insert(0, common.SRC)

from checks import check_document, count_sims, sha256  # noqa: E402
from common import Tally  # noqa: E402
from serve import Client, Server  # noqa: E402

SPEC = {"faults": "transient", "bins": [[0.2, 0.3], [0.5, 0.6]],
        "sets_per_bin": 2, "horizon_cap_units": 200, "validate": 1}


def encode(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def genuine_document() -> bytes:
    from repro.service.spec import SweepSpec
    from repro.service.store import canonical_result_bytes

    return canonical_result_bytes(SweepSpec.from_dict(SPEC).run())


def rederive(doc) -> None:
    """Recompute every bin aggregate from the (edited) job payloads."""
    for bucket in doc["bins"]:
        label = "u{:g}-{:g}".format(*bucket["range"])
        rows = {}
        for key, value in doc["job_payloads"].items():
            bin_label, set_part, scheme = key.split("|")
            if bin_label == label:
                rows.setdefault(scheme, []).append((int(set_part[3:]), value))
        for scheme, values in rows.items():
            values.sort()
            energies = [energy for _, (energy, _) in values]
            bucket["mean_energy"][scheme] = sum(energies) / len(energies)
            bucket["mk_violation_count"][scheme] = sum(v for _, (_, v) in values)
        bucket["taskset_count"] = len(values)
        base = bucket["mean_energy"][doc["reference_scheme"]]
        for scheme in doc["schemes"]:
            bucket["normalized_energy"][scheme] = bucket["mean_energy"][scheme] / base


def doctored(doc):
    """(case name, doctored document) pairs."""
    first = sorted(doc["job_payloads"])[0]

    mean_edit = copy.deepcopy(doc)
    scheme = mean_edit["schemes"][1]
    mean_edit["bins"][0]["mean_energy"][scheme] += 1.0
    yield "energy edited (bin mean)", mean_edit

    payload_edit = copy.deepcopy(doc)
    payload_edit["job_payloads"][first][0] += 1.0
    rederive(payload_edit)
    yield "energy edited (payload, aggregates re-derived)", payload_edit

    violation = copy.deepcopy(doc)
    violation["job_payloads"][first][1] += 1
    rederive(violation)
    yield "violation added", violation

    dropped = copy.deepcopy(doc)
    prefix = first.rsplit("|", 1)[0] + "|"
    for key in [k for k in dropped["job_payloads"] if k.startswith(prefix)]:
        del dropped["job_payloads"][key]
    rederive(dropped)
    _, set_part = prefix.rstrip("|").split("|")
    dropped["dropped"].append({"range": dropped["bins"][0]["range"], "index": int(set_part[3:]),
                               "schemes": [scheme], "reason": "job timed out"})
    yield "pair dropped", dropped

    unbalanced = copy.deepcopy(doc)
    unbalanced["job_payloads"][first][1] += 1
    yield "violation added (bin count not re-derived)", unbalanced

    issue = copy.deepcopy(doc)
    issue["validation_issues"].append({"job": prefix.rstrip("|"), "scheme": scheme,
                                       "mode": "trace", "kind": "energy",
                                       "detail": "decomposition differs"})
    yield "auditor issue added", issue


def failures_of(payload: bytes, expected, allow_violations: bool) -> int:
    """Failed operations the benchmark counts for one result document."""
    tally = Tally()
    problems = check_document(payload, expected, allow_violations)
    tally.record(count_sims(payload), ok=not problems)
    return tally.failed


def forced_rejection(tmp: str) -> int:
    """Failed operations counted for a 429 from a real server."""
    env = common.child_env(tmp)
    server = Server(os.path.join(tmp, "data"), env,
                    extra=("--per-tenant", "1", "--throttle-s", "0.5"))
    try:
        tally = Tally()
        client = Client(server.port, tally)
        first = dict(SPEC, validate=0)
        status, _ = client.request("POST", "/v1/sweeps", first)
        if status != 201:
            return -1
        before = tally.failed
        status, _ = client.request("POST", "/v1/sweeps", dict(first, seed=1))
        return tally.failed - before if status == 429 and client.rejected == 1 else -1
    finally:
        server.stop()


def main() -> int:
    genuine = genuine_document()
    doc = json.loads(genuine)
    digest = sha256(genuine)
    cases = [("genuine document", genuine, 0)]
    cases += [(name, encode(bad), 1) for name, bad in doctored(doc)]
    ok = True
    modes = (
        ("reference seed", digest, False),
        ("held-out seed", None, False),
        ("held-out seed, transient faults", None, True),
    )
    for name, payload, want in cases:
        for mode, expected, allow in modes:
            got = failures_of(payload, expected, allow)
            # Without a reference digest, consistently re-derived edits of
            # a payload's energy are undetectable by construction, and so
            # are consistent violations where the regime allows them.
            consistent_edit = name.startswith("energy edited (payload") or (
                allow and name == "violation added"
            )
            want_here = 0 if expected is None and consistent_edit else want
            status = "ok" if got == want_here else "WRONG"
            ok &= got == want_here
            print(f"{status:5} {name} [{mode}]: {got} failed (want {want_here})")
    scratch = os.path.join(common.ROOT, ".e2ebench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        got = forced_rejection(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # a benchmark run is using it
    ok &= got == 1
    print(f"{'ok' if got == 1 else 'WRONG':5} forced 429 from a real server: {got} failed (want 1)")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
