"""Output checks on canonical sweep result documents.

A document is the exact bytes ``repro.service.store.canonical_result_bytes``
produces (what the service stores and serves).  :func:`check_document`
returns the list of problems found; the benchmark counts a document with
any problem as one failed operation.

Checks made on every seed:

* the bytes are canonical (sorted keys, two-space indent, final newline);
* 0 (m,k) violations, in the bins and in every job payload -- except under
  transient faults on a held-out seed, where a transient landing on the
  lone survivor of a permanent fault can legitimately cost a deadline
  (EXPERIMENTS.md: the documented seed's 0 is seed-dependent); there the
  counts must still re-derive from the payloads;
* 0 dropped (task set, scheme) pairs;
* every bin that has payloads is aggregated, over exactly those sets, for
  every scheme;
* each bin's mean and normalized energy and violation count re-derive
  exactly from the job payloads (so an edited energy cannot hide);
* 0 conformance-auditor findings.

On the reference seed the sha256 of the bytes must also equal the
committed digest in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _bin_label(lo: float, hi: float) -> str:
    return f"u{lo:g}-{hi:g}"


def check_document(
    payload: bytes,
    expected_digest: Optional[str] = None,
    allow_violations: bool = False,
) -> List[str]:
    """Every problem found in one result document (empty = genuine)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"not a JSON document: {exc}"]
    problems: List[str] = []
    if expected_digest is not None and sha256(payload) != expected_digest:
        problems.append(
            f"sha256 {sha256(payload)[:16]} differs from the committed "
            f"{expected_digest[:16]}"
        )
    canonical = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if canonical != payload:
        problems.append("bytes are not in canonical form")
    try:
        problems.extend(_check_content(doc, allow_violations))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed document: {exc!r}")
    return problems


def _check_content(doc: Dict[str, Any], allow_violations: bool) -> List[str]:
    problems: List[str] = []
    schemes = list(doc["schemes"])
    reference = doc["reference_scheme"]
    if doc["dropped"]:
        problems.append(f"{len(doc['dropped'])} dropped pair(s)")
    if doc["validation_issues"]:
        problems.append(f"{len(doc['validation_issues'])} auditor finding(s)")

    # Payload key: "u<lo>-<hi>|set<index>|<scheme>" -> (energy, violations).
    by_bin: Dict[str, Dict[int, Dict[str, List[Any]]]] = {}
    for key, (energy, violations) in doc["job_payloads"].items():
        label, set_part, scheme = key.split("|")
        by_bin.setdefault(label, {}).setdefault(int(set_part[3:]), {})[scheme] = [
            energy,
            violations,
        ]
        if violations and not allow_violations:
            problems.append(f"{key}: {violations} (m,k) violation(s)")

    seen = set()
    for bucket in doc["bins"]:
        label = _bin_label(*bucket["range"])
        seen.add(label)
        sets = by_bin.get(label, {})
        if bucket["taskset_count"] != len(sets) or not sets:
            problems.append(
                f"{label}: aggregates {bucket['taskset_count']} set(s), "
                f"payloads hold {len(sets)}"
            )
            continue
        for scheme in schemes:
            rows = [sets[index].get(scheme) for index in sorted(sets)]
            if any(row is None for row in rows):
                problems.append(f"{label}: {scheme} lacks a payload")
                continue
            energies = [row[0] for row in rows]
            if bucket["mean_energy"][scheme] != sum(energies) / len(energies):
                problems.append(f"{label}: {scheme} mean energy does not re-derive")
            count = bucket["mk_violation_count"][scheme]
            if count != sum(row[1] for row in rows):
                problems.append(f"{label}: {scheme} violation count does not re-derive")
            elif count and not allow_violations:
                problems.append(f"{label}: {scheme} has {count} (m,k) violation(s)")
        base = bucket["mean_energy"][reference]
        for scheme in schemes:
            expected = bucket["mean_energy"][scheme] / base if base else 0.0
            if bucket["normalized_energy"][scheme] != expected:
                problems.append(f"{label}: {scheme} normalized energy does not re-derive")
    for label in sorted(set(by_bin) - seen):
        problems.append(f"{label}: has payloads but no aggregated bin")
    return problems


def count_sims(payload: bytes) -> int:
    """Simulations a document aggregates (0 when it does not parse)."""
    try:
        return len(json.loads(payload.decode("utf-8"))["job_payloads"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return 0
