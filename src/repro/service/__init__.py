"""Sweep-as-a-service: a long-running scheduling-analysis server.

The harness already contains every ingredient of a service -- a
fingerprint-keyed offline-analysis cache, a JSONL journal with
checkpoint/resume, structured run/job events, and the fault-isolated
:func:`~repro.harness.sweep.utilization_sweep` with its pool, batch and
serial backends -- but historically it only ran as a one-shot CLI.  This
package turns those seams into long-lived server state:

* :mod:`repro.service.spec` -- the sweep-spec wire format: a validated,
  canonicalized description of one Figure-6-style sweep whose
  fingerprint digest keys everything else;
* :mod:`repro.service.store` -- the persistent result store: one
  canonical JSON document per digest, so repeat submissions are cache
  hits that execute zero jobs;
* :mod:`repro.service.jobs` -- the bounded multi-tenant job queue and
  worker loop; each job checkpoints into its own
  :class:`~repro.harness.journal.RunJournal`, which doubles as the
  durable queue (a killed server resumes in-flight sweeps on restart,
  with byte-identical final results);
* :mod:`repro.service.http` -- a framework-free asyncio HTTP/1.1 layer
  (requests, responses, SSE / NDJSON streaming);
* :mod:`repro.service.app` -- the routes and the ``repro-mk serve``
  entry point.

Everything is stdlib-only; ``pip install repro[service]`` exists purely
as the installation marker mirroring ``repro[batch]``.
"""

from __future__ import annotations

from .app import ServiceApp, serve
from .config import ServiceConfig
from .spec import SweepSpec
from .store import ResultStore, canonical_result_bytes

__all__ = [
    "ResultStore",
    "ServiceApp",
    "ServiceConfig",
    "SweepSpec",
    "canonical_result_bytes",
    "serve",
]
