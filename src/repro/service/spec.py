"""The service's sweep-spec wire format.

A :class:`SweepSpec` is the canonical description of one sweep request:
which Figure-6 fault panel, which bins/schemes/seed/horizon, which
execution knobs.  Validation happens here, once, at the edge -- every
later layer (queue, worker, store) trusts the spec.

Identity: :meth:`SweepSpec.identity` extends the journal fingerprint
(:func:`repro.harness.sweep._sweep_fingerprint`) with the fault regime,
because fault draws are deliberately *not* part of the journal
fingerprint (they are rebuilt deterministically by the scenario factory)
yet absolutely change the result a client gets back.  Two specs with
equal :meth:`digest` are served the same stored result; execution-mode
knobs (backend, validate=0) are excluded from the identity exactly
like the journal fingerprint excludes them -- the engine guarantees
identical payloads in every mode, so a result computed
on the batch backend is a legitimate cache hit for a pool-backend
submission.  A nonzero ``validate`` *is* part of the identity: it adds
``validation_issues`` to the served document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..energy.dvfs import DVFSConfig
from ..errors import ConfigurationError
from ..harness.protocol import DEFAULT_BINS, ExperimentProtocol
from ..harness.runner import PAPER_SCHEMES, SCHEME_FACTORIES
from ..harness.sweep import _sweep_fingerprint, check_backend
from ..workload.release import ReleaseModel

#: Fault regimes, mapping onto the Figure 6 panels.
FAULT_REGIMES = ("none", "permanent", "transient")

#: Smallest upper-bound width (bins x sets_per_bin x schemes) at which a
#: spec that omits ``backend`` runs on the batch kernel instead of the
#: pool: below it, the kernel's per-iteration array overhead outweighs
#: what lockstep saves (docs/performance.md, "The batch kernel").
BATCH_MIN_WIDTH = 30


def _default_scale() -> ExperimentProtocol:
    return ExperimentProtocol.smoke()


def _integer(key: str, value: Any) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{key} must be a JSON integer, got {value!r}"
        )
    return value


def _number(key: str, value: Any) -> float:
    """A JSON number as a float; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{key} must be a JSON number, got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep request.

    Scale defaults follow the smoke protocol (the ``repro-mk sweep``
    CLI's defaults), so a bare ``{"faults": "none"}`` submission is a
    quick, well-defined sweep.  An omitted ``backend`` resolves to
    ``batch`` when numpy imports and the sweep is at least
    :data:`BATCH_MIN_WIDTH` simulations wide, else to ``pool``.
    """

    faults: str = "none"
    bins: Tuple[Tuple[float, float], ...] = tuple(DEFAULT_BINS)
    schemes: Tuple[str, ...] = tuple(PAPER_SCHEMES)
    reference_scheme: str = "MKSS_ST"
    sets_per_bin: int = field(default_factory=lambda: _default_scale().sets_per_bin)
    seed: int = field(default_factory=lambda: _default_scale().seed)
    horizon_cap_units: int = field(
        default_factory=lambda: _default_scale().horizon_cap_units
    )
    backend: Optional[str] = None
    validate: int = 0
    release_model: Optional[ReleaseModel] = None
    initial_history: str = "met"
    dvfs: Optional[DVFSConfig] = None

    def __post_init__(self) -> None:
        # The protocol validates the scale and the run knobs, and
        # normalizes an explicit default model to None so the submission
        # digests identically to one that omits it.
        protocol = self.protocol()
        object.__setattr__(self, "release_model", protocol.release_model)
        object.__setattr__(self, "dvfs", protocol.dvfs)
        if self.faults not in FAULT_REGIMES:
            raise ConfigurationError(
                f"unknown faults regime {self.faults!r}; "
                f"choose from {FAULT_REGIMES}"
            )
        unknown = sorted(set(self.schemes) - set(SCHEME_FACTORIES))
        if unknown:
            raise ConfigurationError(
                f"unknown scheme(s) {unknown}; known: "
                f"{sorted(SCHEME_FACTORIES)}"
            )
        if self.reference_scheme not in self.schemes:
            raise ConfigurationError(
                f"reference scheme {self.reference_scheme!r} must be in "
                f"{list(self.schemes)}"
            )
        for lo, hi in self.bins:
            if not lo < hi:
                raise ConfigurationError(f"bad bin [{lo}, {hi}): need lo < hi")
        if self.backend is None:
            object.__setattr__(self, "backend", self._default_backend())
        check_backend(self.backend)
        if self.validate < 0:
            raise ConfigurationError(
                f"validate must be >= 0, got {self.validate}"
            )

    def protocol(self) -> ExperimentProtocol:
        """The Figure 6 protocol this spec runs: its scale and run knobs
        on the default generator, power model and fault-seed bases."""
        return ExperimentProtocol(
            sets_per_bin=self.sets_per_bin,
            horizon_cap_units=self.horizon_cap_units,
            seed=self.seed,
            bins=self.bins,
            release_model=self.release_model,
            initial_history=self.initial_history,
            dvfs=self.dvfs,
        )

    def _default_backend(self) -> str:
        # Imported here, not at module load, so the server starts
        # without compiling the batch front.  The probe finds numpy's
        # installed version without importing it: the import (and the
        # kernel's compilation) happens on the executor thread that
        # runs the batch, not on the event loop resolving this spec.
        from ..sim.batch import numpy_available

        width = len(self.bins) * self.sets_per_bin * len(self.schemes)
        if numpy_available() and width >= BATCH_MIN_WIDTH:
            return "batch"
        return "pool"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Build a spec from a submitted JSON document, strictly.

        Unknown keys are rejected -- a typoed knob silently falling back
        to its default would hand the client a sweep it did not ask for
        (and a cache key it did not expect).  For the same reason the
        integer fields must be JSON integers and bin edges JSON numbers:
        coercing ``2.7`` to 2 or ``"12"`` to 12 would serve the client
        another spec's result under a digest it did not ask for.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep-spec key(s) {unknown}; known: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        try:
            if "faults" in payload:
                kwargs["faults"] = str(payload["faults"])
            if "bins" in payload:
                kwargs["bins"] = tuple(
                    (_number("bin edge", lo), _number("bin edge", hi))
                    for lo, hi in payload["bins"]
                )
            if "schemes" in payload:
                kwargs["schemes"] = tuple(str(s) for s in payload["schemes"])
            if "reference_scheme" in payload:
                kwargs["reference_scheme"] = str(payload["reference_scheme"])
            for key in ("sets_per_bin", "seed", "horizon_cap_units", "validate"):
                if key in payload:
                    kwargs[key] = _integer(key, payload[key])
            if "backend" in payload:
                kwargs["backend"] = str(payload["backend"])
            if "release_model" in payload:
                # A preset name, a {"kind": ...} document, or null; the
                # RunSpec built in __post_init__ validates it.
                kwargs["release_model"] = payload["release_model"]
            if "initial_history" in payload:
                kwargs["initial_history"] = str(payload["initial_history"])
            if "dvfs" in payload:
                # A {"alpha": ...} document or null, validated the same
                # way.
                kwargs["dvfs"] = payload["dvfs"]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep spec: {exc}") from exc
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-able document (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "faults": self.faults,
            "bins": [[lo, hi] for lo, hi in self.bins],
            "schemes": list(self.schemes),
            "reference_scheme": self.reference_scheme,
            "sets_per_bin": self.sets_per_bin,
            "seed": self.seed,
            "horizon_cap_units": self.horizon_cap_units,
            "backend": self.backend,
            "validate": self.validate,
        }
        payload.update(self.protocol().run_spec().key())
        return payload

    def journal_fingerprint(self) -> Dict[str, Any]:
        """The fingerprint the job's :class:`RunJournal` header carries."""
        return _sweep_fingerprint(
            list(self.bins),
            list(self.schemes),
            self.sets_per_bin,
            self.reference_scheme,
            None,  # generator config: service sweeps use the defaults
            self.seed,
            None,  # workload is always generated server-side
            self.protocol().run_spec(),
        )

    def identity(self) -> Dict[str, Any]:
        """The result-cache identity (journal fingerprint + fault regime)."""
        identity = dict(self.journal_fingerprint())
        identity["faults"] = self.faults
        if self.validate:
            identity["validate"] = self.validate
        return identity

    def digest(self) -> str:
        """Stable hex key for the store, the journal path, and the job id."""
        blob = json.dumps(self.identity(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:24]

    def run(
        self,
        *,
        workers: int = 1,
        journal_path: Optional[str] = None,
        resume: bool = False,
        force_new: bool = False,
        events=None,
        generation_store=None,
    ):
        """Execute this spec exactly as the CLI would run the panel.

        Thin wrapper over the Figure-6 panel functions so a service job,
        a CLI sweep, and a test's direct reference run share one code
        path -- the byte-identity guarantees hang off that.

        ``generation_store`` is an execution knob (a shared task-set
        cache); it never enters the spec identity or the results.
        """
        from ..harness.figures import fig6a, fig6b, fig6c

        panel = {"none": fig6a, "permanent": fig6b, "transient": fig6c}[
            self.faults
        ]
        return panel(
            protocol=self.protocol(),
            schemes=list(self.schemes),
            reference_scheme=self.reference_scheme,
            workers=workers,
            backend=self.backend,
            journal_path=journal_path,
            resume=resume,
            force_new=force_new,
            events=events,
            validate=self.validate,
            generation_store=generation_store,
        )
