"""The Figure 6 experiment protocol as one explicit config object.

Section V of the paper states the evaluation protocol in prose (5-10
tasks, periods in [5, 50] ms, k in [2, 20], 0 < m < k, >= 20 schedulable
sets per 0.1-wide (m,k)-utilization bin, T_be = 1 ms, lambda = 1e-6 / ms
transients).  Historically this repository encoded the *scale* knobs of
that protocol in three diverging places:

* ``harness/figures.py`` defaulted to ``sets_per_bin=20,
  horizon_cap_units=2000``,
* ``benchmarks/conftest.py`` defaulted to 5 / 1000 (env-overridable),
* EXPERIMENTS.md documented its measured series at 15 / 1500.

:class:`ExperimentProtocol` is the single source of truth that replaced
that drift.  Two named scales exist:

* :meth:`ExperimentProtocol.documented` -- the scale every number in
  EXPERIMENTS.md was measured at (``sets_per_bin=15``,
  ``horizon_cap_units=1500``, seed 20200309).  Figures and the triage
  harness default to it.
* :meth:`ExperimentProtocol.smoke` -- the quick scale (5 / 1000) used
  by default benchmark runs and the ``repro-mk sweep`` CLI defaults.

Both honor the same environment overrides (``REPRO_BENCH_SETS``,
``REPRO_BENCH_HORIZON``) via :meth:`with_env_overrides`, so a
full-fidelity run is one environment change away everywhere.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from ..energy.dvfs import DVFSConfig
from ..energy.power import PowerModel
from ..errors import ConfigurationError
from ..timebase import as_fraction
from ..workload.generator import GeneratorConfig
from ..workload.release import ReleaseModel
from .runner import RunSpec

#: The paper's x-axis: 0.1-wide (m,k)-utilization bins over (0, 1].
DEFAULT_BINS: Tuple[Tuple[float, float], ...] = tuple(
    (round(lo / 10, 1), round((lo + 1) / 10, 1)) for lo in range(1, 10)
)

#: Environment variables overriding the protocol scale (shared by the
#: benchmarks, the figures, and the triage harness).
ENV_SETS = "REPRO_BENCH_SETS"
ENV_HORIZON = "REPRO_BENCH_HORIZON"

#: The paper's headline "up to" claims per panel (max energy reduction of
#: MKSS_Selective vs MKSS_DP), read off Figure 6's text: ~28% with no
#: faults, ~22% under one permanent fault, ~16% adding transients.
PAPER_TARGETS: Dict[str, float] = {
    "fig6a": 0.28,
    "fig6b": 0.22,
    "fig6c": 0.16,
}


@dataclass(frozen=True)
class ExperimentProtocol:
    """Every scale/setup knob of one Figure 6 campaign.

    Attributes:
        sets_per_bin: schedulable task sets per 0.1 utilization bin.
        horizon_cap_units: simulation horizon cap in model time units
            (the actual horizon is ``min((m,k)-hyperperiod, cap)``).
        seed: workload generator seed.
        bins: (lo, hi) (m,k)-utilization intervals.
        generator: workload generator knobs; None = paper defaults
            (:class:`~repro.workload.generator.GeneratorConfig`).
        break_even_units: DPD break-even time T_be in model units
            (paper: 1 ms).
        permanent_seed_base: fault-draw seed base for Figure 6(b).
        transient_seed_base: fault-draw seed base for Figure 6(c).
        release_model, initial_history, dvfs: the model knobs of
            :class:`~repro.harness.runner.RunSpec` (periodic releases,
            the all-met history and fixed-frequency processors by
            default), validated and normalized there.
    """

    sets_per_bin: int = 15
    horizon_cap_units: int = 1500
    seed: int = 20200309
    bins: Tuple[Tuple[float, float], ...] = DEFAULT_BINS
    generator: Optional[GeneratorConfig] = None
    break_even_units: Fraction = Fraction(1)
    permanent_seed_base: int = 1_000_000
    transient_seed_base: int = 2_000_000
    release_model: Optional[ReleaseModel] = None
    initial_history: str = "met"
    dvfs: Optional[DVFSConfig] = None

    def __post_init__(self) -> None:
        if self.sets_per_bin < 1:
            raise ConfigurationError(
                f"sets_per_bin must be >= 1, got {self.sets_per_bin}"
            )
        object.__setattr__(
            self, "bins", tuple(tuple(b) for b in self.bins)
        )
        object.__setattr__(
            self, "break_even_units", as_fraction(self.break_even_units)
        )
        if self.break_even_units < 0:
            raise ConfigurationError("break_even_units must be >= 0")
        run = self.run_spec()
        object.__setattr__(self, "release_model", run.release_model)
        object.__setattr__(self, "dvfs", run.dvfs)

    @classmethod
    def documented(cls, **overrides: Any) -> "ExperimentProtocol":
        """The scale EXPERIMENTS.md's measured series were produced at."""
        return cls(**overrides)

    @classmethod
    def smoke(cls, **overrides: Any) -> "ExperimentProtocol":
        """The quick scale of default bench runs and CLI sweeps."""
        overrides.setdefault("sets_per_bin", 5)
        overrides.setdefault("horizon_cap_units", 1000)
        return cls(**overrides)

    def with_env_overrides(
        self, environ: Optional[Dict[str, str]] = None
    ) -> "ExperimentProtocol":
        """Apply ``REPRO_BENCH_SETS`` / ``REPRO_BENCH_HORIZON``, if set."""
        env = os.environ if environ is None else environ
        changes: Dict[str, Any] = {}
        if env.get(ENV_SETS):
            changes["sets_per_bin"] = int(env[ENV_SETS])
        if env.get(ENV_HORIZON):
            changes["horizon_cap_units"] = int(env[ENV_HORIZON])
        return self.replace(**changes) if changes else self

    def replace(self, **changes: Any) -> "ExperimentProtocol":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def power_model(self) -> PowerModel:
        """The protocol's energy model (paper defaults, T_be knob)."""
        return PowerModel.paper_default(break_even=self.break_even_units)

    def run_spec(self) -> RunSpec:
        """The run knobs every job of this protocol's panels shares."""
        return RunSpec(
            horizon_cap_units=self.horizon_cap_units,
            power_model=self.power_model(),
            release_model=self.release_model,
            initial_history=self.initial_history,
            dvfs=self.dvfs,
        )

    def scenario_seed_base(self, panel: str) -> int:
        """Fault-draw seed base for ``fig6b`` / ``fig6c``."""
        if panel == "fig6b":
            return self.permanent_seed_base
        if panel == "fig6c":
            return self.transient_seed_base
        raise ConfigurationError(f"panel {panel!r} draws no faults")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able description, for reports and fingerprints."""
        payload: Dict[str, Any] = {
            "sets_per_bin": self.sets_per_bin,
            "horizon_cap_units": self.horizon_cap_units,
            "seed": self.seed,
            "bins": [[float(lo), float(hi)] for lo, hi in self.bins],
            "generator": (
                None
                if self.generator is None
                else {
                    f.name: repr(getattr(self.generator, f.name))
                    for f in dataclasses.fields(self.generator)
                }
            ),
            "break_even_units": str(self.break_even_units),
            "permanent_seed_base": self.permanent_seed_base,
            "transient_seed_base": self.transient_seed_base,
        }
        payload.update(self.run_spec().key())
        return payload


def documented_protocol() -> ExperimentProtocol:
    """The documented scale with environment overrides applied."""
    return ExperimentProtocol.documented().with_env_overrides()


def smoke_protocol() -> ExperimentProtocol:
    """The smoke scale with environment overrides applied."""
    return ExperimentProtocol.smoke().with_env_overrides()


__all__ = [
    "DEFAULT_BINS",
    "ENV_HORIZON",
    "ENV_SETS",
    "PAPER_TARGETS",
    "ExperimentProtocol",
    "documented_protocol",
    "smoke_protocol",
]
