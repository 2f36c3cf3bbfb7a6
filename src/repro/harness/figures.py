"""Experiment definitions for the paper's Figure 6 panels.

Each panel is a utilization sweep of the three approaches under one fault
scenario:

* 6(a) no faults;
* 6(b) one permanent fault per run (uniform instant, random processor);
* 6(c) a permanent fault plus Poisson transient faults (λ = 1e-6 / ms).

Panels share the generated task sets when run through
:func:`figure6_series`, matching the paper's presentation.

Every scale, setup and run knob comes from one
:class:`~repro.harness.protocol.ExperimentProtocol` (default: the
*documented* protocol, ``sets_per_bin=15, horizon_cap_units=1500`` --
the scale every EXPERIMENTS.md series was measured at); a panel call
adds only the scheme list, an optional pre-generated corpus and the
execution knobs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..faults.scenario import FaultScenario
from ..faults.transient import PAPER_FAULT_RATE
from ..workload.generator import generate_binned_tasksets
from .protocol import DEFAULT_BINS, ExperimentProtocol
from .runner import PAPER_SCHEMES
from .sweep import ScenarioFactory, SweepResult, utilization_sweep

__all__ = [
    "DEFAULT_BINS",
    "FIGURE_SCENARIOS",
    "fig6a",
    "fig6b",
    "fig6c",
    "figure6_series",
    "panel_scenario_factory",
]


def _scenario_permanent(seed_base: int) -> ScenarioFactory:
    def factory(index: int) -> FaultScenario:
        return FaultScenario.permanent_only(seed=seed_base + index)

    return factory


def _scenario_permanent_transient(seed_base: int) -> ScenarioFactory:
    def factory(index: int) -> FaultScenario:
        return FaultScenario.permanent_and_transient(
            seed=seed_base + index, rate=PAPER_FAULT_RATE
        )

    return factory


FIGURE_SCENARIOS: Dict[str, str] = {
    "fig6a": "no fault",
    "fig6b": "permanent fault",
    "fig6c": "permanent and transient faults",
}


def panel_scenario_factory(
    panel: str, protocol: Optional[ExperimentProtocol] = None
) -> Optional[ScenarioFactory]:
    """The fault-scenario factory a panel uses (None for fig6a)."""
    proto = protocol or ExperimentProtocol.documented()
    if panel == "fig6a":
        return None
    if panel == "fig6b":
        return _scenario_permanent(proto.scenario_seed_base(panel))
    if panel == "fig6c":
        return _scenario_permanent_transient(proto.scenario_seed_base(panel))
    raise KeyError(f"unknown panel {panel!r}; known: {sorted(FIGURE_SCENARIOS)}")


def fig6a(
    protocol: Optional[ExperimentProtocol] = None, **kwargs
) -> SweepResult:
    """Figure 6(a): energy comparison with no faults."""
    return _run_panel("fig6a", protocol, **kwargs)


def fig6b(
    protocol: Optional[ExperimentProtocol] = None, **kwargs
) -> SweepResult:
    """Figure 6(b): energy comparison under one permanent fault."""
    return _run_panel("fig6b", protocol, **kwargs)


def fig6c(
    protocol: Optional[ExperimentProtocol] = None, **kwargs
) -> SweepResult:
    """Figure 6(c): energy under permanent + transient faults."""
    return _run_panel("fig6c", protocol, **kwargs)


def _run_panel(
    panel: str,
    protocol: Optional[ExperimentProtocol],
    schemes: Sequence[str] = PAPER_SCHEMES,
    tasksets_by_bin=None,
    reference_scheme: str = "MKSS_ST",
    workers: int = 1,
    backend: str = "pool",
    journal_path: Optional[str] = None,
    resume: bool = False,
    force_new: bool = False,
    job_timeout: Optional[float] = None,
    events=None,
    validate: int = 0,
    generation_store=None,
) -> SweepResult:
    proto = protocol or ExperimentProtocol.documented()
    return utilization_sweep(
        bins=list(proto.bins),
        schemes=schemes,
        reference_scheme=reference_scheme,
        scenario_factory=panel_scenario_factory(panel, proto),
        sets_per_bin=proto.sets_per_bin,
        generator_config=proto.generator,
        seed=proto.seed,
        run=proto.run_spec(),
        tasksets_by_bin=tasksets_by_bin,
        workers=workers,
        backend=backend,
        journal_path=journal_path,
        resume=resume,
        force_new=force_new,
        job_timeout=job_timeout,
        events=events,
        validate=validate,
        generation_store=generation_store,
    )


def figure6_series(
    protocol: Optional[ExperimentProtocol] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    generation_store=None,
) -> Dict[str, SweepResult]:
    """All three panels over one shared pool of task sets.

    ``generation_store`` memoizes the shared corpus across processes:
    a :class:`~repro.harness.genstore.GenerationStore` (or root path)
    consulted before generating and populated after.
    """
    proto = protocol or ExperimentProtocol.documented()
    spec = (list(proto.bins), proto.sets_per_bin, proto.generator, proto.seed)
    if generation_store is not None:
        from .genstore import GenerationStore, generation_digest

        store = (
            GenerationStore(generation_store)
            if isinstance(generation_store, str)
            else generation_store
        )
        digest = generation_digest(*spec)
        tasksets = store.get(digest)
        if tasksets is None:
            tasksets = generate_binned_tasksets(*spec)
            store.put(digest, tasksets)
    else:
        tasksets = generate_binned_tasksets(*spec)
    return {
        panel: _run_panel(panel, proto, schemes, tasksets)
        for panel in FIGURE_SCENARIOS
    }
