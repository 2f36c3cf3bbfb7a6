"""Energy accounting over a run's counters.

Charges a run's :class:`~repro.sim.stats.RunStats` -- each processor's
busy ticks, idle-gap lengths and per-speed busy ticks inside its energy
window -- as an :class:`EnergyReport` under a
:class:`~repro.energy.power.PowerModel`.  Every
:class:`~repro.sim.engine.SimulationResult` carries those counters, so
only a window narrower than the simulated horizon reads a trace (through
the same derivation, :func:`~repro.sim.stats.trace_stats`):

* every busy tick costs ``active_power`` -- or, on a DVFS run (the
  result carries a :class:`~repro.energy.dvfs.SpeedPlan`), a tick
  executed at speed ``s`` costs ``s**alpha + static_power`` under the
  plan's DVS model;
* idle gaps are classified by the DPD rule -- gaps longer than the
  break-even time sleep (``sleep_power`` + one ``transition_energy``),
  shorter gaps idle at ``idle_power``.  The rule is applied as one
  integer compare per gap length against
  :func:`~repro.energy.dpd.sleep_threshold_ticks`, and idle and sleep
  time are summed in ticks and converted to units once per total;
* a processor killed by a permanent fault consumes nothing after death
  (its accounting window is truncated at the fault instant).

Active energy is exact (a :class:`~fractions.Fraction`) because it is pure
busy time times a power of 1 by default -- this is the metric the paper's
motivating examples quote (15, 12, 20, 14 units).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ..sim.stats import trace_stats
from ..sim.trace import ExecutionTrace
from ..timebase import TimeBase, TimeLike
from .dpd import sleep_threshold_ticks
from .dvs import DVSModel
from .power import PowerModel


@dataclass(frozen=True)
class ProcessorEnergy:
    """Energy breakdown for one processor.

    ``speed_units`` is the DVFS-scaled part of ``busy_units``: a sorted
    ``((speed, units), ...)`` tuple covering every speed != 1 (empty on
    every non-DVFS run, keeping pre-DVFS reports identical).
    """

    busy_units: Fraction
    idle_units: Fraction
    sleep_units: Fraction
    active_energy: float
    idle_energy: float
    sleep_energy: float
    transition_count: int
    speed_units: Tuple[Tuple[object, Fraction], ...] = ()

    @property
    def total(self) -> float:
        return self.active_energy + self.idle_energy + self.sleep_energy


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one simulation run over [0, horizon).

    ``dvs`` is the DVS power model charging executed units on a DVFS
    run (``s**alpha + static`` per unit at speed ``s``); None (every
    non-DVFS run) charges the flat ``model.active_power``.
    """

    per_processor: Dict[int, ProcessorEnergy]
    model: PowerModel
    dvs: Optional[DVSModel] = None

    @property
    def active_units(self) -> Fraction:
        """Total busy time in model units (exact); the paper's
        'active energy' with P_act normalized to 1."""
        return sum(
            (p.busy_units for p in self.per_processor.values()), Fraction(0)
        )

    @property
    def active_energy(self) -> float:
        return sum(p.active_energy for p in self.per_processor.values())

    @property
    def total_energy(self) -> float:
        return sum(p.total for p in self.per_processor.values())

    def normalized_to(self, reference: "EnergyReport") -> float:
        """This run's total energy relative to a reference run's."""
        reference_total = reference.total_energy
        if reference_total == 0:
            return 0.0 if self.total_energy == 0 else float("inf")
        return self.total_energy / reference_total


def active_energy_of(
    busy_units: Fraction,
    speed_units: Tuple[Tuple[object, Fraction], ...],
    power: PowerModel,
    dvs: Optional[DVSModel],
) -> float:
    """Active energy of ``busy_units`` of execution, speed-aware.

    Without a DVS model every unit costs the flat ``active_power``
    (bit-identical to the pre-DVFS accounting).  With one, a unit
    executed at speed ``s`` costs ``s**alpha + static_power`` --
    including the full-speed units, whose power is ``1 + static`` (the
    leakage floor is paid whenever the processor computes; this is
    deliberately *conservative against DVS*, since the flat model's
    P_act = 1 omits it).  The summation order is fixed (full-speed term
    first, then speeds ascending) so an independent re-derivation over
    the same decomposition reproduces the float exactly.
    """
    if dvs is None:
        return float(busy_units) * power.active_power
    scaled = sum((units for _, units in speed_units), Fraction(0))
    energy = float(busy_units - scaled) * (1.0 + dvs.static_power)
    for speed, units in speed_units:
        energy += float(units) * (float(speed) ** dvs.alpha + dvs.static_power)
    return energy


def energy_of(
    trace: ExecutionTrace,
    timebase: TimeBase,
    horizon_ticks: int,
    model: Optional[PowerModel] = None,
    permanent_fault: Optional[Tuple[int, int]] = None,
    dvs_model: Optional[DVSModel] = None,
) -> EnergyReport:
    """Account a trace's energy over [0, horizon) under a power model.

    The trace's counters (:func:`~repro.sim.stats.trace_stats`) are
    charged exactly as :func:`energy_from_counts` charges a run's.

    Args:
        trace: the simulation trace.
        timebase: tick grid used by the trace.
        horizon_ticks: accounting window end (ticks).
        model: power model; defaults to the paper's evaluation setting.
        permanent_fault: optional (processor, tick) after which that
            processor consumes no energy.
        dvs_model: DVS power model of a DVFS run; each executed unit is
            then charged ``s**alpha + static`` at its segment's speed
            instead of the flat ``active_power``.
    """
    stats = trace_stats(trace, horizon_ticks, permanent_fault)
    return energy_from_counts(
        stats.busy,
        stats.gap_counts,
        timebase,
        model,
        speed_busy=stats.speed_busy,
        dvs_model=dvs_model,
    )


def energy_from_counts(
    busy_by_processor: "Sequence[int]",
    gap_counts: "Sequence[Dict[int, int]]",
    timebase: TimeBase,
    model: Optional[PowerModel] = None,
    speed_busy: "Optional[Sequence[dict]]" = None,
    dvs_model: Optional[DVSModel] = None,
) -> EnergyReport:
    """Account energy from a run's aggregate counters.

    ``busy_by_processor[p]`` is execution ticks inside the processor's
    accounting window and ``gap_counts[p]`` is the multiset of idle-gap
    lengths (ticks -> occurrences) inside the same window, as a
    :class:`~repro.sim.stats.RunStats` holds them (already truncated at
    the horizon and at a dead processor's fault instant).  The DPD rule
    only needs each gap's *length*, so the multiset carries everything a
    trace holds for it; the tick sums are exact and order-independent,
    so counters filled online and counters derived from a trace charge
    bit-identically.  On a DVFS run, ``speed_busy[p]`` (speed -> ticks,
    :attr:`~repro.sim.stats.RunStats.speed_busy`) carries the scaled
    part of the busy time the same way.
    """
    power = model or PowerModel.paper_default()
    bound = sleep_threshold_ticks(power, timebase.ticks_per_unit)
    per_processor: Dict[int, ProcessorEnergy] = {}
    for processor, (busy_ticks, counts) in enumerate(
        zip(busy_by_processor, gap_counts)
    ):
        busy_units = timebase.from_ticks(busy_ticks)
        speed_units: Tuple[Tuple[object, Fraction], ...] = ()
        if dvs_model is not None and speed_busy is not None:
            by_speed = speed_busy[processor]
            speed_units = tuple(
                (speed, timebase.from_ticks(by_speed[speed]))
                for speed in sorted(by_speed)
            )
        idle_ticks = sleep_ticks = transitions = 0
        for length, count in counts.items():
            if bound is not None and length > bound:
                sleep_ticks += length * count
                transitions += count
            else:
                idle_ticks += length * count
        idle_units = timebase.from_ticks(idle_ticks)
        sleep_units = timebase.from_ticks(sleep_ticks)
        per_processor[processor] = ProcessorEnergy(
            busy_units=busy_units,
            idle_units=idle_units,
            sleep_units=sleep_units,
            active_energy=active_energy_of(
                busy_units, speed_units, power, dvs_model
            ),
            idle_energy=float(idle_units) * power.idle_power,
            sleep_energy=float(sleep_units) * power.sleep_power
            + transitions * power.transition_energy,
            transition_count=transitions,
            speed_units=speed_units,
        )
    return EnergyReport(
        per_processor=per_processor, model=power, dvs=dvs_model
    )


def energy_of_result(
    result,
    model: Optional[PowerModel] = None,
    window_units: Optional[TimeLike] = None,
) -> EnergyReport:
    """Account a :class:`~repro.sim.engine.SimulationResult`'s energy.

    Charges the result's counters (:attr:`~repro.sim.engine.SimulationResult.stats`)
    through :func:`energy_from_counts`, whatever mode the run took.

    Args:
        result: the simulation result.
        model: power model (default: the paper's evaluation setting).
        window_units: explicit accounting window ``[0, t)`` in model
            time units.  ``None`` accounts the full simulated horizon.
            The paper's motivating examples quote energies over windows
            that differ from the simulated horizon (e.g. Figure 3's "20
            units before t = 25" is the ``[0, 24)`` reading -- see
            EXPERIMENTS.md note 1), so the window is a first-class
            parameter rather than an implicit horizon.  Requires a trace
            when narrower than the horizon (the counters cover the whole
            horizon and cannot be re-windowed).
    """
    plan = result.speed_plan
    dvs_model = plan.model if plan is not None else None
    if window_units is not None:
        window_ticks = result.timebase.to_ticks(window_units)
        if window_ticks > result.horizon_ticks:
            raise ValueError(
                f"accounting window [0, {window_units}) exceeds the "
                f"simulated horizon of {result.horizon_ticks} ticks"
            )
        if window_ticks < result.horizon_ticks:
            if result.trace is None:
                raise ValueError(
                    "a stats-only result cannot be re-windowed; re-run "
                    "with collect_trace=True to account a sub-horizon window"
                )
            return energy_of(
                result.trace,
                result.timebase,
                window_ticks,
                model=model,
                permanent_fault=result.permanent_fault,
                dvs_model=dvs_model,
            )
    stats = result.stats
    return energy_from_counts(
        stats.busy,
        stats.gap_counts,
        result.timebase,
        model=model,
        speed_busy=stats.speed_busy,
        dvs_model=dvs_model,
    )
