"""Dynamic power down decisions (Algorithm 1, lines 10-15).

When a processor has no pending job, the scheduler computes the gap to the
earliest upcoming mandatory arrival; if the gap exceeds the break-even time
T_be it shuts the processor down and arms a wake-up timer.  Energy-wise the
decision is a pure function of the gap length, which is what
:func:`shutdown_decision` captures.  Because that function is monotone in
the gap, on a fixed tick grid it collapses to one integer threshold,
:func:`sleep_threshold_ticks` -- what the energy accounting applies to
every gap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .power import PowerModel


def shutdown_decision(gap_units: Fraction, model: PowerModel) -> bool:
    """Whether DPD shuts down for an idle gap of the given length.

    Shutting down is chosen when the gap is strictly longer than the
    break-even time *and* actually saves energy under the model::

        sleep_power * gap + transition_energy < idle_power * gap

    With the paper's defaults (sleep = transition = 0) this reduces to the
    paper's plain ``gap > T_be`` rule.  The zero-power tie-break (idle and
    sleep both free) only applies when the transition itself is also free:
    with ``transition_energy > 0`` sleeping is a strict net loss and the
    processor stays idle.

    The comparison is carried out in exact :class:`~fractions.Fraction`
    arithmetic (floats convert to Fractions losslessly): converting the
    gap to float instead would round huge or very fine-grained gaps and
    could flip the decision near the cost crossover -- and overflow
    outright for gaps beyond float range.

    This is the reference statement of the rule: the conformance auditor
    applies it gap by gap, checking :func:`sleep_threshold_ticks`.
    """
    if gap_units <= model.break_even:
        return False
    sleep_cost = (
        Fraction(model.sleep_power) * gap_units
        + Fraction(model.transition_energy)
    )
    idle_cost = Fraction(model.idle_power) * gap_units
    return sleep_cost < idle_cost or (
        model.transition_energy == 0.0
        and model.idle_power == model.sleep_power == 0.0
    )


@lru_cache(maxsize=128)
def sleep_threshold_ticks(
    model: PowerModel, ticks_per_unit: int
) -> Optional[int]:
    """The longest idle gap, in ticks, that DPD keeps idle.

    A gap of ``t`` ticks sleeps exactly when ``t`` exceeds the returned
    bound; None means no gap ever sleeps.  With ``q`` ticks per unit and
    idle power, sleep power and transition energy ``P_i``, ``P_s``,
    ``E_tr`` (non-negative, as :class:`PowerModel` enforces),
    :func:`shutdown_decision` on ``t / q`` units holds iff

    * ``P_i > P_s``: ``t > max(floor(T_be*q), floor(E_tr*q / (P_i-P_s)))``
      -- the break-even rule and the strict cost crossover, each a
      strict bound on an integer, so flooring is exact;
    * ``E_tr = P_i = P_s = 0``: ``t > floor(T_be*q)`` (the tie-break);
    * otherwise never: sleeping costs at least as much as idling.

    Computed once per (model, grid) in exact Fractions.
    """
    break_even = (model.break_even * ticks_per_unit).__floor__()
    idle = Fraction(model.idle_power)
    sleep = Fraction(model.sleep_power)
    if idle > sleep:
        crossover = Fraction(model.transition_energy) * ticks_per_unit / (
            idle - sleep
        )
        return max(break_even, crossover.__floor__())
    if model.transition_energy == 0.0 and idle == sleep == 0:
        return break_even
    return None
