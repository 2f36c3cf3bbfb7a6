"""Exact rational time and its compilation to integer simulation ticks.

The paper's worked examples use non-integer times (a deadline of 2.5 ms in
Figure 3/4), and discrete-event simulation with floating point time is a
well-known source of Heisenbugs (events that compare almost-equal, energy
totals off by 1e-13, ...).  This module removes the problem at the root:

* the *model* layer stores every time quantity as :class:`fractions.Fraction`
  (converted losslessly from ``int``/``str``/``Fraction`` and safely from
  ``float`` via ``Fraction(value).limit_denominator``);
* before a simulation or analysis runs, a :class:`TimeBase` is derived from
  all the time quantities involved: its resolution is the least common
  multiple of their denominators, so every quantity becomes an exact
  ``int`` number of ticks.

All hot-path arithmetic is then plain integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import TimeBaseError

#: Types accepted wherever the public API takes a time quantity.
TimeLike = Union[int, float, str, Fraction]

#: Maximum denominator used when interpreting a float as an exact rational.
#: 10**6 comfortably covers times written with up to six decimal digits
#: (the paper uses at most one) while rejecting float noise.
_FLOAT_DENOMINATOR_LIMIT = 10**6


def as_fraction(value: TimeLike) -> Fraction:
    """Convert a time-like value to an exact :class:`Fraction`.

    ``int``, ``str`` (e.g. ``"5/2"``) and ``Fraction`` convert losslessly.
    ``float`` values are snapped to the nearest rational with denominator
    at most 10**6, which recovers the intended decimal (``2.5`` ->
    ``5/2``) rather than the exact binary expansion.

    Raises:
        TimeBaseError: if the value is not finite or not a supported type.
    """
    if isinstance(value, bool):
        raise TimeBaseError(f"booleans are not valid times: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise TimeBaseError(f"cannot parse time string {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TimeBaseError(f"time must be finite, got {value!r}")
        return Fraction(value).limit_denominator(_FLOAT_DENOMINATOR_LIMIT)
    raise TimeBaseError(f"unsupported time type: {type(value).__name__}")


class TimeBase:
    """Maps exact rational times onto an integer tick grid.

    A ``TimeBase`` with ``ticks_per_unit = q`` represents the rational time
    ``t`` as the integer ``t * q``; construction via :meth:`for_values`
    guarantees the representation is exact for every value supplied.

    Attributes:
        ticks_per_unit: number of ticks per model time unit (e.g. per ms).
    """

    __slots__ = ("ticks_per_unit",)

    def __init__(self, ticks_per_unit: int = 1) -> None:
        if not isinstance(ticks_per_unit, int) or ticks_per_unit < 1:
            raise TimeBaseError(
                f"ticks_per_unit must be a positive int, got {ticks_per_unit!r}"
            )
        self.ticks_per_unit = ticks_per_unit

    @classmethod
    def for_values(cls, values: Iterable[TimeLike]) -> "TimeBase":
        """Build the coarsest grid on which all ``values`` are integers."""
        denominator = 1
        for value in values:
            fraction = as_fraction(value)
            denominator = denominator * fraction.denominator // math.gcd(
                denominator, fraction.denominator
            )
        return cls(denominator)

    def to_ticks(self, value: TimeLike) -> int:
        """Convert a time quantity to ticks; must land exactly on the grid."""
        # In integers: q * n / d is whole exactly when d divides q * n.
        fraction = as_fraction(value)
        ticks, rest = divmod(
            fraction.numerator * self.ticks_per_unit, fraction.denominator
        )
        if rest:
            raise TimeBaseError(
                f"time {value!r} is not representable at resolution "
                f"1/{self.ticks_per_unit}"
            )
        return ticks

    def from_ticks(self, ticks: int) -> Fraction:
        """Convert ticks back to exact model time units."""
        return Fraction(ticks, self.ticks_per_unit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeBase):
            return NotImplemented
        return self.ticks_per_unit == other.ticks_per_unit

    def __hash__(self) -> int:
        return hash((TimeBase, self.ticks_per_unit))

    def __repr__(self) -> str:
        return f"TimeBase(ticks_per_unit={self.ticks_per_unit})"
