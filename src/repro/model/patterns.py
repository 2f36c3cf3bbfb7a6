"""Static mandatory/optional partitioning patterns for (m,k)-constraints.

A *pattern* assigns each job index j (1-based) of a task a bit: ``1`` for
mandatory, ``0`` for optional.  The paper's baselines use the *deeply red*
R-pattern of Koren & Shasha (Equation 1):

    pi_ij = 1  if 1 <= (j mod k_i) <= m_i   else 0

i.e. the first m jobs of every window of k are mandatory.  The
evenly-distributed E-pattern of Ramanathan is provided as an extension for
ablations; it spreads the m mandatory slots uniformly across the window:

    pi_ij = 1  iff  j == floor(ceil((j*m)/k) * k / m)   (1-based, per window)

Both patterns are periodic with period k and guarantee every window of k
consecutive jobs contains at least m mandatory slots.
"""

from __future__ import annotations

from itertools import accumulate
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..errors import ModelError
from .mk import MKConstraint


@runtime_checkable
class Pattern(Protocol):
    """Protocol for static job partitioning patterns."""

    mk: MKConstraint

    def is_mandatory(self, job_index: int) -> bool:
        """Whether the 1-based job ``job_index`` is mandatory."""
        ...


class PatternWindow(NamedTuple):
    """One period of a window-periodic pattern, by job phase.

    ``bits[i]`` is 1 when jobs ``i + 1``, ``i + 1 + k``, ... are
    mandatory, ``mask`` packs those bits (bit ``i`` = phase ``i``), and
    ``prefix[j]`` counts the mandatory phases among the first ``j``.
    """

    bits: Tuple[int, ...]
    mask: int
    prefix: Tuple[int, ...]


#: One :class:`PatternWindow` per (pattern kind, m, k, rotation), shared
#: by every pattern instance with that key: the schemes build fresh
#: patterns for every task set they prepare.  Bounded by the distinct
#: constraints seen, not by the number of patterns built.
_WINDOWS: Dict[tuple, PatternWindow] = {}


class _PeriodicPattern:
    """Shared machinery for patterns periodic in the window length k."""

    __slots__ = ("mk", "_window")

    def __init__(self, mk: MKConstraint) -> None:
        self.mk = mk
        #: The shared :class:`PatternWindow`, looked up on first use.
        self._window: Optional[PatternWindow] = None

    def is_mandatory(self, job_index: int) -> bool:
        raise NotImplementedError

    def _window_key(self) -> tuple:
        """The cache key of this pattern's window: kind, m, k, rotation."""
        return (type(self), self.mk.m, self.mk.k, 0)

    def period_window(self) -> PatternWindow:
        """One period of the pattern, computed once per cache key."""
        window = self._window
        if window is None:
            key = self._window_key()
            window = _WINDOWS.get(key)
            if window is None:
                bits = tuple(
                    int(self.is_mandatory(j)) for j in range(1, self.mk.k + 1)
                )
                mask = sum(bit << phase for phase, bit in enumerate(bits))
                window = _WINDOWS[key] = PatternWindow(
                    bits, mask, tuple(accumulate(bits, initial=0))
                )
            self._window = window
        return window

    def bits(self, count: int) -> List[int]:
        """The first ``count`` pattern bits, as a list of 0/1 ints."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        window = self.period_window().bits
        k = len(window)
        return [window[phase % k] for phase in range(count)]

    def window(self) -> List[int]:
        """One full period of the pattern (k bits)."""
        return list(self.period_window().bits)

    def iter_mandatory_indices(self) -> Iterator[int]:
        """Yield 1-based mandatory job indices, unbounded."""
        j = 1
        while True:
            if self.is_mandatory(j):
                yield j
            j += 1

    def mandatory_count_in(self, job_lo: int, job_hi: int) -> int:
        """Number of mandatory jobs with index in [job_lo, job_hi] (1-based).

        Computed in O(1) from one window's prefix sums via the pattern's
        periodicity, so demand-bound analysis over long horizons stays
        cheap.
        """
        if job_hi < job_lo:
            return 0
        return self._prefix_count(job_hi) - self._prefix_count(job_lo - 1)

    def _prefix_count(self, job_hi: int) -> int:
        """Mandatory jobs among indices 1..job_hi."""
        if job_hi <= 0:
            return 0
        prefix = (self._window or self.period_window()).prefix
        full, rest = divmod(job_hi, self.mk.k)
        return full * prefix[-1] + prefix[rest]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mk={self.mk})"


class RPattern(_PeriodicPattern):
    """Deeply-red pattern: the first m of every k jobs are mandatory.

    Equation (1) of the paper assumes m < k; for hard tasks (m == k) the
    literal formula would mark job k optional (j mod k == 0), so that case
    is special-cased to "everything mandatory".
    """

    def is_mandatory(self, job_index: int) -> bool:
        if job_index < 1:
            raise ModelError(f"job indices are 1-based, got {job_index}")
        if self.mk.is_hard:
            return True
        return 1 <= (job_index % self.mk.k) <= self.mk.m


class EPattern(_PeriodicPattern):
    """Evenly-distributed pattern (Ramanathan 1999).

    Job j is mandatory iff ``j - 1 == ceil(floor((j-1)*m/k) * k / m)`` when
    indices are taken 0-based within each window; this places the m
    mandatory slots as uniformly as possible.  The first job of every
    window is always mandatory, and every window of k consecutive jobs
    contains at least m mandatory jobs.
    """

    def is_mandatory(self, job_index: int) -> bool:
        if job_index < 1:
            raise ModelError(f"job indices are 1-based, got {job_index}")
        m, k = self.mk.m, self.mk.k
        j0 = (job_index - 1) % k
        # j0 == ceil(floor(j0*m/k) * k / m), in exact integer arithmetic.
        return j0 == -(-((j0 * m) // k) * k // m)


class RotatedPattern(_PeriodicPattern):
    """A base pattern's window rotated left by ``rotation`` slots.

    Rotating a pattern preserves the (m,k)-guarantee of the *infinite*
    job sequence (every window of k consecutive jobs still sees the same
    circular window contents) while changing which job indices are
    mandatory -- the lever Quan & Hu's enhanced fixed-priority analysis
    [13] turns to spread mandatory jobs of different tasks apart and make
    otherwise-unschedulable sets schedulable.

    Note the boundary: with rotation r > 0 the first r mandatory slots of
    the deeply-red window move to the *end* of the first period, so the
    very first jobs of the task may be optional.  That is sound for the
    steady-state constraint (and is exactly what [13] exploits), but it
    weakens the "all history met" initialization assumption; the paper's
    own schemes stick to r = 0.
    """

    __slots__ = ("base", "rotation")

    def __init__(self, base: "_PeriodicPattern", rotation: int) -> None:
        super().__init__(base.mk)
        if rotation < 0:
            raise ModelError(f"rotation must be >= 0, got {rotation}")
        self.base = base
        self.rotation = rotation % base.mk.k

    def is_mandatory(self, job_index: int) -> bool:
        if job_index < 1:
            raise ModelError(f"job indices are 1-based, got {job_index}")
        shifted = (job_index - 1 + self.rotation) % self.mk.k + 1
        return self.base.is_mandatory(shifted)

    def _window_key(self) -> tuple:
        return (type(self), self.base._window_key(), self.rotation)

    def __repr__(self) -> str:
        return (
            f"RotatedPattern({type(self.base).__name__}, mk={self.mk}, "
            f"rotation={self.rotation})"
        )


def is_window_periodic(pattern: Pattern) -> bool:
    """Whether ``pattern.is_mandatory`` depends only on job index mod k.

    Every pattern shipped here (R, E, rotated) is periodic in the window
    length; a user-supplied pattern of unknown provenance is not assumed
    to be.  The batch kernel (:mod:`repro.sim.batch`) needs this
    distinction: it tabulates a pattern over one window of k jobs and
    reads the table by job phase, which reproduces ``is_mandatory`` only
    for a window-periodic pattern.
    """
    return isinstance(pattern, _PeriodicPattern)


def pattern_satisfies_mk(bits: "List[int]", mk: MKConstraint) -> bool:
    """Check that a bit sequence meets >= m ones in every k-window.

    Utility shared by tests and the QoS monitor; ``bits`` shorter than one
    window trivially satisfies the constraint.
    """
    if len(bits) < mk.k:
        return True
    window = sum(bits[: mk.k])
    if window < mk.m:
        return False
    for j in range(mk.k, len(bits)):
        window += bits[j] - bits[j - mk.k]
        if window < mk.m:
            return False
    return True
