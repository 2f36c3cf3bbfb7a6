"""(m,k) outcome histories and the flexibility degree (Definition 1).

The *flexibility degree* FD(J_i) of an upcoming job J_i is the number of
consecutive deadline misses task τ_i can still tolerate starting from J_i
without violating its (m,k)-constraint, given the outcomes of the most
recent k_i - 1 jobs.

Derivation used here (matching the paper's worked traces): let
``h = (h_1, ..., h_{k-1})`` be the last k-1 outcomes, oldest first, with
1 = effective.  Suppose the next d jobs all miss.  For t = 1..d the window
of k consecutive jobs ending at the t-th future job consists of the last
``k - t`` history entries plus t misses, so it holds iff the last ``k - t``
history entries contain at least m ones.  Hence::

    FD = max { d >= 0 : for all 1 <= t <= d,
               ones(last k - t entries of h) >= m }

The paper's examples fix the boundary condition: *before time zero every
job is assumed to have met its deadline* (an empty system has its full
slack), so the history is initialized to all ones.  With an all-zero
initialization FD would reduce to the R-pattern's classification instead;
:class:`MKHistory` supports both via ``initial_met``.

FD = 0 means the job is *mandatory* (one more miss violates the
constraint); the selective scheme picks exactly the FD = 1 optional jobs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Sequence

from ..errors import ModelError
from .mk import MKConstraint

#: Supported boundary conditions for the (m,k) history "before time zero":
#: ``"met"`` is the paper's assumption (every pre-horizon job met its
#: deadline), ``"miss"`` the deeply-pessimistic all-miss start, and
#: ``"rpattern"`` seeds the window as if the task had been following its
#: R-pattern, so the first simulated job is the pattern's next mandatory
#: one (Goossens: the initial k-sequence changes (m,k) schedulability).
INITIAL_HISTORY_MODES = ("met", "miss", "rpattern")


def flexibility_degree(history: Sequence[bool], mk: MKConstraint) -> int:
    """Flexibility degree of the next job given the last k-1 outcomes.

    Args:
        history: outcomes of the previous jobs, oldest first.  Only the
            last ``k - 1`` entries matter; shorter histories are padded on
            the *old* side with successes (the paper's boundary condition).
        mk: the task's (m,k)-constraint.

    Returns:
        The largest number of consecutive misses, starting with the next
        job, that keeps every k-window at >= m successes.  Always in
        ``[0, k - m]``.
    """
    k, m = mk.k, mk.m
    window: "list[int]" = [1] * (k - 1)
    tail = list(history[-(k - 1):]) if k > 1 else []
    if tail:
        window[-len(tail):] = [int(bool(flag)) for flag in tail]
    # ones_from[t] = number of ones among the last (k - 1) - (t - 1) entries,
    # i.e. the history part of the window ending at the t-th future miss.
    degree = 0
    ones = sum(window)
    for t in range(1, k - m + 1):
        # Window ending at future job t: last (k - t) history entries + t
        # misses.  Entries dropped from the old side: t - 1 of them.
        if t - 1 >= 1:
            ones -= window[t - 2]
        if ones >= m:
            degree = t
        else:
            break
    return degree


class MKHistory:
    """Sliding outcome window for one task, with FD queries.

    Records the success/miss outcome of each job as it is decided and
    answers :meth:`flexibility_degree` for the next upcoming job in O(1)
    amortized time: rewriting Definition 1, ``ones(last j entries)`` is
    nondecreasing in ``j``, so the binding constraint of ``FD >= d`` is
    the shortest suffix -- the last ``k - d`` entries must hold ``>= m``
    ones.  Hence with ``p`` = how deep into the window the m-th most
    recent success sits (1 = newest entry)::

        FD = k - max(p, m)        (0 when fewer than m successes remain)

    The class therefore maintains the sequence numbers of the successes
    currently inside the window (at most ``k - 1`` of them) alongside the
    window itself, and every :meth:`record` call updates both in O(1).

    Args:
        mk: the task's (m,k)-constraint.
        initial_met: boundary condition for jobs "before time zero".
            ``True`` (default) matches the paper's dynamic schemes;
            ``False`` reproduces the R-pattern's deeply-red pessimism.
    """

    __slots__ = ("mk", "_window", "_recorded", "_misses", "_seq", "_one_seqs")

    def __init__(self, mk: MKConstraint, initial_met: bool = True) -> None:
        if not isinstance(mk, MKConstraint):
            raise ModelError(f"mk must be an MKConstraint, got {mk!r}")
        self.mk = mk
        depth = max(mk.k - 1, 0)
        self._window: Deque[bool] = deque(
            [bool(initial_met)] * depth, maxlen=depth or None
        )
        if depth == 0:
            self._window = deque([], maxlen=1)
            self._window.clear()
        self._recorded = 0
        self._misses = 0
        # Sequence number of the newest window entry; the window holds
        # entries (seq - depth, seq].  Initial padding occupies 1..depth.
        self._seq = depth
        self._one_seqs: Deque[int] = deque(
            range(1, depth + 1) if initial_met else ()
        )

    @property
    def recorded(self) -> int:
        """Total number of outcomes recorded so far."""
        return self._recorded

    @property
    def misses(self) -> int:
        """Total number of misses recorded so far."""
        return self._misses

    def record(self, effective: bool) -> None:
        """Append the outcome of the most recently decided job."""
        k = self.mk.k
        if k > 1:
            self._window.append(bool(effective))
            self._seq += 1
            ones = self._one_seqs
            if effective:
                ones.append(self._seq)
            cutoff = self._seq - (k - 1)
            while ones and ones[0] <= cutoff:
                ones.popleft()
        self._recorded += 1
        if not effective:
            self._misses += 1

    def outcomes(self) -> "tuple[bool, ...]":
        """The retained window of recent outcomes, oldest first."""
        return tuple(self._window)

    def flexibility_degree(self) -> int:
        """FD of the *next* job of this task (Definition 1), in O(1)."""
        m = self.mk.m
        ones = self._one_seqs
        if len(ones) < m:
            return 0
        # The m-th most recent success lies p entries deep in the window.
        p = self._seq - ones[-m] + 1
        return self.mk.k - (p if p > m else m)

    def next_is_mandatory(self) -> bool:
        """True when the next job must execute (FD == 0)."""
        return self.flexibility_degree() == 0

    def would_violate(self, upcoming: Iterable[bool]) -> bool:
        """Whether appending ``upcoming`` outcomes would break the constraint.

        Used by the QoS monitor for lookahead checks; does not mutate.
        """
        bits = [int(flag) for flag in self._window] + [
            int(bool(flag)) for flag in upcoming
        ]
        k, m = self.mk.k, self.mk.m
        if len(bits) < k:
            return False
        window = sum(bits[:k])
        if window < m:
            return True
        for j in range(k, len(bits)):
            window += bits[j] - bits[j - k]
            if window < m:
                return True
        return False

    def __repr__(self) -> str:
        shown = "".join("1" if flag else "0" for flag in self._window)
        return f"MKHistory(mk={self.mk}, window='{shown}')"


def normalize_initial_history(value) -> str:
    """Validate an initial-history knob: one of the named modes."""
    if value in INITIAL_HISTORY_MODES:
        return value
    raise ModelError(
        f"unknown initial-history mode {value!r}; "
        f"choose from {INITIAL_HISTORY_MODES}"
    )


def make_initial_history(mk: MKConstraint, mode: str = "met") -> MKHistory:
    """A fresh :class:`MKHistory` seeded with one boundary condition.

    The returned history has ``recorded == misses == 0`` regardless of
    mode -- the seed describes jobs *before* the simulated horizon, so it
    shapes the first flexibility degrees without polluting the counters
    the violation accounting reads.
    """
    if mode == "met":
        return MKHistory(mk, initial_met=True)
    if mode == "miss":
        return MKHistory(mk, initial_met=False)
    if mode == "rpattern":
        from .patterns import RPattern

        history = MKHistory(mk, initial_met=False)
        # Seed the k-1 window with the pattern's outcomes for jobs
        # j = 2..k, oldest first, so the next (first simulated) job sits
        # at j === 1 (mod k) -- the pattern's next mandatory slot.
        for bit in RPattern(mk).bits(mk.k)[1:]:
            history.record(bool(bit))
        history._recorded = 0
        history._misses = 0
        return history
    raise ModelError(
        f"unknown initial-history mode {mode!r}; "
        f"choose from {INITIAL_HISTORY_MODES}"
    )


def packed_initial_window(mk: MKConstraint, mode: str = "met") -> int:
    """The boundary window as a k-1-bit mask, newest outcome in bit 0.

    The packed form of :func:`make_initial_history`'s window, which both
    the scalar engine and the batch kernel seed their per-task outcome
    words from.
    """
    if mode == "met":
        return (1 << (mk.k - 1)) - 1
    if mode == "miss":
        return 0
    outcomes = make_initial_history(mk, mode).outcomes()
    packed = 0
    for offset, outcome in enumerate(reversed(outcomes)):
        packed |= int(outcome) << offset
    return packed


#: The number of set bits of a non-negative int (``int.bit_count`` on
#: Python 3.10 and later).
popcount = getattr(int, "bit_count", None) or (lambda word: bin(word).count("1"))


def _select_table() -> bytes:
    """Row b (8 bytes at ``b << 3``) lists the 1-based positions of the
    set bits of byte b, lowest first, padded with zeros: the lowest set
    bit, then the row of b without it."""
    table = bytearray(2048)
    for byte in range(1, 256):
        rest = byte & (byte - 1)
        row = byte << 3
        table[row] = (byte ^ rest).bit_length()
        table[row + 1 : row + 8] = table[rest << 3 : (rest << 3) + 7]
    return bytes(table)


#: Per byte value b: ``_POP8[b]`` is its number of set bits, and
#: ``_SELECT8[b << 3 | (n - 1)]`` the 1-based position of its n-th
#: lowest set bit (0 when it has fewer than n).
_POP8 = bytes(map(popcount, range(256)))
_SELECT8 = _select_table()


def packed_flexibility_degree(word: int, m: int, k: int) -> int:
    """FD of a task's next job from its packed outcome word (bit 0 = newest).

    The packed form of :meth:`MKHistory.flexibility_degree`: with p the
    1-based position of the m-th newest success among the word's low
    ``k - 1`` bits, ``FD = k - max(p, m)`` -- that is ``k - p``, as the
    m-th newest success sits at position m or deeper -- and 0 when those
    bits hold fewer than m successes.  The search reads the bits a byte
    at a time through fixed tables.
    """
    bits = word & ((1 << (k - 1)) - 1)
    while bits:
        byte = bits & 255
        if m <= 8:
            position = _SELECT8[byte << 3 | (m - 1)]
            if position:
                return k - position
        m -= _POP8[byte]
        bits >>= 8
        k -= 8
    return 0
