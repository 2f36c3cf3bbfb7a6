"""Staged task-set generation: integer draws, exact screening, late build.

The sequential :class:`~repro.workload.generator.TaskSetGenerator` spends
almost all of its time *rejecting*: at high utilization bins, thousands
of raw draws funnel through Fraction arithmetic, ``Task``/``TaskSet``
construction and the exact admission simulation only to be thrown away.
This module restructures that loop into one pass per draw that produces
**byte-identical output** (same task sets, same order, same RNG stream)
while doing almost no work per rejected candidate:

1. **Integer draws at the RNG's speed** -- :func:`make_drawer` builds,
   once per bin, a drawer that consumes the ``random.Random`` stream
   exactly like ``draw_raw`` (same calls in the same order, including
   the early stop at the first infeasible task).  Its integer choices
   call ``getrandbits`` directly under the rule of CPython's
   ``Random._randbelow_with_getrandbits``, with every range and bit
   width computed once per drawer, and it records only plain integers:
   periods, (m, k) pairs and WCETs in grid units.  The WCET quantization
   (:func:`quantized_wcet_units`) floors a float product wherever its
   error bound allows, else the float share's own ratio in integers,
   and calls :func:`limit_denominator_int`, a Fraction-free
   transcription of ``Fraction.limit_denominator``, only for the ~1% of
   shares close enough to a grid boundary for the denominator limit to
   matter.
2. **Exact in-bin check** -- each feasible candidate's (m,k)-utilization
   is computed once, in integers (:func:`candidate_mk_utilization`).
3. **Necessary-condition screen** -- an in-bin candidate first meets the
   synchronous-demand stage, then iterated *lower bounds* on the
   first-job response times under the deeply-red pattern
   (:func:`screen_rejects`).  The screen only ever rejects candidates
   that are provably unschedulable (the bound is exact integer
   arithmetic and always a lower bound on what the exact simulation
   computes, see :func:`_screen_rounds`), so skipping the expensive RTA
   + simulation for them cannot change any admission decision.
4. **Late construction + admission** -- ``Task``/``TaskSet`` objects are
   built only for candidates that survive the screen, and the exact
   admission test runs only on those survivors.

Every draw passes through all four stages before the next one is drawn,
so the loop stops on the draw that fills the bin and the RNG stream
position after every bin matches the sequential generator's.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.hyperperiod import analysis_horizon
from ..analysis.schedulability import is_rpattern_schedulable
from ..model.task import Task
from ..model.taskset import TaskSet
from .uunifast import uunifast

#: A draw reduced to integers: per task (priority order) the period in
#: model units, the (m, k) parameters, and the WCET in grid units.
RawCandidate = Tuple[
    Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]
]


@dataclass
class GenerationStats:
    """Counters describing one generation run, for observability."""

    draws: int = 0
    feasible: int = 0
    in_bin: int = 0
    screened_out: int = 0
    admission_tests: int = 0
    admitted: int = 0
    seconds: float = 0.0
    bin_draws: Dict[Tuple[float, float], int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, int]:
        """The JSON-able totals (per-bin draw counts excluded)."""
        return {
            "draws": self.draws,
            "feasible": self.feasible,
            "in_bin": self.in_bin,
            "screened_out": self.screened_out,
            "admission_tests": self.admission_tests,
            "admitted": self.admitted,
            "seconds": round(self.seconds, 3),
        }


def limit_denominator_int(
    numerator: int, denominator: int, max_denominator: int = 10**6
) -> Tuple[int, int]:
    """``Fraction(n, d).limit_denominator(m)`` on plain integers.

    A transcription of CPython's continued-fraction algorithm that takes
    and returns ``(numerator, denominator)`` pairs in lowest terms --
    the inputs here come from ``float.as_integer_ratio`` which already
    normalizes -- skipping every Fraction allocation on the generator's
    per-draw hot path.  Exact equality with the Fraction implementation
    is property-tested.
    """
    if denominator <= max_denominator:
        return numerator, denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = numerator, denominator
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    pb, qb = p0 + k * p1, q0 + k * q1
    # Prefer the last convergent on ties, like Fraction.limit_denominator;
    # compare |p1/q1 - n/d| <= |pb/qb - n/d| by exact cross-multiplication.
    if abs(p1 * denominator - numerator * q1) * qb <= abs(
        pb * denominator - numerator * qb
    ) * q1:
        return p1, q1
    return pb, qb


#: ``draw_raw`` limits each share's denominator to this before scaling.
SHARE_MAX_DENOMINATOR = 10**6

#: The float-first floor's margin, in units of ``A / B`` (see
#: :func:`quantized_wcet_units`): twice the denominator limit's reach.
_FLOAT_MARGIN = 2 / SHARE_MAX_DENOMINATOR


def quantized_wcet_units(
    share: float, k: int, period: int, m: int, grid_num: int, grid_den: int
) -> int:
    """``draw_raw``'s quantized WCET ``C = share * k * P / m``, in grid units.

    That is ``w = floor(S * A / B)`` with ``S`` the share after
    ``limit_denominator(N)``, ``N = 10**6``, ``A = k * P * grid_den`` and
    ``B = m * grid_num``.  The closest fraction with denominator at most
    ``N`` lies within ``1 / N`` of the share (Dirichlet), so ``S * A / B``
    lies within ``A / (B * N)`` of ``share * A / B``.

    Float first: ``x = share * (A / B)`` takes two correctly rounded
    operations, so it lies within ``2**-52 * x`` of ``share * A / B``.
    When ``x`` is more than ``2 * A / (B * N)`` from every integer, that
    margin exceeds both errors together (and the rounding of the margin
    itself) for every share below ``2**51 / N``, about 2.2e9 and far
    above any feasible share (about ``m / k`` at most), so ``floor(x)``
    is ``w``.  About 97% of the documented bins' tasks end there; the
    rest take the exact integer floor of :func:`_exact_wcet_units`.
    """
    scale = k * period * grid_den
    divisor = m * grid_num
    ratio = scale / divisor
    x = share * ratio
    w = int(x)
    margin = _FLOAT_MARGIN * ratio
    if margin < x - w < 1.0 - margin:
        return w
    return _exact_wcet_units(share, scale, divisor)


def _exact_wcet_units(share: float, scale: int, divisor: int) -> int:
    """``floor(S * scale / divisor)`` in integers, ``S`` as above.

    Floors the float share's exact ratio times ``scale / divisor``
    directly; unless that value lies within ``scale / (divisor * N)`` of
    an integer, ``S`` has the same floor, so :func:`limit_denominator_int`
    runs only in that rare case.
    """
    numerator, denominator = share.as_integer_ratio()
    total = denominator * divisor
    w, rest = divmod(numerator * scale, total)
    # |S*A/B - share*A/B| < A/(B*N) and the fractional part of share*A/B
    # is rest/total = rest/(denominator*B): compare both gaps in integers.
    if min(rest, total - rest) * SHARE_MAX_DENOMINATOR <= scale * denominator:
        p, q = limit_denominator_int(numerator, denominator, SHARE_MAX_DENOMINATOR)
        w = (p * scale) // (q * divisor)
    return w


_period_of = itemgetter(0)


def make_drawer(
    rng: random.Random, cfg, target_mk_utilization: float
) -> Callable[[], Optional[RawCandidate]]:
    """A drawer of raw candidates that consumes ``rng`` like ``draw_raw``.

    Each call makes one draw and returns ``None`` for an infeasible one
    (a WCET that quantizes to zero or exceeds its deadline) -- crucially
    *stopping at the same task* the sequential path stops at, so no
    further RNG values are consumed.  Feasibility is decided in exact
    integer arithmetic: the quantized WCET is ``w * grid`` with ``w``
    from :func:`quantized_wcet_units`, infeasible iff ``w <= 0`` or
    ``w * grid_num > period * grid_den``.

    ``draw_raw``'s integer choices -- ``randint`` for the task count, k
    and m, ``choice`` or ``randint`` for the period -- all reduce to
    ``Random._randbelow_with_getrandbits(n)``: draw ``n.bit_length()``
    bits and redraw while the value is ``>= n``.  The drawer applies that
    rule to ``rng.getrandbits`` itself, so ``rng`` must be a plain
    :class:`random.Random` (whose ``_randbelow`` is that method); the
    shares still come from :func:`~repro.workload.uunifast.uunifast`.
    """
    getrandbits = rng.getrandbits
    grid_num = cfg.wcet_grid.numerator
    grid_den = cfg.wcet_grid.denominator
    n_low = cfg.min_tasks
    n_span = cfg.max_tasks - n_low + 1
    n_bits = n_span.bit_length()
    if cfg.period_choices is not None:
        period_values: Sequence[int] = tuple(cfg.period_choices)
    else:
        low, high = cfg.period_range
        period_values = range(low, high + 1)
    p_span = len(period_values)
    p_bits = p_span.bit_length()
    k_low, k_high = cfg.k_range
    k_span = k_high - k_low + 1
    k_bits = k_span.bit_length()
    # m = randint(1, k - 1) draws below k - 1.
    m_bits = [(k - 1).bit_length() for k in range(k_high + 1)]

    def draw() -> Optional[RawCandidate]:
        r = getrandbits(n_bits)
        while r >= n_span:
            r = getrandbits(n_bits)
        tasks = []
        for share in uunifast(n_low + r, target_mk_utilization, rng):
            r = getrandbits(p_bits)
            while r >= p_span:
                r = getrandbits(p_bits)
            period = period_values[r]
            r = getrandbits(k_bits)
            while r >= k_span:
                r = getrandbits(k_bits)
            k = k_low + r
            bits = m_bits[k]
            r = getrandbits(bits)
            while r >= k - 1:
                r = getrandbits(bits)
            m = r + 1
            w = quantized_wcet_units(share, k, period, m, grid_num, grid_den)
            if w <= 0 or w * grid_num > period * grid_den:
                return None
            tasks.append((period, k, m, w))
        # draw_raw's stable (period, deadline) sort; deadlines are implicit.
        tasks.sort(key=_period_of)
        return tuple(zip(*tasks))

    return draw


def candidate_mk_utilization(
    candidate: RawCandidate, grid_num: int, grid_den: int
) -> float:
    """Achieved (m,k)-utilization of a raw candidate, as a float.

    Equals ``float(TaskSet.mk_utilization)`` of the built set without
    constructing any tasks: the exact sum of ``m * w * grid / (k * P)``
    is taken over a common denominator in integers, and one int/int true
    division rounds it correctly, as ``Fraction.__float__`` does.
    """
    periods, ks, ms, wunits = candidate
    windows = list(map(mul, ks, periods))
    common = math.lcm(*windows)
    numerator = 0
    for m, w, window in zip(ms, wunits, windows):
        numerator += m * w * (common // window)
    return (numerator * grid_num) / (common * grid_den)


def build_taskset(candidate: RawCandidate, grid: Fraction) -> TaskSet:
    """Materialize the ``Task``/``TaskSet`` objects for a survivor.

    Field-for-field identical to what ``draw_raw`` builds: the WCET
    ``w * grid`` is the same normalized Fraction as
    ``(wcet_exact // grid) * grid``, periods are ints, deadlines
    implicit, and the task order is already the (period, deadline) sort.
    """
    periods, ks, ms, wunits = candidate
    return TaskSet(
        Task(period, Fraction(period), w * grid, m, k)
        for period, k, m, w in zip(periods, ks, ms, wunits)
    )


# -- the necessary-condition screen ----------------------------------


def screen_applicable(cfg) -> bool:
    """Whether the unschedulability screen may run for this config.

    The screen's integer arithmetic works in WCET-grid ticks and needs
    periods to be whole numbers of them (true whenever the grid is
    ``1/N``, including the default 1/100); any other grid simply skips
    the screen -- it is an optimization, never a requirement.  It
    reasons about the deeply-red pattern, so only the ``rpattern`` and
    ``rotated`` admission modes (whose first stage is the R-pattern
    test) can use it.
    """
    return (
        cfg.require_schedulable
        and cfg.admission in ("rpattern", "rotated")
        and cfg.wcet_grid.numerator == 1
    )


#: Lower-bound refinement rounds; each round is independently sound, so
#: the count only trades screen power against screen cost.
_SCREEN_ROUNDS = 3


def _synchronous_overload(candidate: RawCandidate, grid_den: int) -> bool:
    """The screen's first stage: some cumulative WCET exceeds its period."""
    periods, _, _, wunits = candidate
    total = 0
    for period, w in zip(periods, wunits):
        total += w
        if total > period * grid_den:  # D_i == P_i, both in grid ticks
            return True
    return False


def _screen_rounds(candidate: RawCandidate, cfg) -> bool:
    """The whole screen: iterated first-job response-time lower bounds.

    With tasks in priority order, implicit deadlines and integer grid
    ticks, the bound starts at the synchronous cumulative demand
    ``t_i = sum_{j<=i} C_j`` -- a lower bound on the completion of task
    i's first (always mandatory) job, since all those first jobs release
    together at t=0 -- and is refined by
    ``t_i' = C_i + sum_{j<i} N_j(t_i) * C_j`` where ``N_j(t)`` counts
    deeply-red mandatory releases of task j in ``[0, t)``, capped at the
    releases the exact simulation makes before its horizon
    ``min((m,k)-hyperperiod, cap)``.  ``N_j`` is monotone, so each
    refinement stays a lower bound; the candidate is rejected only when
    a bound exceeds the deadline, which guarantees the exact simulation
    would find that same first-job miss.

    A bound never exceeds the longest period, and the hyperperiod is at
    least twice that (every k is at least 2), so the horizon caps a count
    only through a cap below the longest period.
    """
    periods, ks, ms, wcets = candidate
    grid_den = cfg.wcet_grid.denominator
    ticks = [period * grid_den for period in periods]
    bounds = list(accumulate(wcets))
    for bound, deadline in zip(bounds, ticks):
        if bound > deadline:
            return True
    cap = cfg.horizon_cap_units
    if cap is not None and cap < periods[-1]:
        cap_ticks = cap * grid_den
        jmax = [-(-cap_ticks // p) for p in ticks]
    else:
        jmax = None
    for _ in range(_SCREEN_ROUNDS):
        improved = False
        for i in range(1, len(ticks)):
            t = bounds[i]
            demand = wcets[i]
            for j in range(i):
                released = -(-t // ticks[j])
                if jmax is not None and released > jmax[j]:
                    released = jmax[j]
                full, rest = divmod(released, ks[j])
                m = ms[j]
                demand += (full * m + (rest if rest < m else m)) * wcets[j]
            if demand > ticks[i]:
                return True
            if demand > t:
                bounds[i] = demand
                improved = True
        if not improved:
            return False
    return False


def screen_rejects(candidate: RawCandidate, cfg) -> bool:
    """Whether a raw candidate is provably unschedulable.

    The synchronous-demand stage runs first, on plain ints; it alone
    rejects most in-bin candidates of the top bins.  Only its survivors
    pay for the refinement rounds of :func:`_screen_rounds`, whose
    verdict the first stage never changes.
    """
    return _synchronous_overload(
        candidate, cfg.wcet_grid.denominator
    ) or _screen_rounds(candidate, cfg)


# -- the per-bin fill loop -------------------------------------------


def _admit_survivor(cfg, taskset: TaskSet, screened_out: bool) -> bool:
    """The admission decision for a candidate that got built.

    Mirrors ``GeneratorConfig.admits`` exactly, except that a
    screen-rejected candidate skips the R-pattern RTA + simulation --
    the screen already proved what their verdict would be -- and goes
    straight to the rotation search when that mode is on.
    """
    if not cfg.require_schedulable or cfg.admission == "none":
        return True
    base = taskset.timebase()
    horizon = analysis_horizon(taskset, base, cfg.horizon_cap_units)
    if not screened_out and is_rpattern_schedulable(
        taskset, base, horizon_ticks=horizon
    ):
        return True
    if cfg.admission == "rotated":
        from ..analysis.rotation import (
            optimize_rotations,
            schedulability_margin,
        )

        _, patterns = optimize_rotations(taskset, base, horizon_ticks=horizon)
        return (
            schedulability_margin(taskset, patterns, base, horizon_ticks=horizon)
            >= 0
        )
    return False


def fill_bin(
    rng: random.Random,
    cfg,
    bin_lo: float,
    bin_hi: float,
    sets_per_bin: int,
    max_draws: int,
    stats: Optional[GenerationStats] = None,
) -> List[TaskSet]:
    """Fill one utilization bin, one draw at a time.

    Draw-for-draw equivalent to the sequential loop in
    ``generate_binned_tasksets``: the same candidates are admitted in
    the same order and the RNG leaves in the same state.
    """
    draw = make_drawer(rng, cfg, (bin_lo + bin_hi) / 2)
    grid_num = cfg.wcet_grid.numerator
    grid_den = cfg.wcet_grid.denominator
    use_screen = screen_applicable(cfg)
    # A screen-rejected candidate still meets the rotation search.
    rotated = cfg.admission == "rotated"
    result: List[TaskSet] = []
    draws = feasible = in_bin = screened_out = admission_tests = 0
    while len(result) < sets_per_bin and draws < max_draws:
        draws += 1
        candidate = draw()
        if candidate is None:
            continue
        feasible += 1
        achieved = candidate_mk_utilization(candidate, grid_num, grid_den)
        if not bin_lo <= achieved < bin_hi:
            continue
        in_bin += 1
        rejected = use_screen and screen_rejects(candidate, cfg)
        if rejected:
            screened_out += 1
            if not rotated:
                continue
        else:
            admission_tests += 1
        taskset = build_taskset(candidate, cfg.wcet_grid)
        if _admit_survivor(cfg, taskset, rejected):
            result.append(taskset)
    if stats is not None:
        stats.draws += draws
        stats.feasible += feasible
        stats.in_bin += in_bin
        stats.screened_out += screened_out
        stats.admission_tests += admission_tests
        stats.admitted += len(result)
        stats.bin_draws[(bin_lo, bin_hi)] = draws
    return result


def generate_binned_fast(
    bins: Sequence[Tuple[float, float]],
    sets_per_bin: int = 20,
    config=None,
    seed: Optional[int] = None,
    max_draws_per_bin: int = 5000,
    stats: Optional[GenerationStats] = None,
) -> Dict[Tuple[float, float], List[TaskSet]]:
    """The staged-pipeline equivalent of ``generate_binned_tasksets``.

    Byte-identical output (differential corpus in
    ``tests/property/test_prop_fastgen.py``).
    """
    from .generator import GeneratorConfig

    cfg = config or GeneratorConfig()
    rng = random.Random(seed)
    result: Dict[Tuple[float, float], List[TaskSet]] = {
        tuple(b): [] for b in bins
    }
    started = time.monotonic()
    for bin_lo, bin_hi in result:
        result[(bin_lo, bin_hi)] = fill_bin(
            rng, cfg, bin_lo, bin_hi, sets_per_bin, max_draws_per_bin, stats
        )
    if stats is not None:
        stats.seconds += time.monotonic() - started
    return result

