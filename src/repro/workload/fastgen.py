"""Staged task-set generation: blocked draws, exact screening, late build.

The sequential :class:`~repro.workload.generator.TaskSetGenerator` spends
almost all of its time *rejecting*: at high utilization bins, thousands
of raw draws funnel through Fraction arithmetic, ``Task``/``TaskSet``
construction and the exact admission simulation only to be thrown away.
This module restructures that loop into a pipeline that produces
**byte-identical output** (same task sets, same order, same RNG stream)
while doing almost no work per rejected candidate:

1. **Blocked cheap draws** -- candidates are drawn in blocks, consuming
   the ``random.Random`` stream exactly like ``draw_raw`` (same calls in
   the same order, including the early stop at the first infeasible
   task) but recording only plain integers: periods, (m, k) pairs and
   WCETs in grid units.  The exact WCET quantization floors the float
   share's own ratio in integers (:func:`quantized_wcet_units`) and
   calls :func:`limit_denominator_int`, a Fraction-free transcription
   of ``Fraction.limit_denominator``, only for the ~1% of shares close
   enough to a grid boundary for the denominator limit to matter.  Each
   feasible candidate's (m,k)-utilization is computed once, in integers
   (:func:`candidate_mk_utilization`).  No ``Task`` objects, no
   Fractions.
2. **Vectorized necessary-condition screen** -- feasible, in-bin
   candidates first meet the synchronous-demand stage on plain ints;
   its survivors are packed into numpy int64 blocks and screened with
   iterated *lower bounds* on the first-job response times under the
   deeply-red pattern.  The screen only ever rejects candidates that are
   provably unschedulable (the bound is exact integer arithmetic and
   always a lower bound on what the exact simulation computes, see
   :func:`_screen_rejects_python`), so skipping the expensive RTA +
   simulation for them cannot change any admission decision.  Without
   numpy the identical integer arithmetic runs in pure Python -- same
   decisions, just slower.
3. **Late construction + staged admission** -- ``Task``/``TaskSet``
   objects are built only for candidates that survive the screen, and
   the exact admission test runs only on those survivors.

Because a block may overshoot the draws the sequential loop would have
made (the bin can fill mid-block), the RNG state is snapshotted at each
block start and, on early exit, rewound and replayed for exactly the
consumed draws -- so the stream position after every bin matches the
sequential generator tick for tick.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.hyperperiod import analysis_horizon
from ..analysis.schedulability import is_rpattern_schedulable
from ..model.task import Task
from ..model.taskset import TaskSet
from .uunifast import uunifast

try:  # numpy is the optional repro[batch] extra; the screen degrades
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

#: Candidates drawn per RNG snapshot.  Large enough to amortize the
#: numpy screen's per-call overhead, small enough that the rewind+replay
#: when a bin fills mid-block stays negligible.
BLOCK_SIZE = 64

#: A draw reduced to integers: per task (priority order) the period in
#: model units, the (m, k) parameters, and the WCET in grid units.
RawCandidate = Tuple[List[int], List[int], List[int], List[int]]


def numpy_available() -> bool:
    """Whether the vectorized screen path can run."""
    return _np is not None


@dataclass
class GenerationStats:
    """Counters describing one generation run, for observability.

    ``bin_states`` maps each bin to the RNG state at the start of its
    fill loop -- exactly what a pool worker needs to regenerate *only*
    that bin's task sets (see ``harness/sweep.py``'s ``genbin`` job
    descriptors).
    """

    draws: int = 0
    feasible: int = 0
    in_bin: int = 0
    screened_out: int = 0
    admission_tests: int = 0
    admitted: int = 0
    seconds: float = 0.0
    bin_draws: Dict[Tuple[float, float], int] = field(default_factory=dict)
    bin_states: Dict[Tuple[float, float], tuple] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, int]:
        """The JSON-able counters (states excluded -- they are huge)."""
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


def quantized_wcet_units(
    share: float, k: int, period: int, m: int, grid_num: int, grid_den: int
) -> int:
    """``draw_raw``'s quantized WCET ``C = share * k * P / m``, in grid units.

    That is ``w = floor(S * A / B)`` with ``S`` the share after
    ``limit_denominator(10**6)``, ``A = k * P * grid_den`` and
    ``B = m * grid_num``.  The closest fraction with denominator at most
    ``N`` lies within ``1 / (N + 1)`` of the share (Dirichlet), so it
    moves ``share * A / B`` by less than ``A / (B * N)``: unless the
    float share's own ``share * A / B`` lies that close to an integer,
    both have the same floor, and :func:`limit_denominator_int` runs only
    in that rare case.
    """
    numerator, denominator = share.as_integer_ratio()
    scale = k * period * grid_den
    divisor = m * grid_num
    total = denominator * divisor
    w, rest = divmod(numerator * scale, total)
    # |S*A/B - share*A/B| < A/(B*N) and the fractional part of share*A/B
    # is rest/total = rest/(denominator*B): compare both gaps in integers.
    if min(rest, total - rest) * SHARE_MAX_DENOMINATOR <= scale * denominator:
        p, q = limit_denominator_int(numerator, denominator, SHARE_MAX_DENOMINATOR)
        w = (p * scale) // (q * divisor)
    return w


def draw_candidate(
    rng: random.Random,
    cfg,
    target_mk_utilization: float,
    grid_num: int,
    grid_den: int,
) -> Optional[RawCandidate]:
    """One cheap draw, consuming the RNG exactly like ``draw_raw``.

    Returns ``None`` for an infeasible draw (a WCET that quantizes to
    zero or exceeds its deadline) -- crucially *stopping at the same
    task* the sequential path stops at, so no further RNG values are
    consumed.  Feasibility is decided in exact integer arithmetic: the
    quantized WCET is ``w * grid`` with ``w`` from
    :func:`quantized_wcet_units`, infeasible iff ``w <= 0`` or
    ``w * grid_num > period * grid_den``.
    """
    n = rng.randint(cfg.min_tasks, cfg.max_tasks)
    shares = uunifast(n, target_mk_utilization, rng)
    choices = cfg.period_choices
    if choices is not None and not isinstance(choices, (list, tuple)):
        choices = list(choices)
    lo_k, hi_k = cfg.k_range
    periods: List[int] = []
    ks: List[int] = []
    ms: List[int] = []
    wunits: List[int] = []
    for share in shares:
        if choices is not None:
            period = rng.choice(choices)
        else:
            period = rng.randint(*cfg.period_range)
        k = rng.randint(lo_k, hi_k)
        m = rng.randint(1, k - 1)
        w = quantized_wcet_units(share, k, period, m, grid_num, grid_den)
        if w <= 0 or w * grid_num > period * grid_den:
            return None
        periods.append(period)
        ks.append(k)
        ms.append(m)
        wunits.append(w)
    order = sorted(range(n), key=periods.__getitem__)
    return (
        [periods[i] for i in order],
        [ks[i] for i in order],
        [ms[i] for i in order],
        [wunits[i] for i in order],
    )


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
    windows = [k * period for k, period in zip(ks, periods)]
    common = math.lcm(*windows)
    numerator = sum(
        m * w * (common // window) for m, w, window in zip(ms, wunits, windows)
    )
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


def _screen_arrays(
    candidates: Sequence[RawCandidate], cfg
) -> Tuple[List[List[int]], List[List[int]], List[List[int]], List[List[int]], List[List[int]]]:
    """Per-candidate integer rows (grid ticks) for the screen.

    Returns (periods_ticks, wcets_ticks, ms, ks, max_jobs) where
    ``max_jobs[i][t]`` caps interference counting at the releases the
    exact simulation would actually simulate (strictly before the
    analysis horizon ``min((m,k)-hyperperiod, cap)``).
    """
    grid_den = cfg.wcet_grid.denominator
    cap = cfg.horizon_cap_units
    rows_p: List[List[int]] = []
    rows_c: List[List[int]] = []
    rows_m: List[List[int]] = []
    rows_k: List[List[int]] = []
    rows_j: List[List[int]] = []
    for periods, ks, ms, wunits in candidates:
        hyper = math.lcm(*(k * p for k, p in zip(ks, periods)))
        horizon_units = hyper if cap is None else min(hyper, cap)
        p_ticks = [p * grid_den for p in periods]
        horizon_ticks = horizon_units * grid_den
        rows_p.append(p_ticks)
        rows_c.append(list(wunits))
        rows_m.append(list(ms))
        rows_k.append(list(ks))
        # The cap only ever *lowers* interference counts, so clamping a
        # gigantic uncapped hyperperiod keeps the bound sound while
        # staying inside int64 for the numpy path.
        rows_j.append(
            [min(-(-horizon_ticks // p), 10**9) for p in p_ticks]
        )
    return rows_p, rows_c, rows_m, rows_k, rows_j


#: Lower-bound refinement rounds; each round is independently sound, so
#: the count only trades screen power against screen cost.
_SCREEN_ROUNDS = 3


def _screen_rejects_python(
    candidates: Sequence[RawCandidate], cfg
) -> List[bool]:
    """Reject flags via iterated first-job response-time lower bounds.

    For each candidate (tasks in priority order, implicit deadlines,
    integer grid ticks) the bound starts at the synchronous cumulative
    demand ``t_i = sum_{j<=i} C_j`` -- a lower bound on the completion
    of task i's first (always mandatory) job, since all those first jobs
    release together at t=0 -- and is refined by
    ``t_i' = C_i + sum_{j<i} N_j(t_i) * C_j`` where ``N_j(t)`` counts
    deeply-red mandatory releases of task j in ``[0, t)``, capped at the
    horizon the exact simulation uses.  ``N_j`` is monotone, so each
    refinement stays a lower bound; the candidate is rejected only when
    a bound exceeds the deadline, which guarantees the exact simulation
    would find that same first-job miss.  All arithmetic is integer, so
    the numpy variant is bit-identical.
    """
    rows_p, rows_c, rows_m, rows_k, rows_j = _screen_arrays(candidates, cfg)
    rejects: List[bool] = []
    for periods, wcets, ms, ks, jmax in zip(
        rows_p, rows_c, rows_m, rows_k, rows_j
    ):
        n = len(periods)
        bounds: List[int] = []
        total = 0
        reject = False
        for i in range(n):
            total += wcets[i]
            if total > periods[i]:  # D_i == P_i
                reject = True
                break
            bounds.append(total)
        if not reject:
            for _ in range(_SCREEN_ROUNDS):
                improved = False
                for i in range(1, n):
                    t = bounds[i]
                    demand = wcets[i]
                    for j in range(i):
                        released = -(-t // periods[j])
                        if released > jmax[j]:
                            released = jmax[j]
                        full, rest = divmod(released, ks[j])
                        mand = full * ms[j] + (
                            rest if rest < ms[j] else ms[j]
                        )
                        demand += mand * wcets[j]
                    if demand > periods[i]:
                        reject = True
                        break
                    if demand > bounds[i]:
                        bounds[i] = demand
                        improved = True
                if reject or not improved:
                    break
        rejects.append(reject)
    return rejects


def _screen_rejects_numpy(
    candidates: Sequence[RawCandidate], cfg
) -> List[bool]:
    """The same integer screen over padded [B, n] int64 blocks."""
    np = _np
    rows_p, rows_c, rows_m, rows_k, rows_j = _screen_arrays(candidates, cfg)
    count = len(rows_p)
    width = max(len(row) for row in rows_p)

    def pad(rows: List[List[int]], fill: int) -> "_np.ndarray":
        out = np.full((count, width), fill, dtype=np.int64)
        for index, row in enumerate(rows):
            out[index, : len(row)] = row
        return out

    # Padding keeps every slot mathematically inert: zero WCET slots add
    # no demand, and a huge period keeps the padded deadline unreachable.
    big = np.int64(1) << 50
    periods = pad(rows_p, int(big))
    wcets = pad(rows_c, 0)
    ms = pad(rows_m, 1)
    ks = pad(rows_k, 2)
    jmax = pad(rows_j, 1)
    valid = pad([[1] * len(row) for row in rows_p], 0).astype(bool)

    bounds = np.cumsum(wcets, axis=1)
    reject = np.any((bounds > periods) & valid, axis=1)
    lower = np.tril(np.ones((width, width), dtype=bool), k=-1)
    for _ in range(_SCREEN_ROUNDS):
        if bool(np.all(reject)):
            break
        released = -(-bounds[:, :, None] // periods[:, None, :])
        released = np.minimum(released, jmax[:, None, :])
        full = released // ks[:, None, :]
        rest = released - full * ks[:, None, :]
        mand = full * ms[:, None, :] + np.minimum(rest, ms[:, None, :])
        demand = wcets + np.where(
            lower[None, :, :], mand * wcets[:, None, :], 0
        ).sum(axis=2)
        reject |= np.any((demand > periods) & valid, axis=1)
        new_bounds = np.maximum(bounds, np.where(valid, demand, bounds))
        if bool(np.array_equal(new_bounds, bounds)):
            break
        bounds = new_bounds
    return [bool(flag) for flag in reject]


def _synchronous_overload(candidate: RawCandidate, grid_den: int) -> bool:
    """The screen's first stage: some cumulative WCET exceeds its period."""
    periods, _, _, wunits = candidate
    total = 0
    for period, w in zip(periods, wunits):
        total += w
        if total > period * grid_den:  # D_i == P_i, both in grid ticks
            return True
    return False


def screen_rejects(candidates: Sequence[RawCandidate], cfg) -> List[bool]:
    """Provable-unschedulability flags for a block of raw candidates.

    The synchronous-demand stage runs first, on plain ints; it alone
    rejects most in-bin candidates of the top bins.  Only its survivors
    pay for the screen arrays and the refinement rounds (numpy or pure
    python), whose per-candidate verdicts do not depend on the rest of
    the block.
    """
    grid_den = cfg.wcet_grid.denominator
    flags = [_synchronous_overload(c, grid_den) for c in candidates]
    survivors = [c for c, overloaded in zip(candidates, flags) if not overloaded]
    if not survivors:
        return flags
    screen = _screen_rejects_numpy if _np is not None else _screen_rejects_python
    verdicts = iter(screen(survivors, cfg))
    return [overloaded or next(verdicts) for overloaded in flags]


# -- the staged per-bin fill loop ------------------------------------


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
    """Fill one utilization bin through the staged pipeline.

    Draw-for-draw equivalent to the sequential loop in
    ``generate_binned_tasksets``: the same candidates are admitted in
    the same order and the RNG leaves in the same state (blocks that
    overshoot a filled bin are rewound and replayed).
    """
    target = (bin_lo + bin_hi) / 2
    grid_num = cfg.wcet_grid.numerator
    grid_den = cfg.wcet_grid.denominator
    use_screen = screen_applicable(cfg)
    reject_on_screen = use_screen and cfg.admission == "rpattern"
    result: List[TaskSet] = []
    draws = 0
    while len(result) < sets_per_bin and draws < max_draws:
        block = min(BLOCK_SIZE, max_draws - draws)
        state = rng.getstate()
        candidates = [
            draw_candidate(rng, cfg, target, grid_num, grid_den)
            for _ in range(block)
        ]
        utilizations = [
            None
            if candidate is None
            else candidate_mk_utilization(candidate, grid_num, grid_den)
            for candidate in candidates
        ]
        # Screen only the candidates that can reach the admission test.
        screened: Dict[int, bool] = {}
        if use_screen:
            eligible = [
                position
                for position, achieved in enumerate(utilizations)
                if achieved is not None and bin_lo <= achieved < bin_hi
            ]
            flags = screen_rejects(
                [candidates[position] for position in eligible], cfg
            )
            screened = dict(zip(eligible, flags))
        consumed = block
        for position, (candidate, achieved) in enumerate(
            zip(candidates, utilizations)
        ):
            draws += 1
            if stats is not None:
                stats.draws += 1
            if candidate is None:
                continue
            if stats is not None:
                stats.feasible += 1
            if not bin_lo <= achieved < bin_hi:
                continue
            if stats is not None:
                stats.in_bin += 1
            screened_out = screened.get(position, False)
            if screened_out and stats is not None:
                stats.screened_out += 1
            if screened_out and reject_on_screen:
                continue
            taskset = build_taskset(candidate, cfg.wcet_grid)
            if stats is not None and not (
                screened_out and cfg.admission == "rotated"
            ):
                stats.admission_tests += 1
            if not _admit_survivor(cfg, taskset, screened_out):
                continue
            if stats is not None:
                stats.admitted += 1
            result.append(taskset)
            if len(result) >= sets_per_bin:
                consumed = position + 1
                break
        if consumed < block:
            # Rewind the overshoot: replay exactly the consumed draws so
            # the stream position matches the sequential generator.
            rng.setstate(state)
            for _ in range(consumed):
                draw_candidate(rng, cfg, target, grid_num, grid_den)
    if stats is not None:
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
    ``tests/property/test_prop_fastgen.py``); additionally records
    per-bin RNG start states into ``stats`` so pool workers can
    regenerate a single bin without replaying the whole sweep.
    """
    from .generator import GeneratorConfig

    cfg = config or GeneratorConfig()
    rng = random.Random(seed)
    result: Dict[Tuple[float, float], List[TaskSet]] = {
        tuple(b): [] for b in bins
    }
    started = time.monotonic()
    for bin_lo, bin_hi in result:
        if stats is not None:
            stats.bin_states[(bin_lo, bin_hi)] = rng.getstate()
        result[(bin_lo, bin_hi)] = fill_bin(
            rng, cfg, bin_lo, bin_hi, sets_per_bin, max_draws_per_bin, stats
        )
    if stats is not None:
        stats.seconds += time.monotonic() - started
    return result


def generate_single_bin(
    bin_range: Tuple[float, float],
    sets_per_bin: int,
    config=None,
    rng_state: Optional[tuple] = None,
    max_draws_per_bin: int = 5000,
) -> List[TaskSet]:
    """Regenerate exactly one bin of a deterministic generation.

    ``rng_state`` must be the RNG state at the start of that bin's fill
    loop within the full generation (captured in
    :attr:`GenerationStats.bin_states`); the returned sets are then
    identical to that generation's sets for the bin, at the cost of one
    bin -- not one sweep -- of draws and admission tests.
    """
    from .generator import GeneratorConfig

    cfg = config or GeneratorConfig()
    rng = random.Random()
    if rng_state is not None:
        rng.setstate(rng_state)
    bin_lo, bin_hi = bin_range
    return fill_bin(
        rng, cfg, float(bin_lo), float(bin_hi), sets_per_bin, max_draws_per_bin
    )
