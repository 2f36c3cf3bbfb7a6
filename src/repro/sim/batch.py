"""Batch simulation kernel: many independent runs in lockstep over arrays.

The scalar engine (:mod:`repro.sim.engine`) interprets one simulation at
a time through Python objects -- heap events, ready queues, job copies.
A utilization sweep runs hundreds of such simulations that differ only
in data (task set, scheme profile, fault draw), which makes them a
textbook candidate for array programming: this module advances a whole
*batch* of simulations together, one numpy operation per state-machine
step, with each simulation stepping to its **own** next event time every
iteration (the batch is lockstep in iteration count, not in simulated
time).

Array layout
------------

State lives in ``[S, N]`` int64 arrays (``S`` simulations, ``N`` the
largest task count, padded), mirroring the scalar engine's per-run
structures:

* at most one undecided logical job per task at any instant, so per-task
  *columns* suffice: ``cur_dl`` holds the undecided job's absolute
  deadline (``INF`` = decided / none);
* each logical job has at most two copies -- copy *A* (the MAIN, or the
  single OPTIONAL) and copy *B* (the BACKUP) -- stored as parallel
  ``enqueue/remaining/processor`` columns;
* per-processor dispatch state is an ``[S, 2]`` pair of column vectors
  (running task, its completion time), reusing the
  :class:`~repro.sim.folding.RunStats` ledger layout for busy ticks and
  the idle-gap multiset;
* (m,k) histories are packed into plain integers, bit 0 = newest
  outcome: the flexibility-degree window keeps the newest ``k - 1``
  outcomes and the violation tracker the newest ``k`` -- the same
  (mask, length) encoding the scalar engine's tracker uses, so both
  kernels walk literally the same integer sequences.

Equivalence contract
--------------------

Results must be **bit-identical** to the scalar engine's stats-only
mode.  The iteration order mirrors the engine's total order at a tick
``T``:  completions (processor 0 then 1) -> permanent fault ->
deadlines -> releases -> dispatch.  Two deliberate reorderings are
proven safe (see tests/property/test_prop_batch.py):

* *skipped* jobs are decided missed at their release instead of at
  their deadline event; per-task decide order is preserved because the
  previous job's deadline is at most this release and deadline events
  precede releases at the same tick;
* *infeasible* optionals are decided missed at their deadline instead
  of at the first pick that would have dropped them; both instants lie
  strictly before the task's next release, so every flexibility-degree
  read sees the same history either way.

Fallback rules
--------------

A simulation is batchable when its prepared policy publishes a
:class:`~repro.sim.profile.SchemeProfile` whose tasks are all
FD-classified or follow a window-periodic pattern, its fault scenario
cannot produce transient faults, no execution-time model is set, and
every ``k`` fits the packed-window encoding.  Anything else
returns None from :func:`build_batch_item` and runs on the scalar
engine -- correctness never depends on batchability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..model.history import (
    MKHistory,
    make_initial_history,
    packed_initial_window,
)
from ..model.patterns import is_window_periodic
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .engine import PolicyContext, SimulationError, SimulationResult
from .folding import RunStats
from .profile import SchemeProfile
from .timeline import ReleaseTimeline

try:  # pragma: no cover - import success is the normal path
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via a stubbed import
    _np = None

#: Sentinel "never" tick; far above any horizon yet safe to add small
#: offsets to without overflowing int64.
INF = 1 << 62

#: Largest (m,k) window depth the packed-integer histories support; a
#: task beyond it falls back to the scalar engine (generated workloads
#: cap k at 20).
MAX_PACKED_K = 60


def numpy_available() -> bool:
    """True when the numpy the batch kernel needs is importable."""
    return _np is not None


def require_numpy():
    """Return numpy or raise a :class:`ConfigurationError` telling the
    user how to get the batch backend (or how to avoid needing it)."""
    if _np is None:
        raise ConfigurationError(
            "the batch backend requires numpy, which is not installed; "
            "install it with 'pip install repro[batch]' or rerun with "
            "--backend pool"
        )
    return _np


def _popcount(np, values):
    """Per-element population count of non-negative int64 values."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values).astype(np.int64)
    # Shift-add fallback (no multiply, so no uint64 wraparound games);
    # valid for values < 2**62, far above MAX_PACKED_K bits.
    m1 = np.int64(0x5555555555555555)
    m2 = np.int64(0x3333333333333333)
    m4 = np.int64(0x0F0F0F0F0F0F0F0F)
    x = values.astype(np.int64, copy=True)
    x = x - ((x >> 1) & m1)
    x = (x & m2) + ((x >> 2) & m2)
    x = (x + (x >> 4)) & m4
    x = x + (x >> 8)
    x = x + (x >> 16)
    x = x + (x >> 32)
    return x & np.int64(0x7F)


@dataclass
class BatchItem:
    """One batchable simulation: workload, profile, and run parameters.

    Produced by :func:`build_batch_item`; consumed by :func:`run_batch`.
    ``power_model`` rides along so :func:`run_batch_payloads` can account
    energy exactly like the scalar sweep worker.
    """

    taskset: TaskSet
    scheme: str
    policy_name: str
    profile: SchemeProfile
    horizon_ticks: int
    timebase: TimeBase
    timeline: ReleaseTimeline
    permanent: Optional[Tuple[int, int]]
    power_model: object = None
    initial_history: str = "met"


def build_batch_item(
    taskset: TaskSet,
    scheme: str,
    scenario=None,
    horizon_cap_units: int = 2000,
    power_model=None,
    release_model=None,
    initial_history: str = "met",
    dvfs=None,
) -> Optional[BatchItem]:
    """Resolve one sweep job into a :class:`BatchItem`, or None.

    Mirrors :func:`repro.harness.runner.run_scheme`'s setup exactly --
    same cached horizon, same shared release timeline, same scenario
    materialization (which is pure, so a scalar fallback re-materializes
    identical faults).  Returns None whenever the job must run on the
    scalar engine: transient faults possible, a non-periodic release
    model (the kernel's lockstep release tables assume the periodic
    recurrence), a DVFS config applying to this scheme (the kernel's
    lockstep arrays know nothing of per-task stretched budgets), no
    profile or one the kernel cannot express (an ``"all"``
    classification, a pattern that is not window-periodic), or a window
    too deep to pack.
    """
    if _np is None:
        return None
    if release_model is not None and not release_model.is_periodic():
        return None
    if dvfs is not None and dvfs.applies_to(scheme):
        return None
    from ..analysis.cache import analysis_cache
    from ..analysis.hyperperiod import analysis_horizon
    from ..errors import UnknownSchemeError
    from ..faults.scenario import FaultScenario
    from ..harness.runner import SCHEME_FACTORIES
    from .timeline import shared_release_timeline

    try:
        factory = SCHEME_FACTORIES[scheme]
    except KeyError as exc:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from exc
    if any(task.mk.k > MAX_PACKED_K for task in taskset):
        return None
    base = taskset.timebase()
    horizon = analysis_cache().get(
        (
            "horizon",
            taskset.fingerprint(),
            base.ticks_per_unit,
            horizon_cap_units,
        ),
        lambda: analysis_horizon(taskset, base, horizon_cap_units),
    )
    scenario = scenario if scenario is not None else FaultScenario.none()
    transient, permanent = scenario.materialize(horizon, base)
    if not getattr(transient, "never_faults", False):
        return None
    policy = factory()
    histories = [
        make_initial_history(task.mk, initial_history) for task in taskset
    ]
    ctx = PolicyContext(
        taskset=taskset,
        timebase=base,
        horizon_ticks=horizon,
        histories=histories,
    )
    policy.prepare(ctx)
    profile = policy.profile(ctx)
    if profile is None or len(profile.tasks) != len(taskset):
        return None
    for task, rules in zip(taskset, profile.tasks):
        if rules.classification == "all":
            return None
        if rules.classification == "pattern" and not (
            is_window_periodic(rules.pattern)
            and rules.pattern.mk.k == task.mk.k
        ):
            return None
    timeline = shared_release_timeline(taskset, horizon, base)
    return BatchItem(
        taskset=taskset,
        scheme=scheme,
        policy_name=policy.name,
        profile=profile,
        horizon_ticks=horizon,
        timebase=base,
        timeline=timeline,
        permanent=permanent,
        power_model=power_model,
        initial_history=initial_history,
    )


def run_batch(
    items: List[BatchItem],
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[SimulationResult]:
    """Advance every item to completion in lockstep; one result each.

    ``progress(done, total)`` is invoked whenever the number of finished
    simulations grows (and once at the end).
    """
    np = require_numpy()
    if not items:
        return []
    kernel = _Kernel(np, items)
    kernel.run(progress)
    return kernel.finalize()


def run_batch_payloads(
    items: List[BatchItem],
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[Tuple[float, int, int]]:
    """Sweep-worker payloads ``(energy, violations, cycles_folded)``.

    Identical to what :func:`repro.harness.sweep._run_one` produces for
    the same jobs -- energy accounted through the Fraction-exact
    counters path, violations through the shared counting definition.
    The batch kernel never folds, so the third element is always 0.
    """
    from ..energy.accounting import energy_of_result
    from ..qos.metrics import collect_metrics

    results = run_batch(items, progress)
    payloads = []
    for item, result in zip(items, results):
        report = energy_of_result(result, model=item.power_model)
        metrics = collect_metrics(result)
        payloads.append((report.total_energy, metrics.mk_violations, 0))
    return payloads


class _Kernel:
    """The packed state and the lockstep advance loop.

    Everything is int64; boolean masks are numpy bool arrays.  The
    simulated-time semantics is exactly the scalar engine's -- comments
    below reference the equivalent engine step where the mapping is not
    obvious.
    """

    def __init__(self, np, items: List[BatchItem]) -> None:
        self.np = np
        self.items = items
        S = len(items)
        N = max(len(item.taskset) for item in items)
        self.S = S
        self.N = N

        i64 = np.int64
        full = lambda fill: np.full((S, N), fill, dtype=i64)  # noqa: E731
        zeros = lambda: np.zeros((S, N), dtype=i64)  # noqa: E731

        # -- static workload / profile tables ---------------------------
        self.valid = np.zeros((S, N), dtype=bool)
        self.period = full(INF)
        self.dl_rel = zeros()
        self.wcet = zeros()
        self.m_arr = np.ones((S, N), dtype=i64)
        self.k_arr = np.ones((S, N), dtype=i64)
        self.is_fd = np.zeros((S, N), dtype=bool)
        self.pat_mask = zeros()
        self.fd_max = zeros()
        self.main_proc = zeros()
        self.has_backup = np.zeros((S, N), dtype=bool)
        self.backup_off = zeros()
        self.opt_proc = zeros()
        self.alt_opt = np.zeros((S, N), dtype=bool)
        self.pf_off = np.zeros((S, N, 2), dtype=i64)
        self.pf_opt = np.zeros((S, N), dtype=bool)
        self.sticky_sim = np.zeros(S, dtype=bool)
        self.horizon = np.zeros(S, dtype=i64)
        self.task_count = np.zeros(S, dtype=i64)
        self.fault_proc = np.full(S, -1, dtype=i64)
        self.fault_tick = np.full(S, INF, dtype=i64)

        max_k = 1
        # Workload columns (tick conversions, (m,k) parameters) depend
        # only on (taskset, timebase); the same taskset appears once per
        # scheme x scenario, so cache the converted rows by identity.
        ts_cache: Dict[Tuple[int, int], Tuple[list, list, list, list, list]] = {}
        for s, item in enumerate(items):
            base = item.timebase
            self.horizon[s] = item.horizon_ticks
            self.task_count[s] = len(item.taskset)
            self.sticky_sim[s] = not item.profile.optional_preemption
            if item.permanent is not None:
                self.fault_proc[s] = item.permanent[0]
                self.fault_tick[s] = item.permanent[1]
            n = len(item.taskset)
            ts_key = (id(item.taskset), base.ticks_per_unit)
            cached = ts_cache.get(ts_key)
            if cached is None:
                cached = (
                    [base.to_ticks(t.period) for t in item.taskset],
                    [base.to_ticks(t.deadline) for t in item.taskset],
                    [base.to_ticks(t.wcet) for t in item.taskset],
                    [t.mk.m for t in item.taskset],
                    [t.mk.k for t in item.taskset],
                )
                ts_cache[ts_key] = cached
            per, dlr, wc, ms, ks = cached
            self.valid[s, :n] = True
            self.period[s, :n] = per
            self.dl_rel[s, :n] = dlr
            self.wcet[s, :n] = wc
            self.m_arr[s, :n] = ms
            self.k_arr[s, :n] = ks
            max_k = max(max_k, max(ks, default=1))
            for i, prof in enumerate(item.profile.tasks):
                if prof.classification == "fd":
                    self.is_fd[s, i] = True
                    self.fd_max[s, i] = (
                        INF if prof.fd_max is None else prof.fd_max
                    )
                else:
                    mask = 0
                    for bit, mandatory in enumerate(prof.pattern.window()):
                        if mandatory:
                            mask |= 1 << bit
                    self.pat_mask[s, i] = mask
                self.main_proc[s, i] = prof.main_processor
                if prof.backup_offset is not None:
                    self.has_backup[s, i] = True
                    self.backup_off[s, i] = prof.backup_offset
                self.opt_proc[s, i] = prof.optional_processor
                self.alt_opt[s, i] = prof.alternate_optionals
                self.pf_off[s, i, 0] = prof.postfault_main_offset[0]
                self.pf_off[s, i, 1] = prof.postfault_main_offset[1]
                self.pf_opt[s, i] = prof.postfault_optionals
        self.kmask = (np.int64(1) << self.k_arr) - np.int64(1)
        self.fdmask = (np.int64(1) << (self.k_arr - 1)) - np.int64(1)
        self.max_k = max_k
        self.survivor = np.where(self.fault_proc >= 0, 1 - self.fault_proc, 0)

        # -- shared release timelines (deduplicated) --------------------
        unique: Dict[int, int] = {}
        rows: List[ReleaseTimeline] = []
        self.tl_of = np.zeros(S, dtype=i64)
        for s, item in enumerate(items):
            key = id(item.timeline)
            if key not in unique:
                unique[key] = len(rows)
                rows.append(item.timeline)
            self.tl_of[s] = unique[key]
        lmax = max((len(tl.ticks) for tl in rows), default=0)
        self.rel_t = np.full((len(rows), lmax + 1), INF, dtype=i64)
        self.rel_task = np.zeros((len(rows), lmax + 1), dtype=i64)
        self.rel_job = np.zeros((len(rows), lmax + 1), dtype=i64)
        for u, tl in enumerate(rows):
            n = len(tl.ticks)
            if n:
                self.rel_t[u, :n] = tl.ticks
                self.rel_task[u, :n] = tl.tasks
                self.rel_job[u, :n] = tl.jobs
        self.cursor = np.zeros(S, dtype=i64)
        self.rel_next = self.rel_t[self.tl_of, 0]
        self.max_iterations = 8 * (lmax + 2) + 64

        # -- dynamic state ----------------------------------------------
        self.now = np.zeros(S, dtype=i64)
        self.alive = np.ones((S, 2), dtype=bool)
        self.fault_mode = np.zeros(S, dtype=bool)
        self.cur_dl = full(INF)
        # Copy enqueue ticks live in one [S, 2, N] block so the
        # next-event scan can min-reduce A and B copies in one pass;
        # a_enq/b_enq are writable views of it.
        self.ab_enq = np.full((S, 2, N), INF, dtype=i64)
        self.a_enq = self.ab_enq[:, 0, :]
        self.b_enq = self.ab_enq[:, 1, :]
        self.enq_flat = self.ab_enq.reshape(S, 2 * N)
        self.a_rem = zeros()
        self.a_proc = zeros()
        self.a_opt = np.zeros((S, N), dtype=bool)
        self.a_fd = zeros()
        self.a_key = zeros()
        self.b_rem = zeros()
        self.b_proc = zeros()
        self.run_task = np.full((S, 2), -1, dtype=i64)
        self.run_b = np.zeros((S, 2), dtype=bool)
        self.run_end = np.full((S, 2), INF, dtype=i64)
        self.sticky_task = np.full((S, 2), -1, dtype=i64)
        # Histories seed from each item's boundary condition; the default
        # all-met window is exactly the full k-1-bit mask.
        self.fd_win = self.fdmask.copy()
        for s, item in enumerate(items):
            if item.initial_history != "met":
                for t, task in enumerate(item.taskset):
                    self.fd_win[s, t] = packed_initial_window(
                        task.mk, item.initial_history
                    )
        self.tr_win = zeros()
        self.tr_cnt = zeros()
        self.violations = zeros()
        self.next_opt = self.opt_proc.copy()
        self.released_c = np.zeros(S, dtype=i64)
        self.effective_c = np.zeros(S, dtype=i64)
        self.missed_c = np.zeros(S, dtype=i64)
        self.mandatory_c = np.zeros(S, dtype=i64)
        self.optional_c = np.zeros(S, dtype=i64)
        self.skipped_c = np.zeros(S, dtype=i64)
        self.busy = np.zeros((S, 2), dtype=i64)
        self.gap_cursor = np.zeros((S, 2), dtype=i64)
        self.window_end = np.stack([self.horizon, self.horizon], axis=1)
        # Closed idle gaps, recorded as (sim_rows, processors, lengths)
        # array chunks and aggregated into per-sim multisets at finalize.
        self.gap_chunks: List[Tuple[object, object, object]] = []
        self.col = np.arange(N, dtype=i64)
        self.colrow = self.col[None, :]
        self.sim_ix = np.arange(S, dtype=i64)
        self.simN = self.sim_ix * N
        self.fd_shifts = np.arange(max(self.max_k - 1, 1), dtype=i64)
        self.any_sticky = bool(self.sticky_sim.any())
        # Processor axis for the [2, S, N] dual-dispatch op set, plus the
        # matching flat [2, S] gather base (p * S * N + sim * N).
        self.proc_axis = np.arange(2, dtype=i64).reshape(2, 1, 1)
        self.p_simN = (
            np.arange(2, dtype=i64) * (S * N)
        )[:, None] + self.simN[None, :]
        # Flat (1-D) views over the C-contiguous [S, N] state: `take` and
        # fancy stores on flat indices (row * N + task) are markedly
        # cheaper than 2-D fancy indexing in the hot loop.  ``ab_enq``
        # flattens to row * 2N + task (A copy) / + N (B copy).
        self.is_fd_f = self.is_fd.reshape(-1)
        self.k_arr_f = self.k_arr.reshape(-1)
        self.m_arr_f = self.m_arr.reshape(-1)
        self.kmask_f = self.kmask.reshape(-1)
        self.fdmask_f = self.fdmask.reshape(-1)
        self.pat_mask_f = self.pat_mask.reshape(-1)
        self.fd_max_f = self.fd_max.reshape(-1)
        self.pf_opt_f = self.pf_opt.reshape(-1)
        self.dl_rel_f = self.dl_rel.reshape(-1)
        self.wcet_f = self.wcet.reshape(-1)
        self.main_proc_f = self.main_proc.reshape(-1)
        self.has_backup_f = self.has_backup.reshape(-1)
        self.backup_off_f = self.backup_off.reshape(-1)
        self.opt_proc_f = self.opt_proc.reshape(-1)
        self.alt_opt_f = self.alt_opt.reshape(-1)
        self.pf_off_f = self.pf_off.reshape(-1)
        self.next_opt_f = self.next_opt.reshape(-1)
        self.cur_dl_f = self.cur_dl.reshape(-1)
        self.enq_1d = self.ab_enq.reshape(-1)
        self.a_rem_f = self.a_rem.reshape(-1)
        self.a_proc_f = self.a_proc.reshape(-1)
        self.a_opt_f = self.a_opt.reshape(-1)
        self.a_fd_f = self.a_fd.reshape(-1)
        self.a_key_f = self.a_key.reshape(-1)
        self.b_rem_f = self.b_rem.reshape(-1)
        self.b_proc_f = self.b_proc.reshape(-1)
        self.tr_win_f = self.tr_win.reshape(-1)
        self.tr_cnt_f = self.tr_cnt.reshape(-1)
        self.fd_win_f = self.fd_win.reshape(-1)
        self.violations_f = self.violations.reshape(-1)
        self.run_task_f = self.run_task.reshape(-1)
        self.run_b_f = self.run_b.reshape(-1)

    # -- history machinery ----------------------------------------------

    def _decide(self, rows, flat, bit) -> None:
        """Record the outcome of one undecided logical job per pair.

        ``flat`` is ``rows * N + task``; (sim, task) pairs are unique
        within a call, while ``rows`` may repeat (several tasks of one
        simulation deciding at one tick).  ``bit`` is 0, 1, or a 0/1
        vector (met / missed may be mixed in one call -- outcome state
        is per-(sim, task), so the decides commute).
        """
        np = self.np
        if rows.size == 0:
            return
        if isinstance(bit, int):
            inc = np.bincount(rows, minlength=self.S)
            if bit:
                self.effective_c += inc
            else:
                self.missed_c += inc
        else:
            met = bit == 1
            self.effective_c += np.bincount(rows[met], minlength=self.S)
            self.missed_c += np.bincount(rows[~met], minlength=self.S)
        k = self.k_arr_f.take(flat)
        win = ((self.tr_win_f.take(flat) << 1) | bit) & self.kmask_f.take(
            flat
        )
        cnt = np.minimum(self.tr_cnt_f.take(flat) + 1, k)
        self.tr_win_f[flat] = win
        self.tr_cnt_f[flat] = cnt
        closed = cnt == k
        fc = flat[closed]
        ones = _popcount(np, win[closed])
        bad = ones < self.m_arr_f.take(fc)
        self.violations_f[fc[bad]] += 1
        self.fd_win_f[flat] = (
            (self.fd_win_f.take(flat) << 1) | bit
        ) & self.fdmask_f.take(flat)

    def _flex_degree(self, flat):
        """Vectorized MKHistory.flexibility_degree over packed windows."""
        np = self.np
        win = self.fd_win_f.take(flat)
        m = self.m_arr_f.take(flat)
        k = self.k_arr_f.take(flat)
        # bits[:, j] = outcome j+1 steps back (bit 0 = newest); the
        # cumulative sum locates the m-th newest success, exactly
        # MKHistory's position argument p in fd = k - max(p, m).
        bits = (win[:, None] >> self.fd_shifts[None, :]) & 1
        cs = np.cumsum(bits, axis=1)
        found = cs[:, -1] >= m
        p = np.argmax(cs >= m[:, None], axis=1) + 1
        return np.where(found, k - np.maximum(p, m), 0)

    # -- the lockstep loop ----------------------------------------------

    def run(self, progress: Optional[Callable[[int, int], None]]) -> None:
        np = self.np
        S = self.S
        N = self.N
        twoN = 2 * N
        done_reported = 0
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_iterations:  # pragma: no cover
                raise SimulationError(
                    "batch kernel failed to converge (iteration cap hit); "
                    "this is a kernel bug -- rerun with --backend pool"
                )
            # 1. Each simulation's own next event time.
            old_now = self.now
            nt = np.minimum(self.run_end[:, 0], self.run_end[:, 1])
            nt = np.minimum(nt, self.rel_next)
            dlmin = self.cur_dl.min(axis=1)
            nt = np.minimum(nt, dlmin)
            ef = self.enq_flat
            nt = np.minimum(
                nt, np.where(ef > old_now[:, None], ef, INF).min(axis=1)
            )
            nt = np.minimum(nt, self.fault_tick)
            act = nt < INF
            if progress is not None:
                done = S - int(act.sum())
                if done > done_reported:
                    done_reported = done
                    progress(done, S)
            if not act.any():
                break
            # 2. Advance running copies to nt; close idle gaps.
            moved = act & (nt > old_now)
            running2 = moved[:, None] & (self.run_task >= 0)
            rr, pp = np.nonzero(running2)
            if rr.size:
                nowc = old_now[:, None]
                start_ok = running2 & (nowc < self.horizon[:, None])
                self.busy += np.where(
                    start_ok,
                    np.minimum(nt, self.horizon)[:, None] - nowc,
                    0,
                )
                gs = self.gap_cursor
                glen = np.minimum(nowc, self.window_end) - gs
                close = running2 & (nowc > gs) & (glen > 0)
                if close.any():
                    crow, cproc = np.nonzero(close)
                    self.gap_chunks.append((crow, cproc, glen[close]))
                self.gap_cursor = np.where(running2, nt[:, None], gs)
                dtv = (nt - old_now)[rr]
                rp = rr * 2 + pp
                tcol = self.run_task_f.take(rp)
                bsel = self.run_b_f.take(rp)
                nb = ~bsel
                rflat = rr * N + tcol
                self.a_rem_f[rflat[nb]] -= dtv[nb]
                self.b_rem_f[rflat[bsel]] -= dtv[bsel]
            self.now = np.where(act, nt, old_now)
            now = self.now
            # 3. Completions, primary first (engine completion order).
            comp2 = (
                act[:, None]
                & (self.run_task >= 0)
                & (self.run_end == now[:, None])
            )
            dec_parts = []
            for p in (0, 1):
                # Re-check the run slot: processor 0's completion cancels
                # a same-tick-completing sibling backup on processor 1
                # (the engine's no-op handle_completion on it).
                rows = np.nonzero(comp2[:, p] & (self.run_task[:, p] >= 0))[0]
                if rows.size == 0:
                    continue
                t = self.run_task[rows, p]
                self.run_task[rows, p] = -1
                self.run_end[rows, p] = INF
                st = self.sticky_task[rows, p]
                self.sticky_task[rows, p] = np.where(st == t, -1, st)
                # Finished copy and its sibling both retire (the engine
                # cancels the unfinished sibling; a same-tick-finished
                # sibling's completion handler is a proven no-op).
                af = rows * twoN + t
                self.enq_1d[af] = INF
                self.enq_1d[af + N] = INF
                op = 1 - p
                sib = self.run_task[rows, op] == t
                srows = rows[sib]
                self.run_task[srows, op] = -1
                self.run_end[srows, op] = INF
                cf = rows * N + t
                und = self.cur_dl_f.take(cf) != INF
                ur, uf = rows[und], cf[und]
                # Clear the deadline NOW (the deadline scan below must
                # not re-decide a job that completed at its deadline
                # tick); the decide itself is deferred and merged with
                # the deadline decides -- the pairs are distinct (a
                # same-task same-tick sibling was filtered by the
                # run-slot re-check above) and outcome state is
                # per-(sim, task), so the decides commute.
                self.cur_dl_f[uf] = INF
                dec_parts.append((ur, uf, 1))
            # 4. Permanent faults (same-tick completions already landed).
            pf = act & (self.fault_tick == now)
            rows = np.nonzero(pf)[0]
            if rows.size:
                dead = self.fault_proc[rows]
                self.alive[rows, dead] = False
                self.fault_mode[rows] = True
                self.window_end[rows, dead] = np.minimum(
                    now[rows], self.horizon[rows]
                )
                self.fault_tick[rows] = INF
                deadcol = dead[:, None]
                self.a_enq[rows] = np.where(
                    self.a_proc[rows] == deadcol, INF, self.a_enq[rows]
                )
                self.b_enq[rows] = np.where(
                    self.b_proc[rows] == deadcol, INF, self.b_enq[rows]
                )
                self.run_task[rows, dead] = -1
                self.run_end[rows, dead] = INF
                self.sticky_task[rows, dead] = -1
            # 5. Deadlines: abandon every unfinished copy (running ones
            # included), then decide missed.  ``dlmin`` predates this
            # tick's completions, which only raise deadlines to INF, so
            # the gate is conservative (may scan and find nothing).
            if (act & (dlmin == nt)).any():
                dmask = act[:, None] & (self.cur_dl == now[:, None])
                rows, ts = np.nonzero(dmask)
            else:
                rows = ts = self.sim_ix[:0]
            if rows.size:
                af = rows * twoN + ts
                self.enq_1d[af] = INF
                self.enq_1d[af + N] = INF
                for p in (0, 1):
                    hit = self.run_task[rows, p] == ts
                    hr = rows[hit]
                    self.run_task[hr, p] = -1
                    self.run_end[hr, p] = INF
                    st = self.sticky_task[rows, p]
                    shit = st == ts
                    self.sticky_task[rows[shit], p] = -1
                nf = rows * N + ts
                self.cur_dl_f[nf] = INF
                dec_parts.append((rows, nf, 0))
            # Merged completion + deadline decides, ahead of the release
            # scan (a same-tick release of the same task must read the
            # updated history).
            if dec_parts:
                if len(dec_parts) == 1:
                    dr, df, b = dec_parts[0]
                    self._decide(dr, df, b)
                else:
                    dr = np.concatenate([part[0] for part in dec_parts])
                    df = np.concatenate([part[1] for part in dec_parts])
                    bits = np.concatenate(
                        [
                            np.full(part[0].size, part[2], dtype=np.int64)
                            for part in dec_parts
                        ]
                    )
                    self._decide(dr, df, bits)
            # 6. Releases.  Same-tick layers are gathered first (cursor
            # walking only), then planned in ONE vectorized round:
            # same-tick releases belong to distinct tasks (periods are
            # at least one tick), and every read a release plan makes is
            # per-(sim, task), so the layers are independent.
            rel = act & (self.rel_next == now)
            if rel.any():
                parts = []
                while True:
                    rows = np.nonzero(rel)[0]
                    if rows.size == 0:
                        break
                    u = self.tl_of[rows]
                    c = self.cursor[rows]
                    parts.append(
                        (rows, self.rel_task[u, c], self.rel_job[u, c])
                    )
                    self.cursor[rows] = c + 1
                    nxt = self.rel_t[u, c + 1]
                    self.rel_next[rows] = nxt
                    rel[rows] = nxt == now[rows]
                if len(parts) == 1:
                    rows, t, j = parts[0]
                else:
                    rows = np.concatenate([part[0] for part in parts])
                    t = np.concatenate([part[1] for part in parts])
                    j = np.concatenate([part[2] for part in parts])
                self._release_round(rows, t, j, now)
            # 7. Dispatch (fresh argmin == engine displacement + pick).
            self._dispatch(now)

    def _release_round(self, rows, t, j, now) -> None:
        np = self.np
        N = self.N
        flat = rows * N + t
        aflat = rows * (2 * N) + t  # A-copy slot in the flat enq block
        enq = self.enq_1d
        rnow = now[rows]
        isf = self.is_fd_f.take(flat)
        fd = self._flex_degree(flat)
        phase = (j - 1) % self.k_arr_f.take(flat)
        pbit = (self.pat_mask_f.take(flat) >> phase) & 1
        mand = np.where(isf, fd == 0, pbit == 1)
        fm = self.fault_mode[rows]
        opt = (
            isf
            & ~mand
            & (fd <= self.fd_max_f.take(flat))
            & (~fm | self.pf_opt_f.take(flat))
        )
        skip = ~(mand | opt)
        # ``rows`` may repeat (several tasks released at one tick), so
        # count through bincount rather than fancy-index increments.
        S = self.S
        self.released_c += np.bincount(rows, minlength=S)
        self.mandatory_c += np.bincount(rows[mand], minlength=S)
        self.optional_c += np.bincount(rows[opt], minlength=S)
        self.skipped_c += np.bincount(rows[skip], minlength=S)
        dl = rnow + self.dl_rel_f.take(flat)
        keep = ~skip
        self.cur_dl_f[flat[keep]] = dl[keep]
        # Skipped jobs decide missed now (engine: at the deadline event;
        # proven order-equivalent, see the module docstring).
        self._decide(rows[skip], flat[skip], 0)
        wc = self.wcet_f.take(flat)
        sv = self.survivor[rows]
        # Mandatory, fault-free: MAIN at release (+ postponed BACKUP).
        sel = mand & ~fm
        fs = flat[sel]
        self.a_rem_f[fs] = wc[sel]
        mp = self.main_proc_f.take(fs)
        self.a_proc_f[fs] = mp
        self.a_opt_f[fs] = False
        enq[aflat[sel]] = rnow[sel]
        hb = self.has_backup_f.take(fs)
        fb = fs[hb]
        enq[aflat[sel][hb] + N] = rnow[sel][hb] + self.backup_off_f.take(fb)
        self.b_rem_f[fb] = wc[sel][hb]
        self.b_proc_f[fb] = 1 - mp[hb]
        # Mandatory, post-fault: single MAIN on the survivor, offset.
        sel = mand & fm
        fs = flat[sel]
        svs = sv[sel]
        enq[aflat[sel]] = rnow[sel] + self.pf_off_f.take(fs * 2 + svs)
        self.a_rem_f[fs] = wc[sel]
        self.a_proc_f[fs] = svs
        self.a_opt_f[fs] = False
        # Optional, fault-free: alternating or pinned processor.
        sel = opt & ~fm
        fs = flat[sel]
        alt = self.alt_opt_f.take(fs)
        nxt = self.next_opt_f.take(fs)
        self.a_proc_f[fs] = np.where(alt, nxt, self.opt_proc_f.take(fs))
        self.next_opt_f[fs] = np.where(alt, 1 - nxt, nxt)
        enq[aflat[sel]] = rnow[sel]
        self.a_rem_f[fs] = wc[sel]
        self.a_opt_f[fs] = True
        fds = fd[sel]
        self.a_fd_f[fs] = fds
        self.a_key_f[fs] = fds * (N + 1) + t[sel]
        # Optional, post-fault: survivor, no alternation flip.
        sel = opt & fm
        fs = flat[sel]
        enq[aflat[sel]] = rnow[sel]
        self.a_rem_f[fs] = wc[sel]
        self.a_proc_f[fs] = sv[sel]
        self.a_opt_f[fs] = True
        fds = fd[sel]
        self.a_fd_f[fs] = fds
        self.a_key_f[fs] = fds * (N + 1) + t[sel]

    def _dispatch(self, now) -> None:
        """Pick both processors' running jobs in one [2, S, N] op set.

        The engine dispatches processor 0 then 1, but the picks are
        independent (every copy is bound to exactly one processor and
        the held-optional slot is per-processor), so both compute
        together; axis 0 is the processor.
        """
        np = self.np
        N = self.N
        S = self.S
        now2 = now[:, None]
        a_live = (self.a_enq <= now2) & (self.a_rem > 0)
        b_live = (self.b_enq <= now2) & (self.b_rem > 0)
        a_feas = now2 + self.a_rem <= self.cur_dl
        pz = self.proc_axis
        # Mandatory candidates: MAIN copies bound here + BACKUP copies
        # bound here; the engine's MJQ orders them by task index (at most
        # one live mandatory copy per task per processor).  A task never
        # has both its copies bound to one processor, so membership in
        # ``bcand`` decides which copy a chosen task runs.
        bcand = b_live[None] & (self.b_proc[None] == pz)
        abound = a_live[None] & (self.a_proc[None] == pz)
        mcand = (abound & ~self.a_opt[None]) | bcand
        # First True along a task row == lowest task index == MJQ head.
        msel = mcand.argmax(axis=2)
        mhas = mcand.any(axis=2)
        # Optional candidates: feasible (can still meet the deadline),
        # ordered by (flexibility degree at release, task index) --
        # ``a_key``, precomputed at release.
        ocand = abound & (self.a_opt & a_feas)[None]
        okey = np.where(ocand, self.a_key[None], INF)
        osel = okey.argmin(axis=2)
        ohas = ocand.any(axis=2)
        if self.any_sticky:
            # A held (sticky) optional resumes ahead of the queue while
            # it stays feasible; it falls out of its slot otherwise.
            st = self.sticky_task.T
            has_st = st >= 0
            if has_st.any():
                st_ix = np.where(has_st, st, 0)
                st_ok = has_st & ocand.take(self.p_simN + st_ix)
                self.sticky_task[:] = np.where(
                    has_st & ~st_ok, -1, st
                ).T
                st = self.sticky_task.T
            else:
                st_ix = st
                st_ok = has_st
            use_st = ~mhas & st_ok
            use_o = ~mhas & ~st_ok & ohas
            chosen = np.where(
                mhas,
                msel,
                np.where(use_st, st_ix, np.where(use_o, osel, -1)),
            )
        else:
            use_o = ~mhas & ohas
            chosen = np.where(mhas, msel, np.where(use_o, osel, -1))
        disp = self.alive.T & (chosen >= 0)
        pr, sr = np.nonzero(disp)
        ct = chosen[pr, sr]
        cflat = sr * N + ct
        isb = mhas[pr, sr] & bcand.take(pr * (S * N) + cflat)
        rem = np.where(
            isb, self.b_rem_f.take(cflat), self.a_rem_f.take(cflat)
        )
        self.run_task.fill(-1)
        self.run_task[sr, pr] = ct
        self.run_b[sr, pr] = isb
        self.run_end.fill(INF)
        self.run_end[sr, pr] = now[sr] + rem
        if self.any_sticky:
            # A freshly dispatched optional becomes the held job under
            # the non-preemptive (sticky) dispatch rule.
            stick = use_o & disp & self.sticky_sim[None, :]
            if stick.any():
                spr, ssr = np.nonzero(stick)
                self.sticky_task[ssr, spr] = chosen[stick]

    # -- results ----------------------------------------------------------

    def finalize(self) -> List[SimulationResult]:
        np = self.np
        # Close the final idle gap of each accounting window (engine
        # end-of-run behaviour: a never-running processor contributes one
        # horizon-long gap).
        glen2 = self.window_end - self.gap_cursor
        last = glen2 > 0
        if last.any():
            lrow, lproc = np.nonzero(last)
            self.gap_chunks.append((lrow, lproc, glen2[last]))
        gap_counts: List[List[Dict[int, int]]] = [
            [{}, {}] for _ in range(self.S)
        ]
        if self.gap_chunks:
            rows = np.concatenate([part[0] for part in self.gap_chunks])
            procs = np.concatenate([part[1] for part in self.gap_chunks])
            lens = np.concatenate([part[2] for part in self.gap_chunks])
            trips, counts = np.unique(
                np.stack([rows, procs, lens]), axis=1, return_counts=True
            )
            for s, p, length, count in zip(
                trips[0].tolist(),
                trips[1].tolist(),
                trips[2].tolist(),
                counts.tolist(),
            ):
                bucket = gap_counts[s][p]
                bucket[length] = bucket.get(length, 0) + count
        results = []
        for s, item in enumerate(self.items):
            n = int(self.task_count[s])
            stats = RunStats(n)
            stats.busy = [int(self.busy[s, 0]), int(self.busy[s, 1])]
            stats.gap_counts = gap_counts[s]
            stats.released = int(self.released_c[s])
            stats.effective = int(self.effective_c[s])
            stats.missed = int(self.missed_c[s])
            stats.mandatory = int(self.mandatory_c[s])
            stats.optional_executed = int(self.optional_c[s])
            stats.skipped = int(self.skipped_c[s])
            stats.violations = [int(v) for v in self.violations[s, :n]]
            results.append(
                SimulationResult(
                    taskset=item.taskset,
                    timebase=item.timebase,
                    horizon_ticks=item.horizon_ticks,
                    policy_name=item.policy_name,
                    trace=None,
                    permanent_fault=item.permanent,
                    transient_fault_count=0,
                    released_jobs=int(self.released_c[s]),
                    stats=stats,
                    busy_by_processor=(
                        int(self.busy[s, 0]),
                        int(self.busy[s, 1]),
                    ),
                    cycles_folded=0,
                    fold_cycle_ticks=0,
                )
            )
        return results
