"""The batch kernel: the packed state and the lockstep advance loop.

Imported by :mod:`repro.sim.batch` on the first batch run; see that
module for the front (batch items, fallback rules, payloads).

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
  (running task, its completion time), with busy ticks and gap cursors
  beside it; each closed idle gap is one int64 key ``(2 * sim +
  processor) * gap_span + length``, counted into the
  :class:`~repro.sim.folding.RunStats` gap multisets only once the
  lockstep state is gone;
* releases are derived, not tabled: task i releases job j at
  ``(j - 1) * P_i``, so a per-task next-release column replaces the
  engine's shared release timeline;
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

Transient faults
----------------

The engine asks its transient-fault oracle once per completing copy, in
completion order: ticks ascending and, within a tick, processor 0 before
processor 1 -- including a copy that finishes on processor 1 in the same
tick its sibling's success on processor 0 cancelled it.  A
:class:`~repro.faults.transient.PoissonTransientFaults` oracle answers
draw ``n`` of its seeded stream ``< fault_probability(C_i)``, and each
logical job has at most two copies (no recoveries here), so a run never
makes more than ``2 * releases`` draws.  :func:`build_batch_item` takes
that many draws from the item's own materialized oracle and keeps only
the ``(n, u)`` pairs with ``u`` below the task set's largest fault
probability: no other draw can fault.  The kernel counts each run's
completions in the same order and compares draw ``n`` with the
completing task's probability -- the same float from the same
``math.exp`` -- so it faults exactly the copies the engine faults.  At
the paper's λ = 1e-6/ms almost no draw survives the filter, and a batch
without surviving draws does no fault bookkeeping at all.

A faulted copy follows the engine's rules: it retires alone, its
sibling stays live, and only an optional's job is decided (missed) at
the completion; a mandatory job whose copies all faulted is decided
missed at its deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..model.history import packed_initial_window
from .engine import SimulationError, SimulationResult
from .folding import RunStats

if TYPE_CHECKING:  # pragma: no cover
    from .batch import BatchItem

#: Sentinel "never" tick; far above any horizon yet safe to add small
#: offsets to without overflowing int64.
INF = 1 << 62


def _popcount(np, values):
    """Per-element population count of non-negative int64 values."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values).astype(np.int64)
    # Shift-add fallback (no multiply, so no uint64 wraparound games);
    # valid for values < 2**62, far above the 60-bit packed windows.
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


def run_kernel(
    np,
    items: "List[BatchItem]",
    progress: Optional[Callable[[int, int], None]] = None,
) -> "Ledger":
    """Advance every item to completion in lockstep.

    Returns the per-simulation counters; the lockstep state is freed
    before the idle-gap ledger is counted, so the two never coexist.
    ``progress(done, total)`` is invoked whenever the number of finished
    simulations grows (and once at the end).
    """
    kernel = _Kernel(np, items)
    kernel.run(progress)
    ledger = Ledger(kernel)
    del kernel
    ledger.count_gaps(np)
    return ledger


class Ledger:
    """The per-simulation counters a finished kernel hands over.

    Plain Python lists plus the sorted idle-gap keys; each simulation's
    :class:`RunStats` (with its gap multiset) is built only when its
    result is requested.
    """

    def __init__(self, kernel: "_Kernel") -> None:
        self.S = kernel.S
        self.busy = kernel.busy.tolist()
        self.released = kernel.released_c.tolist()
        self.effective = kernel.effective_c.tolist()
        self.missed = kernel.missed_c.tolist()
        self.mandatory = kernel.mandatory_c.tolist()
        self.optional = kernel.optional_c.tolist()
        self.skipped = kernel.skipped_c.tolist()
        self.violations = kernel.violations.tolist()
        self.task_count = kernel.task_count.tolist()
        self.faults = (
            kernel.fault_count.tolist() if kernel.can_fault else [0] * kernel.S
        )
        self.gap_span = kernel.gap_span
        self.gap_chunks = kernel.closed_gaps()

    def count_gaps(self, np) -> None:
        """Fold the gap chunks into sorted distinct keys and counts."""
        chunks, self.gap_chunks = self.gap_chunks, None
        keys = np.concatenate(chunks) if chunks else np.zeros(0, np.int64)
        del chunks
        self.gap_keys, self.gap_counts = np.unique(keys, return_counts=True)
        # Keys sort by (sim, processor): row r = 2 * sim + processor owns
        # the slice [bounds[r], bounds[r + 1]).
        self.gap_bounds = np.searchsorted(
            self.gap_keys,
            np.arange(2 * self.S + 1, dtype=np.int64) * self.gap_span,
        ).tolist()

    def result(self, s: int, item: BatchItem) -> SimulationResult:
        n = self.task_count[s]
        stats = RunStats(n)
        busy = self.busy[s]
        stats.busy = list(busy)
        span = self.gap_span
        for p in (0, 1):
            lo = self.gap_bounds[2 * s + p]
            hi = self.gap_bounds[2 * s + p + 1]
            stats.gap_counts[p] = dict(
                zip(
                    (self.gap_keys[lo:hi] % span).tolist(),
                    self.gap_counts[lo:hi].tolist(),
                )
            )
        stats.released = self.released[s]
        stats.effective = self.effective[s]
        stats.missed = self.missed[s]
        stats.mandatory = self.mandatory[s]
        stats.optional_executed = self.optional[s]
        stats.skipped = self.skipped[s]
        stats.violations = self.violations[s][:n]
        return SimulationResult(
            taskset=item.taskset,
            timebase=item.timebase,
            horizon_ticks=item.horizon_ticks,
            policy_name=item.policy_name,
            trace=None,
            permanent_fault=item.permanent,
            transient_fault_count=self.faults[s],
            released_jobs=self.released[s],
            stats=stats,
            busy_by_processor=tuple(busy),
            cycles_folded=0,
            fold_cycle_ticks=0,
        )


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

        # -- periodic releases -----------------------------------------
        # Task i releases job j at (j - 1) * P_i, strictly before the
        # horizon -- the engine's shared timeline, derived per task:
        # ``next_rel`` is each task's next release tick (INF once past
        # the horizon, and for padding) and ``rel_next`` its row minimum.
        self.next_rel = np.where(self.valid, 0, INF)
        self.rel_next = self.next_rel.min(axis=1)
        releases = np.where(
            self.valid, (self.horizon[:, None] - 1) // self.period + 1, 0
        ).sum(axis=1)
        self.max_iterations = 8 * (int(releases.max()) + 2) + 64

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
        # Closed idle gaps, one int64 key each: (2 * sim + processor) *
        # gap_span + length (a gap never outlasts its horizon), kept as
        # per-iteration chunks and counted into multisets at the end.
        self.gap_span = int(self.horizon.max()) + 1
        self.gap_chunks: List[object] = []
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
        self.period_f = self.period.reshape(-1)
        self.next_rel_f = self.next_rel.reshape(-1)
        self.next_opt_f = self.next_opt.reshape(-1)
        self.cur_dl_f = self.cur_dl.reshape(-1)
        self.enq_1d = self.ab_enq.reshape(-1)
        self.a_rem_f = self.a_rem.reshape(-1)
        self.a_proc_f = self.a_proc.reshape(-1)
        self.a_opt_f = self.a_opt.reshape(-1)
        self.a_key_f = self.a_key.reshape(-1)
        self.b_rem_f = self.b_rem.reshape(-1)
        self.b_proc_f = self.b_proc.reshape(-1)
        self.tr_win_f = self.tr_win.reshape(-1)
        self.tr_cnt_f = self.tr_cnt.reshape(-1)
        self.fd_win_f = self.fd_win.reshape(-1)
        self.violations_f = self.violations.reshape(-1)
        self.run_task_f = self.run_task.reshape(-1)
        self.run_b_f = self.run_b.reshape(-1)

        # -- transient faults (only when some draw can fault) -----------
        self.can_fault = any(item.fault_draws for item in items)
        if self.can_fault:
            # Per run: its candidate draws (completion index, uniform)
            # in index order, closed by an INF sentinel; ``cand_next`` is
            # the index of the run's next candidate, ``completions`` the
            # index the run's next completing copy draws.
            self.fault_p = np.zeros((S, N))
            index: List[int] = []
            draws: List[float] = []
            starts = []
            for s, item in enumerate(items):
                if item.fault_draws:
                    n = len(item.fault_probability)
                    self.fault_p[s, :n] = item.fault_probability
                starts.append(len(index))
                for at, draw in item.fault_draws:
                    index.append(at)
                    draws.append(draw)
                index.append(INF)
                draws.append(1.0)
            self.fault_p_f = self.fault_p.reshape(-1)
            self.cand_at = np.array(index, dtype=i64)
            self.cand_u = np.array(draws)
            self.cand_ptr = np.array(starts, dtype=i64)
            self.cand_next = self.cand_at[self.cand_ptr]
            self.completions = np.zeros(S, dtype=i64)
            self.fault_count = np.zeros(S, dtype=i64)

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

    def _faulted(self, rows, flat):
        """Draw for each completing copy; a mask of the faulted ones.

        ``rows`` are distinct (one processor's completions at one tick),
        and each run draws in its completion order.  Returns None when
        no copy reached a candidate draw (nothing can have faulted).
        """
        np = self.np
        at = self.completions[rows]
        self.completions[rows] = at + 1
        hit = at == self.cand_next[rows]
        if not hit.any():
            return None
        hr = rows[hit]
        ptr = self.cand_ptr[hr]
        self.cand_ptr[hr] = ptr + 1
        self.cand_next[hr] = self.cand_at[ptr + 1]
        bad = np.zeros(rows.size, dtype=bool)
        bad[hit] = self.cand_u[ptr] < self.fault_p_f.take(flat[hit])
        self.fault_count[rows[bad]] += 1
        return bad

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
                    # flatnonzero of an [S, 2] mask is 2 * sim + processor.
                    self.gap_chunks.append(
                        np.flatnonzero(close) * self.gap_span + glen[close]
                    )
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
                # Re-check the run slot: processor 0's success cancels a
                # sibling still running on processor 1.
                rows = np.nonzero(comp2[:, p] & (self.run_task[:, p] >= 0))[0]
                if rows.size == 0:
                    continue
                t = self.run_task[rows, p]
                self.run_task[rows, p] = -1
                self.run_end[rows, p] = INF
                st = self.sticky_task[rows, p]
                self.sticky_task[rows, p] = np.where(st == t, -1, st)
                cf = rows * N + t
                if self.can_fault:
                    bad = self._faulted(rows, cf)
                    if bad is not None:
                        # A faulted copy retires alone and leaves its
                        # sibling live; only an optional's job is decided
                        # (missed) now, a mandatory one waits for its
                        # other copy or its deadline.
                        fo = cf[bad]
                        fo = fo[
                            self.a_opt_f.take(fo)
                            & (self.cur_dl_f.take(fo) != INF)
                        ]
                        self.cur_dl_f[fo] = INF
                        dec_parts.append((fo // N, fo, 0))
                        good = ~bad
                        rows, t, cf = rows[good], t[good], cf[good]
                # Finished copy and its sibling both retire (the engine
                # cancels the unfinished sibling).
                af = rows * twoN + t
                self.enq_1d[af] = INF
                self.enq_1d[af + N] = INF
                op = 1 - p
                # A sibling finishing in this same tick still completes --
                # and draws -- on its own processor (the engine's
                # handle_completion of a cancelled copy); its job is
                # already decided, so nothing else changes.
                sib = (self.run_task[rows, op] == t) & (
                    self.run_end[rows, op] != now[rows]
                )
                srows = rows[sib]
                self.run_task[srows, op] = -1
                self.run_end[srows, op] = INF
                und = self.cur_dl_f.take(cf) != INF
                ur, uf = rows[und], cf[und]
                # Clear the deadline NOW (the deadline scan below must
                # not re-decide a job that completed at its deadline
                # tick); the decide itself is deferred and merged with
                # the deadline decides -- the pairs are distinct (a
                # same-tick sibling either lost its run slot above or
                # finds its job already decided) and outcome state is
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
            # 6. Releases, planned in ONE vectorized round: same-tick
            # releases belong to distinct tasks, and every read a
            # release plan makes is per-(sim, task), so the engine's
            # same-tick release order does not matter here.
            rel = act & (self.rel_next == now)
            if rel.any():
                due_rows = np.nonzero(rel)[0]
                rr, t = np.nonzero(
                    self.next_rel[due_rows] == now[due_rows, None]
                )
                rows = due_rows[rr]
                flat = rows * N + t
                rnow = now[rows]
                period = self.period_f.take(flat)
                nxt = rnow + period
                self.next_rel_f[flat] = np.where(
                    nxt < self.horizon[rows], nxt, INF
                )
                self.rel_next[due_rows] = self.next_rel[due_rows].min(axis=1)
                self._release_round(rows, t, rnow // period + 1, now)
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
        self.a_key_f[fs] = fd[sel] * (N + 1) + t[sel]
        # Optional, post-fault: survivor, no alternation flip.
        sel = opt & fm
        fs = flat[sel]
        enq[aflat[sel]] = rnow[sel]
        self.a_rem_f[fs] = wc[sel]
        self.a_proc_f[fs] = sv[sel]
        self.a_opt_f[fs] = True
        self.a_key_f[fs] = fd[sel] * (N + 1) + t[sel]

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

    def closed_gaps(self) -> List[object]:
        """Every idle-gap key chunk, the final gaps included.

        Closes each accounting window's last gap (engine end-of-run
        behaviour: a never-running processor contributes one
        horizon-long gap) and hands the chunk list over.
        """
        np = self.np
        last = self.window_end - self.gap_cursor
        tail = last > 0
        if tail.any():
            self.gap_chunks.append(
                np.flatnonzero(tail) * self.gap_span + last[tail]
            )
        chunks, self.gap_chunks = self.gap_chunks, []
        return chunks
