"""The batch kernel: the packed state and the lockstep advance loop.

Imported by :mod:`repro.sim.batch` on the first batch run; see that
module for the front (batch items, fallback rules, payloads).

The loop is bound by per-call numpy overhead, not by the work inside a
call (a batch holds ~100 simulations of ~10 tasks), so the layout is
chosen to make each lockstep iteration issue as few numpy calls as
possible, and each call goes to numpy's cheapest entry point: the
loop's constants are 0-d arrays (an operation with a Python int operand
costs about twice one with an array operand), a guard counts a mask
with ``np.count_nonzero`` rather than asking ``mask.any()`` (about a
fifth of the cost), and reductions call the ufunc methods
(``np.minimum.reduce``, ``np.add.accumulate``) rather than the array
methods that wrap them.

Array layout
------------

``S`` simulations advance together; ``N`` is the largest task count
(shorter rows are padded).  Each logical job has at most two copies:
copy *A* (the MAIN, or the single OPTIONAL) and copy *B* (the BACKUP).
Every table is *simulation-minor* -- ``[rows, S]`` -- so reductions
over a simulation's copies or events run across rows, vectorized over
the batch, and one flat index ``t * S + sim`` addresses task ``t`` of a
simulation in every table.  Every tick the next-event scan reads sits in
one int64 **event table** ``ev``, in row sections:

* ``[0, 2N]`` -- the copy table's enqueue ticks: copy A of task ``t`` in
  row ``t``, its backup in row ``N + t`` (INF = no live copy), and row
  ``2N``, a never-live sink that idle run slots point at;
* ``DL + t`` -- task ``t``'s undecided job's absolute deadline (INF =
  decided / none): at most one job per task is undecided at any
  instant, so per-task rows suffice;
* ``REL + t`` -- task ``t``'s next release: it releases job ``j`` at
  ``(j - 1) * P_t``, strictly before the horizon, so the engine's
  shared release timeline is derived per task;
* ``RUN + p`` -- the completion tick of processor ``p``'s running copy;
* ``FLT`` -- the permanent-fault tick.

The rest of the copy table -- remaining work, feasibility deadline and
dispatch keys -- has the same ``2N + 1`` rows.  The dispatch key
encodes the engine's ready-queue order per processor: mandatory copies
(mains and backups) by task index, then the held optional of a
non-preemptive scheme, then optionals by (flexibility degree at release,
task index); the copy's row is its low digit.  Keys are kept per
processor (``[2, 2N + 1, S]``, INF on the processor a copy is not bound
to), so one masked min both orders and locates every processor's pick.
A run slot stores its copy's row, and the advance step subtracts the
elapsed time through one flat index per slot.

The next-event scan needs no mask either: it takes one unsigned min of
``ev - (now + 1)`` per column and adds ``now + 1`` back.  A tick past
``now`` stays a small non-negative difference, a queued copy's tick (at
or before ``now``) wraps to at least 2**63, above every live tick's
difference, and the sink row keeps INF in every column, so a column
with nothing past ``now`` reads INF.

A simulation finishes when its event column holds nothing past its
``now``, and nothing touches its column after that.  Once the finished
columns are a quarter of the width, they retire at the end of the
iteration: every pending outcome mark is recorded, their counters go to
result arrays of the original width, every per-simulation table keeps
only the live columns, and the flat views and width-dependent operands
are re-derived.  Idle-gap keys keep the original ``processor * S0 +
sim`` encoding and ``progress`` reports against the original width.

Per-task rules (period, deadline, WCET, (m,k), classification, the
scheme profile's processors and offsets) are one ``[N * S, F]`` table,
gathered in one call per release round.  A permanent fault overwrites
the fault-dependent fields of its simulation, so the release round has
no fault-mode branches.

(m,k) histories are packed into plain integers, bit 0 = newest outcome:
one ``k``-bit window per task seeds from the initial history and serves
both readers -- the flexibility degree (the ``m``-th newest success in
the window) and the violation tracker, which counts a closed window
once ``k`` real outcomes have been recorded.  Classification and
outcome counters are kept per (simulation, task) -- the pairs of one
round are distinct, so each round adds through one flat index -- and
summed into the :class:`Ledger` once.

Equivalence contract
--------------------

Results must be **bit-identical** to the scalar engine's stats-only
mode.  The iteration order mirrors the engine's total order at a tick
``T``: completions (processor 0 then 1) -> permanent fault -> deadlines
-> releases -> dispatch.  Completions, deadlines and skips mark their
(simulation, task) pairs in a dense outcome array.  Four deliberate
reorderings are proven safe (see tests/property/test_prop_batch.py):

* every outcome is *recorded at the task's next release* instead of
  when it is decided: the release round shifts the task's pending mark
  into its window (and counts it) before the flexibility degree reads
  the window, and the marks no release reads are flushed before their
  columns retire and after the loop.  D <= P puts each job's decision
  at or before the task's next release, so at most one mark per
  (simulation, task) pair is pending at once, the window takes the
  outcomes in the engine's order, and the window's only reader is that
  release; the effective and violation counters are sums over the same
  outcomes in the same order;
* *skipped* jobs are marked missed at their release instead of at
  their deadline event.  A skipped job has no copy and no deadline, D
  <= P puts the previous job's decision at or before this release
  (whose mark the same round records first), and the next read of the
  task's history is its next release;
* *infeasible* optionals are decided missed at their deadline instead
  of at the first pick that would have dropped them; both instants lie
  strictly before the task's next release, so every flexibility-degree
  read sees the same history either way;
* both processors' completions are handled in one pass: a copy that
  finishes on processor 1 in the same tick its sibling's success on
  processor 0 cancelled it marks the same job met again, which decides
  it once.

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
that many draws from the item's materialized oracle and keeps only the
``(n, u)`` pairs with ``u`` below the task set's largest fault
probability: no other draw can fault.  A seeded scenario's stream is
the same for every scheme of a set, so a
:class:`~repro.sim.batch.BatchFront` draws it once per set.  The
kernel counts each run's completions in the same order and compares
draw ``n`` with the completing task's probability -- the same float
from the same ``math.exp`` -- so it faults exactly the copies the
engine faults.  At
the paper's λ = 1e-6/ms almost no draw survives the filter, and a batch
without surviving draws does no fault bookkeeping at all.

A faulted copy follows the engine's rules: it retires alone, its
sibling stays live, and only an optional's job is decided (missed) at
the completion; a mandatory job whose copies all faulted is decided
missed at its deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from .engine import SimulationError, SimulationResult
from .stats import RunStats

if TYPE_CHECKING:  # pragma: no cover
    from .batch import BatchItem

#: Sentinel "never" tick; far above any horizon yet safe to add small
#: offsets to without overflowing int64.
INF = 1 << 62

#: Outcome marks, decided (and cleared) once per iteration.
MISSED = 1
MET = 2

#: Fields of the per-task rules table.  The set's own ones lead (``_SET``:
#: one block per item, copied from its ``columns.table``), and the five
#: fault-dependent ones are contiguous (``_PF``), so a permanent fault
#: rewrites one slice.
(
    _P,  # period (ticks)
    _D,  # relative deadline
    _C,  # WCET
    _K,
    _K1,  # k - 1
    _M,
    _KMASK,  # (1 << k) - 1
    _LAST,  # last release tick before the horizon
    _MKEY,  # dispatch key of the mandatory main
    _OKEY,  # dispatch key of an optional at flexibility degree 0
    _FD,  # 1 = flexibility-degree classified, 0 = static pattern
    _PAT,  # pattern mask, bit i = job phase i mandatory
    _FDMAX,  # largest degree that still runs an optional (-1: none)
    _MPROC,  # main copy's processor
    _MOFF,  # main copy's release offset
    _BOFF,  # backup offset (-1: no backup)
    _ALT,  # 1 = optionals alternate processors
    _FIELDS,
) = range(18)
_SET = slice(_P, _MKEY)
_PF = slice(_FDMAX, _FIELDS)

#: Draw-index span per simulation in the sorted candidate-draw keys.
_DRAW_SPAN = 1 << 40


def run_kernel(
    np,
    items: "List[BatchItem]",
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> "Ledger":
    """Advance every item to completion in lockstep.

    Returns the per-simulation counters; the lockstep state is freed
    before the idle-gap ledger is counted, so the two never coexist.
    ``progress(done, total, iterations)`` is invoked whenever the number
    of finished simulations grows (and once at the end), with the
    lockstep iterations run so far.
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
    result is requested.  Every released job is decided by the end of a
    run, so missed and skipped jobs are what the effective and the
    classified ones leave of the releases, and each processor's busy
    time is what its idle gaps leave of its accounting window.
    """

    def __init__(self, kernel: "_Kernel") -> None:
        self.S = kernel.S0
        self.iterations = kernel.iterations
        released = kernel.releases
        classes = kernel.out_class
        effective = kernel.out_effective
        self.released = released.tolist()
        self.effective = effective.tolist()
        self.missed = (released - effective).tolist()
        self.mandatory = classes[0].tolist()
        self.optional = classes[1].tolist()
        self.skipped = (released - classes.sum(axis=0)).tolist()
        self.violations = kernel.out_violations.T.tolist()
        self.task_count = kernel.task_count.tolist()
        self.faults = kernel.out_faults.tolist()
        self.window_end = kernel.out_window
        self.gap_span = kernel.gap_span
        self.gap_chunks = kernel.closed_gaps()

    def count_gaps(self, np) -> None:
        """Merge the gap chunks into sorted distinct keys and counts."""
        chunks, self.gap_chunks = self.gap_chunks, None
        keys = np.concatenate(chunks) if chunks else np.zeros(0, np.int64)
        del chunks
        self.gap_keys, self.gap_counts = np.unique(keys, return_counts=True)
        # Keys sort by (processor, sim): row r = processor * S + sim owns
        # the slice [bounds[r], bounds[r + 1]).
        bounds = np.searchsorted(
            self.gap_keys,
            np.arange(2 * self.S + 1, dtype=np.int64) * self.gap_span,
        )
        idle = np.concatenate(
            ([0], np.cumsum(self.gap_keys % self.gap_span * self.gap_counts))
        )
        busy = self.window_end.reshape(-1) - (
            idle[bounds[1:]] - idle[bounds[:-1]]
        )
        self.busy = busy.reshape(2, self.S).T.tolist()
        self.window_end = None
        self.gap_bounds = bounds.tolist()

    def result(self, s: int, item: BatchItem) -> SimulationResult:
        n = self.task_count[s]
        stats = RunStats(n)
        stats.busy = self.busy[s]
        span = self.gap_span
        for p in (0, 1):
            lo = self.gap_bounds[p * self.S + s]
            hi = self.gap_bounds[p * self.S + s + 1]
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
            stats=stats,
        )


class _Kernel:
    """The packed state and the lockstep advance loop.

    Tables are int64 (outcome marks int8, fault probabilities float);
    masks are numpy bool arrays.  The simulated-time semantics is
    exactly the scalar engine's -- comments below reference the
    equivalent engine step where the mapping is not obvious.
    """

    def __init__(self, np, items: List[BatchItem]) -> None:
        self.np = np
        S = len(items)
        N = max(len(item.taskset) for item in items)
        Wc = 2 * N + 1
        self.S0, self.S, self.N, self.Wc = S, S, N, Wc
        # Event-table row sections (see the module docstring).
        self.DL = Wc
        self.REL = Wc + N
        self.RUN = Wc + 2 * N
        self.FLT = self.RUN + 2
        i64 = np.int64

        # -- per-task rules ---------------------------------------------
        rules = np.zeros((S, N, _FIELDS), dtype=i64)
        rules[:, :, _K] = 1  # padding rows: a 1-deep window, never read
        rules[:, :, _KMASK] = 1
        rules[:, :, _FDMAX] = -1
        rules[:, :, _BOFF] = -1
        postfault = np.zeros((S, N, _FIELDS - _FDMAX), dtype=i64)
        task_ix = np.arange(N, dtype=i64)
        rules[:, :, _MKEY] = task_ix * (Wc + 1)
        rules[:, :, _OKEY] = (N + 1 + task_ix) * Wc + task_ix
        self.horizon = np.zeros(S, dtype=i64)
        self.task_count = np.zeros(S, dtype=i64)
        self.fault_proc = np.full(S, -1, dtype=i64)
        fault_tick = np.full(S, INF, dtype=i64)
        sticky = np.zeros(S, dtype=bool)
        valid = np.zeros((S, N), dtype=bool)
        opt_proc = np.zeros((S, N), dtype=i64)
        backup_proc = np.zeros((S, N), dtype=i64)
        hist = np.zeros((S, N), dtype=i64)
        for s, item in enumerate(items):
            n = len(item.taskset)
            self.horizon[s] = item.horizon_ticks
            self.task_count[s] = n
            sticky[s] = not item.profile.optional_preemption
            survivor = 0
            if item.permanent is not None:
                self.fault_proc[s] = item.permanent[0]
                fault_tick[s] = item.permanent[1]
                survivor = 1 - item.permanent[0]
            # The set's columns and initial windows, built once per set
            # by the batch front.
            row = rules[s]
            row[:n, _SET] = item.columns.table
            hist[s, :n] = item.columns.windows
            valid[s, :n] = True
            for i, prof in enumerate(item.profile.tasks):
                if prof.classification == "fd":
                    row[i, _FD] = 1
                    fd_max = prof.fd_max
                    row[i, _FDMAX] = INF if fd_max is None else fd_max
                else:
                    row[i, _PAT] = prof.pattern.period_window().mask
                row[i, _MPROC] = prof.main_processor
                backup_proc[s, i] = 1 - prof.main_processor
                if prof.backup_offset is not None:
                    row[i, _BOFF] = prof.backup_offset
                opt_proc[s, i] = prof.optional_processor
                row[i, _ALT] = prof.alternate_optionals
                # After a permanent fault: every copy on the survivor,
                # mains offset, no backups, optionals only where the
                # profile keeps them, no alternation.
                postfault[s, i] = (
                    row[i, _FDMAX] if prof.postfault_optionals else -1,
                    survivor,
                    prof.postfault_main_offset[survivor],
                    -1,
                    0,
                )
        max_k = int(rules[:, :, _K].max())
        periods = rules[:, :, _P]
        self.releases = np.where(
            valid, (self.horizon[:, None] - 1) // np.maximum(periods, 1) + 1, 0
        ).sum(axis=1)
        self.max_iterations = 8 * (int(self.releases.max()) + 2) + 64
        # Simulation-minor from here on: row t, column sim.
        self.rules = np.ascontiguousarray(rules.transpose(1, 0, 2))
        self.postfault = np.ascontiguousarray(postfault.transpose(1, 0, 2))

        # -- the event table and the copy table ---------------------------
        self.ev = np.full((self.FLT + 1, S), INF, dtype=i64)
        self.ev[self.REL : self.REL + N][valid.T] = 0
        self.ev[self.FLT] = fault_tick
        self.rem = np.zeros((Wc, S), dtype=i64)
        self.cdl = np.full((Wc, S), INF, dtype=i64)
        # Backups are mandatory and exist only before a fault, so their
        # keys (bound to the processor opposite the main) are static.
        self.pkey = np.full((2, Wc, S), INF, dtype=i64)
        backup_key = (task_ix * Wc + N + task_ix)[:, None]
        for p in (0, 1):
            self.pkey[p, N : 2 * N] = np.where(
                backup_proc.T == p, backup_key, INF
            )
        self.proc_rows = np.array([[0], [1]], dtype=i64)

        # -- dynamic per-task state -----------------------------------------
        self.hist = np.ascontiguousarray(hist.T)
        # Outcomes still to record before the violation tracker's first
        # closed window (the tracker starts empty).
        self.unfilled = self.rules[:, :, _K].copy()
        # Each task's next optional's processor (alternation state).
        self.odyn = np.ascontiguousarray(opt_proc.T)
        self.outcome = np.zeros((N, S), dtype=np.int8)
        self.class_c = np.zeros((2, N, S), dtype=i64)  # mandatory, optional
        self.effective_c = np.zeros((N, S), dtype=i64)
        self.violations = np.zeros((N, S), dtype=i64)

        # -- per-simulation state -------------------------------------------
        # One tick before time 0, so the scan sees the releases at 0.
        self.now = np.full(S, -1, dtype=i64)
        self.sticky = sticky
        # Run slots, [processor, sim]: running flag, copy row.
        self.running = np.zeros((2, S), dtype=bool)
        self.run_row = np.full((2, S), 2 * N, dtype=i64)
        self.gap_start = np.zeros((2, S), dtype=i64)
        self.window_end = np.stack([self.horizon, self.horizon])
        # Closed idle gaps, one int64 key each: (processor * S0 + sim) *
        # gap_span + length, by original simulation index (a gap never
        # outlasts its horizon), kept as per-iteration chunks and counted
        # into multisets at the end.
        self.gap_span = int(self.horizon.max()) + 1
        self.gap_chunks: List[object] = []
        self.iterations = 0
        # Each column's original simulation index, and the counters of
        # retired columns at that index.
        self.orig = np.arange(S, dtype=i64)
        self.out_class = np.zeros((2, S), dtype=i64)
        self.out_effective = np.zeros(S, dtype=i64)
        self.out_violations = np.zeros((N, S), dtype=i64)
        self.out_faults = np.zeros(S, dtype=i64)
        self.out_window = np.zeros((2, S), dtype=i64)
        self.out_gap_start = np.zeros((2, S), dtype=i64)

        # -- transient faults (only when some draw can fault) -----------
        self.can_fault = any(item.fault_draws for item in items)
        if self.can_fault:
            # Every run's candidate draws as sorted keys sim * span +
            # completion index (closed by an INF sentinel); ``drawn`` is
            # how many draws each run has made, ``cand_next`` the index
            # of its next candidate.
            self.fault_p = np.zeros((N, S))
            keys: List[int] = []
            draws: List[float] = []
            for s, item in enumerate(items):
                if item.fault_draws:
                    self.fault_p[: len(item.fault_probability), s] = (
                        item.fault_probability
                    )
                for at, draw in item.fault_draws:
                    keys.append(s * _DRAW_SPAN + at)
                    draws.append(draw)
            keys.append(INF)
            draws.append(1.0)
            self.cand_key = np.array(keys, dtype=i64)
            self.cand_u = np.array(draws)
            self.drawn = np.zeros(S, dtype=i64)
            self.fault_count = np.zeros(S, dtype=i64)

        # Loop operands as 0-d arrays: a binary operation or np.where
        # with a Python int operand costs about twice one with an array.
        # int8 where they meet the outcome marks, which would otherwise
        # promote.
        self.inf = np.array(INF, dtype=i64)
        self.i64, self.u64 = i64, np.uint64
        self.zero = np.array(0, dtype=i64)
        self.one = np.array(1, dtype=i64)
        self.n_op = np.array(N, dtype=i64)
        self.wc_op = np.array(Wc, dtype=i64)
        self.sink = np.array(2 * N, dtype=i64)  # the never-live copy row
        self.opt_step = np.array(N * Wc, dtype=i64)  # key step of one FD
        self.held_base = self.opt_step  # key of a held optional, plus its row
        self.opt_floor = np.array((N + 1) * Wc, dtype=i64)  # least optional key
        self.span_op = np.array(_DRAW_SPAN, dtype=i64)
        self.shifts = np.arange(max_k, dtype=i64)
        self.met = np.array(MET, dtype=np.int8)
        self.missed = np.array(MISSED, dtype=np.int8)
        self.cleared = np.array(0, dtype=np.int8)
        self._derive()
        if self.can_fault:
            self.cand_next = self._next_candidate()

    def _derive(self) -> None:
        """The views, flat views and width-dependent operands of the
        tables; rebuilt whenever columns retire."""
        np = self.np
        N, S, Wc = self.N, self.S, self.Wc
        ev = self.ev
        # Views: event sections.
        self.enq = ev[:Wc]
        self.enq_a = ev[:N]
        self.enq_b = ev[N : 2 * N]
        self.cur_dl = ev[self.DL : self.DL + N]
        self.next_rel = ev[self.REL : self.REL + N]
        self.run_end = ev[self.RUN : self.RUN + 2]
        self.fault_tick = ev[self.FLT]
        # Flat views: `take` and fancy stores on flat indices are much
        # cheaper than 2-D fancy indexing in the hot loop.
        self.ev_f = ev.reshape(-1)
        self.rem_f = self.rem.reshape(-1)
        self.cdl_f = self.cdl.reshape(-1)
        self.pkey_f = self.pkey.reshape(-1)
        self.rules2 = self.rules.reshape(N * S, _FIELDS)
        self.hist_f = self.hist.reshape(-1)
        self.unfilled_f = self.unfilled.reshape(-1)
        self.odyn_f = self.odyn.reshape(-1)
        self.outcome_f = self.outcome.reshape(-1)
        self.class_f = self.class_c.reshape(-1)
        self.effective_f = self.effective_c.reshape(-1)
        self.violations_f = self.violations.reshape(-1)
        self.sim_ix = np.arange(S, dtype=np.int64)
        self.run_ix = self.run_row * S + self.sim_ix
        self.any_sticky = bool(self.sticky.any())
        # Offsets of a copy's key on processor 0 and 1 in ``pkey_f``.
        self.proc_off = self.proc_rows * (Wc * S)
        # The row of each slot's gaps in the original-width encoding.
        self.gap_row = (self.proc_rows * self.S0 + self.orig) * self.gap_span
        self.s_op = np.array(S, dtype=np.int64)
        self.NS = np.array(N * S, dtype=np.int64)
        self.dl_off = np.array(self.DL * S, dtype=np.int64)
        self.rel_off = np.array(self.REL * S, dtype=np.int64)
        if self.can_fault:
            self.fault_p_f = self.fault_p.reshape(-1)
            self.draw_base = self.sim_ix * _DRAW_SPAN

    # -- the lockstep loop ----------------------------------------------

    def run(self, progress: Optional[Callable[[int, int, int], None]]) -> None:
        np = self.np
        S0 = self.S0
        inf = self.inf
        done_reported = 0
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_iterations:  # pragma: no cover
                raise SimulationError(
                    "batch kernel failed to converge (iteration cap hit); "
                    "this is a kernel bug -- rerun with --backend pool"
                )
            # 1. Each simulation's own next event.
            old_now = self.now
            nt = self._next_event()
            act = nt < inf
            active = int(np.count_nonzero(act))
            if progress is not None and S0 - active > done_reported:
                done_reported = S0 - active
                progress(done_reported, S0, iterations)
            if not active:
                break
            now = np.where(act, nt, old_now)
            self.now = now
            # 2. Advance the running copies to now; close idle gaps.
            self._advance(old_now, now)
            # 3. Completions, both processors in one pass.
            self._complete(now)
            # 4. Permanent faults (same-tick completions already landed).
            fault = self.fault_tick == now
            if np.count_nonzero(fault):
                self._permanent_fault(fault.nonzero()[0], now)
            # 5. Deadlines: abandon every unfinished copy (running ones
            # included) and mark the job missed.
            dead = self.cur_dl == now
            if np.count_nonzero(dead):
                self.enq_a[dead] = inf
                self.enq_b[dead] = inf
                self.cur_dl[dead] = inf
                self.outcome[dead] = self.missed
            # 6. Releases, planned in one vectorized round; each one first
            # records its task's pending outcome mark.
            self._release(now)
            # 7. Dispatch (fresh min == engine displacement + pick).
            self._dispatch(now)
            # 8. Retire the finished columns once they are a quarter of
            # the width, after recording every pending mark.  A column
            # finishes in the iteration after its last event; nothing
            # touches it after that.
            if 4 * active <= 3 * self.S:
                self._retire(act)
        self.iterations = iterations
        # The marks no later release read.
        self._flush()
        self._store(slice(None))

    def _next_event(self):
        """The earliest tick in each event column past now (INF: none).

        One unsigned min of the ticks less now + 1, shifted back: a
        queued copy's tick, at or before now, wraps above INF, and the
        never-live sink row holds INF in every column, so a column with
        nothing past now reads INF.
        """
        after = self.now + self.one
        ahead = (self.ev - after).view(self.u64)
        return self.np.minimum.reduce(ahead, 0).view(self.i64) + after

    def _advance(self, old_now, now) -> None:
        """Charge the elapsed time to the running copies.

        A running slot implies its simulation moved (a dispatched copy
        completes strictly after the dispatch tick).  A slot that starts
        running after an idle stretch closes that gap, clipped to its
        processor's accounting window.
        """
        np = self.np
        running = self.running
        glen = np.minimum(old_now, self.window_end) - self.gap_start
        close = running & (glen > self.zero)
        if np.count_nonzero(close):
            self.gap_chunks.append(self.gap_row[close] + glen[close])
        np.copyto(self.gap_start, now, where=running)
        # Idle slots point at the sink row, which absorbs the charge.
        self.rem_f[self.run_ix] -= now - old_now

    def _complete(self, now) -> None:
        """Retire every copy finishing now and mark its job.

        A successful copy retires with its sibling (the engine cancels
        the unfinished one) and marks its job met.  A sibling finishing
        in the same tick still completes -- and draws -- on its own
        processor; it marks the same job met again, which is one
        decision.
        """
        comp = self.run_end == now
        if not self.np.count_nonzero(comp):
            return
        inf = self.inf
        sims = comp.nonzero()[1]
        row = self.run_row[comp]
        ts = row % self.n_op * self.s_op + sims
        if self.can_fault:
            bad = self._faulted(comp, sims, ts)
            if bad is not None:
                # A faulted copy retires alone and leaves its sibling
                # live; only an optional's job (finite feasibility
                # deadline) is decided (missed) now, a mandatory one
                # waits for its other copy or its deadline.
                own = (row * self.s_op + sims)[bad]
                self.ev_f[own] = inf
                fo = ts[bad][self.cdl_f.take(own) != inf]
                self.ev_f[fo + self.dl_off] = inf
                self.outcome_f[fo] = self.missed
                ts = ts[~bad]
        self.ev_f[ts] = inf
        self.ev_f[ts + self.NS] = inf
        # Clear the deadline now: the deadline scan below must not
        # re-decide a job that completed at its deadline tick.
        self.ev_f[ts + self.dl_off] = inf
        self.outcome_f[ts] = self.met

    def _faulted(self, comp, sims, ts):
        """Draw for each completing copy; a mask of the faulted ones.

        Each run draws once per completing copy, processor 0 before
        processor 1.  Returns None when no run reached its next
        candidate draw (nothing can have faulted).
        """
        np = self.np
        drawn = self.drawn + comp.sum(axis=0)
        if not np.count_nonzero(self.cand_next < drawn):
            self.drawn = drawn
            return None
        at = (self.drawn + comp.cumsum(axis=0) - comp)[comp]
        self.drawn = drawn
        key = sims * self.span_op + at
        pos = np.searchsorted(self.cand_key, key)
        bad = (self.cand_key.take(pos) == key) & (
            self.cand_u.take(pos) < self.fault_p_f.take(ts)
        )
        self.fault_count += np.bincount(sims[bad], minlength=self.S)
        self.cand_next = self._next_candidate()
        return bad

    def _next_candidate(self):
        """Each run's next candidate draw index (huge once exhausted)."""
        np = self.np
        base = self.draw_base
        pos = np.searchsorted(self.cand_key, base + self.drawn)
        return self.cand_key.take(pos) - base

    def _permanent_fault(self, sims, now) -> None:
        """Kill a processor: its copies go, later releases follow the
        profile's post-fault rules on the survivor."""
        for s, dead in zip(sims.tolist(), self.fault_proc[sims].tolist()):
            self.window_end[dead, s] = min(int(now[s]), int(self.horizon[s]))
            self.fault_tick[s] = INF
            bound = self.pkey[dead, :, s] < INF
            self.enq[bound, s] = INF
            self.rules[:, s, _PF] = self.postfault[:, s]
            self.odyn[:, s] = 1 - dead

    # -- retiring finished simulations ------------------------------------

    def _retire(self, keep) -> None:
        """Drop the finished columns from every per-simulation table.

        Their counters go to the original-width results first; the
        candidate draws of the kept columns are re-keyed to their new
        column indices.  Each table keeps its buffer (see
        ``_COLUMNS``).
        """
        np = self.np
        self._flush()
        self._store(~keep)
        cols = keep.nonzero()[0]
        if self.can_fault:
            # Kept columns keep their order, so the re-keyed candidates
            # stay sorted for the searchsorted lookups.
            new = np.full(self.S, -1, dtype=np.int64)
            new[cols] = np.arange(cols.size)
            keys = self.cand_key[:-1]
            col = new.take(keys // _DRAW_SPAN)
            kept = col >= 0
            self.cand_key = np.append(
                col[kept] * _DRAW_SPAN + keys[kept] % _DRAW_SPAN, INF
            )
            self.cand_u = np.append(self.cand_u[:-1][kept], 1.0)
        columns = _COLUMNS + (_FAULT_COLUMNS if self.can_fault else ())
        for name, axis in columns:
            table = getattr(self, name)
            kept = table.take(cols, axis=axis)
            front = table.reshape(-1)[: kept.size].reshape(kept.shape)
            front[...] = kept
            setattr(self, name, front)
        self.S = int(cols.size)
        self._derive()

    def _store(self, cols) -> None:
        """Copy columns' counters to their original simulation index."""
        sims = self.orig[cols]
        self.out_class[:, sims] = self.class_c[:, :, cols].sum(axis=1)
        self.out_effective[sims] = self.effective_c[:, cols].sum(axis=0)
        self.out_violations[:, sims] = self.violations[:, cols]
        self.out_window[:, sims] = self.window_end[:, cols]
        self.out_gap_start[:, sims] = self.gap_start[:, cols]
        if self.can_fault:
            self.out_faults[sims] = self.fault_count[cols]

    # -- history machinery ----------------------------------------------

    def _record(self, ts, KMASK, M):
        """Shift each (sim, task) pair's pending mark, if it has one,
        into its window and count it; returns the windows.

        The pairs are distinct, so the records of one call commute.
        """
        np = self.np
        mark = self.outcome_f.take(ts)
        met = mark == self.met
        pend = mark != self.cleared
        window = ((self.hist_f.take(ts) << pend) | met) & KMASK
        self.hist_f[ts] = window
        unfilled = self.unfilled_f.take(ts) - pend
        self.unfilled_f[ts] = unfilled
        self.violations_f[ts] += (
            pend & (unfilled <= self.zero) & (np.bitwise_count(window) < M)
        )
        self.effective_f[ts] += met
        return window

    def _flush(self) -> None:
        """Record every pending outcome mark.

        The release round records a task's mark when the task next
        releases; this records the marks no release has read yet, before
        columns retire and after the loop.
        """
        ts = self.outcome_f.nonzero()[0]
        if not ts.size:
            return
        rules = self.rules2.take(ts, 0)
        self._record(ts, rules[:, _KMASK], rules[:, _M])
        self.outcome_f[ts] = self.cleared

    # -- releases and dispatch ------------------------------------------

    def _release(self, now) -> None:
        """Plan every release due now in one round.

        Same-tick releases belong to distinct tasks, and every read a
        release plan makes is per (sim, task), so the engine's same-tick
        release order does not matter here.
        """
        np = self.np
        t, sims = (self.next_rel == now).nonzero()
        if not t.size:
            return
        inf, zero, one = self.inf, self.zero, self.one
        ts = t * self.s_op + sims
        rnow = now.take(sims)
        (
            P, D, C, K, K1, M, KMASK, LAST, MKEY, OKEY, FD, PAT,
            FDMAX, MPROC, MOFF, BOFF, ALT,
        ) = self.rules2.take(ts, 0).T  # fmt: skip
        self.ev_f[ts + self.rel_off] = np.where(rnow < LAST, rnow + P, inf)
        # The task's previous job was decided by now (D <= P); record its
        # pending mark, if a flush has not, before the degree reads the
        # window.  A first release has no mark.
        window = self._record(ts, KMASK, M)
        # Flexibility degree (MKHistory.flexibility_degree): k minus the
        # position of the m-th newest success, 0 when the window holds
        # fewer than m (a success in the window's oldest bit, outside
        # the k-1 outcomes the degree reads, also gives 0).
        bits = (window[:, None] >> self.shifts) & one
        before = np.add.reduce(np.add.accumulate(bits, 1) < M[:, None], 1)
        fd = np.maximum(K1 - before, zero)
        phase = rnow // P % K
        mand = np.where(FD, fd == zero, ((PAT >> phase) & one) == one)
        opt = ~mand & (fd <= FDMAX)
        keep = mand | opt
        self.class_f[ts + opt * self.NS] += keep
        # A skipped job is marked missed now; the mark this round read
        # is replaced.
        self.outcome_f[ts] = ~keep
        dl = rnow + D
        self.ev_f[ts + self.dl_off] = np.where(keep, dl, inf)
        # Copy A: the main, or the optional on its (alternating)
        # processor.
        self.ev_f[ts] = np.where(keep, rnow + MOFF * mand, inf)
        self.rem_f[ts] = C
        self.cdl_f[ts] = np.where(opt, dl, inf)
        nxt = self.odyn_f.take(ts)
        proc = np.where(mand, MPROC, nxt)
        self.odyn_f[ts] = nxt ^ (opt & ALT)
        key = np.where(mand, MKEY, OKEY + fd * self.opt_step)
        self.pkey_f[ts + self.proc_off] = np.where(
            proc == self.proc_rows, key, inf
        )
        # Copy B: the backup, postponed by its offset.
        tb = ts + self.NS
        self.ev_f[tb] = np.where(mand & (BOFF >= zero), rnow + BOFF, inf)
        self.rem_f[tb] = C

    def _dispatch(self, now) -> None:
        """Pick both processors' running copies in one masked min.

        The engine dispatches processor 0 then 1, but the picks are
        independent (every copy is bound to exactly one processor), so
        both compute together over ``[2, 2N + 1, S]``.  A candidate is
        a queued copy with work left that can still meet its
        feasibility deadline (infinite for mandatory copies); its key's
        low digit is its row.
        """
        np = self.np
        inf = self.inf
        ok = (self.enq <= now) & (now + self.rem <= self.cdl)
        best = np.minimum.reduce(np.where(ok, self.pkey, inf), 1)
        has = best < inf
        row = best % self.wc_op
        if self.any_sticky:
            # A freshly dispatched optional becomes the held job under
            # the non-preemptive rule: it resumes ahead of the other
            # optionals while it stays feasible.
            fresh = has & (best >= self.opt_floor) & self.sticky
            if np.count_nonzero(fresh):
                held = (row * self.s_op + self.sim_ix + self.proc_off)[fresh]
                self.pkey_f[held] = self.held_base + row[fresh]
        row = np.where(has, row, self.sink)
        run_ix = row * self.s_op + self.sim_ix
        self.run_end[...] = np.where(has, now + self.rem_f.take(run_ix), inf)
        self.running, self.run_row, self.run_ix = has, row, run_ix

    # -- results ----------------------------------------------------------

    def closed_gaps(self) -> List[object]:
        """Every idle-gap key chunk, the final gaps included.

        Closes each accounting window's last gap (engine end-of-run
        behaviour: a never-running processor contributes one
        horizon-long gap) and hands the chunk list over.
        """
        np = self.np
        last = self.out_window - self.out_gap_start
        tail = last > 0
        if tail.any():
            # flatnonzero of a [2, S0] mask is processor * S0 + sim.
            self.gap_chunks.append(
                np.flatnonzero(tail) * self.gap_span + last[tail]
            )
        chunks, self.gap_chunks = self.gap_chunks, []
        return chunks


#: Every per-simulation table, with the axis that holds its columns.
#: Retiring columns compacts the kept ones into the front of each
#: table's own buffer.  Narrower tables allocated beside the old ones,
#: which their views keep alive until they are re-derived, would hold
#: the state twice (0.5 MB more peak RSS in a cold ``fig6b`` sweep
#: unit).  The fronts stay C-contiguous, so the flat views stay views.
_COLUMNS = (
    ("ev", 1), ("rem", 1), ("cdl", 1), ("pkey", 2), ("rules", 1),
    ("postfault", 1), ("hist", 1), ("unfilled", 1), ("odyn", 1),
    ("outcome", 1), ("class_c", 2), ("effective_c", 1), ("violations", 1),
    ("now", 0), ("sticky", 0), ("running", 1), ("run_row", 1),
    ("gap_start", 1), ("window_end", 1), ("horizon", 0), ("fault_proc", 0),
    ("orig", 0),
)  # fmt: skip
_FAULT_COLUMNS = (
    ("fault_p", 1), ("drawn", 0), ("cand_next", 0), ("fault_count", 0),
)  # fmt: skip
