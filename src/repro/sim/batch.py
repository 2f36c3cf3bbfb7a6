"""Batch simulation: many independent runs in lockstep over arrays.

The scalar engine (:mod:`repro.sim.engine`) interprets one simulation at
a time through Python objects -- heap events, ready queues, job copies.
A utilization sweep runs hundreds of such simulations that differ only
in data (task set, scheme profile, fault draw), which makes them a
textbook candidate for array programming: the batch kernel
(:mod:`repro.sim.batch_kernel`) advances a whole *batch* of simulations
together, one numpy operation per state-machine step, with each
simulation stepping to its **own** next event time every iteration (the
batch is lockstep in iteration count, not in simulated time).

This module is the kernel's front: it resolves sweep jobs into
:class:`BatchItem` records, runs them, and hands back results or sweep
payloads.  numpy and the kernel module are imported on the first run,
in the thread that runs it, so a process that only asks whether numpy
is available loads neither.  A :class:`BatchFront` carries what the
items of one sweep call share: each task set's tick columns, and each
transient scenario's candidate fault draws, are built once per set, not
once per scheme.

Fallback rules
--------------

A simulation is batchable when the
:class:`~repro.sim.profile.SchemeProfile` its policy's ``prepare``
returns has only FD-classified tasks or ones that follow a
window-periodic pattern, its release model is periodic, no DVFS config
applies to its scheme, every ``k`` fits the packed-window encoding, and
its transient-fault oracle either never faults or is a plain Poisson
oracle on a profile with no ``recoveries`` (ReExecution_FP has some).
Anything else returns None from :func:`build_batch_item` and runs on
the scalar engine -- correctness never depends on batchability.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..errors import ConfigurationError
from ..model.history import packed_initial_window
from ..model.patterns import is_window_periodic
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .engine import PolicyContext, SimulationResult
from .profile import SchemeProfile

if TYPE_CHECKING:  # the harness imports this module, not the reverse
    from ..harness.runner import RunSpec

#: Oldest numpy major version the kernel runs on: it counts (m,k)
#: window successes with ``np.bitwise_count``, new in numpy 2.0.
MIN_NUMPY_MAJOR = 2


def _supported_version(version: str) -> bool:
    return int(version.split(".", 1)[0]) >= MIN_NUMPY_MAJOR


def supported_numpy(module):
    """``module`` if it is a numpy the kernel runs on, else None: an
    older numpy counts as absent."""
    if module is None or not _supported_version(module.__version__):
        return None
    return module


_UNRESOLVED = object()

#: numpy once :func:`require_numpy` has imported it (None when it is
#: absent or too old); unresolved until then, so neither importing this
#: module nor asking :func:`numpy_available` loads numpy.
_np = _UNRESOLVED

#: Largest (m,k) window depth the packed-integer histories support; a
#: task beyond it falls back to the scalar engine (generated workloads
#: cap k at 20).
MAX_PACKED_K = 60


def numpy_available() -> bool:
    """True when the numpy the batch kernel needs is installed.

    Until a batch has imported numpy, this reads the version from the
    name of the ``numpy-<version>.dist-info`` directory the installer
    put beside the package, so a caller on a latency-sensitive thread
    (the service resolving a spec's default backend) pays neither for
    the import nor for :mod:`importlib.metadata`'s.  An install without
    that record counts as absent.
    """
    if _np is not _UNRESOLVED:
        return _np is not None
    return _numpy_installed()


@functools.lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    import importlib.util

    try:
        spec = importlib.util.find_spec("numpy")
        for location in spec.submodule_search_locations if spec else ():
            for name in os.listdir(os.path.dirname(location)):
                if name.startswith("numpy-") and name.endswith(".dist-info"):
                    return _supported_version(name[len("numpy-"):])
    except (ImportError, OSError, ValueError):
        pass
    return False


def _load_numpy():
    """numpy, imported on the first call; None when absent or too old."""
    global _np
    if _np is _UNRESOLVED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = supported_numpy(numpy)
    return _np


def require_numpy():
    """Import and return numpy, or raise a :class:`ConfigurationError`
    telling the user how to get the batch backend (or how to avoid
    needing it)."""
    if _load_numpy() is None:
        raise ConfigurationError(
            "the batch backend requires numpy >= 2.0, which is not "
            "installed; install it with 'pip install repro[batch]' or "
            "rerun with --backend pool"
        )
    return _np


class SetColumns(NamedTuple):
    """One task set's per-task kernel columns at one horizon.

    ``table`` is an int64 ``[n, 8]`` array of period, deadline, WCET, k,
    k - 1, m, the k-bit mask and the last release tick before the
    horizon, all in ticks; ``windows`` each task's packed initial
    window under the run's boundary condition; ``releases`` the jobs
    the set releases before the horizon.
    """

    table: Any
    windows: Tuple[int, ...]
    releases: int


@dataclass
class BatchItem:
    """One batchable simulation: workload, profile, and run parameters.

    Produced by :func:`build_batch_item`; consumed by :func:`run_batch`.
    ``power_model`` rides along so :func:`run_batch_payloads` can account
    energy exactly like the scalar sweep worker.  ``fault_draws`` holds
    the ``(completion index, uniform)`` draws of the run's transient
    oracle that could fault, and ``fault_probability`` each task's
    per-copy fault probability (both empty when nothing can fault; see
    the module docstring).  ``columns`` are the set's
    :class:`SetColumns`, shared by every item of the set.
    """

    taskset: TaskSet
    scheme: str
    policy_name: str
    profile: SchemeProfile
    horizon_ticks: int
    timebase: TimeBase
    permanent: Optional[Tuple[int, int]]
    power_model: object = None
    initial_history: str = "met"
    fault_draws: Tuple[Tuple[int, float], ...] = ()
    fault_probability: Tuple[float, ...] = ()
    columns: Optional[SetColumns] = field(
        default=None, compare=False, repr=False
    )


class BatchFront:
    """What the batch items of one sweep call share, built once per set.

    Every scheme and scenario of a task set reads the same
    :class:`SetColumns`, and every scheme of a set under one transient
    scenario takes the same candidate draws: the draws depend on the
    scenario's rate and seed, the set and its horizon, never on the
    scheme.  Entries are keyed by content (the set's analysis key), so
    a front is correct for any jobs; make one per batch execution, so
    that nothing it holds outlives the call.
    """

    def __init__(self) -> None:
        self._columns: Dict[tuple, SetColumns] = {}
        self._draws: Dict[tuple, tuple] = {}

    def columns(
        self, np, taskset: TaskSet, base: TimeBase, horizon: int, history: str
    ) -> SetColumns:
        """The set's columns at ``horizon`` under boundary condition
        ``history`` (an ``initial_history`` mode)."""
        key = (taskset.analysis_key(), horizon, history)
        columns = self._columns.get(key)
        if columns is None:
            rows = []
            releases = 0
            for task in taskset:
                period = base.to_ticks(task.period)
                k = task.mk.k
                last = (horizon - 1) // period * period
                releases += last // period + 1
                rows.append(
                    (
                        period,
                        base.to_ticks(task.deadline),
                        base.to_ticks(task.wcet),
                        k,
                        k - 1,
                        task.mk.m,
                        (1 << k) - 1,
                        last,
                    )
                )
            columns = self._columns[key] = SetColumns(
                np.array(rows, dtype=np.int64),
                tuple(
                    packed_initial_window(task.mk, history) for task in taskset
                ),
                releases,
            )
        return columns

    def fault_draws(
        self,
        taskset: TaskSet,
        scenario,
        transient,
        columns: SetColumns,
        horizon: int,
    ) -> Tuple[Tuple[float, ...], Tuple[Tuple[int, float], ...]]:
        """Each task's fault probability and the run's candidate draws.

        Shared when a plain seeded :class:`FaultScenario` built the
        oracle: its stream is then a function of the seed alone, so two
        schemes of one set draw the same uniforms.  Any other scenario
        draws for itself.
        """
        from ..faults.scenario import FaultScenario

        key = None
        if type(scenario) is FaultScenario and scenario.seed is not None:
            key = (
                scenario.transient_rate,
                scenario.seed,
                taskset.analysis_key(),
                horizon,
            )
            cached = self._draws.get(key)
            if cached is not None:
                return cached
        probability = tuple(
            transient.fault_probability(wcet)
            for wcet in columns.table[:, 2].tolist()
        )
        ceiling = max(probability, default=0.0)
        # Each release makes at most two copies, each drawing once when
        # it completes: the run never consumes more than 2 * releases.
        draws = tuple(
            (index, draw)
            for index, draw in enumerate(
                transient.uniforms(2 * columns.releases)
            )
            if draw < ceiling
        )
        if key is not None:
            self._draws[key] = (probability, draws)
        return probability, draws


def build_batch_item(
    taskset: TaskSet,
    scheme: str,
    scenario,
    run: "RunSpec",
    front: Optional[BatchFront] = None,
) -> Optional[BatchItem]:
    """Resolve one sweep job into a :class:`BatchItem`, or None.

    Mirrors :func:`repro.harness.runner.run_scheme`'s setup exactly --
    same cached horizon, same scenario materialization (which is pure,
    so a scalar fallback re-materializes identical faults); the kernel
    derives the periodic releases the engine's shared timeline lists.
    Returns None whenever the job must run on the scalar engine: a
    transient oracle other than a plain Poisson one, or one on a profile
    with recovery copies; a non-periodic release model (the kernel
    derives releases from the periodic recurrence); a DVFS config
    applying to this scheme (the kernel's lockstep arrays know nothing
    of per-task stretched budgets); a profile the kernel cannot express
    (an ``"all"`` classification, a pattern that is not
    window-periodic); or a window too deep to pack.

    Items built through one ``front`` share its per-set work; without
    one, the item builds its own.
    """
    np = _load_numpy()
    if np is None:
        return None
    # RunSpec normalizes periodic and no-op models to None.
    if run.release_model is not None:
        return None
    if run.dvfs is not None and run.dvfs.applies_to(scheme):
        return None
    from ..faults.scenario import FaultScenario
    from ..faults.transient import PoissonTransientFaults
    from ..harness.runner import scheme_factory

    factory = scheme_factory(scheme)
    if any(task.mk.k > MAX_PACKED_K for task in taskset):
        return None
    base = taskset.timebase()
    horizon = run.horizon_ticks(taskset)
    scenario = scenario if scenario is not None else FaultScenario.none()
    transient, permanent = scenario.materialize(horizon, base)
    can_fault = not getattr(transient, "never_faults", False)
    if can_fault and type(transient) is not PoissonTransientFaults:
        return None
    policy = factory()
    profile = policy.prepare(
        PolicyContext(taskset=taskset, timebase=base, horizon_ticks=horizon)
    )
    if (can_fault and profile.recoveries) or len(profile.tasks) != len(taskset):
        return None
    for task, rules in zip(taskset, profile.tasks):
        if rules.classification == "all":
            return None
        if rules.classification == "pattern" and not (
            is_window_periodic(rules.pattern)
            and rules.pattern.mk.k == task.mk.k
        ):
            return None
    if front is None:
        front = BatchFront()
    columns = front.columns(np, taskset, base, horizon, run.initial_history)
    fault_draws: Tuple[Tuple[int, float], ...] = ()
    probability: Tuple[float, ...] = ()
    if can_fault:
        probability, fault_draws = front.fault_draws(
            taskset, scenario, transient, columns, horizon
        )
    return BatchItem(
        taskset=taskset,
        scheme=scheme,
        policy_name=policy.name,
        profile=profile,
        horizon_ticks=horizon,
        timebase=base,
        permanent=permanent,
        power_model=run.power_model,
        initial_history=run.initial_history,
        fault_draws=fault_draws,
        fault_probability=probability if fault_draws else (),
        columns=columns,
    )


def run_batch(
    items: List[BatchItem],
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> List[SimulationResult]:
    """Advance every item to completion in lockstep; one result each.

    ``progress(done, total, iterations)`` is invoked whenever the number
    of finished simulations grows (and once at the end), with the
    lockstep iterations run so far.
    """
    return list(_iter_results(items, progress))


def run_batch_payloads(
    items: List[BatchItem],
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> List[Tuple[float, int]]:
    """Sweep-worker payloads ``(energy, violations)``.

    Identical to what :func:`repro.harness.sweep._run_one` produces for
    the same jobs -- energy accounted through the Fraction-exact
    counters path, violations through the shared counting definition.
    Results are accounted one at a time as the kernel hands them over,
    so at most one of them is alive at once.
    """
    from ..energy.accounting import energy_of_result
    from ..qos.metrics import collect_metrics

    payloads = []
    for item, result in zip(items, _iter_results(items, progress)):
        report = energy_of_result(result, model=item.power_model)
        metrics = collect_metrics(result)
        payloads.append((report.total_energy, metrics.mk_violations))
    return payloads


def _iter_results(
    items: List[BatchItem],
    progress: Optional[Callable[[int, int, int], None]],
) -> Iterator[SimulationResult]:
    """Run the kernel, then build its results one by one."""
    np = require_numpy()
    if not items:
        return
    from .batch_kernel import run_kernel

    ledger = run_kernel(np, items, progress)
    for s, item in enumerate(items):
        yield ledger.result(s, item)


