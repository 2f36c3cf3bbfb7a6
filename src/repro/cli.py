"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze``  -- offline analysis of a task set (RTA, Y_i, θ_i,
  schedulability).
* ``simulate`` -- run one scheme on a task set and print the Gantt chart,
  energy, and QoS metrics.
* ``sweep``    -- a Figure 6 panel (choose the fault scenario).
* ``triage``   -- differential fidelity triage of the Figure 6 gap:
  one-knob-at-a-time protocol ablations per panel, a machine-readable
  gap-decomposition report, and outlier trace drill-down.
* ``validate`` -- run the conformance auditor on a task set: model-level
  schedule invariants, each scheme's declared invariant suite, DPD
  legality, and the cross-mode (trace vs stats) differential.
* ``examples`` -- list the paper's preset task sets.

Task sets are given inline as semicolon-separated five-tuples, e.g.::

    python -m repro simulate --scheme MKSS_Selective \
        --tasks "5,4,3,2,4; 10,10,3,1,2" --horizon 20
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.hyperperiod import analysis_horizon
from .analysis.postponement import task_postponement_intervals
from .analysis.promotion import promotion_times
from .analysis.rta import response_times_mandatory
from .analysis.schedulability import is_rpattern_schedulable
from .energy.accounting import energy_of_result
from .energy.dvfs import DVFSConfig
from .energy.power import PowerModel
from .errors import ReproError
from .harness.figures import DEFAULT_BINS, fig6a, fig6b, fig6c
from .harness.protocol import ExperimentProtocol
from .harness.report import format_series_table, format_table
from .harness.runner import SCHEME_FACTORIES, RunSpec, scheme_factory
from .harness.sweep import SWEEP_BACKENDS
from .model.history import INITIAL_HISTORY_MODES
from .model.task import Task
from .model.taskset import TaskSet
from .qos.metrics import collect_metrics
from .schedulers.base import run_policy
from .sim.gantt import render_gantt
from .workload.presets import motivation_tasksets
from .workload.release import RELEASE_PRESETS, ReleaseModel

#: Horizon cap, in model time units, of ``simulate`` without ``--horizon``.
#: ``analyze`` computes θ_i over the same horizon, so its θ column is the
#: postponement ``simulate --scheme MKSS_Selective`` applies.
SIMULATE_HORIZON_CAP_UNITS = 2000


def parse_taskset(spec: str) -> TaskSet:
    """Parse "P,D,C,m,k; P,D,C,m,k; ..." into a TaskSet."""
    tasks: List[Task] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) != 5:
            raise ReproError(
                f"each task needs 5 fields (P,D,C,m,k), got {chunk!r}"
            )
        period, deadline, wcet = fields[0], fields[1], fields[2]
        m, k = int(fields[3]), int(fields[4])
        tasks.append(Task(period, deadline, wcet, m, k))
    if not tasks:
        raise ReproError("no tasks given")
    return TaskSet(tasks)


def _add_release_args(parser) -> None:
    """Register the arrival-process / boundary-condition knobs."""
    parser.add_argument(
        "--release-model",
        choices=sorted(RELEASE_PRESETS),
        default="periodic",
        help="job arrival process: 'periodic' is the paper's model; "
        "'light'/'heavy' add sporadic-legal jitter (up to 0.1/0.5 of the "
        "period), 'bursty' releases back-to-back bursts separated by "
        "random gaps (all keep inter-arrivals >= the period)",
    )
    parser.add_argument(
        "--release-seed",
        type=int,
        default=0,
        help="seed of the release-model jitter/gap draws (ignored for "
        "periodic releases)",
    )
    parser.add_argument(
        "--initial-history",
        choices=INITIAL_HISTORY_MODES,
        default="met",
        help="(m,k)-history boundary condition: 'met' (the paper's "
        "all-met assumption), 'miss' (all windows start violated), or "
        "'rpattern' (windows pre-seeded with the R-pattern)",
    )


def _release_model_from_args(args) -> Optional[ReleaseModel]:
    """The ReleaseModel the flags describe (None = periodic default)."""
    if args.release_model == "periodic":
        return None
    return ReleaseModel.preset(args.release_model, seed=args.release_seed)


def _add_dvfs_args(parser) -> None:
    """Register the deadline-safe frequency-scaling knobs."""
    parser.add_argument(
        "--dvfs",
        action="store_true",
        help="slow each scheme's main copies by the largest uniform "
        "factor that passes the R-pattern critical-scaling check, "
        "clamped at the power model's critical speed; backups and "
        "post-fault work run at full speed (max-performance fallback)",
    )
    parser.add_argument(
        "--dvs-alpha",
        type=float,
        default=DVFSConfig().alpha,
        help="dynamic power exponent of the DVS model (power = "
        "s**alpha at speed s; ignored without --dvfs)",
    )
    parser.add_argument(
        "--dvs-static",
        type=float,
        default=DVFSConfig().static_power,
        help="static/leakage power of the DVS model, paid whenever the "
        "processor is on (ignored without --dvfs)",
    )


def _dvfs_from_args(args) -> Optional[DVFSConfig]:
    """The DVFSConfig the flags describe (None = no frequency scaling)."""
    if not args.dvfs:
        return None
    return DVFSConfig(alpha=args.dvs_alpha, static_power=args.dvs_static)


def _model_knobs_from_args(args) -> dict:
    """The model knobs the flags describe, as keyword arguments of both
    :class:`RunSpec` and :class:`ExperimentProtocol` (the CLI sets no
    power model)."""
    return dict(
        release_model=_release_model_from_args(args),
        initial_history=args.initial_history,
        dvfs=_dvfs_from_args(args),
    )


def _resolve_taskset(args) -> TaskSet:
    if args.preset:
        presets = motivation_tasksets()
        if args.preset not in presets:
            raise ReproError(
                f"unknown preset {args.preset!r}; choose from {sorted(presets)}"
            )
        return presets[args.preset]
    if getattr(args, "tasks_file", None):
        from .workload.serialization import load_taskset

        return load_taskset(args.tasks_file)
    if not args.tasks:
        raise ReproError("pass --tasks, --tasks-file, or --preset")
    return parse_taskset(args.tasks)


def cmd_analyze(args) -> int:
    taskset = _resolve_taskset(args)
    base = taskset.timebase()
    print(f"task set: {taskset}")
    print(f"utilization: {float(taskset.utilization):.3f}")
    print(f"(m,k)-utilization: {float(taskset.mk_utilization):.3f}")
    print(f"R-pattern schedulable: {is_rpattern_schedulable(taskset)}")
    rows = []
    thetas = task_postponement_intervals(
        taskset,
        base,
        horizon_ticks=analysis_horizon(taskset, base, SIMULATE_HORIZON_CAP_UNITS),
    )
    responses = response_times_mandatory(taskset, base)
    promotions = promotion_times(taskset, base)
    for index, task in enumerate(taskset):
        rows.append(
            [
                task.name,
                "(" + ",".join(str(v) for v in task.paper_tuple()) + ")",
                str(base.from_ticks(responses[index])),
                str(base.from_ticks(promotions[index])),
                str(base.from_ticks(thetas.thetas[index])),
            ]
        )
    print(
        format_table(
            ["task", "(P,D,C,m,k)", "R_i (mand.)", "Y_i", "theta_i"], rows
        )
    )
    return 0


def cmd_simulate(args) -> int:
    taskset = _resolve_taskset(args)
    base = taskset.timebase()
    collect_trace = args.collect_trace
    if not collect_trace:
        for flag, name in ((args.timeline, "--timeline"), (args.export, "--export")):
            if flag:
                raise ReproError(
                    f"{name} needs an execution trace; drop --no-trace"
                )
    if args.horizon:
        horizon = args.horizon * base.ticks_per_unit
    else:
        horizon = analysis_horizon(taskset, base, SIMULATE_HORIZON_CAP_UNITS)
    dvfs = _dvfs_from_args(args)
    speed_plan = None
    if dvfs is not None and dvfs.applies_to(args.scheme):
        from .energy.dvfs import resolve_dvfs, speed_plan_for

        dvfs = resolve_dvfs(dvfs)
        if dvfs is not None:
            speed_plan = speed_plan_for(
                taskset,
                base,
                dvfs,
                horizon_cap_units=args.horizon or SIMULATE_HORIZON_CAP_UNITS,
            )
    result = run_policy(
        taskset,
        scheme_factory(args.scheme)(),
        horizon,
        base,
        collect_trace=collect_trace,
        release_model=_release_model_from_args(args),
        initial_history=args.initial_history,
        speed_plan=speed_plan,
    )
    if args.gantt and collect_trace:
        cell = 1 if base.ticks_per_unit == 1 else f"1/{base.ticks_per_unit}"
        print(render_gantt(result.trace, base, horizon, cell_units=cell))
    metrics = collect_metrics(result)
    energy = energy_of_result(result, PowerModel.paper_default())
    active = energy_of_result(result, PowerModel.active_only())
    print(f"scheme: {args.scheme}  horizon: {base.from_ticks(horizon)}")
    print(f"active energy: {float(active.active_units):g}")
    print(f"total energy (paper model): {energy.total_energy:.3f}")
    for key, value in metrics.as_dict().items():
        print(f"  {key}: {value}")
    if args.timeline:
        from .qos.timeline import render_timelines

        print()
        print(render_timelines(result, args.initial_history))
    if args.export:
        from .sim.export import write_result

        write_result(result, args.export)
        print(f"trace written to {args.export}")
    return 0 if metrics.mk_violations == 0 else 1


def parse_bins(spec: str):
    """Parse "0.2:0.3,0.5:0.6" into [(0.2, 0.3), (0.5, 0.6)]."""
    bins = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            lo_text, hi_text = chunk.split(":")
            lo, hi = float(lo_text), float(hi_text)
        except ValueError as exc:
            raise ReproError(f"bad bin {chunk!r}, expected lo:hi") from exc
        if not lo < hi:
            raise ReproError(f"bad bin {chunk!r}: need lo < hi")
        bins.append((lo, hi))
    if not bins:
        raise ReproError("no bins given")
    return bins


def cmd_sweep(args) -> int:
    from .harness.events import EventLog
    from .harness.report import format_event_summary

    panel = {"none": fig6a, "permanent": fig6b, "transient": fig6c}[args.faults]
    bins = parse_bins(args.bins) if args.bins else list(DEFAULT_BINS)
    log = EventLog()
    backend = args.backend
    if backend == "batch":
        from .harness.events import BACKEND_FALLBACK
        from .sim.batch import numpy_available

        if not numpy_available():
            # Degrade, don't crash: the batch kernel is an accelerator,
            # not a requirement.  The event records what happened.
            log.emit(
                BACKEND_FALLBACK,
                requested="batch",
                used="pool",
                reason="numpy >= 2.0 is not installed "
                "(pip install repro[batch])",
            )
            print(
                "warning: --backend batch needs numpy >= 2.0 "
                "(pip install repro[batch]); falling back to pool",
                file=sys.stderr,
            )
            backend = "pool"
    protocol = ExperimentProtocol(
        bins=bins,
        sets_per_bin=args.sets_per_bin,
        seed=args.seed,
        horizon_cap_units=args.horizon,
        **_model_knobs_from_args(args),
    )
    sweep = panel(
        protocol=protocol,
        workers=args.workers,
        backend=backend,
        journal_path=args.journal or None,
        resume=args.resume,
        force_new=args.force_new,
        job_timeout=args.job_timeout or None,
        events=log,
        validate=args.validate,
        generation_store=args.gen_cache or None,
    )
    print(format_series_table(sweep, f"sweep ({args.faults} faults)"))
    generation = next(
        (e.data for e in log.events if e.kind == "generation"), None
    )
    if generation is not None:
        line = (
            f"generation: {generation.get('source')} "
            f"({generation.get('sets')} sets in {generation.get('seconds')}s"
        )
        if "screened_out" in generation:
            line += (
                f", {generation.get('draws')} draws, "
                f"{generation['screened_out']} screened out, "
                f"{generation.get('admission_tests')} admission tests"
            )
        line += ")"
        if "cache_entries" in generation:
            line += (
                f"; cache: {generation['cache_hits']} hit(s), "
                f"{generation['cache_entries']} entr(ies), "
                f"{generation['cache_bytes']} bytes"
            )
        print(line)
    if args.validate:
        audited = len(log.of_kind("validate"))
        print(
            f"validation: {audited} audit(s), "
            f"{len(sweep.validation_issues)} issue(s)"
        )
        for item in sweep.validation_issues:
            print(
                f"  {item.job} {item.scheme} [{item.mode}] "
                f"{item.issue.kind}: {item.issue.detail}"
            )
    if args.chart:
        from .harness.ascii_chart import render_sweep_chart

        print()
        print(render_sweep_chart(sweep))
    if args.events:
        log.write_jsonl(args.events)
        print(f"events written to {args.events} ({len(log.events)} events)")
    if args.journal or args.events or args.workers > 1:
        print()
        print(format_event_summary(log))
    return 0 if not sweep.validation_issues else 1


def cmd_triage(args) -> int:
    import os

    from .harness.events import EventLog
    from .harness.protocol import documented_protocol
    from .harness.triage import (
        TriageOptions,
        check_report,
        format_triage_tables,
        run_triage,
    )

    overrides = _model_knobs_from_args(args)
    if args.horizon:
        overrides["horizon_cap_units"] = args.horizon
    if args.sets_per_bin:
        overrides["sets_per_bin"] = args.sets_per_bin
    if args.seed:
        overrides["seed"] = args.seed
    protocol = documented_protocol().replace(**overrides)
    panels = tuple(
        panel.strip() for panel in args.panels.split(",") if panel.strip()
    )
    knobs = (
        tuple(knob.strip() for knob in args.knobs.split(",") if knob.strip())
        or None
        if args.knobs
        else None
    )
    options = TriageOptions(
        out_dir=args.out_dir,
        panels=panels,
        knobs=knobs,
        workers=args.workers,
        validate=args.validate,
        resume=args.resume,
        outliers=args.outliers,
        job_timeout=args.job_timeout or None,
    )
    log = EventLog()
    report = run_triage(protocol, options, events=log)
    report_path = args.report or os.path.join(args.out_dir, "report.json")
    report.write(report_path)
    print(format_triage_tables(report))
    print(f"\nreport written to {report_path} (run {report.run_id})")
    if args.events:
        log.write_jsonl(args.events)
        print(f"events written to {args.events} ({len(log.events)} events)")
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            "checks passed: ordering holds, 0 violations in gated runs, "
            "modes agree everywhere"
        )
    return 0


def cmd_validate(args) -> int:
    from .faults.scenario import FaultScenario
    from .harness.validate import AUDIT_MODES, audit_scheme

    taskset = _resolve_taskset(args)
    schemes = [args.scheme] if args.scheme else sorted(SCHEME_FACTORIES)
    run = RunSpec(
        horizon_cap_units=args.horizon, **_model_knobs_from_args(args)
    )
    if args.faults == "permanent":
        scenario = FaultScenario.permanent_only(seed=args.seed)
    elif args.faults == "transient":
        scenario = FaultScenario.permanent_and_transient(seed=args.seed)
    else:
        scenario = None
    total = 0
    for scheme in schemes:
        report = audit_scheme(taskset, scheme, scenario, run)
        verdicts = "  ".join(
            f"{audit.mode}: {'ok' if audit.ok else f'{len(audit.issues)} issue(s)'}"
            for audit in report.modes
        )
        print(f"{scheme:24s} {verdicts}")
        for audit in report.modes:
            for issue in audit.issues:
                total += 1
                print(f"  [{audit.mode}] {issue.kind}: {issue.detail}")
    print(
        f"audited {len(schemes)} scheme(s) x {len(AUDIT_MODES)} mode(s): "
        f"{total} issue(s)"
    )
    return 0 if total == 0 else 1


def cmd_serve(args) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        per_tenant=args.per_tenant,
        executors=args.executors,
        sweep_workers=args.sweep_workers,
        retry_after_s=args.retry_after,
        force_new=args.force_new,
        throttle_s=args.throttle_s,
    )
    return serve(config)


def cmd_examples(args) -> int:
    for name, taskset in motivation_tasksets().items():
        print(f"{name}: {taskset}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(m,k)-firm standby-sparing scheduling (DATE 2020 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="offline analysis of a task set")
    analyze.add_argument("--tasks", help='"P,D,C,m,k; ..." inline task set')
    analyze.add_argument("--tasks-file", help="JSON task-set file")
    analyze.add_argument("--preset", help="fig1 | fig3 | fig5")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="simulate one scheme")
    simulate.add_argument("--tasks", help='"P,D,C,m,k; ..." inline task set')
    simulate.add_argument("--tasks-file", help="JSON task-set file")
    simulate.add_argument("--preset", help="fig1 | fig3 | fig5")
    simulate.add_argument(
        "--scheme", default="MKSS_Selective", help="scheme name"
    )
    simulate.add_argument(
        "--horizon", type=int, default=0, help="horizon in time units"
    )
    simulate.add_argument(
        "--no-gantt", dest="gantt", action="store_false", help="skip the chart"
    )
    simulate.add_argument(
        "--export", default="", help="write the trace to a .json/.csv file"
    )
    simulate.add_argument(
        "--timeline",
        action="store_true",
        help="print per-task (m,k) timelines",
    )
    simulate.add_argument(
        "--no-trace",
        dest="collect_trace",
        action="store_false",
        help="stats-only run: same energy and metrics, no trace "
        "(disables the chart, --timeline, and --export)",
    )
    _add_release_args(simulate)
    _add_dvfs_args(simulate)
    simulate.set_defaults(func=cmd_simulate)

    # Quick sweeps default to the documented smoke scale; `triage`
    # defaults to the documented full scale.  Both come from the single
    # protocol object so the numbers cannot drift apart again.
    smoke = ExperimentProtocol.smoke()
    sweep = sub.add_parser("sweep", help="run a Figure 6 panel")
    sweep.add_argument(
        "--faults",
        choices=("none", "permanent", "transient"),
        default="none",
    )
    sweep.add_argument("--sets-per-bin", type=int, default=smoke.sets_per_bin)
    sweep.add_argument("--seed", type=int, default=smoke.seed)
    sweep.add_argument(
        "--horizon", type=int, default=smoke.horizon_cap_units
    )
    sweep.add_argument(
        "--bins", default="", help='utilization bins as "0.2:0.3,0.5:0.6"'
    )
    sweep.add_argument(
        "--chart", action="store_true", help="render an ASCII chart too"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = sequential)",
    )
    sweep.add_argument(
        "--backend",
        choices=SWEEP_BACKENDS,
        default="pool",
        help="execution backend: 'pool' runs one scalar engine per job, "
        "'batch' advances batchable jobs in lockstep on the vectorized "
        "numpy kernel (scalar fallback per job; identical results), "
        "'serial' forces the inline scalar path; without numpy, "
        "--backend batch warns and falls back to pool",
    )
    sweep.add_argument(
        "--journal",
        default="",
        help="JSONL checkpoint journal; finished jobs are appended so an "
        "interrupted sweep can be resumed with --resume",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume completed jobs from the --journal file",
    )
    sweep.add_argument(
        "--force-new",
        dest="force_new",
        action="store_true",
        help="with --resume, overwrite a journal that cannot be resumed "
        "(corrupt/truncated header, fingerprint from a different sweep) "
        "instead of refusing; a healthy journal still resumes",
    )
    sweep.add_argument(
        "--job-timeout",
        type=float,
        default=0.0,
        help="per-job wall-clock timeout in seconds for parallel runs "
        "(0 = no timeout); a job over budget is retried, then dropped",
    )
    sweep.add_argument(
        "--events",
        default="",
        help="write the run's structured events to this JSONL file",
    )
    sweep.add_argument(
        "--validate",
        type=int,
        default=0,
        metavar="N",
        help="run the conformance auditor on N sampled task sets (every "
        "scheme, trace + stats modes); issues are "
        "printed, recorded as events, and make the command exit nonzero",
    )
    sweep.add_argument(
        "--gen-cache",
        dest="gen_cache",
        default="",
        metavar="DIR",
        help="persistent task-set generation cache: a digest-keyed store "
        "under DIR memoizes generated corpora, so repeat sweeps sharing a "
        "generation spec (bins, sets/bin, seed, generator config) load "
        "task sets instead of redrawing them; results are identical "
        "either way",
    )
    _add_release_args(sweep)
    _add_dvfs_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    triage = sub.add_parser(
        "triage",
        help="differential fidelity triage of the Figure 6 gap",
        description=(
            "Run one-knob-at-a-time ablations of the experiment protocol "
            "around the documented baseline (15 sets/bin, 1500 ms horizon) "
            "and emit a machine-readable gap-decomposition report per "
            "Figure 6 panel, with outlier task sets replayed through the "
            "conformance auditor and exported as traces."
        ),
    )
    triage.add_argument(
        "--panels",
        default="fig6a,fig6b,fig6c",
        help="comma-separated Figure 6 panels to triage",
    )
    triage.add_argument(
        "--knobs",
        default="",
        help="comma-separated knob subset (default: every knob; see "
        "repro.harness.triage.default_knobs)",
    )
    triage.add_argument(
        "--out-dir",
        default="triage-out",
        help="campaign directory: per-sweep journals land in journals/, "
        "outlier traces in traces/",
    )
    triage.add_argument(
        "--report",
        default="",
        help="gap-decomposition JSON path (default: <out-dir>/report.json)",
    )
    triage.add_argument(
        "--sets-per-bin",
        type=int,
        default=0,
        help="baseline sets per bin (0 = documented protocol / env)",
    )
    triage.add_argument(
        "--horizon",
        type=int,
        default=0,
        help="baseline horizon cap in ms (0 = documented protocol / env)",
    )
    triage.add_argument(
        "--seed", type=int, default=0, help="baseline seed (0 = documented)"
    )
    triage.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per sweep (1 = sequential)",
    )
    triage.add_argument(
        "--resume",
        action="store_true",
        help="resume every ablation sweep from its journal in <out-dir>",
    )
    triage.add_argument(
        "--job-timeout",
        type=float,
        default=0.0,
        help="per-job wall-clock timeout in seconds for parallel sweeps",
    )
    triage.add_argument(
        "--validate",
        type=int,
        default=1,
        metavar="N",
        help="conformance-auditor samples per sweep (0 disables the "
        "trace/stats agreement check)",
    )
    triage.add_argument(
        "--outliers",
        type=int,
        default=2,
        help="per panel, extreme task sets to replay and export traces for",
    )
    triage.add_argument(
        "--events",
        default="",
        help="write the campaign's structured events to this JSONL file",
    )
    triage.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if the Selective-vs-DP ordering regresses or "
        "any run shows (m,k) violations / cross-mode divergence",
    )
    _add_release_args(triage)
    _add_dvfs_args(triage)
    triage.set_defaults(func=cmd_triage)

    validate = sub.add_parser(
        "validate",
        help="audit schedule/energy conformance of scheme runs",
    )
    validate.add_argument("--tasks", help='"P,D,C,m,k; ..." inline task set')
    validate.add_argument("--tasks-file", help="JSON task-set file")
    validate.add_argument("--preset", help="fig1 | fig3 | fig5")
    validate.add_argument(
        "--scheme", default="", help="scheme name (default: every scheme)"
    )
    validate.add_argument(
        "--horizon", type=int, default=2000, help="horizon cap in time units"
    )
    validate.add_argument(
        "--faults",
        choices=("none", "permanent", "transient"),
        default="none",
        help="fault scenario to audit under (seeded, reproducible)",
    )
    validate.add_argument(
        "--seed", type=int, default=20200309, help="fault scenario seed"
    )
    _add_release_args(validate)
    _add_dvfs_args(validate)
    validate.set_defaults(func=cmd_validate)

    serve = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service HTTP server",
        description=(
            "Long-running scheduling-analysis server: submit sweep specs "
            "over HTTP (POST /v1/sweeps), stream progress events (SSE / "
            "NDJSON), and fetch canonical results.  Results are cached by "
            "sweep fingerprint, jobs checkpoint into per-sweep journals, "
            "and a restarted server resumes interrupted sweeps with "
            "byte-identical final results."
        ),
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        help="root directory for the service's durable state "
        "(jobs/, journals/, results/, events/)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="max jobs queued or running across all tenants; beyond it "
        "submissions get 429 with Retry-After",
    )
    serve.add_argument(
        "--per-tenant",
        type=int,
        default=8,
        help="max jobs queued or running per X-Tenant value",
    )
    serve.add_argument(
        "--executors",
        type=int,
        default=1,
        help="concurrent sweeps (worker loops)",
    )
    serve.add_argument(
        "--sweep-workers",
        type=int,
        default=1,
        help="process workers inside each sweep",
    )
    serve.add_argument(
        "--retry-after",
        type=int,
        default=5,
        metavar="S",
        help="Retry-After seconds sent with 429 responses",
    )
    serve.add_argument(
        "--force-new",
        action="store_true",
        help="overwrite a job's journal when it cannot be resumed "
        "(corrupt/truncated header, foreign fingerprint) instead of "
        "failing the job; healthy journals still resume",
    )
    serve.add_argument(
        "--throttle-s",
        type=float,
        default=0.0,
        help="pause this long after each finished simulation (test/demo "
        "knob for observing mid-run state)",
    )
    serve.set_defaults(func=cmd_serve)

    examples = sub.add_parser("examples", help="list the paper's presets")
    examples.set_defaults(func=cmd_examples)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
