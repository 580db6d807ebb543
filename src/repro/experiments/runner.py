"""Command-line entry point regenerating every table and figure.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner table3     # one table
    python -m repro.experiments.runner figures    # scenario diagrams
    python -m repro.experiments.runner checks     # shape assertions
    repro-experiments --svg-dir out/ figures      # also write SVGs
    repro-experiments --workers 4 all             # parallel campaign
    repro-experiments multicore --cores 4 --placement wf
    repro-experiments multicore --cores 2 --global-sched edf
    repro-experiments overload --queue-bound 6 --shed-policy drop-oldest
    repro-experiments fabric --fabric-shards 3 --fabric-kill 30:1:corrupt

Exit status is non-zero if any shape check fails, 2 when ``--fail-fast``
stops the sweep on the first run that exhausts its retry budget.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..overload import SHED_POLICIES as _SHED_POLICIES
from ..rtsj import OverheadModel
from .campaign import (
    CheckpointMismatch,
    RunExhausted,
    RunPolicy,
    run_campaign,
)
from .figures import render_all_figures
from .tables import TABLE_ARMS, format_comparison, format_table, shape_checks

__all__ = ["main"]

_TARGETS = ("all", "table2", "table3", "table4", "table5", "figures",
            "checks", "report", "multicore", "overload", "verify",
            "service", "fabric", "gateway")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "target", nargs="?", default="all", choices=_TARGETS,
        help="what to regenerate (default: all)",
    )
    parser.add_argument(
        "--svg-dir", type=Path, default=None,
        help="also write the figures as SVG files into this directory",
    )
    parser.add_argument(
        "--no-overhead", action="store_true",
        help="run the execution arms with the overhead model disabled "
             "(the ablation of DESIGN.md)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="print paper-vs-measured instead of the plain table",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="for the 'report' target: write the markdown there "
             "(default: print to stdout)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per campaign run; a hung run is recorded "
             "as a failure instead of wedging the sweep",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a crashed/hung run up to N times with a bumped "
             "generator seed",
    )
    parser.add_argument(
        "--checkpoint", type=Path, default=None, metavar="PATH",
        help="JSONL checkpoint of per-run results; an existing file is "
             "resumed, completed runs are skipped",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan campaign runs out over N worker processes "
             "(results are bit-identical to a sequential sweep)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the whole sweep (exit status 2) as soon as one run "
             "exhausts its retry budget instead of recording it and "
             "carrying on",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="attach the runtime-verification monitors to every campaign "
             "run; a run with violations is recorded as failed",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the target under cProfile and print the hottest "
             "kernel frames (sorted by total time) afterwards",
    )
    verify_group = parser.add_argument_group("verify target")
    verify_group.add_argument(
        "--chaos-systems", type=int, default=50, metavar="N",
        help="number of seeded chaos scenarios (default: 50)",
    )
    verify_group.add_argument(
        "--chaos-seed", type=int, default=20260806, metavar="SEED",
        help="master seed of the chaos campaign (default: 20260806)",
    )
    verify_group.add_argument(
        "--no-multicore", action="store_true",
        help="drop the multicore chaos flavors (smaller smoke budget)",
    )
    verify_group.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing systems as-is instead of shrinking them to "
             "minimal witnesses",
    )
    verify_group.add_argument(
        "--mutations", action="store_true",
        help="also run the mutation self-test proving every monitor "
             "family non-vacuous",
    )
    overload_group = parser.add_argument_group("overload target")
    overload_group.add_argument(
        "--queue-bound", type=int, default=None, metavar="N",
        help="bound every server's pending queue to N releases "
             "(default: 6)",
    )
    overload_group.add_argument(
        "--shed-policy", choices=_SHED_POLICIES, default=None,
        help="what to shed when the queue bound is hit "
             "(default: drop-oldest)",
    )
    overload_group.add_argument(
        "--breaker-window", type=float, default=None, metavar="TU",
        help="sliding window (in tu) over which per-source circuit "
             "breakers count failures",
    )

    service = parser.add_argument_group("service target")
    service.add_argument(
        "--storm-rate", type=float, default=0.5, metavar="R",
        help="Poisson arrival rate of the service storm, per tu "
             "(default: 0.5)",
    )
    service.add_argument(
        "--storm-horizon", type=float, default=200.0, metavar="TU",
        help="last arrival instant of the storm (default: 200)",
    )
    service.add_argument(
        "--storm-seed", type=int, default=0, metavar="SEED",
        help="master seed of the storm (default: 0)",
    )
    service.add_argument(
        "--drift-ppm", type=float, default=0.0, metavar="PPM",
        help="injected timer drift of the executor, parts per million "
             "(default: 0 — no drift)",
    )
    service.add_argument(
        "--overrun-factor", type=float, default=1.0, metavar="F",
        help="WCET overrun multiplier for skewed requests (default: 1)",
    )
    service.add_argument(
        "--overrun-probability", type=float, default=0.0, metavar="P",
        help="fraction of requests that overrun (default: 0)",
    )
    service.add_argument(
        "--kill-at", type=float, default=None, metavar="TU",
        help="crash the service at this instant and report the twin "
             "state hash (restart drill)",
    )
    service.add_argument(
        "--service-checkpoint", type=Path, default=None, metavar="FILE",
        help="write-ahead JSONL op log of the service (required for "
             "--kill-at restart drills)",
    )
    service.add_argument(
        "--service-resume", action="store_true",
        help="resume a killed storm from --service-checkpoint instead "
             "of starting fresh (completes the restart drill)",
    )
    fabric = parser.add_argument_group("fabric target")
    fabric.add_argument(
        "--fabric-shards", type=int, default=3, metavar="N",
        help="number of supervised admission shards (default: 3)",
    )
    fabric.add_argument(
        "--fabric-sources", type=int, default=6, metavar="N",
        help="number of declared client sources (default: 6)",
    )
    fabric.add_argument(
        "--fabric-kill", action="append", default=[],
        metavar="TIME:SHARD[:corrupt]",
        help="crash shard SHARD at instant TIME; append ':corrupt' to "
             "also tear the tail of its checkpoint (repeatable)",
    )
    fabric.add_argument(
        "--fabric-restart-delay", type=float, default=None, metavar="TU",
        help="supervisor delay between declaring a shard down and "
             "restoring it from its checkpoint",
    )
    fabric.add_argument(
        "--fabric-checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="directory for the per-shard JSONL write-ahead checkpoints "
             "(default: a temporary directory; required persistent for "
             "post-mortem inspection of kill drills)",
    )
    fabric.add_argument(
        "--fabric-duplicate-fraction", type=float, default=0.0,
        metavar="P",
        help="fraction of requests also submitted by an impatient "
             "duplicate client (default: 0)",
    )

    gateway = parser.add_argument_group("gateway target")
    gateway.add_argument(
        "--listen", default=None, metavar="HOST:PORT|unix:PATH",
        help="serve mode: run the gateway as a long-lived listener on "
             "this address (SIGTERM drains gracefully, a second SIGTERM "
             "forces immediate exit); without --listen the target runs "
             "the seeded wall-clock soak drill instead",
    )
    gateway.add_argument(
        "--soak-requests", type=int, default=150, metavar="N",
        help="requests pushed through the soak drill (default: 150)",
    )
    gateway.add_argument(
        "--soak-rate", type=float, default=3.0, metavar="R",
        help="Poisson arrival rate of the soak, per tu (default: 3)",
    )
    gateway.add_argument(
        "--soak-seed", type=int, default=0, metavar="SEED",
        help="master seed of the soak schedule and fault draws "
             "(default: 0)",
    )
    gateway.add_argument(
        "--soak-scale", type=float, default=1e-3, metavar="S",
        help="wall seconds per logical tu (default: 1e-3)",
    )
    gateway.add_argument(
        "--soak-dir", type=Path, default=None, metavar="DIR",
        help="directory for the soak's journal/checkpoint/sockets "
             "(default: a temporary directory)",
    )
    gateway.add_argument(
        "--proxy-faults", default=None,
        metavar="K=V[,K=V...]",
        help="route the soak through the network fault proxy; keys: "
             "latency, jitter (wall seconds), reset, torn, dup, reorder "
             "(per-frame probabilities) — e.g. "
             "'reset=0.03,torn=0.02,dup=0.05,latency=0.002'",
    )

    multicore = parser.add_argument_group("multicore target")
    multicore.add_argument(
        "--cores", type=int, default=4, metavar="M",
        help="number of identical cores to simulate (default: 4)",
    )
    multicore.add_argument(
        "--placement", choices=("ff", "wf", "bf"), default=None,
        help="run only the partitioned arm with this decreasing-"
             "utilization bin-packing heuristic",
    )
    multicore.add_argument(
        "--global-sched", choices=("fp", "edf"), default=None,
        dest="global_sched",
        help="run only the global arm with this scheduler",
    )
    multicore.add_argument(
        "--utilization", type=float, default=None, metavar="U",
        help="total taskset utilization across all cores "
             "(default: cores / 2)",
    )
    multicore.add_argument(
        "--systems", type=int, default=10, metavar="N",
        help="number of generated systems per arm (default: 10)",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    if args.profile:
        return _run_profiled(args, parser)
    return _dispatch(args, parser)


class _CollectorTally:
    """What the cyclic collector did during a profiled run, per
    generation: collections, objects collected and seconds spent inside
    collections.  Installed in ``gc.callbacks``; it only observes."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.collected = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.collected[generation] += info["collected"]
        self.seconds[generation] += time.perf_counter() - self._started

    def line(self) -> str:
        return "gc: " + "; ".join(
            f"gen{g} {self.collections[g]} collections "
            f"{self.collected[g]} collected {self.seconds[g] * 1e3:.2f} ms"
            for g in range(3)
        )


def _run_profiled(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
    """Run the selected target under cProfile and dump a pstats summary
    of the hottest ``repro`` frames (sorted by total time), then one
    line on the cyclic collector (see :class:`_CollectorTally`)."""
    import cProfile
    import gc
    import pstats

    profiler = cProfile.Profile()
    tally = _CollectorTally()
    status = 1
    gc.callbacks.append(tally)
    try:
        status = profiler.runcall(_dispatch, args, parser)
    finally:
        profiler.disable()
        gc.callbacks.remove(tally)
        print("\nprofile: hottest kernel frames (by total time)")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("tottime").print_stats(r"repro[/\\]", 25)
        print(tally.line())
    return status


def _dispatch(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    if args.target == "report":
        from .report import generate_report, markdown_report

        if args.output is not None:
            generate_report(args.output)
            print(f"report written to {args.output}")
        else:
            print(markdown_report())
        return 0

    failures = 0
    wants_tables = args.target in ("all", "table2", "table3", "table4",
                                   "table5", "checks")
    overhead = OverheadModel.zero() if args.no_overhead else None

    run_policy = None
    if (
        args.timeout is not None
        or args.retries
        or args.checkpoint is not None
        or args.fail_fast
    ):
        try:
            run_policy = RunPolicy(
                timeout_s=args.timeout,
                max_retries=args.retries,
                checkpoint_path=args.checkpoint,
                fail_fast=args.fail_fast,
            )
        except ValueError as exc:
            parser.error(str(exc))

    campaign = None
    try:
        if args.target == "multicore":
            return _run_multicore(args, run_policy)
        if args.target == "overload":
            return _run_overload(args, run_policy, overhead)
        if args.target == "verify":
            return _run_verify(args)
        if args.target == "service":
            return _run_service(args)
        if args.target == "fabric":
            return _run_fabric(args)
        if args.target == "gateway":
            return _run_gateway(args)
        if wants_tables:
            campaign = run_campaign(
                overhead=overhead, run_policy=run_policy,
                workers=args.workers, verify=args.verify,
            )
    except RunExhausted as exc:
        print(f"fail-fast: {exc}", file=sys.stderr)
        return 2
    except CheckpointMismatch as exc:
        print(exc, file=sys.stderr)
        return 2

    if campaign is not None:
        failures += _report_failures(campaign.failures)
        table_numbers = (
            (2, 3, 4, 5) if args.target in ("all", "checks")
            else (int(args.target[-1]),)
        )
        if args.target != "checks":
            for number in table_numbers:
                measured = campaign.table(TABLE_ARMS[number])
                if args.compare:
                    print(format_comparison(number, measured))
                else:
                    print(format_table(number, measured))
                print()
        if args.target in ("all", "checks"):
            print("Shape checks (paper conclusions):")
            for check in shape_checks(campaign.tables):
                status = "ok  " if check.holds else "FAIL"
                print(f"  [{status}] {check.description}")
                if not check.holds:
                    failures += 1
            print()

    if args.target in ("all", "figures"):
        print(render_all_figures(svg_dir=args.svg_dir))

    return 1 if failures else 0


def _report_failures(failures: list) -> int:
    """Print a campaign's failed runs, if any; returns their number."""
    if failures:
        print(f"WARNING: {len(failures)} run(s) failed:")
        for record in failures:
            print(
                f"  [{record.status}] {record.arm} set={record.set_key} "
                f"system={record.system_id} after {record.attempts} "
                f"attempt(s)"
            )
    return len(failures)


def _run_multicore(args: argparse.Namespace, run_policy) -> int:
    """The ``multicore`` target: run the SMP campaign and print tables.

    With ``--svg-dir`` the first generated system is additionally
    re-simulated under each selected arm and rendered as a per-core
    Gantt chart (one lane per core, migrations marked).
    """
    from ..sim import svg_gantt_cores
    from ..smp import (
        MULTICORE_MODES,
        MulticoreParameters,
        build_multicore_system,
        format_multicore_campaign,
        run_multicore_campaign,
        run_multicore_system,
    )

    if args.cores < 1:
        print(f"--cores must be >= 1, got {args.cores}", file=sys.stderr)
        return 1
    modes: tuple[str, ...]
    if args.placement is not None and args.global_sched is not None:
        modes = (f"part-{args.placement}", f"global-{args.global_sched}")
    elif args.placement is not None:
        modes = (f"part-{args.placement}",)
    elif args.global_sched is not None:
        modes = (f"global-{args.global_sched}",)
    else:
        modes = MULTICORE_MODES
    utilization = (
        args.utilization if args.utilization is not None
        else args.cores / 2.0
    )
    params = MulticoreParameters(
        n_cores=args.cores,
        total_utilization=utilization,
        nb_systems=args.systems,
    )
    result = run_multicore_campaign(
        params, modes=modes, run_policy=run_policy, workers=args.workers,
        verify=args.verify,
    )
    print(format_multicore_campaign(result.tables))
    failures = _report_failures(result.failures)
    if args.svg_dir is not None:
        args.svg_dir.mkdir(parents=True, exist_ok=True)
        system = build_multicore_system(params, 0)
        for mode in modes:
            run = run_multicore_system(system, params.n_cores, mode)
            path = args.svg_dir / f"multicore_{mode}.svg"
            path.write_text(
                svg_gantt_cores(run.trace, n_cores=params.n_cores),
                encoding="utf-8",
            )
            print(f"wrote {path}")
    return 1 if failures else 0


def _run_verify(args: argparse.Namespace) -> int:
    """The ``verify`` target: the seeded chaos campaign (and, with
    ``--mutations``, the monitor non-vacuity self-test)."""
    from ..verify.chaos import run_chaos_campaign

    if args.chaos_systems < 1:
        print(f"--chaos-systems must be >= 1, got {args.chaos_systems}",
              file=sys.stderr)
        return 1
    failures = 0
    result = run_chaos_campaign(
        n_systems=args.chaos_systems,
        seed=args.chaos_seed,
        multicore=not args.no_multicore,
        shrink=not args.no_shrink,
    )
    print(result.summary())
    for run in result.failures:
        if run.witness_note:
            print(f"  witness #{run.index}: {run.witness_note}")
        for violation in run.violations[:5]:
            print(f"    {violation}")
    failures += len(result.failures)
    if args.mutations:
        from ..verify.mutations import run_mutation_selftest

        print("\nMutation self-test (each monitor family must catch "
              "its seeded bug):")
        for outcome in run_mutation_selftest():
            status = "ok  " if outcome.caught else "FAIL"
            caught = sorted(outcome.kinds & outcome.expected)
            print(f"  [{status}] {outcome.name}: "
                  f"{', '.join(caught) if caught else 'nothing caught'}")
            if not outcome.caught:
                failures += 1
    return 1 if failures else 0


def _run_service(args: argparse.Namespace) -> int:
    """The ``service`` target: one seeded Poisson storm against the
    online admission service, with optional execution skew and a
    kill-at-restart drill; prints the storm report and fails on any
    invariant-monitor violation."""
    import json as _json

    from ..service import StormConfig, run_service_storm

    try:
        config = StormConfig(
            rate=args.storm_rate,
            horizon=args.storm_horizon,
            seed=args.storm_seed,
            drift_ppm=args.drift_ppm,
            overrun_factor=args.overrun_factor,
            overrun_probability=args.overrun_probability,
            kill_at=args.kill_at,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    report = run_service_storm(
        config, checkpoint_path=args.service_checkpoint,
        resume=args.service_resume,
    )
    print(_json.dumps(report.to_dict(), indent=1))
    if args.service_resume:
        print(f"\nresumed from twin hash {report.resumed_from_hash[:16]}\u2026")
    if report.killed:
        print(f"\nkilled at t={report.horizon:g}; twin hash "
              f"{report.twin_hash[:16]}… — resume from "
              f"{args.service_checkpoint}")
        return 0
    if report.violations:
        print(f"\n{len(report.violations)} invariant violation(s):",
              file=sys.stderr)
        for violation in report.violations:
            print(f"  {violation}", file=sys.stderr)
        if args.fail_fast:
            raise _storm_exhausted(
                "service", args.storm_seed, str(report.violations[0])
            )
        return 1
    print("\nstorm clean: every monitor invariant held")
    return 0


def _storm_exhausted(arm: str, system_id: int,
                     error: str) -> RunExhausted:
    """A fail-fast exception for the single-run storm targets, shaped
    like the campaign's so ``--fail-fast`` means exit 2 everywhere (and
    stays picklable across worker-pool boundaries)."""
    return RunExhausted({
        "arm": arm,
        "set_key": [0.0, 0.0],
        "system_id": system_id,
        "status": "failed",
        "attempts": 1,
        "error": error,
    })


def _run_fabric(args: argparse.Namespace) -> int:
    """The ``fabric`` target: a seeded Poisson storm against the sharded
    admission fabric, with an optional kill-the-shard chaos schedule
    (``--fabric-kill TIME:SHARD[:corrupt]``), supervised failover, and
    checkpoint restore; prints the fabric storm report and fails on any
    merged-trace monitor violation, double admission, or unshed hard
    deadline miss."""
    import json as _json
    import tempfile
    from dataclasses import replace as _dc_replace

    from ..fabric import (
        FabricStormConfig,
        ShardKill,
        SupervisorConfig,
        run_fabric_storm,
    )

    kills = []
    for spec in args.fabric_kill:
        parts = spec.split(":")
        try:
            if len(parts) == 3 and parts[2] == "corrupt":
                kills.append(ShardKill(at=float(parts[0]),
                                       shard=int(parts[1]),
                                       corrupt_tail=True))
            elif len(parts) == 2:
                kills.append(ShardKill(at=float(parts[0]),
                                       shard=int(parts[1])))
            else:
                raise ValueError(spec)
        except ValueError:
            print(f"--fabric-kill wants TIME:SHARD[:corrupt], got "
                  f"{spec!r}", file=sys.stderr)
            return 1
    supervisor = SupervisorConfig()
    if args.fabric_restart_delay is not None:
        supervisor = _dc_replace(
            supervisor, restart_delay=args.fabric_restart_delay
        )
    try:
        config = FabricStormConfig(
            rate=args.storm_rate,
            horizon=args.storm_horizon,
            seed=args.storm_seed,
            drift_ppm=args.drift_ppm,
            overrun_factor=args.overrun_factor,
            overrun_probability=args.overrun_probability,
            shards=args.fabric_shards,
            sources=args.fabric_sources,
            supervisor=supervisor,
            kills=tuple(sorted(kills, key=lambda k: (k.at, k.shard))),
            duplicate_fraction=args.fabric_duplicate_fraction,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    def drill(checkpoint_dir):
        return run_fabric_storm(config, checkpoint_dir=checkpoint_dir)

    if args.fabric_checkpoint_dir is not None:
        report = drill(args.fabric_checkpoint_dir)
    elif kills:
        with tempfile.TemporaryDirectory() as tmp:
            report = drill(Path(tmp))
    else:
        report = drill(None)
    print(_json.dumps(report.to_dict(), indent=1))
    problems = list(report.violations)
    if report.double_admitted:
        problems.append(
            f"double admission: {sorted(report.double_admitted)}"
        )
    if report.hard_misses:
        problems.append(
            f"{report.hard_misses} hard deadline miss(es) without SHED"
        )
    if problems:
        print(f"\n{len(problems)} fabric violation(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        if args.fail_fast:
            raise _storm_exhausted("fabric", args.storm_seed, problems[0])
        return 1
    print(f"\nfabric storm clean: {report.kills} kill(s), "
          f"{report.declared_down} declared, {report.restored} restored, "
          "every monitor invariant held")
    return 0


def _parse_proxy_faults(spec: str):
    """``k=v,...`` -> :class:`~repro.gateway.ProxyFaultPlan`."""
    from ..gateway import ProxyFaultPlan

    keys = {
        "latency": "latency_s", "jitter": "jitter_s",
        "reset": "reset_probability", "torn": "torn_frame_probability",
        "dup": "duplicate_probability", "reorder": "reorder_probability",
    }
    kwargs = {}
    for item in spec.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        field = keys.get(key.strip())
        if field is None or not value:
            raise ValueError(
                f"--proxy-faults wants K=V with K in "
                f"{sorted(keys)}, got {item!r}"
            )
        kwargs[field] = float(value)
    return ProxyFaultPlan(**kwargs)


def _run_gateway(args: argparse.Namespace) -> int:
    """The ``gateway`` target.

    Without ``--listen``: the seeded wall-clock soak drill — a real
    Unix-socket gateway under a Poisson front (optionally through the
    network fault proxy and across one ``--kill-at`` kill + journal
    restore), cross-checked fate-for-fate against a ``VirtualClock``
    control replay.  With ``--listen``: a long-lived serving gateway;
    SIGTERM drains gracefully (explicit drain-cutoff fates), a second
    SIGTERM forces an immediate exit.
    """
    import json as _json
    import tempfile

    from ..gateway import GatewaySoakConfig, run_gateway_soak

    plan = None
    if args.proxy_faults is not None:
        try:
            plan = _parse_proxy_faults(args.proxy_faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1

    if args.listen is not None:
        return _serve_gateway(args)

    try:
        config = GatewaySoakConfig(
            requests=args.soak_requests,
            rate=args.soak_rate,
            seed=args.soak_seed,
            scale=args.soak_scale,
            kill_at=args.kill_at,
            proxy=plan,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    if args.soak_dir is not None:
        report = run_gateway_soak(config, args.soak_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            report = run_gateway_soak(config, Path(tmp))
    print(_json.dumps(report.summary(), indent=1))
    problems = [str(v) for v in report.violations]
    problems.extend(
        f"fate divergence {rid}: wall {wall} vs control {control}"
        for rid, wall, control in report.fate_mismatches
    )
    if report.lost:
        problems.append(
            f"{report.lost} request(s) exhausted client retries"
        )
    if problems:
        print(f"\n{len(problems)} gateway violation(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        if args.fail_fast:
            raise _storm_exhausted("gateway", args.soak_seed, problems[0])
        return 1
    print(f"\ngateway soak clean: {report.delivered} request(s) "
          f"delivered at {report.requests_per_sec:.0f} req/s, "
          f"{report.retries} retr{'y' if report.retries == 1 else 'ies'}, "
          + (f"1 kill + restore ({report.replayed} replayed), "
             if report.killed else "")
          + "every fate matched the control replay")
    return 0


def _serve_gateway(args: argparse.Namespace) -> int:
    """Long-lived serving mode of the ``gateway`` target."""
    import asyncio
    import json as _json
    import signal

    from ..gateway import AdmissionGateway, GatewayConfig
    from ..gateway.soak import default_gateway_service_config

    listen = args.listen
    if listen.startswith("unix:"):
        gateway_config = GatewayConfig(unix_path=listen[len("unix:"):])
    else:
        host, _, port = listen.rpartition(":")
        try:
            gateway_config = GatewayConfig(
                host=host or "127.0.0.1", port=int(port)
            )
        except ValueError:
            print(f"--listen wants HOST:PORT or unix:PATH, got "
                  f"{listen!r}", file=sys.stderr)
            return 1

    if args.soak_dir is not None:
        args.soak_dir.mkdir(parents=True, exist_ok=True)

    async def serve() -> int:
        gateway = await AdmissionGateway(
            gateway_config, default_gateway_service_config(),
            seed=args.soak_seed,
            journal_path=(
                args.soak_dir / "gateway-journal.jsonl"
                if args.soak_dir is not None else None
            ),
            checkpoint_path=(
                args.soak_dir / "gateway-checkpoint.jsonl"
                if args.soak_dir is not None else None
            ),
        ).start()
        loop = asyncio.get_running_loop()
        # both signals funnel into the idempotent shutdown path:
        # first = graceful drain, second = forced immediate exit
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, gateway.request_shutdown)
        print(f"gateway listening on {gateway.address}", flush=True)
        assert gateway.terminated is not None
        await gateway.terminated.wait()
        report, _terminals = gateway.finish()
        print(_json.dumps(gateway.metrics(), indent=1))
        if report.violations:
            print(f"{len(report.violations)} violation(s):",
                  file=sys.stderr)
            for violation in report.violations:
                print(f"  {violation}", file=sys.stderr)
            if args.fail_fast:
                raise _storm_exhausted(
                    "gateway", args.soak_seed, str(report.violations[0])
                )
            return 1
        return 0

    return asyncio.run(serve())


def _run_overload(args: argparse.Namespace, run_policy,
                  overhead) -> int:
    """The ``overload`` target: burst-fault sweeps with the overload
    stack armed, reporting shed/breaker/degraded-mode behaviour next to
    the usual response-time metrics."""
    from dataclasses import replace

    from .campaign import default_overload_config, run_overload_campaign

    overload = default_overload_config()
    if args.queue_bound is not None:
        if args.queue_bound < 1:
            print(f"--queue-bound must be >= 1, got {args.queue_bound}",
                  file=sys.stderr)
            return 1
        overload = replace(
            overload,
            queue_bound=replace(
                overload.queue_bound, max_items=args.queue_bound
            ),
        )
    if args.shed_policy is not None:
        overload = replace(
            overload,
            queue_bound=replace(
                overload.queue_bound, policy=args.shed_policy
            ),
        )
    if args.breaker_window is not None:
        if args.breaker_window <= 0:
            print(
                f"--breaker-window must be > 0, got {args.breaker_window}",
                file=sys.stderr,
            )
            return 1
        overload = replace(
            overload,
            breaker=replace(overload.breaker, window=args.breaker_window),
        )

    result = run_overload_campaign(
        overhead=overhead, overload=overload, run_policy=run_policy,
        workers=args.workers,
    )
    arms = sorted({run.arm for run in result.runs})
    for arm in arms:
        summary = result.summary(arm)
        print(f"{arm}:")
        for key, value in summary.items():
            print(f"  {key:>24s}: {value:.4g}")
        print()
    return 1 if _report_failures(result.failures) else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
