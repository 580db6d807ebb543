"""End-to-end benchmark of the reproduction, with layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
All load comes from this process, over at most two connections.

Workloads (each a closed loop; the seed fixes the op list):

* ``paper_campaign`` — op ``i`` is ``run_campaign(sets=(p,))`` for paper
  set ``i % 6`` at master seed ``seed + i // 6``, so at seed 1983 ops
  0-5 are the paper's Tables 2-5.  Work unit: one (arm, system) run.
* ``admission_storm`` — op ``k`` is one skewed ``run_service_storm`` at
  seed ``seed + k`` on a VirtualClock.  Work unit: one decision.
* ``gateway_closed_loop`` — the runner's ``gateway --listen`` in a
  child process with its journal on disk, two connections each sending
  the next ``soak_requests`` request when its ticket arrives.  Work
  unit: one ticket.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
throughput, op latency p50/p90, set-up time (median of several
set-ups) and peak RSS (this process; the server for the gateway).
Times and rates are given on a nominal host: each op, gateway segment
and set-up is divided by the host factor of the reference loop timed
just before and after it (``workloads.host_factor``), because the
shared host's CPU speed drifts by more than the bounds; the wall-clock
figures are printed next to them.  The measured gateway has no on-disk
journal (see ``workloads.GatewayClosedLoop``).
``--trace 1`` runs the op list untraced, then again under the layer
wrappers of ``spans.py``, checks that both passes give the same output
digest, and reports the per-layer metrics.  Which layer metric should
move which end-to-end metric, and where it should stay flat:

* ``workload.*``, ``sim.*``, ``rtsj.*``, ``metrics.*``,
  ``experiments.*`` — paper_campaign throughput and latency; 0 on the
  other two workloads.
* ``service.clock_self_ms``, ``service.repair_ms``,
  ``service.twin_ms``, ``service.submit_*`` — admission_storm (submit
  and twin also, slightly, the gateway); 0 on paper_campaign.
* ``gateway.*`` — gateway_closed_loop throughput and latency; 0 on the
  in-process workloads.  ``gateway.{service,framing,unattributed}_ms``
  split one round trip and sum to ``gateway.round_trip_ms``;
  ``gateway.journal_*`` come from an extra traced pass with the
  journal on disk and split ``gateway.journaled_round_trip_ms``.
* ``host.ref_loop_ms`` (a fixed pure-Python loop timed between ops) and
  ``trace.overhead_pct`` should move with nothing the program does.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness gate
fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: every run must end within 180 s: ops left after this many seconds are
#: not run, which leaves time for the gateway's replay and shutdown
RUN_LIMIT_S = 120.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _probe_setup_s(args) -> float:
    """Seconds from spawning a fresh process to the end of its
    set-up: imports, input generation and one untimed warm-up op."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--setup-probe"]
    start = time.perf_counter_ns()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = (time.perf_counter_ns() - start) / 1e9
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}: {line!r}")
    return elapsed


def _end_to_end(out, setup_s: list[float], nominal_setup_s: list[float],
                rss_mb: float) -> tuple[dict, dict]:
    """(the reported figures, the wall-clock ones).

    Times and rates are reported on the nominal host: each op, gateway
    segment and set-up is scaled by the host factor of the reference
    samples around it (see ``workloads.host_factor``)."""
    def p90(values: list[float]) -> float:
        return (statistics.quantiles(values, n=10)[8] if len(values) > 1
                else values[0])

    wall = out.latencies_ms or [0.0]
    nominal = out.nominal_latencies_ms or [0.0]
    return {
        "throughput_per_s": out.nominal_throughput,
        "latency_p50_ms": statistics.median(nominal),
        "latency_p90_ms": p90(nominal),
        "setup_s": statistics.median(nominal_setup_s),
        "peak_rss_mb": rss_mb,
    }, {
        "throughput_per_s": out.throughput,
        "latency_p50_ms": statistics.median(wall),
        "latency_p90_ms": p90(wall),
        "setup_s": statistics.median(setup_s),
    }


def _per_layer(names, untraced, traced, spans, ops: int) -> dict:
    """Every per-layer metric; layers this workload does not reach are 0."""
    from perfbench.spans import layer_metrics

    values = dict.fromkeys(names, 0.0)
    values.update(layer_metrics(spans, ops))
    counts = traced.counts
    per_op = max(ops, 1)
    for name in ("service.decisions", "service.replans",
                 "service.divergences", "service.client_retries"):
        values[name] = counts.get(name, 0.0) / per_op
    decisions = counts.get("service.decisions", 0.0)
    values["service.admit_share"] = (
        counts.get("service.admits", 0.0) / decisions if decisions else 0.0
    )
    values.update(traced.extra)
    values["host.ref_loop_ms"] = statistics.median(
        untraced.ref_ms + traced.ref_ms
    )
    # on the nominal host: the host may drift between the two passes
    values["trace.overhead_pct"] = (
        100.0 * (untraced.nominal_throughput / traced.nominal_throughput - 1)
        if traced.nominal_throughput else 0.0
    )
    return values


def _run_in_process(workload, args, deadline: float, names: list[str]):
    from perfbench.spans import IN_PROCESS_LAYERS, SpanRecorder, install
    from perfbench.workloads import (
        SETUP_SAMPLES,
        Outcome,
        host_factor,
        ref_loop_ms,
    )

    setup_s, nominal_setup_s = [], []
    before = ref_loop_ms()
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        setup_s.append(_probe_setup_s(args))
        after = ref_loop_ms()
        nominal_setup_s.append(setup_s[-1] / host_factor(before, after))
        before = after
    items = workload.ops(args.seed, args.seconds)
    gate = Outcome()
    workload.prepare(gate)
    workload.execute(items[0])   # warm-up, untimed
    untraced = workload.run(items, deadline)
    untraced.problems[:0] = gate.problems
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return [untraced], *_end_to_end(untraced, setup_s, nominal_setup_s,
                                        rss_mb)
    recorder = SpanRecorder()
    restore = install(recorder, IN_PROCESS_LAYERS)
    try:
        traced = workload.run(items, deadline, recorder)
    finally:
        restore()
    recorder.dump(WORK / f"spans-{workload.name}.json")
    return [untraced, traced], _per_layer(names, untraced, traced,
                                          recorder.spans, len(items)), {}


def _run_gateway(workload, args, deadline: float, workdir: Path,
                 names: list[str]):
    from perfbench.spans import gateway_window_metrics, load_spans
    from perfbench.workloads import (
        JOURNALED_REQUESTS_PER_S,
        SETUP_SAMPLES,
        Outcome,
        host_factor,
        ref_loop_ms,
    )

    requests = workload.ops(args.seed, args.seconds)
    if not args.trace:
        gate = Outcome()
        setup_s, nominal_setup_s = [], []
        for k in range(SETUP_SAMPLES):
            before = ref_loop_ms()
            server, seconds, warm_up = workload.start(
                workdir / f"server-{k}", args.seed, f"warm-up-{k}")
            setup_s.append(seconds)
            nominal_setup_s.append(seconds / host_factor(before,
                                                         ref_loop_ms()))
            if k < SETUP_SAMPLES - 1:
                workload.finish(server, {}, warm_up, gate)
        out, replies = workload.run(server, requests, deadline)
        workload.finish(server, replies, warm_up, out)
        out.problems[:0] = gate.problems
        return [out], *_end_to_end(out, setup_s, nominal_setup_s,
                                   out.peak_rss_mb)
    # plain and traced run the workload as measured; the journaled pass
    # runs a prefix of it with the journal and checkpoint on disk
    spans_path = WORK / f"spans-{workload.name}.json"
    journaled_path = WORK / f"spans-{workload.name}-journaled.json"
    journaled = requests[:max(2, args.seconds * JOURNALED_REQUESTS_PER_S)]
    passes, spans, server_metrics = [], [], []
    for label, part, server_args in (
        ("plain", requests, {}),
        ("traced", requests, {"spans_path": spans_path}),
        ("journaled", journaled,
         {"spans_path": journaled_path, "journal": True}),
    ):
        server, _seconds, warm_up = workload.start(
            workdir / label, args.seed, f"warm-up-{label}", **server_args)
        out, replies = workload.run(server, part, deadline)
        server_metrics.append(workload.finish(server, replies, warm_up, out))
        passes.append(out)
        if label != "plain":
            windows = {rid: (reply.send_ns, reply.received_ns)
                       for rid, reply in replies.items()
                       if reply.error is None}
            spans.append((load_spans(server_args["spans_path"]), windows))
    untraced, traced, _journaled = passes
    (traced_spans, windows), (journal_spans, journal_windows) = spans
    split = gateway_window_metrics(traced_spans, windows)
    journal_split = gateway_window_metrics(journal_spans, journal_windows)
    traced.extra.update({
        "gateway.round_trip_ms": split["round_trip_ms"],
        "gateway.service_ms": split["service_ms"],
        "gateway.framing_ms": split["framing_ms"],
        "gateway.unattributed_ms": split["unattributed_ms"],
        "gateway.journaled_round_trip_ms": journal_split["round_trip_ms"],
        "gateway.journal_ms": journal_split["journal_ms"],
        "gateway.journal_share": journal_split["journal_share"],
        "gateway.journal_appends": sum(
            1 for span in journal_spans if span[0] == "gateway.journal"
        ) / len(journaled),
        "gateway.busy_rejections": sum(
            m.get("busy_rejections", 0) for m in server_metrics),
        "gateway.settle_overruns": sum(
            m.get("settle_overruns", 0) for m in server_metrics),
    })
    return passes, _per_layer(names, untraced, traced, traced_spans,
                              len(requests)), {}


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, median

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.execute(workload.ops(args.seed, args.seconds)[0])
        print("ready", flush=True)
        return 0

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in spec["per_layer"]]
    deadline = started + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if workload.name == "gateway_closed_loop":
            passes, values, raw = _run_gateway(workload, args, deadline,
                                               workdir, names)
        else:
            passes, values, raw = _run_in_process(workload, args, deadline,
                                                  names)
    finally:
        for server in getattr(workload, "servers", ()):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for out in passes for p in out.problems]
    # the first two passes run the same op list, untraced and traced
    digests = {out.digest.hexdigest() for out in passes[:2]}
    if len(digests) > 1:
        problems.append("the traced pass's output digest differs from the "
                        "untraced pass's")
    attempted = sum(out.attempted for out in passes)
    failed = sum(out.failed for out in passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    correct = not problems and failed == 0

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"digest {workload.name} {passes[0].digest.hexdigest()}")
    print(f"host.ref_loop_ms {median([r for out in passes for r in out.ref_ms])!r}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    for metric in wanted:
        name = metric["name"]
        wall = f"   (wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<26} {values[name]:>14.6g} {metric['unit']}{wall}")
    print(f"ops attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
