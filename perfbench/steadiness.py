"""Do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steadiness.py [--pairs 10] [--seconds S]
                                    [--workloads a,b,...] [--seed 1]

Runs two interleaved sets, A B A B ..., of every workload: pair ``i``
runs seed ``seed + i`` once for A and once for B.  For each end-to-end
metric it prints each set's median and quartiles, each set's spread
(quartile distance over the median) and the difference between the set
medians, both against the metric's bound in ``BENCHMARK.json``, then
the same for the wall-clock figures and the host reference loop, so a
disagreement can be checked against the host's own drift.  Exits 1 if
a spread (``setup_s`` excepted) or a median difference exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        words = line.split()
        if words and words[0] == "host.ref_loop_ms":
            values["host.ref_loop_ms"] = float(words[1])
        elif "(wall clock" in line:
            values[f"wall:{words[0]}"] = float(words[-1].rstrip(")"))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.pairs):
        for workload in workloads:
            for label in "AB":
                values = run_once(workload, args.seed + i, args.seconds)
                runs[(workload, label)].append(values)
                print(f"{workload} {label} seed {args.seed + i} "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)
    ok = True
    for workload in workloads:
        print(f"\n{workload}: {args.pairs} runs per set, "
              f"{args.seconds} s each")
        print(f"  {'metric':<24} {'set':<3} {'q1':>10} {'median':>10} "
              f"{'q3':>10} {'spread':>7}  {'|dA-B|':>7} {'bound':>6}")
        metrics = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
        # the raw wall-clock figures and the host's own drift, unbounded
        unbounded = [(name, None) for name in runs[(workload, "A")][0]
                     if name.startswith("wall:")]
        for name, bound in [*metrics, *unbounded,
                            ("host.ref_loop_ms", None)]:
            medians = {}
            for label in "AB":
                q1, med, q3 = quartiles(
                    [r[name] for r in runs[(workload, label)]])
                medians[label] = med
                spread = (q3 - q1) / med
                line = (f"  {name:<24} {label:<3} {q1:>10.5g} {med:>10.5g} "
                        f"{q3:>10.5g} {spread:>7.1%}")
                if label == "B":
                    shift = abs(medians["A"] - med) / medians["A"]
                    line += f"  {shift:>7.1%}"
                    if bound is not None:
                        line += f" {bound:>6.0%}"
                        ok &= shift <= bound
                if bound is not None and name != "setup_s":
                    flag = ("" if spread <= bound / 3 else
                            " (over a third of the bound)" if spread <= bound
                            else " (OVER THE BOUND)")
                    line += flag
                    ok &= spread <= bound
                print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
