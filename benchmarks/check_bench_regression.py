"""Gate benchmark results against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py \
        --benchmark-json=bench-results.json -q
    python benchmarks/check_bench_regression.py bench-results.json

Three passes over ``benchmarks/BENCH_engine.json``:

* **guards** — each guard names a fast-path benchmark and its
  default-kernel companion from the *same* pytest-benchmark run and
  requires the fast/default median ratio to stay under ``max_ratio``
  (the baseline ratio plus 25%).  Comparing a ratio measured within one
  process keeps the gate meaningful across machines and noisy CI
  runners, where absolute millisecond baselines are not.  A guard may
  carry ``fast_systems`` / ``default_systems`` normalisation counts for
  benchmarks that sweep different population sizes (the batch-kernel
  guard compares *per-system* medians this way).  A guard that is
  malformed (missing keys) or that references benchmarks absent from
  the run fails *clearly*, it never KeyErrors.
* **count guards** — each names a benchmark and a count it records in
  ``extra_info`` (say, event-loop turns per decision) and requires the
  count to stay at or under ``max`` (the landed value plus 25%).  A
  count of work repeats exactly from run to run, so unlike a time the
  host's speed cannot move it.  A count that moves with the interpreter
  (say, profiled calls, which CPython 3.12's inlined comprehensions
  change) carries a ``python`` key, ``"major.minor"``: the guard is
  skipped when the results' ``machine_info.python_version`` is another
  minor version.  A count guard that is malformed (missing keys,
  non-numeric bounds, a ``python`` value that is not ``"major.minor"``),
  or whose benchmark ran without recording the count, fails clearly;
  one whose benchmark is absent from the run is skipped, as a ratio
  guard is.
* **auto-seeding** — a benchmark present in the results but absent from
  the baseline trajectory is reported and, unless ``--no-seed`` is
  given, appended to the baseline file as an ``auto-seeded`` entry, so
  brand-new benchmarks enter the committed history the first time they
  run instead of silently by-passing the gate forever.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

BASELINE = pathlib.Path(__file__).with_name("BENCH_engine.json")

_GUARD_KEYS = ("fast", "default", "baseline_ratio", "max_ratio")
_COUNT_GUARD_KEYS = ("bench", "count", "baseline", "max")
_MINOR_VERSION = re.compile(r"\d+\.\d+")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_results(results_path: pathlib.Path) -> dict:
    try:
        return json.loads(results_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read benchmark results: {exc}")


def _python_version(results_path: pathlib.Path) -> str | None:
    """The interpreter version a pytest-benchmark JSON file was made
    with (``machine_info.python_version``), if it says."""
    machine = _read_results(results_path).get("machine_info") or {}
    version = machine.get("python_version")
    return version if isinstance(version, str) else None


def _load_medians(results_path: pathlib.Path) -> dict[str, dict]:
    """name -> {median_ms, min_ms, <numeric extra_info>} from a
    pytest-benchmark JSON file."""
    results = _read_results(results_path)
    benches = results.get("benchmarks")
    if not isinstance(benches, list):
        raise SystemExit(
            f"{results_path} is not a pytest-benchmark JSON file "
            "(no 'benchmarks' list)"
        )
    out: dict[str, dict] = {}
    for bench in benches:
        name = bench.get("name")
        stats = bench.get("stats") or {}
        if name is None or "median" not in stats:
            print(f"SKIP  malformed benchmark record: {bench.get('name')!r}")
            continue
        out[name] = {
            "median_ms": round(stats["median"] * 1e3, 4),
            "min_ms": round(stats.get("min", stats["median"]) * 1e3, 4),
        }
        out[name].update(
            (key, value)
            for key, value in (bench.get("extra_info") or {}).items()
            if _is_number(value)
        )
        systems = out[name].get("systems")
        if systems is not None and systems > 0:
            out[name]["systems_per_sec"] = round(
                systems / (stats["median"] or 1e-12), 1
            )
    return out


def _check_guards(baseline: dict, medians: dict[str, dict]) -> int:
    failures = 0
    for index, guard in enumerate(baseline.get("guards", [])):
        missing_keys = [k for k in _GUARD_KEYS if k not in guard]
        if missing_keys:
            print(
                f"BROKEN  guard #{index} is missing "
                f"{', '.join(missing_keys)} — fix BENCH_engine.json"
            )
            failures += 1
            continue
        fast, default = guard["fast"], guard["default"]
        absent = [n for n in (fast, default) if n not in medians]
        if absent:
            print(f"SKIP  {fast}: {', '.join(absent)} missing from results")
            continue
        # per-system normalisation for population-sweep benchmarks
        fast_n = guard.get("fast_systems", 1)
        default_n = guard.get("default_systems", 1)
        ratio = (medians[fast]["median_ms"] / fast_n) / (
            medians[default]["median_ms"] / default_n
        )
        scope = "per-system " if fast_n != 1 or default_n != 1 else ""
        verdict = "ok" if ratio <= guard["max_ratio"] else "REGRESSION"
        print(
            f"{verdict:>10}  {fast}: fast/default {scope}median ratio "
            f"{ratio:.3f} (baseline {guard['baseline_ratio']:.3f}, "
            f"max {guard['max_ratio']:.3f})"
        )
        if ratio > guard["max_ratio"]:
            failures += 1
    return failures


def _check_count_guards(baseline: dict, medians: dict[str, dict],
                        python_version: str | None = None) -> int:
    """Check every count guard; ``python_version`` is the results'
    interpreter version (a guard pinned to a Python minor version is
    checked whenever it is unknown)."""
    failures = 0
    running = (
        ".".join(python_version.split(".")[:2]) if python_version else None
    )
    for index, guard in enumerate(baseline.get("count_guards", [])):
        missing_keys = [k for k in _COUNT_GUARD_KEYS if k not in guard]
        python = guard.get("python")
        if missing_keys:
            problem = f"is missing {', '.join(missing_keys)}"
        elif not (_is_number(guard["baseline"]) and _is_number(guard["max"])):
            problem = "has a non-numeric baseline or max"
        elif python is not None and not (
            isinstance(python, str) and _MINOR_VERSION.fullmatch(python)
        ):
            problem = f"has python {python!r}, not \"major.minor\""
        else:
            problem = None
        if problem:
            print(f"BROKEN  count guard #{index} {problem} "
                  "— fix BENCH_engine.json")
            failures += 1
            continue
        bench, count = guard["bench"], guard["count"]
        if bench not in medians:
            print(f"SKIP  {bench}: missing from results")
            continue
        if python is not None and running is not None and running != python:
            print(f"SKIP  {bench}: {count} is pinned for Python {python}, "
                  f"results are from {python_version}")
            continue
        value = medians[bench].get(count)
        if not _is_number(value):
            print(f"BROKEN  {bench} recorded no extra_info[{count!r}] "
                  "for its count guard")
            failures += 1
            continue
        verdict = "ok" if value <= guard["max"] else "REGRESSION"
        print(
            f"{verdict:>10}  {bench}: {count} {value:g} "
            f"(baseline {guard['baseline']:g}, max {guard['max']:g})"
        )
        if value > guard["max"]:
            failures += 1
    return failures


def _throughput_deltas(baseline: dict,
                       medians: dict[str, dict]) -> list[str]:
    """systems/sec summaries for population-sweep benchmarks, with the
    delta against the most recent baseline entry that recorded one."""
    deltas: list[str] = []
    trajectory = baseline.get("trajectory", {})
    for name in sorted(medians):
        sps = medians[name].get("systems_per_sec")
        if sps is None:
            continue
        base_sps = next(
            (e["systems_per_sec"] for e in reversed(trajectory.get(name, []))
             if "systems_per_sec" in e),
            None,
        )
        if base_sps:
            pct = 100.0 * (sps - base_sps) / base_sps
            deltas.append(f"{name} {sps:,.0f} systems/sec ({pct:+.1f}%)")
        else:
            deltas.append(f"{name} {sps:,.0f} systems/sec (no baseline)")
    return deltas


def _seed_new(baseline: dict, medians: dict[str, dict],
              seed: bool) -> list[str]:
    """Report (and optionally append) benchmarks with no baseline entry."""
    trajectory = baseline.setdefault("trajectory", {})
    new = sorted(n for n in medians if n not in trajectory)
    for name in new:
        if seed:
            trajectory[name] = [dict(rev="auto-seeded", **medians[name])]
            print(f"NEW   {name}: no baseline entry — seeded "
                  f"(median {medians[name]['median_ms']:.3f} ms)")
        else:
            print(f"NEW   {name}: no baseline entry "
                  "(--no-seed: left unseeded)")
    return new


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if not a.startswith("--")]
    seed = "--no-seed" not in argv
    if len(args) != 1:
        print(__doc__)
        return 2
    results_path = pathlib.Path(args[0])
    medians = _load_medians(results_path)
    try:
        baseline = json.loads(BASELINE.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read baseline {BASELINE}: {exc}")
    failures = _check_guards(baseline, medians)
    failures += _check_count_guards(
        baseline, medians, _python_version(results_path)
    )
    throughput = _throughput_deltas(baseline, medians)
    new = _seed_new(baseline, medians, seed)
    if new and seed:
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"\nseeded {len(new)} new baseline entr"
              f"{'y' if len(new) == 1 else 'ies'} into {BASELINE.name}")
    summary = (
        "; throughput: " + ", ".join(throughput) if throughput else ""
    )
    if failures:
        print(f"\n{failures} guard(s) regressed or broken{summary}")
        return 1
    print(f"\nall benchmark guards within bounds{summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
