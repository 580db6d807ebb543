"""The bench-smoke gate's count guards: they read a count a benchmark
records in ``extra_info`` and fail clearly when they cannot run."""

from __future__ import annotations

import importlib.util
import json
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", BENCHMARKS / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

GUARD = {"bench": "bench_x", "count": "turns", "baseline": 2.0, "max": 2.5}


def _medians(tmp_path, extra_info) -> dict:
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"benchmarks": [{
        "name": "bench_x",
        "stats": {"median": 0.01, "min": 0.009},
        "extra_info": extra_info,
    }]}))
    return gate._load_medians(path)


def _failures(guard, medians) -> int:
    return gate._check_count_guards({"count_guards": [guard]}, medians)


def test_count_at_or_under_max_passes(tmp_path, capsys):
    assert _failures(GUARD, _medians(tmp_path, {"turns": 2.5})) == 0
    assert "ok  bench_x: turns 2.5" in capsys.readouterr().out


def test_count_over_max_fails(tmp_path, capsys):
    assert _failures(GUARD, _medians(tmp_path, {"turns": 43.05})) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_malformed_guard_fails_clearly(tmp_path, capsys):
    medians = _medians(tmp_path, {"turns": 2.0})
    no_max = {k: v for k, v in GUARD.items() if k != "max"}
    assert _failures(no_max, medians) == 1
    assert _failures(dict(GUARD, max="2.5"), medians) == 1
    out = capsys.readouterr().out
    assert "BROKEN  count guard #0 is missing max" in out
    assert "non-numeric" in out


def test_count_missing_from_the_run_fails_clearly(tmp_path, capsys):
    assert _failures(GUARD, _medians(tmp_path, {"other": 1})) == 1
    assert "BROKEN  bench_x recorded no extra_info['turns']" in (
        capsys.readouterr().out
    )


def test_absent_benchmark_is_skipped(capsys):
    assert _failures(GUARD, {}) == 0
    assert "SKIP" in capsys.readouterr().out


def test_committed_count_guards_are_well_formed():
    baseline = json.loads((BENCHMARKS / "BENCH_engine.json").read_text())
    guards = baseline["count_guards"]
    assert guards
    for guard in guards:
        assert all(key in guard for key in gate._COUNT_GUARD_KEYS)
        assert guard["baseline"] <= guard["max"]
        assert guard["bench"] in baseline["trajectory"]
