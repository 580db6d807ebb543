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


def _results(tmp_path, extra_info, python_version=None):
    path = tmp_path / "results.json"
    results = {"benchmarks": [{
        "name": "bench_x",
        "stats": {"median": 0.01, "min": 0.009},
        "extra_info": extra_info,
    }]}
    if python_version is not None:
        results["machine_info"] = {"python_version": python_version}
    path.write_text(json.dumps(results))
    return path


def _medians(tmp_path, extra_info) -> dict:
    return gate._load_medians(_results(tmp_path, extra_info))


def _failures(guard, medians, python_version=None) -> int:
    return gate._check_count_guards(
        {"count_guards": [guard]}, medians, python_version
    )


def _failures_on(tmp_path, guard, extra_info, python_version) -> int:
    """Gate one results file made on ``python_version``."""
    path = _results(tmp_path, extra_info, python_version)
    return _failures(guard, gate._load_medians(path),
                     gate._python_version(path))


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


def test_guard_pinned_to_the_running_python_is_checked(tmp_path, capsys):
    pinned = dict(GUARD, python="3.11")
    assert _failures_on(tmp_path, pinned, {"turns": 43.05}, "3.11.7") == 1
    assert "REGRESSION  bench_x: turns 43.05" in capsys.readouterr().out


def test_guard_pinned_to_another_python_is_skipped(tmp_path, capsys):
    pinned = dict(GUARD, python="3.11")
    assert _failures_on(tmp_path, pinned, {"turns": 43.05}, "3.12.1") == 0
    out = capsys.readouterr().out
    assert "SKIP  bench_x: turns is pinned for Python 3.11" in out
    assert "REGRESSION" not in out


def test_malformed_python_pin_fails_clearly(tmp_path, capsys):
    for python in ("3", "3.11.7", 3.11, "py3.11"):
        assert _failures_on(tmp_path, dict(GUARD, python=python),
                            {"turns": 2.0}, "3.11.7") == 1
    out = capsys.readouterr().out
    assert out.count("BROKEN  count guard #0 has python") == 4


def test_committed_count_guards_are_well_formed():
    baseline = json.loads((BENCHMARKS / "BENCH_engine.json").read_text())
    guards = baseline["count_guards"]
    assert guards
    for guard in guards:
        assert all(key in guard for key in gate._COUNT_GUARD_KEYS)
        assert guard["baseline"] <= guard["max"]
        assert guard["bench"] in baseline["trajectory"]
