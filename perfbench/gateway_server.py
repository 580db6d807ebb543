"""Traced gateway server: the runner's ``gateway --listen`` under spans.

Usage: ``python3 perfbench/gateway_server.py SPANS.json RUNNER-ARGS...``

Installs the server-side layer wrappers of :mod:`perfbench.spans`, then
hands ``RUNNER-ARGS`` to ``repro.experiments.runner.main`` exactly as
``python -m repro.experiments.runner`` would, and writes the recorded
spans to ``SPANS.json`` when the server exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import SERVER_LAYERS, SpanRecorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, runner_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    restore = install(recorder, SERVER_LAYERS)
    from repro.experiments import runner

    try:
        return runner.main(runner_args)
    finally:
        restore()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
