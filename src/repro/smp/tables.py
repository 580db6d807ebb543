"""Text tables for the multicore campaign (per-core + aggregate).

Mirrors the paper's Tables 2-5 presentation (AART / AIR / ASR rows) with
the SMP-only columns: one column per core, an aggregate column, the
per-core utilizations and the migration count.
"""

from __future__ import annotations

from ..sim.metrics import aggregate
from .metrics import MulticoreRunMetrics

__all__ = ["format_multicore_table", "format_multicore_campaign"]


def _avg(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def format_multicore_table(mode: str,
                           runs: list[MulticoreRunMetrics]) -> str:
    """One arm's table: aggregate row set plus a per-core breakdown."""
    if not runs:
        return f"{mode}: no completed runs"
    n_cores = runs[0].n_cores
    lines = [f"=== {mode} ({len(runs)} run(s), {n_cores} cores) ==="]
    rows = aggregate([r.aggregate for r in runs]).as_row()
    lines.append(
        "aggregate   "
        + "  ".join(f"{k}={v:7.3f}" for k, v in rows.items())
        + f"  migrations={_avg([float(r.migrations) for r in runs]):.1f}"
    )
    for core in range(n_cores):
        rows = aggregate([r.per_core[core].metrics for r in runs]).as_row()
        util = _avg([r.per_core[core].utilization for r in runs])
        lines.append(
            f"core {core}      "
            + "  ".join(f"{k}={v:7.3f}" for k, v in rows.items())
            + f"  util={util:5.3f}"
        )
    return "\n".join(lines)


def format_multicore_campaign(
    tables: dict[str, list[MulticoreRunMetrics]]
) -> str:
    """All arms, one block per mode, in the given order."""
    return "\n\n".join(
        format_multicore_table(mode, runs) for mode, runs in tables.items()
    )
