"""repro — reproduction of Masson & Midonnet (2007).

*The Design and Implementation of Real-time Event-based Applications
with RTSJ* (WPDRTS / IPDPS 2007).

Subpackages
-----------
``repro.core``
    The paper's contribution: the Task Server Framework (servable
    events, abstract task server, Polling and Deferrable policies,
    Section 7's O(1) on-line response-time machinery).
``repro.rtsj``
    The emulated RTSJ substrate: a deterministic virtual-time runtime
    with realtime threads, async events, timers, ``Timed`` asynchronous
    transfer of control and a calibrated overhead model.
``repro.sim``
    RTSS, the discrete-event real-time system simulator: FP / EDF /
    D-OVER scheduling, six ideal aperiodic-server policies, temporal
    diagrams and the AART/AIR/ASR metrics.
``repro.analysis``
    Off-line feasibility: exact RTA, server-aware analysis (PS as a
    periodic task, DS double hit), utilization bounds, and the
    decentralised ``getInterference()`` design.
``repro.workload``
    The random real-time system generator (platform-independent
    streams, the paper's Section 6.1 parameters).
``repro.experiments``
    Harness regenerating every table and figure of the evaluation.
``repro.faults``
    Fault injection (WCET overruns, bursts, jitter, drops, timer drift),
    cost-overrun enforcement policies and the deadline-miss watchdog —
    the overload-resilience layer.

Importing ``repro`` or any of its packages loads no submodule: each
package maps its public names to the submodules defining them, and the
first use of a name imports its submodule (PEP 562).
"""

from __future__ import annotations

import importlib
from typing import Callable


def _lazy_exports(namespace: dict, table: dict[str, str]
                  ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose globals
    are ``namespace``, exporting ``table``'s names from its submodules.

    The first access to a name imports its submodule and stores the
    value in the package's globals, so later accesses never come back
    here.  A name equal to its submodule's stands for the submodule
    itself (``repro.core``), and every submodule the table names also
    resolves as an attribute.  A name that shares its submodule's name
    without being it, such as the function ``repro.workload.uunifast``,
    must stay an eager import: once anything imports that submodule, the
    import system binds the module under the same name first.
    """
    package = namespace["__name__"]
    submodules = set(table.values())

    def __getattr__(name: str) -> object:
        submodule = table.get(name, name if name in submodules else None)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "analysis": "analysis",
    "core": "core",
    "experiments": "experiments",
    "faults": "faults",
    "rtsj": "rtsj",
    "sim": "sim",
    "workload": "workload",
})

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "experiments",
    "faults",
    "rtsj",
    "sim",
    "workload",
    "__version__",
]
