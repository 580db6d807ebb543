"""The package namespaces: every public name and what an import loads.

Each ``repro`` package re-exports names from its submodules.  The first
test locks that surface: after every module of the tree is imported,
each name in a package's ``__all__`` is the very object the submodule
defining it holds (never, say, a submodule of the same name), and
``dir(package)`` lists it.

The others lock what an import loads.  Each package resolves its names
on first use, so a process imports only the modules its run calls:
``import repro`` loads nothing else, a serving gateway's imports leave
the campaign, the analysis, the VM and the simulation kernel out, and
a service storm never loads the VM or the simulation kernel.  Each
runs in a fresh interpreter, since this one has imported the whole
tree.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

_MISSING = object()


def _tree() -> tuple[list[types.ModuleType], list[types.ModuleType]]:
    """(every package, every plain module) under ``repro``, all imported."""
    packages, modules = [repro], []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        (packages if info.ispkg else modules).append(module)
    return packages, modules


def _defining_module(package: types.ModuleType, name: str, value: object,
                     modules: list[types.ModuleType]) -> types.ModuleType:
    """The module whose ``name`` is ``value``: for a class or function the
    module that defines it, for a constant a plain module under
    ``package`` that binds it, else the package itself."""
    defined_in = getattr(value, "__module__", None)
    if isinstance(value, (type, types.FunctionType)) and defined_in:
        return sys.modules[defined_in]
    holders = [
        module for module in modules
        if module.__name__.startswith(package.__name__ + ".")
        and vars(module).get(name, _MISSING) is value
    ]
    return holders[0] if holders else package


def test_every_public_name_is_its_defining_submodules_object():
    packages, modules = _tree()
    checked = 0
    for package in packages:
        assert set(package.__all__) <= set(dir(package)), package.__name__
        for name in package.__all__:
            value = getattr(package, name)
            qualified = f"{package.__name__}.{name}"
            if hasattr(value, "__path__"):
                # a subpackage re-exported by name (``repro.core``, ...)
                assert sys.modules[qualified] is value, qualified
            else:
                assert not isinstance(value, types.ModuleType), (
                    f"{qualified} is the module, not the name it exports"
                )
                module = _defining_module(package, name, value, modules)
                assert (module is package or module.__name__.startswith(
                    package.__name__ + ".")), (
                    f"{qualified} comes from {module.__name__}"
                )
                assert vars(module).get(name) is value, qualified
            checked += 1
    assert checked > 300


def _loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_import_repro_loads_no_other_repro_module():
    assert _loaded_after("import repro") == {"repro"}


@pytest.mark.parametrize("code, absent", [
    (
        "import repro.experiments.runner\n"
        "from repro.gateway import AdmissionGateway\n",
        ("repro.experiments.campaign", "repro.analysis", "repro.rtsj.vm",
         "repro.core.polling", "repro.sim.engine", "repro.verify",
         "repro.smp", "repro.fabric"),
    ),
    (
        "import repro.service.storm\n",
        ("repro.rtsj.vm", "repro.sim.engine"),
    ),
], ids=["serving-gateway", "service-storm"])
def test_an_import_loads_only_what_its_run_calls(code, absent):
    loaded = _loaded_after(code)
    assert not {
        module for module in loaded
        if any(module == name or module.startswith(name + ".")
               for name in absent)
    }
