"""The benchmark harness traces the program's public functions by name; a
renamed or removed function must fail here, not only in a benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    import workloads

    assert workloads.TARGETS
    for target in workloads.TARGETS:
        module_name, attr = target.path.split(":")
        owner = importlib.import_module(module_name)
        if "." in attr:  # traced on its class, as a classmethod
            cls_name, meth = attr.split(".")
            assert isinstance(vars(getattr(owner, cls_name))[meth], classmethod), target.path
        else:
            assert callable(getattr(owner, attr)), target.path
    for name in ("inputs", "tracer", "workloads"):
        sys.modules.pop(name, None)
