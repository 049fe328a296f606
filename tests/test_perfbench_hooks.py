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


def _program_modules():
    return {m: mod for m, mod in sys.modules.items() if m == "toudesign" or m.startswith("toudesign.")}


def _run_every_workload_at_toy_size(monkeypatch, trace):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # The harness re-imports the program for every round; put back the copy
    # the other tests use, so that their exception classes stay the same.
    program = _program_modules()
    try:
        import harness
        from workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            record, details = harness.run(name, 7, 0.0, trace, workload.toy, PERFBENCH.parent)
            assert record["correct"], (name, details.problems)
            assert record["failed"] == 0 and record["attempted"] > 0, (name, record)
            if trace:
                metrics = record["metrics"]
                for counter in ("response.respond_calls", "costs.social_cost_calls"):
                    assert metrics[counter]["value"] == 0, (name, counter)
    finally:
        for m in _program_modules():
            del sys.modules[m]
        sys.modules.update(program)
        for name in ("harness", "inputs", "tracer", "workloads"):
            sys.modules.pop(name, None)


def test_every_workload_runs_correctly_at_toy_size(monkeypatch):
    _run_every_workload_at_toy_size(monkeypatch, False)


def test_every_workload_runs_correctly_at_toy_size_when_traced(monkeypatch):
    # The tracer finds each target's module in sys.modules, so a traced module
    # that `import toudesign` does not load fails only traced runs.
    _run_every_workload_at_toy_size(monkeypatch, True)
