"""The benchmark's tracer wraps library functions by name, so each one it
names must exist: a deleted wrapper would break a traced benchmark run
without failing any other test."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, attr, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(target), (mod_name, attr)
    # the tracer also wraps GroupAlgebra.__init__ directly
    assert callable(importlib.import_module("period_lab.rings").GroupAlgebra.__init__)
