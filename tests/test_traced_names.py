"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; every name it lists must resolve, so a rename fails here rather than
in a traced benchmark run."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# run_path compiles the source without writing bytecode next to it
names = runpy.run_path(str(TRACER))


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, fs in names["WRAPPED"].items() for f in fs]
)
def test_wrapped_function_resolves(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"coulomblab.{module}"), name))


@pytest.mark.parametrize("module, cls, method", names["WRAPPED_METHODS"])
def test_wrapped_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"coulomblab.{module}"), cls)
    assert inspect.isfunction(inspect.getattr_static(owner, method))
