"""The benchmark's tracer wraps klcells functions by name; a traced name
that the library renames or removes is only reported in the traced
child's stderr and drops its per-layer metric, so check that every name
still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("modname, attr", [(m, a) for m, a, _ in tracing.FUNCTIONS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, clsname, attr",
                         [(m, c, a) for m, c, a, _ in tracing.METHODS])
def test_traced_method_exists(modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname)
    # The tracer looks the method up in the class's own namespace.
    assert attr in vars(cls)
