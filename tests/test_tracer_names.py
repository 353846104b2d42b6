"""The benchmark tracer wraps module-level names of mlfourier by
(module, attribute); a renamed or deleted name makes its traced run fail
on `getattr`.  This checks each one resolves, without installing the
tracer: bench/tracing.py is loaded by path, as a plain module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, a, _ in _TRACING.SPANS + _TRACING.COUNTERS],
    ids=lambda v: v,
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
