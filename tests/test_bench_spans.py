"""The benchmark's tracer wraps program functions by module and attribute
path; a refactor that renames or moves one breaks traced benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name, module, path", spans.SPANS + spans.COUNTERS)
def test_traced_function_resolves(name, module, path):
    assert callable(spans._resolve(module, path)), name
