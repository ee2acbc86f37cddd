"""The benchmark tracer's targets name functions that exist.

``bench/tracing.py`` wraps each of its ``TARGETS`` by module and attribute
path when a run passes ``--trace 1``; a renamed or deleted function would
only show up there.  The module is loaded from its file, unmodified.
"""
import importlib
import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                  "bench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, path, span", tracing.TARGETS,
                         ids=[span for _, _, span in tracing.TARGETS])
def test_target_resolves(module, path, span):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{module}.{path} ({span})"
        owner = getattr(owner, part)
    assert callable(owner)
