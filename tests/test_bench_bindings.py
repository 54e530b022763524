"""The benchmark's tracer wraps module bindings by name; each must exist.

``perfbench/tracing.py`` rebinds names such as ``treegap.oracle.gamma_T``
for the length of a traced run.  A refactor that drops one of those
imports breaks the traced benchmark, so this test resolves every binding
the tracer lists, without installing any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, path", tracing.all_bindings())
def test_binding_resolves(module, path):
    owner, name = tracing.resolve(module, path)
    assert callable(getattr(owner, name))
