"""The benchmark's tracer must find every function it names.

perfbench/tracing.py wraps the functions listed in its LAYERS table by
attribute lookup on the sepnmf modules; a renamed or deleted function
breaks `perfbench/run.py --trace 1` at set-up. This reads the table only.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, func) for mod, funcs in module.LAYERS.items() for func in funcs]


@pytest.mark.parametrize("module,func", _layers())
def test_traced_function_resolves(module, func):
    owner = importlib.import_module(f"sepnmf.{module}")
    assert callable(getattr(owner, func, None)), f"sepnmf.{module}.{func}"


def test_active_backend_is_numpy():
    # perfbench/run.py's environment() records sepnmf.active_backend() in every run
    import sepnmf

    assert sepnmf.active_backend() == "numpy"
