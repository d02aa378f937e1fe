"""The benchmark's traced pass wraps sqcirc functions by name: every name in
bench/tracing.py's SPANS and COUNTED must stay a module-level function, or
its install fails while the rest of the suite still passes."""
import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS + module.COUNTED


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_is_a_module_function(qualname):
    mod, func = qualname.split(".")
    module = importlib.import_module(f"sqcirc.{mod}")
    value = getattr(module, func, None)
    assert inspect.isfunction(value), f"sqcirc.{qualname} is not a function"
