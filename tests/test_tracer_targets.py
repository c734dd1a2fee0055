"""The benchmark's span tracer (bench/tracer.py) wraps tworow functions that
it names by (module, attribute).  A name that no longer resolves would make
`Tracer.install` raise on every traced run, so each must stay a tworow
function.  The tracer is loaded from its file and not changed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, module, attr", [*tracer.SPANNED, *tracer.COUNTED])
def test_traced_name_resolves_to_a_tworow_function(name, module, attr):
    fn = getattr(importlib.import_module(module), attr, None)
    assert inspect.isfunction(fn), f"{name}: {module}.{attr} is not a function"
    assert fn.__module__ == module, f"{name}: {module}.{attr} comes from {fn.__module__}"
