"""The benchmark tracer wraps names of the package by module and attribute
path; every one of them must still exist, or a traced benchmark run fails."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("metric, module, path, kind", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(metric, module, path, kind):
    owner = importlib.import_module(f"quditmbqc.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # the tracer reads methods from the class's own __dict__
    value = vars(owner).get(attr) if classes else getattr(owner, attr, None)
    assert callable(getattr(value, "__func__", value)), f"{module}.{path} is gone"
    assert kind in ("span", "timed", "count")
