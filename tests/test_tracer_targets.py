"""The benchmark tracer's targets name code that exists.

`bench/tracer.py` patches spescreen functions and methods by name, so a
deletion or rename there breaks only the traced benchmark runs. This test
resolves every target the way `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.TARGETS))
def test_target_resolves(name):
    module_name, attr = tracer.TARGETS[name]
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        # install() takes the method from the class's own __dict__
        assert meth in vars(cls), f"{attr} is not defined on {cls_name}"
        assert callable(vars(cls)[meth])
    else:
        assert callable(getattr(module, attr, None)), \
            f"{module_name} has no function {attr}"


def test_hooks_name_targets():
    assert set(tracer.HOOKS) <= set(tracer.TARGETS)
