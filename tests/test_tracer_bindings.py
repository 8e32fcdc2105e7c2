"""The benchmark tracer binds specoord names by string; each must resolve.

A rename in specoord would otherwise surface only when the benchmark runs
with tracing on.  The lists are read from perfbench/tracer.py as they stand.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span,module,attr", tracer.FUNCTIONS)
def test_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(f"specoord.{module}"), attr))


@pytest.mark.parametrize("span,module,cls,attr,kind", tracer.CLASS_HOOKS)
def test_class_hook_resolves(span, module, cls, attr, kind):
    owner = getattr(importlib.import_module(f"specoord.{module}"), cls)
    member = vars(owner)[attr]
    expected = {"method": type(lambda: None), "property": property,
                "classmethod": classmethod}[kind]
    assert isinstance(member, expected)
