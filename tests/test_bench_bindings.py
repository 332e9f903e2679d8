"""The benchmark traces functions of `unirack` by name.  Each name it lists
must still resolve, so that renaming or deleting a traced function fails
here rather than in a benchmark run."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)     # defines the tables; installs nothing
    return mod


spans = _spans()


@pytest.mark.parametrize("mod,name", spans.SPAN_FUNCS + spans.COUNT_FUNCS,
                         ids=".".join)
def test_traced_function_resolves(mod, name):
    assert mod in spans.MODULES
    assert callable(getattr(importlib.import_module(f"unirack.{mod}"), name))


@pytest.mark.parametrize("mod,cls,meth", spans.SPAN_METHODS, ids=".".join)
def test_traced_method_resolves(mod, cls, meth):
    owner = getattr(importlib.import_module(f"unirack.{mod}"), cls)
    assert callable(getattr(owner, meth))
