"""The benchmark traces functions of `unirack` by name and runs library
tasks against pinned checks.  Each name it lists must still resolve and
each library task must still pass its check, so that renaming or breaking
what the benchmark uses fails here rather than in a benchmark run."""

import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    "A perfbench module loaded from its file; loading installs nothing."
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod     # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


spans, tasks, workloads = _load("spans"), _load("tasks"), _load("workloads")


@pytest.mark.parametrize("mod,name", spans.SPAN_FUNCS + spans.COUNT_FUNCS,
                         ids=".".join)
def test_traced_function_resolves(mod, name):
    assert mod in spans.MODULES
    assert callable(getattr(importlib.import_module(f"unirack.{mod}"), name))


@pytest.mark.parametrize("mod,cls,meth", spans.SPAN_METHODS, ids=".".join)
def test_traced_method_resolves(mod, cls, meth):
    owner = getattr(importlib.import_module(f"unirack.{mod}"), cls)
    assert callable(getattr(owner, meth))


@pytest.mark.parametrize(
    "step", [s for s in workloads.WORKLOADS["classify-rack"].steps if s.task],
    ids=lambda s: s.task)
def test_library_task_passes_its_check(step):
    output, _ = tasks.TASKS[step.task](0)
    assert step.check(json.loads(json.dumps(output))) == []
