"""Importing unirack loads neither `dataclasses` nor `inspect`.

Every CLI call and benchmark step is a fresh process, and those modules,
with the methods that `@dataclass` generates and compiles, cost more than
a small class split.  The imports run under `-S`, so that nothing the
site packages load is counted."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("stmt", [
    "import unirack.cli",
    "from unirack import catalog, detect, matgroup, rack",   # perfbench/tasks.py
])
def test_import_loads_no_code_generation(stmt):
    code = (f"import sys; {stmt}; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
