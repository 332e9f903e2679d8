"""Importing unirack loads neither `dataclasses` nor `inspect` nor `array`,
and no CLI command loads `hashlib`.

Every CLI call and benchmark step is a fresh process, and those modules,
with the methods that `@dataclass` generates and compiles, cost more than
a small class split.  `hashlib` maps OpenSSL's libcrypto on CPython 3.11,
which costs more memory than a whole Sp4(3) table.  `array` is loaded
only for a rack row or transversal wider than a byte: a module-level
import would add about 90 kB to the peak of every process.  The code runs
under `-S`, so that nothing the site packages load is counted."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_bare(code: str) -> str:
    "Standard output of `code` in a fresh `python -S` that imports from src."
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


IMPORTS = [
    "import unirack.cli",
    "from unirack import catalog, detect, matgroup, rack",   # perfbench/tasks.py
]


@pytest.mark.parametrize("stmt", IMPORTS)
def test_import_loads_no_code_generation(stmt):
    code = (f"import sys; {stmt}; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert run_bare(code) == "[]"


@pytest.mark.parametrize("stmt", IMPORTS)
def test_import_loads_no_array(stmt):
    code = f"import sys; {stmt}; print('array' in sys.modules)"
    assert run_bare(code) == "False"


def test_cached_tables_load_no_openssl(tmp_path):
    """Neither the CLI import nor a cold and then a warm cached Sp4(2) table
    in the same process loads `hashlib`, `_hashlib` or `ssl`."""
    out = tmp_path / "out.json"
    argv = ["--cache-dir", str(tmp_path / "cache"), "--output", str(out),
            "table", "--n", "2", "--q", "2"]
    code = "\n".join([
        "import sys",
        "import unirack.cli",
        "openssl = {'hashlib', '_hashlib', 'ssl'}",
        "print(sorted(openssl & set(sys.modules)))",
        f"for _ in range(2): assert unirack.cli.main({argv!r}) == 0",
        "print(sorted(openssl & set(sys.modules)))",
    ])
    assert run_bare(code).splitlines() == ["[]", "[]"]
    records = [r for row in json.loads(out.read_text())["rows"]
               for r in row["records"]]
    assert records and all(r.get("cached") for r in records)
