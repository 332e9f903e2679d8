"""`src` holds only what the system runs.

Every function, class and method defined in `src/unirack` must be named
somewhere in `src` or `perfbench` outside its own body: as a name, an
attribute, or a word of a string constant (the benchmark traces functions by
name).  A method is called through an attribute, so a bare name, such as a
local variable or a parameter that shares its name, does not count for it.
Imports and docstrings do not count, and neither do dunder methods, which
Python calls itself.  The exceptions are the names in `GATE`, which
only the tests call: the acceptance criteria and the references that the
tests check the system against.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unirack"
PERFBENCH = ROOT / "perfbench"

# (name, why only the tests call it): acceptance criteria and the references
# that the tests check the system against
GATE = (
    ("verify_axioms", "criteria 7, 10 and 13: the rack axioms of class racks"),
    ("decompose", "the inner-group decomposition of a rack, beside soberness"),
    ("su3_f_family", "criterion 9: the twisted rank-2 type-F family"),
    ("group_identity_spot_check", "criterion 13: the collapse identity"),
    ("alpha_string", "root-system calculus behind criteria 8 and 9"),
    ("is_long", "root-system calculus behind criteria 8 and 9"),
    ("highest_root", "root-system calculus behind criteria 8 and 9"),
    ("highest_short_root", "root-system calculus behind criteria 8 and 9"),
    ("c11", "criterion 8: the c_11 constant of the orthogonal short pair"),
    ("regular_pairs", "the paper's pair construction for regular classes"),
    ("sl_expected", "the paper's reference verdicts for SL_n classes"),
    ("transvection_split_rack_iso", "split odd-q transvection classes are "
     "isomorphic racks"),
    ("underlying_partition", "the Jordan type of a label, against the "
     "representatives"),
    ("reference_table_text", "regenerates data/reference_verdicts.tsv, "
     "which a test compares"),
    ("enumerate_group", "group orders by full enumeration, against "
     "classical_order"),
)
GATE_NAMES = {name for name, _ in GATE}

WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    "The constant nodes that are docstrings."
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(body[0].value)
    return out


def _scan(path):
    """(definitions, uses) of one file: definitions as (name, first line,
    last line, is a method), uses as (name, line, is a bare name)."""
    tree = ast.parse(path.read_text(), str(path))
    docs = _docstrings(tree)
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    defs, uses = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs.append((node.name, node.lineno, node.end_lineno,
                         node in methods))
        elif isinstance(node, ast.Name):
            uses.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.end_lineno, False))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docs):
            uses.extend((w, node.lineno, False)
                        for w in WORD.findall(node.value))
    return defs, uses


def orphans():
    "`file:line name` of each definition in `src` that nothing else names."
    files = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    scans = {f: _scan(f) for f in files}
    out = []
    for f in sorted(SRC.glob("*.py")):
        for name, first, last, method in scans[f][0]:
            if name.startswith("__") and name.endswith("__"):
                continue
            named = any(
                used == name and not (method and bare)
                and (g != f or not first <= line <= last)
                for g, (_, uses) in scans.items()
                for used, line, bare in uses)
            if not named:
                out.append(f"{f.name}:{first} {name}")
    return out


def test_every_definition_in_src_is_reached():
    assert [o for o in orphans() if o.split()[1] not in GATE_NAMES] == []


def test_every_gate_name_is_defined_and_unreached():
    "A gate name that the system comes to call leaves the list."
    assert sorted(o.split()[1] for o in orphans()
                  if o.split()[1] in GATE_NAMES) == sorted(GATE_NAMES)
