"""`src` holds only what the system runs.

Every function, class and method defined in `src/unirack` must be named
somewhere in `src` or `perfbench` outside its own body: as a name, an
attribute, or, in `perfbench` only, a word of a string constant (the
benchmark traces functions by name).  A word of a string in `src`, such as a
cache key or an error message, calls nothing, so it does not count.  A
method is called through an attribute, so a bare name, such as a local
variable or a parameter that shares its name, does not count for it.
Imports and docstrings do not count, and neither do dunder methods, which
Python calls itself.  The exceptions are the names in `GATE`, which
only the tests call: the acceptance criteria and the references that the
tests check the system against.

Every field of a `typing.NamedTuple` record in `src/unirack` must be read
somewhere in `src`, `perfbench` or `tests`: as an attribute that is loaded,
or as the string name of a `getattr`.  Fields are matched by name, as
definitions are, so state that is built and never read fails the check.

Every name that a module-level import in `src/unirack` binds must be loaded
as a name somewhere in its own module.  `from __future__` imports bind no
name that the module reads, and are left out.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unirack"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

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


def _is_record(cls):
    "Whether a class statement derives from `typing.NamedTuple`."
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               or isinstance(b, ast.Attribute) and b.attr == "NamedTuple"
               for b in cls.bases)


@functools.lru_cache(maxsize=None)
def _scan(path, strings):
    """(definitions, uses, fields, reads) of one file: definitions as (name,
    first line, last line, is a method), uses as (name, line, is a bare
    name), the fields of its NamedTuple records as (record, field), and
    reads as the set of attribute names loaded or named by a `getattr`
    string.  The words of its string constants are uses only if `strings`
    is set."""
    tree = ast.parse(path.read_text(), str(path))
    docs = _docstrings(tree)
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    defs, uses, fields, reads = [], [], [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs.append((node.name, node.lineno, node.end_lineno,
                         node in methods))
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields.extend((node.name, st.target.id) for st in node.body
                              if isinstance(st, ast.AnnAssign)
                              and isinstance(st.target, ast.Name))
        elif isinstance(node, ast.Name):
            uses.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.end_lineno, False))
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            reads.add(node.args[1].value)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node not in docs):
            uses.extend((w, node.lineno, False)
                        for w in WORD.findall(node.value))
    return defs, uses, fields, reads


def orphans():
    "`file:line name` of each definition in `src` that nothing else names."
    scans = {f: _scan(f, False) for f in sorted(SRC.glob("*.py"))}
    scans.update((f, _scan(f, True)) for f in sorted(PERFBENCH.glob("*.py")))
    out = []
    for f in sorted(SRC.glob("*.py")):
        for name, first, last, method in scans[f][0]:
            if name.startswith("__") and name.endswith("__"):
                continue
            named = any(
                used == name and not (method and bare)
                and (g != f or not first <= line <= last)
                for g, (_, uses, _, _) in scans.items()
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


def unread_fields():
    "`Record.field` of each NamedTuple field in `src` that nothing reads."
    files = [(f, _scan(f, False)) for f in sorted(SRC.glob("*.py"))]
    files += [(f, _scan(f, True)) for f in sorted(PERFBENCH.glob("*.py"))]
    files += [(f, _scan(f, False)) for f in sorted(TESTS.glob("*.py"))]
    reads = set().union(*(scan[3] for _, scan in files))
    return [f"{record}.{field}" for f, scan in files if f.parent == SRC
            for record, field in scan[2] if field not in reads]


def test_every_record_field_is_read():
    assert unread_fields() == []


def unused_imports():
    "`file:line name` of each module-level import in `src` never loaded."
    out = []
    for f in sorted(SRC.glob("*.py")):
        tree = ast.parse(f.read_text(), str(f))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for st in tree.body:
            if isinstance(st, ast.Import) or isinstance(st, ast.ImportFrom) \
                    and st.module != "__future__":
                out.extend(f"{f.name}:{st.lineno} {name}" for name in
                           (a.asname or a.name.split(".")[0] for a in st.names)
                           if name not in loaded)
    return out


def test_every_module_level_import_in_src_is_loaded():
    assert unused_imports() == []
