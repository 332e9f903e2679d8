"""Benchmark workloads: the steps each runs, and the checks on every output.

A workload is a fixed list of steps; one round runs each step once, in
order, each in a fresh process.  A step is a CLI call or a library task
from tasks.py.  Its check takes the parsed report and returns a list of
problems; the exit code and byte-identity across rounds are checked by
run.py.  Pinned verdicts and class sizes come from this commit's reports;
test_perfbench.py checks the verdicts against the bundled reference table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# label -> [(split_index, class size, verdict)], from `unirack table`
TABLE_SP4Q2 = {
    "V(2)+W(1)": [(0, 15, "cthulhu")],
    "V(2)^2": [(0, 45, "cthulhu")],
    "V(4)": [(0, 90, "D"), (1, 90, "D")],
    "W(2)": [(0, 15, "cthulhu")],
}
TABLE_SP4Q3 = {
    "(1^2,2)": [(0, 40, "cthulhu"), (1, 40, "cthulhu")],
    "(2^2)": [(0, 240, "cthulhu"), (1, 480, "D")],
    "(4)": [(0, 2880, "D"), (1, 2880, "D")],
}
# label -> (class size, verdict) for the Sp6(2) classes of tasks.py
CLASSIFY_SP6Q2 = {
    "V(2)+W(1)^2": (63, "cthulhu"),
    "V(2)+W(2)": (3780, "D"),
    "V(2)^2+W(1)": (945, "D"),
    "V(4)+W(1)": (7560, "D"),
}
REFUTE_D_SP6Q2 = {"label": "W(2)+W(1)", "size": 315, "pairs": 314}
# (group, label, split) -> (rack size, inner group order)
INNER_ORDERS = {
    ("Sp4(2)", "V(4)", 0): (90, 720),
    ("Sp4(2)", "V(4)", 1): (90, 360),
    ("Sp4(3)", "(2^2)", "rep"): (240, 25920),
}
# SL2(q) transvection class racks; q = 9 is not sober (see README)
SOBER_SL2 = {3: True, 4: True, 5: True, 7: True, 9: False}


@dataclass(frozen=True)
class Step:
    name: str
    code: int                       # expected exit code
    check: Callable[[dict], list]
    argv: tuple = ()                # CLI arguments, global options first
    task: str | None = None         # or a task of tasks.py
    warm: bool = False              # answered from the cache


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    cache: bool = False             # a fresh cache directory per round


def records(report: dict) -> list:
    return [rec for row in report.get("rows", ()) for rec in row["records"]]


def check_table(pins: dict, cached: bool):
    def check(report: dict) -> list:
        problems = []
        if report.get("all_match") is not True:
            problems.append("all_match is not true")
        if report.get("unknowns") != 0:
            problems.append(f"unknowns = {report.get('unknowns')}")
        got = {row["label"]: [(r["split_index"], r["size"], r["verdict"])
                              for r in row["records"]]
               for row in report.get("rows", ())}
        if got != pins:
            problems.append(f"verdicts or sizes differ: {got}")
        flags = {rec.get("cached", False) for rec in records(report)}
        if flags != {cached}:
            problems.append(f"cached flags {sorted(flags)}, want {cached}")
        return problems
    return check


def check_refute_d(size: int, pairs: int, complete: bool, cached: bool):
    def check(report: dict) -> list:
        results = report.get("results", ())
        if len(results) != 1:
            return [f"{len(results)} results, want 1"]
        cert = results[0]
        want = {"kind": "not_D", "complete": complete,
                "class_size": size, "pairs": pairs,
                "cached": cached}
        got = {"kind": cert.get("kind"), "complete": cert.get("complete"),
               "class_size": cert.get("stats", {}).get("class_size"),
               "pairs": cert.get("stats", {}).get("pairs"),
               "cached": cert.get("cached", False)}
        problems = [] if got == want else [f"certificate {got}, want {want}"]
        if complete and cert.get("verdict_basis") != "exhaustive":
            problems.append(f"basis {cert.get('verdict_basis')}")
        return problems
    return check


def check_classify_sp6q2(report: dict) -> list:
    problems = []
    got = {c["label"]: (c["size"], c["verdict"]) for c in report["classes"]}
    if got != CLASSIFY_SP6Q2:
        problems.append(f"verdicts or sizes differ: {got}")
    ref = report["refute_d"]
    cert = ref["cert_not_d"]
    got = {"label": ref["label"], "size": ref["size"],
           "pairs": cert["stats"]["pairs"]}
    if got != REFUTE_D_SP6Q2 or not cert["complete"] \
            or cert["verdict_basis"] != "exhaustive":
        problems.append(f"not-D certificate differs: {got}")
    return problems


def check_rack_inner(report: dict) -> list:
    problems = []
    got = {(c["group"], c["label"], c["split"]): (c["size"], c["inn_order"])
           for c in report["inner"]}
    if got != INNER_ORDERS:
        problems.append(f"inner orders differ: {got}")
    got = {s["q"]: s["sober"] for s in report["sober"]}
    if got != SOBER_SL2:
        problems.append(f"soberness differs: {got}")
    return problems


def _table(n, q, pins, warm=False):
    return Step(f"table Sp{2 * n}({q}){' warm' if warm else ''}", 0,
                check_table(pins, cached=warm),
                ("table", "--n", str(n), "--q", str(q)), warm=warm)


_REFUTE_SP4Q3 = ("refute", "--kind", "d", "--n", "2", "--q", "3",
                 "--label", "2,2", "--split", "0")

WORKLOADS = {
    w.name: w for w in (
        Workload("cache-replay", (
            _table(2, 3, TABLE_SP4Q3),
            _table(2, 3, TABLE_SP4Q3, warm=True),
            Step("refute capped", 3, check_refute_d(240, 100, False, False),
                 ("--pair-cap", "100") + _REFUTE_SP4Q3),
            Step("refute resume", 0, check_refute_d(240, 239, True, False),
                 _REFUTE_SP4Q3),
            Step("refute cached", 0, check_refute_d(240, 239, True, True),
                 _REFUTE_SP4Q3, warm=True),
        ), cache=True),
        Workload("classify-rack", (
            Step("classify Sp6(2)", 0, check_classify_sp6q2,
                 task="classify-sp6q2"),
            Step("rack inner orders", 0, check_rack_inner,
                 task="rack-inner"),
        )),
    )
}

# the smallest group through every CLI step kind; used by the tests
SMOKE = Workload("smoke-sp4q2", (
    _table(2, 2, TABLE_SP4Q2),
    _table(2, 2, TABLE_SP4Q2, warm=True),
    Step("refute capped", 3, check_refute_d(45, 10, False, False),
         ("--pair-cap", "10", "refute", "--kind", "d", "--n", "2", "--q", "2",
          "--label", "V(2)^2")),
    Step("refute resume", 0, check_refute_d(45, 44, True, False),
         ("refute", "--kind", "d", "--n", "2", "--q", "2",
          "--label", "V(2)^2")),
), cache=True)
