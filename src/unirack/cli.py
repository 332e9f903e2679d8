"""Command-line front end: classification runs, witnesses, refutations,
catalog dumps, the commutator-calculus property suites, and the reference
table comparison.

Reports are canonical JSON: fixed key order, no whitespace, no volatile
fields, so identical runs produce byte-identical output.  Wall-clock
timings are only attached under --timings, which is documented as breaking
byte-stability.  Exit codes: 0 all expectations matched, 2 a mismatch was
found, 3 budget exhausted (unknowns remain), 64 usage error or a cache
directory that another process holds.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
import time

from . import ARTIFACT_VERSION, SCHEMA_VERSION
from .cache import Cache, CacheLocked, canonical_json
from .catalog import (
    CatalogError, class_context, enumerate_labels, expected, group_catalog,
    gu3_witness, label_catalog, parse_label, row_matched,
)
from .chevalley import (
    ChevalleyWord, ConstructionBug, FamilyRefusal, HypothesisError,
    RootError, commutator_data, root_add, symplectic_model, torus_family,
    torus_witness,
)
from .detect import Budget, classify, mat_from_json, recheck, resume_holds
from .ffield import FieldError
from .matgroup import GroupError, group_spec, membership


class UsageError(ValueError):
    "A command line naming no supported group, label or class: exit 64."


def _check_group(args) -> None:
    """Reject --n and --q before any work: Sp_2n(q) must be a supported
    group, or for chevalley-verify, which is not bounded by the group
    range, rank n and F_q must be.  Both lookups are memoized, so the run
    reuses what they build."""
    try:
        if args.cmd == "chevalley-verify":
            symplectic_model(args.n, args.q)
        elif args.family == "sp":
            group_spec("Sp", 2 * args.n, args.q)
    except (GroupError, RootError, FieldError) as err:
        raise UsageError(err) from err


def _budget_from_args(args) -> Budget:
    return Budget(orbit_cap=args.orbit_cap,
                  refute_pair_cap=args.pair_cap,
                  sample_pairs=args.sample_pairs)


def _emit(args, report: dict) -> None:
    """Write the report; under --timings with the wall time since `main`
    started the command."""
    report = {"schema_version": SCHEMA_VERSION,
              "artifact_version": ARTIFACT_VERSION, **report}
    if args.timings:
        report["timings"] = {"wall_s": round(time.time() - args.t0, 3)}
    text = canonical_json(report) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _selected(args):
    """The label a per-label command names and the catalog of its selected
    classes.  The label is checked to name a class of Sp_2n(q) before any
    orbit is built, then split alone, then narrowed by --split; naming no
    class is a usage error."""
    if args.label is None:
        raise UsageError(f"{args.cmd} needs --label")
    try:
        label = parse_label(args.label, args.q)
    except CatalogError as err:
        raise UsageError(err) from err
    n2 = 2 * args.n
    if label.dim() != n2 or label.is_identity():
        raise UsageError(f"{label} names no unipotent class of "
                         f"Sp{n2}({args.q})")
    cat = label_catalog(n2, args.q, label)
    entries = [e for e in cat.entries
               if args.split is None or e.split_index == args.split]
    if not entries:
        which = "" if args.split is None else f" with split {args.split}"
        raise UsageError(f"{label} has no class{which} in Sp{n2}({args.q})")
    return label, cat._replace(entries=entries)


def _in_class(value, spec, entry) -> bool:
    """Whether every representative of the witness of a value that passed
    `recheck`, if it has one, is a matrix of G in the entry's class: the
    recheck reads the value alone, so a witness of another class or group
    passes it."""
    w = value.get("witness", value)
    if w.get("kind") == "witness_D":
        reps = (w["r"], w["s"])
    elif w.get("kind") == "witness_F":
        reps = w["reps"]
    else:
        return True
    for x in map(mat_from_json, reps):
        if x.field is not spec.field or x.n != spec.n \
                or not membership(x, spec) or not entry.contains(x):
            return False
    return True


def _class_step(cache, op, cat, entry, args, compute):
    """One class's step through the cache.  A final entry is served, marked
    cached, when it has the {"final": true, "value": ...} shape, not the
    older one with a "verdict_json" field, its value passes `recheck`, and
    its witness lies in the class (`_in_class`).  Otherwise
    `compute(resume, checkpoint)` runs, resuming a partial entry's state if
    `resume_holds` accepts it for the class, and returns (report value,
    final, resume state); the value of a final result is stored as
    {"final": true, "value": ...}, and a resume state as {"final": false,
    "state": ...}.  Any other entry reads as a miss, and the run overwrites
    it."""
    if cache is None:
        return compute(None, None)[0]
    # no pair cap in the key: a capped not-D scan leaves a partial entry
    # that the next run resumes, capped or not; the orbit cap and the seed
    # only for classify: its search strategies read them, the scans do not
    request = {"op": op, "group": cat.spec.name, "label": str(entry.label),
               "split": entry.split_index}
    if op == "classify":
        request.update(caps={"orbit": args.orbit_cap}, seed=args.seed)
    key = cache.key(request)
    got, resume = cache.get(key), None
    if isinstance(got, dict):
        if not got.get("final"):
            state = got.get("state")
            resume = state if resume_holds(state, entry.size) else None
        # the older shape has no "value", which `recheck` reads as malformed
        elif recheck(got.get("value")) \
                and _in_class(got["value"], cat.spec, entry):
            return dict(got["value"], cached=True)
    value, final, state = compute(
        resume, lambda st: cache.put(key, {"final": False, "state": st}))
    if final:
        cache.put(key, {"final": True, "value": value})
    elif state:
        cache.put(key, {"final": False, "state": state})
    return value


def cmd_classify(args) -> int:
    """Classify every class of the group, checked by the full catalog, or
    only the classes of --label, split without the other labels."""
    n2 = 2 * args.n
    budget = _budget_from_args(args)
    rows = []
    unknowns = 0
    mismatches = 0
    with _open_cache(args) as cache:
        if args.label is None:
            cat = group_catalog(n2, args.q)
        else:
            _, cat = _selected(args)
        for label in cat.labels():
            exp = expected(label, n2, args.q)
            records = []
            for entry in cat.by_label(label):
                def compute(resume, checkpoint):
                    verdict = classify(class_context(entry, cat), budget=budget,
                                       seed=args.seed, resume=resume,
                                       checkpoint_cb=checkpoint)
                    cert = verdict.cert_not_d
                    return (verdict.to_json(), verdict.kind != "unknown",
                            cert and cert.resume_state)
                vj = _class_step(cache, "classify", cat, entry, args, compute)
                records.append({"split_index": entry.split_index,
                                "size": entry.size, **vj})
            computed = tuple(r["verdict"] for r in records)
            unknowns += computed.count("unknown")
            matched = row_matched(exp, computed)
            mismatches += not matched
            rows.append({"label": str(label), "rule": exp.rule,
                         "expected": list(exp.verdicts),
                         "expected_count": exp.class_count,
                         "matched": matched,
                         "records": records})
    report = {"command": "classify", "group": cat.spec.name,
              "field": cat.spec.field.header(),
              "seed": args.seed, "rows": rows,
              "all_match": mismatches == 0 and unknowns == 0,
              "unknowns": unknowns}
    _emit(args, report)
    if unknowns:
        return 3
    return 0 if mismatches == 0 else 2


def cmd_table(args) -> int:
    if args.paper_table != "I":
        raise UsageError("only reference table I is bundled")
    return cmd_classify(args)


def cmd_witness(args) -> int:
    if args.family == "gu":
        if args.n != 3 or args.q != 2:
            raise UsageError("the explicit unitary witness is built for "
                             "n=3, q=2")
        rep = gu3_witness()
        _emit(args, {"command": "witness", "group": "GU3(2)",
                     "result": rep.to_json()})
        return 0
    label, cat = _selected(args)
    budget = _budget_from_args(args)
    out = []
    code = 0
    for entry in cat.entries:
        ctx = class_context(entry, cat)
        verdict = classify(ctx, budget=budget, seed=args.seed)
        if verdict.kind not in ("D", "F"):
            code = 3 if verdict.kind == "unknown" else 2
        out.append({"split_index": entry.split_index, **verdict.to_json()})
    _emit(args, {"command": "witness", "group": cat.spec.name,
                 "label": str(label), "results": out})
    return code


def cmd_refute(args) -> int:
    from .detect import refute_d, refute_f, Certificate
    budget = _budget_from_args(args)
    results = []
    code = 0
    with _open_cache(args) as cache:
        label, cat = _selected(args)
        for entry in cat.entries:
            def compute(resume, checkpoint):
                if args.kind == "d":
                    got = refute_d(cat.spec, entry.orbit, budget,
                                   resume=resume, checkpoint_cb=checkpoint)
                else:
                    got = refute_f(entry.orbit)
                if isinstance(got, Certificate):
                    return got.to_json(), got.complete, got.resume_state
                return got.to_json(), True, None           # a D or F witness
            value = _class_step(cache, f"refute_{args.kind}", cat, entry,
                                args, compute)
            if value["kind"] in ("witness_D", "witness_F"):
                code = 2
            elif not value["complete"]:
                code = 3
            results.append(value)
    _emit(args, {"command": "refute", "kind": args.kind,
                 "group": cat.spec.name, "label": str(label),
                 "results": results})
    return code


def cmd_catalog(args) -> int:
    n2 = 2 * args.n
    cat = group_catalog(n2, args.q)
    rows = []
    for e in cat.entries:
        exp = expected(e.label, n2, args.q)
        rows.append({"label": str(e.label), "split_index": e.split_index,
                     "size": e.size, "expected": list(exp.verdicts),
                     "rule": exp.rule})
    _emit(args, {"command": "catalog", "group": cat.spec.name,
                 "classes": rows,
                 "labels": [str(l) for l in enumerate_labels(n2, args.q)]})
    return 0


def cmd_chevalley_verify(args) -> int:
    n, q = args.n, args.q
    model = symplectic_model(n, q)
    F = model.field
    rs = model.rs
    rng = random.Random(args.seed)
    checks = {}

    ok = True
    for _ in range(100):
        word = tuple((rs.simple[rng.randrange(n)],
                      F.pow(F.generator, rng.randrange(max(F.q - 1, 1))) if F.q > 2 else 1)
                     for _ in range(2))
        t = model.torus(word)
        r = rs.positive[rng.randrange(len(rs.positive))]
        c = rng.randrange(F.q)
        val = t.value_at(r, F)
        ok = ok and (t.mat * model.x(r, c) * t.mat.inverse()
                     == model.x(r, F.mul(val, c)))
    checks["commutation_rule_100"] = ok

    ok = True
    order = rs.ordering(0)
    for _ in range(25):
        coeffs = tuple(rng.randrange(F.q) for _ in order)
        word = ChevalleyWord(tuple((r, c) for r, c in zip(order, coeffs) if c))
        u = model.evaluate(word)
        ok = ok and model.factorize(u, 0).factors == word.factors
    checks["factorization_round_trip"] = ok

    if q <= 9:
        ok = True
        try:
            for a in rs.positive:
                for b in rs.positive:
                    if a != b:
                        commutator_data(model, a, b, exhaustive=True)
        except (GroupError, RootError):
            ok = False
        checks["commutator_expansion_exhaustive"] = ok

    short_a, short_b = (1, -1) + (0,) * (n - 2), (1, 1) + (0,) * (n - 2)
    data = commutator_data(model, short_a, short_b)
    checks["orthogonal_pair_degenerate"] = (data.degenerate == (q % 2 == 0))

    if q % 2:
        ok = True
        for i, a in enumerate(rs.positive):
            for b in rs.positive[i + 1:]:
                if not rs.is_root(root_add(a, b)):
                    continue
                try:
                    torus_witness(a, b, q, model=model)
                except HypothesisError:
                    pass          # orthogonal pairs are excluded at small q
                except (ConstructionBug, RootError):
                    ok = False
        checks["torus_witness_sweep"] = ok

    try:
        torus_family(rs.simple[0], rs.simple[1], q, "chevalley",
                      model=model if q <= 9 else None)
        checks["four_family"] = "accepted"
    except FamilyRefusal as err:
        checks["four_family"] = f"refused: {err}"

    all_ok = all(v is True or isinstance(v, str) for v in checks.values())
    _emit(args, {"command": "chevalley-verify", "rank": n, "q": q,
                 "checks": {k: (v if isinstance(v, str) else bool(v))
                            for k, v in checks.items()},
                 "all_ok": all_ok})
    return 0 if all_ok else 2


def _open_cache(args):
    "The cache of --cache-dir or UNIRACK_CACHE, or none: enter it first."
    cache_dir = args.cache_dir or os.environ.get("UNIRACK_CACHE")
    return Cache(cache_dir) if cache_dir else contextlib.nullcontext()


def _at_least(least: int):
    "An argparse type: an int no smaller than `least`."
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="unirack")
    ap.add_argument("--output", default="-")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timings", action="store_true",
                    help="attach wall-clock timings (breaks byte-stability)")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--orbit-cap", type=_at_least(1), default=10**6,
                    help="cap on each matrix orbit that a search builds; "
                         "the not-D and not-F scans of a class are bounded "
                         "by the class alone")
    ap.add_argument("--pair-cap", type=_at_least(1), default=None,
                    help="cap on the not-D pair evaluations of one run "
                         "(enables resume: each rerun evaluates up to this "
                         "many more); the not-F scan always runs to the end")
    ap.add_argument("--sample-pairs", type=_at_least(0), default=64)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_label=True, families=("sp",)):
        p.add_argument("--family", default="sp", type=str.lower, choices=families)
        p.add_argument("--n", type=int, required=True,
                       help="rank (matrix size is 2n) for the symplectic family")
        p.add_argument("--q", type=int, required=True)
        if with_label:
            p.add_argument("--label", default=None)

    p = sub.add_parser("classify")
    common(p)
    p.set_defaults(fn=cmd_classify, split=None)

    p = sub.add_parser("table")
    common(p, with_label=False)
    p.add_argument("--paper-table", default="I")
    p.set_defaults(fn=cmd_table, label=None)

    p = sub.add_parser("witness")
    common(p, families=("sp", "gu"))
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("refute")
    common(p)
    p.add_argument("--kind", choices=("d", "f"), required=True)
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("catalog")
    common(p, with_label=False)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("chevalley-verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_chevalley_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 64 if e.code not in (0,) else 0
    args.t0 = time.time()
    try:
        _check_group(args)
        return args.fn(args)
    except (UsageError, CacheLocked) as err:
        print(f"error: {err}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
