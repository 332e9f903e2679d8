"""Command-line front end: classification runs, witnesses, refutations,
catalog dumps, the commutator-calculus property suites, and the reference
table comparison.

Reports are canonical JSON: fixed key order, no whitespace, no volatile
fields, so identical runs produce byte-identical output.  Wall-clock
timings are only attached under --timings, which is documented as breaking
byte-stability.  Exit codes: 0 all expectations matched, 2 a mismatch was
found, 3 budget exhausted (unknowns remain), 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from . import ARTIFACT_VERSION, SCHEMA_VERSION
from .cache import Cache, canonical_json
from .catalog import (
    class_context, enumerate_labels, expected, group_catalog, gu3_witness,
    parse_label, row_matched,
)
from .chevalley import (
    ChevalleyWord, FamilyRefusal, HypothesisError, commutator_data,
    root_add, symplectic_model, torus_family, torus_witness,
)
from .detect import Budget, DetectError, classify, d_pair
from .ffield import make_field
from .matgroup import Mat


def _budget_from_args(args) -> Budget:
    return Budget(orbit_cap=args.orbit_cap,
                  refute_pair_cap=args.pair_cap,
                  sample_pairs=args.sample_pairs)


def _revalidate_verdict(value) -> bool:
    "Witnesses deserialized from cache are re-checked before reuse."
    vj = value.get("verdict_json")
    if not vj:
        return True
    w = vj.get("witness")
    if not w:
        return True
    if w.get("kind") == "witness_D":
        r = _mat_from_json(w["r"])
        s = _mat_from_json(w["s"])
        res = d_pair(r, s, subgroup_cap=0)
        return res.kind == "witness"
    if w.get("kind") == "witness_F":
        reps = [_mat_from_json(m) for m in w["reps"]]
        for a in range(4):
            for b in range(4):
                if a != b and reps[a] * reps[b] * reps[a].inverse() == reps[b]:
                    return False
        return len({m.pack() for m in reps}) == 4
    return True


def _mat_from_json(mj) -> Mat:
    F = make_field(mj["field"][0], mj["field"][1])
    return Mat(F, mj["n"], [x for row in mj["rows"] for x in row])


def _emit(args, report: dict, timings=None) -> None:
    report = {"schema_version": SCHEMA_VERSION,
              "artifact_version": ARTIFACT_VERSION, **report}
    if args.timings and timings is not None:
        report["timings"] = timings
    text = canonical_json(report) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _classify_rows(args, cache, budget, labels=None):
    n2 = 2 * args.n
    cat = group_catalog(n2, args.q)
    rows = []
    unknowns = 0
    mismatches = 0
    for label in cat.labels():
        if labels is not None and label not in labels:
            continue
        exp = expected(label, n2, args.q)
        records = []
        for entry in cat.by_label(label):
            payload = {"op": "classify", "group": cat.spec.name,
                       "label": str(label), "split": entry.split_index,
                       "caps": {"orbit": budget.orbit_cap,
                                "pairs": budget.refute_pair_cap},
                       "seed": args.seed}
            key = cache.key(payload) if cache else None
            cached = cache.get(key, revalidate=_revalidate_verdict) if cache else None
            if cached and cached.get("final"):
                vj = cached["verdict_json"]
                vj = dict(vj, cached=True)
            else:
                resume = cached.get("state") if cached else None
                ctx = class_context(entry, cat)
                cb = None
                if cache:
                    cb = lambda st, key=key: cache.put(key, {"final": False, "state": st})
                verdict = classify(ctx, budget=budget, seed=args.seed,
                                   resume=resume, checkpoint_cb=cb)
                vj = verdict.to_json()
                if cache:
                    if verdict.kind != "unknown":
                        cache.put(key, {"final": True, "verdict_json": vj})
                    elif verdict.cert_not_d is not None and \
                            verdict.cert_not_d.resume_state:
                        cache.put(key, {"final": False,
                                        "state": verdict.cert_not_d.resume_state})
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
    return cat, rows, unknowns, mismatches


def cmd_classify(args) -> int:
    budget = _budget_from_args(args)
    labels = None
    if args.label:
        labels = [parse_label(args.label, args.q)]
    cache = _open_cache(args)
    t0 = time.time()
    try:
        cat, rows, unknowns, mismatches = _classify_rows(args, cache, budget, labels)
    finally:
        if cache:
            cache.release()
    report = {"command": "classify", "group": cat.spec.name,
              "field": cat.spec.field.header(),
              "seed": args.seed, "rows": rows,
              "all_match": mismatches == 0 and unknowns == 0,
              "unknowns": unknowns}
    _emit(args, report, {"wall_s": round(time.time() - t0, 3)})
    if unknowns:
        return 3
    return 0 if mismatches == 0 else 2


def cmd_table(args) -> int:
    if args.paper_table != "I":
        print("only reference table I is bundled", file=sys.stderr)
        return 64
    return cmd_classify(args)


def cmd_witness(args) -> int:
    t0 = time.time()
    if args.family.lower() == "gu":
        if args.n != 3 or args.q != 2:
            print("the explicit unitary witness is built for n=3, q=2",
                  file=sys.stderr)
            return 64
        rep = gu3_witness()
        _emit(args, {"command": "witness", "group": "GU3(2)",
                     "result": rep.to_json()},
              {"wall_s": round(time.time() - t0, 3)})
        return 0
    budget = _budget_from_args(args)
    n2 = 2 * args.n
    cat = group_catalog(n2, args.q)
    label = parse_label(args.label, args.q)
    entries = cat.by_label(label)
    out = []
    code = 0
    for entry in entries:
        if args.split is not None and entry.split_index != args.split:
            continue
        ctx = class_context(entry, cat)
        verdict = classify(ctx, budget=budget, seed=args.seed)
        if verdict.kind not in ("D", "F"):
            code = 3 if verdict.kind == "unknown" else 2
        out.append({"split_index": entry.split_index, **verdict.to_json()})
    _emit(args, {"command": "witness", "group": cat.spec.name,
                 "label": str(label), "results": out},
          {"wall_s": round(time.time() - t0, 3)})
    return code


def cmd_refute(args) -> int:
    from .detect import refute_d, refute_f, Certificate, DWitness
    budget = _budget_from_args(args)
    n2 = 2 * args.n
    cat = group_catalog(n2, args.q)
    label = parse_label(args.label, args.q)
    entries = [e for e in cat.by_label(label)
               if args.split is None or e.split_index == args.split]
    if not entries:
        print("no such class", file=sys.stderr)
        return 64
    cache = _open_cache(args)
    t0 = time.time()
    results = []
    code = 0
    try:
        for entry in entries:
            # the pair cap bounds the not-D scan only
            caps = {"orbit": budget.orbit_cap}
            if args.kind == "d":
                caps["pairs"] = budget.refute_pair_cap
            payload = {"op": f"refute_{args.kind}", "group": cat.spec.name,
                       "label": str(label), "split": entry.split_index,
                       "caps": caps, "seed": args.seed}
            key = cache.key(payload) if cache else None
            cached = cache.get(key) if cache else None
            if cached and cached.get("final"):
                results.append(dict(cached["value"], cached=True))
                continue
            if args.kind == "d":
                resume = cached.get("state") if cached else None
                cb = None
                if cache:
                    cb = lambda st, key=key: cache.put(key, {"final": False, "state": st})
                got = refute_d(cat.spec, entry.orbit, budget, resume=resume,
                               checkpoint_cb=cb)
            else:
                got = refute_f(cat.spec, entry.rep(), budget, orbit=entry.orbit)
            if isinstance(got, Certificate):
                value = got.to_json()
                if not got.complete:
                    code = 3
                    if cache and got.resume_state:
                        cache.put(key, {"final": False, "state": got.resume_state})
                elif cache:
                    cache.put(key, {"final": True, "value": value})
            elif isinstance(got, DWitness):
                value = got.to_json()
                code = 2
            else:
                value = {"kind": "clique_found",
                         "stats": got["stats"]}
                code = 2
            results.append(value)
    finally:
        if cache:
            cache.release()
    _emit(args, {"command": "refute", "kind": args.kind,
                 "group": cat.spec.name, "label": str(label),
                 "results": results},
          {"wall_s": round(time.time() - t0, 3)})
    return code


def cmd_catalog(args) -> int:
    n2 = 2 * args.n
    t0 = time.time()
    cat = group_catalog(n2, args.q)
    rows = []
    for e in cat.entries:
        exp = expected(e.label, n2, args.q)
        rows.append({"label": str(e.label), "split_index": e.split_index,
                     "size": e.size, "expected": list(exp.verdicts),
                     "rule": exp.rule})
    _emit(args, {"command": "catalog", "group": cat.spec.name,
                 "classes": rows,
                 "labels": [str(l) for l in enumerate_labels(n2, args.q)]},
          {"wall_s": round(time.time() - t0, 3)})
    return 0


def cmd_chevalley_verify(args) -> int:
    t0 = time.time()
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
        word = ChevalleyWord(tuple((r, c) for r, c in zip(order, coeffs) if c), 0)
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
        except Exception:
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
                    torus_witness(a, b, q, "chevalley", model=model)
                except HypothesisError:
                    pass          # orthogonal pairs are excluded at small q
                except Exception:
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
                 "all_ok": all_ok},
          {"wall_s": round(time.time() - t0, 3)})
    return 0 if all_ok else 2


def _open_cache(args):
    cache_dir = args.cache_dir or os.environ.get("UNIRACK_CACHE")
    if not cache_dir:
        return None
    return Cache(cache_dir).acquire()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="unirack")
    ap.add_argument("--output", default="-")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timings", action="store_true",
                    help="attach wall-clock timings (breaks byte-stability)")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--orbit-cap", type=int, default=10**6)
    ap.add_argument("--pair-cap", type=int, default=None,
                    help="cap on the not-D pair evaluations of one run "
                         "(enables resume: each rerun evaluates up to this "
                         "many more); the not-F scan always runs to the end")
    ap.add_argument("--sample-pairs", type=int, default=64)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_label=True):
        p.add_argument("--family", default="sp")
        p.add_argument("--n", type=int, required=True,
                       help="rank (matrix size is 2n) for the symplectic family")
        p.add_argument("--q", type=int, required=True)
        if with_label:
            p.add_argument("--label", default=None)

    p = sub.add_parser("classify")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("table")
    common(p, with_label=False)
    p.add_argument("--paper-table", default="I")
    p.set_defaults(fn=cmd_table, label=None)

    p = sub.add_parser("witness")
    common(p)
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
    try:
        return args.fn(args)
    except (ValueError, DetectError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
