"""The acceptance gate: one test per criterion, one pass/fail line each.

Criteria run at their stated tolerances and time targets; nothing is
deferred to later calibration.  Criterion 10 checks that the soberness scan
gives the right answer on the rank-1 class racks, including the one rack
that is not sober: at q = 9 the two subfield SL_2(3)-classes of unipotents
form a decomposable, non-abelian subrack (also pinned in
test_rack.test_sl2_9_subfield_subrack_breaks_soberness).
"""

import json
import random
import time

import pytest

from unirack.catalog import (
    class_context, enumerate_labels, expected, group_catalog, gu3_witness,
    parse_label, representative, decomposition_type, row_matched,
    transvection_rep,
)
from unirack.chevalley import (
    ChevalleyWord, FamilyRefusal, commutator_data, torus_witness,
    torus_family, root_add, root_system, symplectic_model,
)
from unirack.detect import (
    Budget, check_f_family, classify, collapse_eq_holds, d_pair,
    group_identity_spot_check, recheck, su3_f_family, FWitness,
)
from unirack.ffield import Embedding
from unirack.matgroup import Mat, class_orbit, group_spec, random_element
from unirack.rack import conj_rack, decompose, inn_order, sober_check
from unirack.cli import main as cli_main


def crit(num, ok, desc):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_acceptance_01_pair_split_row_q3():
    t0 = time.time()
    cat = group_catalog(4, 3)
    label = parse_label("2,2", 3)
    entries = cat.by_label(label)
    ok = len(entries) == 2
    verdicts = [classify(class_context(e, cat)) for e in entries]
    kinds = tuple(v.kind for v in verdicts)
    ok = ok and sorted(kinds) == ["D", "cthulhu"]
    ok = ok and row_matched(expected(label, 4, 3), kinds)
    d_entry, d_verdict = next((e, v) for e, v in zip(entries, verdicts)
                              if v.kind == "D")
    c_verdict = next(v for v in verdicts if v.kind == "cthulhu")
    ok = ok and recheck(d_verdict.witness_d.to_json(), ())
    # the printed pair: the first-simple-root element lands in the D class
    model = cat.model
    F = model.field
    x = model.x((1, -1), 1)
    w = Mat(F, 4, (1, 0, 0, 2, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    ok = ok and d_entry.orbit.contains(x) and d_entry.orbit.contains(w)
    res = d_pair(x, w)
    ok = ok and res.kind == "witness" and recheck(res.witness.to_json(), ())
    ok = ok and c_verdict.cert_not_d.basis == "exhaustive"
    ok = ok and c_verdict.cert_not_f.basis == "necessary-condition"
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    assert crit(1, ok, f"rank-2 q=3 double-part row: split 2, one D (explicit "
                f"pair revalidated) one cthulhu, {elapsed:.0f}s")


def test_acceptance_02_s6_double_transpositions():
    t0 = time.time()
    cat = group_catalog(4, 2)
    label = parse_label("V(2)^2", 2)
    entries = cat.by_label(label)
    ok = len(entries) == 1 and entries[0].size == 45
    v = classify(class_context(entries[0], cat))
    ok = ok and v.kind == "cthulhu"
    ok = ok and v.cert_not_d.basis == "exhaustive" and v.cert_not_d.complete
    ok = ok and v.cert_not_f.basis == "necessary-condition"
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert crit(2, ok, f"45-element involution class is cthulhu with both "
                f"certificates, {elapsed:.0f}s")


def test_acceptance_03_surviving_rows_q2_q4():
    t0 = time.time()
    results = {}
    for q in (2, 4):
        cat = group_catalog(4, q)
        for name in ("V(2)+W(1)", "W(2)"):
            label = parse_label(name, q)
            e = cat.by_label(label)[0]
            v = classify(class_context(e, cat))
            results[(q, name)] = (e.size, v.kind)
    ok = results[(2, "V(2)+W(1)")] == (15, "cthulhu")
    ok = ok and results[(2, "W(2)")] == (15, "cthulhu")
    ok = ok and results[(4, "V(2)+W(1)")] == (255, "cthulhu")
    ok = ok and results[(4, "W(2)")] == (255, "cthulhu")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    assert crit(3, ok, f"minimal even-q rows cthulhu with sizes q^4-1 "
                f"(15, 255), {elapsed:.0f}s")


def test_acceptance_04_size_formula():
    ok = True
    for n2, q, want in ((4, 3, 40), (4, 5, 312), (6, 3, 364),
                        (4, 2, 15), (4, 4, 255), (6, 2, 63)):
        spec = group_spec("Sp", n2, q)
        size = class_orbit(transvection_rep(n2, q), spec).size
        formula = (q ** n2 - 1) // 2 if q % 2 else q ** n2 - 1
        ok = ok and size == want == formula
    assert crit(4, ok, "transvection class sizes match the closed formula on "
                "all six groups")


def test_acceptance_05_regular_four_family_q4():
    t0 = time.time()
    cat = group_catalog(4, 4)
    label = parse_label("V(4)", 4)
    entries = cat.by_label(label)
    ok = len(entries) == 2
    model = cat.model
    F = model.field
    fws = []
    for e in entries:
        # find a class member of the normalized shape and translate it by
        # the four diagonal torus elements
        u = next(m for m in e.u_members
                 if (lambda s: (1, -1) in s and (0, 2) in s and (1, 1) not in s)
                 (model.factorize(m).support()))
        ts = [model.torus((((2, 0), F.pow(F.generator, a)),
                           ((0, 2), F.pow(F.generator, b)))).mat
              for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
        reps = [t * u * t.inverse() for t in ts]
        got = check_f_family(reps, cat.u_group, builder="torus_translates")
        ok = ok and isinstance(got, FWitness) \
            and recheck(got.to_json(), cat.u_group)
        fws.append(got)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    assert crit(5, ok, f"regular q=4 class: diagonal-translate 4-family is a "
                f"verified type-F witness on both split classes, {elapsed:.0f}s")


def test_acceptance_06_unitary_witness():
    t0 = time.time()
    rep = gu3_witness()
    ok = rep.checks["g_twist_is_eta_scalar"]
    ok = ok and rep.su_class_count == 3
    ok = ok and rep.checks["s_outside_su_class_of_r"]
    ok = ok and rep.checks["collapse_violated"]
    ok = ok and rep.checks["pair_group_inside_su"]
    ok = ok and recheck(rep.witness.to_json(), ())
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert crit(6, ok, f"unitary rank-3 witness: all five verifications hold, "
                f"{elapsed:.0f}s")


def test_acceptance_07_regular_inner_groups_q2():
    cat = group_catalog(4, 2)
    entries = cat.by_label(parse_label("V(4)", 2))
    ok = len(entries) == 2 and all(e.size == 90 for e in entries)
    racks = [conj_rack(e.orbit.mats()) for e in entries]
    ok = ok and all(r.verify_axioms() for r in racks)
    ok = ok and sorted(inn_order(r) for r in racks) == [360, 720]
    assert crit(7, ok, "two regular classes of size 90 with inner groups of "
                "orders 720 and 360")


def test_acceptance_08_commutator_calculus():
    ok = True
    # (a) the torus commutation rule, 100 random samples per group
    for rank, q in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5)):
        model = symplectic_model(rank, q)
        F = model.field
        rng = random.Random(1000 * rank + q)
        for _ in range(100):
            word = tuple((model.rs.simple[rng.randrange(rank)],
                          F.pow(F.generator, rng.randrange(max(F.q - 1, 1)))
                          if F.q > 2 else 1) for _ in range(2))
            t = model.torus(word)
            r = model.rs.positive[rng.randrange(len(model.rs.positive))]
            c = rng.randrange(F.q)
            val = t.value_at(r, F)
            ok = ok and (t.mat * model.x(r, c) * t.mat.inverse()
                         == model.x(r, F.mul(val, c)))
    # (b) characteristic-two degeneracy of the orthogonal short pair
    for q in (2, 4):
        data = commutator_data(symplectic_model(2, q), (1, -1), (1, 1))
        ok = ok and data.commutes and data.degenerate
    d3 = commutator_data(symplectic_model(2, 3), (1, -1), (1, 1))
    ok = ok and not d3.degenerate and d3.c11() != 0
    # (c) the product expansion reproduces matrix commutators exhaustively
    for q in (2, 3, 4, 5, 7, 8, 9):
        model = symplectic_model(2, q)
        for a in model.rs.positive:
            for b in model.rs.positive:
                if a != b:
                    commutator_data(model, a, b, exhaustive=True)
    for q in (2, 3):
        model = symplectic_model(3, q)
        for a in model.rs.positive:
            for b in model.rs.positive:
                if a != b:
                    commutator_data(model, a, b, exhaustive=True)
    assert crit(8, ok, "commutation rule, characteristic-two degeneracies, "
                "and exhaustive commutator expansions all verified")


def test_acceptance_09_torus_witness_calculus():
    ok = True
    for rank in (2, 3):
        rs = root_system(rank)
        pairs = [(a, b) for i, a in enumerate(rs.positive)
                 for b in rs.positive[i + 1:] if rs.is_root(root_add(a, b))]
        for q in (5, 7, 9):
            model = symplectic_model(rank, q)
            for a, b in pairs:
                w = torus_witness(a, b, q, "chevalley", model=model)
                ok = ok and w.check()
    for q in (8, 9, 11, 13):
        fam = torus_family((1, -1), (0, 2), q, "chevalley",
                            model=symplectic_model(2, q) if q <= 9 else None)
        ok = ok and fam.check()
    for q in (2, 3, 4, 5, 7):
        try:
            torus_family((1, -1), (0, 2), q, "chevalley")
            ok = False
        except FamilyRefusal as err:
            r, a, b, mod = err.collision
            ok = ok and (r * a - r * b) % mod == 0 and a != b and 1 <= r <= 3
    for q in (3, 4):
        fam = torus_family(None, None, q, "su3")
        want = tuple(((a * (2 - q)) % (q * q - 1), (a * (2 * q - 1)) % (q * q - 1))
                     for a in range(4))
        ok = ok and fam.exponent_pairs == want
        ok = ok and isinstance(su3_f_family(q), FWitness)
    assert crit(9, ok, "torus witnesses for all summing pairs at q in {5,7,9}; "
                "4-families accepted/refused with exhibited collisions; "
                "twisted pairs verified at q in {3,4}")


def sl2_class_rack(q):
    spec = group_spec("SL", 2, q)
    u = Mat(spec.field, 2, (1, 1, 0, 1))
    rack = conj_rack(class_orbit(u, spec).mats())
    assert rack.verify_axioms()
    return rack


def sl2_3_classes_in_sl2_9():
    """The two SL_2(3)-classes of non-identity unipotents, as sets of
    matrices over F_9.  F_3^x lies in the squares of F_9, so all eight lie in
    the SL_2(9)-class of u(1); in SL_2(3), -1 is not a square, so they split
    into the classes of u(1) and u(-1)."""
    spec3, spec9 = group_spec("SL", 2, 3), group_spec("SL", 2, 9)
    emb = Embedding(spec3.field, spec9.field)
    return [frozenset(m.map_to(emb) for m in class_orbit(
                Mat(spec3.field, 2, (1, c, 0, 1)), spec3).mats())
            for c in (1, 2)]


def test_acceptance_10_soberness():
    res = {}
    for q in (3, 4):
        res[q] = sober_check(sl2_class_rack(q), "exhaustive").sober
    for q in (5, 7):
        res[q] = sober_check(sl2_class_rack(q), "pairs").sober
    ok = all(res[q] for q in (3, 4, 5, 7))
    # q = 9 is not sober: the union of the two subfield classes is a
    # decomposable, non-abelian subrack, and the scan must find exactly it
    r9 = sl2_class_rack(9)
    rep9 = sober_check(r9, "pairs")
    res[9] = rep9.sober
    classes = sl2_3_classes_in_sl2_9()
    sub = rep9.counterexample or ()
    mats = [r9.elements[i] for i in sub]
    q9_ok = not rep9.sober and len(sub) == 8
    q9_ok = q9_ok and set(mats) == classes[0] | classes[1]
    q9_ok = q9_ok and any(x * y != y * x for x in mats for y in mats)
    blocks = {frozenset(r9.elements[i] for i in b)
              for b in decompose(r9, sub)}
    q9_ok = q9_ok and blocks == set(classes)
    line_ok = crit(10, ok and q9_ok, f"soberness: sober at q in {{3,4}} "
                   f"(exhaustive) and q in {{5,7}} (2-generated); not sober "
                   f"at q = 9, as expected, with the two embedded SL_2(3) "
                   f"unipotent classes as the decomposable non-abelian "
                   f"subrack -> {res}")
    assert ok, "the q in {3,4,5,7} soberness checks must hold"
    assert line_ok, (
        "the q = 9 class rack is not sober: F_3^x lies in the squares of "
        "F_9, so the eight unipotents of SL_2(3) lie in one SL_2(9)-class and "
        "form a subrack that splits into the two SL_2(3)-classes and is not "
        f"abelian; the pairs scan must report exactly it, got {rep9}")


def test_acceptance_11_round_trip_and_splitting():
    ok = True
    for n2 in (4, 6, 8):
        for q in (2, 4):
            spec = group_spec("Sp", n2, q)
            for lab in enumerate_labels(n2, q):
                ok = ok and decomposition_type(
                    representative(lab, n2, q), spec) == lab
    for n2, q in ((4, 2), (4, 3), (4, 4), (6, 2)):
        cat = group_catalog(n2, q)
        for lab in cat.labels():
            exp = expected(lab, n2, q)
            if exp.class_count is not None:
                ok = ok and len(cat.by_label(lab)) == exp.class_count
    assert crit(11, ok, "decomposition round trip over all even labels "
                "(2n <= 8, q in {2,4}); split counts match the reference "
                "table on all four groups")


def run_cli(tmp_path, *argv):
    out = tmp_path / "cli_out.json"
    code = cli_main(["--output", str(out), *argv])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_acceptance_12_reference_table_end_to_end(tmp_path):
    t0 = time.time()
    ok = True
    for q in (2, 3, 4):
        code, rep = run_cli(tmp_path, "table", "--paper-table", "I",
                            "--family", "sp", "--n", "2", "--q", str(q))
        ok = ok and code == 0 and rep["all_match"]
    # the rank-3 group at q = 2: full table, with the refutation row under a cap
    cache = tmp_path / "cache"
    code1, rep1 = run_cli(tmp_path, "--cache-dir", str(cache), "--pair-cap",
                          "40", "refute", "--kind", "d", "--family", "sp",
                          "--n", "3", "--q", "2", "--label", "W(2)+W(1)")
    ok = ok and code1 == 3 and not rep1["results"][0]["complete"]
    code2, rep2 = run_cli(tmp_path, "--cache-dir", str(cache),
                          "refute", "--kind", "d", "--family", "sp",
                          "--n", "3", "--q", "2", "--label", "W(2)+W(1)")
    ok = ok and code2 == 0 and rep2["results"][0]["complete"]
    ok = ok and rep2["results"][0]["verdict_basis"] == "exhaustive"
    code3, rep3 = run_cli(tmp_path, "table", "--paper-table", "I",
                          "--family", "sp", "--n", "3", "--q", "2")
    ok = ok and code3 == 0 and rep3["all_match"] and rep3["unknowns"] == 0
    row = next(r for r in rep3["rows"] if r["label"] == "W(2)+W(1)")
    rec = row["records"][0]
    ok = ok and rec["verdict"] == "cthulhu"
    ok = ok and rec["cert_not_d"]["verdict_basis"] == "exhaustive"
    ok = ok and rec["cert_not_f"]["verdict_basis"] == "necessary-condition"
    elapsed = time.time() - t0
    ok = ok and elapsed < 3600
    assert crit(12, ok, f"reference table matches end to end on all four "
                f"groups; capped refutation resumed from cache, {elapsed:.0f}s")


def test_acceptance_13_property_suite(tmp_path):
    ok = True
    # the collapse-equation identity on 10^4 random pairs per group
    for fam, n, q in (("Sp", 4, 2), ("Sp", 4, 3), ("SL", 2, 5)):
        rng = random.Random(n * q)
        group_identity_spot_check(group_spec(fam, n, q), rng, n_pairs=10**4)
    # rack axioms on constructed racks
    cat2 = group_catalog(4, 2)
    for e in cat2.entries:
        ok = ok and conj_rack(e.orbit.mats()).verify_axioms()
    # pair-scan equivariance spot checks
    cat3 = group_catalog(4, 3)
    e = cat3.by_label(parse_label("2,2", 3))[0]
    mats = list(e.orbit.mats())
    rng = random.Random(2)
    r = mats[0]
    for _ in range(8):
        s = mats[rng.randrange(len(mats))]
        g = random_element(cat3.spec, rng)
        ok = ok and (d_pair(r, s, subgroup_cap=0).kind
                     == d_pair(g * r * g.inverse(), g * s * g.inverse(),
                               subgroup_cap=0).kind)
    # determinism: byte-identical reports for a fixed seed
    _, rep_a = run_cli(tmp_path, "--seed", "3", "classify", "--family", "sp",
                       "--n", "2", "--q", "2")
    _, rep_b = run_cli(tmp_path, "--seed", "3", "classify", "--family", "sp",
                       "--n", "2", "--q", "2")
    ok = ok and json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    assert crit(13, ok, "group identity on 3x10^4 random pairs, rack axioms, "
                "scan equivariance, and byte-stable reports")
