import json
import random

import pytest

from unirack import detect, rack
from unirack.catalog import (
    ClassEntry, class_context, group_catalog, parse_label, representative,
)
from unirack.detect import (
    Budget, Certificate, ClassContext, DWitness, FFailure, FWitness,
    _class_rows, _edge, check_f_family, classify, collapse_eq_holds, d_pair,
    find_d_torus, group_identity_spot_check, mat_json, recheck, refute_d,
    refute_f, su3_f_family,
)
from unirack.matgroup import (
    Mat, class_orbit, group_spec, orbit_under, random_element,
)

from helpers import mat_from_ints, sl_transvections


@pytest.fixture(autouse=True)
def fresh_class_rows():
    "No test reads class rows memoised by an earlier one, or leaves its own."
    _class_rows.cache_clear()
    yield
    _class_rows.cache_clear()


@pytest.fixture(scope="module")
def sp42():
    return group_catalog(4, 2)


@pytest.fixture(scope="module")
def sp43():
    return group_catalog(4, 3)


def entry(cat, name, split=0):
    return [e for e in cat.entries
            if str(e.label) == name and e.split_index == split][0]


def test_d_pair_degenerate_on_equal_and_commuting(sp43):
    e = entry(sp43, "(1^2,2)")
    r = e.rep()
    assert d_pair(r, r).kind == "degenerate_commuting"


def test_d_pair_explicit_pair_split_row(sp43):
    "The printed pair for the rank-2 double class at q = 3."
    from unirack.chevalley import symplectic_model
    model = symplectic_model(2, 3)
    F = model.field
    w = Mat(F, 4, (1, 0, 0, 2, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    x = model.x((1, -1), 1)          # the first simple root element
    res = d_pair(x, w)
    assert res.kind == "witness"
    assert recheck(res.witness.to_json())
    # both lie in the same split class, the one of size 480
    e = entry(sp43, "(2^2)", 1)
    assert e.size == 480
    assert e.orbit.contains(x) and e.orbit.contains(w)
    # and the collapse equation in its squared form really differs
    assert (x * w) ** 2 != (w * x) ** 2


def test_d_pair_commuting_pair_is_degenerate(sp43):
    e = entry(sp43, "(1^2,2)")
    mats = list(e.orbit.mats())
    r = mats[0]
    s = next(m for m in mats[1:] if m * r == r * m)
    assert d_pair(r, s).kind == "degenerate_commuting"


def test_dwitness_revalidates_independently(sp42):
    e = entry(sp42, "V(4)")
    ctx = class_context(e, sp42)
    v = classify(ctx)
    assert v.kind == "D"
    js = v.witness.to_json()
    assert recheck(js)
    assert js["kind"] == "witness_D" and js["orbit_sizes"][0] >= 1


def test_refute_d_outcome_and_stats(sp42):
    e = entry(sp42, "V(2)^2")
    got = refute_d(sp42.spec, e.orbit)
    assert isinstance(got, Certificate)
    assert got.basis == "exhaustive" and got.kind == "not_D"
    assert got.stats["class_size"] == 45
    assert got.stats["pairs"] == 44


def test_refute_d_finds_witness_on_a_collapsing_class(sp42):
    e = entry(sp42, "V(4)")
    got = refute_d(sp42.spec, e.orbit)
    assert isinstance(got, DWitness)
    assert recheck(got.to_json())


def test_d_pair_builds_each_witness_orbit_once(sp43, monkeypatch):
    "A witness costs its two orbits; checking it again is the caller's call."
    w = classify(class_context(entry(sp43, "(2^2)", 1), sp43)).witness
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orbit_under(*args, **kwargs)

    monkeypatch.setattr(detect, "orbit_under", counted)
    res = d_pair(w.r, w.s)
    assert res.kind == "witness" and calls == [w.r, w.s]
    assert res.witness.orbit_sizes == w.orbit_sizes
    assert recheck(res.witness.to_json())


def test_same_orbit_pair_stops_at_s(sp43, monkeypatch):
    """A same-orbit pair costs the two inverses of r and s, nine products
    (rs and sr once each, five for the conjugations of the collapse
    equation, two squares) and one search from r that ends where it meets
    s: no orbit of s is built."""
    from unirack import matgroup
    e = entry(sp43, "(2^2)", 0)
    F = sp43.spec.field
    mats = list(e.orbit.mats())
    inversions, products, searches = [], [], []
    inverse, product, search = matgroup.inv_flat, matgroup.mul_flat, orbit_under

    def counted_inverse(*args):
        inversions.append(args)
        return inverse(*args)

    def counted_product(*args):
        products.append(args)
        return product(*args)

    def counted_search(*args, **kwargs):
        orbit = search(*args, **kwargs)
        searches.append((args[0], orbit.size))
        return orbit

    monkeypatch.setattr(matgroup, "inv_flat", counted_inverse)
    monkeypatch.setattr(matgroup, "mul_flat", counted_product)
    monkeypatch.setattr(detect, "orbit_under", counted_search)
    tested = 0
    for b in mats[1:]:
        r, s = (Mat(F, 4, m.flat) for m in (mats[0], b))   # no inverse held
        inversions.clear()
        products.clear()
        searches.clear()
        res = d_pair(r, s)
        if res.kind in ("degenerate_commuting", "degenerate_square"):
            continue
        assert res.kind == "same_orbit" and len(inversions) <= 2
        assert len(products) == 9
        assert len(searches) == 1 and searches[0][0] == r
        assert searches[0][1] <= orbit_under(r, [r, s]).size
        tested += 1
    assert tested > 100


def test_sampled_search_reads_no_class_orbit_on_a_generator_witness(
        monkeypatch):
    """No search strategy builds a class orbit: each finder of
    `strategies()` runs on every class of Sp4(3) and Sp4(5), from fresh
    entries that hold no orbit, with `class_orbit` made to raise.  On
    Sp4(3) (2^2) split 1 a generator conjugate of the representative is a
    witness, the one classify reports."""
    from unirack import catalog
    from unirack.detect import find_d_sampled, strategies

    class OrbitBuilt(Exception):
        pass

    def raising(*args, **kwargs):
        raise OrbitBuilt

    monkeypatch.setattr(catalog, "class_orbit", raising)
    built, classes = [], 0
    for q in (3, 5):
        for label in catalog.enumerate_labels(4, q):
            fresh = catalog.label_classes.__wrapped__(4, q, label)  # no orbit
            cat = catalog.label_catalog(4, q, label)._replace(
                entries=list(fresh))
            for e in fresh:
                classes += 1
                ctx = class_context(e, cat)
                for name, _, finder, _ in strategies():
                    try:
                        finder(ctx, Budget())
                    except OrbitBuilt:
                        built.append(f"Sp4({q}) {label} #{e.split_index} {name}")
    assert classes == 12 and built == []
    label = parse_label("2,2", 3)
    fresh = catalog.label_classes.__wrapped__(4, 3, label)
    cat = catalog.label_catalog(4, 3, label)._replace(entries=list(fresh))
    w = find_d_sampled(class_context(fresh[1], cat), Budget())
    assert w.strategy == "sampled"
    assert w.to_json() == classify(class_context(fresh[1], cat)).witness.to_json()


def test_sampled_candidates_in_the_order_of_their_definition(sp43):
    """The candidates come in the order that defines them, each new one
    once: rep conjugated by each generator g, then by gh for g, h among
    the first six, and nothing drawn from the class after them."""
    from unirack.detect import _sampled_candidates
    ctx = class_context(entry(sp43, "(2^2)", 0), sp43)
    rep, gens = ctx.rep, sorted(sp43.spec.generators)
    conjugators = gens + [g * h for g in gens[:6] for h in gens[:6]]
    want = [x * rep * x.inverse() for x in conjugators]
    unique = [m for m in {m.pack(): m for m in want}.values() if m != rep]
    assert list(_sampled_candidates(ctx)) == unique


def test_classify_builds_the_class_rows_once(sp42, monkeypatch):
    "Both refutations of a cthulhu class read one row source of its rack."
    ctx = class_context(entry(sp42, "V(2)^2"), sp42)
    conj_rows, calls = rack.conj_rows, []

    def counted(mats):
        calls.append(len(mats))
        return conj_rows(mats)

    monkeypatch.setattr(rack, "conj_rows", counted)
    assert classify(ctx).kind == "cthulhu"
    assert calls == [45]


def test_refute_d_pair_cap_and_resume(sp42):
    e = entry(sp42, "V(2)^2")
    states = []
    got = refute_d(sp42.spec, e.orbit, Budget(refute_pair_cap=10),
                   checkpoint_cb=states.append)
    assert isinstance(got, Certificate) and not got.complete
    assert got.basis == "sampled" and got.resume_state is not None
    resumed = refute_d(sp42.spec, e.orbit, Budget(), resume=got.resume_state)
    assert isinstance(resumed, Certificate) and resumed.complete
    assert resumed.stats["pairs"] == 44


def test_resume_holds_checks_each_invariant(sp42):
    "The state a capped scan writes resumes; each broken invariant does not."
    from unirack.detect import resume_holds
    e = entry(sp42, "V(2)^2")
    state = refute_d(sp42.spec, e.orbit,
                     Budget(refute_pair_cap=10)).resume_state
    assert resume_holds(state, 45) and not resume_holds(state, 44)

    def edited(next_index=None, **stats):
        nxt = state["next_index"] if next_index is None else next_index
        return {"next_index": nxt, "stats": {**state["stats"], **stats}}

    assert resume_holds(edited(), 45)
    s = state["stats"]
    broken = [
        None, [], "state", {"bogus": 1}, {**state, "extra": 0},
        {"next_index": 11}, {"next_index": 11, "stats": []},
        {"next_index": 11, "stats": {k: v for k, v in s.items()
                                     if k != "same_orbit"}},
        edited(extra=0),
        edited(next_index=11.0),                        # not an int
        edited(next_index=2, pairs=1, degenerate=True,  # a bool is no count
               same_orbit=0),
        edited(degenerate=-1, same_orbit=s["same_orbit"] + s["degenerate"] + 1),
        edited(next_index=45),                          # pairs lag behind
        edited(next_index=0, pairs=0, degenerate=0, same_orbit=0),
        edited(next_index=46, pairs=45, degenerate=s["degenerate"] + 35),
        edited(degenerate=s["degenerate"] + 1),         # outcomes exceed pairs
        edited(class_size=44),
    ]
    assert [resume_holds(b, 45) for b in broken] == [False] * len(broken)


def test_refute_d_equivariance_spot_check(sp43):
    "Conjugated pairs give the same pair outcome."
    e = entry(sp43, "(2^2)", 0)
    mats = list(e.orbit.mats())
    rng = random.Random(4)
    r = mats[0]
    for _ in range(6):
        s = mats[rng.randrange(len(mats))]
        base = d_pair(r, s, subgroup_cap=0).kind
        g = random_element(sp43.spec, rng)
        conj = d_pair(g * r * g.inverse(), g * s * g.inverse(),
                      subgroup_cap=0).kind
        assert base == conj


def test_refute_f_certificate_on_s6_double_transpositions(sp42):
    e = entry(sp42, "V(2)^2")
    got = refute_f(e.orbit)
    assert isinstance(got, Certificate)
    assert got.kind == "not_F" and got.basis == "necessary-condition"
    assert got.stats["class_size"] == 45


def test_refute_f_trivially_empty_graph_on_transvections(sp42):
    "Any two transvections either commute or generate one orbit: no edges."
    e = entry(sp42, "V(2)+W(1)")
    got = refute_f(e.orbit)
    assert isinstance(got, Certificate)
    assert got.stats["row_edges"] == 0


def test_f_edge_symmetry(sp42):
    "The index edge test is symmetric, and it has edges to test on V(4)."
    e = entry(sp42, "V(4)")
    _, row = _class_rows(e.orbit)
    edges = 0
    for i in range(30):
        for j in range(i + 1, e.size):
            got = _edge(row(i), row(j), i, j)
            assert got == _edge(row(j), row(i), j, i)
            edges += got
    assert edges > 0


@pytest.mark.parametrize("q,label,splits", [(2, "V(2)^2", 12), (3, "2,2", 68)])
def test_pair_split_matches_the_full_orbit(q, label, splits):
    """The search that stops when the orbit of 0 meets j splits the pair
    (0, j) exactly when j lies outside the whole orbit of 0 under
    <phi_0, phi_j>, for every j != 0 of the class.  The commuting pairs are
    among those split."""
    cat = group_catalog(4, q)
    e = entry(cat, str(parse_label(label, q)))
    _, row = _class_rows(e.orbit)
    r0, seen = row(0), 0
    for j in range(1, e.size):
        rj = row(j)
        want = j not in rack.orbit((r0, rj), 0, e.size)[0]
        assert detect._pair_split(r0, rj, 0, j) == want
        seen += want
    assert seen == splits


def test_check_f_family_failure_modes(sp42):
    e = entry(sp42, "V(4)")
    r = e.rep()
    got = check_f_family([r, r, r, r], "torus_translates")
    assert isinstance(got, FFailure) and got.condition == "disjointness"
    assert not got             # a failure is falsy, a witness is not


def test_check_f_family_reports_stability():
    """The genuine Sp4(4) V(4) #0 family with its fourth representative
    swapped for another element of the class: its joint orbits are stable
    by construction, so `check_f_family` fails it on disjointness.  Its
    U^F-conjugate subracks are disjoint and non-fixing but not stable, and
    `FWitness.check` fails them on stability, as an FFailure, not an
    error."""
    cat = group_catalog(4, 4)
    e = entry(cat, "V(4)")
    reps = classify(class_context(e, cat)).witness.reps
    assert isinstance(check_f_family(reps, "torus_translates"), FWitness)
    x = mat_from_ints(cat.spec.field, [[0, 0, 0, 1], [0, 0, 1, 0],
                                       [0, 1, 1, 1], [1, 0, 1, 1]])
    assert e.orbit.contains(x)
    swapped = reps[:3] + (x,)
    got = check_f_family(swapped, "torus_translates")
    assert got == FFailure("disjointness")
    subracks = tuple(tuple(sorted({(u * r * u.inverse()).pack()
                                   for u in cat.u_group}))
                     for r in swapped)
    got = FWitness(swapped, subracks, "u_conjugates").check()
    assert got == FFailure("stability")


def test_diagonal_translate_f_family_sp44():
    "Four diagonal-translate representatives of the regular class at q = 4."
    cat = group_catalog(4, 4)
    e = entry(cat, "V(4)")
    ctx = class_context(e, cat)
    v = classify(ctx)
    assert v.kind == "F" and v.strategy == "torus"
    assert recheck(v.witness.to_json())
    assert len(v.witness.subracks) == 4
    # the family representatives are genuine class members
    for m in v.witness.reps:
        assert e.orbit.contains(m) or cat.entries[0] is not None


def test_su3_f_families():
    for q in (3, 4):
        w = su3_f_family(q)
        assert isinstance(w, FWitness)
        assert recheck(w.to_json())


def test_group_identity_small_samples():
    rng = random.Random(0)
    for fam, n, q in [("Sp", 4, 2), ("SL", 2, 3)]:
        group_identity_spot_check(group_spec(fam, n, q), rng, n_pairs=300)


def test_classify_deterministic(sp43):
    e = entry(sp43, "(2^2)", 1)
    ctx = class_context(e, sp43)
    v1 = classify(ctx)
    v2 = classify(ctx)
    import json
    assert json.dumps(v1.to_json(), sort_keys=True) == \
        json.dumps(v2.to_json(), sort_keys=True)


def test_classify_budget_exhaustion_is_unknown(sp43):
    e = entry(sp43, "(2^2)", 0)     # the refutation-bound class
    ctx = class_context(e, sp43)
    v = classify(ctx, budget=Budget(refute_pair_cap=5))
    assert v.kind == "unknown"
    assert v.cert_not_d is not None and not v.cert_not_d.complete


def test_torus_strategy_drives_regular_odd_class(sp43):
    "Integration: the support-condition witness machinery yields the verdict."
    e = entry(sp43, "(4)")
    v = classify(class_context(e, sp43))
    assert v.kind == "D" and v.strategy == "torus"
    assert v.witness.strategy == "torus"
    assert recheck(v.witness.to_json())


def test_classify_exit_code_path_budget(tmp_path):
    "CLI surfaces budget exhaustion as exit 3 with unknowns recorded."
    import json
    from unirack.cli import main
    out = tmp_path / "o.json"
    code = main(["--output", str(out), "--pair-cap", "3", "classify",
                 "--family", "sp", "--n", "2", "--q", "3", "--label", "2,2"])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["unknowns"] >= 1


def test_find_d_dispatcher(sp43):
    "The torus finder and the exhaustive scan, called directly."
    e = entry(sp43, "(4)")
    ctx = class_context(e, sp43)
    got = find_d_torus(ctx, Budget())
    assert got.strategy == "torus" and recheck(got.to_json())
    e0 = entry(sp43, "(1^2,2)")
    ctx0 = class_context(e0, sp43)
    assert find_d_torus(ctx0, Budget()) is None
    assert isinstance(refute_d(ctx0.spec, ctx0.orbit, Budget()), Certificate)


# ---------------------------------------------------------------------------
# the index scans against matrix scans


def reference_not_d(mats, cap=10**6):
    "The not-D scan by matrices: d_pair on (rep, s) for every other s."
    stats = {"class_size": len(mats), "pairs": 0, "degenerate": 0,
             "same_orbit": 0}
    for s in mats[1:]:
        res = d_pair(mats[0], s, cap=cap, subgroup_cap=0)
        stats["pairs"] += 1
        if res.kind == "witness":
            return res.witness
        stats["same_orbit" if res.kind == "same_orbit" else "degenerate"] += 1
    return stats


def reference_d_pair(r, s, cap=10**6):
    """The pair test from two whole orbits, with no stop: (kind, orbit
    sizes of a witness)."""
    if r == s or r * s == s * r:
        return "degenerate_commuting", None
    if collapse_eq_holds(r, s):
        return "degenerate_square", None
    orb_r = orbit_under(r, [r, s], cap=cap)
    orb_s = orbit_under(s, [r, s], cap=cap) if orb_r.complete else None
    if orb_s is None or not orb_s.complete:
        return "cap_exceeded", None
    if orb_r.packed & orb_s.packed:
        return "same_orbit", None
    return "witness", (orb_r.size, orb_s.size)


def reference_not_f(mats, cap=10**6):
    """The not-F scan by matrices: edges from <x,y>-conjugation orbits, and
    the joint test from the whole orbits under the family, with the clique
    enumeration of `refute_f`."""
    def edge(x, y):
        return x * y != y * x and not orbit_under(x, [x, y], cap).contains(y)

    def joint(family):
        orbits = [orbit_under(x, family, cap).packed for x in family]
        return all(orbits[a].isdisjoint(orbits[b])
                   for a in range(len(family)) for b in range(a))

    rep = mats[0]
    nb = [s for s in mats[1:] if edge(rep, s)]
    m = len(nb)
    adj = {(i, j) for i in range(m) for j in range(i + 1, m)
           if edge(nb[i], nb[j])}
    stats = {"class_size": len(mats), "row_edges": m,
             "pair_tests": len(mats) - 1 + m * (m - 1) // 2,
             "pair_level_cliques": 0, "joint_tests": 0,
             "triple_pruned_edges": 0}
    for i, j in sorted(adj):
        common = [k for k in range(j + 1, m) if (i, k) in adj and (j, k) in adj]
        if not common:
            continue
        if not joint([rep, nb[i], nb[j]]):
            stats["triple_pruned_edges"] += 1
            continue
        for k in common:
            stats["pair_level_cliques"] += 1
            stats["joint_tests"] += 1
            if joint([rep, nb[i], nb[j], nb[k]]):
                return {"clique": [x.pack() for x in (rep, nb[i], nb[j], nb[k])],
                        "stats": stats}
    return stats


# every cthulhu class of Sp4(2..4), a D class, and the smaller Sp6(2)
# cthulhu class built as the benchmark builds it
DIFFERENTIAL = [(2, "V(2)+W(1)", 0), (2, "V(2)^2", 0), (2, "W(2)", 0),
                (2, "V(4)", 0), (3, "1,1,2", 0), (3, "1,1,2", 1),
                (3, "2,2", 0), (4, "V(2)+W(1)", 0), (4, "W(2)", 0),
                ("Sp6(2)", "V(2)+W(1)^2", 0)]


@pytest.mark.parametrize("q,label,split", DIFFERENTIAL,
                         ids=[f"{q}-{lab}-{sp}" for q, lab, sp in DIFFERENTIAL])
def test_index_scans_match_matrix_scans(q, label, split):
    if q == "Sp6(2)":
        spec = group_spec("Sp", 6, 2)
        orbit = class_orbit(representative(parse_label(label, 2), 6, 2), spec)
    else:
        cat = group_catalog(4, q)
        e = entry(cat, str(parse_label(label, q)), split)
        spec, orbit = cat.spec, e.orbit
    mats = list(orbit.mats())
    want_d = reference_not_d(mats)
    want_f = reference_not_f(mats) if isinstance(want_d, dict) else None
    rows_mats, row = _class_rows(orbit)
    assert list(rows_mats) == mats
    index = {m.pack(): k for k, m in enumerate(mats)}
    for i in (0, len(mats) - 1):
        x, xi = mats[i], mats[i].inverse()
        assert tuple(row(i)) == tuple(index[(x * y * xi).pack()]
                                      for y in mats)
    got_d = refute_d(spec, orbit)
    if isinstance(want_d, DWitness):
        assert isinstance(got_d, DWitness)
        assert recheck(got_d.to_json())
        assert got_d.to_json() == want_d.to_json()
        return
    assert got_d.complete and got_d.stats == want_d
    got_f = refute_f(orbit)
    assert isinstance(got_f, Certificate) and got_f.stats == want_f


# ---------------------------------------------------------------------------
# type F from the definition


def is_f_family_by_definition(rows, family) -> bool:
    """Whether the indices `family` are the representatives of a type-F
    family, over the index rows `rows` of a class: the members pairwise
    have x > y != y, and their whole orbits under the group of their four
    rows are pairwise disjoint."""
    if any(rows[x][y] == y for x in family for y in family if x != y):
        return False
    perms = [rows[x] for x in family]
    orbits = []
    for a in family:
        seen, todo = {a}, [a]
        while todo:
            x = todo.pop()
            for p in perms:
                if p[x] not in seen:
                    seen.add(p[x])
                    todo.append(p[x])
        if any(seen & other for other in orbits):
            return False
        orbits.append(seen)
    return True


def definition_f_family(rows):
    """(the first family through index 0 in index order, or None, and the
    number of 4-sets tried): every 4-set {0, j, k, l} whose members
    pairwise have x > y != y is tested by `is_f_family_by_definition`.
    Neither the compatibility graph nor its pruning is used."""
    def moves(x, y):
        return rows[x][y] != y

    nb = [j for j in range(1, len(rows)) if moves(0, j)]
    tried = 0
    for a, j in enumerate(nb):
        for b in range(a + 1, len(nb)):
            k = nb[b]
            if not moves(j, k):
                continue
            for l in nb[b + 1:]:
                if moves(j, l) and moves(k, l):
                    tried += 1
                    if is_f_family_by_definition(rows, (0, j, k, l)):
                        return (0, j, k, l), tried
    return None, tried


F_ORACLE = [("Sp4(2)", "V(2)+W(1)"), ("Sp4(2)", "V(2)^2"), ("Sp4(2)", "W(2)"),
            ("SL4(2)", "transvections"), ("SL5(2)", "transvections")]


@pytest.mark.parametrize("group,label", F_ORACLE,
                         ids=[f"{g}-{lab}" for g, lab in F_ORACLE])
def test_refute_f_agrees_with_the_definition(group, label):
    """The not-F scan decides type F: it returns a family exactly where the
    definition finds one, and the family it returns satisfies the
    definition.  The SL_4(2) transvection class is not F after 33,312
    4-sets; the SL_5(2) one is F."""
    if group == "Sp4(2)":
        orbit = entry(group_catalog(4, 2), label).orbit
    else:
        orbit = sl_transvections(int(group[2]), 2)
    mats, row = _class_rows(orbit)
    rows = [row(x) for x in range(len(mats))]
    want, tried = definition_f_family(rows)
    got = refute_f(orbit)
    if group == "SL4(2)":
        assert tried == 33312
    assert (want is not None) == (group == "SL5(2)")
    if want is None:
        assert isinstance(got, Certificate)
        return
    index = {m.pack(): k for k, m in enumerate(mats)}
    family = tuple(index[m.pack()] for m in got.reps)
    assert family[0] == 0 and is_f_family_by_definition(rows, family)


def test_sl5_2_transvections_are_f_by_their_surviving_clique():
    """The not-F scan of the SL_5(2) transvection class meets a 4-clique
    that survives the joint test, (0, 9, 27, 63), and returns it as an F
    witness whose subracks are its joint orbits; `classify` reports it.
    The recheck accepts it, and fails it with one representative swapped
    or one subrack size off by one."""
    orbit = sl_transvections(5, 2)
    mats, _ = _class_rows(orbit)
    assert len(mats) == 465
    w = refute_f(orbit)
    assert isinstance(w, FWitness) and w.builder == "clique"
    index = {m.pack(): k for k, m in enumerate(mats)}
    assert [index[m.pack()] for m in w.reps] == [0, 9, 27, 63]
    assert [len(t) for t in w.subracks] == [8, 8, 8, 8]
    ctx = ClassContext(group_spec("SL", 5, 2), mats[0],
                       ClassEntry(None, 0, orbit, ()))
    v = classify(ctx)
    assert (v.kind, v.strategy, v.witness) == ("F", "clique", w)
    js = w.to_json()
    assert recheck(js) and recheck(v.to_json())
    swapped = json.loads(json.dumps(js))
    swapped["reps"][3] = mat_json(mats[1])
    assert not recheck(swapped)
    bigger = json.loads(json.dumps(js))
    bigger["subrack_sizes"][2] += 1
    assert not recheck(bigger)


D_PAIR_CLASSES = [(2, None), (3, "1,1,2"), (3, "2,2")]


@pytest.mark.parametrize("q,label", D_PAIR_CLASSES,
                         ids=[f"{q}-{lab or 'all'}" for q, lab in D_PAIR_CLASSES])
@pytest.mark.parametrize("cap", [10**6, 1, 2, 5])
def test_d_pair_matches_the_two_orbit_reference(q, label, cap):
    """Every pair (least member, s) of the classes: the search that stops
    at s is a witness exactly when the two whole orbits are disjoint, with
    the same orbit sizes, under the default cap and under small ones.  A
    pair the reference calls same_orbit or a degenerate kind reads the
    same; one it calls cap_exceeded reads cap_exceeded, or same_orbit once
    the orbit of r meets s before the cap."""
    cat = group_catalog(4, q)
    entries = [e for e in cat.entries
               if label is None or e.label == parse_label(label, q)]
    witnesses = 0
    for e in entries:
        mats = list(e.orbit.mats())
        for s in mats[1:]:
            want, sizes = reference_d_pair(mats[0], s, cap)
            res = d_pair(mats[0], s, cap=cap, subgroup_cap=0)
            if want == "cap_exceeded":
                assert res.kind in ("cap_exceeded", "same_orbit")
            else:
                assert res.kind == want
            if want == "witness":
                assert res.witness.orbit_sizes == sizes
                witnesses += 1
    if cap == 10**6 and label != "1,1,2":     # a D class is among them
        assert witnesses
