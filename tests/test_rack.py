import pytest

from unirack import rack
from unirack.catalog import (
    class_context, group_catalog, parse_label, representative,
)
from unirack.detect import classify
from unirack.ffield import Embedding
from unirack.matgroup import Mat, class_orbit, group_spec
from unirack.rack import (
    Rack, RackError, conj_rack, conj_rows, decompose, inn_order,
    perm_group_order, perm_mul, sober_check, subrack_closure,
)


def transvection(spec):
    F, n = spec.field, spec.n
    flat = list(Mat.identity(F, n).flat)
    flat[n - 1] = 1
    return Mat(F, n, flat)


def inner_group_perms(r: Rack, cap: int = 10**6) -> set:
    "Full closure of the translation permutations: the reference inner group."
    gens = sorted({r.translation(i) for i in range(r.size)})
    seen = set(gens) | {tuple(range(r.size))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = perm_mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise RackError("inner group exceeds cap")
        frontier = nxt
    return seen


def checked_rack(mats):
    "The conjugation rack on `mats`, its axioms checked in full."
    r = conj_rack(mats)
    assert r.verify_axioms()
    return r


def class_rack(fam, n, q):
    spec = group_spec(fam, n, q)
    return checked_rack(class_orbit(transvection(spec), spec).mats())


def sl2_unipotent_rack(q):
    spec = group_spec("SL", 2, q)
    u = Mat(spec.field, 2, (1, 1, 0, 1))
    return checked_rack(class_orbit(u, spec).mats())


def trivial_rack(n):
    "x > y = y on n points: every translation is the identity."
    ident = tuple(range(n))
    return Rack(range(n), lambda i: ident)


def test_singleton_rack_is_trivial():
    spec = group_spec("Sp", 4, 2)
    r = checked_rack([spec.identity()])
    assert r.size == 1 and r.op(0, 0) == 0


def test_transvection_rack_sp42():
    r = class_rack("Sp", 4, 2)
    assert r.size == 15
    assert len(decompose(r)) == 1   # a full class is one inner orbit


def test_closure_violation_detected():
    spec = group_spec("Sp", 4, 2)
    orb = class_orbit(transvection(spec), spec)
    mats = list(orb.mats())[:7]     # not closed
    with pytest.raises(RackError):
        conj_rack(mats)


def test_subrack_closure_singleton_and_commuting_pair():
    r = class_rack("Sp", 4, 2)
    one = subrack_closure(r, (0,))
    assert one.members == (0,) and one.abelian
    # find two commuting distinct transvections
    for j in range(1, r.size):
        if r.op(0, j) == j:
            pair = subrack_closure(r, (0, j))
            assert pair.members == (0, j) and pair.abelian
            assert not pair.indecomposable
            break
    else:
        raise AssertionError("no commuting pair found")


def test_decompose_abelian_rack():
    r = trivial_rack(5)
    assert len(decompose(r)) == 5
    assert inn_order(r) == 1


def test_sl2_class_sizes_and_sober():
    r3 = sl2_unipotent_rack(3)
    assert r3.size == 4
    rep = sober_check(r3, "exhaustive")
    assert rep.sober and rep.basis == "all-subracks"
    r4 = sl2_unipotent_rack(4)
    assert r4.size == 15
    assert sober_check(r4, "exhaustive").sober


def test_sober_exhaustive_matches_mask_oracle():
    "Independent oracle: scan all subsets of the size-4 rack directly."
    r = sl2_unipotent_rack(3)
    n = r.size
    bad = []
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        closed = all(r.op(a, b) in idx for a in idx for b in idx)
        if not closed:
            continue
        abelian = all(r.op(a, b) == b for a in idx for b in idx)
        indec = len(decompose(r, idx)) == 1
        if not (abelian or indec):
            bad.append(tuple(idx))
    assert bad == []
    assert sober_check(r, "exhaustive").sober


@pytest.mark.parametrize("q", [5, 7])
def test_sober_pairs_mode_larger_sl2(q):
    r = sl2_unipotent_rack(q)
    assert r.size == (q * q - 1) // 2
    rep = sober_check(r, "pairs")
    assert rep.sober and rep.basis == "2-generated"


def test_sober_pairs_analyses_each_distinct_subrack_once():
    """78 and 300 generating pairs close to 19 and 49 distinct subracks;
    the SL_2(9) counterexample is the second subrack analysed."""
    got = {q: sober_check(sl2_unipotent_rack(q), "pairs") for q in (5, 7, 9)}
    assert [got[q].subracks_scanned for q in (5, 7, 9)] == [19, 49, 2]
    assert got[9].counterexample == (0, 1, 4, 5, 8, 9, 12, 13)


def test_sl2_9_subfield_subrack_breaks_soberness():
    """Computed fact: the SL_2(9) class rack is NOT sober.  The union of the
    two subfield SL_2(3)-classes is an 8-element subrack, decomposable into
    those two classes and non-abelian.  No pair across the two blocks
    violates the collapse equation, so no type-D witness arises from it."""
    r = sl2_unipotent_rack(9)
    assert r.size == 40
    rep = sober_check(r, "pairs")
    assert not rep.sober
    idx = rep.counterexample
    assert len(idx) == 8
    blocks = decompose(r, idx)
    assert sorted(len(b) for b in blocks) == [4, 4]
    # every cross-block pair satisfies (rs)^2 = (sr)^2: no witness here
    for bi in blocks:
        for bj in blocks:
            if bi is bj:
                continue
            for a in bi:
                for b in bj:
                    x, y = r.elements[a], r.elements[b]
                    assert (x * y) ** 2 == (y * x) ** 2
    # the blocks are exactly the two unipotent classes of the subfield group:
    # every entry descends to the prime field (descend raises otherwise) ...
    spec3 = group_spec("SL", 2, 3)
    emb = Embedding(spec3.field, r.elements[0].field)
    for b in blocks:
        down = [r.elements[i].descend_to(emb) for i in b]
        # ... and each block is one SL_2(3)-class
        orb = class_orbit(down[0], spec3)
        assert orb.packed == {m.pack() for m in down}


def test_sober_bound_enforced():
    r = class_rack("Sp", 4, 2)   # size 15 is fine, build a too-big dummy
    big = trivial_rack(21)
    with pytest.raises(RackError):
        sober_check(big, "exhaustive")
    # Sp_4(2) = S_6 and its transvections are the transpositions, where
    # {(12), (13), (23), (45)} is a decomposable non-abelian subrack
    rep = sober_check(r, "exhaustive")
    assert not rep.sober and len(rep.counterexample) == 4


def test_inn_order_transvections_sp42():
    "The transvection translations generate the full inner group, order 720."
    r = class_rack("Sp", 4, 2)
    assert inn_order(r) == 720
    # cross-check with plain closure of the translation permutations
    assert len(inner_group_perms(r)) == 720


def regular_class_racks_sp42():
    spec = group_spec("Sp", 4, 2)
    model_reps = []
    from unirack.chevalley import ChevalleyWord, symplectic_model
    model = symplectic_model(2, 2)
    rs = model.rs
    seen = set()
    racks = []
    for coeffs, u in model.u_elements():
        from unirack.matgroup import jordan_partition
        if jordan_partition(u) != (4,):
            continue
        if any(u.pack() in s for s in seen):
            continue
        orb = class_orbit(u, spec)
        seen.add(frozenset(orb.packed))
        racks.append(checked_rack(orb.mats()))
    return racks


def test_regular_classes_sp42_inner_groups():
    "Two regular classes of size 90; inner groups of orders 720 and 360."
    racks = regular_class_racks_sp42()
    assert len(racks) == 2
    assert sorted(r.size for r in racks) == [90, 90]
    assert sorted(inn_order(r) for r in racks) == [360, 720]


def test_perm_group_order_basics():
    assert perm_group_order([(1, 0, 2)]) == 2
    assert perm_group_order([(1, 2, 0)]) == 3
    assert perm_group_order([(1, 0, 2), (0, 2, 1)]) == 6
    assert perm_group_order([]) == 1
    assert rack.perm_mul((0,), (0,)) == (0,) and rack.perm_mul((), ()) == ()
    assert rack.perm_mul((2, 0, 1), (1, 2, 0)) == (0, 1, 2)


def test_perm_group_order_stops_at_a_known_bound(monkeypatch):
    """Given a bound the order cannot pass, Schreier-Sims returns once the
    product of the basic orbit lengths reaches it, before the sifts that
    would verify the chain; a bound above the order changes nothing."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return tuple(a[x] for x in b)
    monkeypatch.setattr(rack, "perm_mul", counted)
    s8 = [(1, 0) + tuple(range(2, 8)), tuple(range(1, 8)) + (0,)]
    work = {}
    for bound in (None, 40320, 10**6):     # |S_8| = 40320
        calls.clear()
        assert perm_group_order(s8, bound) == 40320
        work[bound] = len(calls)
    assert work[40320] < work[None] == work[10**6]
    assert perm_group_order(s8[:1], 40320) == 2


def test_inn_order_divides_factorial():
    import math
    r = sl2_unipotent_rack(3)
    assert math.factorial(r.size) % inn_order(r) == 0


def test_noncommuting_transvection_pair_generates_indecomposable():
    "Two noncommuting transvections generate an indecomposable subrack."
    r = class_rack("Sp", 4, 3)
    i = 0
    j = next(j for j in range(1, r.size) if r.op(i, j) != j)
    ana = subrack_closure(r, (i, j))
    assert not ana.abelian and ana.indecomposable


# ---------------------------------------------------------------------------
# the conjugation table against dense matrix products


def differential_carrier(name):
    "Conjugation-closed matrix sets, each as a list of Mat."
    if name.startswith("sp42-V4"):
        entries = group_catalog(4, 2).by_label(parse_label("V(4)", 2))
        picked = entries if name.endswith("union") else [entries[int(name[-1])]]
        return [m for e in picked for m in e.orbit.mats()]
    if name == "sp43-(2^2)":
        spec = group_spec("Sp", 4, 3)
        orbit = class_orbit(representative(parse_label("2,2", 3), 4, 3), spec)
        assert orbit.size == 240
        return list(orbit.mats())
    q = int(name.removeprefix("sl2-q"))
    spec = group_spec("SL", 2, q)
    return list(class_orbit(Mat(spec.field, 2, (1, 1, 0, 1)), spec).mats())


DIFFERENTIAL_CARRIERS = ("sp42-V4-0", "sp42-V4-1", "sp42-V4-union",
                         "sp43-(2^2)", "sl2-q3", "sl2-q4", "sl2-q5", "sl2-q7",
                         "sl2-q9")


@pytest.mark.parametrize("name", DIFFERENTIAL_CARRIERS)
def test_conj_table_equals_dense_products(name, monkeypatch):
    mats = differential_carrier(name)
    r = checked_rack(mats)
    index = {x: i for i, x in enumerate(r.elements)}
    assert len(index) == len(mats)
    for i, x in enumerate(r.elements):
        xi = x.inverse()
        assert r.translation(i) == tuple(index[x * y * xi] for y in r.elements)
    if name == "sp42-V4-union":
        assert len(decompose(r)) > 1     # rows from more than one orbit
    # one matrix row per call gives the same rows as the derived table
    monkeypatch.setattr(rack, "MATERIALIZE_LIMIT", len(mats) - 1)
    per_row = checked_rack(mats)
    assert all(per_row.translation(i) == r.translation(i) for i in range(r.size))


@pytest.mark.parametrize("source", ["table", "per-row"])
def test_repeated_matrix_is_refused(source, monkeypatch):
    "Both row sources refuse a carrier that lists one matrix twice."
    if source == "per-row":
        monkeypatch.setattr(rack, "MATERIALIZE_LIMIT", 10)
    spec = group_spec("Sp", 4, 2)
    mats = sorted(class_orbit(transvection(spec), spec).mats())
    mats.insert(4, mats[3])
    with pytest.raises(RackError, match="repeated"):
        conj_rows(mats)
    with pytest.raises(RackError, match="repeated"):
        conj_rack(mats)


def test_carrier_with_a_foreign_element_is_not_closed():
    "A class plus one element of another class: some matrix row leaves it."
    spec = group_spec("Sp", 4, 2)
    mats = list(class_orbit(transvection(spec), spec).mats())
    stranger = differential_carrier("sp42-V4-0")[0]
    with pytest.raises(RackError, match="not closed"):
        conj_rack(mats + [stranger])


# ---------------------------------------------------------------------------
# Schreier-Sims against known orders


def cycle(n, points):
    "The permutation of range(n) that sends each point to the next."
    perm = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


FANO_LINES = {frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)}
FANO_INVOLUTION = (0, 1, 4, 3, 2, 6, 5)


@pytest.mark.parametrize("gens, order", [
    ([cycle(7, [0, 1, 2, 3, 4, 5, 6]), cycle(7, [0, 1])], 5040),
    ([cycle(7, [0, 1, 2, 3, 4, 5, 6])], 7),
    ([cycle(7, [0, 1, 2, 3, 4, 5, 6]), tuple(-x % 7 for x in range(7))], 14),
    ([tuple((x + 1) % 7 for x in range(7)), tuple(2 * x % 7 for x in range(7))],
     21),
    ([cycle(5, [0, 1, 2]), cycle(5, [0, 1, 2, 3, 4])], 60),
    ([tuple((x + 1) % 7 for x in range(7)), tuple(2 * x % 7 for x in range(7)),
      FANO_INVOLUTION], 168),
    ([cycle(6, [0, 1]), cycle(6, [0, 1, 2]), cycle(6, [3, 4]),
      cycle(6, [3, 4, 5])], 36),
], ids=["S7", "C7", "D7", "AGL1(7)", "A5", "PSL(2,7)", "S3xS3"])
def test_perm_group_order_known_groups(gens, order):
    assert perm_group_order(gens) == order


def test_fano_generators_are_collineations():
    for g in ((1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5), FANO_INVOLUTION):
        assert {frozenset(g[x] for x in line) for line in FANO_LINES} == FANO_LINES


def test_inn_order_equals_closure_on_every_sp42_class():
    cat = group_catalog(4, 2)
    for e in cat.entries:
        r = checked_rack(e.orbit.mats())
        assert inn_order(r) == len(inner_group_perms(r))


# ---------------------------------------------------------------------------
# verify_axioms on corrupted tables


def corrupted(rows):
    "A rack on the same indices with the given table rows."
    return Rack(range(len(rows)), tuple(map(tuple, rows)).__getitem__)


def test_verify_axioms_catches_corrupt_tables():
    r = class_rack("Sp", 4, 2)
    rows = [list(r.translation(i)) for i in range(r.size)]
    assert corrupted(rows).verify_axioms()
    j = next(j for j in range(r.size) if rows[0][j] != j)
    # one entry repeated: row 0 is not a bijection
    broken = [row[:] for row in rows]
    broken[0][j] = broken[0][0]
    with pytest.raises(RackError, match="bijection"):
        corrupted(broken).verify_axioms()
    # a single changed entry always breaks the bijection, so swap two
    # entries of row 0: every row stays a permutation
    broken = [row[:] for row in rows]
    broken[0][0], broken[0][j] = broken[0][j], broken[0][0]
    with pytest.raises(RackError, match="self-distributivity"):
        corrupted(broken).verify_axioms()
    # every row the translation of 0: self-distributive (a permutation rack)
    # with bijective rows, but 0 > j != j while j > 0 = 0
    broken = [rows[0][:] for _ in rows]
    with pytest.raises(RackError, match="crossed-set"):
        corrupted(broken).verify_axioms()


# ---------------------------------------------------------------------------
# type D a second time, from the rack table alone


def type_d_from_table(r):
    """Some j with 0 > (j > (0 > j)) != j whose orbit under <phi_0, phi_j>
    misses 0.  The class is one orbit of the group, and conjugation by the
    group is a rack automorphism, so fixing r = 0 loses nothing; the orbits
    of 0 and j are disjoint iff j is not in the orbit of 0."""
    rows = [r.translation(k) for k in range(r.size)]
    for j in range(r.size):
        if rows[0][rows[j][rows[0][j]]] == j:
            continue
        orbit, frontier = {0}, [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in (rows[0][x], rows[j][x]):
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        if j not in orbit:
            return True
    return False


@pytest.mark.parametrize("q, classes", [(2, 5), (3, 3), (4, 2)])
def test_type_d_from_rack_table_matches_catalog_verdicts(q, classes):
    cat = group_catalog(4, q)
    small = [e for e in cat.entries if e.size <= 300]
    assert len(small) == classes
    for e in small:
        verdict = classify(class_context(e, cat))
        assert verdict.kind in ("D", "cthulhu")
        r = checked_rack(e.orbit.mats())
        assert type_d_from_table(r) == (verdict.kind == "D"), (str(e.label), e.split_index)


# ---------------------------------------------------------------------------
# subracks as seed orbits, against the pairwise closure and union-find


def table(r):
    return [r.translation(i) for i in range(r.size)]


def pairwise_closure(t, seed):
    """The smallest subrack holding `seed` in the rack with table `t`,
    closed pair by pair under > both ways."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in list(members):
            for b in frontier:
                for z in (t[a][b], t[b][a]):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    return tuple(sorted(members))


def union_find_blocks(t, subset):
    "Inner blocks of a subrack: join b with a > b for every pair a, b."
    parent = {x: x for x in subset}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a in subset:
        for b in subset:
            parent[find(b)] = find(t[a][b])
    groups = {}
    for x in sorted(subset):
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(v) for v in groups.values())


def seed_sets(r, triples=200):
    "Every pair of indices, then seeded random triples."
    import random
    rng = random.Random(0)
    pairs = [(i, j) for i in range(r.size) for j in range(i, r.size)]
    return pairs + [tuple(rng.sample(range(r.size), 3)) for _ in range(triples)]


@pytest.mark.parametrize("name", ["sp42-V4-0", "sl2-q9"])
def test_seed_orbits_match_pairwise_closure_and_union_find(name):
    r = checked_rack(differential_carrier(name))
    t = table(r)
    subracks = set()
    for seed in seed_sets(r):
        members = subrack_closure(r, seed).members
        assert members == pairwise_closure(t, seed), seed
        subracks.add(members)
    for members in subracks:
        blocks = decompose(r, members)
        assert blocks == union_find_blocks(t, members), members
        ana = subrack_closure(r, members)
        assert ana.members == members
        assert ana.indecomposable == (len(blocks) == 1)
        assert ana.abelian == all(t[a][b] == b for a in members
                                  for b in members)


@pytest.mark.parametrize("q", [3, 4])
def test_seed_orbits_on_every_subrack_of_small_sl2(q):
    r = sl2_unipotent_rack(q)
    t = table(r)
    for members in rack._all_subracks(r):
        assert members == pairwise_closure(t, members)
        assert decompose(r, members) == union_find_blocks(t, members)


def test_closure_of_a_pair_fetches_its_two_rows():
    """A pair's subrack comes from the rows of the pair alone, however large
    the subrack: here the whole 40-element class of Sp4(3) transvections."""
    base = class_rack("Sp", 4, 3)
    fetched = []

    def row(i):
        fetched.append(i)
        return base.translation(i)

    r = Rack(base.elements, row)
    j = next(j for j in range(1, r.size) if base.op(0, j) != j)
    ana = subrack_closure(r, (0, j))
    assert not ana.abelian and ana.indecomposable
    assert len(fetched) <= 4


def test_decompose_fetches_the_rows_of_a_few_seeds():
    """decompose takes a member as a seed only outside the orbits of the
    seeds so far: on the two classes of Sp4(3) transvections, 80 elements
    in two inner blocks, it reads a few rows and gives the blocks of the
    whole table."""
    spec = group_spec("Sp", 4, 3)
    mats = []
    for c in (1, 2):
        flat = list(spec.identity().flat)
        flat[3] = c
        mats += class_orbit(Mat(spec.field, 4, flat), spec).mats()
    base = checked_rack(mats)
    fetched = []

    def row(i):
        fetched.append(i)
        return base.translation(i)

    blocks = decompose(Rack(base.elements, row))
    assert blocks == union_find_blocks(table(base), range(base.size))
    assert [len(b) for b in blocks] == [40, 40]
    assert len(fetched) == len(set(fetched)) <= 6


def test_decompose_refuses_a_subset_that_is_not_a_subrack():
    r = class_rack("Sp", 4, 2)
    j = next(j for j in range(1, r.size) if r.op(0, j) != j)
    with pytest.raises(RackError, match="not a subrack"):
        decompose(r, (0, j))
    # two transpositions of S_6 that do not commute generate an S_3 class
    assert len(decompose(r, subrack_closure(r, (0, j)).members)) == 1


# subracks scanned and counterexample of the exhaustive scan, recorded
# before subracks became seed orbits
SOBER_EXHAUSTIVE = {
    "sl2-q3": (True, 5, None),
    "sl2-q4": (True, 52, None),
    "sp42-transvections": (False, 96, (0, 1, 2, 4)),
}


@pytest.mark.parametrize("name", list(SOBER_EXHAUSTIVE))
def test_sober_exhaustive_is_pinned(name):
    if name == "sp42-transvections":
        r = class_rack("Sp", 4, 2)
    else:
        r = sl2_unipotent_rack(int(name.removeprefix("sl2-q")))
    rep = sober_check(r, "exhaustive")
    assert (rep.sober, rep.subracks_scanned, rep.counterexample) \
        == SOBER_EXHAUSTIVE[name]
