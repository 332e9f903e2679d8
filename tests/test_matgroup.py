import itertools
import random

import pytest

from unirack import matgroup
from unirack.detect import _class_rows, _joint
from unirack.ffield import make_field, prime_power
from unirack.matgroup import (
    GroupError, Mat, ROW_CODE_LIMIT, _kernel, _row_code, class_orbit,
    classical_order, det_flat, enumerate_group, format_partition,
    group_spec, identity_flat, inv_flat, j_mat, jordan_partition,
    kernel_rows, membership, mul_flat, nilpotent_ladder, random_element,
    row_reduce, rows_flat, split_classes, subgroup_closure, symplectic_form,
    unitary_twist,
)
from unirack.rack import perm_group_order

from helpers import mat_from_ints


def transvection(spec):
    "id + e_{1,n} lands in the highest-root subgroup for both forms."
    F, n = spec.field, spec.n
    flat = list(Mat.identity(F, n).flat)
    flat[n - 1] = 1
    return Mat(F, n, flat)


def test_identity_membership_everywhere():
    for fam, n, q in [("Sp", 4, 2), ("Sp", 4, 3), ("SL", 2, 3),
                      ("SU", 3, 2), ("GU", 3, 2)]:
        spec = group_spec(fam, n, q)
        assert membership(spec.identity(), spec)
        for g in spec.generators:
            assert membership(g, spec)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transvection_membership(q):
    spec = group_spec("Sp", 4, q)
    assert membership(transvection(spec), spec)


def test_determinant_constraint():
    spec = group_spec("SL", 3, 4)
    F = spec.field
    bad = Mat(F, 3, (F.generator, 0, 0, 0, 1, 0, 0, 0, 1))
    assert not membership(bad, spec)


def test_group_orders_by_formula():
    assert classical_order("Sp", 4, 2) == 720
    assert classical_order("Sp", 4, 3) == 51840
    assert classical_order("SL", 2, 3) == 24
    assert classical_order("GU", 3, 2) == 648
    assert classical_order("SU", 3, 2) == 216
    assert classical_order("Sp", 6, 2) == 1451520


def test_sp42_order_by_enumeration():
    spec = group_spec("Sp", 4, 2)
    closure = enumerate_group(spec)
    assert closure.complete and closure.size == 720 == spec.order


def test_sl23_order_by_enumeration():
    spec = group_spec("SL", 2, 3)
    assert enumerate_group(spec).size == 24


def test_su3_gu3_orders_by_enumeration():
    su = group_spec("SU", 3, 2)
    gu = group_spec("GU", 3, 2)
    assert enumerate_group(su).size == 216
    assert enumerate_group(gu).size == 648


def test_gu32_matches_twist_fixed_points():
    "Brute scan of GL_3(F_4): the twist-fixed invertibles are exactly GU_3(2)."
    gu = group_spec("GU", 3, 2)
    F = gu.field
    closure = enumerate_group(gu)
    for X in list(closure.mats())[:100]:
        assert unitary_twist(X, 2) == X
    rng = random.Random(5)
    outside = 0
    while outside < 50:
        flat = tuple(rng.randrange(F.q) for _ in range(9))
        try:
            X = Mat(F, 3, flat)
            X.inverse()
        except GroupError:
            continue
        fixed = unitary_twist(X, 2) == X
        assert fixed == closure.contains(X)
        outside += 1


def test_sp43_order_by_enumeration():
    spec = group_spec("Sp", 4, 3)
    assert enumerate_group(spec).size == 51840


@pytest.mark.slow
@pytest.mark.parametrize("fam,n,q,order", [("Sp", 4, 4, 979200),
                                           ("Sp", 6, 2, 1451520)])
def test_large_orders_by_enumeration_slow(fam, n, q, order):
    spec = group_spec(fam, n, q)
    assert spec.order == order
    assert enumerate_group(spec, cap=2 * 10**6).size == order


def test_power_takes_only_the_products_it_needs(monkeypatch):
    """m ** e multiplies only what binary powering needs: no product by the
    identity and no square past the last bit, so m ** 2 is one product and
    m ** 3 two; every power agrees with repeated products."""
    spec = group_spec("Sp", 4, 3)
    m = random_element(spec, random.Random(5))
    acc = Mat.identity(spec.field, 4)
    powers = []
    for _ in range(9):
        powers.append(acc)
        acc = acc * m
    calls = []
    product = matgroup.mul_flat

    def counting(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(matgroup, "mul_flat", counting)
    for e, products in enumerate((0, 0, 1, 2, 2, 3, 3, 4, 3)):
        calls.clear()
        assert m ** e == powers[e]
        assert len(calls) == products, e


def test_inverse_is_computed_once_and_knows_its_inverse(monkeypatch):
    """m.inverse() runs one Gauss-Jordan inverse however often it is asked
    for, and the inverse it returns has m as its own inverse; equality and
    hashing stay entrywise, whether or not a matrix holds its inverse."""
    spec = group_spec("Sp", 4, 3)
    m = random_element(spec, random.Random(6))
    calls = []
    inverse = matgroup.inv_flat

    def counting(*args):
        calls.append(args)
        return inverse(*args)

    monkeypatch.setattr(matgroup, "inv_flat", counting)
    mi = m.inverse()
    assert mi is m.inverse() and mi.inverse() is m and len(calls) == 1
    assert mi.flat == inverse(spec.field, 4, m.flat)
    assert (m * mi).is_identity() and (mi * m).is_identity()
    fresh = Mat(spec.field, 4, m.flat)          # holds no inverse yet
    assert fresh == m and hash(fresh) == hash(m) and fresh is not m
    assert fresh.inverse() == mi and hash(fresh.inverse()) == hash(mi)
    assert fresh.inverse() is not mi and len(calls) == 2
    assert Mat(spec.field, 4, mi.flat) == mi != m


@pytest.mark.parametrize("fam,n,q", [("Sp", 4, 3), ("Sp", 6, 2), ("SL", 3, 16)])
def test_orbit_under_stops_where_it_meets_stop(fam, n, q):
    """A search with a stop element ends as soon as it finds it: it holds
    the elements a BFS finds up to and including the stop, in BFS order,
    and reads incomplete; a stop outside the orbit leaves it whole."""
    spec = group_spec(fam, n, q)
    F = spec.field
    rng = random.Random(8)
    rep = transvection(spec)
    gens = [rep, random_element(spec, rng)]
    pairs = [(g.flat, inv_flat(F, n, g.flat)) for g in sorted(gens)]
    whole = matgroup.orbit_under(rep, gens, cap=300)
    members = sorted(whole.packed)[1::max(1, whole.size // 5)]
    for b in members:
        stop = Mat(F, n, tuple(b))
        got = matgroup.orbit_under(rep, gens, cap=300, stop=stop)
        if stop == rep:
            assert (got.complete, got.packed) == (whole.complete, whole.packed)
            continue
        ref_seen, _ = reference_bfs(F, n, [rep.flat], pairs, cap=got.size - 1)
        assert got.contains(stop) and not got.complete
        assert got.packed == ref_seen
    outside = Mat.identity(F, n)
    got = matgroup.orbit_under(rep, gens, cap=300, stop=outside)
    assert (got.complete, got.packed) == (whole.complete, whole.packed)


def test_nilpotent_ladder_rungs_are_the_reduced_powers():
    """Rung k of the ladder of u is N^k, N = u - 1, with that power's row
    reduction, and the ladder ends at the first zero power.  An element of
    Sp4(3) is unipotent iff its order divides 9 (its blocks have size at
    most 4); every other element has no ladder."""
    from unirack.chevalley import symplectic_model
    spec = group_spec("Sp", 4, 3)
    F, n = spec.field, 4
    identity = Mat.identity(F, n)
    lengths = set()
    for _, u in symplectic_model(2, 3).u_elements():
        ladder = nilpotent_ladder(u)
        N = Mat(F, n, [F.sub(x, 1) if i % (n + 1) == 0 else x
                       for i, x in enumerate(u.flat)])
        for k, rung in enumerate(ladder, 1):
            rows = rows_flat(n, (N ** k).flat)
            assert rung.power == (N ** k).flat
            assert (rung.rows, rung.pivots) == (rows, row_reduce(F, rows, n)[0])
            assert any(rung.power) == (k < len(ladder))
        lengths.add(len(ladder))
    assert lengths == {1, 2, 4}
    rng = random.Random(5)
    others = 0
    for _ in range(30):
        x = random_element(spec, rng)
        assert (nilpotent_ladder(x) is None) == (x ** 9 != identity)
        others += x ** 9 != identity
    assert others > 0


def test_jordan_partition_basics():
    F = make_field(3, 1)
    assert jordan_partition(nilpotent_ladder(Mat.identity(F, 4))) == (1, 1, 1, 1)
    full = mat_from_ints(F, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert jordan_partition(nilpotent_ladder(full)) == (4,)
    spec = group_spec("Sp", 4, 3)
    assert jordan_partition(nilpotent_ladder(transvection(spec))) == (2, 1, 1)
    with pytest.raises(GroupError):
        jordan_partition(nilpotent_ladder(mat_from_ints(F, [[2, 0], [0, 1]])))
    assert format_partition((2, 1, 1)) == "(1^2,2)"


def test_jordan_partition_conjugation_invariant():
    spec = group_spec("Sp", 4, 3)
    u = transvection(spec)
    rng = random.Random(11)
    for _ in range(20):
        g = random_element(spec, rng)
        assert jordan_partition(nilpotent_ladder(g * u * g.inverse())) == (2, 1, 1)


def test_block_jordan_oracle():
    "Assemble block-diagonal unipotents per partition; recover the partition."
    F = make_field(5, 1)
    rng = random.Random(3)
    for parts in [(3, 2, 1), (2, 2), (4,), (3, 3), (2, 1, 1)]:
        n = sum(parts)
        flat = [0] * (n * n)
        pos = 0
        for s in parts:
            for k in range(s):
                flat[(pos + k) * n + pos + k] = 1
                if k + 1 < s:
                    flat[(pos + k) * n + pos + k + 1] = 1
            pos += s
        X = Mat(F, n, flat)
        assert (jordan_partition(nilpotent_ladder(X))
                == tuple(sorted(parts, reverse=True)))
        g = None
        while g is None:
            cand = Mat(F, n, tuple(rng.randrange(5) for _ in range(n * n)))
            try:
                cand.inverse()
                g = cand
            except GroupError:
                pass
        assert (jordan_partition(nilpotent_ladder(g * X * g.inverse()))
                == tuple(sorted(parts, reverse=True)))


def test_orbit_central_and_transvections():
    spec = group_spec("Sp", 4, 3)
    orb_id = class_orbit(spec.identity(), spec)
    assert orb_id.size == 1
    orb = class_orbit(transvection(spec), spec)
    assert orb.size == 40 == (3**4 - 1) // 2
    spec2 = group_spec("Sp", 4, 2)
    orb2 = class_orbit(transvection(spec2), spec2)
    assert orb2.size == 15 == 2**4 - 1
    # 15 is also the transposition count of the symmetric group on 6 points
    assert orb2.size == 6 * 5 // 2


def test_orbit_times_stabilizer_is_group_order():
    spec = group_spec("Sp", 4, 2)
    u = transvection(spec)
    orb = class_orbit(u, spec)
    stab = sum(1 for g in enumerate_group(spec).mats()
               if g * u * g.inverse() == u)
    assert orb.size * stab == spec.order


def test_membership_conjugation_stable():
    spec = group_spec("Sp", 4, 3)
    rng = random.Random(23)
    for _ in range(25):
        g = random_element(spec, rng)
        x = random_element(spec, rng)
        assert membership(g * x * g.inverse(), spec)


def test_subgroup_closure_basics():
    spec = group_spec("Sp", 4, 3)
    F = spec.field
    assert subgroup_closure([spec.identity()]).size == 1
    # two commuting transvections generate an elementary abelian p^2 group
    a = transvection(spec)
    flat = list(spec.identity().flat)
    flat[1 * 4 + 2] = 1   # the other long-root subgroup commutes with it
    b = Mat(F, 4, flat)
    assert membership(b, spec)
    assert a * b == b * a
    assert subgroup_closure([a, b]).size == 9


def test_split_classes_partitions_input():
    spec = group_spec("Sp", 4, 2)
    orb = class_orbit(transvection(spec), spec)
    mats = list(orb.mats())
    parts = split_classes(mats, spec)
    assert len(parts) == 1 and parts[0].orbit.size == 15
    assert sorted(b for p in parts for b in p.members) == sorted(m.pack() for m in mats)


def test_unitary_twist_square_is_field_frobenius():
    F4 = make_field(2, 2)
    rng = random.Random(17)
    count = 0
    while count < 100:
        flat = tuple(rng.randrange(4) for _ in range(9))
        X = Mat(F4, 3, flat)
        try:
            X.inverse()
        except GroupError:
            continue
        assert unitary_twist(unitary_twist(X, 2), 2) == X.frobenius(2)
        count += 1


def test_twisted_split_trivial_center_action():
    """The twisted orbits x -> g x tw(g)^-1 of the scalar mu_3 subgroup of
    SL_3(F_4), under the generators g of SU_3(2) and the unitary twist tw,
    are singletons: the twist fixes the center pointwise and each
    generator, so every generator step maps a scalar to itself."""
    F4 = make_field(2, 2)
    spec = group_spec("SU", 3, 2)
    w = F4.generator
    scalars = [Mat(F4, 3, (c, 0, 0, 0, c, 0, 0, 0, c)) for c in (1, w, F4.mul(w, w))]
    for z in scalars:
        assert unitary_twist(z, 2) == z
        for g in spec.generators:
            assert g * z * unitary_twist(g, 2).inverse() == z


def test_symplectic_form_shapes():
    F3 = make_field(3, 1)
    B = symplectic_form(F3, 4)
    assert B.rows() == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [2, 0, 0, 0]]
    F2 = make_field(2, 1)
    assert symplectic_form(F2, 4) == j_mat(F2, 4)


def test_is_unipotent_matches_p_power_order():
    "Unipotent == p-element, checked by repeated squaring on even q."
    spec = group_spec("Sp", 4, 2)
    rng = random.Random(31)
    for _ in range(40):
        x = random_element(spec, rng)
        byorder = False
        acc = x
        for _ in range(6):
            acc = acc * acc
        byorder = acc.is_identity()
        assert (nilpotent_ladder(x) is not None) == byorder


def test_opposite_transvections_generate_inside_rank_one_copy():
    "id + e_{1,2n} and its opposite generate within the corner SL_2 block."
    spec = group_spec("Sp", 4, 3)
    F = spec.field
    u = transvection(spec)
    v_flat = list(Mat.identity(F, 4).flat)
    v_flat[3 * 4 + 0] = 2
    v = Mat(F, 4, v_flat)
    assert membership(v, spec)
    closure = subgroup_closure([u, v])
    for m in closure.mats():
        # corner embedding: rows 2 and 3 of the middle block stay identity
        rows = m.rows()
        assert rows[1][1] == 1 and rows[2][2] == 1
        assert rows[1][2] == 0 and rows[2][1] == 0
        assert rows[0][1] == 0 and rows[0][2] == 0
    assert closure.size <= 24 * 2    # inside the rank-one subgroup


# ---------------------------------------------------------------------------
# the orbit kernel against plain dense products

BUNDLED = ([("SL", 2, q) for q in (3, 4, 5, 7, 9)]
           + [("Sp", 4, q) for q in (2, 3, 4, 5)]
           + [("Sp", 6, 2), ("SU", 3, 2), ("GU", 3, 3)])


def reference_bfs(F, n, starts, pairs, cap=None, targets=None):
    """Breadth-first closure under x -> L x R by two dense products per
    step; returns (seen, complete), seen None on a target hit."""
    seen = {bytes(x) for x in starts}
    if targets and seen & targets:
        return None, True
    frontier = list(starts)
    while frontier:
        nxt = []
        for x in frontier:
            for L, R in pairs:
                y = mul_flat(F, n, mul_flat(F, n, L, x), R)
                b = bytes(y)
                if b in seen:
                    continue
                if targets and b in targets:
                    return None, False
                seen.add(b)
                nxt.append(y)
                if cap is not None and len(seen) > cap:
                    return seen, False
        frontier = nxt
    return seen, True


# specs past the row-code bound: SL and SU over F_16, and Sp4 over a prime,
# a power of 2 and an odd prime power
PAST_BOUND = [("SL", 3, 16), ("Sp", 4, 7), ("Sp", 4, 8), ("Sp", 4, 9),
              ("SU", 3, 4)]


@pytest.mark.parametrize("fam,n,q", BUNDLED + PAST_BOUND)
def test_kernel_actions_match_dense_products(fam, n, q):
    """Every bundled spec is row-coded, and past the bound the kernel keeps
    flat points and the entry-wise action; either way the decoded action
    is the two dense products."""
    spec = group_spec(fam, n, q)
    F = spec.field
    row_coded = (fam, n, q) in BUNDLED
    assert row_coded == (F.q ** n <= ROW_CODE_LIMIT)
    assert row_coded == (_row_code(F, n) is not None)
    encode, decode, action = _kernel(F, n)
    ident = identity_flat(n)
    rng = random.Random(41)
    xs = [random_element(spec, rng).flat for _ in range(50)]
    r, s = xs[0], xs[1]
    actions = list(spec.gen_pairs())                       # conjugation
    actions += [(g.flat, inv_flat(F, n, g.flat))           # generators
                for g in sorted(spec.generators)]
    actions += [(g, ident) for g, _ in spec.gen_pairs()]   # left products
    actions += [(ident, g) for g, _ in spec.gen_pairs()]   # products
    actions += [(r, inv_flat(F, n, r)), (s, inv_flat(F, n, s))]  # dense pairs
    for x in xs:
        assert decode(encode(x)) == bytes(x)
        assert row_coded or encode(x) == x
    for L, R in actions:
        act = action(L, R)
        for x in xs:
            assert decode(act(encode(x))) == \
                bytes(mul_flat(F, n, mul_flat(F, n, L, x), R))


def test_closure_past_the_row_code_bound():
    """SL_3(16) has field tables, but 16^3 row codes are past the bound: a
    capped class orbit and a complete cyclic closure under the entry-wise
    action."""
    spec = group_spec("SL", 3, 16)
    F, n = spec.field, spec.n
    assert _row_code(F, n) is None
    rep = transvection(spec)
    ref_seen, ref_complete = reference_bfs(
        F, n, [rep.flat], spec.gen_pairs(), cap=200)
    orb = class_orbit(rep, spec, cap=200)
    assert not ref_complete and len(ref_seen) == 201
    assert (orb.complete, orb.packed) == (ref_complete, ref_seen)
    g = Mat(F, n, (F.generator, 0, 0, 0, F.inv(F.generator), 0, 0, 0, 1))
    ident = identity_flat(n)
    gen_flats = sorted({g.flat, ident})
    ref_seen, ref_complete = reference_bfs(
        F, n, gen_flats, [(ident, x) for x in gen_flats])
    closure = subgroup_closure([g])
    assert ref_complete and len(ref_seen) == 15
    assert (closure.complete, closure.packed) == (ref_complete, ref_seen)


@pytest.mark.parametrize("fam,n,q", [("Sp", 4, 3), ("Sp", 6, 2), ("GU", 3, 3),
                                     ("SL", 2, 3)])
def test_class_orbit_matches_reference_bfs(fam, n, q):
    """Class orbits against a dense-product BFS under every generator, the
    scalar ones included: the certified pair generates G modulo scalars,
    which conjugate trivially, so every complete orbit is the same set.  A
    capped orbit stops at the elements a BFS under the pair stops at."""
    spec = group_spec(fam, n, q)
    F = spec.field
    pairs = [(g.flat, inv_flat(F, n, g.flat)) for g in sorted(spec.generators)]
    rng = random.Random(47)
    reps = [transvection(spec)] if fam != "GU" else []
    reps += [spec.identity()] + [random_element(spec, rng) for _ in range(2)]
    for rep in reps:
        ref_seen, ref_complete = reference_bfs(
            F, n, [rep.flat], pairs, cap=2000)
        orb = class_orbit(rep, spec, cap=2000)
        assert orb.complete == ref_complete
        if not ref_complete:
            ref_seen, _ = reference_bfs(
                F, n, [rep.flat], spec.gen_pairs(), cap=2000)
        assert orb.packed == ref_seen
    # a capped orbit stops at exactly the elements of the BFS under the
    # pair; the SL_2(3) transvection class has 4
    cap = 2 if fam == "SL" else 17
    rep = transvection(spec) if fam != "GU" else reps[-1]
    ref_seen, ref_complete = reference_bfs(
        F, n, [rep.flat], spec.gen_pairs(), cap=cap)
    orb = class_orbit(rep, spec, cap=cap)
    assert not ref_complete and not orb.complete and len(orb.packed) == cap + 1
    assert orb.packed == ref_seen


def line_perm(F, n, M):
    """The permutation of the lines of F^n under v -> M v, each line keyed
    by its vector scaled to a first nonzero entry 1."""
    def line(v):
        c = F.inv(next(x for x in v if x))
        return tuple(F.mul(c, x) for x in v)
    lines = sorted({line(v) for v in itertools.product(range(F.q), repeat=n)
                    if any(v)})
    index = {v: i for i, v in enumerate(lines)}
    return tuple(index[line(times_vector(F, n, M, v))] for v in lines)


@pytest.mark.parametrize("fam,n,q", BUNDLED + PAST_BOUND)
def test_gen_pair_is_certified(fam, n, q):
    """Class orbits conjugate by two words of G whose action on the lines of
    F^n has order |G| / |scalars in G|: the scalars are the kernel of that
    action, so the words generate G modulo its centre."""
    spec = group_spec(fam, n, q)
    F, ident = spec.field, identity_flat(n)
    pairs = spec.gen_pairs()
    assert len(pairs) == 2
    words = [Mat(F, n, a) for a, _ in pairs]
    assert all(membership(w, spec) for w in words)
    assert all(mul_flat(F, n, a, b) == ident for a, b in pairs)
    scalars = sum(membership(Mat(F, n, [c * x for x in ident]), spec)
                  for c in range(1, F.q))
    order = perm_group_order([line_perm(F, n, w.flat) for w in words])
    assert order * scalars == spec.order


def test_gen_pairs_memo_keys_on_the_whole_spec():
    """A spec equals and hashes as the tuple of all its fields, so an equal
    spec that is not the memoized object still hits the `_gen_pairs` memo,
    and specs of different groups differ."""
    spec = group_spec("Sp", 4, 3)
    twin = matgroup.GroupSpec(*spec)
    assert twin == spec and twin is not spec and hash(twin) == hash(spec)
    assert spec != group_spec("SL", 4, 3) and spec != group_spec("Sp", 4, 2)
    pairs = spec.gen_pairs()
    misses = matgroup._gen_pairs.cache_info().misses
    assert twin.gen_pairs() is pairs
    assert matgroup._gen_pairs.cache_info().misses == misses


@pytest.mark.parametrize("knob", ["GEN_PAIR_TRIES", "LINE_LIMIT"])
def test_gen_pairs_fall_back_to_every_generator(monkeypatch, knob):
    """With no candidate pair, or too many lines to certify one, class
    orbits conjugate by every non-scalar generator, and equal a BFS under
    every generator, complete and capped alike."""
    monkeypatch.setattr(matgroup, knob, 0)
    matgroup._gen_pairs.cache_clear()
    try:
        spec = group_spec("Sp", 4, 3)
        F, n = spec.field, spec.n
        pairs = [(g.flat, inv_flat(F, n, g.flat)) for g in sorted(spec.generators)]
        minus_one = tuple(2 * x for x in identity_flat(n))
        assert minus_one in [a for a, _ in pairs]
        assert spec.gen_pairs() == tuple(p for p in pairs if p[0] != minus_one)
        rep = transvection(spec)
        for cap in (2000, 17):
            ref_seen, ref_complete = reference_bfs(F, n, [rep.flat], pairs, cap=cap)
            orb = class_orbit(rep, spec, cap=cap)
            assert (orb.complete, orb.packed) == (ref_complete, ref_seen)
            assert ref_complete == (cap > 40)
    finally:
        matgroup._gen_pairs.cache_clear()


@pytest.mark.parametrize("cap", [10**6, 40])
def test_subgroup_closure_matches_reference_bfs(cap):
    spec = group_spec("Sp", 4, 3)
    F, n = spec.field, spec.n
    rng = random.Random(53)
    gens = [random_element(spec, rng), transvection(spec)]
    ident = identity_flat(n)
    gen_flats = sorted({g.flat for g in gens} | {ident})
    ref_seen, ref_complete = reference_bfs(
        F, n, gen_flats, [(ident, g) for g in gen_flats], cap=cap)
    closure = subgroup_closure(gens, cap=cap)
    assert closure.complete == ref_complete == (cap > 1000)
    assert closure.packed == ref_seen


def reference_family_orbits_disjoint(elems):
    F, n = elems[0].field, elems[0].n
    pairs = [(g.flat, inv_flat(F, n, g.flat)) for g in elems]
    done = []
    for i, x in enumerate(elems):
        others = {e.pack() for j, e in enumerate(elems) if j != i}
        seen, _ = reference_bfs(F, n, [x.flat], pairs, targets=others)
        if seen is None:
            return False
        if any(s & seen for s in done):
            return False
        done.append(seen)
    return True


@pytest.mark.parametrize("fam,n,q", [("Sp", 4, 2), ("Sp", 6, 2)])
def test_family_orbits_disjoint_matches_reference_bfs(fam, n, q):
    "The joint test on rack rows against orbits of dense matrix products."
    spec = group_spec(fam, n, q)
    mats, row = _class_rows(class_orbit(transvection(spec), spec))
    rng = random.Random(61)
    outcomes = set()
    for size in (3, 4):
        for _ in range(40):
            family = rng.sample(range(len(mats)), size)
            got = _joint([row(a) for a in family], family)
            elems = [mats[a] for a in family]
            assert got == reference_family_orbits_disjoint(elems)
            outcomes.add(got)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the one row reduction against brute force


def leibniz_det(F, n, A):
    "The determinant as the signed sum over permutations."
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, A[i * n + j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        det = F.add(det, F.neg(term) if inversions % 2 else term)
    return det


def times_vector(F, n, A, v):
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = F.add(acc, F.mul(A[i * n + j], v[j]))
        out.append(acc)
    return tuple(out)


def span(F, n, basis):
    out = set()
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        v = (0,) * n
        for c, b in zip(coeffs, basis):
            v = tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, b))
        out.add(v)
    return out


def reduction_cases(F, n, seed):
    "Seeded random matrices, and singular ones made by repeating a row."
    rng = random.Random(seed)
    for _ in range(6):
        yield tuple(rng.randrange(F.q) for _ in range(n * n))
    for _ in range(3):
        A = [rng.randrange(F.q) for _ in range(n * n)]
        i, j = rng.sample(range(n), 2)
        A[j * n:(j + 1) * n] = A[i * n:(i + 1) * n]
        yield tuple(A)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_row_reduction_matches_brute_force(q, n):
    """det_flat, inv_flat, and the rank and kernel basis of one row
    reduction, against the Leibniz determinant and the kernel
    found by trying every vector of F^n (where q^n <= 4096)."""
    F = make_field(*prime_power(q))
    ident = identity_flat(n)
    enumerable = q ** n <= 4096
    for A in reduction_cases(F, n, 100 * q + n):
        det = det_flat(F, n, A)
        assert det == leibniz_det(F, n, A)
        if det:
            assert mul_flat(F, n, inv_flat(F, n, A), A) == ident
        else:
            with pytest.raises(GroupError):
                inv_flat(F, n, A)
        rows = rows_flat(n, A)
        pivots = row_reduce(F, rows, n)[0]
        rank, flat = len(pivots), kernel_rows(F, rows, pivots)
        basis = [flat[i * n:(i + 1) * n] for i in range(n - rank)]
        assert not any(flat[(n - rank) * n:])
        assert len(basis) == n - rank and (det != 0) == (rank == n)
        if enumerable:
            kernel = {v for v in itertools.product(range(q), repeat=n)
                      if not any(times_vector(F, n, A, v))}
            assert len(kernel) == q ** (n - rank)
            assert span(F, n, basis) == kernel
