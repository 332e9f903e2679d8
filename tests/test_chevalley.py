import random

import pytest

from unirack.chevalley import (
    ChevalleyWord, DegeneratePairError, HypothesisError, FamilyRefusal,
    ab_property, commutator_data, torus_witness, torus_family, root_add,
    root_neg, root_system, su3_model, symplectic_model,
)
from unirack.matgroup import GroupError, group_spec, jordan_partition, membership


def a1(n):
    return root_system(n).simple[0]


def a2(n):
    return root_system(n).simple[1]


def test_root_counts_and_highest_roots():
    rs = root_system(2)
    assert len(rs.positive) == 4
    assert rs.highest_root() == (2, 0) and rs.is_long(rs.highest_root())
    assert rs.highest_short_root() == (1, 1)
    rs3 = root_system(3)
    assert len(rs3.positive) == 9
    with pytest.raises(Exception):
        root_system(1)


def test_alpha_string_pairing_identity():
    for n in (2, 3):
        rs = root_system(n)
        for a in rs.positive:
            for b in rs.positive:
                if a == b:
                    continue
                m, M = rs.alpha_string(b, a)
                assert m - M == 2 * sum(x * y for x, y in zip(a, b)) // sum(x * x for x in a)


def test_sigma_excludes_orthogonal_pairs_in_char_two():
    "Sigma(alpha, p): positive beta with alpha + beta a root, nondegenerate at p."
    rs = root_system(2)

    def sigma(alpha, p):
        return [b for b in rs.positive if rs.is_root(root_add(alpha, b))
                and not rs.is_degenerate_pair(alpha, b, p)]

    alpha = rs.simple[0]             # e1 - e2
    ortho = (1, 1)                   # e1 + e2: orthogonal, sum is a root
    assert root_add(alpha, ortho) in rs.roots
    assert ortho not in sigma(alpha, 2)
    assert ortho in sigma(alpha, 3)


def test_bourbaki_labels():
    rs = root_system(2)
    assert rs.bourbaki_label(rs.simple[0]) == "a1"
    assert rs.bourbaki_label((2, 0)) == "2a1+a2"
    assert rs.bourbaki_label((1, 1)) == "a1+a2"
    assert rs.bourbaki_label(root_neg((1, 1))) == "-(a1+a2)"


@pytest.mark.parametrize("rank,q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_generators_pass_membership(rank, q):
    model = symplectic_model(rank, q)
    spec = group_spec("Sp", 2 * rank, q)
    for g in model.group_generators():
        assert membership(g, spec)
    for r in model.rs.positive:
        assert membership(model.x(r, 1), spec)
        assert membership(model.x(root_neg(r), 1), spec)


def test_x_is_additive_homomorphism():
    model = symplectic_model(2, 5)
    F = model.field
    rng = random.Random(2)
    for r in model.rs.positive:
        for _ in range(10):
            s, t = rng.randrange(5), rng.randrange(5)
            assert model.x(r, s) * model.x(r, t) == model.x(r, F.add(s, t))
    assert model.x(model.rs.simple[0], 0).is_identity()


@pytest.mark.parametrize("rank,q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_commutation_rule_random(rank, q):
    "t x_a(c) t^-1 = x_a(a(t) c) for random torus words, roots, scalars."
    model = symplectic_model(rank, q)
    F = model.field
    rng = random.Random(100 * rank + q)
    roots = model.rs.positive
    for _ in range(100):
        word = tuple((model.rs.simple[rng.randrange(rank)],
                      F.pow(F.generator, rng.randrange(max(F.q - 1, 1))) if F.q > 2 else 1)
                     for _ in range(2))
        t = model.torus(word)
        r = roots[rng.randrange(len(roots))]
        c = rng.randrange(F.q)
        val = t.value_at(r, F)
        assert t.mat * model.x(r, c) * t.mat.inverse() == model.x(r, F.mul(val, c))


def test_coroot_pairing_on_matrices():
    "Conjugation scales x_b(a) by zeta^2 for t = b^vee(zeta), b long."
    model = symplectic_model(2, 3)
    F = model.field
    beta = (2, 0)
    t = model.torus(((beta, F.generator),))
    a = 1
    lhs = t.mat * model.x(beta, a) * t.mat.inverse()
    assert lhs == model.x(beta, F.pow(F.generator, 2))


@pytest.mark.parametrize("rank,q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_factorize_evaluate_round_trip(rank, q):
    model = symplectic_model(rank, q)
    rng = random.Random(rank * 10 + q)
    order = model.rs.ordering(0)
    for _ in range(40):
        coeffs = tuple(rng.randrange(q) for _ in order)
        word = ChevalleyWord(tuple((r, c) for r, c in zip(order, coeffs) if c), 0)
        u = model.evaluate(word)
        back = model.factorize(u, 0)
        assert back.factors == word.factors
        assert model.evaluate(back) == u
    with pytest.raises(GroupError):
        model.factorize(model.weyl_rep(model.rs.simple[0]), 0)


def test_factorize_alternate_orderings():
    model = symplectic_model(2, 3)
    rng = random.Random(8)
    order = model.rs.ordering(0)
    for _ in range(25):
        coeffs = tuple(rng.randrange(3) for _ in order)
        word = ChevalleyWord(tuple((r, c) for r, c in zip(order, coeffs) if c), 0)
        u = model.evaluate(word)
        for oid in (1, 2):
            w = model.factorize(u, oid)
            assert model.evaluate(w) == u
            seq = [r for r, c in w.factors]
            target = model.rs.ordering(oid)
            assert seq == sorted(seq, key=target.index)


def test_identity_factorizes_to_empty_word():
    model = symplectic_model(2, 3)
    assert model.factorize(model.evaluate(ChevalleyWord((), 0))).factors == ()


def test_commutator_orthogonal_pair_table_degeneracy():
    "Short orthogonal pair in rank 2: commutes at q in {2,4}, c11 = +-2 at q=3."
    a, b = (1, -1), (1, 1)
    for q in (2, 4):
        data = commutator_data(symplectic_model(2, q), a, b)
        assert data.commutes and data.degenerate
    data3 = commutator_data(symplectic_model(2, 3), a, b)
    assert not data3.degenerate
    assert data3.c11() in (1, 2)  # +-2 mod 3
    F = symplectic_model(2, 3).field
    assert data3.c11() in (F.neg(2), 2)


def test_commutator_nonroot_sum_is_empty():
    model = symplectic_model(2, 3)
    data = commutator_data(model, (2, 0), (0, 2))   # 2e1 + 2e2 is not a root
    assert data.commutes and not data.degenerate


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_commutator_expansion_exhaustive_rank2(q):
    "The measured product form reproduces all matrix commutators over F_q^2."
    model = symplectic_model(2, q)
    rs = model.rs
    for a in rs.positive:
        for b in rs.positive:
            if a != b:
                commutator_data(model, a, b, exhaustive=True)


@pytest.mark.parametrize("q", [2, 3])
def test_commutator_expansion_exhaustive_rank3(q):
    model = symplectic_model(3, q)
    rs = model.rs
    for a in rs.positive:
        for b in rs.positive:
            if a != b:
                commutator_data(model, a, b, exhaustive=True)


def test_ab_property_regular_and_small_support():
    model = symplectic_model(2, 3)
    rs = model.rs
    reg = model.evaluate(ChevalleyWord(((rs.simple[0], 1), (rs.simple[1], 1)), 0))
    assert ab_property(model, reg, rs.simple[0], rs.simple[1])
    # the highest-root transvection has a one-root support
    u = model.x(rs.highest_root(), 1)
    assert not ab_property(model, u, rs.simple[0], rs.simple[1])


def test_ab_property_violating_decomposition():
    "a1 + (a1+a2) = 2a1+a2 also splits off supp when 2a1+a2 is in supp."
    model = symplectic_model(2, 3)
    rs = model.rs
    a, b = rs.simple[0], (1, 1)
    u_ok = model.evaluate(ChevalleyWord(((a, 1), (b, 1)), 0))
    assert ab_property(model, u_ok, a, b)
    u_bad = model.evaluate(ChevalleyWord(((a, 1), (b, 1), ((2, 0), 1), ((0, 2), 1)), 0))
    # now 2e1 = a + b = (a) + (a) + (0,2)? no; but (2,0) itself in supp means
    # decompositions like (1,-1)+(1,1) stay unique; the violating sum needs
    # a multi-root split: (2,0) = (1,-1)+(1,1) only. Build a genuine violation:
    rs3 = root_system(3)
    m3 = symplectic_model(3, 2)
    aa, bb = rs3.simple[0], rs3.simple[1]          # sum e1-e3
    mid = (0, 1, -1), (1, -1, 0)
    u3 = m3.evaluate(ChevalleyWord(((aa, 1), (bb, 1), ((1, 0, -1), 1)), 0))
    assert ab_property(m3, u3, aa, bb)
    # add a second path e1-e3 = (e1-e3) is a single root; single roots are
    # allowed (r > 1 required), so the property still holds
    cc = (0, 0, 2)
    u4 = m3.evaluate(ChevalleyWord(((aa, 1), (bb, 1), (cc, 1), ((0, 1, 1), 1)), 0))
    # e1-e3 cannot be written from {a1, a2, 2e3, e2+e3} except as a1+a2
    assert ab_property(m3, u4, aa, bb)


def test_ab_property_rank3_two_long_roots():
    "Support {a2, 2a1+2a2+a3}: the two roots do not sum to a root; no pair works."
    m3 = symplectic_model(3, 2)
    rs3 = m3.rs
    v = m3.evaluate(ChevalleyWord(((rs3.simple[1], 1), ((2, 0, 0), 1)), 0))
    assert jordan_partition(v) == (2, 2, 2)
    ok_pairs = []
    for a in rs3.positive:
        for b in rs3.positive:
            if a == b or not rs3.is_root(root_add(a, b)):
                continue
            if rs3.is_degenerate_pair(a, b, 2):
                continue
            if ab_property(m3, v, a, b):
                ok_pairs.append((a, b))
    assert ok_pairs == []


def test_ab_property_errors():
    model = symplectic_model(2, 2)
    rs = model.rs
    u = model.evaluate(ChevalleyWord(((rs.simple[0], 1), ((1, 1), 1)), 0))
    with pytest.raises(DegeneratePairError):
        ab_property(model, u, rs.simple[0], (1, 1))      # orthogonal, p = 2
    with pytest.raises(Exception):
        ab_property(model, u, rs.simple[0], (2, 0))      # sum not a root


def sum_pairs(rank):
    rs = root_system(rank)
    out = []
    for i, a in enumerate(rs.positive):
        for b in rs.positive[i + 1:]:
            if rs.is_root(root_add(a, b)):
                out.append((a, b))
    return out


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("q", [5, 7, 9])
def test_torus_witness_all_pairs(rank, q):
    model = symplectic_model(rank, q)
    for a, b in sum_pairs(rank):
        w = torus_witness(a, b, q, "chevalley", model=model)
        assert w.check()
        assert w.alpha_exp % w.modulus not in (0, w.beta_exp % w.modulus)


def test_torus_witness_adjacent_simples_rank3_q5():
    "alpha = a1, beta = a2 at q = 5: values zeta^-1 and zeta^2."
    model = symplectic_model(3, 5)
    rs = model.rs
    w = torus_witness(rs.simple[0], rs.simple[1], 5, "chevalley", model=model)
    assert not w.swapped
    assert w.alpha_exp % 4 == (-1) % 4 and w.beta_exp == 2


def test_torus_witness_orthogonal_needs_q_above_3():
    with pytest.raises(HypothesisError):
        torus_witness((1, -1), (1, 1), 3, "chevalley")
    w = torus_witness((1, -1), (1, 1), 5, "chevalley", model=symplectic_model(2, 5))
    assert w.swapped   # the r = 0 branch interchanges the roles
    assert w.alpha_exp == 2


def test_torus_witness_even_q_rejected():
    with pytest.raises(HypothesisError):
        torus_witness((1, -1), (0, 2), 4, "chevalley")


def test_torus_witness_twisted_case():
    for q in (3, 5, 7, 9):
        w = torus_witness(None, None, q, "su3")
        assert w.modulus == q * q - 1
        assert w.alpha_exp == (2 * q - 1) % w.modulus


@pytest.mark.parametrize("q", [8, 9, 11, 13])
def test_torus_family_accepts(q):
    model = symplectic_model(2, q) if q <= 9 else None
    fam = torus_family((1, -1), (0, 2), q, "chevalley", model=model)
    assert fam.check()
    assert len(fam.exponent_pairs) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_torus_family_refuses_small_q(q):
    with pytest.raises(FamilyRefusal) as err:
        torus_family((1, -1), (0, 2), q, "chevalley")
    r, a, b, mod = err.value.collision
    assert (r * a - r * b) % mod == 0 and a != b


def test_torus_family_q5_collision_is_two_times_two():
    with pytest.raises(FamilyRefusal) as err:
        torus_family((1, -1), (0, 2), 5, "chevalley")
    r, a, b, mod = err.value.collision
    assert mod == 4 and r == 2 and {a, b} == {0, 2}


@pytest.mark.parametrize("q", [3, 4])
def test_torus_family_twisted_case(q):
    fam = torus_family(None, None, q, "su3")
    assert fam.modulus == q * q - 1
    for a in range(4):
        assert fam.exponent_pairs[a] == ((a * (2 - q)) % fam.modulus,
                                         (a * (2 * q - 1)) % fam.modulus)


@pytest.mark.parametrize("q", [2, 5, 8])
def test_torus_family_twisted_refuses(q):
    with pytest.raises(FamilyRefusal):
        torus_family(None, None, q, "su3")


def test_su3_model_membership_and_sizes():
    for q in (2, 3):
        su3 = su3_model(q)
        spec = group_spec("SU", 3, q)
        us = list(su3.u_elements())
        assert len(us) == q**3
        for u in us[: q**2]:
            assert membership(u, spec)
        assert membership(su3.j(), group_spec("GU", 3, q))
        reg = su3.regular_rep()
        assert jordan_partition(reg) == (3,)


def test_su33_order_by_enumeration():
    from unirack.matgroup import enumerate_group
    spec = group_spec("SU", 3, 3)
    assert enumerate_group(spec).size == spec.order == 6048


def test_ab_property_ordering_invariance():
    "The support condition does not depend on the factorization order."
    model = symplectic_model(2, 3)
    rs = model.rs
    import itertools
    words = [
        ChevalleyWord(((rs.simple[0], 1), (rs.simple[1], 1)), 0),
        ChevalleyWord(((rs.simple[0], 2), ((1, 1), 1)), 0),
        ChevalleyWord(((rs.simple[0], 1), (rs.simple[1], 2), ((1, 1), 1)), 0),
    ]
    for word in words:
        u = model.evaluate(word)
        for a, b in sum_pairs(2):
            if rs.is_degenerate_pair(a, b, 3):
                continue
            vals = {ab_property(model, model.factorize(u, oid), a, b)
                    for oid in (0, 1, 2)}
            assert len(vals) == 1


def test_support_factorize_surface():
    model = symplectic_model(2, 3)
    rs = model.rs
    # canonical (height, lex) sequence puts the long simple root first
    word_in = ChevalleyWord(((rs.simple[1], 2), (rs.simple[0], 1)), 0)
    u = model.evaluate(word_in)
    word = model.factorize(u)
    assert word.factors == word_in.factors
    assert word.support() == {rs.simple[0], rs.simple[1]}
    # out-of-order products pick up commutator corrections in their support
    u2 = model.evaluate(ChevalleyWord(((rs.simple[0], 1), (rs.simple[1], 2)), 0))
    supp2 = model.factorize(u2).support()
    assert {rs.simple[0], rs.simple[1]} < supp2
