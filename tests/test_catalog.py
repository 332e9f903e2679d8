import functools
import math
import random

import pytest

from unirack import catalog
from unirack.catalog import (
    CatalogError, Expectation, _labelled_u, centralizer_order,
    decomposition_type, enumerate_labels, even_label, expected,
    group_catalog, gu3_witness, label_catalog, label_classes, label_of,
    odd_label, parse_label, regular_pairs, representative, row_matched,
    sl_expected, transvection_rep, transvection_split_rack_iso,
)
from unirack.detect import recheck
from unirack.matgroup import (
    GroupError, class_orbit, group_spec, is_unipotent, jordan_partition,
    membership, random_element, split_classes,
)


def test_enumerate_labels_rank2():
    odd = [str(l) for l in enumerate_labels(4, 3)]
    assert odd == ["(1^2,2)", "(2^2)", "(4)"]
    even = {str(l) for l in enumerate_labels(4, 2)}
    assert even == {"V(2)+W(1)", "V(2)^2", "V(4)", "W(2)"}


def test_enumerate_labels_rank3_even():
    labs = {str(l) for l in enumerate_labels(6, 2)}
    assert "W(2)+W(1)" in labs and "W(3)" in labs and "V(6)" in labs
    assert len(labs) == 8
    # multiplicity constraints: no V(2)^3, no repeated W sizes
    assert "V(2)^3" not in labs


def test_label_validation():
    with pytest.raises(CatalogError):
        odd_label((3, 1))                 # odd part with odd multiplicity
    with pytest.raises(CatalogError):
        even_label(((("V"), 2, 3),))      # V multiplicity above 2
    lab = parse_label("W(1)^2+V(2)", 2)
    assert str(lab) == "V(2)+W(1)^2"
    assert parse_label("2,2", 3).partition == (2, 2)


def test_representative_membership_and_type():
    for n2, q in ((4, 2), (4, 3), (4, 4), (6, 2), (6, 3)):
        spec = group_spec("Sp", n2, q)
        for lab in enumerate_labels(n2, q):
            rep = representative(lab, n2, q)
            assert membership(rep, spec)
            assert jordan_partition(rep) == lab.underlying_partition()
            if q % 2 == 0:
                assert decomposition_type(rep, spec) == lab


def test_transvection_rep_is_corner_matrix():
    u = transvection_rep(6, 2)
    assert u.flat[5] == 1 and jordan_partition(u) == (2, 1, 1, 1, 1)
    spec = group_spec("Sp", 6, 2)
    assert membership(u, spec)
    assert label_of(u, spec) == parse_label("W(1)^2+V(2)", 2)


def test_decomposition_distinguishes_w_from_v_pairs():
    "V(2)^2 and W(2) share the Jordan type; the form defect separates them."
    spec = group_spec("Sp", 4, 2)
    v22 = representative(parse_label("V(2)^2", 2), 4, 2)
    w2 = representative(parse_label("W(2)", 2), 4, 2)
    assert jordan_partition(v22) == jordan_partition(w2) == (2, 2)
    assert str(decomposition_type(v22, spec)) == "V(2)^2"
    assert str(decomposition_type(w2, spec)) == "W(2)"


def test_decomposition_type_refuses_a_non_unipotent_element():
    spec = group_spec("Sp", 4, 4)
    torus = next(g for g in spec.generators if not is_unipotent(g))
    with pytest.raises(GroupError, match="not unipotent"):
        decomposition_type(torus, spec)


def test_round_trip_all_even_labels():
    for n2 in (4, 6, 8):
        for q in (2, 4):
            spec = group_spec("Sp", n2, q)
            for lab in enumerate_labels(n2, q):
                assert decomposition_type(representative(lab, n2, q), spec) == lab


def test_split_counts_sp42():
    cat = group_catalog(4, 2)
    counts = {str(l): len(cat.by_label(l)) for l in cat.labels()}
    assert counts == {"V(2)+W(1)": 1, "V(2)^2": 1, "V(4)": 2, "W(2)": 1}
    sizes = sorted(e.size for e in cat.entries)
    assert sizes == [15, 15, 45, 90, 90]
    # the 45-class size equals the double-transposition count on 6 points
    assert 45 == math.comb(6, 2) * math.comb(4, 2) // 2
    # and 15 the transposition count
    assert 15 == math.comb(6, 2)
    # the whole unipotent variety is covered
    assert sum(e.size for e in cat.entries) + 1 == 2 ** 8


@pytest.mark.parametrize("q", [2, 3, 4])
def test_label_classes_match_the_catalog(q):
    """A label split on its own gives the catalog's classes of that label:
    the same split indices, orbits and U-members."""
    def classes(entries):
        return [(e.label, e.split_index, e.orbit.packed, e.u_members)
                for e in entries]

    cat = group_catalog(4, q)
    assert cat.labels() == sorted(enumerate_labels(4, q))
    for label in cat.labels():
        want = classes(cat.by_label(label))
        assert classes(label_classes.__wrapped__(4, q, label)) == want
        one = label_catalog(4, q, label)
        assert (one.spec, one.model, one.u_group) == \
            (cat.spec, cat.model, cat.u_group)
        assert classes(one.entries) == want


@pytest.mark.parametrize("q", [3, 5])
def test_key_split_equals_the_orbit_split(q):
    """Oracle: the brute-force split of every label into conjugation orbits
    is the key catalog's split, as a partition of U^F with the same labels
    and sizes, and the classes are numbered square first."""
    spec, _, _, by_label = _labelled_u(4, q)
    for label, elements in by_label.items():
        want = sorted((sc.members, sc.orbit.size)
                      for sc in split_classes(elements, spec))
        got = label_classes(4, q, label)
        assert sorted((tuple(u.pack() for u in e.u_members), e.size)
                      for e in got) == want
        assert [e.label for e in got] == [label] * len(got)
        assert [e.split_index for e in got] == list(range(len(got)))
        assert [e.key for e in got] == sorted(e.key for e in got)
        assert [e.key[1] for e in got] == [(0,), (1,)]


@pytest.mark.parametrize("q", [3, 5])
def test_odd_q_catalog_builds_no_orbit(q, monkeypatch):
    "group_catalog builds no class orbit for odd q: sizes are computed."
    calls = []
    monkeypatch.setattr(catalog, "class_orbit",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(catalog, "label_classes", functools.lru_cache(
        maxsize=None)(label_classes.__wrapped__))   # build, not recall
    cat = group_catalog.__wrapped__(4, q)
    assert calls == [] and len(cat.entries) == 6


def test_a_built_orbit_must_have_the_computed_size():
    """An orbit whose size is not the centralizer order's is an error, not
    a class: here a size off by one, as a capped orbit or a wrong formula
    would give it."""
    from unirack.catalog import ClassEntry
    spec = group_spec("Sp", 4, 3)
    e = label_classes(4, 3, parse_label("1,1,2", 3))[0]
    bad = ClassEntry(e.label, 0, None, e.u_members, e.size + 1, e.key, spec)
    with pytest.raises(CatalogError, match="has 40 elements, not 41"):
        bad.orbit
    assert e.orbit.size == e.size == 40


def test_class_membership_by_key_matches_the_orbit():
    """`ClassEntry.contains` by key agrees with the orbit on seeded random
    elements of the group and on conjugates of every fourth U^F member."""
    cat = group_catalog(4, 3)
    rng = random.Random(3)
    probes = [random_element(cat.spec, rng) for _ in range(40)]
    probes += [g * u * g.inverse() for u in cat.u_group[1::4]
               for g in probes[:3]]
    seen = set()
    for e in cat.entries:
        for x in probes:
            got = e.contains(x)
            assert got == e.orbit.contains(x)
            seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("n2, q", [(4, 3), (4, 5), (6, 3), (6, 5), (8, 3)])
def test_centralizer_orders_sum_to_the_unipotent_count(n2, q):
    """Summed over every partition and every choice of square classes, the
    class sizes |G| / |C(u)| count the unipotent elements, q^(2N) with N
    the number of positive roots, without labelling anything."""
    import itertools
    order = group_spec("Sp", n2, q).order
    total = 1
    for label in enumerate_labels(n2, q):
        evens = {p for p in label.partition if p % 2 == 0}
        for sq in itertools.product((0, 1), repeat=len(evens)):
            c = centralizer_order(label.partition, sq, q)
            assert order % c == 0
            total += order // c
    assert total == q ** (2 * (n2 // 2) ** 2)


def test_split_counts_sp43():
    cat = group_catalog(4, 3)
    counts = {(str(l), len(cat.by_label(l))) for l in cat.labels()}
    assert counts == {("(1^2,2)", 2), ("(2^2)", 2), ("(4)", 2)}
    assert sorted(e.size for e in cat.entries) == [40, 40, 240, 480, 2880, 2880]
    assert sum(e.size for e in cat.entries) + 1 == 3 ** 8


def test_expected_rules_odd():
    assert expected(odd_label((2, 1, 1)), 4, 3).verdicts == ("cthulhu",) * 2
    assert expected(odd_label((2, 1, 1)), 4, 9).verdicts == ("cthulhu",) * 2
    assert expected(odd_label((2, 1, 1)), 4, 25).verdicts == ("D", "D")
    assert expected(odd_label((2, 2)), 4, 3).verdicts == ("D", "cthulhu")
    assert expected(odd_label((2, 2)), 4, 5).verdicts == ("D", "D")
    assert expected(odd_label((4,)), 4, 3).verdicts == ("D", "D")
    assert expected(odd_label((3, 3)), 6, 3).rule == "threes-D"
    assert expected(odd_label((3, 3, 2, 2, 1, 1, 1, 1)), 12, 3).rule == "mixed-123-D"


def test_expected_rules_even():
    assert expected(parse_label("W(1)+V(2)", 2), 4, 2).verdicts == ("cthulhu",)
    assert expected(parse_label("W(2)", 2), 4, 4).verdicts == ("cthulhu",)
    assert expected(parse_label("W(1)+W(2)", 2), 6, 2).verdicts == ("cthulhu",)
    assert expected(parse_label("V(2)^2", 2), 4, 2).verdicts == ("cthulhu",)
    assert expected(parse_label("V(2)^2", 4), 4, 4).verdicts == ("D",)
    assert expected(parse_label("V(4)", 4), 4, 4).verdicts == ("F", "F")
    assert expected(parse_label("V(4)", 2), 4, 2).verdicts == ("D", "D")
    assert expected(parse_label("W(1)+V(2)^2", 2), 6, 2).verdicts == ("D",)
    assert expected(parse_label("W(2)+V(2)", 2), 6, 2).verdicts == ("D",)
    assert expected(parse_label("W(3)", 2), 6, 2).verdicts == ("D", "D")
    assert expected(parse_label("W(1)+W(2)", 4), 6, 4).verdicts == ("F",)


def test_sl_table_rows():
    assert sl_expected((2,), 2, 25) == "D"
    assert sl_expected((2,), 2, 9) is None
    assert sl_expected((3,), 3, 3) == "D"
    assert sl_expected((4,), 4, 2) == "D"
    assert sl_expected((5,), 5, 2) == "F"
    assert sl_expected((3, 2), 5, 2) == "F"
    assert sl_expected((2, 1, 1, 1), 5, 2) == "F"
    assert sl_expected((3,), 3, 8) == "F"
    assert sl_expected((3,), 3, 4) == "D"


def test_row_matched():
    pair = Expectation(("D", "cthulhu"), 2, "pair-split-q3")
    assert row_matched(pair, ("cthulhu", "D"))
    assert not row_matched(pair, ("D", "D"))
    assert not row_matched(pair, ("D",))                  # class count
    assert not row_matched(pair, ("unknown", "D"))
    open_count = Expectation(("DF",), None, "odd-w-DF")
    assert row_matched(open_count, ("D", "F", "D"))
    assert not row_matched(open_count, ("D", "cthulhu"))
    uncovered = Expectation(("uncovered",), None, "none", uncovered=True)
    assert row_matched(uncovered, ("cthulhu",))
    assert not row_matched(uncovered, ("unknown",))       # never matches


def test_transvection_sizes_match_size_formula():
    for n2, q, want in ((4, 3, 40), (4, 5, 312), (6, 3, 364),
                        (4, 2, 15), (4, 4, 255), (6, 2, 63)):
        spec = group_spec("Sp", n2, q)
        orb = class_orbit(transvection_rep(n2, q), spec)
        assert orb.size == want
        if q % 2:
            assert want == (q ** n2 - 1) // 2
        else:
            assert want == q ** n2 - 1


def test_transvection_split_rack_isomorphism():
    assert transvection_split_rack_iso(4, 3)
    assert transvection_split_rack_iso(4, 5)


def test_gu3_witness_complete():
    rep = gu3_witness()
    assert rep.su_class_count == 3
    assert rep.checks["g_twist_is_eta_scalar"]
    assert rep.checks["s_outside_su_class_of_r"]
    assert rep.checks["pair_group_inside_su"]
    # the element has ones on the superdiagonal and the cube root in the corner
    F4 = rep.r.field
    assert rep.r.flat[1] == 1 and rep.r.flat[5] == 1
    assert rep.r.flat[2] == F4.generator
    assert recheck(rep.witness.to_json(), ())


def test_regular_pairs_all_families():
    for fam, n, q in [("SL", 3, 2), ("SL", 2, 3), ("Sp", 4, 2),
                      ("Sp", 4, 3), ("SU", 3, 2)]:
        pr = regular_pairs(group_spec(fam, n, q), "noncommuting")
        assert pr.verify() and pr.same_class
    for fam, n, q in [("SL", 3, 2), ("SL", 2, 5), ("Sp", 4, 2), ("SU", 3, 2)]:
        pr = regular_pairs(group_spec(fam, n, q), "commuting")
        assert pr.verify() and pr.same_class
    # the q = 3 rank-1 commuting pair only exists at the rack-isomorphic level
    pr = regular_pairs(group_spec("SL", 2, 3), "commuting")
    assert pr.verify() and not pr.same_class and pr.class_level == "type"
    with pytest.raises(CatalogError):
        regular_pairs(group_spec("SL", 2, 2), "commuting")


def test_su3_noncommuting_lower_corner_condition():
    pr = regular_pairs(group_spec("SU", 3, 2), "noncommuting")
    prod = pr.x2 * pr.x1 * pr.x2
    assert prod.flat[3] != 0          # the (2,1) entry


def test_label_of_rejects_non_unipotent():
    spec = group_spec("Sp", 4, 3)
    from unirack.matgroup import GroupError, Mat
    t = Mat(spec.field, 4, (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2))
    with pytest.raises(GroupError):
        label_of(t, spec)


def defect_by_enumeration(u, form, two_k):
    """Some v in ker(N^{2k}) with (N^{2k-1} v, v) != 0, N = u - 1, found by
    trying every v in the kernel."""
    import itertools
    from unirack.catalog import _nullspace
    from unirack.matgroup import _x_minus_one
    F, n = u.field, u.n
    N = _x_minus_one(u)
    Nk1 = N ** (two_k - 1)
    kernel = _nullspace(F, n, (Nk1 * N).flat)
    for coeffs in itertools.product(range(F.q), repeat=len(kernel)):
        v = [0] * n
        for c, b in zip(coeffs, kernel):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, b)]
        pairing = 0
        for i in range(n):
            w_i = 0
            for j in range(n):
                w_i = F.add(w_i, F.mul(Nk1.flat[i * n + j], v[j]))
            for j in range(n):
                pairing = F.add(pairing,
                                F.mul(w_i, F.mul(form.flat[i * n + j], v[j])))
        if pairing:
            return True
    return False


@pytest.mark.parametrize("rank, q, random_forms", [
    (2, 2, False), (2, 4, False), (3, 2, False), (2, 2, True), (2, 3, True),
])
def test_form_defect_gram_test_matches_enumeration(rank, q, random_forms):
    """The Gram test of `_has_form_defect` agrees with trying every kernel
    vector, on every element of U^F and every even layer 2k <= 2n.  On the
    symplectic form G is symmetric; seeded random forms in its place also
    give G with G_ab != G_ba, where only the off-diagonal test can fire."""
    from unirack.catalog import _has_form_defect
    from unirack.chevalley import symplectic_model
    from unirack.matgroup import Mat
    spec = group_spec("Sp", 2 * rank, q)
    rng = random.Random(0)
    found = set()
    for _, u in symplectic_model(rank, q).u_elements():
        form = spec.form
        if random_forms:
            form = Mat(spec.field, 2 * rank,
                       [rng.randrange(q) for _ in range(4 * rank * rank)])
        for two_k in range(2, 2 * rank + 1, 2):
            got = _has_form_defect(u, form, two_k)
            assert got == defect_by_enumeration(u, form, two_k), (u, two_k)
            found.add(got)
    assert found == {False, True}
