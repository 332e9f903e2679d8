"""Explicit witness matrices transcribed literally, as golden tests.

These pin the matrix conventions end to end: the root elements, the fixed
invariant forms, and the conjugation arithmetic must reproduce each printed
matrix entry for entry."""

from unirack.catalog import group_catalog, parse_label, representative, transvection_rep
from unirack.chevalley import symplectic_model
from unirack.detect import d_pair, recheck
from unirack.matgroup import Mat, group_spec, membership

from helpers import mat_from_ints


def test_block_mix_class_explicit_pair_rank3_q2():
    "The 6x6 pair for the W(2)+V(2) class: conjugates of x_a2(1) x_2a1+2a2+a3(1)."
    model = symplectic_model(3, 2)
    spec = group_spec("Sp", 6, 2)
    F = model.field
    v = model.x((0, 1, -1), 1) * model.x((2, 0, 0), 1)
    assert v == mat_from_ints(F, [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1]])
    sigma = mat_from_ints(F, [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0]])
    z = mat_from_ints(F, [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1]])
    y = mat_from_ints(F, [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1]])
    for m in (sigma, z, y):
        assert membership(m, spec)
    r = (z * sigma) * v * (z * sigma).inverse()
    s = y * v * y.inverse()
    assert r == mat_from_ints(F, [
        [1, 1, 0, 1, 1, 0],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1]])
    assert s == mat_from_ints(F, [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1]])
    assert (r * s) ** 2 != (s * r) ** 2
    res = d_pair(r, s)
    assert res.kind == "witness" and recheck(res.witness.to_json(), ())
    cat = group_catalog(6, 2)
    e = cat.by_label(parse_label("W(2)+V(2)", 2))[0]
    assert e.size == 3780
    for m in (v, r, s):
        assert e.orbit.contains(m)


def test_odd_w_class_explicit_pair_rank3_q2():
    "The permutation-conjugate pair for the bigger split of the W(3) label."
    model = symplectic_model(3, 2)
    spec = group_spec("Sp", 6, 2)
    F = model.field
    v = model.x((1, -1, 0), 1) * model.x((0, 1, -1), 1)
    s2 = mat_from_ints(F, [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1]])
    s3 = mat_from_ints(F, [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1]])
    assert membership(s2, spec) and membership(s3, spec)
    r = s2 * v * s2.inverse()
    s = s3 * v * s3.inverse()
    assert r == model.x((1, 0, -1), 1) * model.x((0, -1, 1), 1)
    assert s == model.x((1, -1, 0), 1) * model.x((0, 1, 1), 1)
    res = d_pair(r, s)
    assert res.kind == "witness" and recheck(res.witness.to_json(), ())
    cat = group_catalog(6, 2)
    e = next(e for e in cat.by_label(parse_label("W(3)", 2))
             if e.orbit.contains(v))
    assert e.size == 11340
    assert e.orbit.contains(r) and e.orbit.contains(s)


def test_corner_block_representatives_odd_q():
    "Doubles-only partitions: identity plus a reversed block in the corner."
    F3 = group_spec("Sp", 4, 3).field
    z = representative(parse_label("2,2", 3), 4, 3)
    assert z == mat_from_ints(F3, [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1]])
    w = representative(parse_label("2,2", 3), 4, 3, scale_first_v=2)
    assert w == mat_from_ints(F3, [
        [1, 0, 0, 2],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1]])
    cat = group_catalog(4, 3)
    zs = [e for e in cat.by_label(parse_label("2,2", 3)) if e.orbit.contains(z)]
    ws = [e for e in cat.by_label(parse_label("2,2", 3)) if e.orbit.contains(w)]
    assert zs and ws and zs[0].split_index != ws[0].split_index


def test_transvection_representative_is_highest_root_element():
    model = symplectic_model(3, 3)
    u = representative(parse_label("1,1,1,1,2", 3), 6, 3)
    assert u == model.x((2, 0, 0), 1) == transvection_rep(6, 3)


def test_normalized_regular_shape_q4():
    "Regular elements at q = 4 normalize to the zero-(1,3)-entry shape."
    cat = group_catalog(4, 4)
    model = cat.model
    F = model.field
    for e in cat.by_label(parse_label("V(4)", 4)):
        u = next(m for m in e.u_members
                 if (1, 1) not in model.factorize(m).support())
        x, y = u.entry(0, 1), u.entry(1, 2)
        assert x and y and u.entry(0, 2) == 0
        assert u.entry(1, 3) == F.mul(x, y)
        assert u.entry(2, 3) == x