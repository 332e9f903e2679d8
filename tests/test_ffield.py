import random

import pytest

from unirack.ffield import (
    Embedding, FieldError, embedding, is_prime, make_field, prime_power,
)
from unirack.matgroup import Mat, group_spec


def brute_irreducibles_deg2_f2():
    # oracle: enumerate monic degree-2 polynomials over F_2, test for roots
    irr = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
                irr.append((c0, c1, 1))
    return irr


def test_prime_field_f2():
    F = make_field(2, 1)
    assert F.q == 2 and F.generator == 1
    assert F.add(1, 1) == 0 and F.mul(1, 1) == 1


def test_f4_modulus_and_generator():
    # the only irreducible monic quadratic over F_2 is x^2 + x + 1
    assert brute_irreducibles_deg2_f2() == [(1, 1, 1)]
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)
    w = F.generator
    assert F.coeffs(w) == (0, 1)
    # w^2 = w + 1 under that modulus
    assert F.mul(w, w) == F.add(w, 1)


def test_f9_generator_order():
    F = make_field(3, 2)
    g = F.generator
    acc, order = g, 1
    while acc != 1:
        acc = F.mul(acc, g)
        order += 1
    assert order == 8


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3), (7, 1)])
def test_field_axioms_random(p, m):
    F = make_field(p, m)
    rng = random.Random(1234)
    for _ in range(300):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.q - 1) == 1
            assert F.pow(a, -1) == F.inv(a)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_frobenius_is_automorphism(p, m):
    F = make_field(p, m)
    rng = random.Random(77)
    for _ in range(200):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    # fixes exactly the prime subfield
    fixed = [a for a in range(F.q) if F.frobenius(a) == a]
    assert len(fixed) == p
    # frobenius composed m times is the identity
    for a in range(F.q):
        assert F.frobenius(F.frobenius(a, 1), m - 1) == a
        assert F.frobenius(a, 0) == a


def test_f4_frobenius_example():
    F = make_field(2, 2)
    w = F.generator
    assert F.frobenius(w, 1) == F.add(w, 1)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2), (2, 3)])
def test_square_counts(p, m):
    F = make_field(p, m)
    squares = {a for a in range(F.q) if F.is_square(a)}
    brute = {F.mul(a, a) for a in range(F.q)}
    assert squares == brute
    if p == 2:
        assert len(squares) == F.q
    else:
        assert len(squares) == (F.q - 1) // 2 + 1


def test_f5_two_is_not_a_square():
    F = make_field(5, 1)
    assert {F.mul(a, a) for a in range(F.q)} == {0, 1, 4}
    assert not F.is_square(2)


@pytest.mark.parametrize("p,a,b", [(2, 2, 6), (2, 2, 4), (3, 1, 2), (2, 1, 3)])
def test_embedding_commutes_with_arithmetic(p, a, b):
    emb = embedding(p, a, b)
    F, G = emb.src, emb.dst
    rng = random.Random(9)
    for _ in range(200):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        assert emb.apply(F.add(x, y)) == G.add(emb.apply(x), emb.apply(y))
        assert emb.apply(F.mul(x, y)) == G.mul(emb.apply(x), emb.apply(y))
        assert emb.descend(emb.apply(x)) == x
    assert emb.apply(0) == 0 and emb.apply(1) == 1


def test_cross_field_matrix_product_is_an_error():
    "Matrices over F_4 and F_64 multiply only once moved by an embedding."
    emb = embedding(2, 2, 6)
    F4, F64 = emb.src, emb.dst
    w = F4.generator
    a = Mat(F4, 2, (1, w, 0, 1))
    b = Mat(F64, 2, (1, 0, F64.generator, 1))
    with pytest.raises(FieldError):
        a * b
    with pytest.raises(FieldError):
        b * a
    prod = a.map_to(emb) * b
    assert prod.field is F64
    assert prod == Mat(F64, 2, (F64.add(1, F64.mul(emb.apply(w), F64.generator)),
                                emb.apply(w), F64.generator, 1))


def test_make_field_validation():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(2, 9)          # 512 elements do not fit in a byte
    with pytest.raises(FieldError):
        make_field(2, 21)
    with pytest.raises(FieldError):
        make_field(2, 0)
    assert is_prime(2) and not is_prime(1)


def test_make_field_is_one_singleton_per_field():
    "Default, positional and keyword spellings of (p, m) share one Field."
    assert make_field(3) is make_field(3, 1) is make_field(p=3, m=1)
    # so a matrix descended from F_9 equals the same matrix of SL_2(3)
    emb = Embedding(make_field(3), make_field(3, 2))
    spec = group_spec("SL", 2, 3)
    u = Mat(spec.field, 2, (1, 2, 0, 1))
    assert u.map_to(emb).descend_to(emb) == u


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(16) == (2, 4)
    assert prime_power(17) == (17, 1)
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(FieldError):
            prime_power(q)
    with pytest.raises(KeyError):
        prime_power(6, KeyError)


def test_format_and_header():
    F = make_field(2, 2)
    assert F.format_element(0) == "0" and F.format_element(1) == "1"
    assert F.format_element(F.generator) == "g^1"
    assert F.coeffs(3) == (1, 1)
    assert F.header() == {"p": 2, "m": 2, "modulus": [1, 1, 1]}
    assert make_field(5, 1).format_element(3) == "3"
