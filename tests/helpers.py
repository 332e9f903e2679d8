"""Helpers shared by the test modules."""

from unirack.matgroup import Mat


def mat_from_ints(field, rows) -> Mat:
    "Rows of small integers; negatives are reduced into the prime field."
    n = len(rows)
    flat = []
    for row in rows:
        for x in row:
            flat.append(x if 0 <= x < field.q else x % field.p)
    return Mat(field, n, flat)


def sl_transvections(n: int, q: int):
    "The transvection class of SL_n(q), as a conjugation orbit."
    from unirack.catalog import transvection_rep
    from unirack.matgroup import class_orbit, group_spec
    return class_orbit(transvection_rep(n, q), group_spec("SL", n, q))
