"""Finite racks, primarily conjugation racks of matrix classes.

A Rack is its carrier in canonical sorted order and one row getter: row i
is the translation j -> i > j as a sequence of indices.  A conjugation rack
takes its rows from `conj_rows`, one source at every size: a few seed rows
computed from the matrices, the others derived from them on read, each
packed by `_pack` at 1, 2 or 4 bytes a point.  All analyses (closure,
decomposition, soberness, inner group) are pure functions of the rack.  A
subrack and its inner blocks are the orbits of its seeds under the seeds'
rows (`seed_orbits`), so an analysis fetches each row it reads once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .matgroup import PackedMats, _kernel, inv_flat


class RackError(ValueError):
    pass


class Rack:
    """Carrier plus the self-distributive operation x > y.

    `row(i)` is the translation phi_i over the sorted carrier (j -> the
    index of i > j), a sequence of indices: a tuple, or a packed row as
    `_pack` makes it; for conjugation racks x > y is x y x^-1.
    """

    def __init__(self, elements, row):
        self.elements = tuple(sorted(elements))
        self.size = len(self.elements)
        self._row = row

    def translation(self, i: int):
        "The permutation j -> i > j."
        return self._row(i)

    def verify_axioms(self) -> bool:
        """Self-distributivity, bijectivity of the translations, and the
        crossed-set law x > y = y iff y > x = x, checked exhaustively."""
        n = self.size
        rows = [self.translation(i) for i in range(n)]
        full = set(range(n))
        # after[i](p) is p after phi_i, a whole row composed at C speed;
        # for n = 1 it is a scalar on both sides of the comparison
        after = [itemgetter(*row) for row in rows]
        for i in range(n):
            row = rows[i]
            if set(row) != full:
                raise RackError("a translation is not a bijection")
            for j in range(n):
                # phi_{i>j} phi_i = phi_i phi_j
                k = row[j]
                if after[i](rows[k]) != after[j](row):
                    raise RackError("self-distributivity fails")
                if (k == j) != (rows[j][i] == i):
                    raise RackError("crossed-set law fails")
        return True


def conj_rack(orbit_mats, spec=None, orbit=None) -> Rack:
    """The conjugation rack x > y = x y x^-1 on a conjugation-closed set of
    matrices, with the rows of `conj_rows` over the sorted set.  `spec` and
    `orbit` are not read; they are accepted because the benchmark's library
    tasks (perfbench/tasks.py) pass them.

    Every row computed from the matrices raises RackError if it leaves the
    carrier X, so every row the rack hands out maps X into X.  Then the
    axioms hold by the group identity and are not checked here: x (y z y^-1)
    x^-1 = (x y x^-1)(x z x^-1)(x y x^-1)^-1 is self-distributivity;
    conjugation by x is injective, so phi_x is a bijection of the finite X;
    and x y x^-1 = y iff x and y commute iff y x y^-1 = x."""
    mats = sorted(orbit_mats)
    return Rack(mats, conj_rows(mats))


def _pack(perm):
    """The permutation `perm` of n points at the narrowest width that holds
    them: bytes up to 256 points, else an array of 2-byte points, 4-byte
    past 65,536.  A tuple takes 8 bytes a point.  `array` is imported only
    for a wide row, so a process that never meets one does not load it."""
    if len(perm) <= 256:
        return bytes(perm)
    from array import array
    return array("H" if len(perm) <= 1 << 16 else "I", perm)


def _matrix_row(mats, points, index, x):
    "phi_x from the kernel's action of x; every image must be in the carrier."
    m = mats[x]
    _, _, action = _kernel(m.field, m.n)
    act = action(m.flat, inv_flat(m.field, m.n, m.flat))
    try:
        return _pack([index[act(p)] for p in points])
    except KeyError:
        raise RackError("carrier is not closed under the operation") from None


def conj_rows(mats):
    """Row i of the conjugation rack on the matrices `mats`, in their order,
    as a function of i, packed by `_pack`.  `mats` is a list of Mats or a
    `PackedMats`, whose matrices are read from their bytes, so that only
    the seeds become Mats.  Rows other than the seeds' are derived when
    read, each by two C-level gathers (`perm_mul`).

    A row phi_x (j -> index of x y_j x^-1) computed from the matrices checks
    closure under conjugation by x: every image must be in the carrier.
    Conjugation is injective, so phi_x is a permutation, and its inverse
    sends j to the index of x^-1 y_j x.  For a row phi_w already known and
    k = phi_x(w), the group identity
        (x w x^-1) y (x w x^-1)^-1 = x (w (x^-1 y x) w^-1) x^-1
    reads phi_k = phi_x phi_w phi_x^-1, and each factor is an index map
    onto the carrier, so the composite is the row of k, closure included.
    The known rows are closed under the computed rows phi_x acting on
    indices; while a row is missing, the least index without one becomes a
    computed row.  So every entry is a product of checked matrix rows, and
    the table is the one the products give.

    A breadth-first search from the seeds gives each other index k a parent
    (phi_x, phi_x^-1, w), k = phi_x(w): a Schreier vector.  A row read is
    kept, with its ancestors.  A repeated or unclosed carrier raises here."""
    m = mats[0]
    encode, _, _ = _kernel(m.field, m.n)
    flats = mats.packed if isinstance(mats, PackedMats) else (
        m.flat for m in mats)
    points = list(map(encode, flats))
    index = {p: i for i, p in enumerate(points)}
    n = len(mats)
    if len(index) != n:
        raise RackError("carrier has repeated elements")
    rows = [None] * n            # the seed rows, then every row derived
    parent = [None] * n
    gens = []                    # (x, phi_x, phi_x^-1) for the seeds x
    for x in range(n):
        if parent[x] is not None:
            continue
        rows[x] = _matrix_row(mats, points, index, x)
        gens.append((x, rows[x], _pack(perm_inv(rows[x]))))
        parent = [None] * n
        frontier = [seed for seed, _, _ in gens]
        while frontier:
            nxt = []
            for _, phi, phi_inv in gens:
                for w in frontier:
                    k = phi[w]
                    if rows[k] is None and parent[k] is None:
                        parent[k] = (phi, phi_inv, w)
                        nxt.append(k)
            frontier = nxt

    def row(k):
        path = []
        while rows[k] is None:
            path.append(k)
            k = parent[k][2]
        for k in reversed(path):
            phi, phi_inv, w = parent[k]
            rows[k] = _pack(perm_mul(phi, perm_mul(rows[w], phi_inv)))
        return rows[k]
    return row


def orbit(perms, start: int, cap: int, stop=frozenset()):
    """Breadth-first orbit of the index `start` under the permutations
    `perms`.  Returns (orbit, complete): orbit is None as soon as a point of
    `stop` is found, and complete is False once more than `cap` points are
    found, where the search stops."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = p[x]
                if y not in seen:
                    if y in stop:
                        return None, True
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        return seen, False
        frontier = nxt
    return seen, True


def seed_orbits(rack: Rack, seeds) -> list[tuple]:
    """The orbits of the seed indices under the group G their rows generate,
    as sorted index tuples in sorted order.

    Since phi_{x>y} = phi_x phi_y phi_x^-1, every member x of the union X of
    these orbits has its row phi_x in G.  So X is closed under the
    operation, it is the smallest subrack holding the seeds, its inner
    group is G on X, and the orbits are its inner blocks.  For the same
    reason a seed in the orbits of the seeds before it adds nothing to G,
    so the seeds are taken greedily, in order, and only the rows of those
    that add something are fetched, each once."""
    seeds = sorted(set(seeds))
    if not seeds:
        raise RackError("seed must be nonempty")
    perms, covered = [], set()
    for s in seeds:
        if s not in covered:
            perms.append(rack.translation(s))
            last, _ = orbit(perms, s, rack.size)
            covered |= last
    # the last orbit found is one under every row; an earlier one may have
    # grown since, so the seeds outside the last are searched again
    orbits, covered = [last], set(last)
    for s in seeds:
        if s not in covered:
            orb, _ = orbit(perms, s, rack.size)
            covered |= orb
            orbits.append(orb)
    return sorted(tuple(sorted(orb)) for orb in orbits)


class SubrackAnalysis(NamedTuple):
    members: tuple            # sorted indices
    abelian: bool
    indecomposable: bool


def subrack_closure(rack: Rack, seed) -> SubrackAnalysis:
    """Smallest subrack containing the seed indices, with its analysis
    flags: it is indecomposable iff the seeds have one orbit, and abelian
    iff its inner group is trivial, that is iff every orbit is one point."""
    blocks = seed_orbits(rack, seed)
    members = tuple(sorted(x for blk in blocks for x in blk))
    return SubrackAnalysis(members, len(blocks) == len(members),
                           len(blocks) == 1)


def decompose(rack: Rack, subset=None) -> list[tuple]:
    """Partition a subrack into inner-group orbits; decomposable iff 2 or
    more blocks.  The blocks are the seed orbits of its members, which stay
    inside it iff it is a subrack.  Each block is itself a subrack: it is an
    orbit of a group that holds the rows of its members, so a > b lies in
    the orbit of b."""
    members = set(range(rack.size) if subset is None else subset)
    blocks = seed_orbits(rack, members)
    if sum(map(len, blocks)) != len(members):
        raise RackError("subset is not a subrack")
    return blocks


class SoberReport(NamedTuple):
    sober: bool
    basis: str                   # all-subracks | 2-generated
    counterexample: tuple | None
    subracks_scanned: int


SOBER_EXHAUSTIVE_LIMIT = 20


def sober_check(rack: Rack, mode: str = "exhaustive") -> SoberReport:
    """Is every subrack abelian or indecomposable?

    exhaustive (size <= 20): every subrack is the join of the singleton
    closures of its members, so enumerating the join-closure lattice scans
    all of them.  pairs: only 2-generated subracks, a necessary condition,
    flagged as partial in the report.
    """
    if mode == "pairs":
        basis = "2-generated"
        seeds = ((i, j) for i in range(rack.size) for j in range(i, rack.size))
    elif mode == "exhaustive":
        basis = "all-subracks"
        seeds = _all_subracks(rack)
    else:
        raise RackError(f"unknown mode {mode!r}")
    seen = set()                 # each distinct subrack is counted once
    for seed in seeds:
        sub = subrack_closure(rack, seed)
        if sub.members in seen:
            continue
        seen.add(sub.members)
        if not sub.abelian and not sub.indecomposable:
            return SoberReport(False, basis, sub.members, len(seen))
    return SoberReport(True, basis, None, len(seen))


def _all_subracks(rack: Rack) -> list[tuple]:
    "Every subrack, as sorted indices, by size and then lexicographically."
    if rack.size > SOBER_EXHAUSTIVE_LIMIT:
        raise RackError(
            f"exhaustive scan is bounded at size {SOBER_EXHAUSTIVE_LIMIT}")
    singles = list(dict.fromkeys(
        frozenset(subrack_closure(rack, (i,)).members)
        for i in range(rack.size)))
    closed = set(singles)
    frontier = list(singles)
    while frontier:
        nxt = []
        for A in frontier:
            for s in singles:
                if s <= A:
                    continue
                B = frozenset(subrack_closure(rack, A | s).members)
                if B not in closed:
                    closed.add(B)
                    nxt.append(B)
        frontier = nxt
    return sorted((tuple(sorted(S)) for S in closed),
                  key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# the inner permutation group


def perm_mul(a, b):
    "a after b: (a*b)(x) = a(b(x)), by one C-level gather."
    if len(b) < 2:
        return tuple(a[x] for x in b)
    return itemgetter(*b)(a)


def perm_inv(a):
    "The inverse permutation: the points sorted by their images."
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def perm_group_order(gens, bound: int | None = None) -> int:
    """Order of the group the permutations generate: deterministic
    incremental Schreier-Sims with sifting.  Given a `bound` the order is
    known not to pass, it stops as soon as the product of the basic orbit
    lengths reaches the bound: that product never exceeds the order.

    Level l has a base point, its strong generators (those fixing the
    earlier base points) with their inverses, and the orbit of the base
    point under them, as a map from each point p to u^-1 for the transversal
    element u that takes the base point to p, packed by `_pack`: the
    transversals are most of the memory.  Orbits only grow, so an element
    that once sifted to the identity always does, and each (point,
    generator) pair of a level is tested once.  Schreier generators are
    sifted one at a time, as they are made.

    The generators are tuples or packed rows, read as given, not copied."""
    gens = list(gens)
    if not gens:
        return 1
    n = len(gens[0])
    ident = tuple(range(n))
    # a generator that sifts nowhere comes back as given, maybe packed, and
    # bytes or an array never equals a tuple
    idents = (ident, _pack(ident))
    base, strong, orbits, tested = [], [], [], []

    def sift(g, l):
        "Residue of g and the level it stops at, sifting from level l."
        while l < len(base):
            u_inv = orbits[l].get(g[base[l]])
            if u_inv is None:
                break
            g = perm_mul(u_inv, g)
            l += 1
        return g, l

    def add(h, lo, hi):
        "Strong generator h at levels lo..hi; level hi may be new."
        if hi == len(base):
            b = next(i for i in range(n) if h[i] != i)
            base.append(b)
            strong.append([])
            orbits.append({b: ident})
            tested.append(set())
        h_inv = perm_inv(h)
        for l in range(lo, hi + 1):
            strong[l].append((h, h_inv))
            orbit = orbits[l]
            points = list(orbit)
            for p in points:              # the list grows as it is walked
                for x, x_inv in strong[l]:
                    q = x[p]
                    if q not in orbit:
                        orbit[q] = _pack(perm_mul(orbit[p], x_inv))
                        points.append(q)

    def schreier(l):
        """Sift the untested Schreier generators u_{x(p)}^-1 x u_p of level
        l; the last level a residue joined, or None."""
        orbit = orbits[l]
        for p, u_inv in list(orbit.items()):
            u = None
            for gi, (x, _) in enumerate(strong[l]):
                if (p, gi) in tested[l]:
                    continue
                tested[l].add((p, gi))
                if u is None:
                    u = perm_inv(u_inv)
                h, j = sift(perm_mul(orbit[x[p]], perm_mul(x, u)), l + 1)
                if h != ident:
                    add(h, l + 1, j)
                    return j
        return None

    def order():
        out = 1
        for orbit in orbits:
            out *= len(orbit)
        return out

    for g in gens:
        h, j = sift(g, 0)
        if h in idents:
            continue
        add(h, 0, j)
        l = j                 # check from the deepest changed level down
        while l >= 0:
            if bound is not None and order() >= bound:
                return order()
            j = schreier(l)
            l = l - 1 if j is None else j
    return order()


def inn_order(rack: Rack) -> int:
    "Order of the permutation group generated by the translations."
    gens = [rack.translation(i) for i in range(rack.size)]
    return perm_group_order(gens)

