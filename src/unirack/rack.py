"""Finite racks, primarily conjugation racks of matrix classes.

A Rack stores its carrier in canonical sorted order and works with indices.
Small racks materialize the full operation table, a conjugation rack's
mostly derived from a few rows of matrix products; large ones stay lazily
backed by matrix conjugation with a memo.  All analyses (closure,
decomposition, soberness, inner group) are pure functions of the rack.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .matgroup import Mat, _kernel, inv_flat

MATERIALIZE_LIMIT = 1024


class RackError(ValueError):
    pass


class Rack:
    """Carrier plus the self-distributive operation x > y.

    For conjugation racks the operation is x y x^-1; the crossed-set law
    x > y = y iff y > x = x then holds automatically and is asserted.
    A materialized rack takes its rows from `table` when given (rows over
    the sorted carrier, as `conj_rack` derives them) and from `op_fn`
    otherwise.
    """

    def __init__(self, elements, op_fn, materialize: bool | None = None, spec=None, orbit=None,
                 table=None):
        self.elements = tuple(sorted(elements))
        if len(set(self.elements)) != len(self.elements):
            raise RackError("carrier has repeated elements")
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.size = len(self.elements)
        self._op_fn = op_fn
        self.spec = spec
        self.orbit = orbit
        if materialize is None:
            materialize = self.size <= MATERIALIZE_LIMIT
        self._table = None
        self._memo = {}
        if materialize:
            self._table = self._build_table() if table is None else table

    def _build_table(self):
        table = []
        for x in self.elements:
            row = []
            for y in self.elements:
                z = self._op_fn(x, y)
                i = self.index.get(z)
                if i is None:
                    raise RackError("carrier is not closed under the operation")
                row.append(i)
            table.append(tuple(row))
        return tuple(table)

    def op(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        key = (i, j)
        got = self._memo.get(key)
        if got is None:
            z = self._op_fn(self.elements[i], self.elements[j])
            got = self.index.get(z)
            if got is None:
                raise RackError("carrier is not closed under the operation")
            self._memo[key] = got
        return got

    def translation(self, i: int) -> tuple[int, ...]:
        "The permutation j -> i > j."
        if self._table is not None:
            return self._table[i]
        return tuple(self.op(i, j) for j in range(self.size))

    def verify_axioms(self, rng=None, samples: int = 10**4) -> bool:
        """Self-distributivity, bijectivity of the translations, and the
        crossed-set law: exhaustive for size <= 64, and for a materialized
        table up to size 256; sampled above."""
        n = self.size
        if n <= 64 or (self._table is not None and n <= 256):
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
        import random
        rng = rng or random.Random(0)
        for _ in range(samples):
            i, j, k = (rng.randrange(n) for _ in range(3))
            if self.op(i, self.op(j, k)) != self.op(self.op(i, j), self.op(i, k)):
                raise RackError("self-distributivity fails")
            if (self.op(i, j) == j) != (self.op(j, i) == i):
                raise RackError("crossed-set law fails")
        return True

    def dump(self, with_table: bool = False) -> dict:
        "Carrier legend (indices to matrices) and, on request, the op rows."
        legend = [x.text() if isinstance(x, Mat) else repr(x) for x in self.elements]
        out = {"size": self.size, "legend": legend}
        if with_table:
            out["table"] = [list(self.translation(i)) for i in range(self.size)]
        return out


def conj_rack(orbit_mats, spec=None, orbit=None, verify: bool = True,
              materialize: bool | None = None) -> Rack:
    "The conjugation rack x > y = x y x^-1 on a conjugation-closed set."
    mats = sorted(orbit_mats)
    invs = {}

    def op(x, y):
        xi = invs.get(x)
        if xi is None:
            xi = x.inverse()
            invs[x] = xi
        return x * y * xi

    if materialize is None:
        materialize = len(mats) <= MATERIALIZE_LIMIT
    table = _conj_table(mats) if materialize and mats else None
    rack = Rack(mats, op, materialize=materialize, spec=spec, orbit=orbit,
                table=table)
    if verify:
        rack.verify_axioms()
    return rack


def _conj_table(mats) -> tuple:
    """The rows of the conjugation rack on the sorted matrices `mats`, most
    of them derived from a few rows computed from the matrices.

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
    the table is the one the products give."""
    points, index = _points(mats)
    if len(index) != len(mats):
        raise RackError("carrier has repeated elements")
    rows = [None] * len(mats)
    known = []               # indices with a row, in the order found
    gens = []                # (phi_x, phi_x^-1) for the computed rows
    for x in range(len(mats)):
        if rows[x] is not None:
            continue
        row = rows[x] = _matrix_row(mats, points, index, x)
        gens.append((row, perm_inv(row)))
        known.append(x)
        # close the known rows under every computed row again: the new one
        # acts on all of them, and all act on the new one
        for w in known:
            for phi, phi_inv in gens:
                k = phi[w]
                if rows[k] is None:
                    rows[k] = tuple(map(phi.__getitem__,
                                        map(rows[w].__getitem__, phi_inv)))
                    known.append(k)
    return tuple(rows)


def _points(mats):
    "The matrices as points of the orbit kernel, and the index of each point."
    encode, _, _ = _kernel(mats[0].field, mats[0].n)
    points = [encode(m.flat) for m in mats]
    return points, {p: i for i, p in enumerate(points)}


def _matrix_row(mats, points, index, x) -> tuple:
    "phi_x from the kernel's action of x; every image must be in the carrier."
    m = mats[x]
    _, _, action = _kernel(m.field, m.n)
    act = action(m.flat, inv_flat(m.field, m.n, m.flat))
    try:
        return tuple([index[act(p)] for p in points])
    except KeyError:
        raise RackError("carrier is not closed under the operation") from None


def conj_rows(mats):
    """Row i of the conjugation rack on the matrices `mats`, in their order,
    as a function of i.  Up to MATERIALIZE_LIMIT elements the rows come from
    the derived table; above it each call computes its row from the
    matrices, so a scan holds only the rows it keeps."""
    if len(mats) <= MATERIALIZE_LIMIT:
        return _conj_table(mats).__getitem__
    points, index = _points(mats)
    return lambda x: _matrix_row(mats, points, index, x)


@dataclass
class SubrackAnalysis:
    members: tuple            # sorted indices
    abelian: bool
    indecomposable: bool

    @property
    def is_sober_witness_free(self) -> bool:
        return self.abelian or self.indecomposable


def subrack_closure(rack: Rack, seed) -> SubrackAnalysis:
    "Smallest subrack containing the seed indices, with its analysis flags."
    members = set(seed)
    if not members:
        raise RackError("seed must be nonempty")
    frontier = list(members)
    while frontier:
        nxt = []
        cur = list(members)
        for a in cur:
            for b in frontier:
                for z in (rack.op(a, b), rack.op(b, a)):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    idx = tuple(sorted(members))
    abelian = all(rack.op(a, b) == b for a in idx for b in idx)
    indec = len(_inner_blocks(rack, idx)) == 1
    return SubrackAnalysis(idx, abelian, indec)


def _inner_blocks(rack: Rack, subset) -> list[tuple]:
    "Orbits of the inner group of the sub-carrier, by union-find."
    subset = sorted(subset)
    pos = {x: i for i, x in enumerate(subset)}
    parent = list(range(len(subset)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in subset:
        for b in subset:
            z = rack.op(a, b)
            ra, rb = find(pos[b]), find(pos[z])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for i, x in enumerate(subset):
        groups.setdefault(find(i), []).append(x)
    return sorted(tuple(v) for v in groups.values())


def decompose(rack: Rack, subset=None) -> list[tuple]:
    """Partition into inner-group orbits; decomposable iff 2 or more blocks.
    Each block is itself a subrack (asserted)."""
    subset = range(rack.size) if subset is None else subset
    blocks = _inner_blocks(rack, subset)
    for blk in blocks:
        s = set(blk)
        for a in blk:
            for b in blk:
                if rack.op(a, b) not in s:
                    raise RackError("inner block is not a subrack")
    return blocks


@dataclass
class SoberReport:
    sober: bool
    mode: str                    # exhaustive | pairs
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
        scanned = 0
        for i in range(rack.size):
            for j in range(i, rack.size):
                ana = subrack_closure(rack, (i, j))
                scanned += 1
                if not ana.is_sober_witness_free:
                    return SoberReport(False, mode, "2-generated", ana.members, scanned)
        return SoberReport(True, mode, "2-generated", None, scanned)
    if mode != "exhaustive":
        raise RackError(f"unknown mode {mode!r}")
    if rack.size > SOBER_EXHAUSTIVE_LIMIT:
        raise RackError(
            f"exhaustive scan is bounded at size {SOBER_EXHAUSTIVE_LIMIT}")
    singles = []
    seen = set()
    for i in range(rack.size):
        s = frozenset(subrack_closure(rack, (i,)).members)
        if s not in seen:
            seen.add(s)
            singles.append(s)
    closed = set(singles)
    frontier = list(singles)
    while frontier:
        nxt = []
        for A in frontier:
            for s in singles:
                if s <= A:
                    continue
                B = frozenset(subrack_closure(rack, tuple(A | s)).members)
                if B not in closed:
                    closed.add(B)
                    nxt.append(B)
        frontier = nxt
    scanned = 0
    for S in sorted(closed, key=lambda s: (len(s), tuple(sorted(s)))):
        scanned += 1
        idx = tuple(sorted(S))
        abelian = all(rack.op(a, b) == b for a in idx for b in idx)
        if abelian:
            continue
        if len(_inner_blocks(rack, idx)) != 1:
            return SoberReport(False, mode, "all-subracks", idx, scanned)
    return SoberReport(True, mode, "all-subracks", None, scanned)


# ---------------------------------------------------------------------------
# the inner permutation group


def perm_mul(a, b):
    "a after b: (a*b)(x) = a(b(x))."
    return tuple(map(a.__getitem__, b))


def perm_inv(a):
    "The inverse permutation: the points sorted by their images."
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def perm_group_order(gens) -> int:
    """Order of the group the permutations generate: deterministic
    incremental Schreier-Sims with sifting.

    Level l has a base point, its strong generators (those fixing the
    earlier base points) with their inverses, and the orbit of the base
    point under them, as a map from each point p to u^-1 for the transversal
    element u that takes the base point to p.  Orbits only grow, so an
    element that once sifted to the identity always does, and each (point,
    generator) pair of a level is tested once.  Schreier generators are
    sifted one at a time, as they are made."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    n = len(gens[0])
    ident = tuple(range(n))
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
                        orbit[q] = perm_mul(orbit[p], x_inv)
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

    for g in gens:
        h, j = sift(g, 0)
        if h == ident:
            continue
        add(h, 0, j)
        l = j                 # check from the deepest changed level down
        while l >= 0:
            j = schreier(l)
            l = l - 1 if j is None else j
    order = 1
    for orbit in orbits:
        order *= len(orbit)
    return order


def inn_order(rack: Rack) -> int:
    "Order of the permutation group generated by the translations."
    gens = [rack.translation(i) for i in range(rack.size)]
    return perm_group_order(gens)


def inner_group_perms(rack: Rack, cap: int = 10**6) -> set:
    "Full closure of the translation permutations (small racks only)."
    gens = sorted({rack.translation(i) for i in range(rack.size)})
    n = rack.size
    seen = set(gens) | {tuple(range(n))}
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
