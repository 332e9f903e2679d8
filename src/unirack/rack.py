"""Finite racks, primarily conjugation racks of matrix classes.

A Rack stores its carrier in canonical sorted order and works with indices.
Small racks materialize the full operation table; large ones stay lazily
backed by matrix conjugation with a memo.  All analyses (closure,
decomposition, soberness, inner group) are pure functions of the rack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matgroup import Mat

MATERIALIZE_LIMIT = 1024


class RackError(ValueError):
    pass


class Rack:
    """Carrier plus the self-distributive operation x > y.

    For conjugation racks the operation is x y x^-1; the crossed-set law
    x > y = y iff y > x = x then holds automatically and is asserted.
    """

    def __init__(self, elements, op_fn, materialize: bool | None = None, spec=None, orbit=None):
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
            self._table = self._build_table()

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
        crossed-set law; exhaustive for size <= 64, sampled above."""
        n = self.size
        if n <= 64 or (self._table is not None and n <= 256):
            rows = [self.translation(i) for i in range(n)]
            full = set(range(n))
            for i in range(n):
                if set(rows[i]) != full:
                    raise RackError("a translation is not a bijection")
                for j in range(n):
                    # phi_{i>j} = phi_i phi_j phi_i^-1
                    k = rows[i][j]
                    if any(rows[k][rows[i][t]] != rows[i][rows[j][t]] for t in range(n)):
                        raise RackError("self-distributivity fails")
                    if (rows[i][j] == j) != (rows[j][i] == i):
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

    rack = Rack(mats, op, materialize=materialize, spec=spec, orbit=orbit)
    if verify:
        rack.verify_axioms()
    return rack


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
    return tuple(a[x] for x in b)


def perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_group_order(gens) -> int:
    "Deterministic Schreier-Sims order computation."
    if not gens:
        return 1
    n = len(gens[0])
    gens = sorted({tuple(g) for g in gens} - {tuple(range(n))})
    if not gens:
        return 1
    moved = min(i for g in gens for i in range(n) if g[i] != i)
    ident = tuple(range(n))
    trans = {moved: ident}
    frontier = [moved]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                q = g[pt]
                if q not in trans:
                    trans[q] = perm_mul(g, trans[pt])
                    nxt.append(q)
        frontier = nxt
    stab = set()
    for pt, t in trans.items():
        for g in gens:
            s = perm_mul(perm_inv(trans[g[pt]]), perm_mul(g, t))
            if s != ident:
                stab.add(s)
    return len(trans) * perm_group_order(sorted(stab))


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
