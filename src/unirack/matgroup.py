"""Matrix elements of classical groups over small finite fields.

Matrices are immutable: a Mat is a flat tuple of field codes plus its Field.
The orbit kernel holds a matrix as the tuple of its row codes, one integer
per row, and applies each generator as table look-ups on whole rows; orbits
and closures hand back their elements as `bytes(flat)`, which is compact and
hashes at C speed.  All iteration orders are canonical so that orbit dumps,
certificates and reports are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import random
from itertools import chain, product
from typing import NamedTuple

from .ffield import Field, FieldError, make_field, prime_power

DEFAULT_CAP = 10**6


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# flat-tuple matrix kernel


@functools.lru_cache(maxsize=None)
def identity_flat(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mul_flat(F: Field, n: int, A, B) -> tuple[int, ...]:
    out = [0] * (n * n)
    mt, at, q = F._mul_t, F._add_t, F.q
    for i in range(n):
        io = i * n
        for k in range(n):
            a = A[io + k]
            if a:
                ko = k * n
                aq = a * q
                for j in range(n):
                    b = B[ko + j]
                    if b:
                        out[io + j] = at[out[io + j] * q + mt[aq + b]]
    return tuple(out)


def transpose_flat(n: int, A) -> tuple[int, ...]:
    return tuple(A[j * n + i] for i in range(n) for j in range(n))


def rows_flat(n: int, A) -> list[list[int]]:
    "The rows of a flat n-by-n matrix, as fresh lists."
    return [list(A[i * n:(i + 1) * n]) for i in range(n)]


def row_reduce(F: Field, rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Gauss-Jordan elimination of `rows` in place, to reduced echelon form,
    pivoting only in the first `ncols` columns: each pivot row is scaled to
    a leading 1 and its column cleared in every other row.

    Returns the pivot columns and, for `ncols` rows, the determinant of
    their first `ncols` columns: 0 when one of those columns has no pivot."""
    mt, at, q = F._mul_t, F._add_t, F.q
    pivots, det = [], 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = F.neg(det)
        lead = rows[r][c]
        det = F.mul(det, lead)
        if lead != 1:
            iq = F.inv(lead) * q
            rows[r] = [mt[iq + x] for x in rows[r]]
        prow = rows[r]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                mq = F.neg(row[c]) * q
                rows[k] = [at[x * q + mt[mq + y]] for x, y in zip(row, prow)]
        pivots.append(c)
    return pivots, det


def inv_flat(F: Field, n: int, A) -> tuple[int, ...]:
    "Gauss-Jordan inverse, by reducing [A | I]; raises GroupError if singular."
    rows = rows_flat(n, A)
    for i, row in enumerate(rows):
        row += [1 if j == i else 0 for j in range(n)]
    if not row_reduce(F, rows, n)[1]:
        raise GroupError("matrix is singular")
    return tuple(x for row in rows for x in row[n:])


def rank_flat(F: Field, n: int, A) -> int:
    return len(row_reduce(F, rows_flat(n, A), n)[0])


def det_flat(F: Field, n: int, A) -> int:
    return row_reduce(F, rows_flat(n, A), n)[1]


class Mat:
    """An n-by-n matrix over one Field.  Equality and hashing are entrywise."""

    __slots__ = ("field", "n", "flat", "_hash")

    def __init__(self, field: Field, n: int, flat):
        self.field = field
        self.n = n
        self.flat = tuple(flat)
        if len(self.flat) != n * n:
            raise GroupError("entry count does not match the dimension")
        self._hash = hash((id(field), n, self.flat))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, n, identity_flat(n))

    def rows(self):
        return rows_flat(self.n, self.flat)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field is not self.field or other.n != self.n:
            raise FieldError("matrix product across different fields or sizes")
        return Mat(self.field, self.n, mul_flat(self.field, self.n, self.flat, other.flat))

    def inverse(self) -> "Mat":
        return Mat(self.field, self.n, inv_flat(self.field, self.n, self.flat))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.n, transpose_flat(self.n, self.flat))

    def __pow__(self, e: int) -> "Mat":
        "Binary powering with no product by the identity and no spare square."
        if e < 0:
            return self.inverse() ** (-e)
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Mat.identity(self.field, self.n) if out is None else out

    def frobenius(self, r: int = 1) -> "Mat":
        F = self.field
        return Mat(F, self.n, tuple(F.frobenius(x, r) for x in self.flat))

    def det(self) -> int:
        return det_flat(self.field, self.n, self.flat)

    def order(self, cap: int = 10**6) -> int:
        acc, k = self, 1
        ident = Mat.identity(self.field, self.n)
        while acc != ident:
            acc = acc * self
            k += 1
            if k > cap:
                raise GroupError("element order exceeds cap")
        return k

    def is_identity(self) -> bool:
        return self.flat == identity_flat(self.n)

    def map_to(self, emb) -> "Mat":
        "Entrywise image under a field Embedding."
        return Mat(emb.dst, self.n, tuple(emb.apply(x) for x in self.flat))

    def descend_to(self, emb) -> "Mat":
        return Mat(emb.src, self.n, tuple(emb.descend(x) for x in self.flat))

    def __eq__(self, other):
        return (isinstance(other, Mat) and other.field is self.field
                and other.n == self.n and other.flat == self.flat)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.flat < other.flat

    def pack(self) -> bytes:
        return bytes(self.flat)

    def text(self) -> str:
        "Row-major text form in the field's report format."
        F = self.field
        return ";".join(" ".join(F.format_element(x) for x in row) for row in self.rows())

    def __repr__(self):
        return f"Mat{self.n}x{self.n}[{self.text()}]"


def antidiag_flat(n: int) -> tuple[int, ...]:
    return tuple(1 if i + j == n - 1 else 0 for i in range(n) for j in range(n))


def j_mat(field: Field, n: int) -> Mat:
    "The anti-diagonal involution."
    return Mat(field, n, antidiag_flat(n))


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec(NamedTuple):
    family: str                    # SL | Sp | GU | SU
    n: int                         # matrix size
    q: int                         # defining field size (entries over q^2 for GU/SU)
    field: Field
    form: Mat | None
    generators: tuple[Mat, ...]
    order: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}({self.q})"

    def gen_pairs(self):
        """Conjugation pairs (g, g^-1) of a certified generating pair modulo
        the centre, in canonical order (`_gen_pairs`): central elements
        conjugate trivially, so the pair gives every G-class."""
        return _gen_pairs(self)

    def identity(self) -> Mat:
        return Mat.identity(self.field, self.n)

    def __repr__(self):
        return self.name


# seeded word pairs tried before the fallback to every generator, and the
# word lengths: each bundled spec certifies by its third pair
GEN_PAIR_TRIES = 4
GEN_WORD_LENGTHS = (9, 11)
# past this many lines no pair is certified: at Sp6(4)'s 1,365 the
# certificate costs more time than the pair saves on a class orbit, and
# at SL7(3)'s 1,093 no candidate passes (BENCH_two_gen.json, "line_limit")
LINE_LIMIT = 1024


@functools.lru_cache(maxsize=None)
def _gen_pairs(spec: GroupSpec):
    """Two seeded words a, b in the sorted generators, independent of any
    run's seed, certified to generate G modulo its centre Z: the group they
    induce on the lines of F^n has order |G| / |Z|, where Z is the scalars
    in G, the kernel of the action on lines.  Falls back to every
    non-scalar generator if no pair of GEN_PAIR_TRIES passes, or past
    LINE_LIMIT lines."""
    F, n = spec.field, spec.n
    ident = identity_flat(n)
    # conjugation by a scalar is the identity
    gens = [g for g in sorted(spec.generators)
            if g.flat != tuple(g.flat[0] * x for x in ident)]
    if (F.q ** n - 1) // (F.q - 1) <= LINE_LIMIT:
        from .rack import perm_group_order
        scalars = sum(membership(Mat(F, n, [c * x for x in ident]), spec)
                      for c in range(1, F.q))
        bound = spec.order // scalars      # no subgroup of G/Z is larger
        for k in range(GEN_PAIR_TRIES):
            words = [random_element(spec, random.Random(2 * k + i), length)
                     for i, length in enumerate(GEN_WORD_LENGTHS)]
            if perm_group_order(_line_perms(F, n, words), bound) == bound:
                gens = words
                break
    return tuple((g.flat, inv_flat(F, n, g.flat)) for g in gens)


def _line_perms(F: Field, n: int, mats) -> list[tuple[int, ...]]:
    """The permutations v -> v M of the lines of F^n, one per M in `mats`;
    a line is its vector whose first nonzero entry is 1."""
    q, mt, at = F.q, F._mul_t, F._add_t
    lines = [(0,) * k + (1,) + rest for k in range(n)
             for rest in product(range(q), repeat=n - k - 1)]
    index = {v: i for i, v in enumerate(lines)}

    def image(v, M):
        w = [0] * n
        for i, c in enumerate(v):
            if c:
                cq, row = c * q, M.flat[i * n:(i + 1) * n]
                w = [at[x * q + mt[cq + m]] for x, m in zip(w, row)]
        lead = F.inv(next(x for x in w if x)) * q
        return index[tuple(mt[lead + x] for x in w)]
    return [tuple(image(v, M) for v in lines) for M in mats]


def classical_order(family: str, n: int, q: int) -> int:
    if family == "SL":
        o = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= q**i - 1
        return o
    if family == "Sp":
        if n % 2:
            raise GroupError("symplectic groups need even matrix size")
        r = n // 2
        o = q ** (r * r)
        for i in range(1, r + 1):
            o *= q ** (2 * i) - 1
        return o
    if family == "GU":
        o = q ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            o *= q**i - (-1) ** i
        return o
    if family == "SU":
        return classical_order("GU", n, q) // (q + 1)
    raise GroupError(f"unknown family {family!r}")


def symplectic_form(field: Field, n: int) -> Mat:
    """The invariant bilinear form: for odd q the block form with
    anti-diagonal J blocks and a minus sign, for even q the single
    anti-diagonal involution."""
    if n % 2:
        raise GroupError("even matrix size required")
    if field.p == 2:
        return j_mat(field, n)
    r = n // 2
    flat = [0] * (n * n)
    for i in range(r):
        flat[i * n + (n - 1 - i)] = 1                      # top-right J block
        flat[(r + i) * n + (r - 1 - i)] = field.neg(1)     # bottom-left -J block
    return Mat(field, n, flat)


def _field_basis_scalars(F: Field) -> list[int]:
    "Powers of the generator spanning F_q over F_p."
    return [F.pow(F.generator, j) for j in range(F.m)] if F.q > 2 else [1]


def _sl_generators(F: Field, n: int) -> list[Mat]:
    gens = []
    for i in range(n - 1):
        for c in _field_basis_scalars(F):
            up = list(identity_flat(n))
            up[i * n + i + 1] = c
            gens.append(Mat(F, n, up))
            dn = list(identity_flat(n))
            dn[(i + 1) * n + i] = c
            gens.append(Mat(F, n, dn))
    if n >= 2 and F.q > 2:
        t = list(identity_flat(n))
        t[0] = F.generator
        t[n + 1] = F.inv(F.generator)
        gens.append(Mat(F, n, t))
    return gens


@functools.lru_cache(maxsize=None)
def group_spec(family: str, n: int, q: int) -> GroupSpec:
    """A classical group: invariant form, generating set, and order.

    `n` is the matrix size.  Unitary groups are implemented for n = 3 (the
    block constructions elsewhere only need those).
    """
    if family not in ("SL", "Sp", "GU", "SU"):
        raise GroupError(f"unsupported family {family!r}")
    if n < 2 or n > 10 or q < 2 or q > 16:
        raise GroupError(f"{family}{n}({q}) is outside the supported desk-scale range")
    p, m = prime_power(q, GroupError)

    if family == "SL":
        F = make_field(p, m)
        gens = _sl_generators(F, n)
        return GroupSpec(family, n, q, F, None, tuple(gens), classical_order(family, n, q))

    if family == "Sp":
        from . import chevalley
        F = make_field(p, m)
        model = chevalley.symplectic_model(n // 2, q)
        gens = model.group_generators()
        return GroupSpec(family, n, q, F, symplectic_form(F, n),
                         tuple(gens), classical_order(family, n, q))

    # unitary families live over F_{q^2}
    if n != 3:
        raise GroupError("unitary groups are only realized for n = 3")
    from . import chevalley
    F2 = make_field(p, 2 * m)
    su3 = chevalley.su3_model(q)
    gens = list(su3.group_generators())
    if family == "GU":
        gens.append(su3.gu_torus_extension())
    return GroupSpec(family, n, q, F2, j_mat(F2, n),
                     tuple(gens), classical_order(family, n, q))


def membership(X: Mat, spec: GroupSpec) -> bool:
    "Determinant and invariant-form constraints for the family."
    if X.n != spec.n:
        raise GroupError("dimension mismatch")
    if X.field is not spec.field:
        raise FieldError("matrix entries live in the wrong field")
    fam = spec.family
    if fam == "SL":
        return X.det() == 1
    if fam == "Sp":
        B = spec.form
        return (X.transpose() * B * X == B) and X.det() == 1
    # unitary condition: conj-transpose against the anti-diagonal form
    p, m = prime_power(spec.q, GroupError)
    J = spec.form
    if X.frobenius(m).transpose() * J * X != J:
        return False
    return X.det() == 1 if fam == "SU" else True


# ---------------------------------------------------------------------------
# Jordan data


def is_unipotent(X: Mat) -> bool:
    N = _x_minus_one(X)
    acc = N
    for _ in range(X.n):
        if all(v == 0 for v in acc.flat):
            return True
        acc = acc * N
    return all(v == 0 for v in acc.flat)


def _x_minus_one(X: Mat) -> Mat:
    F = X.field
    flat = list(X.flat)
    for i in range(X.n):
        flat[i * X.n + i] = F.sub(flat[i * X.n + i], 1)
    return Mat(F, X.n, flat)


def jordan_partition(X: Mat) -> tuple[int, ...]:
    """Partition of n from the ranks of powers of (X - id); weakly
    decreasing.  Raises on non-unipotent input."""
    F, n = X.field, X.n
    N = _x_minus_one(X)
    ranks = [n]
    acc = N
    for _ in range(n):
        r = rank_flat(F, n, acc.flat)
        ranks.append(r)
        if r == 0:
            break
        acc = acc * N
    if ranks[-1] != 0:
        raise GroupError("matrix is not unipotent")
    while len(ranks) < n + 2:
        ranks.append(0)
    parts = []
    for s in range(1, n + 1):
        mult = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        parts.extend([s] * mult)
    parts.sort(reverse=True)
    assert sum(parts) == n
    return tuple(parts)


def format_partition(parts) -> str:
    "Ascending exponent form, e.g. (1^2,2)."
    from collections import Counter
    c = Counter(parts)
    bits = []
    for s in sorted(c):
        bits.append(f"{s}^{c[s]}" if c[s] > 1 else f"{s}")
    return "(" + ",".join(bits) + ")"


# ---------------------------------------------------------------------------
# orbits and closures


# the row-add table has (q^n)^2 entries: about 8 MB of references at the limit
ROW_CODE_LIMIT = 1024


def _runs(tables, low) -> tuple:
    "The images of the codes `low` under each table in turn, end to end."
    return tuple(chain.from_iterable(map(t.__getitem__, low) for t in tables))


class _RowCode:
    """Rows of n entries over F as integer codes in [0, q^n): the entries
    are the base-q digits, the first entry the most significant.  The orbit
    kernel holds a matrix as the tuple of its row codes.

    `add[u][v]` is the code of row u plus row v, and `scale[c][v]` that of
    c times row v.  Both are built one digit at a time from the field's
    tables: a table over k + 1 digits is made of `map` runs over the table
    over k digits, each shifted by one shared list of int objects."""

    __slots__ = ("n", "add", "scale", "rowbytes", "index")

    def __init__(self, F: Field, n: int):
        q, self.n = F.q, n
        add = [tuple(F._add_t[a * q:(a + 1) * q]) for a in range(q)]
        scale = [tuple(F._mul_t[c * q:(c + 1) * q]) for c in range(q)]
        one, mul = add, scale
        ints, size = list(range(q ** n)), q
        for _ in range(n - 1):
            # shift[d][v] = d q^k + v for v < q^k: a new leading digit d
            shift = [ints[d * size:(d + 1) * size] for d in range(q)]
            add = [_runs([shift[d] for d in one[a]], low)
                   for a in range(q) for low in add]
            scale = [_runs([shift[d] for d in m], low)
                     for m, low in zip(mul, scale)]
            size *= q
        self.add, self.scale = tuple(add), tuple(scale)
        rowbytes = [bytes((d,)) for d in range(q)]
        for _ in range(n - 1):
            rowbytes = [bytes((d,)) + low for d in range(q) for low in rowbytes]
        self.rowbytes = rowbytes
        self.index = {b: c for c, b in enumerate(rowbytes)}

    def encode(self, flat) -> tuple[int, ...]:
        n, index = self.n, self.index
        return tuple(index[bytes(flat[i * n:(i + 1) * n])] for i in range(n))

    def decode(self, codes) -> bytes:
        "The packed flat matrix, as `bytes(flat)`."
        return b"".join(map(self.rowbytes.__getitem__, codes))

    def linear(self, M) -> tuple[int, ...]:
        """The map v -> v M on row codes, built by linearity from the codes
        of the rows of M (the images of the basis rows), least significant
        digit first: one `add` look-up per code."""
        image = (0,)
        for r in reversed(self.encode(M)):
            image = _runs([self.add[s[r]] for s in self.scale], image)
        return image

    def action(self, L, R):
        """x -> L x R on row-code tuples: x R is one code map over the rows,
        and each row of L that differs from the identity's combines the rows
        its nonzero entries select, by `scale` and `add` look-ups."""
        n, add, scale = self.n, self.add, self.scale
        ident = identity_flat(n)
        rmap = None if R == ident else self.linear(R).__getitem__
        ops = []                  # (row, first term, other terms)
        for i in range(n):
            coeffs = L[i * n:(i + 1) * n]
            if coeffs != ident[i * n:(i + 1) * n]:
                terms = [(k, None if c == 1 else scale[c])
                         for k, c in enumerate(coeffs) if c]
                ops.append((i, terms[0], terms[1:]))

        def act(x):
            y = x if rmap is None else tuple(map(rmap, x))
            if not ops:
                return y
            z = list(y)
            for dst, (s0, m0), rest in ops:
                v = y[s0] if m0 is None else m0[y[s0]]
                for s, m in rest:
                    v = add[v][y[s] if m is None else m[y[s]]]
                z[dst] = v
            return tuple(z)
        return act


@functools.lru_cache(maxsize=None)
def _row_code(F: Field, n: int) -> _RowCode | None:
    "The row codes of n-by-n matrices over F; None when q^n > ROW_CODE_LIMIT."
    if F.q ** n > ROW_CODE_LIMIT:
        return None
    return _RowCode(F, n)


@functools.lru_cache(maxsize=None)
def _table_rows(F: Field):
    "The addition and multiplication tables of F, one row per left operand."
    q = F.q
    return (tuple(tuple(F._add_t[a * q:(a + 1) * q]) for a in range(q)),
            tuple(tuple(F._mul_t[a * q:(a + 1) * q]) for a in range(q)))


@functools.lru_cache(maxsize=None)
def _lines(n: int):
    "Row slices and column slices of a flat n-by-n matrix, with the identity's."
    ident, nn = identity_flat(n), n * n
    rows = tuple(slice(i * n, (i + 1) * n) for i in range(n))
    cols = tuple(slice(j, nn, n) for j in range(n))
    return tuple((lines, tuple(ident[s] for s in lines)) for lines in (rows, cols))


def _entrywise(F: Field, n: int, L, R):
    """x -> L x R on flat matrices, for matrices without row codes: only the
    rows of L and the columns of R that differ from the identity are
    touched, and each such line of the result combines the lines its
    nonzero entries select, O(n) table look-ups per entry."""
    add, mul = _table_rows(F)
    phases = []               # rows of L, then columns of R
    for M, (lines, ident_lines) in zip((L, R), _lines(n)):
        ops = []              # (line, first term, other terms)
        for dst, one in zip(lines, ident_lines):
            coeffs = M[dst]
            if coeffs != one:
                terms = [(src, None if c == 1 else mul[c])
                         for src, c in zip(lines, coeffs) if c]
                ops.append((dst, terms[0], terms[1:]))
        if ops:
            phases.append(ops)

    def act(x):
        y = list(x)
        for phase in phases:
            for dst, (s0, m0), rest in phase:
                line = x[s0] if m0 is None else [m0[v] for v in x[s0]]
                for s, m in rest:
                    line = ([add[a][b] for a, b in zip(line, x[s])] if m is None
                            else [add[a][m[b]] for a, b in zip(line, x[s])])
                y[dst] = line
            x = tuple(y)
        return x
    return act


def _kernel(F: Field, n: int):
    """(encode, decode, action) of the orbit kernel over F: points are
    row-code tuples, or flat tuples under the entry-wise action where F has
    no row codes.  decode gives `bytes(flat)`."""
    rc = _row_code(F, n)
    if rc is None:
        return tuple, bytes, functools.partial(_entrywise, F, n)
    return rc.encode, rc.decode, rc.action


def _closure(F: Field, n: int, starts, pairs, cap: int | None = None):
    """Breadth-first closure of the flat matrices `starts` under the actions
    x -> L x R for (L, R) in `pairs`: frontier by frontier, each element in
    the order found, each action in list order.

    Returns (seen, complete): the bytes of every element found, and False
    once more than `cap` are found, where the search stops."""
    encode, decode, action = _kernel(F, n)
    acts = [action(L, R) for L, R in pairs]
    frontier = [encode(x) for x in starts]
    seen = set(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for act in acts:
                y = act(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if cap is not None and len(seen) > cap:
                        return set(map(decode, seen)), False
        frontier = nxt
    return set(map(decode, seen)), True


class Orbit:
    """The elements a closure found, a conjugation orbit or a generated
    subgroup: packed-element set plus canonical order."""

    __slots__ = ("field", "n", "packed", "complete")

    def __init__(self, field, n, packed: set, complete=True):
        self.field, self.n = field, n
        self.packed = packed
        self.complete = complete

    @property
    def size(self) -> int:
        return len(self.packed)

    def contains(self, X) -> bool:
        key = X.pack() if isinstance(X, Mat) else bytes(X)
        return key in self.packed

    def sorted_packed(self) -> list[bytes]:
        return sorted(self.packed)

    def canonical_rep(self) -> Mat:
        return Mat(self.field, self.n, tuple(min(self.packed)))

    def mats(self):
        for b in self.sorted_packed():
            yield Mat(self.field, self.n, tuple(b))

    def __len__(self):
        return len(self.packed)

    def __repr__(self):
        return f"Orbit(size={self.size}{'' if self.complete else ', capped'})"


def class_orbit(rep: Mat, spec: GroupSpec, cap: int = DEFAULT_CAP) -> Orbit:
    """Breadth-first conjugation closure of `rep` under the spec's certified
    generating pair modulo the centre (`GroupSpec.gen_pairs`): a complete
    orbit is the G-class of `rep`.  Exceeding the cap is reported on the
    orbit, not fatal."""
    if not membership(rep, spec):
        raise GroupError("representative fails membership")
    F, n = spec.field, spec.n
    seen, complete = _closure(F, n, [rep.flat], spec.gen_pairs(), cap)
    return Orbit(F, n, seen, complete)


def subgroup_closure(gens: list[Mat], cap: int = DEFAULT_CAP) -> Orbit:
    "The generated subgroup as an explicit set (product closure)."
    if not gens:
        raise GroupError("need at least one generator")
    F, n = gens[0].field, gens[0].n
    for g in gens:
        if g.field is not F or g.n != n:
            raise GroupError("generators must share a field and size")
    ident = identity_flat(n)
    gen_flats = sorted({g.flat for g in gens} | {ident})
    seen, complete = _closure(F, n, gen_flats, [(ident, g) for g in gen_flats], cap)
    return Orbit(F, n, seen, complete)


def enumerate_group(spec: GroupSpec, cap: int = 3 * 10**6) -> Orbit:
    "Full enumeration by closure of the generators (cross-validation)."
    return subgroup_closure(list(spec.generators), cap)


class SplitClass(NamedTuple):
    orbit: Orbit
    members: tuple          # packed members of the input covered by this orbit


def split_classes(elements, spec: GroupSpec) -> list[SplitClass]:
    "Partition `elements` into the G-classes meeting them, as class orbits."
    mats = sorted(elements)
    pending: dict[bytes, Mat] = {m.pack(): m for m in mats}
    if len(pending) != len(mats):
        raise GroupError("duplicate elements in split_classes input")
    out = []
    while pending:
        x = pending[min(pending)]
        orb = class_orbit(x, spec)
        members = tuple(sorted(b for b in pending if b in orb.packed))
        for b in members:
            del pending[b]
        out.append(SplitClass(orb, members))
    return out


def unitary_twist(X: Mat, q: int) -> Mat:
    """The Steinberg endomorphism X -> J ^t Fr_q(X)^-1 J of GL_n(q^2), with
    J the anti-diagonal involution: its fixed points are GU_n(q)."""
    _, m = prime_power(q, GroupError)
    J = j_mat(X.field, X.n)
    return J * X.frobenius(m).inverse().transpose() * J


def orbit_under(rep: Mat, gens, cap: int = DEFAULT_CAP) -> Orbit:
    "Conjugation orbit of rep under an explicit generator list."
    F, n = rep.field, rep.n
    pairs = [(g.flat, inv_flat(F, n, g.flat)) for g in sorted(gens)]
    seen, complete = _closure(F, n, [rep.flat], pairs, cap)
    return Orbit(F, n, seen, complete)


def random_element(spec: GroupSpec, rng, length: int = 12) -> Mat:
    "Random word in the generators (for property tests)."
    gens = sorted(spec.generators)
    out = spec.identity()
    for _ in range(length):
        out = out * gens[rng.randrange(len(gens))]
    return out
