"""Unipotent class labels of the symplectic groups, representatives,
splitting, reference verdicts, and the matching of computed verdicts
against them.

Odd q: classes are labelled by symplectic partitions (odd parts occur with
even multiplicity).  Even q: by the orthogonal decomposition of the natural
module into W(m)-terms (a pair of Jordan blocks of size m, an embedded
general-linear action) and V(2k)-terms (a single regular symplectic block),
with V-multiplicities at most 2.  Every class meets the unipotent radical
U^F of the standard Borel, so a label's classes are found by splitting its
elements in U^F.  For odd q the split is Wall's invariant (`class_key`):
one square class per even part, numbered square first, with each class
size |G| / |C(u)| from its centralizer order, and a class's orbit is built
only when a scan reads it.  For even q the split is by conjugation orbits.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple

from .chevalley import ChevalleyWord, symplectic_model, su3_model
from .ffield import embedding, make_field, prime_power
from .matgroup import (
    Mat, Orbit, class_orbit, classical_order, det_flat, format_partition,
    group_spec, identity_flat, jordan_partition, kernel_rows, mul_flat,
    membership, nilpotent_ladder, row_reduce, rows_flat, split_classes,
    subgroup_closure, transpose_flat, unitary_twist,
)
from .detect import (
    ClassContext, DWitness, collapse_eq_holds, d_pair, mat_json,
)


class CatalogError(ValueError):
    pass


# ---------------------------------------------------------------------------
# labels


class UnipotentLabel(NamedTuple):
    """Either an odd-q symplectic partition or an even-q W/V decomposition.

    decomp terms are (kind, param, mult): a W-term of size param m occupies
    2m dimensions with Jordan type (m, m); a V-term of size param 2k
    occupies 2k dimensions with Jordan type (2k)."""
    parity: str                       # "odd" | "even"
    partition: tuple = ()
    decomp: tuple = ()

    def dim(self) -> int:
        if self.parity == "odd":
            return sum(self.partition)
        d = 0
        for kind, param, mult in self.decomp:
            d += (2 * param if kind == "W" else param) * mult
        return d

    def validate(self):
        if self.parity == "odd":
            if min(self.partition, default=1) < 1:
                raise CatalogError(f"part {min(self.partition)} of {self} "
                                   f"is below 1")
            c = Counter(self.partition)
            for part, mult in c.items():
                if part % 2 and mult % 2:
                    raise CatalogError(
                        f"odd part {part} has odd multiplicity in {self}")
        else:
            seen_w, seen_v = set(), set()
            for kind, param, mult in self.decomp:
                if param < 1 or mult < 1:
                    raise CatalogError(f"term {kind}({param})^{mult} of {self} "
                                       f"has a size or multiplicity below 1")
                if kind == "W":
                    if param in seen_w:
                        raise CatalogError("repeated W size")
                    seen_w.add(param)
                elif kind == "V":
                    if param in seen_v or mult > 2 or param % 2:
                        raise CatalogError("bad V term")
                    seen_v.add(param)
                else:
                    raise CatalogError(f"unknown term kind {kind}")
        return self

    def is_identity(self) -> bool:
        if self.parity == "odd":
            return all(p == 1 for p in self.partition)
        return all(kind == "W" and param == 1 for kind, param, mult in self.decomp)

    def is_regular(self, n2: int) -> bool:
        if self.parity == "odd":
            return self.partition == (n2,)
        return self.decomp == (("V", n2, 1),)

    def underlying_partition(self) -> tuple:
        if self.parity == "odd":
            return self.partition
        parts = []
        for kind, param, mult in self.decomp:
            if kind == "W":
                parts.extend([param, param] * mult)
            else:
                parts.extend([param] * mult)
        return tuple(sorted(parts, reverse=True))

    def __str__(self):
        if self.parity == "odd":
            return format_partition(self.partition)
        bits = []
        for kind, param, mult in sorted(self.decomp, key=lambda t: (-t[1], t[0])):
            s = f"W({param})" if kind == "W" else f"V({param})"
            bits.append(s + (f"^{mult}" if mult > 1 else ""))
        return "+".join(bits)


def odd_label(parts) -> UnipotentLabel:
    return UnipotentLabel("odd", partition=tuple(sorted(parts, reverse=True))).validate()


def even_label(terms) -> UnipotentLabel:
    canon = tuple(sorted(terms, key=lambda t: (-t[1], t[0])))
    return UnipotentLabel("even", decomp=canon).validate()


def parse_label(text: str, q: int) -> UnipotentLabel:
    "CLI form: '2,2' for partitions, 'W(1)^2+V(2)' or 'W1^2+V2' for even q."
    text = text.strip()

    def number(word: str) -> int:
        try:
            return int(word)
        except ValueError:
            form = ("a partition such as 2,2" if q % 2 else
                    "W(m) and V(2k) terms joined by +, such as W(1)^2+V(2)")
            raise CatalogError(f"label {text!r} is malformed for q = {q}, "
                               f"which takes {form}") from None

    if q % 2:
        return odd_label(number(p) for p in text.replace(" ", "").split(","))
    terms = []
    for bit in text.replace(" ", "").split("+"):
        if not bit:
            raise CatalogError(f"empty term in label {text!r}")
        rest, hat, mult = bit[1:].partition("^")
        terms.append((bit[0].upper(), number(rest.strip("()")),
                      number(mult) if hat else 1))
    return even_label(terms)


def _partitions(total: int, biggest: int):
    if total == 0:
        yield ()
        return
    for p in range(min(total, biggest), 0, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def enumerate_labels(n2: int, q: int) -> list[UnipotentLabel]:
    "All nontrivial labels for matrix size n2; identity excluded."
    if n2 % 2 or n2 < 4:
        raise CatalogError("matrix size must be even and at least 4")
    out = []
    if q % 2:
        for parts in _partitions(n2, n2):
            c = Counter(parts)
            if any(p % 2 and m % 2 for p, m in c.items()):
                continue
            lab = odd_label(parts)
            if not lab.is_identity():
                out.append(lab)
        return sorted(out)
    # even q: W multisets (distinct m, any mult) and V terms (distinct 2k, mult <= 2)
    def rec(remaining, min_w, min_v, terms):
        if remaining == 0:
            lab = even_label(terms)
            if not lab.is_identity():
                out.append(lab)
            return
        for m in range(min_w, remaining // 2 + 1):
            for a in range(1, remaining // (2 * m) + 1):
                rec(remaining - 2 * m * a, m + 1, min_v, terms + [("W", m, a)])
        for k2 in range(max(2, min_v), remaining + 1, 2):
            for b in (1, 2):
                if k2 * b <= remaining:
                    rec(remaining - k2 * b, n2, k2 + 2, terms + [("V", k2, b)])

    rec(n2, 1, 2, [])
    return sorted(set(out))


# ---------------------------------------------------------------------------
# representatives


def _slot_sets(dims: list[int], n2: int) -> list[list[int]]:
    "Symmetric slot allocation: front indices plus their mirrors."
    front_at = 0
    out = []
    for d in dims:
        half = d // 2
        front = list(range(front_at, front_at + half))
        slots = front + [n2 - 1 - i for i in reversed(front)]
        out.append(slots)
        front_at += half
    if front_at > n2 // 2:
        raise CatalogError("blocks exceed the dimension")
    return out


def embed_local(local: Mat, slots: list[int], n2: int) -> Mat:
    "Identity off the slots, the local matrix on them."
    F = local.field
    flat = list(identity_flat(n2))
    d = local.n
    for i in range(d):
        gi = slots[i]
        for j in range(d):
            flat[gi * n2 + slots[j]] = local.flat[i * d + j]
        flat[gi * n2 + gi] = local.flat[i * d + i]
    return Mat(F, n2, flat)


def _regular_sp_block(d: int, q: int, scale_last: int = 1) -> Mat:
    "Regular unipotent of Sp_d(q): the product of the simple root elements."
    if d == 2:
        F = make_field(*prime_power(q, CatalogError))
        return Mat(F, 2, (1, scale_last, 0, 1))
    model = symplectic_model(d // 2, q)
    word = []
    simples = model.rs.simple
    for i, a in enumerate(simples):
        word.append((a, scale_last if i == len(simples) - 1 else 1))
    u = model.evaluate(ChevalleyWord(tuple(word)))
    assert jordan_partition(nilpotent_ladder(u)) == (d,)
    return u


def _w_block(m: int, q: int) -> Mat:
    "The embedded general-linear block: diag(X, J tX^-1 J), X a full Jordan."
    F = make_field(*prime_power(q, CatalogError))
    if m == 1:
        return Mat.identity(F, 2)
    X = [[1 if j == i or j == i + 1 else 0 for j in range(m)] for i in range(m)]
    Xm = Mat(F, m, [x for row in X for x in row])
    J = Mat(F, m, [1 if i + j == m - 1 else 0 for i in range(m) for j in range(m)])
    lower = J * Xm.inverse().transpose() * J
    flat = [0] * (4 * m * m)
    for i in range(m):
        for j in range(m):
            flat[i * 2 * m + j] = Xm.flat[i * m + j]
            flat[(m + i) * 2 * m + (m + j)] = lower.flat[i * m + j]
    return Mat(F, 2 * m, flat)


def _placed_blocks(label: UnipotentLabel, n2: int, q: int,
                   scale_first_v: int = 1) -> list[tuple[list[int], Mat]]:
    """Per-block (slots, embedded matrix), biggest block first: the
    label's V and W blocks on their symmetric slots, the first V block
    built with `scale_first_v` as its last coefficient."""
    label.validate()
    if label.dim() != n2:
        raise CatalogError(f"label {label} does not fit dimension {n2}")
    terms = []                    # (kind, param) per block
    if label.parity == "odd":
        c = Counter(label.partition)
        for part in sorted(c, reverse=True):
            if part % 2 == 0:
                terms += [("V", part)] * c[part]
            else:
                terms += [("W", part)] * (c[part] // 2)
    else:
        for kind, param, mult in sorted(label.decomp, key=lambda t: (-t[1], t[0])):
            terms += [(kind, param)] * mult
    slots = _slot_sets([p if k == "V" else 2 * p for k, p in terms], n2)
    placed = []
    scale = scale_first_v
    for (kind, param), sl in zip(terms, slots):
        if kind == "W":
            local = _w_block(param, q)
        else:
            local = _regular_sp_block(param, q, scale_last=scale)
            scale = 1
        placed.append((sl, embed_local(local, sl, n2)))
    return placed


def representative(label: UnipotentLabel, n2: int, q: int,
                   scale_first_v: int = 1) -> Mat:
    """A membership-passing unipotent whose type matches the label, built
    from the block constructions; `scale_first_v` builds the twisted variant
    (coefficient a non-square) used to reach the second split class."""
    spec = group_spec("Sp", n2, q)
    out = Mat.identity(spec.field, n2)
    for _, block in _placed_blocks(label, n2, q, scale_first_v):
        out = out * block
    if not membership(out, spec):
        raise CatalogError("representative fails membership")
    return out


def transvection_rep(n2: int, q: int, coeff: int = 1) -> Mat:
    "The highest-root element: id + coeff at the top-right corner."
    F = make_field(*prime_power(q, CatalogError))
    flat = list(identity_flat(n2))
    flat[n2 - 1] = coeff
    return Mat(F, n2, flat)


# ---------------------------------------------------------------------------
# even-q type detection


def _has_form_defect(ladder, form: Mat, two_k: int) -> bool:
    """Is there v in ker(N^{2k}) with (N^{2k-1} v, v) != 0, for the
    `nilpotent_ladder` of u, N = u + 1, and 2k at most its length?

    This detects a V(2k)-summand: on any W-summand and on V-summands of
    other sizes the pairing vanishes on that kernel layer.  With the kernel
    basis as the columns of K, the pairing at v = K c is c^T G c for the
    Gram matrix G = K^T (N^{2k-1})^T B K.  This quadratic form has degree
    below q in each c_a (c_a^2 read as c_a when q = 2), so it vanishes on
    all of F_q^d iff its coefficients G_aa and G_ab + G_ba all vanish."""
    F, n = form.field, form.n
    rung = ladder[two_k - 1]
    # K has zero columns after the basis, so G is 0 past them
    K = transpose_flat(n, kernel_rows(F, rung.rows, rung.pivots))
    NK = mul_flat(F, n, ladder[two_k - 2].power, K)        # N^(2k-1) K
    G = mul_flat(F, n, transpose_flat(n, NK), mul_flat(F, n, form.flat, K))
    return any(G[a * n + a] for a in range(n)) \
        or any(F.add(G[a * n + b], G[b * n + a])
               for a in range(n) for b in range(a + 1, n))


def decomposition_type(ladder, spec) -> UnipotentLabel:
    """The W/V decomposition shape of a unipotent element, from its
    `nilpotent_ladder`, even q only.

    Jordan data pins everything except whether an even part carries a
    V-term; that is decided by the alternating-form defect on the matching
    kernel layer (odd multiplicity forces one V-term, which the defect must
    show; even multiplicity is V^2 or none)."""
    if spec.q % 2:
        raise CatalogError("decomposition types are an even-q notion")
    c = Counter(jordan_partition(ladder))
    terms = []
    for part in sorted(c, reverse=True):
        mult = c[part]
        if part % 2:
            if mult % 2:
                raise CatalogError("odd part with odd multiplicity")
            terms.append(("W", part, mult // 2))
            continue
        defect = _has_form_defect(ladder, spec.form, part)
        if mult % 2 and not defect:
            raise CatalogError("defect test disagrees with multiplicity parity")
        b = 1 if mult % 2 else 2 * defect
        if b:
            terms.append(("V", part, b))
        if (mult - b) // 2:
            terms.append(("W", part, (mult - b) // 2))
    return even_label(terms)


def label_of(ladder, spec) -> UnipotentLabel:
    "The label of a unipotent of Sp_2n(q), from its `nilpotent_ladder`."
    if spec.q % 2:
        return odd_label(jordan_partition(ladder))
    return decomposition_type(ladder, spec)


# ---------------------------------------------------------------------------
# odd-q class keys and sizes (Wall)


def square_classes(ladder, form: Mat, partition) -> tuple:
    """Wall's invariant of a unipotent u of Sp(form) over odd q, from its
    `nilpotent_ladder`, one entry per even part i of its Jordan `partition`,
    largest first: 0 when the symmetric form (v, w) -> <v, N^(i-1) w> on
    ker N^i, N = u - 1, has a square discriminant modulo its radical, 1 when
    not.  On the quotient the form is nondegenerate, of dimension the
    multiplicity of i, and the partition with these square classes fixes
    the class of u (G. E. Wall, J. Austral. Math. Soc. 3, 1963).  With the
    kernel basis as the columns of K, the Gram matrix G is K^T B N^(i-1) K,
    B the form; for the largest part, N^i = 0 and K is the identity.

    The discriminant modulo the radical is the determinant of G on the
    pivot columns J of its row reduction: the columns J are a basis of the
    column space, and by symmetry the rows J of the row space, so G[J, J]
    is nonsingular.  For the largest part, G = B N^(i-1) has the pivots of
    N^(i-1), which the ladder holds, as B is invertible."""
    F, n = form.field, form.n
    out = []
    for i in sorted({p for p in partition if p % 2 == 0}, reverse=True):
        rung = ladder[i - 2]                          # N^(i-1)
        G, pivots = mul_flat(F, n, form.flat, rung.power), rung.pivots
        if i < len(ladder):
            rung = ladder[i - 1]                      # N^i
            Kt = kernel_rows(F, rung.rows, rung.pivots)   # K^T
            G = mul_flat(F, n, Kt, mul_flat(F, n, G, transpose_flat(n, Kt)))
            pivots = row_reduce(F, rows_flat(n, G), n)[0]
        minor = [G[a * n + b] for a in pivots for b in pivots]
        out.append(0 if F.is_square(det_flat(F, len(pivots), minor)) else 1)
    return tuple(out)


def class_key(u: Mat, spec) -> tuple | None:
    """(label, square classes) of an element u of Sp_2n(q), q odd, from one
    `nilpotent_ladder`; None when u is not unipotent.  Two unipotents are
    conjugate iff their keys are equal."""
    ladder = nilpotent_ladder(u)
    if ladder is None:
        return None
    label = label_of(ladder, spec)
    return label, square_classes(ladder, spec.form, label.partition)


def centralizer_order(partition, squares, q: int) -> int:
    """|C(u)| for u in Sp(q), q odd, with Jordan `partition` and Wall's
    `squares` (as `square_classes` gives them): q^(dim C - dim R) |R(q)|.
    dim C is half the sum of the squared parts of the dual partition plus
    half the number of odd parts.  The reductive part R has a factor Sp_m
    for each odd part of multiplicity m and O_m for each even part; for
    even m, O_m is of plus type iff (-1)^(m/2) times the discriminant is a
    square.  |O_(2k+1)| = 2 |Sp_2k| and |O_2k^+-| = 2 q^(k-1) (q^k -+ 1)
    |Sp_(2k-2)| (Liebeck and Seitz, Unipotent and Nilpotent Classes, 2012)."""
    dual = [sum(p > j for p in partition) for j in range(max(partition))]
    dim = (sum(d * d for d in dual) + sum(p % 2 for p in partition)) // 2
    evens = sorted({p for p in partition if p % 2 == 0}, reverse=True)
    order = 1
    for part, m in Counter(partition).items():
        k = m // 2
        if part % 2:
            order *= classical_order("Sp", m, q)
            dim -= m * (m + 1) // 2
            continue
        dim -= m * (m - 1) // 2
        if m % 2:
            order *= 2 * classical_order("Sp", m - 1, q)
            continue
        minus_one_nonsquare = k % 2 == 1 and q % 4 == 3
        plus = minus_one_nonsquare == bool(squares[evens.index(part)])
        order *= (2 * q ** (k - 1) * (q ** k - (1 if plus else -1))
                  * classical_order("Sp", m - 2, q))
    return q ** dim * order


# ---------------------------------------------------------------------------
# the group catalog: every unipotent class


class ClassEntry:
    """One unipotent class: its label, split index, members in U^F (in
    flat order) and size.  An odd-q class found by `class_key` holds the
    key, which tests membership, and its size from its centralizer order;
    its orbit is built on first read, once, from its least U^F member.  A
    class made from an orbit, as the even-q split and
    `ClassEntry(label, 0, orbit, ())` make it, holds the orbit from the
    start and tests membership in it."""

    __slots__ = ("label", "split_index", "u_members", "size", "key",
                 "_spec", "_orbit")

    def __init__(self, label: UnipotentLabel, split_index: int,
                 orbit: Orbit | None = None, u_members: tuple = (),
                 size: int | None = None, key: tuple | None = None,
                 spec=None):
        self.label, self.split_index = label, split_index
        self.u_members, self.key = u_members, key
        self.size = orbit.size if size is None else size
        self._spec, self._orbit = spec, orbit

    @property
    def orbit(self) -> Orbit:
        """The class as a conjugation orbit.  A built orbit must have the
        size the centralizer order gives: a capped orbit, or a formula at
        fault, is an error, not a class to scan."""
        if self._orbit is None:
            orbit = class_orbit(self.rep(), self._spec)
            if orbit.size != self.size:
                raise CatalogError(f"the orbit of {self.label} split "
                                   f"{self.split_index} has {orbit.size} "
                                   f"elements, not {self.size}")
            self._orbit = orbit
        return self._orbit

    def rep(self) -> Mat:
        "The least U^F member of a keyed class, else its orbit's least element."
        if self.key is None:
            return self._orbit.canonical_rep()
        return self.u_members[0]

    def contains(self, x: Mat) -> bool:
        "Whether the element x of G lies in this class."
        if self.key is None:
            return self._orbit.contains(x)
        return class_key(x, self._spec) == self.key


class GroupCatalog(NamedTuple):
    spec: object
    model: object
    u_group: tuple
    entries: list

    def by_label(self, label: UnipotentLabel) -> list:
        return [e for e in self.entries if e.label == label]

    def labels(self) -> list:
        return sorted({e.label for e in self.entries})


@functools.lru_cache(maxsize=None)
def _labelled_u(n2: int, q: int):
    """(spec, model, U^F, the nonidentity elements of U^F by label, then
    by square classes): each member is keyed once, from one ladder, by
    `class_key` for odd q and by its label, with no square classes, for
    even q."""
    spec = group_spec("Sp", n2, q)
    model = symplectic_model(n2 // 2, q)
    u_group = []
    by_label: dict = {}
    for _, u in model.u_elements():
        u_group.append(u)
        if u.is_identity():
            continue
        label, squares = (class_key(u, spec) if q % 2
                          else (label_of(nilpotent_ladder(u), spec), ()))
        by_label.setdefault(label, {}).setdefault(squares, []).append(u)
    return spec, model, tuple(u_group), by_label


@functools.lru_cache(maxsize=None)
def label_classes(n2: int, q: int, label: UnipotentLabel) -> tuple:
    """The classes of one label, as ClassEntry values.  Every class of the
    label meets U^F, so splitting its elements in U^F is exhaustive; a
    label that does not occur has no classes.  For odd q they are the
    groups of `_labelled_u` by square classes, numbered square first, and
    sized by `centralizer_order`: no orbit is built.  For even q they are
    split into conjugation orbits, numbered by least packed element."""
    spec, _, _, by_label = _labelled_u(n2, q)
    groups = by_label.get(label, {})
    if q % 2:
        return tuple(
            ClassEntry(label, k, None, tuple(sorted(members)),
                       spec.order // centralizer_order(label.partition, sq, q),
                       (label, sq), spec)
            for k, (sq, members) in enumerate(sorted(groups.items())))
    elements = groups.get((), ())
    by_pack = {u.pack(): u for u in elements}
    split = sorted(split_classes(elements, spec),
                   key=lambda sc: min(sc.orbit.packed))
    return tuple(ClassEntry(label, k, sc.orbit,
                            tuple(by_pack[b] for b in sc.members))
                 for k, sc in enumerate(split))


def label_catalog(n2: int, q: int, label: UnipotentLabel) -> GroupCatalog:
    "The catalog of one label's classes, without splitting any other label."
    spec, model, u_group, _ = _labelled_u(n2, q)
    return GroupCatalog(spec, model, u_group, list(label_classes(n2, q, label)))


@functools.lru_cache(maxsize=None)
def group_catalog(n2: int, q: int) -> GroupCatalog:
    """Every unipotent class: each label of U^F split by `label_classes`,
    checked by the class sizes summing to the unipotent count."""
    spec, model, u_group, by_label = _labelled_u(n2, q)
    entries = [e for label in sorted(by_label)
               for e in label_classes(n2, q, label)]
    n_pos = (n2 // 2) ** 2
    if 1 + sum(e.size for e in entries) != q ** (2 * n_pos):
        raise CatalogError("class sizes do not sum to the unipotent count")
    return GroupCatalog(spec, model, u_group, entries)


# -- block realizations for the product strategies


class BlockRealization(NamedTuple):
    component: Mat
    rest: Mat
    gens: tuple
    comp_gens: tuple


def _sp_gens_on_slots(slots, n2: int, q: int) -> tuple:
    if len(slots) < 2:
        return ()
    if len(slots) == 2:
        gens = group_spec("SL", 2, q).generators
    else:
        gens = symplectic_model(len(slots) // 2, q).group_generators()
    return tuple(embed_local(g, list(slots), n2) for g in gens)


def block_realizations(entry: ClassEntry, catalog: GroupCatalog) -> tuple:
    "Block data for the class, when a block-built candidate lies in it."
    label = entry.label
    n2, q = catalog.spec.n, catalog.spec.q
    candidates = [1]
    if q % 2:
        F = catalog.spec.field
        candidates.append(F.least_nonsquare())
    for scale in candidates:
        try:
            cand = representative(label, n2, q, scale_first_v=scale)
        except CatalogError:
            continue
        if entry.contains(cand):
            break
    else:
        return ()
    placed = _placed_blocks(label, n2, q, scale)
    out = []
    for i, (sl, block) in enumerate(placed):
        rest = Mat.identity(catalog.spec.field, n2)
        for j, (_, other) in enumerate(placed):
            if j != i:
                rest = rest * other
        comp_slots = tuple(k for k in range(n2) if k not in sl)
        out.append(BlockRealization(
            block, rest,
            _sp_gens_on_slots(tuple(sl), n2, q),
            _sp_gens_on_slots(comp_slots, n2, q)))
    return tuple(out)


def class_context(entry: ClassEntry, catalog: GroupCatalog) -> ClassContext:
    return ClassContext(
        spec=catalog.spec,
        rep=entry.rep(),
        entry=entry,
        u_members=entry.u_members,
        model=catalog.model,
        blocks=block_realizations(entry, catalog),
    )


# ---------------------------------------------------------------------------
# reference verdicts


class Expectation(NamedTuple):
    verdicts: tuple           # multiset of per-class verdicts, or a single
    #                           entry when the class count is unknown
    class_count: int | None
    rule: str
    uncovered: bool = False


def expected(label: UnipotentLabel, n2: int, q: int) -> Expectation:
    "The reference verdict and split count for one label."
    if label.parity == "odd":
        return _expected_odd(label, n2, q)
    return _expected_even(label, n2, q)


def _is_odd_square_gt9(q: int) -> bool:
    r = int(q ** 0.5 + 0.5)
    return q % 2 == 1 and r * r == q and q > 9


def _expected_odd(label, n2, q) -> Expectation:
    c = Counter(label.partition)
    r2, r3 = c.get(2, 0), c.get(3, 0)
    if max(label.partition) >= 4:
        count = 2 if label.partition == (n2,) else None
        v = ("D",) * (count or 1)
        return Expectation(v, count, "big-part-D")
    if r3 and r2:
        return Expectation(("D", "D"), 2, "mixed-123-D")
    if r3:
        return Expectation(("D",), 1, "threes-D")
    if r2 == 1:
        if _is_odd_square_gt9(q):
            return Expectation(("D", "D"), 2, "transvection-square-D")
        return Expectation(("cthulhu", "cthulhu"), 2, "transvection-odd")
    if r2 > 1:
        if q == 3 and n2 == 4:
            return Expectation(("D", "cthulhu"), 2, "pair-split-q3")
        return Expectation(("D", "D"), 2, "doubles-D")
    return Expectation(("uncovered",), None, "none", uncovered=True)


def _expected_even(label, n2, q) -> Expectation:
    terms = label.decomp
    w = {param: mult for kind, param, mult in terms if kind == "W"}
    v = {param: mult for kind, param, mult in terms if kind == "V"}
    only = lambda *pats: sorted(terms) == sorted(pats)

    # surviving rows
    if set(w) <= {1} and v == {2: 1}:
        return Expectation(("cthulhu",), 1, "transvection-even")
    if not v and w == {2: 1} and n2 == 4:
        return Expectation(("cthulhu",), 1, "short-graph-auto")
    if not v and w == {1: 1, 2: 1} and q == 2:
        return Expectation(("cthulhu",), 1, "w1w2-q2")
    if not w and v == {2: 2} and q == 2:
        return Expectation(("cthulhu",), 1, "v22-s6")

    # collapsing rows
    if not v and set(w) <= {1, 2} and w.get(2) == 1:
        # W(1)^a + W(2), a >= 1 (the a = 0, n2 = 4 row was caught above)
        return Expectation(("F",), 1, "w1aw2-F")
    if not v and set(w) <= {1, 2} and w.get(2, 0) > 1:
        return Expectation(("D",), 1, "w2b-D")
    if w.get(2) and v.get(2) and set(w) <= {1, 2} and set(v) <= {2}:
        return Expectation(("D",), 1, "w2v2-D")
    if not w or set(w) <= {1}:
        if v == {2: 2}:
            return Expectation(("D",), 1 if q == 2 else None, "v2v2-D")
        if len(v) == 1:
            k2 = next(iter(v))
            if v[k2] == 1 and k2 >= 4:
                count = 2 if label.is_regular(n2) else None
                verd = "F" if q > 2 else "D"
                return Expectation((verd,) * (count or 1), count,
                                   "regular-even-F" if q > 2 else "tall-v-D")
            if v[k2] == 2:
                return Expectation(("D",), None, "v-pair-D")
        if len(v) >= 2:
            return Expectation(("D",), None, "v-mixed-D")
    if v and w and max(w) >= 2:
        return Expectation(("D",), None, "wv-mixed-D")
    if not v and w:
        big = max(w)
        if big == 4 or any(m >= 4 and m % 2 == 0 for m in w):
            return Expectation(("D",), None, "w4-D")
        if big > 4 and big % 2 == 0:
            return Expectation(("F",), None, "wide-even-w-F")
        if big > 1 and big % 2 == 1:
            if q == 2:
                count = 2 if only(("W", big, 1)) else None
                return Expectation(("D",) * (count or 1), count, "odd-w-q2-D")
            if q == 4 or (big == 3 and q == 8):
                return Expectation(("DF",), None, "odd-w-DF")
            return Expectation(("F",), None, "odd-w-F")
        if len([m for m in w if m > 1]) >= 2 or any(
                m > 1 and w[m] > 1 for m in w):
            return Expectation(("D",), None, "ww-D")
    return Expectation(("uncovered",), None, "none", uncovered=True)


# one predicate of (partition, n, q) per row, then the verdict; the first
# matching row wins.  p[:k] == (...) tests the k largest parts.
SL_TABLE_ROWS = (
    (lambda p, n, q: n == 2 and _is_odd_square_gt9(q) and p == (2,), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 1 and p[0] >= 3, "D"),
    (lambda p, n, q: n > 2 and q % 2 == 1 and p[:2] == (2, 2), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 1 and p[:2] == (2, 1), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[0] >= 5, "F"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[0] == 4, "D"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[:2] == (3, 3), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[:2] == (3, 2), "F"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[:2] == (3, 1), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[:2] == (2, 2), "D"),
    (lambda p, n, q: n > 2 and q % 2 == 0 and p[:4] == (2, 1, 1, 1), "F"),
    (lambda p, n, q: n == 3 and q % 2 == 0 and q >= 8 and p == (3,), "F"),
    (lambda p, n, q: n == 3 and q == 4 and p == (3,), "D"),
)


def sl_expected(partition, n: int, q: int) -> str | None:
    "Linear-group class verdicts used for subrack lookups."
    parts = tuple(sorted(partition, reverse=True))
    return next((verdict for holds, verdict in SL_TABLE_ROWS
                 if holds(parts, n, q)), None)


# ---------------------------------------------------------------------------
# regular pairs and the twisted rank-2 witness


class PairReport(NamedTuple):
    kind: str
    x1: Mat
    x2: Mat
    same_class: bool
    class_level: str          # group | type

    def verify(self):
        if self.kind == "noncommuting":
            if collapse_eq_holds(self.x1, self.x2):
                raise CatalogError("pair does not violate the collapse equation")
        else:
            if self.x1 == self.x2 or self.x1 * self.x2 != self.x2 * self.x1:
                raise CatalogError("pair is not a distinct commuting pair")
        return True


def regular_pairs(spec, kind: str) -> PairReport:
    """Two regular unipotent elements of one class: either a pair violating
    the collapse equation, or a distinct commuting pair."""
    fam, n, q = spec.family, spec.n, spec.q
    if fam not in ("SL", "SU", "Sp"):
        raise CatalogError("regular pairs are for SL, SU, or Sp")
    if kind == "commuting" and not (n > 2 or q > 2):
        raise CatalogError("distinct commuting regular pairs need n > 2 or q > 2")
    F = spec.field
    if fam == "SL":
        x1 = Mat(F, n, [1 if j == i or j == i + 1 else 0
                        for i in range(n) for j in range(n)])
    elif fam == "Sp":
        x1 = _regular_sp_block(n, q)
    else:
        x1 = su3_model(q).regular_rep()
    orb = class_orbit(x1, spec, cap=10**6)
    if kind == "noncommuting":
        if fam == "SL":
            J = Mat(F, n, [1 if i + j == n - 1 else 0
                           for i in range(n) for j in range(n)])
            x2 = J * x1 * J.inverse()
        elif fam == "Sp":
            sigma_flat = list(identity_flat(n))
            for i, j in ((0, 1), (1, 0), (n - 2, n - 1), (n - 1, n - 2)):
                sigma_flat[i * n + j] = 1
            for i in (0, 1, n - 2, n - 1):
                sigma_flat[i * n + i] = 0
            sigma = Mat(F, n, sigma_flat)
            if not membership(sigma, spec):
                raise CatalogError("corner swap fails membership")
            x2 = sigma * x1 * sigma.inverse()
        else:
            p, m = prime_power(q, CatalogError)
            x2 = x1.frobenius(m).transpose()
            if (x2 * x1 * x2).flat[1 * n + 0] == 0:
                raise CatalogError("lower-corner test failed")
        degenerate = collapse_eq_holds(x1, x2) or x1 * x2 == x2 * x1
        if degenerate or not orb.contains(x2):
            # fall back to the first class member that violates the equation
            y = next((y for y in orb.mats() if y != x1 and y * x1 != x1 * y
                      and not collapse_eq_holds(x1, y)), None)
            if y is not None:
                x2 = y
            elif degenerate:
                raise CatalogError("no collapse-violating pair in the class")
        rep = PairReport(kind, x1, x2, orb.contains(x2), "group")
        rep.verify()
        return rep
    # commuting
    if n > 2:
        x2 = x1.inverse()
        if orb.contains(x2) and x2 != x1:
            rep = PairReport(kind, x1, x2, True, "group")
            rep.verify()
            return rep
        for k in range(2, x1.order()):
            cand = x1 ** k
            if cand != x1 and orb.contains(cand):
                rep = PairReport(kind, x1, cand, True, "group")
                rep.verify()
                return rep
        raise CatalogError("no commuting partner found")
    # n == 2, q > 2
    for xi in range(2, F.q):
        if q % 2 == 0 or F.is_square(xi):
            cand = Mat(F, 2, (1, xi, 0, 1))
            if orb.contains(cand):
                rep = PairReport(kind, x1, cand, True, "group")
                rep.verify()
                return rep
    # odd q with no square scaling: the printed pair reaches the twin class
    xi = next(c for c in range(2, F.q) if c != 1)
    cand = Mat(F, 2, (1, xi, 0, 1))
    rep = PairReport(kind, x1, cand, False, "type")
    rep.verify()
    return rep


class GU3Report(NamedTuple):
    r: Mat
    s: Mat
    g: Mat                    # over F_64, with g^-1 twist(g) = eta id
    eta: int                  # a code of g's field
    witness: DWitness
    su_class_count: int
    checks: dict

    def to_json(self):
        F = self.g.field
        return {"r": mat_json(self.r), "s": mat_json(self.s),
                "g": mat_json(self.g),
                "eta": {"code": self.eta, "text": F.format_element(self.eta)},
                "su_class_count": self.su_class_count,
                "checks": self.checks, "witness": self.witness.to_json()}


def gu3_witness() -> GU3Report:
    """The explicit type-D witness for the regular class of the rank-3
    unitary group over F_4, with every verification step run.

    Builds r with a primitive-cube-root corner entry, solves x^3 = eta^-1
    in the degree-3 extension, forms g = diag(x^4, x, x^4) with
    g^-1 F(g) = eta id, pushes r across the twisted-class boundary, and
    reflects it; the two elements generate inside the determinant-one
    subgroup and their orbits there are disjoint."""
    F4 = make_field(2, 2)
    w = F4.generator
    zeta = eta = w
    gu = group_spec("GU", 3, 2)
    su = group_spec("SU", 3, 2)
    r = Mat(F4, 3, (1, 1, zeta, 0, 1, 1, 0, 0, 1))
    checks = {}
    checks["r_in_gu"] = membership(r, gu)
    checks["r_regular"] = jordan_partition(nilpotent_ladder(r)) == (3,)
    F64 = make_field(2, 6)
    emb = embedding(2, 2, 6)
    eta64 = emb.apply(eta)
    eta_inv64 = F64.inv(eta64)
    x = next(c for c in range(1, 64) if F64.pow(c, 3) == eta_inv64)
    g = Mat(F64, 3, (F64.pow(x, 4), 0, 0, 0, x, 0, 0, 0, F64.pow(x, 4)))
    zg = g.inverse() * unitary_twist(g, 2)
    checks["g_twist_is_eta_scalar"] = zg == Mat(
        F64, 3, (eta64, 0, 0, 0, eta64, 0, 0, 0, eta64))
    r64 = r.map_to(emb)
    conj = g * r64 * g.inverse()
    r_prime = conj.descend_to(emb)
    J = Mat(F4, 3, (0, 0, 1, 0, 1, 0, 1, 0, 0))
    s = J * r_prime * J
    checks["s_in_gu"] = membership(s, gu)
    checks["r_in_su"] = membership(r, su)
    checks["s_in_su"] = membership(s, su)
    # three regular classes of the determinant-one subgroup
    su_all = subgroup_closure(list(su.generators), cap=10**4)
    # a unipotent of GL_3 is regular iff N^2 != 0: its ladder has 3 rungs
    regulars = [m for m in su_all.mats()
                if len(nilpotent_ladder(m) or ()) == 3]
    parts = split_classes(regulars, su)
    checks["su_regular_class_count"] = len(parts)
    r_orbit_su = class_orbit(r, su)
    checks["s_outside_su_class_of_r"] = not r_orbit_su.contains(s)
    checks["collapse_violated"] = not collapse_eq_holds(r, s)
    closure = subgroup_closure([r, s], cap=10**4)
    checks["pair_group_inside_su"] = all(membership(m, su) for m in closure.mats())
    res = d_pair(r, s, strategy="twisted-scalar")
    if res.kind != "witness":
        raise CatalogError(f"pair is not a witness: {res.kind}")
    if not all(v if isinstance(v, bool) else True for v in checks.values()):
        raise CatalogError(f"verification failed: {checks}")
    if checks["su_regular_class_count"] != 3:
        raise CatalogError("expected exactly 3 regular determinant-one classes")
    return GU3Report(r, s, g, eta64, res.witness, len(parts), checks)


# ---------------------------------------------------------------------------
# matching computed verdicts against the reference


def _wanted(exp: Expectation, count: int) -> list:
    """The expected verdicts of a row with `count` classes, sorted: the
    multiset, or a single expected verdict for every class when the count
    is open."""
    return (sorted(exp.verdicts) if exp.class_count is not None
            else exp.verdicts[:1] * count)


def row_matched(exp: Expectation, computed: tuple) -> bool:
    """Whether a row's verdict kinds, one per split class, meet its
    expectation: the class count and the verdict multiset (a single expected
    verdict applies to every class when the count is open; DF admits D or
    F).  An unknown verdict never matches."""
    if "unknown" in computed:
        return False
    if exp.class_count is not None and exp.class_count != len(computed):
        return False
    if exp.uncovered:
        return True
    want = _wanted(exp, len(computed))
    return len(want) == len(computed) and all(
        g == w or (w == "DF" and g in ("D", "F"))
        for g, w in zip(sorted(computed), want))


REFERENCE_TABLE_GROUPS = ((4, 2), (4, 3), (4, 4), (4, 5), (6, 2), (6, 3))


def reference_table_rows(n2: int, q: int) -> list[str]:
    "Line-oriented reference rows for one group: label, count, verdicts, rule."
    out = []
    for lab in enumerate_labels(n2, q):
        exp = expected(lab, n2, q)
        count = "" if exp.class_count is None else str(exp.class_count)
        out.append("\t".join([f"Sp{n2}({q})", str(lab), count,
                              ",".join(exp.verdicts), exp.rule]))
    return out


def reference_table_text() -> str:
    lines = ["# reference verdicts, version 1",
             "# group\tlabel\tclass_count\tverdicts\trule"]
    for n2, q in REFERENCE_TABLE_GROUPS:
        lines.extend(reference_table_rows(n2, q))
    return "\n".join(lines) + "\n"


def transvection_split_rack_iso(n2: int, q: int) -> bool:
    """For odd q the two split transvection classes are isomorphic racks:
    conjugation by diag(id, zeta^-1 id) maps one onto the other."""
    if q % 2 == 0:
        raise CatalogError("splitting is an odd-q phenomenon here")
    spec = group_spec("Sp", n2, q)
    F = spec.field
    zeta = F.least_nonsquare()
    u = transvection_rep(n2, q, 1)
    u2 = transvection_rep(n2, q, zeta)
    o1 = class_orbit(u, spec)
    o2 = class_orbit(u2, spec)
    if o1.contains(u2):
        raise CatalogError("classes did not split")
    half = n2 // 2
    d_flat = list(identity_flat(n2))
    inv = F.inv(zeta)
    for i in range(half, n2):
        d_flat[i * n2 + i] = inv
    d = Mat(F, n2, d_flat)
    image = {(d * Mat(F, n2, tuple(b)) * d.inverse()).pack()
             for b in o1.packed}
    # conjugation is a group automorphism, so it preserves the rack operation
    return image == o2.packed
