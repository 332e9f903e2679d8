"""Root-system calculus for type C_n and its symplectic matrix realization.

Roots are integer coordinate tuples in the epsilon basis.  The matrix
realization fixes one sign convention once (short roots e_i - e_j go to
id + t(E_ij - E_j'i') with primed indices reflected through the
anti-diagonal, long roots 2e_i to id + t E_ii'); every property asserted
downstream is convention-independent (membership, the torus commutation
rule, the coroot pairing), so the realization is validated against those
contracts rather than against any printed table of structure constants.

Structure constants of the commutator expansion are measured from matrix
computations and then verified exhaustively, never tabulated by hand.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .ffield import Field, make_field, prime_power
from .matgroup import (
    GroupError, Mat, _field_basis_scalars, identity_flat, symplectic_form,
)

Root = tuple[int, ...]


class RootError(ValueError):
    pass


class DegeneratePairError(RootError):
    "The pair commutes in this characteristic (orthogonal pair at p = 2)."


def root_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def root_neg(a: Root) -> Root:
    return tuple(-x for x in a)


def dot(a: Root, b: Root) -> int:
    return sum(x * y for x, y in zip(a, b))


def cartan(a: Root, b: Root) -> int:
    "2(a,b)/(b,b)."
    num = 2 * dot(a, b)
    den = dot(b, b)
    if num % den:
        raise RootError("pairing is not integral")
    return num // den


class RootSystemC:
    """The C_n root system: n^2 positive roots, Bourbaki-numbered simples."""

    def __init__(self, n: int):
        if not 2 <= n <= 10:
            raise RootError("rank out of range (2..10)")
        self.n = n
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(self._eps(i, 1, j, -1))   # e_i - e_j
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(self._eps(i, 1, j, 1))    # e_i + e_j
        for i in range(n):
            v = [0] * n
            v[i] = 2
            pos.append(tuple(v))                     # 2 e_i
        self.roots = set(pos) | {root_neg(r) for r in pos}
        self.positive = sorted(pos, key=lambda r: (self.height(r), r))
        self.simple = tuple(
            self._eps(k, 1, k + 1, -1) for k in range(n - 1)
        ) + (tuple([0] * (n - 1) + [2]),)

    def _eps(self, i, ci, j, cj) -> Root:
        v = [0] * self.n
        v[i], v[j] = ci, cj
        return tuple(v)

    def is_root(self, v: Root) -> bool:
        return v in self.roots

    def is_positive(self, v: Root) -> bool:
        return v in self.roots and next(x for x in v if x) > 0

    def simple_coeffs(self, r: Root) -> tuple[int, ...]:
        "Coefficients of r in the simple basis."
        n = self.n
        neg = not self.is_positive(r)
        v = root_neg(r) if neg else r
        idx = [i for i, x in enumerate(v) if x]
        out = [0] * n
        if len(idx) == 1:
            i = idx[0]            # 2 e_i
            for k in range(i, n - 1):
                out[k] = 2
            out[n - 1] = 1
        else:
            i, j = idx
            if v[j] < 0:          # e_i - e_j
                for k in range(i, j):
                    out[k] = 1
            else:                 # e_i + e_j
                for k in range(i, j):
                    out[k] = 1
                for k in range(j, n - 1):
                    out[k] = 2
                out[n - 1] = 1
        if neg:
            out = [-x for x in out]
        return tuple(out)

    def height(self, r: Root) -> int:
        n = self.n
        v = r if next(x for x in r if x) > 0 else root_neg(r)
        idx = [i for i, x in enumerate(v) if x]
        if len(idx) == 1:
            h = 2 * (n - 1 - idx[0]) + 1
        elif v[idx[1]] < 0:
            h = idx[1] - idx[0]
        else:
            h = 2 * n - idx[0] - idx[1] - 1
        return h if self.is_positive(r) else -h

    def is_long(self, r: Root) -> bool:
        return dot(r, r) == 4

    def highest_root(self) -> Root:
        return tuple([2] + [0] * (self.n - 1))

    def highest_short_root(self) -> Root:
        if self.n < 2:
            raise RootError("rank too small")
        return tuple([1, 1] + [0] * (self.n - 2))

    def alpha_string(self, beta: Root, alpha: Root) -> tuple[int, int]:
        "(m, M): beta - m*alpha .. beta + M*alpha is the alpha-string."
        m = 0
        while self.is_root(tuple(b - (m + 1) * a for a, b in zip(alpha, beta))):
            m += 1
        M = 0
        while self.is_root(tuple(b + (M + 1) * a for a, b in zip(alpha, beta))):
            M += 1
        return m, M

    def is_degenerate_pair(self, alpha: Root, beta: Root, p: int) -> bool:
        "Pairs whose commutator constant c_11 vanishes in characteristic p."
        return p == 2 and dot(alpha, beta) == 0

    def bourbaki_label(self, r: Root) -> str:
        coeffs = self.simple_coeffs(r)
        bits = []
        for k, c in enumerate(coeffs, start=1):
            if c == 0:
                continue
            bits.append(f"a{k}" if abs(c) == 1 else f"{abs(c)}a{k}")
        s = "+".join(bits) or "0"
        return s if self.is_positive(r) else "-(" + s + ")"

    def ordering(self, ordering_id: int) -> list[Root]:
        "Total orders on the positive roots; 0 is height-then-lex."
        if ordering_id == 0:
            return list(self.positive)
        if ordering_id == 1:
            return sorted(self.positive)
        if ordering_id == 2:
            return sorted(self.positive, key=lambda r: (-self.height(r), r))
        raise RootError(f"unknown ordering {ordering_id}")


@functools.lru_cache(maxsize=None)
def root_system(n: int) -> RootSystemC:
    return RootSystemC(n)


class ChevalleyWord(NamedTuple):
    "An ordered product of root-subgroup factors (root, coefficient code)."
    factors: tuple
    ordering_id: int = 0

    def support(self) -> set:
        return {r for r, c in self.factors if c}


class TorusElt(NamedTuple):
    "A product of coroot values, with its diagonal matrix realization."
    word: tuple                  # ((root, z_code), ...)
    mat: Mat

    def value_at(self, alpha: Root, F: Field) -> int:
        "alpha(t) as a field code, from the coroot pairing."
        out = 1
        for beta, z in self.word:
            out = F.mul(out, F.pow(z, cartan(alpha, beta)))
        return out


class SymplecticModel:
    """Explicit Chevalley generators of Sp_{2n}(q) for the fixed forms."""

    def __init__(self, rank: int, q: int):
        self.rank = rank
        self.dim = 2 * rank
        p, m = prime_power(q, RootError)
        self.q = q
        self.field = make_field(p, m)
        self.rs = root_system(rank)
        self.form = symplectic_form(self.field, self.dim)
        self._entry_cache: dict[Root, tuple] = {}

    # -- matrix realization

    def _entries(self, r: Root):
        "Off-diagonal (row, col, sign) entries of x_r(t) - id, 0-based."
        cached = self._entry_cache.get(r)
        if cached is not None:
            return cached
        n2 = self.dim
        idx = [i for i, x in enumerate(r) if x]
        if len(idx) == 1:
            i = idx[0]
            ent = ((i, n2 - 1 - i, 1),) if r[i] > 0 else ((n2 - 1 - i, i, 1),)
        else:
            i, j = idx
            ci, cj = r[i], r[j]
            if ci == 1 and cj == -1:
                ent = ((i, j, 1), (n2 - 1 - j, n2 - 1 - i, -1))
            elif ci == -1 and cj == 1:
                ent = ((j, i, 1), (n2 - 1 - i, n2 - 1 - j, -1))
            elif ci == 1 and cj == 1:
                ent = ((i, n2 - 1 - j, 1), (j, n2 - 1 - i, 1))
            else:
                ent = ((n2 - 1 - j, i, 1), (n2 - 1 - i, j, 1))
        self._entry_cache[r] = ent
        return ent

    def x(self, r: Root, t: int) -> Mat:
        "The root element x_r(t); additive in t."
        if not self.rs.is_root(r):
            raise RootError(f"{r} is not a root")
        F = self.field
        flat = list(identity_flat(self.dim))
        for i, j, sgn in self._entries(r):
            flat[i * self.dim + j] = t if sgn > 0 else F.neg(t)
        return Mat(F, self.dim, flat)

    def lead_pos(self, r: Root) -> tuple[int, int]:
        i, j, _ = self._entries(r)[0]
        return i, j

    def coroot(self, beta: Root, z: int) -> Mat:
        "The torus element beta^vee(z) as a diagonal matrix."
        if z == 0:
            raise RootError("torus parameter must be nonzero")
        F, n2 = self.field, self.dim
        flat = list(identity_flat(n2))
        for k in range(self.rank):
            eps = tuple(1 if i == k else 0 for i in range(self.rank))
            e = 2 * dot(eps, beta) // dot(beta, beta)
            flat[k * n2 + k] = F.pow(z, e)
            flat[(n2 - 1 - k) * n2 + (n2 - 1 - k)] = F.pow(z, -e)
        return Mat(F, n2, flat)

    def torus(self, word) -> TorusElt:
        word = tuple(word)
        mat = Mat.identity(self.field, self.dim)
        for beta, z in word:
            mat = mat * self.coroot(beta, z)
        return TorusElt(word, mat)

    def weyl_rep(self, r: Root) -> Mat:
        one = 1
        return self.x(r, one) * self.x(root_neg(r), self.field.neg(one)) * self.x(r, one)

    def group_generators(self) -> list[Mat]:
        F = self.field
        gens = []
        for a in self.rs.simple:
            for c in _field_basis_scalars(F):
                gens.append(self.x(a, c))
                gens.append(self.x(root_neg(a), c))
        if F.q > 2:
            for a in self.rs.simple:
                gens.append(self.coroot(a, F.generator))
        for a in self.rs.simple:
            gens.append(self.weyl_rep(a))
        return gens

    # -- the unipotent radical of the standard Borel

    def u_elements(self):
        "All of U^F as (coefficient tuple, matrix), in canonical order."
        order = self.rs.ordering(0)
        for coeffs in itertools.product(range(self.field.q), repeat=len(order)):
            yield coeffs, self.evaluate(
                ChevalleyWord(tuple(zip(order, coeffs)), 0))

    def evaluate(self, word: ChevalleyWord) -> Mat:
        out = Mat.identity(self.field, self.dim)
        for r, c in word.factors:
            if c:
                out = out * self.x(r, c)
        return out

    def factorize(self, u: Mat, ordering_id: int = 0) -> ChevalleyWord:
        """The unique expression of u as an ordered product of root factors.

        The canonical (height) order is peeled directly: entries at the
        leading position of each root are exact coefficients once all lower
        roots are removed, because matrix positions are graded by the root
        lattice.  Other orderings are produced by the collection process and
        re-verified by evaluation.
        """
        if ordering_id != 0:
            word0 = self.factorize(u, 0)
            return self.reorder(word0, ordering_id)
        F, n2 = self.field, self.dim
        cur = u
        factors = []
        for r in self.rs.ordering(0):
            i, j = self.lead_pos(r)
            c = cur.flat[i * n2 + j]
            if c:
                factors.append((r, c))
                cur = self.x(r, F.neg(c)) * cur
        if not cur.is_identity():
            raise GroupError("matrix is not in the unipotent radical")
        return ChevalleyWord(tuple(factors), 0)

    def reorder(self, word: ChevalleyWord, ordering_id: int) -> ChevalleyWord:
        "Collection process: sort factors, inserting commutator corrections."
        order = self.rs.ordering(ordering_id)
        pos = {r: k for k, r in enumerate(order)}
        seq = [(r, c) for r, c in word.factors if c]
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise GroupError("collection failed to terminate")
            changed = False
            k = 0
            while k + 1 < len(seq):
                (ra, ca), (rb, cb) = seq[k], seq[k + 1]
                if ra == rb:
                    c = self.field.add(ca, cb)
                    seq[k:k + 2] = [(ra, c)] if c else []
                    changed = True
                    continue
                if pos[ra] > pos[rb]:
                    corr = self._commutator_factors(ra, ca, rb, cb)
                    seq[k:k + 2] = corr + [(rb, cb), (ra, ca)]
                    changed = True
                    k = 0
                    continue
                k += 1
            if not changed:
                break
        out = ChevalleyWord(tuple(seq), ordering_id)
        if self.evaluate(out) != self.evaluate(word):
            raise GroupError("collection produced an inequivalent word")
        return out

    def _commutator_factors(self, ra, ca, rb, cb):
        "x_ra(ca) x_rb(cb) x_ra(ca)^-1 x_rb(cb)^-1 as a factor list."
        K = (self.x(ra, ca) * self.x(rb, cb)
             * self.x(ra, ca).inverse() * self.x(rb, cb).inverse())
        return list(self.factorize(K, 0).factors)


@functools.lru_cache(maxsize=None)
def symplectic_model(rank: int, q: int) -> SymplecticModel:
    return SymplecticModel(rank, q)


# ---------------------------------------------------------------------------
# commutator data


class CommutatorData(NamedTuple):
    alpha: Root
    beta: Root
    q: int
    terms: tuple            # ((i, j, root, constant_code), ...)
    commutes: bool          # the two root subgroups commute identically
    degenerate: bool        # alpha+beta is a root but c_11 vanishes at this p

    def c11(self) -> int:
        for i, j, r, c in self.terms:
            if i == 1 and j == 1:
                return c
        return 0


def commutator_data(model: SymplecticModel, alpha: Root, beta: Root,
                    exhaustive: bool | None = None) -> CommutatorData:
    """Constants of the commutator expansion, measured from the matrices.

    The expansion [x_a(s), x_b(t)] = prod x_{ia+jb}(c_ij s^i t^j) is read
    off by factorizing one sample commutator and then re-verified for every
    (s, t) pair (exhaustively for q <= 9, sampled above).
    """
    rs, F = model.rs, model.field
    if alpha == beta:
        raise RootError("need distinct roots")
    candidates = {}
    for i in range(1, 4):
        for j in range(1, 4):
            r = tuple(i * a + j * b for a, b in zip(alpha, beta))
            if rs.is_root(r):
                candidates[r] = (i, j)
    g = F.generator if F.q > 2 else 1

    def comm(s, t):
        xs, xt = model.x(alpha, s), model.x(beta, t)
        return xs * xt * xs.inverse() * xt.inverse()

    base = model.factorize(comm(g, g)) if rs.is_positive(alpha) and rs.is_positive(beta) \
        else None
    if base is None:
        raise RootError("commutator data needs positive roots")
    consts = {}
    for r, c in base.factors:
        if r not in candidates:
            raise GroupError("factorization ambiguity in commutator support")
        i, j = candidates[r]
        consts[(i, j)] = F.div(c, F.pow(g, i + j))
    if exhaustive is None:
        exhaustive = F.q <= 9
    pairs = (itertools.product(range(F.q), repeat=2) if exhaustive
             else [(F.pow(g, k), F.pow(g, 3 * k + 1)) for k in range(1, 40)])
    for s, t in pairs:
        got = dict(model.factorize(comm(s, t)).factors)
        want = {}
        for (i, j), c in consts.items():
            v = F.mul(c, F.mul(F.pow(s, i), F.pow(t, j))) if s and t else 0
            if v:
                want[tuple(i * a + j * b for a, b in zip(alpha, beta))] = v
        if got != want:
            raise GroupError("commutator expansion failed verification")
    terms = tuple(sorted((i, j, tuple(i * a + j * b for a, b in zip(alpha, beta)), c)
                         for (i, j), c in consts.items()))
    s = root_add(alpha, beta)
    sum_is_root = rs.is_root(s)
    c11 = next((c for i, j, r, c in terms if (i, j) == (1, 1)), 0)
    return CommutatorData(alpha, beta, model.q, terms,
                          commutes=not terms, degenerate=sum_is_root and c11 == 0)


# ---------------------------------------------------------------------------
# the support condition


def ab_property(model: SymplecticModel, u, alpha: Root, beta: Root,
                ordering_id: int = 0) -> bool:
    """Support condition on u for the pair (alpha, beta).

    True iff alpha, beta lie in supp(u) and every expression of alpha+beta
    as a sum of two or more supp(u)-roots is exactly {alpha, beta}.
    Characteristic-degenerate pairs are rejected with a
    distinct error, as is a pair whose sum is not a root.
    """
    rs = model.rs
    target = root_add(alpha, beta)
    if not rs.is_root(target):
        raise RootError("alpha + beta is not a root")
    if rs.is_degenerate_pair(alpha, beta, model.field.p):
        raise DegeneratePairError(
            f"({rs.bourbaki_label(alpha)}, {rs.bourbaki_label(beta)}) "
            f"commutes in characteristic {model.field.p}")
    word = u if isinstance(u, ChevalleyWord) else model.factorize(u, ordering_id)
    supp = sorted(word.support(), key=lambda r: (rs.height(r), r))
    if alpha not in supp or beta not in supp:
        return False
    want = tuple(sorted((alpha, beta)))
    h_target = rs.height(target)

    bad = []

    def walk(start, total, h, chosen):
        if total == target and len(chosen) >= 2:
            if tuple(sorted(chosen)) != want:
                bad.append(tuple(chosen))
                return True
        if h >= h_target:
            return False
        for k in range(start, len(supp)):
            r = supp[k]
            nh = h + rs.height(r)
            if nh > h_target:
                continue
            if walk(k, root_add(total, r), nh, chosen + [r]):
                return True
        return False

    zero = tuple([0] * rs.n)
    walk(0, zero, 0, [])
    return not bad


# ---------------------------------------------------------------------------
# torus witnesses


class HypothesisError(ValueError):
    "The stated hypotheses of the construction exclude these parameters."


class ConstructionBug(AssertionError):
    "A witness that the construction guarantees failed verification."


class TorusWitness(NamedTuple):
    """A torus element t with 1 != a(t) != b(t), exponent-certified.

    alpha/beta are the roles after any length-driven interchange; exponents
    are taken modulo the order of the relevant multiplicative group.
    """
    alpha: Root
    beta: Root
    swapped: bool
    modulus: int
    alpha_exp: int
    beta_exp: int
    case: str
    torus: TorusElt | None = None

    def check(self):
        a, b = self.alpha_exp % self.modulus, self.beta_exp % self.modulus
        if a == 0 or a == b:
            raise ConstructionBug("witness inequalities fail at exponent level")
        return True


def torus_witness(alpha: Root, beta: Root, q: int, case: str = "chevalley",
                   model: SymplecticModel | None = None) -> TorusWitness:
    """Torus witness for the type-D construction: t with 1 != a(t) != b(t).

    chevalley: q odd, t = b^vee(zeta) for zeta generating F_q^x, with beta
    taken longest and roles interchanged in the orthogonal branch (which
    needs q > 3).  su3: the twisted rank-2 case over F_{q^2}, exponent level
    plus the explicit diagonal matrix in the unitary model.
    """
    if case == "su3":
        return _torus_witness_twisted(q)
    if case != "chevalley":
        raise ValueError(f"unknown case {case!r}")
    if q % 2 == 0:
        raise HypothesisError("the torus type-D construction needs odd q")
    if dot(alpha, beta) == 0 and q <= 3:
        raise HypothesisError("orthogonal pairs need q > 3")
    swapped = False
    if dot(alpha, alpha) != dot(beta, beta) and dot(alpha, alpha) > dot(beta, beta):
        alpha, beta = beta, alpha
        swapped = True
    coroot_root = beta          # t = beta^vee(zeta) for the longest beta
    r = cartan(alpha, beta)
    mod = q - 1
    a_exp, b_exp = r % mod, 2 % mod
    if a_exp == 0 or a_exp == b_exp:
        # orthogonal branch: interchange the roles; beta(t) = zeta^2 != 1
        alpha, beta = beta, alpha
        a_exp, b_exp = b_exp, a_exp
        swapped = not swapped
        if a_exp == 0 or a_exp == b_exp:
            raise ConstructionBug("no torus witness inside the hypotheses")
    torus = None
    if model is not None:
        F = model.field
        torus = model.torus(((coroot_root, F.generator),))
        _verify_torus_action(model, torus, alpha, a_exp)
        _verify_torus_action(model, torus, beta, b_exp)
    w = TorusWitness(alpha, beta, swapped, mod, a_exp, b_exp, "chevalley", torus)
    w.check()
    return w


def _verify_torus_action(model: SymplecticModel, t: TorusElt, root: Root, exp: int):
    "Conjugation check: t x_r(a) t^-1 = x_r(zeta^exp a) for sample a."
    F = model.field
    zeta = F.generator if F.q > 2 else 1
    val = F.pow(zeta, exp)
    for a in {1, F.generator}:
        lhs = t.mat * model.x(root, a) * t.mat.inverse()
        if lhs != model.x(root, F.mul(val, a)):
            raise ConstructionBug("torus action disagrees with the exponent")


def _torus_witness_twisted(q: int) -> TorusWitness:
    if q % 2 == 0 or q < 3:
        raise HypothesisError("the twisted rank-2 case needs odd q >= 3")
    mod = q * q - 1
    # t = b^vee(xi) a^vee(xi^q) for xi generating F_{q^2}^x
    a_exp = (2 * q - 1) % mod
    b_exp = (2 - q) % mod
    su3 = su3_model(q)
    t = su3.torus_pair(e_beta=1, e_alpha=q)
    su3.verify_diagonal_action(t, a_exp, b_exp)
    w = TorusWitness((1, -1, 0), (0, 1, -1), False, mod, a_exp, b_exp, "su3", None)
    w.check()
    return w


class FamilyRefusal(ValueError):
    "Excluded q, with the exhibited congruence collision."

    def __init__(self, message, collision):
        super().__init__(message)
        self.collision = collision


class TorusFamily(NamedTuple):
    "Four torus elements whose value pairs separate as in the 4-subrack test."
    case: str
    modulus: int
    exponent_pairs: tuple      # ((alpha_exp, beta_exp), ...) for t_1..t_4
    alpha: Root | None
    beta: Root | None
    swapped: bool
    torus_mats: tuple = ()

    def check(self):
        M = self.modulus
        for a in range(4):
            for b in range(a + 1, 4):
                Aa, Ba = self.exponent_pairs[a]
                Ab, Bb = self.exponent_pairs[b]
                if (Aa + Bb - Ab - Ba) % M == 0:
                    raise ConstructionBug(
                        f"separation fails for t_{a+1}, t_{b+1}")
        return True


def _split_family_collision(q: int):
    mod = q - 1
    for r in (1, 2, 3):
        seen = {}
        for a in range(4):
            v = (r * a) % mod
            if v in seen:
                return (r, seen[v], a, mod)
            seen[v] = a
    return None


def torus_family(alpha: Root | None, beta: Root | None, q: int,
                  case: str = "chevalley",
                  model: SymplecticModel | None = None) -> TorusFamily:
    """Four torus elements satisfying the separation inequality for (alpha,
    beta), for the type-F construction.

    chevalley: t_a = a^vee(zeta^(a-1)) with alpha longest; requires q not in
    {2,3,4,5,7} and refuses excluded q with the congruence collision shown.
    su3: the twisted pairs over F_{q^2}; requires q not in {2,5,8}.
    """
    if case == "chevalley":
        if q in (2, 3, 4, 5, 7):
            col = _split_family_collision(q)
            r, a, b, mod = col
            raise FamilyRefusal(
                f"q = {q} is excluded: {r}*{a} == {r}*{b} (mod {mod})", col)
        swapped = False
        if dot(alpha, alpha) != dot(beta, beta) and dot(beta, beta) > dot(alpha, alpha):
            alpha, beta = beta, alpha
            swapped = True
        m = cartan(beta, alpha)
        mod = q - 1
        pairs = tuple(((2 * e) % mod, (m * e) % mod) for e in range(4))
        mats = ()
        if model is not None:
            F = model.field
            ts = [model.torus(((alpha, F.pow(F.generator, e)),)) for e in range(4)]
            for t, (ae, be) in zip(ts, pairs):
                _verify_torus_action(model, t, alpha, ae)
                _verify_torus_action(model, t, beta, be)
            mats = tuple(t.mat for t in ts)
        fam = TorusFamily("chevalley", mod, pairs, alpha, beta, swapped, mats)
        fam.check()
        return fam

    if case == "su3":
        if q in (2, 5, 8):
            # 3(a-b) = 0 (mod q+1) collides for some pair
            k = (q + 1) // math.gcd(3, q + 1)
            raise FamilyRefusal(
                f"q = {q} is excluded: 3*{k} == 0 (mod {q + 1})", (3, 0, k, q + 1))
        mod = q * q - 1
        pairs = tuple((((a) * (2 - q)) % mod, ((a) * (2 * q - 1)) % mod)
                      for a in range(4))
        su3 = su3_model(q)
        mats = []
        for a in range(4):
            t = su3.torus_pair(e_beta=a * q, e_alpha=a)
            su3.verify_diagonal_action(t, pairs[a][0], pairs[a][1])
            mats.append(t)
        fam = TorusFamily("su3", mod, pairs, None, None, False, tuple(mats))
        fam.check()
        return fam

    raise ValueError(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# the twisted rank-2 unitary model


class SU3Model:
    """SU_3(q) inside SL_3(q^2): the fixed points of X -> J ^t Fr_q(X)^-1 J.

    Upper unitriangular members are X(a, b) = [[1, a, b], [0, 1, -a^q],
    [0, 0, 1]] with b + b^q = -a^(1+q); there are q^3 of them.
    """

    def __init__(self, q: int):
        p, m = prime_power(q, RootError)
        self.q = q
        self.p, self.m = p, m
        self.field = make_field(p, 2 * m)

    def _norm(self, a: int) -> int:
        F = self.field
        return F.mul(a, F.pow(a, self.q))

    def _trace_rhs(self, a: int) -> int:
        F = self.field
        return F.neg(self._norm(a))

    def b_solutions(self, a: int) -> list[int]:
        "All b with b + b^q = -a^(1+q), in code order."
        F = self.field
        rhs = self._trace_rhs(a)
        return [b for b in range(F.q)
                if F.add(b, F.pow(b, self.q)) == rhs]

    def unipotent(self, a: int, b: int) -> Mat:
        F = self.field
        rows = [[1, a, b], [0, 1, F.neg(F.pow(a, self.q))], [0, 0, 1]]
        return Mat(F, 3, [x for row in rows for x in row])

    def u_elements(self):
        for a in range(self.field.q):
            for b in self.b_solutions(a):
                yield self.unipotent(a, b)

    def regular_rep(self) -> Mat:
        "Least regular unipotent of the upper unitriangular subgroup."
        for u in self.u_elements():
            if u.flat[1]:          # a != 0 means two Jordan blocks collapse
                return u
        raise GroupError("no regular unipotent found")

    def j(self) -> Mat:
        return Mat(self.field, 3, (0, 0, 1, 0, 1, 0, 1, 0, 0))

    def su_torus(self, z: int) -> Mat:
        F = self.field
        d = (z, F.pow(z, self.q - 1), F.pow(z, -self.q))
        return Mat(F, 3, (d[0], 0, 0, 0, d[1], 0, 0, 0, d[2]))

    def torus_pair(self, e_beta: int, e_alpha: int) -> Mat:
        """beta^vee(zeta^e_beta) alpha^vee(zeta^e_alpha) as a diagonal of
        SL_3(q^2), for zeta the generator of F_{q^2}^x; the coroots are the
        standard diag(z, 1/z, 1) and diag(1, w, 1/w)."""
        F = self.field
        z = F.pow(F.generator, e_alpha)
        w = F.pow(F.generator, e_beta)
        return Mat(F, 3, (z, 0, 0, 0, F.mul(F.inv(z), w), 0, 0, 0, F.inv(w)))

    def verify_diagonal_action(self, t: Mat, alpha_exp: int, beta_exp: int):
        """The simple root values of a diagonal t = diag(d1, d2, d3) are
        d1/d2 and d2/d3; check them against the claimed exponents."""
        F = self.field
        d1, d2, d3 = t.flat[0], t.flat[4], t.flat[8]
        if F.div(d1, d2) != F.pow(F.generator, alpha_exp):
            raise ConstructionBug("alpha value disagrees with the exponent")
        if F.div(d2, d3) != F.pow(F.generator, beta_exp):
            raise ConstructionBug("beta value disagrees with the exponent")

    def group_generators(self) -> list[Mat]:
        F = self.field
        gens = []
        for a in _field_basis_scalars(F):
            b = self.b_solutions(a)[0]
            gens.append(self.unipotent(a, b))
        for b in self.b_solutions(0):
            if b:
                gens.append(self.unipotent(0, b))
        J = self.j()
        gens += [J * g * J for g in list(gens)]
        if F.q > 2:
            gens.append(self.su_torus(F.generator))
        return gens

    def gu_torus_extension(self) -> Mat:
        "A determinant-spanning torus element extending SU_3(q) to GU_3(q)."
        F = self.field
        z = F.generator
        return Mat(F, 3, (z, 0, 0, 0, 1, 0, 0, 0, F.pow(z, -self.q)))


@functools.lru_cache(maxsize=None)
def su3_model(q: int) -> SU3Model:
    return SU3Model(q)
