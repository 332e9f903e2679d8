"""Exact arithmetic in small finite fields F_{p^m}, including extension towers.

An element of F_{p^m} is encoded as an integer in [0, p^m): the base-p
digits of the code are the coefficients of its residue polynomial, constant
term first.  The encoding is canonical, so two elements are equal iff their
codes are equal.  Cross-field arithmetic is rejected; move elements between
fields explicitly through `embedding`.

Fields are constructed through `make_field`, which picks the canonical
modulus: the monic irreducible polynomial of degree m whose non-leading
coefficient vector has the least integer code.  This makes every matrix
built downstream reproducible bit for bit.
"""

from __future__ import annotations

import functools
from typing import Iterable

# every field carries full addition and multiplication tables; matrices
# pack their entries into bytes, so a field has at most 256 elements
MAX_Q = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factorize(n: int) -> list[int]:
    "Distinct prime factors of n (n fits the desk-scale bound)."
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficients low degree first


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    "f mod g, g monic."
    f = f[:]
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        c = f[-1]
        if c:
            shift = len(f) - 1 - dg
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - c * gi) % p
        f.pop()
    return _poly_trim(f)


def _poly_mulmod(f: list[int], g: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_mod(out, mod, p)


def _poly_divides(d: list[int], f: list[int], p: int) -> bool:
    "Does monic d divide f?"
    return not _poly_mod(f, d, p)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility by trial division against every monic polynomial of
    degree 1..deg(f)//2.  Only run at field construction; desk scale."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            cand = _code_to_poly(code, p) + [0] * d
            cand = cand[:d] + [1]
            if _poly_divides(cand, f, p):
                return False
    return True


def _code_to_poly(code: int, p: int) -> list[int]:
    out = []
    while code:
        out.append(code % p)
        code //= p
    return out


def _poly_to_code(f: Iterable[int], p: int) -> int:
    code = 0
    for c in reversed(list(f)):
        code = code * p + c
    return code


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    "Least-code monic irreducible of degree m over F_p."
    if m == 1:
        return (0, 1)
    for low in range(p**m):
        f = _code_to_poly(low, p)
        f += [0] * (m - len(f))
        f = f + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class FieldError(ValueError):
    pass


def prime_power(q: int, error: type[Exception] = FieldError) -> tuple[int, int]:
    "(p, m) with q = p^m; raises `error` when q is not a prime power."
    primes = _factorize(q)
    if len(primes) != 1:
        raise error("q must be a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


class Field:
    """The field F_{p^m} with its canonical modulus and a fixed generator.

    Elements are integer codes.  All tables are immutable after
    construction, so a Field is safe to share.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "generator",
        "exp", "log", "_mul_t", "_add_t", "_inv_t", "_neg_t",
    )

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree m = {m} must be >= 1")
        q = p**m
        if q > MAX_Q:
            raise FieldError(f"q = {q} exceeds the bound {MAX_Q}")
        self.p, self.m, self.q = p, m, q
        self.modulus = _canonical_modulus(p, m)

        # exp/log tables for the least primitive element
        self.generator = self._find_generator()
        exp = [0] * max(q - 1, 1)
        g = self.generator
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            acc = self._mul_poly(acc, g)
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        self.exp, self.log = exp, log

        self._add_t = [self._add_poly(a, b) for a in range(q) for b in range(q)]
        self._mul_t = [self._mul_poly(a, b) for a in range(q) for b in range(q)]
        self._neg_t = [self._neg_poly(a) for a in range(q)]
        self._inv_t = [0] + [self.pow(a, q - 2) for a in range(1, q)]

    # -- raw polynomial arithmetic (used to bootstrap the tables)

    def _add_poly(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _neg_poly(self, a: int) -> int:
        p, out, mult = self.p, 0, 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def _mul_poly(self, a: int, b: int) -> int:
        fa = _code_to_poly(a, self.p)
        fb = _code_to_poly(b, self.p)
        return _poly_to_code(_poly_mulmod(fa, fb, list(self.modulus), self.p), self.p)

    def _find_generator(self) -> int:
        n = self.q - 1
        if n == 1:
            return 1
        primes = _factorize(n)
        for cand in range(2, self.q):
            acc = cand
            ok = True
            for ell in primes:
                # cand^(n/ell) by square-and-multiply over _mul_poly
                e = n // ell
                r, base = 1, cand
                while e:
                    if e & 1:
                        r = self._mul_poly(r, base)
                    base = self._mul_poly(base, base)
                    e >>= 1
                if r == 1:
                    ok = False
                    break
            if ok:
                return cand
        raise AssertionError("no generator found")

    # -- public arithmetic on codes

    def add(self, a: int, b: int) -> int:
        return self._add_t[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv_t[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        if self.q == 2:
            return 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def frobenius(self, a: int, r: int = 1) -> int:
        "a^(p^r); a field automorphism fixing the prime field."
        if a == 0 or self.q == 2:
            return a
        return self.pow(a, pow(self.p, r % self.m, self.q - 1))

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def least_nonsquare(self) -> int:
        if self.p == 2:
            raise FieldError("every element of an even-order field is a square")
        for a in range(1, self.q):
            if not self.is_square(a):
                return a
        raise AssertionError

    # -- element helpers

    def coeffs(self, code: int) -> tuple[int, ...]:
        f = _code_to_poly(code, self.p)
        return tuple(f + [0] * (self.m - len(f)))

    def format_element(self, code: int) -> str:
        """Report format: plain integers for prime fields, 'g^k' discrete-log
        form otherwise."""
        if self.m == 1:
            return str(code)
        if code == 0:
            return "0"
        if code == 1:
            return "1"
        return f"g^{self.log[code]}"

    def header(self) -> dict:
        "Per-report header naming the field, for the textual element format."
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"F{self.q}" if self.m == 1 else f"F{self.q}(=F_{self.p}^{self.m})"


def make_field(p: int, m: int = 1) -> Field:
    """F_{p^m} with the canonical (least-code) irreducible modulus.

    Deterministic for fixed (p, m); the returned object is a process-wide
    singleton, so `is` comparisons are meaningful.
    """
    return _field(p, m)


@functools.lru_cache(maxsize=None)
def _field(p: int, m: int) -> Field:
    # keyed on (p, m) alone: make_field(3), make_field(3, 1) and
    # make_field(p=3, m=1) must share one cache entry
    return Field(p, m)


class Embedding:
    """The canonical field embedding F_{p^a} -> F_{p^b} for a | b.

    Maps the source generator polynomial's root x to the least root of the
    source modulus in the target field; this is a ring homomorphism onto
    the unique subfield of order p^a.
    """

    __slots__ = ("src", "dst", "root", "table", "_down")

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p or dst.m % src.m:
            raise FieldError(f"no embedding {src} -> {dst}")
        self.src, self.dst = src, dst
        self.root = self._find_root()
        self.table = [self._image(a) for a in range(src.q)]
        self._down = {v: a for a, v in enumerate(self.table)}

    def _find_root(self) -> int:
        mod = self.src.modulus
        for cand in range(self.dst.q):
            acc = 0
            for c in reversed(mod):  # Horner
                acc = self.dst.add(self.dst.mul(acc, cand), c % self.dst.p)
            if acc == 0:
                return cand
        raise AssertionError("modulus has no root in the extension")

    def _image(self, code: int) -> int:
        acc = 0
        for c in reversed(self.src.coeffs(code)):
            acc = self.dst.add(self.dst.mul(acc, self.root), c)
        return acc

    def apply(self, code: int) -> int:
        return self.table[code]

    def descend(self, code: int) -> int:
        "Partial inverse; raises if the value is outside the subfield."
        try:
            return self._down[code]
        except KeyError:
            raise FieldError(f"value {code} of {self.dst} is not in the image of {self.src}")


@functools.lru_cache(maxsize=None)
def embedding(p: int, m_src: int, m_dst: int) -> Embedding:
    return Embedding(make_field(p, m_src), make_field(p, m_dst))
