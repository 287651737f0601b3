"""Finite field arithmetic for small orders, plus q-analog combinatorics.

Elements of F_q (q = p^k) are encoded as integers 0..q-1 via base-p
packing of polynomial coefficients: n = sum(c_i * p^i) represents the
residue class of sum(c_i * t^i) modulo a fixed irreducible polynomial.
Fixed moduli per order keep encodings reproducible across runs:

    F4 : t^2 + t + 1
    F8 : t^3 + t + 1
    F9 : t^2 + 1

All arithmetic is table-driven; tables are tiny at these orders.  The
add and mul tables also exist as flat int64 arrays, add_flat[a * q + b]
and mul_flat[a * q + b], for vectorised lookups over whole stacks of
vectors (geometry.syndrome_keys); they are exact for every order,
prime or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)

# modulus coefficient lists (c0, c1, ..., 1), low degree first
_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


class FiniteField:
    """A finite field F_q with table-driven arithmetic on integer codes."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        if k > 1:
            self._check_irreducible()
        self._build_tables()

    def _check_irreducible(self) -> None:
        # degree <= 3 here, so having no roots in F_p suffices
        for a in range(self.p):
            if sum(c * a**i for i, c in enumerate(self.modulus)) % self.p == 0:
                raise ValueError(f"modulus {self.modulus} has root {a} mod {self.p}")

    def _coeffs(self, n: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(n % self.p)
            n //= self.p
        return out

    def _encode(self, coeffs: list[int]) -> int:
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + c % self.p
        return n

    def _poly_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        ca, cb = self._coeffs(a), self._coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        # reduce modulo the monic modulus
        for d in range(len(prod) - 1, k - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(self.k + 1):
                    prod[d - self.k + i] -= c * self.modulus[i]
            prod[d] = 0
        return self._encode([c % p for c in prod[:k]])

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        if self.k == 1:
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            self.add_table = [
                [self._encode([(x + y) % p for x, y in zip(self._coeffs(a), self._coeffs(b))])
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul_table = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self.add_flat = np.array(self.add_table, dtype=np.int64).reshape(-1)
        self.mul_flat = np.array(self.mul_table, dtype=np.int64).reshape(-1)
        self.add_flat.flags.writeable = False
        self.mul_flat.flags.writeable = False
        self.neg_table = [next(b for b in range(q) if self.add_table[a][b] == 0) for a in range(q)]
        self.inv_table = [0] + [
            next(b for b in range(1, q) if self.mul_table[a][b] == 1) for a in range(1, q)
        ]
        if self.k % 2 == 0:
            q0 = self.p ** (self.k // 2)
            self.q0 = q0
            self.conj_table = [self.power(a, q0) for a in range(q)]
        else:
            self.q0 = None
            self.conj_table = None

    # -- element operations on integer codes --

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def power(self, a: int, n: int) -> int:
        r = 1
        for _ in range(n):
            r = self.mul_table[r][a]
        return r

    def conj(self, a: int) -> int:
        """The involutive automorphism a -> a^q0 (order must be a square)."""
        if self.conj_table is None:
            raise ValueError(f"F_{self.q} has no square order; conjugation undefined")
        return self.conj_table[a]

    def elements(self) -> range:
        return range(self.q)

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.q, self)

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"


@dataclass(frozen=True)
class FieldElement:
    """A field element bound to its field; arithmetic rejects mixed fields."""

    value: int
    field: FiniteField = dc_field(repr=False)

    def _other(self, b: "FieldElement") -> int:
        if b.field is not self.field:
            raise ValueError("elements belong to different fields")
        return b.value

    def __add__(self, b: "FieldElement") -> "FieldElement":
        return FieldElement(self.field.add(self.value, self._other(b)), self.field)

    def __sub__(self, b: "FieldElement") -> "FieldElement":
        return FieldElement(self.field.sub(self.value, self._other(b)), self.field)

    def __mul__(self, b: "FieldElement") -> "FieldElement":
        return FieldElement(self.field.mul(self.value, self._other(b)), self.field)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field.neg(self.value), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """Construct (and memoize) F_{p^k} for a supported order."""
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    q = p**k
    if q not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
    modulus = _MODULI.get((p, k), ())
    return FiniteField(p, k, modulus)


def field_of_order(q: int) -> FiniteField:
    if q < 2:
        raise ValueError(f"unsupported field order {q}")
    for p in (2, 3, 5, 7):
        k = 0
        n = q
        while n % p == 0:
            n //= p
            k += 1
        if n == 1 and k > 0:
            return make_field(p, k)
    raise ValueError(f"unsupported field order {q}")


def conjugate(a: FieldElement) -> FieldElement:
    """Apply the involutive automorphism x -> x^q0 of a square-order field."""
    return FieldElement(a.field.conj(a.value), a.field)


def gauss_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for t in range(k):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    if num % den:
        raise AssertionError(f"Gaussian binomial [{n} choose {k}]_{q} is not integral")
    return num // den


def e_power(config, numerator2e: int) -> int:
    """Evaluate q^(numerator2e / 2) exactly as an integer.

    All half-integer exponents in the closed forms are carried as doubled
    integers.  The base is q0 = sqrt(q) for the unitary case and q
    otherwise; a request with an odd doubled exponent outside the unitary
    case signals an internal bookkeeping bug.
    """
    if numerator2e < 0:
        raise ValueError(f"negative exponent {numerator2e}/2; use e_power_frac")
    if getattr(config, "case", None) == "unitary":
        return config.q0**numerator2e
    if numerator2e % 2:
        raise ValueError(f"half-integer power q^{numerator2e}/2 with no square root available")
    return config.q ** (numerator2e // 2)


def e_power_frac(config, numerator2e: int) -> Fraction:
    """Like e_power but total on negative exponents (exact rational)."""
    if getattr(config, "case", None) == "unitary":
        return Fraction(config.q0) ** numerator2e
    if numerator2e % 2:
        raise ValueError(f"half-integer power q^{numerator2e}/2 with no square root available")
    return Fraction(config.q) ** (numerator2e // 2)


def binomial2(n: int) -> int:
    """C(n, 2), total on all integers (0 for n < 2)."""
    return comb(n, 2) if n >= 2 else 0
