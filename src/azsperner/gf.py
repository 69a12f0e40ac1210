"""Small finite fields GF(q) for q <= 9, as explicit add/mul tables.

Prime q uses modular arithmetic; q in {4, 8, 9} builds the tables once from a
fixed irreducible polynomial over the base prime.  Elements are encoded as
0..q-1 (base-p digit encoding of polynomial coefficients).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NotPrimePowerError

# coefficients of a monic irreducible polynomial, lowest degree first,
# excluding the leading 1: x^2+x+1, x^3+x+1, x^2+1
_IRREDUCIBLE = {4: (1, 1), 8: (1, 1, 0), 9: (1, 0)}

_PRIMES = (2, 3, 5, 7)


def _digits(x: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return tuple(out)


def _undigits(ds: tuple[int, ...], p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


class GF:
    """Arithmetic in GF(q); add/mul/neg are total on 0..q-1."""

    def __init__(self, q: int):
        if q in _PRIMES:
            self.q = q
            self.p = q
            self.k = 1
            self._add = None
            self._mul = None
        elif q in _IRREDUCIBLE:
            self.q = q
            self.p = 2 if q in (4, 8) else 3
            self.k = 2 if q in (4, 9) else 3
            self._build_tables()
        else:
            raise NotPrimePowerError(f"q={q} is not a supported prime power (need q <= 9)")

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        red = _IRREDUCIBLE[q]  # x^k = -(red polynomial)
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = _digits(a, p, k)
            for b in range(q):
                db = _digits(b, p, k)
                self._add[a][b] = _undigits(tuple((x + y) % p for x, y in zip(da, db)), p)
        for a in range(q):
            da = _digits(a, p, k)
            for b in range(q):
                db = _digits(b, p, k)
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
                for deg in range(2 * k - 2, k - 1, -1):
                    c = prod[deg]
                    if c:
                        prod[deg] = 0
                        for j, r in enumerate(red):
                            prod[deg - k + j] = (prod[deg - k + j] - c * r) % p
                self._mul[a][b] = _undigits(tuple(prod[:k]), p)

    def add(self, a: int, b: int) -> int:
        if self._add is None:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self._add is None:
            return (-a) % self.p
        return next(b for b in range(self.q) if self._add[a][b] == 0)

    def mul(self, a: int, b: int) -> int:
        if self._mul is None:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def vec_add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.add(a, b) for a, b in zip(u, v))

    def vec_scale(self, c: int, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.mul(c, a) for a in u)


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)


def is_prime_power(q: int) -> bool:
    return q in _PRIMES or q in _IRREDUCIBLE


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n: the product of
    (q^(n-i) - 1) / (q^(i+1) - 1) over i < k, exact at every step."""
    if k < 0 or k > n:
        return 0
    if q == 1:
        return math.comb(n, k)
    out = 1
    for i in range(min(k, n - k)):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out
