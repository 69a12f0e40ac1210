"""Small finite fields GF(q) for q <= 9, as explicit add/mul tables.

GF(p^k) is GF(p)[x] modulo a fixed monic irreducible polynomial of degree k;
a prime q is the degree-1 case.  Elements are encoded as 0..q-1, the base-p
digits of a polynomial's coefficients, lowest degree first.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NotPrimePowerError

# q -> (p, coefficients of a monic irreducible polynomial over GF(p), lowest
# degree first, without the leading 1): x, x^2+x+1, x^3+x+1, x^2+1
_FIELDS = {
    2: (2, (0,)), 3: (3, (0,)), 5: (5, (0,)), 7: (7, (0,)),
    4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (1, 0)),
}


@lru_cache(maxsize=None)
def field(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The (add, mul) tables of GF(q): a + b is add[a][b], a * b is mul[a][b]."""
    if q not in _FIELDS:
        raise NotPrimePowerError(f"q={q} is not a prime power <= 9")
    p, red = _FIELDS[q]
    k = len(red)
    digits = [[a // p**i % p for i in range(k)] for a in range(q)]

    def encode(coeffs) -> int:
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def times(da, db) -> int:
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        for deg in range(2 * k - 2, k - 1, -1):  # x^k = -(red polynomial)
            for j, r in enumerate(red):
                prod[deg - k + j] -= prod[deg] * r
        return encode(prod[:k])

    add = tuple(tuple(encode(map(sum, zip(da, db))) for db in digits) for da in digits)
    mul = tuple(tuple(times(da, db) for db in digits) for da in digits)
    return add, mul


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
