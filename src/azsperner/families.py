"""Generators for the poset families used throughout: Boolean lattices, star
powers, subspace and affine posets over GF(q), chain products, divisor
lattices, truncations, direct products, and the two six-element
counterexample posets.

Each generator is a pure function returning a validated RankedPoset.  Element
counts are capped at desk scale because everything downstream is exhaustive.
The subspace lattice and the affine poset share one enumeration of the
subspaces of GF(q)^n, on the field tables of `gf`, and one builder of the
covers by inclusion.

Each spec kind has a level-size oracle that makes its generator's checks.
One kind table and one recursive planner serve `parse_poset_spec` and
`whitney_oracle`: a spec is parsed, sized and range-checked through
trunc(...) and prod(...), and every refusal is raised, before anything is
built.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, combinations, product as iproduct
from typing import Callable

from .core import ELEMENT_CAP, RankedPoset, build_poset
from .errors import PosetError, RankOutOfRangeError, SizeLimitError
from .gf import field, gaussian_binomial

TRIAL_DIVISION_CAP = 10**6
# deepest trunc(...)/prod(...) nesting a spec may have; each level is one recursive call
NESTING_CAP = 100


def _check_dimension(what: str, n: int) -> None:
    """Refuse a negative dimension, and 2^n or more elements past the cap
    before computing the exact, huge size."""
    if n < 0:
        raise PosetError(f"{what} needs n >= 0, got {n}")
    if n >= ELEMENT_CAP.bit_length():
        raise SizeLimitError(f"{what} has at least 2^{n} elements (> {ELEMENT_CAP})")


def _capped(what: str, sizes: list[int]) -> list[int]:
    """The level sizes of a poset, or a SizeLimitError if it is past the cap."""
    count = sum(sizes)
    if count > ELEMENT_CAP:
        raise SizeLimitError(f"{what} has {count} elements (> {ELEMENT_CAP})")
    return sizes


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The level sizes of the product of posets with level sizes a and b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _boolean_sizes(n: int) -> list[int]:
    _check_dimension("boolean lattice", n)  # 2^n is the size, so this is the cap check
    return [math.comb(n, i) for i in range(n + 1)]


def gen_boolean(n: int) -> RankedPoset:
    """The Boolean lattice of subsets of {1..n}; rank is cardinality."""
    _boolean_sizes(n)
    size = 1 << n
    elements = [(m, bin(m).count("1")) for m in range(size)]
    covers = []
    for m in range(size):
        for j in range(n):
            if not (m >> j) & 1:
                covers.append((m, m | (1 << j)))
    labels = ["{" + ",".join(str(j + 1) for j in range(n) if (m >> j) & 1) + "}" for m in range(size)]
    return build_poset(elements, covers, name=f"boolean:{n}", labels=labels)


def _star_sizes(k: int, n: int) -> list[int]:
    if k < 1 or n < 1:
        raise PosetError("star power needs k >= 1 and n >= 1")
    _check_dimension("star power", n)
    return _capped("star power", [math.comb(n, i) * k**i for i in range(n + 1)])


def gen_star_power(k: int, n: int) -> RankedPoset:
    """n-fold product of a one-bottom, k-top star; rank counts nonzero coordinates.

    Tuples in {0..k}^n with x <= y iff x agrees with y on every nonzero
    coordinate of x.
    """
    _star_sizes(k, n)
    tuples = list(iproduct(range(k + 1), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    elements = [(i, sum(1 for c in t if c)) for i, t in enumerate(tuples)]
    covers = []
    for t, i in index.items():
        for j, c in enumerate(t):
            if c:
                lower = t[:j] + (0,) + t[j + 1 :]
                covers.append((index[lower], i))
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return build_poset(elements, covers, name=f"star:{k},{n}", labels=labels)


def _chain_sizes(sizes: list[int] | tuple[int, ...]) -> list[int]:
    if not sizes or any(s < 1 for s in sizes):
        raise PosetError("chain sizes must be positive")
    if list(sizes) != sorted(sizes, reverse=True):
        raise PosetError("chain sizes must be non-increasing")
    if math.prod(sizes) > ELEMENT_CAP:
        raise SizeLimitError(f"chain product has more than {ELEMENT_CAP} elements")
    # a one-element chain leaves the sizes as they are
    return reduce(_convolve, ([1] * s for s in sizes if s > 1), [1])


def gen_chain_product(sizes: list[int] | tuple[int, ...]) -> RankedPoset:
    """Product of chains with the given (non-increasing) element counts.

    Rank is the coordinate sum.
    """
    sizes = tuple(sizes)
    _chain_sizes(sizes)
    tuples = list(iproduct(*(range(s) for s in sizes)))
    index = {t: i for i, t in enumerate(tuples)}
    elements = [(i, sum(t)) for i, t in enumerate(tuples)]
    covers = []
    for t, i in index.items():
        for j, c in enumerate(t):
            if c + 1 < sizes[j]:
                upper = t[:j] + (c + 1,) + t[j + 1 :]
                covers.append((i, index[upper]))
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return build_poset(elements, covers, name="chains:" + ",".join(map(str, sizes)), labels=labels)


@cache  # a divisor spec's plan and its generator both read the factorization
def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of m in ascending prime order, by trial division
    up to min(sqrt(m), TRIAL_DIVISION_CAP); a larger cofactor is refused."""
    modulus = m
    factors = []
    f = 2
    while f * f <= m and f <= TRIAL_DIVISION_CAP:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            factors.append((f, e))
        f += 1
    if m >= TRIAL_DIVISION_CAP**2:
        raise SizeLimitError(
            f"divisor:{modulus}: cofactor {m} has no prime factor up to {TRIAL_DIVISION_CAP}"
            " and is too large to certify prime"
        )
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def _divisor_sizes(m: int) -> list[int]:
    """The product of chains of lengths e+1 over the prime powers p^e of m."""
    if m < 1:
        raise PosetError("modulus must be positive")
    chains = [e + 1 for _, e in _factorize(m)]
    if math.prod(chains) > ELEMENT_CAP:
        raise SizeLimitError("too many divisors")
    return reduce(_convolve, ([1] * c for c in chains), [1])


def gen_divisor_lattice(m: int) -> RankedPoset:
    """Divisors of m under divisibility; rank counts prime factors with multiplicity.

    The divisors come from the factorization of m, ids in ascending order.
    """
    _divisor_sizes(m)
    factors = _factorize(m)
    omega = {1: 0}
    for p, e in factors:
        omega = {d * p**k: w + k for d, w in omega.items() for k in range(e + 1)}
    divisors = sorted(omega)
    index = {d: i for i, d in enumerate(divisors)}
    elements = [(i, omega[d]) for i, d in enumerate(divisors)]
    covers = [(index[d], index[d * p]) for d in divisors for p, _ in factors if (m // d) % p == 0]
    labels = [str(d) for d in divisors]
    return build_poset(elements, covers, name=f"divisor:{m}", labels=labels)


# -- subspace machinery ----------------------------------------------------


def _vec_label(v) -> str:
    return "".join(map(str, v))


def _subspaces(n: int, q: int):
    """Yield (vectors, dimension, label) for every subspace of GF(q)^n, in the
    order of dimension, pivot columns and free entries of its reduced
    row-echelon basis; the label lists that basis."""
    add, mul = field(q)
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free_pos = [
                (i, j) for i in range(k) for j in range(n) if j > pivots[i] and j not in pivots
            ]
            for values in iproduct(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                vectors = [(0,) * n]
                for row in rows:
                    multiples = [[mul[c][x] for x in row] for c in range(q)]
                    vectors = [
                        tuple(add[a][b] for a, b in zip(v, m)) for v in vectors for m in multiples
                    ]
                yield frozenset(vectors), k, "[" + " ".join(map(_vec_label, rows)) + "]"


def _subspace_sizes(n: int, q: int) -> list[int]:
    field(q)  # refuses a q that is not a supported prime power
    _check_dimension("subspace lattice", n)
    return _capped("subspace lattice", [gaussian_binomial(n, k, q) for k in range(n + 1)])


def _affine_sizes(n: int, q: int) -> list[int]:
    field(q)
    _check_dimension("affine poset", n)
    sizes = [gaussian_binomial(n, k, q) * q ** (n - k) for k in range(n + 1)]
    return _capped("affine poset", sizes)


def _inclusion_poset(sets: list[tuple[frozenset, int, str]], name: str) -> RankedPoset:
    """(set, rank, label) triples ordered by inclusion; the ranks are
    dimensions, so each cover joins sets of consecutive ranks."""
    by_rank: dict[int, list[int]] = {}
    for i, (_, k, _) in enumerate(sets):
        by_rank.setdefault(k, []).append(i)
    covers = [
        (i, j)
        for k, lower in by_rank.items()
        for i in lower
        for j in by_rank.get(k + 1, ())
        if sets[i][0] <= sets[j][0]
    ]
    elements = [(i, k) for i, (_, k, _) in enumerate(sets)]
    return build_poset(elements, covers, name=name, labels=[lab for _, _, lab in sets])


def gen_subspace_lattice(n: int, q: int) -> RankedPoset:
    """All subspaces of GF(q)^n ordered by inclusion; rank is dimension."""
    _subspace_sizes(n, q)
    return _inclusion_poset(list(_subspaces(n, q)), f"subspace:{n},{q}")


def gen_affine_poset(n: int, q: int) -> RankedPoset:
    """All affine subspaces (cosets v + U) of GF(q)^n ordered by inclusion.

    Rank is the dimension of the direction space; all q^n points are minimal,
    so there is no universal lower bound.  The cosets of each subspace are
    listed by their least point, which also labels them.
    """
    _affine_sizes(n, q)
    add, _ = field(q)
    points = list(iproduct(range(q), repeat=n))
    cosets = []
    for span, k, label in _subspaces(n, q):
        covered: set[tuple[int, ...]] = set()
        for v in points:
            if v not in covered:
                coset = frozenset(tuple(add[a][b] for a, b in zip(v, u)) for u in span)
                covered |= coset
                cosets.append((coset, k, _vec_label(v) + "+" + label))
    return _inclusion_poset(cosets, f"affine:{n},{q}")


# -- derived constructions ----------------------------------------------------


def _check_range(height: int, lo: int, hi: int) -> None:
    """Refuse a truncation range outside the levels 0..height."""
    if not 0 <= lo < hi <= height:
        raise RankOutOfRangeError(f"need 0 <= lo < hi <= {height}, got ({lo},{hi})")


def truncate(poset: RankedPoset, lo: int, hi: int) -> RankedPoset:
    """Keep levels lo..hi and re-rank from zero."""
    _check_range(poset.height, lo, hi)
    keep = [x for x in range(poset.n) if lo <= poset.ranks[x] <= hi]
    remap = {x: i for i, x in enumerate(keep)}
    elements = [(remap[x], poset.ranks[x] - lo) for x in keep]
    covers = [
        (remap[a], remap[b]) for a, b in poset.covers if a in remap and b in remap
    ]
    labels = [poset.labels[x] for x in keep]
    return build_poset(
        elements, covers, name=f"trunc({poset.name},{lo},{hi})", labels=labels
    )


def product(p: RankedPoset, q: RankedPoset) -> RankedPoset:
    """Direct product with componentwise order; rank is the rank sum."""
    if p.n * q.n > ELEMENT_CAP:
        raise SizeLimitError("product too large")
    nq = q.n
    elements = [
        (x * nq + y, p.ranks[x] + q.ranks[y]) for x in range(p.n) for y in range(q.n)
    ]
    covers = []
    for x in range(p.n):
        for y in range(q.n):
            me = x * nq + y
            for x2 in p.up_adj[x]:
                covers.append((me, x2 * nq + y))
            for y2 in q.up_adj[y]:
                covers.append((me, x * nq + y2))
    labels = [f"({p.labels[x]},{q.labels[y]})" for x in range(p.n) for y in range(q.n)]
    return build_poset(elements, covers, name=f"prod({p.name},{q.name})", labels=labels)


def gen_fig1a() -> RankedPoset:
    """Six-element ranked poset that is normal but not regular.

    Levels z | p,c | a,b | t with covers z<p, z<c, p<a, p<b, c<b, a<t, b<t.
    Its antichain {a, c} makes the upset-boundary identity overshoot (5/4).
    """
    labels = ["z", "p", "c", "a", "b", "t"]
    ranks = [0, 1, 1, 2, 2, 3]
    cover_labels = [("z", "p"), ("z", "c"), ("p", "a"), ("p", "b"), ("c", "b"), ("a", "t"), ("b", "t")]
    idx = {lab: i for i, lab in enumerate(labels)}
    covers = [(idx[a], idx[b]) for a, b in cover_labels]
    return build_poset(list(enumerate(ranks)), covers, name="fig1a", labels=labels)


def gen_fig1b() -> RankedPoset:
    """Six-element ranked poset that is normal and regular but not level-connected.

    Two parallel chains share only the bottom and top: the rank-1/rank-2
    bipartite graph splits into two components.
    """
    labels = ["z", "p", "q", "a", "b", "t"]
    ranks = [0, 1, 1, 2, 2, 3]
    cover_labels = [("z", "p"), ("z", "q"), ("p", "a"), ("q", "b"), ("a", "t"), ("b", "t")]
    idx = {lab: i for i, lab in enumerate(labels)}
    covers = [(idx[a], idx[b]) for a, b in cover_labels]
    return build_poset(list(enumerate(ranks)), covers, name="fig1b", labels=labels)


# -- spec-string parser ----------------------------------------------------


def split_top_level(s: str) -> list[str]:
    """Split on the commas that sit outside every (), {} and [] pair."""
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _spec_ints(spec: str, tokens: list[str], count: int | None) -> list[int]:
    """The integer arguments of a spec, or a PosetError that names the spec."""
    try:
        args = [int(t) for t in tokens]
    except ValueError:
        raise PosetError(f"poset spec {spec!r} needs integer arguments") from None
    if count is not None and len(args) != count:
        raise PosetError(f"poset spec {spec!r} needs {count} integer argument(s), got {len(args)}")
    return args


def _trunc_parts(spec: str) -> tuple[str, int, int]:
    """The inner spec, lo and hi of a trunc(spec,lo,hi) spec."""
    inner = split_top_level(spec[len("trunc(") : -1])
    if len(inner) < 3:
        raise PosetError(f"trunc needs (spec,lo,hi): {spec!r}")
    lo, hi = _spec_ints(spec, inner[-2:], 2)
    return ",".join(inner[:-2]), lo, hi


def _product_parts(spec: str) -> tuple[str, str]:
    """The two factor specs of a prod(spec,spec) spec.  Each factor spec is one
    token that is not an integer, then its integer arguments, so the second
    factor starts at the only such token after the first."""
    inner = split_top_level(spec[len("prod(") : -1])
    cuts = [cut for cut in range(1, len(inner)) if not _is_int(inner[cut])]
    if len(cuts) != 1:
        raise PosetError(f"cannot split product spec {spec!r}: it needs two factor specs")
    return ",".join(inner[: cuts[0]]), ",".join(inner[cuts[0] :])


# spec kind -> (integer arguments, None for one or more; level-size oracle,
# which makes the generator's checks; generator, looked up when it is called).
# A chains spec passes its sizes as one sequence.
_KINDS = {
    "boolean": (1, _boolean_sizes, lambda n: gen_boolean(n)),
    "star": (2, _star_sizes, lambda k, n: gen_star_power(k, n)),
    "chains": (None, _chain_sizes, lambda sizes: gen_chain_product(sizes)),
    "subspace": (2, _subspace_sizes, lambda n, q: gen_subspace_lattice(n, q)),
    "affine": (2, _affine_sizes, lambda n, q: gen_affine_poset(n, q)),
    "divisor": (1, _divisor_sizes, lambda m: gen_divisor_lattice(m)),
    "fig1a": (0, lambda: [1, 2, 2, 1], lambda: gen_fig1a()),
    "fig1b": (0, lambda: [1, 2, 2, 1], lambda: gen_fig1b()),
}


def whitney_oracle(name_kind: str, *args) -> list[int]:
    """The level sizes of a generated family from its closed form, after the
    checks its generator makes."""
    if name_kind not in _KINDS:
        raise PosetError(f"no whitney oracle for {name_kind}")
    return _KINDS[name_kind][1](*args)


def _plan(spec: str) -> tuple[list[int], Callable[[], RankedPoset]]:
    """The level sizes of the poset a spec names, and a builder for it.  Every
    refusal is raised here, before anything is built."""
    spec = spec.strip()
    if max(accumulate((ch == "(") - (ch == ")") for ch in spec), default=0) > NESTING_CAP:
        raise PosetError(f"poset spec nests deeper than {NESTING_CAP} levels")
    if spec.startswith("trunc(") and spec.endswith(")"):
        inner, lo, hi = _trunc_parts(spec)
        sizes, build = _plan(inner)
        _check_range(len(sizes) - 1, lo, hi)
        return sizes[lo : hi + 1], lambda: truncate(build(), lo, hi)
    if spec.startswith("prod(") and spec.endswith(")"):
        plans = []
        for part in _product_parts(spec):
            try:
                plans.append(_plan(part))
            except PosetError as exc:
                raise PosetError(
                    f"cannot split product spec {spec!r}: factor {part.strip()!r}: {exc}"
                ) from None
        (a, build_a), (b, build_b) = plans
        if sum(a) * sum(b) > ELEMENT_CAP:
            raise SizeLimitError("product too large")
        return _convolve(a, b), lambda: product(build_a(), build_b())
    kind, colon, argstr = spec.partition(":")
    if kind not in _KINDS or (_KINDS[kind][0] == 0) == bool(colon):
        # fig1a and fig1b take no colon and no arguments; every other kind takes both
        raise PosetError(
            f"unknown poset kind {kind!r}" if colon else f"unrecognized poset spec {spec!r}"
        )
    arity, oracle, generator = _KINDS[kind]
    args = _spec_ints(spec, argstr.split(","), arity) if colon else []
    if arity is None:
        args = [args]
    return oracle(*args), lambda: generator(*args)


def _level_sizes(spec: str) -> list[int] | None:
    """The level sizes of the poset a spec names, or None for a refused spec."""
    try:
        return _plan(spec)[0]
    except PosetError:
        return None


def parse_poset_spec(spec: str) -> RankedPoset:
    """Build a poset from a family spec string.

    Examples: "boolean:4", "star:2,3", "chains:3,2,2", "subspace:3,2",
    "affine:2,2", "divisor:360", "trunc(boolean:5,1,3)", "fig1a",
    "prod(boolean:3,chains:3,2)".
    """
    return _plan(spec)[1]()
