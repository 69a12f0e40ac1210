"""Generators for the poset families used throughout: Boolean lattices, star
powers, subspace and affine posets over GF(q), chain products, divisor
lattices, truncations, direct products, and the two six-element
counterexample posets.

Each generator is a pure function returning a validated RankedPoset.  Element
counts are capped at desk scale because everything downstream is exhaustive.
The subspace lattice and the affine poset share one enumeration of the
subspaces of GF(q)^n, on the field tables of `gf`, and one builder of the
covers by inclusion.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product as iproduct

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


def gen_boolean(n: int) -> RankedPoset:
    """The Boolean lattice of subsets of {1..n}; rank is cardinality."""
    _check_dimension("boolean lattice", n)  # 2^n is the size, so this is the cap check
    size = 1 << n
    elements = [(m, bin(m).count("1")) for m in range(size)]
    covers = []
    for m in range(size):
        for j in range(n):
            if not (m >> j) & 1:
                covers.append((m, m | (1 << j)))
    labels = ["{" + ",".join(str(j + 1) for j in range(n) if (m >> j) & 1) + "}" for m in range(size)]
    return build_poset(elements, covers, name=f"boolean:{n}", labels=labels)


def _check_star(k: int, n: int) -> None:
    """Refuse bad star-power arguments, then a star power past the cap."""
    if k < 1 or n < 1:
        raise PosetError("star power needs k >= 1 and n >= 1")
    _check_dimension("star power", n)
    size = (k + 1) ** n
    if size > ELEMENT_CAP:
        raise SizeLimitError(f"star power has {size} elements (> {ELEMENT_CAP})")


def gen_star_power(k: int, n: int) -> RankedPoset:
    """n-fold product of a one-bottom, k-top star; rank counts nonzero coordinates.

    Tuples in {0..k}^n with x <= y iff x agrees with y on every nonzero
    coordinate of x.
    """
    _check_star(k, n)
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


def _check_chains(sizes: tuple[int, ...]) -> None:
    """Refuse bad chain sizes, then a chain product past the cap."""
    if not sizes or any(s < 1 for s in sizes):
        raise PosetError("chain sizes must be positive")
    if list(sizes) != sorted(sizes, reverse=True):
        raise PosetError("chain sizes must be non-increasing")
    if math.prod(sizes) > ELEMENT_CAP:
        raise SizeLimitError(f"chain product has more than {ELEMENT_CAP} elements")


def gen_chain_product(sizes: list[int] | tuple[int, ...]) -> RankedPoset:
    """Product of chains with the given (non-increasing) element counts.

    Rank is the coordinate sum.
    """
    sizes = tuple(sizes)
    _check_chains(sizes)
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


def _factorize(m: int) -> list[tuple[int, int]]:
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
    return factors


def gen_divisor_lattice(m: int) -> RankedPoset:
    """Divisors of m under divisibility; rank counts prime factors with multiplicity.

    The divisors come from the factorization of m, ids in ascending order.
    """
    if m < 1:
        raise PosetError("modulus must be positive")
    factors = _factorize(m)
    if math.prod(e + 1 for _, e in factors) > ELEMENT_CAP:
        raise SizeLimitError("too many divisors")
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


def _check_gf_size(kind: str, what: str, n: int, q: int) -> None:
    """Refuse a q that is not a supported prime power, then a poset past the cap."""
    field(q)
    _check_dimension(what, n)
    count = sum(whitney_oracle(kind, n, q))
    if count > ELEMENT_CAP:
        raise SizeLimitError(f"{what} has {count} elements (> {ELEMENT_CAP})")


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
    _check_gf_size("subspace", "subspace lattice", n, q)
    return _inclusion_poset(list(_subspaces(n, q)), f"subspace:{n},{q}")


def gen_affine_poset(n: int, q: int) -> RankedPoset:
    """All affine subspaces (cosets v + U) of GF(q)^n ordered by inclusion.

    Rank is the dimension of the direction space; all q^n points are minimal,
    so there is no universal lower bound.  The cosets of each subspace are
    listed by their least point, which also labels them.
    """
    _check_gf_size("affine", "affine poset", n, q)
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


def truncate(poset: RankedPoset, lo: int, hi: int) -> RankedPoset:
    """Keep levels lo..hi and re-rank from zero."""
    if not 0 <= lo < hi <= poset.height:
        raise RankOutOfRangeError(
            f"need 0 <= lo < hi <= {poset.height}, got ({lo},{hi})"
        )
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


# -- whitney oracles ----------------------------------------------------


def whitney_oracle(name_kind: str, *args) -> list[int]:
    """Independent level-size predictions for the generated families."""
    if name_kind == "boolean":
        (n,) = args
        return [math.comb(n, i) for i in range(n + 1)]
    if name_kind == "star":
        k, n = args
        return [math.comb(n, i) * k**i for i in range(n + 1)]
    if name_kind == "subspace":
        n, q = args
        return [gaussian_binomial(n, k, q) for k in range(n + 1)]
    if name_kind == "affine":
        n, q = args
        return [gaussian_binomial(n, k, q) * q ** (n - k) for k in range(n + 1)]
    if name_kind == "chains":
        sizes = args[0]
        acc = [1]
        for s in sizes:
            new = [0] * (len(acc) + s - 1)
            for i, c in enumerate(acc):
                for j in range(s):
                    new[i + j] += c
            acc = new
        return acc
    raise PosetError(f"no whitney oracle for {name_kind}")


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


# integer arguments per spec kind; None means one or more
_SPEC_ARITY = {"boolean": 1, "star": 2, "chains": None, "subspace": 2, "affine": 2, "divisor": 1}


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


# the checks each generator with a whitney oracle makes before it builds
_FAMILY_CHECKS = {
    "boolean": lambda n: _check_dimension("boolean lattice", n),
    "star": _check_star,
    "chains": lambda *sizes: _check_chains(sizes),
    "subspace": lambda n, q: _check_gf_size("subspace", "subspace lattice", n, q),
    "affine": lambda n, q: _check_gf_size("affine", "affine poset", n, q),
}


def _level_sizes(spec: str) -> list[int] | None:
    """The level sizes of the poset a spec builds, from `whitney_oracle`
    through trunc(...) and prod(...), without building it.  None for a kind
    with no oracle, and for a spec its builder refuses, so that the builder
    names the fault.  divisor:m is the product of chains of lengths e+1 over
    the prime powers p^e of m, and fig1a and fig1b have fixed sizes."""
    spec = spec.strip()
    if spec in ("fig1a", "fig1b"):
        return [1, 2, 2, 1]
    try:
        if spec.startswith("trunc(") and spec.endswith(")"):
            inner, lo, hi = _trunc_parts(spec)
            sizes = _level_sizes(inner)
            return sizes[lo : hi + 1] if sizes and 0 <= lo < hi < len(sizes) else None
        if spec.startswith("prod(") and spec.endswith(")"):
            a, b = map(_level_sizes, _product_parts(spec))
            if a is None or b is None or sum(a) * sum(b) > ELEMENT_CAP:
                return None
            conv = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            return conv
        kind, _, argstr = spec.partition(":")
        if kind == "divisor":
            (m,) = _spec_ints(spec, argstr.split(","), 1)
            if m < 1:
                return None
            chains = [e + 1 for _, e in _factorize(m)]
            return whitney_oracle("chains", chains) if math.prod(chains) <= ELEMENT_CAP else None
        if kind not in _FAMILY_CHECKS:
            return None
        args = _spec_ints(spec, argstr.split(","), _SPEC_ARITY[kind])
        _FAMILY_CHECKS[kind](*args)
    except PosetError:
        return None
    return whitney_oracle(kind, args) if kind == "chains" else whitney_oracle(kind, *args)


def parse_poset_spec(spec: str) -> RankedPoset:
    """Build a poset from a family spec string.

    Examples: "boolean:4", "star:2,3", "chains:3,2,2", "subspace:3,2",
    "affine:2,2", "divisor:360", "trunc(boolean:5,1,3)", "fig1a",
    "prod(boolean:3,chains:3,2)".
    """
    spec = spec.strip()
    if max(accumulate((ch == "(") - (ch == ")") for ch in spec), default=0) > NESTING_CAP:
        raise PosetError(f"poset spec nests deeper than {NESTING_CAP} levels")
    if spec == "fig1a":
        return gen_fig1a()
    if spec == "fig1b":
        return gen_fig1b()
    if spec.startswith("trunc(") and spec.endswith(")"):
        inner, lo, hi = _trunc_parts(spec)
        return truncate(parse_poset_spec(inner), lo, hi)
    if spec.startswith("prod(") and spec.endswith(")"):
        parts = _product_parts(spec)
        # refuse a product past the cap before building factors of known size
        sizes = [_level_sizes(part) for part in parts]
        if None not in sizes and math.prod(map(sum, sizes)) > ELEMENT_CAP:
            raise SizeLimitError("product too large")
        factors = []
        for part in parts:
            try:
                factors.append(parse_poset_spec(part))
            except PosetError as exc:
                raise PosetError(
                    f"cannot split product spec {spec!r}: factor {part.strip()!r}: {exc}"
                ) from None
        return product(*factors)
    if ":" not in spec:
        raise PosetError(f"unrecognized poset spec {spec!r}")
    kind, _, argstr = spec.partition(":")
    if kind not in _SPEC_ARITY:
        raise PosetError(f"unknown poset kind {kind!r}")
    args = _spec_ints(spec, argstr.split(","), _SPEC_ARITY[kind])
    if kind == "boolean":
        return gen_boolean(*args)
    if kind == "star":
        return gen_star_power(*args)
    if kind == "chains":
        return gen_chain_product(args)
    if kind == "subspace":
        return gen_subspace_lattice(*args)
    if kind == "affine":
        return gen_affine_poset(*args)
    return gen_divisor_lattice(*args)
