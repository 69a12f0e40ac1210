"""Two-part Sperner machinery on products of two ranked posets.

A product family lives on P x Q as a set of (p, q) id pairs.  The 2-part
Sperner condition forbids two distinct componentwise-comparable members that
share a coordinate; equivalently every row and column slice is an antichain.
On normal factors the maxima are read off the LYM certificate: every slice
is an antichain, so the block densities x_ij = f_ij / (N_i M_j) form a doubly
substochastic matrix, and by Birkhoff-von Neumann and the rearrangement
inequality no family beats the well-paired value, which the well-paired
family reaches.  The best full transversal, the number of optimal ones and
the strict certificate are all read off one sorted pairing of the level
sizes (`_size_groups`).  Where the certificate is silent, maximum families
are found exactly as maximum independent sets of the conflict graph; the
strict verdict then tests their vertex masks against one mask per level
product P_i x Q_j and decodes only a witness into pairs.  The identities are
evaluated per Q-level through the 1-part machinery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence

from .az import az_identity_sum
from .core import ELEMENT_CAP, RankedPoset, element_id
from .errors import (
    EmptySliceError,
    NotMaximalChainError,
    NotStrictlyNormalError,
    NotTwoPartSpernerError,
    PosetError,
    SizeLimitError,
)
from .mis import MaxIndependentSet
from .properties import ChainCovering, build_chain_covering, check_normal, check_strictly_normal

PairFamily = frozenset[tuple[int, int]]

MIS_CAP = 64
ENUMERATE_CAP = 36


def _validate_pairs(p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]) -> PairFamily:
    out = set()
    for pair in fam:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise PosetError(f"{pair!r} is not a pair of element ids") from None
        out.add((element_id(p, a), element_id(q, b)))
    return frozenset(out)


def _conflict(p: RankedPoset, q: RankedPoset, x: tuple[int, int], y: tuple[int, int]) -> bool:
    (a, b), (c, d) = x, y
    if (a, b) == (c, d):
        return False
    # the ids are checked by the callers: read the comparability masks directly
    if a == c:
        return bool((q.up_mask[b] | q.down_mask[b]) >> d & 1)
    if b == d:
        return bool((p.up_mask[a] | p.down_mask[a]) >> c & 1)
    return False


def is_two_part_sperner(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> tuple[bool, tuple[tuple[int, int], tuple[int, int]] | None]:
    """Check the definition pairwise; a violating pair is returned if any."""
    members = sorted(_validate_pairs(p, q, fam))
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if _conflict(p, q, x, y):
                return False, (x, y)
    return True, None


def slices_by_q(q_poset: RankedPoset, fam: PairFamily) -> dict[int, frozenset[int]]:
    out: dict[int, set[int]] = {y: set() for y in range(q_poset.n)}
    for a, b in fam:
        out[b].add(a)
    return {y: frozenset(s) for y, s in out.items()}


@dataclass(frozen=True)
class TwoPartAZReport:
    total: Fraction
    per_element: dict[tuple[int, int], Fraction]

    def to_json(self) -> dict:
        return {
            "total": f"{self.total.numerator}/{self.total.denominator}",
            "terms": {
                f"{a},{b}": f"{t.numerator}/{t.denominator}"
                for (a, b), t in sorted(self.per_element.items())
            },
        }


def two_part_az_sum(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> TwoPartAZReport:
    """Sum W_{A(y)}(x) / (d-(x) N1_rank(x) N2_rank(y)) over the product.

    Applies the 1-part identity to each slice A(y) and divides by N2_rank(y);
    every slice must be nonempty, and regular U-poset factors give exactly
    r(Q) + 1.  The bottom convention contributes 1/N2_rank(y) when
    (bottom, y) is in the family.
    """
    fam = _validate_pairs(p, q, fam)
    per: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    denominators = p.identity_denominator
    for y, slice_a in slices_by_q(q, fam).items():
        if not slice_a:
            raise EmptySliceError(y)
        n_y = q.whitney[q.ranks[y]]
        report = az_identity_sum(p, slice_a)
        # the nonzero terms are the W(x) > 0; with the bottom in A(y), U(A(y)) is all
        # of P, so every W vanishes and the bottom convention's 1 is the only term
        for x, w in report.w_of.items():
            per[(x, y)] = Fraction(w, denominators[x] * n_y)
        per.update(((x, y), Fraction(1, n_y)) for x in p.levels[0] if x in slice_a)
        total += report.total / n_y
    return TwoPartAZReport(total=total, per_element=per)


def _lym_sum(p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of 1/(N1_rank N2_rank) over the pairs."""
    return sum(
        (Fraction(1, p.whitney[p.ranks[a]] * q.whitney[q.ranks[b]]) for a, b in fam), Fraction(0)
    )


def two_part_sperner_identity(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> tuple[Fraction, Fraction]:
    """Split the product identity over a 2-part Sperner family.

    Returns (sum of 1/(N1 N2) over members, boundary remainder); the two add
    up to r(Q) + 1 on regular U-poset factors.  Roles are swapped internally
    when r(Q) > r(P).
    """
    fam = _validate_pairs(p, q, fam)
    if q.height > p.height:
        return two_part_sperner_identity(q, p, frozenset((b, a) for a, b in fam))
    # the split only needs each slice A(y) to be an antichain (true in
    # particular for every 2-part Sperner family)
    for y, slice_a in slices_by_q(q, fam).items():
        if not p.is_antichain(slice_a):
            raise NotTwoPartSpernerError(f"slice at {y} contains comparable elements")
    lym = _lym_sum(p, q, fam)
    return lym, two_part_az_sum(p, q, fam).total - lym


def two_part_lym(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> Fraction:
    """Exact sum of 1/(N1_rank N2_rank) over a 2-part Sperner family.

    Never exceeds min(r(P), r(Q)) + 1; maximum families attain it.
    """
    fam = _validate_pairs(p, q, fam)
    ok, pair = is_two_part_sperner(p, q, fam)
    if not ok:
        raise NotTwoPartSpernerError(f"violating pair {pair}")
    return _lym_sum(p, q, fam)


# -- transversals ----------------------------------------------------------


@dataclass(frozen=True)
class Transversal:
    """Level-index pairs (i, j) with all first and all second components distinct."""

    pairs: tuple[tuple[int, int], ...]
    full: bool

    def to_json(self) -> dict:
        return {"pairs": [list(ij) for ij in self.pairs], "full": self.full}


def _size_groups(a: Sequence[int], b: Sequence[int]) -> Counter[tuple[int, int]]:
    """The sorted pairing of two level-size vectors, as a multiset of size pairs.

    The side with fewer levels is matched in full.  Padded with levels of
    size 0 to the other side's length, both sides are sorted by size,
    largest first, and paired position by position; the pair (x, w) says a
    level of `a` of size x meets a level of `b` of size w.  By the
    rearrangement inequality a full transversal reaches the optimum iff each
    group of the short side's levels of one size s > 0 meets, as a multiset,
    the long sizes that these pairs owe it; levels of size 0 take any long
    level left over, and the long levels paired with padding are those left
    over.
    """
    n = max(len(a), len(b))
    a_desc, b_desc = (sorted([*v, *[0] * (n - len(v))], reverse=True) for v in (a, b))
    return Counter(zip(a_desc, b_desc))


def well_paired_value(p: RankedPoset, q: RankedPoset) -> int:
    """The sum N_i M_j over the sorted pairing of the level sizes."""
    return sum(x * w * n for (x, w), n in _size_groups(p.whitney, q.whitney).items())


def best_full_transversal(p: RankedPoset, q: RankedPoset) -> tuple[Transversal, int]:
    """The lexicographically smallest full transversal of maximum level-product sum.

    The cost N_i M_j is rank-one with non-negative entries, so by the
    rearrangement inequality the optimum is the sorted pairing
    (`well_paired_value`), and a transversal is optimal iff its level pairs
    meet the size pairs of `_size_groups`.  The P-levels are walked in
    order, and each takes the first free Q-level of a size it is still owed;
    a long P-level left over takes the padding past the last Q-level, which
    pairs with nothing.  Every such choice still completes to an optimum, so
    the pairs are the lexicographically smallest optimum.
    """
    a, b = p.whitney, q.whitney
    owed = _size_groups(a, b)
    # free Q-levels by size, the smallest index last; from len(b) on, the padding
    free: dict[int, list[int]] = {}
    for j in reversed(range(max(len(a), len(b)))):
        free.setdefault(b[j] if j < len(b) else 0, []).append(j)
    pairs: list[tuple[int, int]] = []
    for i, x in enumerate(a):
        j, w = min((js[-1], w) for w, js in free.items() if js and owed[x, w])
        free[w].pop()
        owed[x, w] -= 1
        if j < len(b):
            pairs.append((i, j))
    value = sum(a[i] * b[j] for i, j in pairs)
    return Transversal(pairs=tuple(pairs), full=len(pairs) == min(len(a), len(b))), value


def well_paired_family(p: RankedPoset, q: RankedPoset) -> tuple[PairFamily, Transversal]:
    """The homogeneous family over the best full transversal."""
    transversal, _ = best_full_transversal(p, q)
    fam = frozenset(
        (a, b)
        for i, j in transversal.pairs
        for a in p.levels[i]
        for b in q.levels[j]
    )
    return fam, transversal


# -- exact maxima ----------------------------------------------------------


def conflict_graph(p: RankedPoset, q: RankedPoset) -> tuple[list[tuple[int, int]], list[int]]:
    """Vertices are product elements; edges join conflicting pairs.

    Vertex (a, b) has index a|Q| + b.  Its row is read off shifted
    comparability masks: the (c, b) with c comparable to a are
    p_spread[a] << b, and the (a, d) with d comparable to b are
    q_comp[b] << a|Q|.  ``_conflict`` is the pairwise definition.
    """
    m = q.n
    vertices = [(a, b) for a in range(p.n) for b in range(m)]
    q_comp = [(q.up_mask[b] | q.down_mask[b]) ^ (1 << b) for b in range(m)]
    p_spread = []
    for a in range(p.n):
        comp = (p.up_mask[a] | p.down_mask[a]) ^ (1 << a)
        spread = 0
        while comp:
            low = comp & -comp
            spread |= 1 << (low.bit_length() - 1) * m
            comp ^= low
        p_spread.append(spread)
    adj = [p_spread[a] << b | q_comp[b] << a * m for a, b in vertices]
    return vertices, adj


def _maximum_masks(p: RankedPoset, q: RankedPoset, enumerate_all: bool) -> tuple[int, list[int]]:
    """Conflict-graph maxima as vertex masks: one, or all in ascending order."""
    size_cap = ENUMERATE_CAP if enumerate_all else MIS_CAP
    if p.n * q.n > size_cap:
        raise SizeLimitError(f"product has {p.n * q.n} elements (cap {size_cap})")
    solver = MaxIndependentSet(conflict_graph(p, q)[1])
    if enumerate_all:
        return solver.enumerate()
    size, mask = solver.run()
    return size, [mask]


def _mask_family(mask: int, m: int) -> PairFamily:
    """Pairs (a, b) of the vertices a*m + b, via a set: it iterates as one built pair by pair."""
    return frozenset({divmod(v, m) for v in range(mask.bit_length()) if mask >> v & 1})


def max_two_part_sperner_exact(
    p: RankedPoset, q: RankedPoset, enumerate_all: bool = False
) -> tuple[int, list[PairFamily]]:
    """Exact maximum 2-part Sperner families.

    Returns (size, one witness) or (size, all maximum families).  One witness
    of graded factors that both pass `check_normal` is the well-paired family:
    by LYM on each slice, no 2-part Sperner family is larger (see the module
    docstring), and the product is never built.  Every other input, and every
    call with `enumerate_all`, is solved as a maximum independent set of the
    conflict graph (at most 64 vertices, 36 to enumerate), the maxima listed in
    ascending mask order.  Without `enumerate_all`, a well-paired value above
    100,000 is refused before either path runs: neither could answer it.
    """
    if not enumerate_all:
        # refused before the flow checks: the search refuses any such product too
        size = well_paired_value(p, q)
        if size > ELEMENT_CAP:
            raise SizeLimitError(f"the well-paired family has {size} pairs (cap {ELEMENT_CAP})")
        if all(f.is_graded and check_normal(f).holds for f in (p, q)):
            return size, [well_paired_family(p, q)[0]]
    size, masks = _maximum_masks(p, q, enumerate_all)
    return size, [_mask_family(mask, q.n) for mask in masks]


def _level_blocks(p: RankedPoset, q: RankedPoset) -> list[int]:
    """Vertex masks of the level products P_i x Q_j of two or more vertices:
    P_i spread to bits |Q| apart, times a Q level mask, has no carries."""
    spreads = [sum(1 << a * q.n for a in level) for level in p.levels]
    return [b for s in spreads for q_mask in q.level_mask if (b := s * q_mask) & (b - 1)]


@dataclass(frozen=True)
class StrictTwoPartResult:
    holds: bool
    max_size: int
    well_paired_size: int
    maxima_count: int
    witness: PairFamily | None
    # "certificate" or "search": which path decided; not part of the verdict
    method: str = field(default="search", compare=False)

    def to_json(self) -> dict:
        return {
            "property": "strict-two-part-sperner",
            "holds": self.holds,
            "max_size": self.max_size,
            "well_paired_size": self.well_paired_size,
            "maxima_count": self.maxima_count,
            "witness": sorted(self.witness) if self.witness is not None else None,
            "method": self.method,
        }


def _optimal_transversal_count(a: Sequence[int], b: Sequence[int]) -> int:
    """The number of full transversals reaching the sorted pairing of two
    vectors of positive level sizes.

    Completed by matching the long side's leftover levels to the padding,
    an optimal transversal is a bijection with the size pairs of
    `_size_groups`.  Such bijections number the product of r! over each
    size class of r levels on either side, over the product of d! over each
    pair met d times; the padding's r! counts only its own orders, so it is
    left out.
    """
    classes = [*Counter(a).values(), *Counter(b).values()]
    return prod(map(factorial, classes)) // prod(map(factorial, _size_groups(a, b).values()))


def _lym_certificate(p: RankedPoset, q: RankedPoset) -> StrictTwoPartResult | None:
    """The strict verdict of two strictly normal factors, or None where the
    LYM argument is silent.

    A maximum's block densities lie in the optimal face of the doubly
    substochastic matrices, the hull of the optimal transversals: they vanish
    on every block (i, j) that no optimal transversal uses, and every row in
    I* (the P-levels whose removal lowers the optimum) sums to 1, as does
    every column in J*.  Then each slice over a tight level has LYM sum 1 and,
    by strict normality, is a full level.  So a used block is whole or empty
    if (i in I* or M_j = 1) and (j in J* or N_i = 1).  If every used block
    passes, every maximum is homogeneous, and the maxima are exactly the
    optimal transversals.

    All of it is read off `_size_groups`.  A block is used iff its sizes
    form one of the pairs.  With positive sizes every level of the short
    side is tight, and a long level is tight unless a level of its size is
    left over (paired with padding).  So a used block fails exactly when its
    short size exceeds 1 and its long size is also left over.
    """
    a, b = p.whitney, q.whitney
    groups = _size_groups(a, b)
    if any((x > 1 and groups[0, w]) or (w > 1 and groups[x, 0]) for x, w in groups):
        return None
    best = well_paired_value(p, q)
    count = _optimal_transversal_count(a, b)
    return StrictTwoPartResult(True, best, best, count, None, method="certificate")


def verify_strict_two_part(p: RankedPoset, q: RankedPoset) -> StrictTwoPartResult:
    """Are all maximum 2-part Sperner families of a strictly normal product
    homogeneous (hence well-paired)?

    Both factors must pass `check_strictly_normal`.  The LYM certificate
    (`_lym_certificate`) decides from the level sizes alone, with no product
    built, unless some level block that an optimal transversal uses fails its
    block test.  Then the verdict fails: the failing block pairs a short level
    L_i, |L_i| > 1, with a long level while a long level of the same size is
    left over, and moving part of L_i's block onto that spare level keeps a
    maximum, 2-part Sperner family that is not homogeneous.  The enumeration
    (products of at most 36 elements) supplies the maxima count and the first
    non-homogeneous maximum, in ascending mask order, as the witness: a
    maximum is homogeneous iff it meets each level-product block in nothing
    or in all of it.
    """
    for poset in (p, q):
        if not check_strictly_normal(poset).holds:
            raise NotStrictlyNormalError(f"{poset.name} is not strictly normal")
    certified = _lym_certificate(p, q)
    if certified is not None:
        return certified
    size, masks = _maximum_masks(p, q, enumerate_all=True)
    blocks = _level_blocks(p, q)
    bad = next((mask for mask in masks if any(mask & b not in (0, b) for b in blocks)), None)
    witness = None if bad is None else _mask_family(bad, q.n)
    return StrictTwoPartResult(bad is None, size, well_paired_value(p, q), len(masks), witness)


# -- chain pairs ----------------------------------------------------------


def chain_pair_bound(
    p: RankedPoset,
    q: RankedPoset,
    fam: Iterable[tuple[int, int]],
    chain1: Iterable[int],
    chain2: Iterable[int],
) -> int:
    """|F intersect (C1 x C2)| for maximal chains; at most min(r(P), r(Q)) + 1.

    No package code calls it: it states the paper's bound for one chain pair,
    which `product_covering_report` checks with equality on every pair of
    positive weight.
    """
    fam = _validate_pairs(p, q, fam)
    chain1 = tuple(chain1)
    chain2 = tuple(chain2)
    if not p.is_maximal_chain(chain1):
        raise NotMaximalChainError(f"not a maximal chain of {p.name}: {chain1}")
    if not q.is_maximal_chain(chain2):
        raise NotMaximalChainError(f"not a maximal chain of {q.name}: {chain2}")
    ok, pair = is_two_part_sperner(p, q, fam)
    if not ok:
        raise NotTwoPartSpernerError(f"violating pair {pair}")
    count = sum(1 for a in chain1 for b in chain2 if (a, b) in fam)
    limit = min(p.height, q.height) + 1
    if count > limit:
        raise PosetError(
            f"chain pair meets the family {count} times, above the bound {limit}"
        )
    return count


@dataclass(frozen=True)
class ChainPairReport:
    """Census of the product covering against a family."""

    n2_plus_1: int
    positive_pairs: int
    equal_pairs: int
    meeting_mass: Fraction
    holds: bool

    def to_json(self) -> dict:
        return {
            "n2_plus_1": self.n2_plus_1,
            "positive_pairs": self.positive_pairs,
            "equal_pairs": self.equal_pairs,
            "meeting_mass": f"{self.meeting_mass.numerator}/{self.meeting_mass.denominator}",
            "holds": self.holds,
        }


def product_covering_report(
    p: RankedPoset,
    q: RankedPoset,
    fam: Iterable[tuple[int, int]],
    cov1: ChainCovering | None = None,
    cov2: ChainCovering | None = None,
) -> ChainPairReport:
    """Check the chain-pair equalities for a maximum family.

    Builds the product covering g(C1, C2) = f1(C1) f2(C2); every pair with
    positive weight must meet the family in exactly min(r(P), r(Q)) + 1
    points, and the weights of pairs meeting the family must sum to 1.
    """
    fam = _validate_pairs(p, q, fam)
    cov1 = cov1 or build_chain_covering(p)
    cov2 = cov2 or build_chain_covering(q)
    chains1 = p.enumerate_maximal_chains()
    chains2 = q.enumerate_maximal_chains()
    # each factor's chains are weighed once, as integers: f(C) = w * P / Q
    ws1, p1, q1 = cov1.integer_chain_weights(chains1)
    ws2, p2, q2 = cov2.integer_chain_weights(chains2)
    # a pair of zero weight adds nothing to any count or to the mass
    weighed2 = [(c2, w2) for c2, w2 in zip(chains2, ws2) if w2]
    n2_plus_1 = min(p.height, q.height) + 1
    positive = 0
    equal = 0
    meeting = 0
    holds = True
    for c1, w1 in zip(chains1, ws1):
        if not w1:
            continue
        for c2, w2 in weighed2:
            weight = w1 * w2
            count = sum(1 for a in c1 for b in c2 if (a, b) in fam)
            if count:
                meeting += weight
            if weight > 0:
                positive += 1
                if count == n2_plus_1:
                    equal += 1
                else:
                    holds = False
    meeting_mass = Fraction(meeting * p1 * p2, q1 * q2)
    if meeting_mass != 1:
        holds = False
    return ChainPairReport(
        n2_plus_1=n2_plus_1,
        positive_pairs=positive,
        equal_pairs=equal,
        meeting_mass=meeting_mass,
        holds=holds,
    )
