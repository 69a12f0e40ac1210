"""Two-part Sperner machinery on products of two ranked posets.

A product family lives on P x Q as a set of (p, q) id pairs.  The 2-part
Sperner condition forbids two distinct componentwise-comparable members that
share a coordinate; equivalently every row and column slice is an antichain.
Maximum families are found exactly as maximum independent sets of the
conflict graph, and the identities are evaluated per Q-level through the
1-part machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable

from .az import az_identity_sum
from .core import RankedPoset, element_id
from .errors import (
    EmptySliceError,
    NotMaximalChainError,
    NotStrictlyNormalError,
    NotTwoPartSpernerError,
    PosetError,
    SizeLimitError,
)
from .mis import MaxIndependentSet
from .properties import ChainCovering, build_chain_covering, check_strictly_normal

PairFamily = frozenset[tuple[int, int]]

MIS_CAP = 64
ENUMERATE_CAP = 36
ASSIGN_EXHAUSTIVE_CAP = 500_000


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
    if a == c:
        return q.comparable(b, d)
    if b == d:
        return p.comparable(a, c)
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


def is_two_part_sperner_slices(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> bool:
    """Equivalent slice characterization: every row and column slice is an antichain."""
    fam = _validate_pairs(p, q, fam)
    rows: dict[int, set[int]] = {}
    cols: dict[int, set[int]] = {}
    for a, b in fam:
        rows.setdefault(b, set()).add(a)
        cols.setdefault(a, set()).add(b)
    return all(p.is_antichain(r) for r in rows.values()) and all(
        q.is_antichain(c) for c in cols.values()
    )


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
    for y, slice_a in slices_by_q(q, fam).items():
        if not slice_a:
            raise EmptySliceError(y)
        weight = Fraction(1, q.whitney[q.ranks[y]])
        report = az_identity_sum(p, slice_a)
        for term in report.terms:
            if term.term:
                per[(term.element, y)] = term.term * weight
        total += report.total * weight
    return TwoPartAZReport(total=total, per_element=per)


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
        swapped = frozenset((b, a) for a, b in fam)
        lym, rem = two_part_sperner_identity(q, p, swapped)
        return lym, rem
    # the split only needs each slice A(y) to be an antichain (true in
    # particular for every 2-part Sperner family)
    for y, slice_a in slices_by_q(q, fam).items():
        if not p.is_antichain(slice_a):
            raise NotTwoPartSpernerError(f"slice at {y} contains comparable elements")
    report = two_part_az_sum(p, q, fam)
    lym = sum(
        (
            Fraction(1, p.whitney[p.ranks[a]] * q.whitney[q.ranks[b]])
            for a, b in fam
        ),
        Fraction(0),
    )
    return lym, report.total - lym


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
    return sum(
        (
            Fraction(1, p.whitney[p.ranks[a]] * q.whitney[q.ranks[b]])
            for a, b in fam
        ),
        Fraction(0),
    )


# -- transversals ----------------------------------------------------------


@dataclass(frozen=True)
class Transversal:
    """Level-index pairs (i, j) with all first and all second components distinct."""

    pairs: tuple[tuple[int, int], ...]
    full: bool

    def to_json(self) -> dict:
        return {"pairs": [list(ij) for ij in self.pairs], "full": self.full}


def well_paired_value(p: RankedPoset, q: RankedPoset) -> int:
    """Pair the t largest levels of each factor in sorted order (t = min rank + 1)."""
    t = min(p.height, q.height) + 1
    ps = sorted(p.whitney, reverse=True)[:t]
    qs = sorted(q.whitney, reverse=True)[:t]
    return sum(a * b for a, b in zip(ps, qs))


def best_full_transversal(p: RankedPoset, q: RankedPoset) -> tuple[Transversal, int]:
    """A full transversal maximizing the sum of paired level sizes.

    Exhausted over injections at desk scale (lexicographically smallest
    optimum), otherwise solved as a rectangular assignment.  The optimum
    always equals the sorted well-paired pairing value.
    """
    t = min(p.height, q.height) + 1
    p_levels = range(p.height + 1)
    q_levels = range(q.height + 1)
    swap = p.height < q.height
    big_levels = q_levels if swap else p_levels
    small = p_levels if swap else q_levels

    count = 1
    for i in range(t):
        count *= len(big_levels) - i
    if count <= ASSIGN_EXHAUSTIVE_CAP:
        best_value = -1
        best_pairs: tuple[tuple[int, int], ...] | None = None
        for perm in permutations(big_levels, t):
            if swap:
                pairs = tuple(sorted((j, perm[j]) for j in small))
            else:
                pairs = tuple(sorted((perm[j], j) for j in small))
            value = sum(p.whitney[i] * q.whitney[j] for i, j in pairs)
            if value > best_value or (value == best_value and pairs < best_pairs):
                best_value, best_pairs = value, pairs
    else:
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        cost = np.array(
            [[p.whitney[i] * q.whitney[j] for j in q_levels] for i in p_levels]
        )
        rows, cols = linear_sum_assignment(cost, maximize=True)
        best_pairs = tuple(sorted(zip(rows.tolist(), cols.tolist())))
        best_value = int(cost[rows, cols].sum())
    expected = well_paired_value(p, q)
    if best_value != expected:
        raise PosetError(
            f"transversal optimum {best_value} disagrees with sorted pairing {expected}"
        )
    return Transversal(pairs=best_pairs, full=len(best_pairs) == t), best_value


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


def max_two_part_sperner_exact(
    p: RankedPoset, q: RankedPoset, enumerate_all: bool = False
) -> tuple[int, list[PairFamily]]:
    """Exact maximum 2-part Sperner families via the conflict-graph MIS.

    Returns (size, one witness) or (size, all maximum families).
    """
    size_cap = ENUMERATE_CAP if enumerate_all else MIS_CAP
    if p.n * q.n > size_cap:
        raise SizeLimitError(
            f"product has {p.n * q.n} elements (cap {size_cap})"
        )
    vertices, adj = conflict_graph(p, q)
    solver = MaxIndependentSet(adj)
    if enumerate_all:
        size, masks = solver.enumerate()
    else:
        size, mask = solver.run()
        masks = [mask]
    families = []
    for mask in masks:
        fam = set()
        while mask:
            low = mask & -mask
            fam.add(vertices[low.bit_length() - 1])
            mask ^= low
        families.append(frozenset(fam))
    return size, families


def is_homogeneous_product(
    p: RankedPoset, q: RankedPoset, fam: Iterable[tuple[int, int]]
) -> bool:
    """True iff the family is a union of complete level products P_i x Q_j."""
    return _homogeneous_product(p, q, _validate_pairs(p, q, fam))


def _homogeneous_product(p: RankedPoset, q: RankedPoset, fam: PairFamily) -> bool:
    seen: set[tuple[int, int]] = {(p.ranks[a], q.ranks[b]) for a, b in fam}
    expected = sum(p.whitney[i] * q.whitney[j] for i, j in seen)
    return expected == len(fam)


@dataclass(frozen=True)
class StrictTwoPartResult:
    holds: bool
    max_size: int
    well_paired_size: int
    maxima_count: int
    witness: PairFamily | None

    def to_json(self) -> dict:
        return {
            "property": "strict-two-part-sperner",
            "holds": self.holds,
            "max_size": self.max_size,
            "well_paired_size": self.well_paired_size,
            "maxima_count": self.maxima_count,
            "witness": sorted(self.witness) if self.witness is not None else None,
        }


def verify_strict_two_part(p: RankedPoset, q: RankedPoset) -> StrictTwoPartResult:
    """Enumerate all maximum 2-part Sperner families of a strictly normal product.

    Each maximum must be a homogeneous (hence well-paired) system; any
    non-homogeneous maximum is returned as a falsifying witness.
    """
    for poset in (p, q):
        if not check_strictly_normal(poset).holds:
            raise NotStrictlyNormalError(f"{poset.name} is not strictly normal")
    size, families = max_two_part_sperner_exact(p, q, enumerate_all=True)
    _, well_paired = best_full_transversal(p, q)
    for fam in families:
        if not _homogeneous_product(p, q, fam):  # fam holds valid pairs already
            return StrictTwoPartResult(False, size, well_paired, len(families), fam)
    return StrictTwoPartResult(True, size, well_paired, len(families), None)


# -- chain pairs ----------------------------------------------------------


def chain_pair_bound(
    p: RankedPoset,
    q: RankedPoset,
    fam: Iterable[tuple[int, int]],
    chain1: Iterable[int],
    chain2: Iterable[int],
) -> int:
    """|F intersect (C1 x C2)| for maximal chains; at most min(r(P), r(Q)) + 1."""
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
    n2_plus_1 = min(p.height, q.height) + 1
    positive = 0
    equal = 0
    meeting_mass = Fraction(0)
    holds = True
    for c1 in chains1:
        w1 = cov1.chain_weight(c1)
        for c2 in chains2:
            weight = w1 * cov2.chain_weight(c2)
            count = sum(1 for a in c1 for b in c2 if (a, b) in fam)
            if count:
                meeting_mass += weight
            if weight > 0:
                positive += 1
                if count == n2_plus_1:
                    equal += 1
                else:
                    holds = False
    if meeting_mass != 1:
        holds = False
    return ChainPairReport(
        n2_plus_1=n2_plus_1,
        positive_pairs=positive,
        equal_pairs=equal,
        meeting_mass=meeting_mass,
        holds=holds,
    )
