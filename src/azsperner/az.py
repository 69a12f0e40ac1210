"""Exact evaluation of the AZ-type identities on ranked posets.

The central quantity is W_A(x): among the lower covers of x, those not above
any member of A below x.  Summing W_A(x)/(d-(x) N_rank(x)) over a regular
U-poset gives exactly 1 for every nonempty family A; the other identities
here (the bounded extension to regular posets, the antichain and k-Sperner
splits, and the skew-pair identity with its beta terms) refine that sum.

On a regular graded poset the W sum over each level of the upset U(A) comes
from two level popcounts and the per-rank degrees, so a verdict walks no
element outside the skew-pair intervals; other posets, and the per-element W
values, walk the upset boundary.  All arithmetic is in int and Fraction;
verdicts are equalities, never tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple

from .core import RankedPoset, build_poset, family
from .errors import (
    EmptyFamilyError,
    IntervalOverlapError,
    NotAntichainError,
    NotKSpernerError,
    NotUPosetError,
    PosetError,
    SkewViolationError,
)
from .properties import LambdaTable, degree_profile, lambda_table
from .sperner import dual_dilworth_decompose, is_k_sperner, lym_sum


def _ids(mask: int) -> list[int]:
    """The set bits of mask in increasing order."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _boundary_w(
    poset: RankedPoset, up: int, region: int
) -> tuple[dict[int, int], dict[int, int]]:
    """W over a region of an upset U(A), walked one element at a time.

    For x in U(A), W_A(x) is the number of lower covers of x outside U(A): a
    lower cover above some a in A lies above a member of A^x.  Returns
    ({x: W(x)} for the x in region with W(x) > 0, {d-(x) N_rank(x): sum of
    those W}); region must lie inside up.  The identity sums go through
    _w_sums, which walks only where the level closed form does not apply.
    """
    outside = ~up
    covers = poset.down_cover_mask
    denominators = poset.identity_denominator
    w_of: dict[int, int] = {}
    by_denominator: dict[int, int] = {}
    for x in _ids(region):
        w = (covers[x] & outside).bit_count()
        if w:
            w_of[x] = w
            d = denominators[x]
            by_denominator[d] = by_denominator.get(d, 0) + w
    return w_of, by_denominator


def _w_sums(poset: RankedPoset, up: int, cut: int = 0) -> dict[int, int]:
    """{d-(x) N_rank(x): sum of W(x)} over U(A) minus cut, for the upset up = U(A).

    On a regular graded poset every upper cover of a y in U(A) lies in U(A),
    so the covers from U(A) into rank r number d+_{r-1} |U(A) & L_{r-1}|, and
    the W sum over U(A) & L_r is d-_r |U(A) & L_r| minus that: two popcounts
    per rank.  The part inside cut is then walked and taken off.  Any other
    poset walks U(A) minus cut.
    """
    if not poset.is_graded or poset.irregular_pair is not None:
        return _boundary_w(poset, up, up & ~cut)[1]
    denominators = poset.identity_denominator
    down, upper = poset.down_adj, poset.up_adj
    sums: dict[int, int] = {}
    entering = 0  # the covers from U(A) into the current rank
    for level, mask in zip(poset.levels, poset.level_mask):
        x = level[0]
        count = (up & mask).bit_count()
        w = len(down[x]) * count - entering
        entering = len(upper[x]) * count
        if w:
            d = denominators[x]
            sums[d] = sums.get(d, 0) + w
    if up & cut:
        for d, w in _boundary_w(poset, up, up & cut)[1].items():
            sums[d] -= w
    return sums


def _exact_sum(by_denominator: dict[int, int]) -> Fraction:
    """The sum of w/d over a {d: w} table: one Fraction over the lcm of the d."""
    common = lcm(*by_denominator)
    return Fraction(sum(w * (common // d) for d, w in by_denominator.items()), common)


def compute_w(poset: RankedPoset, fam: Iterable[int], x: int) -> int:
    """W_A(x): lower covers of x not above any member of A^x = {a in A : a <= x}.

    Zero when A^x is empty.  For x in an antichain A this equals d-(x).
    The identity sums read W off level popcounts or one walk of the upset;
    this is the paper's single-element W_A(x), as the README documents it.
    """
    up = poset.upset_mask(family(poset, fam))
    (x,) = family(poset, [x])
    w_of, _ = _boundary_w(poset, up, up & (1 << x))
    return w_of.get(x, 0)


class AZTerm(NamedTuple):
    """One element's identity term: a light immutable record, built only when
    AZReport.terms is first read."""

    element: int
    w: int
    term: Fraction
    convention_bottom: bool
    in_family: bool
    in_upset: bool

    def to_json(self) -> dict:
        return {
            "element": self.element,
            "w": self.w,
            "term": f"{self.term.numerator}/{self.term.denominator}",
            "convention_bottom": self.convention_bottom,
            "in_family": self.in_family,
            "in_upset": self.in_upset,
        }


@dataclass(frozen=True)
class AZReport:
    """The exact identity total, and what the per-element terms are built from.

    A verdict reads only total; w_of is walked from the upset, and terms built
    from it, on first read, and both are cached.  Equality and hashing go by
    (total, terms).
    """

    total: Fraction
    poset: RankedPoset = field(repr=False)
    family: frozenset[int] = field(repr=False)
    upset: int = field(repr=False)

    @cached_property
    def w_of(self) -> dict[int, int]:
        """{x: W(x)} for the x with W(x) > 0."""
        return _boundary_w(self.poset, self.upset, self.upset)[0]

    @cached_property
    def terms(self) -> tuple[AZTerm, ...]:
        poset, ids, w_of = self.poset, self.family, self.w_of
        (bottom,) = poset.levels[0]
        bottom_in = bottom in ids
        # terms share one Fraction per distinct (w, denominator); in_up[x] is bit x of U(A)
        denominators = poset.identity_denominator
        shared = {key: Fraction(*key) for key in {(w, denominators[x]) for x, w in w_of.items()}}
        zero = Fraction(0)
        in_up = format(self.upset, f"0{poset.n}b")[::-1]
        # tuple.__new__ skips the NamedTuple's Python-level constructor, half the loop's cost
        new = tuple.__new__
        terms = []
        for x in range(poset.n):
            w = w_of.get(x, 0)
            term = shared[w, denominators[x]] if w else zero
            terms.append(new(AZTerm, (x, w, term, False, x in ids, in_up[x] == "1")))
        terms[bottom] = AZTerm(bottom, 0, Fraction(int(bottom_in)), bottom_in, bottom_in, bottom_in)
        return tuple(terms)

    def __eq__(self, other):
        if not isinstance(other, AZReport):
            return NotImplemented
        return (self.total, self.terms) == (other.total, other.terms)

    def __hash__(self):
        return hash((self.total, self.terms))

    def to_json(self) -> dict:
        return {
            "total": f"{self.total.numerator}/{self.total.denominator}",
            "terms": [t.to_json() for t in self.terms],
        }


def az_identity_sum(poset: RankedPoset, fam: Iterable[int]) -> AZReport:
    """Sum W_A(x)/(d-(x) N_rank(x)) over a U-poset, with the bottom convention.

    The bottom element contributes 1 when it belongs to A (where both W and
    the lower degree vanish).  On a regular U-poset the total is exactly 1;
    for irregular posets the raw sum is still returned so deviations can be
    reported.  Each element's own lower degree is used, which coincides with
    the rank degree on regular posets.  Only the total is computed here; the
    report builds its per-element terms when they are first read.
    """
    if not poset.is_u_poset:
        raise NotUPosetError(f"{poset.name} is not a U-poset")
    ids = family(poset, fam)
    if not ids:
        raise EmptyFamilyError("the identity needs a nonempty family")
    up = poset.upset_mask(ids)
    (bottom,) = poset.levels[0]
    total = _exact_sum(_w_sums(poset, up)) + int(bottom in ids)
    return AZReport(total=total, poset=poset, family=ids, upset=up)


def key_lemma_sum(poset: RankedPoset, fam: Iterable[int]) -> Fraction:
    """Extension of the identity to regular posets without universal bounds.

    f_A is 1/N_0 on bottom-level family members, 1/N_top on top-level elements
    outside the upset of A, W_A(x)/(d- N) elsewhere, and 0 on the remaining
    bottom-level elements; the total is exactly 1 on every regular poset.
    """
    degree_profile(poset)  # raises unless the poset is graded and regular
    ids = family(poset, fam)
    if not ids:
        raise EmptyFamilyError("the identity needs a nonempty family")
    up = poset.upset_mask(ids)
    by_denominator = _w_sums(poset, up)
    # bottom-level members weigh 1/N_0 and top-level elements outside U(A) 1/N_top;
    # the two sets are disjoint even when the height is 0
    top = poset.height
    for count, d in (
        (len(ids.intersection(poset.levels[0])), poset.whitney[0]),
        ((poset.level_mask[top] & ~up).bit_count(), poset.whitney[top]),
    ):
        by_denominator[d] = by_denominator.get(d, 0) + count
    return _exact_sum(by_denominator)


def adjoin_bounds(poset: RankedPoset) -> RankedPoset:
    """A copy with a new universal bottom (id n) and top (id n+1) adjoined.

    Old element ids are unchanged; old ranks shift up by one.
    """
    n = poset.n
    elements = [(x, poset.ranks[x] + 1) for x in range(n)]
    elements += [(n, 0), (n + 1, poset.height + 2)]
    covers = list(poset.covers)
    covers += [(n, x) for x in poset.levels[0]]
    covers += [(x, n + 1) for x in poset.levels[-1]]
    labels = list(poset.labels) + ["_bot", "_top"]
    return build_poset(elements, covers, name=f"bounded({poset.name})", labels=labels)


def boundary_chain_fractions(
    poset: RankedPoset, fam: Iterable[int]
) -> tuple[Fraction, dict[int, Fraction]]:
    """Independent oracle: the fraction of maximal chains entering the upset at each element.

    Uses only boundary edges and the dynamic-programming chain census, never
    W.  A chain "enters" at x if it crosses a boundary edge into x, or starts
    at a bottom-level member of the upset.  On a regular U-poset each
    element's fraction equals its identity term.
    """
    ids = family(poset, fam)
    down, up = poset.chains_below_above()
    total = poset.count_maximal_chains().total
    up_mask = poset.upset_mask(ids)
    per: dict[int, Fraction] = {}
    for x, lowers in poset.boundary_edges(ids).items():
        per[x] = Fraction(sum(down[v] for v in lowers) * up[x], total)
    for x in poset.levels[0]:
        if (up_mask >> x) & 1:
            per[x] = per.get(x, Fraction(0)) + Fraction(up[x], total)
    grand = sum(per.values(), Fraction(0))
    return grand, per


def antichain_az(
    poset: RankedPoset, fam: Iterable[int]
) -> tuple[Fraction, Fraction]:
    """Split the identity over an antichain: (LYM part, boundary remainder).

    Family members contribute exactly 1/N_rank: a member's lower covers all
    lie outside U(A), so W(a) = d-(a), and the bottom convention's 1 is 1/N_0
    on a U-poset.  The LYM part is therefore lym_sum, with no walk.  The parts
    sum to 1 on a regular U-poset, which is the exact form of the LYM
    inequality.
    """
    ids = family(poset, fam)
    if not poset.is_antichain(ids):
        raise NotAntichainError("family contains comparable elements")
    if not poset.is_u_poset:
        raise NotUPosetError(f"{poset.name} is not a U-poset")
    if not ids:
        raise EmptyFamilyError("the identity needs a nonempty family")
    up = poset.upset_mask(ids)
    lym_part = lym_sum(poset, ids)
    everywhere = _exact_sum(_w_sums(poset, up)) + int(poset.levels[0][0] in ids)
    return lym_part, everywhere - lym_part


def k_sperner_az(poset: RankedPoset, fam: Iterable[int], k: int) -> Fraction:
    """The k-fold identity over a k-Sperner family via antichain decomposition.

    Decomposes the family into exactly k nonempty antichains (splitting parts
    if the longest chain is shorter than k) and sums the k antichain
    identities; a regular U-poset yields exactly k.
    """
    fam = frozenset(fam)
    ok, chain = is_k_sperner(poset, fam, k)
    if not ok:
        raise NotKSpernerError(f"family contains a chain of {len(chain)} elements")
    if len(fam) < k:
        raise EmptyFamilyError(
            f"need at least k={k} elements to form k nonempty antichains"
        )
    parts = [set(p) for p in dual_dilworth_decompose(poset, fam)]
    while len(parts) < k:
        donor = next(p for p in parts if len(p) >= 2)
        parts.append({donor.pop()})
    total = lym_sum(poset, fam)
    for part in parts:
        _, remainder = antichain_az(poset, part)
        total += remainder
    return total


def interval_w_sum(poset: RankedPoset, a: int, b: int) -> Fraction:
    """Brute-force sum of W_{a}(x)/(d- N) over the interval a <= x <= b.

    The direct counterpart of a beta value on a strongly regular poset; the
    bottom convention applies when a is the universal bottom.
    """
    family(poset, (a, b))
    up = poset.up_mask[a]
    if not (up >> b) & 1:
        raise PosetError(f"{a} is not below {b}")
    _, by_denominator = _boundary_w(poset, up, up & poset.down_mask[b])
    # the bottom convention: x = a contributes 1 when a sits at rank 0
    return _exact_sum(by_denominator) + int(poset.ranks[a] == 0)


def beta(poset: RankedPoset, table: LambdaTable, k: int, l: int) -> Fraction:
    """The closed-form interval contribution for a comparable rank pair (k, l).

    beta(k, l) = sum over j of lambda_{k+j}(k, l) (d-_{k+j} - lambda_{k+j-1}(k, k+j))
    / (d-_{k+j} N_{k+j}), where missing lambda entries count zero; the j = 0
    term is 1/N_k (the bottom convention when k = 0).
    """
    if not 0 <= k <= l <= poset.height:
        raise PosetError(f"need 0 <= k <= l <= {poset.height}")
    d_minus, _ = degree_profile(poset)
    by_denominator: dict[int, int] = {}
    for i in range(k, l + 1):
        lam = table.get(i, k, l)
        if i == 0:
            w, d = lam, poset.whitney[0]
        else:
            w, d = lam * (d_minus[i] - table.get(i - 1, k, i)), d_minus[i] * poset.whitney[i]
        by_denominator[d] = by_denominator.get(d, 0) + w
    return _exact_sum(by_denominator)


@dataclass(frozen=True)
class SkewPairSystem:
    """Pairs (a_i, b_i) with a_i <= b_j exactly when i = j."""

    pairs: tuple[tuple[int, int], ...]

    def validate(self, poset: RankedPoset) -> None:
        if not self.pairs:
            raise EmptyFamilyError("pair system must be nonempty")
        family(poset, (x for pair in self.pairs for x in pair))
        up = poset.up_mask
        for i, (a, b) in enumerate(self.pairs):
            if not (up[a] >> b) & 1:
                raise SkewViolationError(f"pair {i}: {a} is not below {b}")
        for i, (a, _) in enumerate(self.pairs):
            for j, (_, b) in enumerate(self.pairs):
                if i != j and (up[a] >> b) & 1:
                    raise SkewViolationError(
                        f"a_{i}={a} lies below b_{j}={b} with i != j"
                    )
        for i in range(len(self.pairs)):
            ai, bi = self.pairs[i]
            span_i = poset.up_mask[ai] & poset.down_mask[bi]
            for j in range(i + 1, len(self.pairs)):
                aj, bj = self.pairs[j]
                if span_i & poset.up_mask[aj] & poset.down_mask[bj]:
                    raise IntervalOverlapError(f"intervals {i} and {j} intersect")


@dataclass(frozen=True)
class SkewIdentityReport:
    total: Fraction
    betas: tuple[Fraction, ...]
    boundary_sum: Fraction

    def to_json(self) -> dict:
        return {
            "total": f"{self.total.numerator}/{self.total.denominator}",
            "betas": [f"{b.numerator}/{b.denominator}" for b in self.betas],
            "boundary_sum": f"{self.boundary_sum.numerator}/{self.boundary_sum.denominator}",
        }


def second_az_identity(
    poset: RankedPoset,
    system: SkewPairSystem,
    table: LambdaTable | None = None,
) -> SkewIdentityReport:
    """Sum of beta(k_i, l_i) plus the boundary terms over U(A) minus D(B).

    Requires a strongly regular U-poset and a valid skew pair system; the
    total is exactly 1.
    """
    if not poset.is_u_poset:
        raise NotUPosetError(f"{poset.name} is not a U-poset")
    if table is None:
        table = lambda_table(poset)
    system.validate(poset)
    betas = tuple(
        beta(poset, table, poset.ranks[a], poset.ranks[b]) for a, b in system.pairs
    )
    up = poset.upset_mask(a for a, _ in system.pairs)
    below = poset.downset_mask(b for _, b in system.pairs)
    boundary = _exact_sum(_w_sums(poset, up, cut=below))
    return SkewIdentityReport(
        total=sum(betas, Fraction(0)) + boundary,
        betas=betas,
        boundary_sum=boundary,
    )
