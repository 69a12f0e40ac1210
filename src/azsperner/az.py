"""Exact evaluation of the AZ-type identities on ranked posets.

The central quantity is W_A(x): among the lower covers of x, those not above
any member of A below x.  Summing W_A(x)/(d-(x) N_rank(x)) over a regular
U-poset gives exactly 1 for every nonempty family A; the other identities
here (the bounded extension to regular posets, the antichain and k-Sperner
splits, and the skew-pair identity with its beta terms) refine that sum.
All arithmetic is in Fraction; verdicts are equalities, never tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import RankedPoset, build_poset, family
from .errors import (
    EmptyFamilyError,
    IntervalOverlapError,
    NotAntichainError,
    NotKSpernerError,
    NotRegularError,
    NotUPosetError,
    PosetError,
    SkewViolationError,
)
from .properties import LambdaTable, check_regular, degree_profile, lambda_table
from .sperner import dual_dilworth_decompose, is_k_sperner, lym_sum


def _family_mask(poset: RankedPoset, fam: Iterable[int]) -> int:
    mask = 0
    for a in family(poset, fam):
        mask |= 1 << a
    return mask


def compute_w(poset: RankedPoset, fam: Iterable[int], x: int) -> int:
    """W_A(x): lower covers of x not above any member of A^x = {a in A : a <= x}.

    Zero when A^x is empty.  For x in an antichain A this equals d-(x).
    """
    fam_mask = _family_mask(poset, fam)
    (x,) = family(poset, [x])
    return _compute_w_mask(poset, fam_mask, x)


def _compute_w_mask(poset: RankedPoset, fam_mask: int, x: int) -> int:
    ax = poset.down_mask[x] & fam_mask
    if not ax:
        return 0
    r = poset.ranks[x]
    if r == 0:
        return 0
    gamma_plus = 0
    m = ax
    while m:
        low = m & -m
        gamma_plus |= poset.up_mask[low.bit_length() - 1]
        m ^= low
    gamma_plus &= poset.level_mask[r - 1]
    return (poset.down_cover_mask[x] & ~gamma_plus).bit_count()


@dataclass(frozen=True)
class AZTerm:
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
    total: Fraction
    terms: tuple[AZTerm, ...]

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
    the rank degree on regular posets.
    """
    if not poset.is_u_poset:
        raise NotUPosetError(f"{poset.name} is not a U-poset")
    fam_mask = _family_mask(poset, fam)
    if fam_mask == 0:
        raise EmptyFamilyError("the identity needs a nonempty family")
    up_mask = 0
    m = fam_mask
    while m:
        low = m & -m
        up_mask |= poset.up_mask[low.bit_length() - 1]
        m ^= low
    terms = []
    total = Fraction(0)
    for x in range(poset.n):
        in_family = bool((fam_mask >> x) & 1)
        in_upset = bool((up_mask >> x) & 1)
        if poset.ranks[x] == 0:
            term = Fraction(1) if in_family else Fraction(0)
            terms.append(AZTerm(x, 0, term, in_family, in_family, in_upset))
        else:
            w = _compute_w_mask(poset, fam_mask, x)
            term = (
                Fraction(w, poset.d_minus(x) * poset.whitney[poset.ranks[x]])
                if w
                else Fraction(0)
            )
            terms.append(AZTerm(x, w, term, False, in_family, in_upset))
        total += terms[-1].term
    return AZReport(total=total, terms=tuple(terms))


def key_lemma_sum(poset: RankedPoset, fam: Iterable[int]) -> Fraction:
    """Extension of the identity to regular posets without universal bounds.

    f_A is 1/N_0 on bottom-level family members, 1/N_top on top-level elements
    outside the upset of A, W_A(x)/(d- N) elsewhere, and 0 on the remaining
    bottom-level elements; the total is exactly 1 on every regular poset.
    """
    if not check_regular(poset).holds:
        raise NotRegularError(f"{poset.name} is not regular")
    fam_mask = _family_mask(poset, fam)
    if fam_mask == 0:
        raise EmptyFamilyError("the identity needs a nonempty family")
    up_mask = 0
    m = fam_mask
    while m:
        low = m & -m
        up_mask |= poset.up_mask[low.bit_length() - 1]
        m ^= low
    top = poset.height
    total = Fraction(0)
    for x in range(poset.n):
        r = poset.ranks[x]
        in_family = bool((fam_mask >> x) & 1)
        in_upset = bool((up_mask >> x) & 1)
        if r == 0 and in_family:
            total += Fraction(1, poset.whitney[0])
        elif r == top and not in_upset:
            # takes precedence over the bottom-level zero case when height is 0
            total += Fraction(1, poset.whitney[top])
        elif r == 0:
            continue
        else:
            w = _compute_w_mask(poset, fam_mask, x)
            if w:
                total += Fraction(w, poset.d_minus(x) * poset.whitney[r])
    return total


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
    down, up = poset.chains_below_above()
    total = poset.count_maximal_chains().total
    up_mask = poset.upset_mask(fam)
    per: dict[int, Fraction] = {}
    for x, lowers in poset.boundary_edges(fam).items():
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

    Family members contribute exactly 1/N_rank; the parts sum to 1 on a
    regular U-poset, which is the exact form of the LYM inequality.
    """
    fam = frozenset(fam)
    if not poset.is_antichain(fam):
        raise NotAntichainError("family contains comparable elements")
    report = az_identity_sum(poset, fam)
    lym_part = sum((t.term for t in report.terms if t.in_family), Fraction(0))
    remainder = report.total - lym_part
    return lym_part, remainder


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
    if not poset.leq(a, b):
        raise PosetError(f"{a} is not below {b}")
    interval = poset.up_mask[a] & poset.down_mask[b]
    total = Fraction(0)
    m = interval
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        if poset.ranks[x] == 0:
            total += Fraction(1)
            continue
        w = _compute_w_mask(poset, 1 << a, x)
        if w:
            total += Fraction(w, poset.d_minus(x) * poset.whitney[poset.ranks[x]])
    return total


def beta(poset: RankedPoset, table: LambdaTable, k: int, l: int) -> Fraction:
    """The closed-form interval contribution for a comparable rank pair (k, l).

    beta(k, l) = sum over j of lambda_{k+j}(k, l) (d-_{k+j} - lambda_{k+j-1}(k, k+j))
    / (d-_{k+j} N_{k+j}), where missing lambda entries count zero; the j = 0
    term is 1/N_k (the bottom convention when k = 0).
    """
    if not 0 <= k <= l <= poset.height:
        raise PosetError(f"need 0 <= k <= l <= {poset.height}")
    d_minus, _ = degree_profile(poset)
    total = Fraction(0)
    for j in range(l - k + 1):
        i = k + j
        lam = table.get(i, k, l)
        if i == 0:
            total += Fraction(lam, poset.whitney[0])
            continue
        total += Fraction(
            lam * (d_minus[i] - table.get(i - 1, k, i)),
            d_minus[i] * poset.whitney[i],
        )
    return total


@dataclass(frozen=True)
class SkewPairSystem:
    """Pairs (a_i, b_i) with a_i <= b_j exactly when i = j."""

    pairs: tuple[tuple[int, int], ...]

    def validate(self, poset: RankedPoset) -> None:
        if not self.pairs:
            raise EmptyFamilyError("pair system must be nonempty")
        for i, (a, b) in enumerate(self.pairs):
            if not poset.leq(a, b):
                raise SkewViolationError(f"pair {i}: {a} is not below {b}")
        for i, (a, _) in enumerate(self.pairs):
            for j, (_, b) in enumerate(self.pairs):
                if i != j and poset.leq(a, b):
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
    a_fam = [a for a, _ in system.pairs]
    b_fam = [b for _, b in system.pairs]
    region = poset.upset(a_fam) - poset.downset(b_fam)
    fam_mask = _family_mask(poset, a_fam)
    boundary = Fraction(0)
    for x in region:
        w = _compute_w_mask(poset, fam_mask, x)
        if w:
            boundary += Fraction(w, poset.d_minus(x) * poset.whitney[poset.ranks[x]])
    return SkewIdentityReport(
        total=sum(betas, Fraction(0)) + boundary,
        betas=betas,
        boundary_sum=boundary,
    )
