"""Antichain and k-Sperner machinery: recognition, dual-Dilworth
decomposition, LYM sums, exact maximum oracles, and strict-Sperner checks.

The strict verdict on a strictly normal poset is read off the LYM
certificate (`_lym_certificate`); the search below decides every other input
and is the certificate's oracle in the tests.  The same argument gives the
maximum antichains of a regular, level-connected (so strictly normal) poset
from its level sizes: they are its largest levels.  The split-graph matching
serves every other poset.

The search serves every k through Saks's correspondence (1979) for the
k-families of Greene and Kleitman (1976): the k-Sperner families of P are the
projections of the antichains of P × C_k, C_k the k-element chain (one copy
of each member, labels falling along every chain; depth labels lift a family
back).  So the maximum is the Dilworth width of the product, and the maxima
project from its maximum antichains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable

from .core import Family, RankedPoset, _ids_of, family
from .errors import (
    NotKSpernerError,
    NotStrictlyNormalError,
    PosetError,
    SizeLimitError,
)
from .flows import (
    enumerate_maximum_antichain_ids,
    maximum_antichain_ids,
    minimum_chain_cover,
)
from .properties import ENUM_LEVEL_CAP, check_strictly_normal, strictly_normal_fast_path

ORACLE_CAP = 2000
# subsets the strict-normality scan may visit when the search can decide
SCAN_BUDGET = 1 << 16


def _strict_pairs(poset: RankedPoset) -> list[tuple[int, int]]:
    pairs = []
    for a in range(poset.n):
        mask = poset.up_mask[a] & ~(1 << a)
        while mask:
            low = mask & -mask
            pairs.append((a, low.bit_length() - 1))
            mask ^= low
    return pairs


def _depth_layers(poset: RankedPoset, fam: Iterable[int]) -> list[list[int]]:
    """Layer d: the members, in (rank, id) order, whose longest chain inside
    the family ending there has d + 1 elements, found by down-set mask tests."""
    down = poset.down_mask
    layers: list[list[int]] = []
    masks: list[int] = []
    for x in sorted(family(poset, fam), key=lambda x: (poset.ranks[x], x)):
        d = len(masks)
        while d and not masks[d - 1] & down[x]:
            d -= 1
        if d == len(masks):
            layers.append([])
            masks.append(0)
        layers[d].append(x)
        masks[d] |= 1 << x
    return layers


def longest_chain_in(poset: RankedPoset, fam: Iterable[int]) -> list[int]:
    """A longest chain inside the family, bottom to top: from the first member
    of the deepest layer, each step down takes the first member below it.
    `is_k_sperner` returns its first k + 1 members as the witness."""
    layers = _depth_layers(poset, fam)
    if not layers:
        return []
    chain = [layers[-1][0]]
    for layer in reversed(layers[:-1]):
        below = poset.down_mask[chain[-1]]
        chain.append(next(y for y in layer if below >> y & 1))
    return chain[::-1]


def is_k_sperner(
    poset: RankedPoset, fam: Iterable[int], k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """No chain of k+1 elements inside the family; otherwise one is returned."""
    if k < 1:
        raise PosetError("k must be at least 1")
    chain = longest_chain_in(poset, fam)
    if len(chain) > k:
        return False, tuple(chain[: k + 1])
    return True, None


def dual_dilworth_decompose(poset: RankedPoset, fam: Iterable[int]) -> list[Family]:
    """Peel minimal elements repeatedly; part count equals the longest chain."""
    return [frozenset(layer) for layer in _depth_layers(poset, fam)]


def lym_sum(poset: RankedPoset, fam: Iterable[int]) -> Fraction:
    """Exact sum of 1/N_rank over the family, one Fraction per rank."""
    counts = [0] * (poset.height + 1)
    for x in family(poset, fam):
        counts[poset.ranks[x]] += 1
    return sum(
        (Fraction(c, n) for c, n in zip(counts, poset.whitney) if c), Fraction(0)
    )


def _certify(poset: RankedPoset, families: list[Family], chains: list, k: int = 1) -> None:
    """A k-Sperner family with one member per chain of a chain cover (of the
    lifts into P × C_k) is maximum; every family listed must have its size."""
    if len(families[0]) != len(chains) or not is_k_sperner(poset, families[0], k)[0]:
        raise PosetError("matching dual failed to certify the maximum")
    if any(len(f) != len(chains) for f in families):
        raise PosetError("matching-based enumeration disagrees with the Dilworth size")


def max_antichain(poset: RankedPoset) -> Family:
    """A maximum antichain via minimum chain cover (Dilworth by matching)."""
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    antichain, chains = maximum_antichain_ids(poset.n, _strict_pairs(poset))
    _certify(poset, [antichain], chains)
    return antichain


def is_homogeneous(poset: RankedPoset, fam: Iterable[int]) -> bool:
    """True iff the family is a union of complete levels."""
    fam = set(fam)
    return all(len(fam.intersection(level)) in (0, len(level)) for level in poset.levels)


def _product(poset: RankedPoset, k: int) -> tuple | None:
    """The lifts (x, i) of P into P × C_k: their number, strict pairs and
    owners x by id; None from k levels on, where P is the unique maximum.

    (x, i) < (y, j) iff x <= y, i <= j and they differ.  Labels stop below
    c(x), the longest chain up from x, at most k: that keeps the lift labelling
    each member by the longest chain up from it in the family, less one, and
    drops only surplus lifts of the same families.
    """
    if k < 1:
        raise PosetError("k must be at least 1")
    if k >= len(poset.whitney):
        return None
    if not _searchable(poset, k):
        raise SizeLimitError(
            f"{poset.name}: n*k = {poset.n * k} exceeds the search cap {ORACLE_CAP} (k={k})"
        )
    if k == 1:  # the lifts are P itself
        return poset.n, _strict_pairs(poset), range(poset.n)
    c = [0] * poset.n
    for level in reversed(poset.levels):
        for x in level:
            c[x] = min(k, 1 + max((c[y] for y in poset.up_adj[x]), default=0))
    first: list[int] = []
    owner: list[int] = []
    for x in range(poset.n):
        first.append(len(owner))
        owner += [x] * c[x]

    def pairs() -> Iterable[tuple[int, int]]:
        for x in range(poset.n):
            for i in range(first[x], first[x] + c[x] - 1):
                for j in range(i + 1, first[x] + c[x]):
                    yield i, j
        # a < b gives c[a] >= c[b], so each label of b sits below its copy in a
        for a, b in _strict_pairs(poset):
            for i in range(c[b]):
                for j in range(first[b] + i, first[b] + c[b]):
                    yield first[a] + i, j

    return len(owner), pairs(), owner


def max_k_sperner_size(poset: RankedPoset, k: int) -> int:
    """Exact maximum size of a k-Sperner family: the chains of a minimum chain
    cover of the lifts into P × C_k, one matching and no enumeration."""
    product = _product(poset, k)
    return poset.n if product is None else len(minimum_chain_cover(*product[:2]))


def enumerate_maximum_k_sperner(poset: RankedPoset, k: int) -> tuple[int, list[Family]]:
    """All maximum k-Sperner families, projected from the maximum antichains
    of the lifts into P × C_k, in take-before-skip order over (rank, id): of
    two families, the first to hold an element the other lacks comes first.
    """
    product = _product(poset, k)
    if product is None:
        return poset.n, [frozenset(range(poset.n))]
    n_lifts, pairs, owner = product
    antichains, chains = enumerate_maximum_antichain_ids(n_lifts, pairs)
    # position p of the (rank, id) order is bit n - 1 - p, so the order wanted
    # is descending mask order; an antichain holds one lift of each member
    by_bit = sorted(range(poset.n), key=lambda x: (-poset.ranks[x], -x))
    bit = {x: 1 << b for b, x in enumerate(by_bit)}
    masks = sorted({sum(bit[owner[v]] for v in a) for a in antichains}, reverse=True)
    del antichains
    families = [frozenset(by_bit[b] for b in _ids_of(mask)) for mask in masks]
    _certify(poset, families, chains, k)
    return len(chains), families


def enumerate_maximum_antichains(poset: RankedPoset) -> tuple[int, list[Family]]:
    """All maximum antichains, sorted by id.

    A graded poset that is regular and level-connected is strictly normal, so
    by the strict LYM inequality only a full level reaches LYM sum 1; a maximum
    antichain, at least as large as every level, reaches it.  Its maxima are
    therefore its largest levels, read off the level sizes with no pair list
    or matching, and no cap applies.  Every other poset, up to ORACLE_CAP
    elements, is walked off one split-graph matching (a unique maximum costs
    just the matching) and certified by its chain cover.
    """
    if poset.is_graded and strictly_normal_fast_path(poset):
        size = max(poset.whitney)
        return size, sorted((frozenset(lv) for lv in poset.levels if len(lv) == size), key=sorted)
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    families, chains = enumerate_maximum_antichain_ids(poset.n, _strict_pairs(poset))
    _certify(poset, families, chains)
    return len(chains), families


@dataclass(frozen=True)
class StrictSpernerResult:
    holds: bool
    k: int
    max_size: int
    maxima_count: int
    witness: Family | None
    # "certificate" or "search": which path decided; not part of the verdict
    method: str = field(default="search", compare=False)

    def to_json(self) -> dict:
        return {
            "property": f"strict-{self.k}-sperner",
            "holds": self.holds,
            "max_size": self.max_size,
            "maxima_count": self.maxima_count,
            "witness": sorted(self.witness) if self.witness is not None else None,
            "method": self.method,
        }


def _searchable(poset: RankedPoset, k: int) -> bool:
    """Within the search cap: the product P × C_k has at most ORACLE_CAP elements."""
    return poset.n * k <= ORACLE_CAP


def _lym_certificate(poset: RankedPoset, k: int) -> StrictSpernerResult | None:
    """The verdict at k at or above the number of levels, or on a strictly
    normal poset with at least k levels; otherwise None.

    A cover raises rank by one, so no chain has more elements than there are
    levels: from k levels on, the whole poset is the unique maximum.
    A k-Sperner family splits into at most k antichains (its depth layers),
    each of LYM sum at most 1.  With at least k levels a maximum reaches LYM
    sum k, so each layer has sum 1 and, by strict normality, is a full level:
    the maxima are exactly the unions of k levels of largest total size.
    """
    if k >= len(poset.whitney):
        return StrictSpernerResult(True, k, poset.n, 1, None, method="certificate")
    if not poset.is_graded:
        return None
    if not strictly_normal_fast_path(poset):
        # the subset scan visits 2^|level| subsets of each level above the
        # bottom and refuses a level over its cap; a scan it would refuse, or a
        # large one where the search can decide, is left to the search
        scanned = poset.whitney[1:]
        if max(scanned, default=0) > ENUM_LEVEL_CAP or (
            _searchable(poset, k) and sum(1 << w for w in scanned) > SCAN_BUDGET
        ):
            return None
        if not check_strictly_normal(poset).holds:
            return None
    # the k-sets of levels of largest total: all g levels above the k-th
    # largest size v, and any k - g of the levels of size v
    sizes = sorted(poset.whitney, reverse=True)
    v = sizes[k - 1]
    above = sum(1 for w in sizes if w > v)
    count = comb(poset.whitney.count(v), k - above)
    return StrictSpernerResult(True, k, sum(sizes[:k]), count, None, method="certificate")


def check_strict_k_sperner(poset: RankedPoset, k: int) -> StrictSpernerResult:
    """Are all maximum k-Sperner families unions of complete levels?

    At k at or above the number of levels no chain has more than k elements,
    so the verdict holds on any poset, with the whole poset as the unique
    maximum.  A graded poset with more than k levels that passes
    `check_strictly_normal` is decided by the LYM certificate, with no search:
    the verdict holds, the maximum is the sum of the k largest levels, and the
    maxima are the k-sets of levels reaching it.  The search, projecting the
    maximum antichains of P × C_k up to 2000 product elements, decides every
    other input, and a poset that is not regular and level-connected when
    strict normality would need a subset scan of a level above 22 elements
    or, within the search cap, of more than 2^16 subsets in all.
    """
    if k < 1:
        raise PosetError("k must be at least 1")
    certified = _lym_certificate(poset, k)
    if certified is not None:
        return certified
    size, families = enumerate_maximum_k_sperner(poset, k)
    witness = next((fam for fam in families if not is_homogeneous(poset, fam)), None)
    return StrictSpernerResult(witness is None, k, size, len(families), witness)


@dataclass(frozen=True)
class StrictLymVerdict:
    total: Fraction
    k: int
    verdict: str
    homogeneous: bool | None
    witness: Family | None

    def to_json(self) -> dict:
        return {
            "sum": f"{self.total.numerator}/{self.total.denominator}",
            "k": self.k,
            "verdict": self.verdict,
            "homogeneous": self.homogeneous,
            "witness": sorted(self.witness) if self.witness is not None else None,
        }


def check_strict_lym(poset: RankedPoset, fam: Iterable[int], k: int) -> StrictLymVerdict:
    """Strict k-LYM: if the LYM sum of a k-Sperner family reaches k exactly,
    the family must be a union of complete levels.

    A family reaching k without being homogeneous is returned as a
    counterexample witness (none is expected on strictly normal posets).
    No package code calls it: it states the paper's strict LYM result for
    one family, beside the whole-poset verdict of `check_strict_k_sperner`.
    """
    fam = frozenset(fam)
    ok, chain = is_k_sperner(poset, fam, k)
    if not ok:
        raise NotKSpernerError(f"family contains a {len(chain)}-chain")
    if not check_strictly_normal(poset).holds:
        raise NotStrictlyNormalError(f"{poset.name} is not strictly normal")
    total = lym_sum(poset, fam)
    if total < k:
        return StrictLymVerdict(total, k, "below-k", None, None)
    if total > k:
        return StrictLymVerdict(total, k, "exceeds-k", None, fam)
    if is_homogeneous(poset, fam):
        return StrictLymVerdict(total, k, "homogeneous", True, None)
    return StrictLymVerdict(total, k, "counterexample", False, fam)
