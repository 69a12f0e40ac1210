"""Antichain and k-Sperner machinery: recognition, dual-Dilworth
decomposition, LYM sums, exact maximum oracles, and strict-Sperner checks.

The strict verdict on a strictly normal poset is read off the LYM
certificate (`_lym_certificate`); the searches below decide every other input
and are the certificate's oracle in the tests.

The exhaustive searches are branch-and-bound over elements in rank order; the
admissible bound comes from a fixed minimum chain cover (any k-Sperner family
meets a chain of length c in at most min(c, k) elements).  The search keeps k
layer bitmasks of the chosen elements, by the length of the longest chosen
chain ending at each, so a new element's depth is found with at most k mask
tests against its down-set.  The bound, the sum over cover chains of
min(k - chosen on the chain, members of the chain still ahead), is passed down
the recursion: each step changes one chain's term, by at most one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable

from .core import SOLUTION_CAP, Family, RankedPoset, family
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

EXHAUSTIVE_CAP = 24
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
    """Exact sum of 1/N_rank over the family."""
    return sum(
        (Fraction(1, poset.whitney[poset.ranks[x]]) for x in family(poset, fam)), Fraction(0)
    )


def _certify(poset: RankedPoset, antichain: Family, chains: list[list[int]]) -> None:
    """An antichain with one element per chain of a chain partition is maximum."""
    if len(antichain) != len(chains) or not poset.is_antichain(antichain):
        raise PosetError("matching dual failed to certify the antichain")


def max_antichain(poset: RankedPoset) -> Family:
    """A maximum antichain via minimum chain cover (Dilworth by matching)."""
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    antichain, chains = maximum_antichain_ids(poset.n, _strict_pairs(poset))
    _certify(poset, antichain, chains)
    return antichain


def is_homogeneous(poset: RankedPoset, fam: Iterable[int]) -> bool:
    """True iff the family is a union of complete levels."""
    fam = set(fam)
    for level in poset.levels:
        inside = fam.intersection(level)
        if inside and len(inside) != len(level):
            return False
    return True


class _KSpernerSearch:
    """Branch and bound over elements in rank order with a chain-cover bound."""

    def __init__(self, poset: RankedPoset, k: int):
        if k < 1:
            raise PosetError("k must be at least 1")
        self.poset = poset
        self.k = k
        self.order = sorted(range(poset.n), key=lambda x: (poset.ranks[x], x))
        cover = minimum_chain_cover(poset.n, _strict_pairs(poset))
        self.chain_of = [0] * poset.n
        for ci, chain in enumerate(cover):
            for x in chain:
                self.chain_of[x] = ci
        self.n_chains = len(cover)
        # remaining[idx]: members of order[idx]'s chain at positions idx onwards
        self.remaining = [0] * poset.n
        seen = [0] * self.n_chains
        for idx in range(poset.n - 1, -1, -1):
            c = self.chain_of[self.order[idx]]
            seen[c] += 1
            self.remaining[idx] = seen[c]
        self.root_bound = sum(min(k, count) for count in seen)

    def run(self, target: int | None = None) -> tuple[int, list[Family]]:
        """Find the maximum size, or enumerate all families of the target size."""
        k = self.k
        order = self.order
        n = len(order)
        chain_of = self.chain_of
        remaining = self.remaining
        down = self.poset.down_mask
        enumerate_all = target is not None
        whitneys = sorted(self.poset.whitney, reverse=True)
        self.best = target if enumerate_all else sum(whitneys[:k])
        self.found: list[Family] = []
        chosen: list[int] = []
        # layers[d]: the chosen elements whose longest chosen chain down has d + 1 members
        layers = [0] * k
        in_chain = [0] * self.n_chains

        def record() -> None:
            self.found.append(frozenset(chosen))
            if len(self.found) > SOLUTION_CAP:
                raise SizeLimitError("too many maximum families to enumerate")

        def search(idx: int, bound: int) -> None:
            # bound: sum over chains c of min(k - in_chain[c], members of c left)
            size = len(chosen)
            if enumerate_all:
                if size == self.best:
                    record()
                    return
                if size + bound < self.best:
                    return
            else:
                if size > self.best:
                    self.best = size
                if idx == n:
                    return
                if size + bound <= self.best:
                    return
            if idx == n:
                return
            x = order[idx]
            c = chain_of[x]
            below = down[x]
            d = k
            while d and not layers[d - 1] & below:
                d -= 1
            if d < k:
                bit = 1 << x
                chosen.append(x)
                layers[d] |= bit
                in_chain[c] += 1
                search(idx + 1, bound - 1)
                in_chain[c] -= 1
                layers[d] ^= bit
                chosen.pop()
            search(idx + 1, bound - (remaining[idx] <= k - in_chain[c]))

        search(0, self.root_bound)
        return self.best, self.found


def max_k_sperner_size(poset: RankedPoset, k: int) -> int:
    """Exact maximum size of a k-Sperner family (elements capped at 24).

    The size-only search, without the enumeration pass of
    `enumerate_maximum_k_sperner`; perfbench's tracer resolves it by name.
    """
    if poset.n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {EXHAUSTIVE_CAP}")
    size, _ = _KSpernerSearch(poset, k).run()
    return size


def enumerate_maximum_k_sperner(poset: RankedPoset, k: int) -> tuple[int, list[Family]]:
    """All maximum k-Sperner families, by exhaustive branch and bound."""
    if poset.n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {EXHAUSTIVE_CAP}")
    engine = _KSpernerSearch(poset, k)
    size, _ = engine.run()
    _, families = engine.run(target=size)
    return size, families


def enumerate_maximum_antichains(poset: RankedPoset) -> tuple[int, list[Family]]:
    """All maximum antichains, walked off the split-graph matching structure.

    Output-linear: a poset with a unique maximum costs one matching.  The
    size is certified against the chain cover read off that matching.
    """
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    families, chains = enumerate_maximum_antichain_ids(poset.n, _strict_pairs(poset))
    _certify(poset, families[0], chains)
    size = len(chains)
    if any(len(f) != size for f in families):
        raise PosetError("matching-based enumeration disagrees with the Dilworth size")
    return size, families


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
    """Within the search caps: any k up to 24 elements, k = 1 up to 2000."""
    return poset.n <= EXHAUSTIVE_CAP or (k == 1 and poset.n <= ORACLE_CAP)


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
    maxima are the k-sets of levels reaching it.  Every other input (not
    graded, or not strictly normal) is searched: up to 24 elements any k is handled
    exhaustively; for k = 1 the maximum antichains of posets up to 2000
    elements are enumerated.  The search also decides a poset that is not
    regular and level-connected when strict normality would need a subset
    scan of a level above 22 elements, or, within the search caps, of more
    than 2^16 subsets in all.
    """
    if k < 1:
        raise PosetError("k must be at least 1")
    certified = _lym_certificate(poset, k)
    if certified is not None:
        return certified
    if not _searchable(poset, k):
        raise SizeLimitError(
            f"{poset.name}: {poset.n} elements with k={k} exceeds the search caps"
        )
    if poset.n <= EXHAUSTIVE_CAP:
        size, families = enumerate_maximum_k_sperner(poset, k)
    else:
        size, families = enumerate_maximum_antichains(poset)
    for fam in families:
        if not is_homogeneous(poset, fam):
            return StrictSpernerResult(False, k, size, len(families), fam)
    return StrictSpernerResult(True, k, size, len(families), None)


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
