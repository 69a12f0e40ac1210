"""Antichain and k-Sperner machinery: recognition, dual-Dilworth
decomposition, LYM sums, exact maximum oracles, and strict-Sperner checks.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import Family, RankedPoset, family
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
from .properties import check_strictly_normal

EXHAUSTIVE_CAP = 24
ORACLE_CAP = 2000
SOLUTION_CAP = 1_000_000


def _strict_pairs(poset: RankedPoset) -> list[tuple[int, int]]:
    pairs = []
    for a in range(poset.n):
        mask = poset.up_mask[a] & ~(1 << a)
        while mask:
            low = mask & -mask
            pairs.append((a, low.bit_length() - 1))
            mask ^= low
    return pairs


def longest_chain_in(poset: RankedPoset, fam: Iterable[int]) -> list[int]:
    """A longest chain inside the family, bottom to top."""
    members = sorted(fam, key=lambda x: (poset.ranks[x], x))
    best_len: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for x in members:
        best, par = 1, None
        for y in members:
            if y == x:
                break
            if poset.lt(y, x) and best_len[y] + 1 > best:
                best, par = best_len[y] + 1, y
        best_len[x] = best
        parent[x] = par
    if not members:
        return []
    end = max(members, key=lambda x: best_len[x])
    chain = [end]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
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
    members = sorted(fam, key=lambda x: (poset.ranks[x], x))
    depth: dict[int, int] = {}
    for x in members:
        depth[x] = 1 + max(
            (depth[y] for y in members if y in depth and poset.lt(y, x)), default=0
        )
    parts: list[set[int]] = []
    for x, d in depth.items():
        while len(parts) < d:
            parts.append(set())
        parts[d - 1].add(x)
    return [frozenset(p) for p in parts]


def lym_sum(poset: RankedPoset, fam: Iterable[int]) -> Fraction:
    """Exact sum of 1/N_rank over the family."""
    return sum(
        (Fraction(1, poset.whitney[poset.ranks[x]]) for x in family(poset, fam)), Fraction(0)
    )


def max_antichain(poset: RankedPoset) -> Family:
    """A maximum antichain via minimum chain cover (Dilworth by matching)."""
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    pairs = _strict_pairs(poset)
    antichain = maximum_antichain_ids(poset.n, pairs)
    cover = minimum_chain_cover(poset.n, pairs)
    if len(antichain) != len(cover) or not poset.is_antichain(antichain):
        raise PosetError("matching dual failed to certify the antichain")
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

    def __init__(self, poset: RankedPoset, k: int, solution_cap: int = SOLUTION_CAP):
        if k < 1:
            raise PosetError("k must be at least 1")
        self.poset = poset
        self.k = k
        self.solution_cap = solution_cap
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
            if len(self.found) > self.solution_cap:
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
    """Exact maximum size of a k-Sperner family (elements capped at 24)."""
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
    size is certified against the minimum chain cover.
    """
    if poset.n > ORACLE_CAP:
        raise SizeLimitError(f"{poset.n} elements exceed the cap {ORACLE_CAP}")
    size = len(max_antichain(poset))
    families = enumerate_maximum_antichain_ids(
        poset.n, _strict_pairs(poset), cap=SOLUTION_CAP
    )
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

    def to_json(self) -> dict:
        return {
            "property": f"strict-{self.k}-sperner",
            "holds": self.holds,
            "max_size": self.max_size,
            "maxima_count": self.maxima_count,
            "witness": sorted(self.witness) if self.witness is not None else None,
        }


def check_strict_k_sperner(poset: RankedPoset, k: int) -> StrictSpernerResult:
    """Are all maximum k-Sperner families unions of complete levels?

    Up to 24 elements any k is handled exhaustively; for k = 1 the maximum
    antichains of posets up to 2000 elements are enumerated instead.
    """
    if poset.n <= EXHAUSTIVE_CAP:
        size, families = enumerate_maximum_k_sperner(poset, k)
    elif k == 1 and poset.n <= ORACLE_CAP:
        size, families = enumerate_maximum_antichains(poset)
    else:
        raise SizeLimitError(
            f"{poset.name}: {poset.n} elements with k={k} exceeds the search caps"
        )
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


def check_strict_lym(
    poset: RankedPoset, fam: Iterable[int], k: int, check_poset: bool = True
) -> StrictLymVerdict:
    """Strict k-LYM: if the LYM sum of a k-Sperner family reaches k exactly,
    the family must be a union of complete levels.

    A family reaching k without being homogeneous is returned as a
    counterexample witness (none is expected on strictly normal posets).
    """
    fam = frozenset(fam)
    ok, chain = is_k_sperner(poset, fam, k)
    if not ok:
        raise NotKSpernerError(f"family contains a {len(chain)}-chain")
    if check_poset and not check_strictly_normal(poset).holds:
        raise NotStrictlyNormalError(f"{poset.name} is not strictly normal")
    total = lym_sum(poset, fam)
    if total < k:
        return StrictLymVerdict(total, k, "below-k", None, None)
    if total > k:
        return StrictLymVerdict(total, k, "exceeds-k", None, fam)
    if is_homogeneous(poset, fam):
        return StrictLymVerdict(total, k, "homogeneous", True, None)
    return StrictLymVerdict(total, k, "counterexample", False, fam)
