"""Ranked posets stored as Hasse diagrams, with exact order and chain queries.

A :class:`RankedPoset` is immutable after construction.  All comparability
queries go through per-element reachability bitmasks (plain Python ints), so
they stay exact and cheap at desk scale (up to ~10^4 elements).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ChainLimitError,
    CoverRankError,
    NotGradedError,
    PosetError,
    SizeLimitError,
    UnknownLabelError,
)

Family = frozenset[int]

CHAIN_ENUM_CAP = 100_000
# Most elements a generated poset may have, and the highest rank of any poset.
ELEMENT_CAP = 100_000
# Most maximum families (antichains, k-Sperner families, independent sets) listed.
SOLUTION_CAP = 1_000_000


def _mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def _ids_of(mask: int) -> frozenset[int]:
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


@dataclass(frozen=True)
class ChainCounts:
    """Maximal-chain census: the total and the count through each element."""

    total: int
    through: tuple[int, ...]


class RankedPoset:
    """A finite poset with explicit ranks, represented by its cover relation.

    ``ranks[x]`` gives the rank of element ``x`` (ids are dense, ``0..n-1``),
    ``covers`` holds pairs ``(lo, hi)`` with ``rank(hi) == rank(lo) + 1``, and
    ``levels[i]`` lists the elements of rank ``i``.  ``is_graded`` records
    whether every minimal element sits at rank 0 and every maximal element at
    the top rank; ``is_u_poset`` whether the poset has universal lower and
    upper bounds.
    """

    def __init__(
        self,
        name: str,
        ranks: Sequence[int],
        covers: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ):
        n = len(ranks)
        if n == 0:
            raise PosetError("poset must have at least one element")
        if any(r < 0 for r in ranks):
            raise PosetError("ranks must be non-negative")
        self.name = name
        self.n = n
        self.ranks = tuple(ranks)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise PosetError("labels length must match element count")

        cover_set = set()
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo},{hi}) references unknown element")
            if self.ranks[hi] != self.ranks[lo] + 1:
                raise CoverRankError(
                    f"cover ({lo},{hi}) spans ranks {self.ranks[lo]}->{self.ranks[hi]}"
                )
            cover_set.add((lo, hi))
        self.covers = tuple(sorted(cover_set))

        self.height = max(self.ranks)
        if self.height > ELEMENT_CAP:
            raise SizeLimitError(f"rank {self.height} is above the cap {ELEMENT_CAP}")
        level_lists: list[list[int]] = [[] for _ in range(self.height + 1)]
        for x, r in enumerate(self.ranks):
            level_lists[r].append(x)
        self.levels = tuple(tuple(lv) for lv in level_lists)
        self.whitney = tuple(len(lv) for lv in self.levels)

        up: list[list[int]] = [[] for _ in range(n)]
        down: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in self.covers:
            up[lo].append(hi)
            down[hi].append(lo)
        self.up_adj = tuple(tuple(sorted(a)) for a in up)
        self.down_adj = tuple(tuple(sorted(a)) for a in down)

        self.is_graded = all(self.whitney) and all(
            (self.ranks[x] == 0 or self.down_adj[x])
            and (self.ranks[x] == self.height or self.up_adj[x])
            for x in range(n)
        )

        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != n:
            # duplicate labels: fall back to id-only lookup
            self._label_index = {}

    # -- derived structure ------------------------------------------------

    @cached_property
    def up_cover_mask(self) -> tuple[int, ...]:
        """Upper covers as bitmasks; perfbench's warm-up reads it beside down_cover_mask."""
        return tuple(_mask_of(a) for a in self.up_adj)

    @cached_property
    def down_cover_mask(self) -> tuple[int, ...]:
        return tuple(_mask_of(a) for a in self.down_adj)

    @cached_property
    def level_mask(self) -> tuple[int, ...]:
        return tuple(_mask_of(lv) for lv in self.levels)

    @cached_property
    def up_mask(self) -> tuple[int, ...]:
        """Reachability bitmasks: bit y of up_mask[x] iff x <= y."""
        masks = [0] * self.n
        for i in range(self.height, -1, -1):
            for x in self.levels[i]:
                m = 1 << x
                for y in self.up_adj[x]:
                    m |= masks[y]
                masks[x] = m
        return tuple(masks)

    @cached_property
    def down_mask(self) -> tuple[int, ...]:
        """Reachability bitmasks: bit y of down_mask[x] iff y <= x."""
        masks = [0] * self.n
        for i in range(self.height + 1):
            for x in self.levels[i]:
                m = 1 << x
                for y in self.down_adj[x]:
                    m |= masks[y]
                masks[x] = m
        return tuple(masks)

    @cached_property
    def identity_denominator(self) -> tuple[int, ...]:
        """d-(x) * N_rank(x) per element: the denominator of x's identity term.

        Equal values share one int object, so the table costs one pointer per
        element.
        """
        shared: dict[int, int] = {}
        return tuple(
            shared.setdefault(d, d)
            for d in (len(adj) * self.whitney[r] for adj, r in zip(self.down_adj, self.ranks))
        )

    @cached_property
    def irregular_pair(self) -> tuple[int, str, int, int] | None:
        """The first same-rank pair whose degrees differ, or None on a regular poset.

        Lower degrees are scanned before upper ones and ranks bottom-up; the
        pair comes as (rank, "lower" | "upper", first element of the level, x).
        """
        for label, adj in (("lower", self.down_adj), ("upper", self.up_adj)):
            for i, level in enumerate(self.levels):
                if not level:
                    continue
                degree = len(adj[level[0]])
                for x in level[1:]:
                    if len(adj[x]) != degree:
                        return i, label, level[0], x
        return None

    @property
    def is_u_poset(self) -> bool:
        """A least element at rank 0 and a greatest at the top rank.

        Every cover raises rank by one, so on a graded poset each element lies
        on a cover path from rank 0 to the top rank, and a lone element at each
        end bounds everything.  No closure is built.
        """
        return self.is_graded and self.whitney[0] == 1 and self.whitney[-1] == 1

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"RankedPoset({self.name!r}, n={self.n}, whitney={list(self.whitney)})"

    def label(self, x: int) -> str:
        return self.labels[element_id(self, x)]

    def element_by_label(self, label: str) -> int:
        if label in self._label_index:
            return self._label_index[label]
        raise UnknownLabelError(f"no element labelled {label!r} in {self.name}")

    # The single-element queries validate their ids; internal callers that
    # have validated already read up_mask, up_adj and down_adj directly.
    def rank(self, x: int) -> int:
        return self.ranks[element_id(self, x)]

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up_mask[element_id(self, a)] >> element_id(self, b)) & 1)

    def lt(self, a: int, b: int) -> bool:
        return self.leq(a, b) and a != b

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def d_minus(self, x: int) -> int:
        return len(self.down_adj[element_id(self, x)])

    def d_plus(self, x: int) -> int:
        return len(self.up_adj[element_id(self, x)])

    # -- neighborhoods, upsets, downsets ------------------------------------

    def gamma_up(self, a: int) -> Family:
        """Upper covers of a (the rank r(a)+1 elements above it)."""
        return frozenset(self.up_adj[element_id(self, a)])

    def gamma_down(self, a: int) -> Family:
        """Lower covers of a (the rank r(a)-1 elements below it)."""
        return frozenset(self.down_adj[element_id(self, a)])

    def gamma_up_to_level(self, A: Iterable[int], i: int) -> Family:
        """All rank-i elements lying above some member of A.

        Ranks outside [0, height] yield the empty set.
        """
        ids = family(self, A)
        if not 0 <= i <= self.height:
            return frozenset()
        return _ids_of(self.upset_mask(ids) & self.level_mask[i])

    def gamma_down_to_level(self, A: Iterable[int], i: int) -> Family:
        """All rank-i elements lying below some member of A."""
        ids = family(self, A)
        if not 0 <= i <= self.height:
            return frozenset()
        return _ids_of(self.downset_mask(ids) & self.level_mask[i])

    def upset(self, A: Iterable[int]) -> Family:
        """The filter generated by A: every element above some member."""
        return _ids_of(self.upset_mask(family(self, A)))

    def downset(self, A: Iterable[int]) -> Family:
        """The ideal generated by A: every element below some member."""
        return _ids_of(self.downset_mask(family(self, A)))

    # The mask forms skip validation: the AZ kernels pass ids already checked.
    def upset_mask(self, A: Iterable[int]) -> int:
        m = 0
        for a in A:
            m |= self.up_mask[a]
        return m

    def downset_mask(self, A: Iterable[int]) -> int:
        m = 0
        for a in A:
            m |= self.down_mask[a]
        return m

    def is_antichain(self, A: Iterable[int]) -> bool:
        """No member lies above another: one upset-mask test per member."""
        ids = family(self, A)
        members = _mask_of(ids)
        return all(self.up_mask[a] & members == 1 << a for a in ids)

    # -- chains --------------------------------------------------------------

    @cached_property
    def _chain_dp(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(chains from the bottom level up to x, chains from x to the top level)."""
        if not self.is_graded:
            raise NotGradedError(f"{self.name} is not graded")
        down = [0] * self.n
        up = [0] * self.n
        for i in range(self.height + 1):
            for x in self.levels[i]:
                down[x] = 1 if i == 0 else sum(down[y] for y in self.down_adj[x])
        for i in range(self.height, -1, -1):
            for x in self.levels[i]:
                up[x] = 1 if i == self.height else sum(up[y] for y in self.up_adj[x])
        return tuple(down), tuple(up)

    def count_maximal_chains(self) -> ChainCounts:
        """Exact maximal-chain count and the per-element counts through each element.

        For every level i, the through-counts over that level sum to the total.
        """
        down, up = self._chain_dp
        through = tuple(down[x] * up[x] for x in range(self.n))
        total = sum(up[x] for x in self.levels[0])
        return ChainCounts(total=total, through=through)

    def chains_below_above(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per element: saturated chains reaching it from level 0, and from it to the top.

        The chain-crossing oracle `az.boundary_chain_fractions` reads them.
        """
        return self._chain_dp

    def enumerate_maximal_chains(self) -> list[tuple[int, ...]]:
        """List every maximal chain as a bottom-to-top id tuple, at most CHAIN_ENUM_CAP."""
        total = self.count_maximal_chains().total
        if total > CHAIN_ENUM_CAP:
            raise ChainLimitError(f"{self.name} has {total} maximal chains (> {CHAIN_ENUM_CAP})")
        chains: list[tuple[int, ...]] = []
        for bottom in self.levels[0]:
            if not self.up_adj[bottom]:
                chains.append((bottom,))
                continue
            # depth-first in up_adj order; branches[k] yields the covers of path[k]
            path = [bottom]
            branches = [iter(self.up_adj[bottom])]
            while branches:
                y = next(branches[-1], None)
                if y is None:
                    branches.pop()
                    path.pop()
                elif self.up_adj[y]:
                    path.append(y)
                    branches.append(iter(self.up_adj[y]))
                else:
                    chains.append((*path, y))
        return chains

    def is_maximal_chain(self, chain: Sequence[int]) -> bool:
        if len(chain) != self.height + 1:
            return False
        if self.ranks[chain[0]] != 0:
            return False
        return all(b in self.up_adj[a] for a, b in zip(chain, chain[1:]))

    # -- boundaries ------------------------------------------------------------

    def boundary_edges(self, A: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """Cover edges leaving the upset of A, grouped by their upper endpoint.

        Returns {x: lower endpoints v} for edges (v, x) with x in U(A), v not.
        """
        up = self.upset_mask(family(self, A))
        grouped: dict[int, tuple[int, ...]] = {}
        for x in range(self.n):
            if not (up >> x) & 1:
                continue
            outside = self.down_cover_mask[x] & ~up
            if outside:
                grouped[x] = tuple(sorted(_ids_of(outside)))
        return grouped

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "elements": [{"id": x, "rank": self.ranks[x]} for x in range(self.n)],
            "covers": [[lo, hi] for lo, hi in self.covers],
        }
        if any(self.labels[x] != str(x) for x in range(self.n)):
            obj["labels"] = list(self.labels)
        return obj

    def to_dot(self) -> str:
        """Hasse diagram in DOT, one rank per layer."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=BT;", "  node [shape=circle];"]
        for x in range(self.n):
            lines.append(f'  n{x} [label="{self.labels[x]}"];')
        for i, lv in enumerate(self.levels):
            members = " ".join(f"n{x};" for x in lv)
            lines.append(f"  {{ rank=same; {members} }}  // level {i}")
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(
    elements: Iterable[tuple[int, int]],
    covers: Iterable[tuple[int, int]],
    name: str = "poset",
    labels: Sequence[str] | None = None,
) -> RankedPoset:
    """Validate and construct a RankedPoset from (id, rank) pairs and cover edges.

    Ids must be unique and dense (0..n-1).  Every cover edge must raise rank by
    exactly one, which also rules out cycles.  The result records whether the
    poset is graded and whether it has universal bounds.
    """
    pairs = list(elements)
    ids = [i for i, _ in pairs]
    if len(set(ids)) != len(ids):
        raise PosetError("element ids must be unique")
    if sorted(ids) != list(range(len(ids))):
        raise PosetError("element ids must be dense (0..n-1)")
    ranks = [0] * len(ids)
    for i, r in pairs:
        ranks[i] = r
    return RankedPoset(name=name, ranks=ranks, covers=covers, labels=labels)


def _json_field(obj, key: str, kind: type, where: str):
    """obj[key] checked to be a kind (a bool is not an int), or a PosetError naming the key."""
    if not isinstance(obj, dict):
        raise PosetError(f"{where} must be a JSON object")
    if key not in obj:
        raise PosetError(f"{where} has no {key!r} key")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise PosetError(f"{where}: {key!r} must be a JSON {kind.__name__}")
    return value


def from_json(obj: dict | str, source: str = "poset JSON") -> RankedPoset:
    """Load a poset from the JSON interchange format.

    Malformed input raises a PosetError that names ``source`` and the
    offending key or entry.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:
            raise PosetError(f"{source} is not valid JSON: {exc}") from None
    elements = [
        (_json_field(e, "id", int, f"{source} element {i}"),
         _json_field(e, "rank", int, f"{source} element {i}"))
        for i, e in enumerate(_json_field(obj, "elements", list, source))
    ]
    covers = []
    for cover in _json_field(obj, "covers", list, source):
        if not (
            isinstance(cover, (list, tuple))
            and len(cover) == 2
            and all(type(v) is int for v in cover)
        ):
            raise PosetError(f"{source}: cover {cover!r} must be a pair of integer ids")
        covers.append(tuple(cover))
    labels = obj.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)
    ):
        raise PosetError(f"{source}: 'labels' must be a list of strings")
    name = obj.get("name", "poset")
    if not isinstance(name, str):
        raise PosetError(f"{source}: 'name' must be a JSON string")
    return build_poset(elements, covers, name=name, labels=labels)


def element_id(poset: RankedPoset, x) -> int:
    """x itself if it is an element id of the poset: a non-bool int in 0..n-1."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise PosetError(f"element id {x!r} in {poset.name} is not an integer")
    if not 0 <= x < poset.n:
        raise PosetError(f"element {x} not in {poset.name}")
    return x


def family(poset: RankedPoset, ids: Iterable[int]) -> Family:
    """A validated family (set of element ids) inside the poset."""
    return frozenset(element_id(poset, x) for x in ids)
