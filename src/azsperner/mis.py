"""Exact maximum independent set by branch and bound, with full enumeration.

Vertices are 0..n-1 with adjacency bitmasks (plain Python ints).  The bound
is a greedy clique cover of the candidate set: an independent set takes at
most one vertex per clique.  The cover is built bit-parallel, one clique at
a time: the lowest candidate opens a clique, and each next member is the
lowest candidate adjacent to every member so far, kept up to date with one
AND per member (the colour-class construction of San Segundo et al., 2011).
That gives the same partition as first-fit in id order, vertex by vertex.
Intended for the desk-scale conflict graphs of product posets (tens of
vertices), where exactness matters more than scale.
"""

from __future__ import annotations

from .errors import SizeLimitError


def _greedy_clique_cover_bound(cand: int, adj: list[int]) -> int:
    bound = 0
    while cand:
        bound += 1
        q = cand
        while q:
            low = q & -q
            cand ^= low
            q = (q ^ low) & adj[low.bit_length() - 1]
    return bound


class MaxIndependentSet:
    """One solver instance per graph; run() finds the size, enumerate() all optima."""

    def __init__(self, adj: list[int], solution_cap: int = 1_000_000):
        self.n = len(adj)
        self.adj = adj
        self.solution_cap = solution_cap

    def run(self) -> tuple[int, int]:
        """(maximum size, one maximum independent set as a bitmask)."""
        self.best = 0
        self.best_mask = 0
        self._search(0, (1 << self.n) - 1, find_all=False, target=None)
        return self.best, self.best_mask

    def enumerate(self, target: int | None = None) -> tuple[int, list[int]]:
        """(maximum size, every maximum independent set as bitmasks)."""
        if target is None:
            target, _ = self.run()
        self.found: list[int] = []
        self._search(0, (1 << self.n) - 1, find_all=True, target=target)
        return target, self.found

    def _search(self, chosen: int, cand: int, find_all: bool, target: int | None) -> None:
        size = chosen.bit_count()
        if find_all:
            if size == target:
                self.found.append(chosen)
                if len(self.found) > self.solution_cap:
                    raise SizeLimitError("too many maximum independent sets")
                return
            if size + _greedy_clique_cover_bound(cand, self.adj) < target:
                return
        else:
            if size > self.best:
                self.best = size
                self.best_mask = chosen
            if size + _greedy_clique_cover_bound(cand, self.adj) <= self.best:
                return
        if not cand:
            return
        # branch on a highest-degree candidate
        best_v, best_deg = -1, -1
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (self.adj[v] & cand).bit_count()
            if deg > best_deg:
                best_v, best_deg = v, deg
        v = best_v
        bit = 1 << v
        self._search(chosen | bit, cand & ~bit & ~self.adj[v], find_all, target)
        self._search(chosen, cand & ~bit, find_all, target)
