"""Exact maximum independent set by colour-class branch and bound, with full enumeration.

Vertices are 0..n-1 with adjacency bitmasks (plain Python ints).  At every
node the candidates are split into a greedy clique cover, built bit-parallel
one clique at a time: the lowest candidate opens a clique, and each next
member is the lowest candidate adjacent to every member so far, kept up to
date with one AND per member (the colour-class construction of San Segundo
et al., 2011).  That is the same partition as first-fit in id order.

An independent set takes at most one vertex per clique, so the cover gives
the bound and the branch order in one pass (MCQ/MCS: Tomita and Seki, 2003;
Tomita et al., 2010).  The node walks the classes from the last to the
first, and each class from its highest id to its lowest.  A vertex of class
c can extend the chosen set by at most c more vertices, so once size + c no
longer beats the incumbent, it and every vertex after it are pruned.
Otherwise the node branches on the vertex with the candidates that follow it
in the walk and are not adjacent to it, then drops it.  Each independent set
is reached exactly once: once a vertex's branch is done, the vertex leaves
the candidates of every later branch.

``run()`` seeds its incumbent with a greedy independent set, built once at
the root by taking a candidate of least remaining degree (lowest id on
ties).  ``enumerate()`` returns the maxima as bitmasks in ascending order,
so its output does not depend on the search order.  Intended for the
desk-scale conflict graphs of product posets (tens of vertices), where
exactness matters more than scale.
"""

from __future__ import annotations

from .core import SOLUTION_CAP
from .errors import SizeLimitError


def _clique_cover(cand: int, adj: list[int]) -> list[int]:
    """The greedy clique cover of the candidates, as class masks in order."""
    classes = []
    while cand:
        members = 0
        q = cand
        while q:
            low = q & -q
            members |= low
            q = (q ^ low) & adj[low.bit_length() - 1]
        cand ^= members
        classes.append(members)
    return classes


def _greedy_independent_set(adj: list[int]) -> int:
    """A maximal independent set: repeatedly take a least-degree candidate."""
    chosen = 0
    cand = (1 << len(adj)) - 1
    while cand:
        best_v, best_deg = -1, len(adj)
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (adj[v] & cand).bit_count()
            if deg < best_deg:
                best_v, best_deg = v, deg
        chosen |= 1 << best_v
        cand &= ~(1 << best_v) & ~adj[best_v]
    return chosen


class MaxIndependentSet:
    """One solver instance per graph; run() finds the size, enumerate() all optima."""

    def __init__(self, adj: list[int]):
        self.n = len(adj)
        self.adj = adj

    def run(self) -> tuple[int, int]:
        """(maximum size, one maximum independent set as a bitmask)."""
        self.found: list[int] | None = None
        self.best_mask = _greedy_independent_set(self.adj)
        # a node prunes once it cannot beat `floor`: the incumbent's size here
        self.floor = self.best_mask.bit_count()
        self._search(0, 0, (1 << self.n) - 1)
        return self.floor, self.best_mask

    def enumerate(self) -> tuple[int, list[int]]:
        """(maximum size, every maximum independent set as bitmasks, ascending)."""
        target, _ = self.run()
        self.found = []
        # every set of `target` vertices beats target - 1
        self.floor = target - 1
        self._search(0, 0, (1 << self.n) - 1)
        return target, sorted(self.found)

    def _search(self, chosen: int, size: int, cand: int) -> None:
        if size > self.floor:
            if self.found is None:
                self.floor = size
                self.best_mask = chosen
            else:
                self.found.append(chosen)
                if len(self.found) > SOLUTION_CAP:
                    raise SizeLimitError("too many maximum independent sets")
                return
        adj = self.adj
        classes = _clique_cover(cand, adj)
        for c in range(len(classes), 0, -1):
            members = classes[c - 1]
            while members:
                if size + c <= self.floor:
                    return
                v = members.bit_length() - 1
                bit = 1 << v
                members ^= bit
                cand ^= bit
                self._search(chosen | bit, size + 1, cand & ~adj[v])
