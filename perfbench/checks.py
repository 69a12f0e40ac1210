"""Independent checks of every verdict the benchmark times.

Each check either returns quietly or raises WrongAnswer.  The checks recompute
what they need from a poset's ranks and cover list with the benchmark's own
code (level counts, reachability, row and column sums, chain and conflict
tests), or from closed forms of the paper; none compares against stored
output.  CLI contract breaches (wrong exit code, a line that is not JSON)
raise OpFailed instead: the operation failed rather than answered wrongly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations


class WrongAnswer(Exception):
    """A verdict that contradicts a property the method must have."""


class OpFailed(Exception):
    """An operation that did not produce a verdict under its contract."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- the benchmark's own view of a poset -------------------------------------


class OwnOrder:
    """Level counts, cover lists and reachability rebuilt from ranks and covers."""

    def __init__(self, poset):
        self.n = len(poset.ranks)
        self.ranks = list(poset.ranks)
        counts = Counter(self.ranks)
        self.height = max(self.ranks)
        self.whitney = [counts[i] for i in range(self.height + 1)]
        self.up = [[] for _ in range(self.n)]
        self.down = [[] for _ in range(self.n)]
        for lo, hi in poset.covers:
            self.up[lo].append(hi)
            self.down[hi].append(lo)
        self.above = [0] * self.n  # bit y set iff x <= y
        for x in sorted(range(self.n), key=lambda v: -self.ranks[v]):
            m = 1 << x
            for y in self.up[x]:
                m |= self.above[y]
            self.above[x] = m

    def leq(self, a: int, b: int) -> bool:
        return bool((self.above[a] >> b) & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def longest_chain(self, fam) -> int:
        members = sorted(fam, key=lambda v: self.ranks[v])
        best: dict[int, int] = {}
        for i, x in enumerate(members):
            best[x] = 1 + max(
                (best[y] for y in members[:i] if y != x and self.leq(y, x)), default=0
            )
        return max(best.values(), default=0)

    def homogeneous(self, fam) -> bool:
        counts = Counter(self.ranks[x] for x in fam)
        return all(self.whitney[i] == c for i, c in counts.items())


def level_choices(whitney: list[int], k: int, target: int) -> int:
    """Number of k-sets of levels whose sizes sum to target."""
    return sum(1 for c in combinations(whitney, k) if sum(c) == target)


def well_paired_value(wp: list[int], wq: list[int]) -> int:
    t = min(len(wp), len(wq))
    return sum(a * b for a, b in zip(sorted(wp, reverse=True)[:t], sorted(wq, reverse=True)[:t]))


# -- identity -------------------------------------------------------------------


def check_thm1(order: OwnOrder, report, oracle) -> None:
    """Total 1, and each term equals the chain-crossing fraction, whose total is 1."""
    grand, per = oracle
    require(report.total == 1, f"thm1 total {report.total} != 1")
    require(grand == 1, f"chain-crossing total {grand} != 1")
    require(len(report.terms) == order.n, "thm1 must give one term per element")
    for term in report.terms:
        require(
            term.term == per.get(term.element, 0),
            f"thm1 term at {term.element} differs from its chain-crossing fraction",
        )


def check_total_one(name: str, total) -> None:
    require(total == 1, f"{name} total {total} != 1")


def check_cor2(order: OwnOrder, fam, split) -> None:
    """LYM part |A|/N_i for a single-level antichain, and parts summing to 1."""
    lym, remainder = split
    level = {order.ranks[x] for x in fam}
    require(len(level) == 1, "cor2 input must be a single-level family")
    (i,) = level
    require(lym == Fraction(len(fam), order.whitney[i]), f"cor2 LYM part {lym}")
    require(lym + remainder == 1, f"cor2 total {lym + remainder} != 1")


def check_thm5(n: int, ranks: list[tuple[int, int]], report) -> None:
    """Total 1, and on the Boolean lattice B_n beta(k, l) = 1/C(n - l + k, k)."""
    require(report.total == 1, f"thm5 total {report.total} != 1")
    require(len(report.betas) == len(ranks), "thm5 needs one beta per pair")
    for (k, l), b in zip(ranks, report.betas):
        require(b == Fraction(1, math.comb(n - l + k, k)), f"beta({k},{l}) = {b}")


# -- structure ---------------------------------------------------------------------


def check_normal(order: OwnOrder, result, expect_normal: bool) -> None:
    """Normal posets pass; a failure's witness S violates |G(S)| N_i >= |S| N_(i-1)."""
    if expect_normal:
        require(result.holds, "a regular or LYM poset was reported not normal")
        return
    require(not result.holds, "a non-normal poset was reported normal")
    witness = result.witness
    require(bool(witness), "a normality failure needs a witness")
    levels = {order.ranks[x] for x in witness}
    require(len(levels) == 1, "the witness must lie in one level")
    (i,) = levels
    require(i >= 1, "the witness must lie above the bottom level")
    shadow = {y for x in witness for y in order.down[x]}
    require(
        len(shadow) * order.whitney[i] < len(witness) * order.whitney[i - 1],
        "the witness does not violate the normalized matching condition",
    )


def check_covering(order: OwnOrder, covering) -> None:
    """Weights on cover edges only, none negative, rows 1/N_i and columns 1/N_(i+1)."""
    g = covering.g
    rows = [Fraction(0)] * order.n
    cols = [Fraction(0)] * order.n
    for (x, y), w in g.items():
        require(y in order.up[x], f"weight on a non-cover ({x},{y})")
        require(w >= 0, f"negative weight on ({x},{y})")
        rows[x] += w
        cols[y] += w
    for x in range(order.n):
        r = order.ranks[x]
        if r < order.height:
            require(rows[x] == Fraction(1, order.whitney[r]), f"row sum at {x}")
        if r > 0:
            require(cols[x] == Fraction(1, order.whitney[r]), f"column sum at {x}")


def check_covering_report(report) -> None:
    require(report.holds and report.total == 1, "the covering did not verify")


def check_max_antichains(order: OwnOrder, size: int, families) -> None:
    """Size of the largest level; each family of that size and pairwise incomparable."""
    require(size == max(order.whitney), f"maximum antichain size {size}")
    require(len(families) >= 1, "no maximum antichain returned")
    require(len(set(families)) == len(families), "repeated antichain")
    for fam in families:
        require(len(fam) == size, "antichain of the wrong size")
        members = sorted(fam)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                require(not order.comparable(a, b), f"{a} and {b} are comparable")


# -- search ----------------------------------------------------------------------


def check_strict_k(order: OwnOrder, k: int, result) -> None:
    """Maximum = sum of the k largest levels; verdict consistent with the maxima."""
    top = sum(sorted(order.whitney, reverse=True)[:k])
    require(result.max_size == top, f"maximum {k}-Sperner size {result.max_size} != {top}")
    if result.holds:
        require(
            result.maxima_count == level_choices(order.whitney, k, top),
            "maxima count differs from the level choices reaching the maximum",
        )
        return
    fam = result.witness
    require(fam is not None and len(fam) == top, "the witness is not a maximum family")
    require(order.longest_chain(fam) <= k, f"the witness contains a {k + 1}-chain")
    require(not order.homogeneous(fam), "the witness is homogeneous")


def two_part_conflict(op: OwnOrder, oq: OwnOrder, fam) -> tuple | None:
    members = sorted(fam)
    for i, (a, b) in enumerate(members):
        for c, d in members[i + 1 :]:
            if (a == c and oq.comparable(b, d)) or (b == d and op.comparable(a, c)):
                return (a, b), (c, d)
    return None


def _product_homogeneous(op: OwnOrder, oq: OwnOrder, fam) -> bool:
    cells = Counter((op.ranks[a], oq.ranks[b]) for a, b in fam)
    return all(op.whitney[i] * oq.whitney[j] == c for (i, j), c in cells.items())


def check_two_part_family(op: OwnOrder, oq: OwnOrder, size: int, fam) -> None:
    require(len(fam) == size, "a 2-part family of the wrong size")
    pair = two_part_conflict(op, oq, fam)
    require(pair is None, f"conflicting pair {pair}")


def check_strict_two(op: OwnOrder, oq: OwnOrder, result) -> None:
    """Maximum = well-paired value; a failure witness is 2-part Sperner, not homogeneous."""
    best = well_paired_value(op.whitney, oq.whitney)
    require(result.max_size == best, f"2-part maximum {result.max_size} != {best}")
    require(result.well_paired_size == best, "well-paired size disagrees")
    require(result.maxima_count >= 1, "no maximum family counted")
    if not result.holds:
        check_two_part_family(op, oq, best, result.witness)
        require(not _product_homogeneous(op, oq, result.witness), "the witness is homogeneous")


def check_max_two(op: OwnOrder, oq: OwnOrder, answer) -> None:
    size, families = answer
    best = well_paired_value(op.whitney, oq.whitney)
    require(size == best, f"2-part maximum {size} != {best}")
    require(len(families) >= 1, "no family returned")
    for fam in families:
        check_two_part_family(op, oq, size, fam)


# -- cli ---------------------------------------------------------------------------


def parse_cli(code: int, stdout: str, want_code: int) -> list[dict]:
    """Exit code and JSON-lines contract; returns the parsed reports."""
    if code != want_code:
        raise OpFailed(f"exit code {code}, contract says {want_code}")
    reports = []
    for line in stdout.splitlines():
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError:
            raise OpFailed(f"stdout line is not JSON: {line[:80]!r}") from None
    if not reports:
        raise OpFailed("no report on stdout")
    return reports


def frac(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q))
