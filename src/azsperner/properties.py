"""Structural predicates (regular, normal, strictly normal, level-connected,
strongly regular) and regular chain coverings.

Every checker returns a small result object carrying a witness on failure,
and serializes to the JSON certificate shape
{property, holds, witness, profile | lambda_table}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .core import RankedPoset
from .errors import (
    LevelTooLargeError,
    NotGradedError,
    NotNormalError,
    NotRegularError,
    NotStronglyRegularError,
    NotUPosetError,
)
from .flows import matching_min_cut_side, transportation

ENUM_LEVEL_CAP = 22


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check, with an optional failure witness."""

    property: str
    holds: bool
    witness: tuple[int, ...] | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {
            "property": self.property,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness is not None else None,
        }
        for key, value in self.detail.items():
            obj[key] = value
        return obj


@dataclass(frozen=True)
class LambdaTable:
    """Interval level-counts of a strongly regular poset.

    entries[(i, k, l)] is the number of rank-i elements between any comparable
    pair with ranks (k, l); every other triple counts zero.
    """

    height: int
    entries: dict[tuple[int, int, int], int]

    def get(self, i: int, k: int, l: int) -> int:
        return self.entries.get((i, k, l), 0)

    def to_json(self) -> dict:
        return {f"{i},{k},{l}": v for (i, k, l), v in sorted(self.entries.items())}


def _require_graded(poset: RankedPoset) -> None:
    if not poset.is_graded:
        raise NotGradedError(f"{poset.name} is not graded")


# -- regularity ----------------------------------------------------------------


def _level_degrees(poset: RankedPoset) -> tuple[list[int], list[int]]:
    """(d_minus, d_plus) of the first element of each level."""
    return (
        [len(poset.down_adj[level[0]]) for level in poset.levels],
        [len(poset.up_adj[level[0]]) for level in poset.levels],
    )


def check_regular(poset: RankedPoset) -> CheckResult:
    """Down- and up-degrees must depend only on the rank.

    On success the detail carries the per-rank degree profile; on failure the
    witness is a same-rank pair with differing degree.
    """
    _require_graded(poset)
    if poset.irregular_pair is not None:
        i, label, ref, x = poset.irregular_pair
        return CheckResult(
            "regular", False, witness=(ref, x), detail={"rank": i, "degree": label}
        )
    d_minus, d_plus = _level_degrees(poset)
    return CheckResult("regular", True, detail={"profile": {"d_minus": d_minus, "d_plus": d_plus}})


def degree_profile(poset: RankedPoset) -> tuple[list[int], list[int]]:
    """(d_minus, d_plus) per rank; raises if the poset is not regular."""
    _require_graded(poset)
    if poset.irregular_pair is not None:
        raise NotRegularError(f"{poset.name} is not regular")
    return _level_degrees(poset)


# -- normality ----------------------------------------------------------------


def _level_pair_edges(poset: RankedPoset, i: int) -> list[tuple[int, int]]:
    """Cover edges (upper, lower) between levels i and i-1."""
    return [(hi, lo) for lo in poset.levels[i - 1] for hi in poset.up_adj[lo]]


def _uniform_degree(poset: RankedPoset, i: int) -> int | None:
    """d when every element of level i has d upper covers and every element of
    level i + 1 has the same number of lower covers, else None.

    Such a pair is normal with g = 1/(N_i d) on every cover: the rows sum to
    1/N_i, and a column with d' lower covers sums to d'/(N_i d) = 1/N_{i+1},
    since both N_i d and N_{i+1} d' count the covers between the two levels.
    d >= 1: on a graded poset every element above rank 0 has a lower cover.
    """
    ups = {len(poset.up_adj[x]) for x in poset.levels[i]}
    downs = {len(poset.down_adj[y]) for y in poset.levels[i + 1]}
    return ups.pop() if len(ups) == len(downs) == 1 else None


def _normal_level_enumerate(
    poset: RankedPoset, i: int, strict: bool
) -> tuple[int, ...] | None:
    """Scan subsets of level i for a normalized-matching violation.

    Returns a violating (or, for strict mode, tight) subset, or None.
    Strict mode skips the full level.
    """
    upper = poset.levels[i]
    n_up = len(upper)
    if n_up > ENUM_LEVEL_CAP:
        raise LevelTooLargeError(
            f"level {i} of {poset.name} has {n_up} elements (> {ENUM_LEVEL_CAP})"
        )
    n_i = poset.whitney[i]
    n_lo = poset.whitney[i - 1]
    # shadow masks over the lower level, in local bit positions
    lower_pos = {x: b for b, x in enumerate(poset.levels[i - 1])}
    shadow = []
    for x in upper:
        m = 0
        for y in poset.down_adj[x]:
            m |= 1 << lower_pos[y]
        shadow.append(m)
    gamma = [0] * (1 << n_up)
    top = (1 << n_up) - 1
    for mask in range(1, 1 << n_up):
        low = mask & -mask
        gamma[mask] = gamma[mask ^ low] | shadow[low.bit_length() - 1]
        if strict and mask == top:
            continue
        lhs = mask.bit_count() * n_lo
        rhs = gamma[mask].bit_count() * n_i
        if lhs > rhs or (strict and lhs == rhs):
            return tuple(upper[b] for b in range(n_up) if (mask >> b) & 1)
    return None


def check_normal(poset: RankedPoset, mode: str = "flow") -> CheckResult:
    """Normalized matching between every pair of consecutive levels.

    flow mode passes a uniform level pair (constant up-degree below, constant
    down-degree above; see _uniform_degree) with no flow, and decides every
    other pair by integer max-flow feasibility, extracting a violating subset
    from a minimum cut; enumerate mode scans all subsets of the upper level
    (capped at 22 elements per level) and stays the independent oracle.
    """
    _require_graded(poset)
    if mode not in ("flow", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    levels_detail = []
    for i in range(1, poset.height + 1):
        if mode == "enumerate":
            witness = _normal_level_enumerate(poset, i, strict=False)
            ok = witness is None
        elif _uniform_degree(poset, i - 1) is not None:
            ok = True
        else:
            upper = poset.levels[i]
            lower = poset.levels[i - 1]
            edges = _level_pair_edges(poset, i)
            supply = {x: poset.whitney[i - 1] for x in upper}
            demand = {y: poset.whitney[i] for y in lower}
            ok, bad_rows = matching_min_cut_side(upper, lower, edges, supply, demand)
            witness = None if ok else tuple(sorted(bad_rows))
        levels_detail.append({"level": i, "ok": ok})
        if not ok:
            return CheckResult(
                "normal",
                False,
                witness=witness,
                detail={"mode": mode, "level": i, "levels": levels_detail},
            )
    return CheckResult("normal", True, detail={"mode": mode, "levels": levels_detail})


def check_level_connected(poset: RankedPoset) -> CheckResult:
    """Each consecutive-level bipartite cover graph must be connected."""
    _require_graded(poset)
    for i in range(poset.height):
        # covers join consecutive ranks: level i reaches up, level i + 1 down
        start = poset.levels[i][0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in poset.up_adj[x] if poset.ranks[x] == i else poset.down_adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != poset.whitney[i] + poset.whitney[i + 1]:
            return CheckResult(
                "level-connected", False, witness=None, detail={"level": i}
            )
    return CheckResult("level-connected", True)


def strictly_normal_fast_path(poset: RankedPoset) -> bool:
    """Regular and level-connected graded posets are strictly normal outright."""
    return check_regular(poset).holds and check_level_connected(poset).holds


def check_strictly_normal(poset: RankedPoset) -> CheckResult:
    """Strict normalized matching for every nonempty proper level subset.

    Fast path: regular and level-connected posets qualify outright.
    Otherwise each level (at most 22 elements) is scanned exhaustively and a
    tight subset is returned on failure.
    """
    _require_graded(poset)
    if strictly_normal_fast_path(poset):
        return CheckResult("strictly-normal", True, detail={"method": "fast-path"})
    for i in range(1, poset.height + 1):
        witness = _normal_level_enumerate(poset, i, strict=True)
        if witness is not None:
            return CheckResult(
                "strictly-normal",
                False,
                witness=witness,
                detail={"method": "enumeration", "level": i},
            )
    return CheckResult("strictly-normal", True, detail={"method": "enumeration"})


def _strongly_regular_scan(
    poset: RankedPoset,
) -> tuple[LambdaTable | None, tuple[tuple[int, ...], tuple[int, int, int]] | None]:
    """(the lambda table, None), or (None, ((a0, b0, a, b), (i, k, l))) for the
    first two comparable pairs whose intervals disagree at level i."""
    if not poset.is_u_poset:
        raise NotUPosetError(f"{poset.name} is not a U-poset")
    entries: dict[tuple[int, int, int], int] = {}
    origin: dict[tuple[int, int, int], tuple[int, int]] = {}
    for a in range(poset.n):
        k = poset.ranks[a]
        reach = poset.up_mask[a]
        b_mask = reach
        while b_mask:
            low = b_mask & -b_mask
            b = low.bit_length() - 1
            b_mask ^= low
            l = poset.ranks[b]
            interval = reach & poset.down_mask[b]
            for i in range(k, l + 1):
                count = (interval & poset.level_mask[i]).bit_count()
                key = (i, k, l)
                if key not in entries:
                    entries[key] = count
                    origin[key] = (a, b)
                elif entries[key] != count:
                    return None, ((*origin[key], a, b), key)
    return LambdaTable(height=poset.height, entries=entries), None


def check_strongly_regular(poset: RankedPoset) -> CheckResult:
    """Interval level-counts must depend only on (i, r(a), r(b)).

    On success the detail carries the full lambda table as JSON; a failure
    witness is a pair of comparable pairs whose intervals disagree at some
    level.
    """
    table, bad = _strongly_regular_scan(poset)
    if bad is not None:
        witness, triple = bad
        return CheckResult(
            "strongly-regular", False, witness=witness, detail={"triple": list(triple)}
        )
    return CheckResult("strongly-regular", True, detail={"lambda_table": table.to_json()})


def lambda_table(poset: RankedPoset) -> LambdaTable:
    """The lambda table of a strongly regular U-poset; raises on any other."""
    table, _ = _strongly_regular_scan(poset)
    if table is None:
        raise NotStronglyRegularError(f"{poset.name} is not strongly regular")
    return table


# -- chain coverings ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainCovering:
    """Per-cover-edge transition weights inducing a weighting of maximal chains.

    g(x, y) >= 0 with row sums 1/N_i over each x in level i (i < top) and
    column sums 1/N_{i+1} over each y in level i+1.  The induced chain weight
    is f(C) = (1/N_0) * prod over edges (x, y) of g(x, y) * N_{rank(x)}.
    """

    poset: RankedPoset
    g: dict[tuple[int, int], Fraction]

    def chain_weight(self, chain: Sequence[int]) -> Fraction:
        w = Fraction(1, self.poset.whitney[0])
        for x, y in zip(chain, chain[1:]):
            w *= self.g.get((x, y), Fraction(0)) * self.poset.whitney[self.poset.ranks[x]]
        return w

    def integer_chain_weights(self, chains: Sequence[Sequence[int]]) -> tuple[list[int], int, int]:
        """chain_weight of many maximal chains at once, in integers.

        Returns (ws, P, Q) with chain_weight(chains[k]) == ws[k] * P / Q; g is
        scaled per level by the lcm of its denominators, so no Fraction is built.
        """
        e, lcms = _scaled_edges(self.poset, self.g)
        return (_chain_products(e, chains), *_chain_scale(self.poset, lcms))

    def to_json(self) -> dict:
        return {
            f"{x},{y}": f"{w.numerator}/{w.denominator}" for (x, y), w in sorted(self.g.items())
        }


def build_chain_covering(poset: RankedPoset) -> ChainCovering:
    """Solve the per-level-pair transportation problems for a regular covering.

    A uniform level pair i (see _uniform_degree) gets the weight 1/(N_i d) on
    every cover, with no flow, so on a regular poset every maximal chain
    weighs 1/#chains.  Every other pair is scaled to an integer max-flow
    instance; infeasibility of any pair certifies a normality violation.
    """
    _require_graded(poset)
    # one weight object per uniform pair, which verify_chain_covering reads
    # once; the keys are the tuples of poset.covers, so g allocates none
    shared: list[Fraction | None] = []
    for i in range(poset.height):
        d = _uniform_degree(poset, i)
        shared.append(None if d is None else Fraction(1, poset.whitney[i] * d))
    g: dict[tuple[int, int], Fraction] = {
        c: w for c in poset.covers if (w := shared[poset.ranks[c[0]]]) is not None
    }
    for i, w in enumerate(shared):
        if w is not None:
            continue
        upper_size = poset.whitney[i + 1]
        lower_size = poset.whitney[i]
        edges = [(lo, hi) for lo in poset.levels[i] for hi in poset.up_adj[lo]]
        supply = {x: upper_size for x in poset.levels[i]}
        demand = {y: lower_size for y in poset.levels[i + 1]}
        flow = transportation(poset.levels[i], poset.levels[i + 1], edges, supply, demand)
        if flow is None:
            raise NotNormalError(
                f"{poset.name}: no regular covering, levels {i}..{i + 1} infeasible"
            )
        denom = lower_size * upper_size
        for (x, y), amount in flow.items():
            g[(x, y)] = Fraction(amount, denom)
    return ChainCovering(poset=poset, g=g)


@dataclass(frozen=True)
class CoveringReport:
    holds: bool
    marginals_ok: bool
    chains_ok: bool
    total: Fraction
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "marginals_ok": self.marginals_ok,
            "chains_ok": self.chains_ok,
            "total": f"{self.total.numerator}/{self.total.denominator}",
            "violations": list(self.violations),
        }


def _scaled_edges(
    poset: RankedPoset, g: dict[tuple[int, int], Fraction]
) -> tuple[list[dict[int, int]], list[int]]:
    """g as integers, scaled per level: (e, lcms).

    lcms[i] is the lcm of the denominators of g on the covers leaving level
    i, and e[x][y] = g(x, y) * lcms[rank x] for every cover (x, y), 0 where g
    has no entry.  Only numerators and denominators are read.
    """
    e: list[dict[int, int]] = [{} for _ in range(poset.n)]
    lcms = []
    for level in poset.levels[:-1]:
        weights = (g.get((x, y)) for x in level for y in poset.up_adj[x])
        shared = next(weights, None)
        if shared is not None and all(w is shared for w in weights):
            # one weight object on every cover of the level: read it once
            lcms.append(shared.denominator)
            for x in level:
                e[x] = dict.fromkeys(poset.up_adj[x], shared.numerator)
            continue
        rows = [[(y, g.get((x, y))) for y in poset.up_adj[x]] for x in level]
        scale = lcm(*(w.denominator for row in rows for _, w in row if w is not None))
        lcms.append(scale)
        for x, row in zip(level, rows):
            e[x] = {y: 0 if w is None else w.numerator * (scale // w.denominator) for y, w in row}
    return e, lcms


def _chain_scale(poset: RankedPoset, lcms: Sequence[int]) -> tuple[int, int]:
    """(P, Q) with chain weight = (product of e along the chain) * P / Q.

    f(C) = (1/N_0) * prod g(x, y) N_{rank x} with g = e / lcms[rank x], so
    P = N_0 ... N_{h-1} and Q = N_0 * lcms[0] ... lcms[h-1].  At height 0 the
    products are empty and every chain weighs 1/N_0.
    """
    return prod(poset.whitney[: poset.height]), poset.whitney[0] * prod(lcms)


def _chain_products(e: Sequence[dict[int, int]], chains: Sequence[Sequence[int]]) -> list[int]:
    """Per chain, the product of the scaled edge weights along it."""
    out = []
    for chain in chains:
        w = 1
        x = chain[0]
        for y in chain[1:]:
            w *= e[x][y]
            if not w:
                break
            x = y
        out.append(w)
    return out


def verify_chain_covering(poset: RankedPoset, covering: ChainCovering) -> CoveringReport:
    """Check the covering twice: marginal conditions on g, and chain masses by path sums.

    The chain route verifies that the induced weights sum to one and hit
    every element with mass 1/N_{rank}; the two routes must agree.  The mass
    of the chains through x factors as below[x] * above[x]: the sums, over
    the cover paths from level 0 up to x and from x up to the top, of the
    product of the edge weights along them.  It never reads the row or
    column sums, so it stays an independent route beside the marginals.

    All arithmetic is on exact integers.  Level i's edges are scaled by the
    lcm L_i of their denominators, e = g * L_i, so a chain weighs
    (product of e) * (N_0 ... N_{h-1}) / (N_0 * L_0 ... L_{h-1}), and every
    condition becomes an integer cross-multiplication.  The report's total is
    the one Fraction built.
    """
    _require_graded(poset)
    violations: list[str] = []
    marginals_ok = True
    checked = None  # the last weight read as non-negative; a shared one repeats
    for (x, y), w in covering.g.items():
        if w is checked:
            continue
        if w.numerator < 0:
            marginals_ok = False
            violations.append(f"negative weight on edge ({x},{y})")
        else:
            checked = w
    e, lcms = _scaled_edges(poset, covering.g)
    for i, scale in enumerate(lcms):
        n_lo, n_hi = poset.whitney[i], poset.whitney[i + 1]
        for x in poset.levels[i]:
            if sum(e[x].values()) * n_lo != scale:
                marginals_ok = False
                violations.append(f"row sum at element {x}")
        for y in poset.levels[i + 1]:
            if sum(e[x][y] for x in poset.down_adj[y]) * n_hi != scale:
                marginals_ok = False
                violations.append(f"column sum at element {y}")

    below = [1] * poset.n
    above = [1] * poset.n
    for level in poset.levels[1:]:
        for y in level:
            below[y] = sum(below[x] * e[x][y] for x in poset.down_adj[y])
    for level in reversed(poset.levels[:-1]):
        for x in level:
            above[x] = sum(w * above[y] for y, w in e[x].items())
    mass = sum(above[x] for x in poset.levels[0])
    chains_ok = True
    p, q = _chain_scale(poset, lcms)
    if mass * p != q:
        chains_ok = False
        violations.append("total chain mass differs from 1")
    for x in range(poset.n):
        if below[x] * above[x] * p * poset.whitney[poset.ranks[x]] != q:
            chains_ok = False
            violations.append(f"element mass at {x}")
    return CoveringReport(
        holds=marginals_ok and chains_ok,
        marginals_ok=marginals_ok,
        chains_ok=chains_ok,
        total=Fraction(mass * p, q),
        violations=tuple(violations),
    )


def level_size_identity_holds(poset: RankedPoset) -> bool:
    """Exact check of N_k = (d+_0 ... d+_{k-1}) / (d-_1 ... d-_k) on a regular poset."""
    d_minus, d_plus = degree_profile(poset)
    for k in range(1, poset.height + 1):
        value = Fraction(poset.whitney[0])
        for i in range(k):
            value *= d_plus[i]
        for i in range(1, k + 1):
            value /= d_minus[i]
        if value != poset.whitney[k]:
            return False
    return True
