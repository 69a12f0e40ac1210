"""Acceptance suite: every criterion is an exact, zero-tolerance check.

Each criterion function returns a CriterionResult; ALL_CRITERIA lists them
in suite order.  Randomness is seeded per criterion so reports are
reproducible.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .az import (
    SkewPairSystem,
    adjoin_bounds,
    az_identity_sum,
    beta,
    boundary_chain_fractions,
    interval_w_sum,
    key_lemma_sum,
    second_az_identity,
)
from .core import RankedPoset, build_poset
from .errors import SkewViolationError
from .families import (
    gen_affine_poset,
    gen_boolean,
    gen_chain_product,
    gen_fig1a,
    gen_fig1b,
    gen_star_power,
    gen_subspace_lattice,
    truncate,
    whitney_oracle,
)
from .properties import (
    build_chain_covering,
    check_level_connected,
    check_normal,
    lambda_table,
    level_size_identity_holds,
    verify_chain_covering,
)
from .sperner import check_strict_k_sperner
from .twopart import (
    best_full_transversal,
    max_two_part_sperner_exact,
    product_covering_report,
    slices_by_q,
    two_part_az_sum,
    two_part_lym,
    two_part_sperner_identity,
    verify_strict_two_part,
)

SEED = 987_654_321


@dataclass(frozen=True)
class CriterionResult:
    num: int
    name: str
    passed: bool
    detail: dict
    seconds: float

    def to_json(self) -> dict:
        return {
            "criterion": self.num,
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            **self.detail,
        }


def _timed(num: int, name: str, body) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = body()
    return CriterionResult(num, name, passed, detail, time.perf_counter() - start)


def _random_family(rng: random.Random, n: int) -> frozenset[int]:
    size = rng.randint(1, n)
    return frozenset(rng.sample(range(n), size))


def _non_normal_witness_poset() -> RankedPoset:
    """Five elements, three of rank 1 over two of rank 0, matching fails."""
    elements = [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)]
    covers = [(0, 2), (0, 3), (0, 4), (1, 4)]
    return build_poset(elements, covers, name="non-normal-5", labels=list("uvxyz"))


def criterion_1() -> CriterionResult:
    """Identity sum is exactly 1 and matches the chain-crossing oracle."""

    def body():
        u_posets = [gen_boolean(n) for n in range(1, 6)]
        u_posets += [gen_subspace_lattice(3, 2), gen_subspace_lattice(4, 2)]
        bounded_only = [
            gen_star_power(2, 3),
            truncate(gen_boolean(4), 1, 3),
            truncate(gen_boolean(5), 1, 4),
            truncate(gen_subspace_lattice(3, 2), 1, 2),
            truncate(gen_star_power(2, 3), 1, 2),
        ]
        cases = 0
        for pi, poset in enumerate(u_posets):
            rng = random.Random(SEED + pi)
            for _ in range(200):
                fam = _random_family(rng, poset.n)
                report = az_identity_sum(poset, fam)
                grand, per = boundary_chain_fractions(poset, fam)
                if report.total != 1 or grand != 1:
                    return False, {"poset": poset.name, "family": sorted(fam)}
                for term in report.terms:
                    if term.term != per.get(term.element, Fraction(0)):
                        return False, {
                            "poset": poset.name,
                            "element": term.element,
                            "family": sorted(fam),
                        }
                cases += 1
        for pi, poset in enumerate(bounded_only):
            rng = random.Random(SEED + 100 + pi)
            bounded = adjoin_bounds(poset)
            for _ in range(200):
                fam = _random_family(rng, poset.n)
                total = key_lemma_sum(poset, fam)
                report = az_identity_sum(bounded, fam)
                grand, _ = boundary_chain_fractions(bounded, fam)
                if total != 1 or report.total != total or grand != 1:
                    return False, {"poset": poset.name, "family": sorted(fam)}
                cases += 1
        return True, {"cases": cases}

    return _timed(1, "identity sum = 1 with chain-crossing oracle", body)


def criterion_2() -> CriterionResult:
    """The figure-1 counterexamples behave exactly as recorded."""

    def body():
        fig1a = gen_fig1a()
        fam = [fig1a.element_by_label("a"), fig1a.element_by_label("c")]
        total = az_identity_sum(fig1a, fam).total
        if total != Fraction(5, 4):
            return False, {"fig1a_total": str(total)}
        fig1b = gen_fig1b()
        connected = check_level_connected(fig1b)
        if connected.holds or connected.detail.get("level") != 1:
            return False, {"fig1b_level_connected": connected.to_json()}
        for poset in (fig1a, fig1b):
            for mode in ("flow", "enumerate"):
                if not check_normal(poset, mode=mode).holds:
                    return False, {"poset": poset.name, "mode": mode}
        return True, {"fig1a_total": "5/4", "fig1b_disconnected_at": 1}

    return _timed(2, "figure-1 counterexamples reproduce", body)


def criterion_3() -> CriterionResult:
    """Bounded extension on the rank-2 affine poset over GF(2)."""

    def body():
        poset = gen_affine_poset(2, 2)
        bounded = adjoin_bounds(poset)
        families = []
        ids = range(poset.n)
        for size in (1, 2, 3):
            families.extend(frozenset(c) for c in combinations(ids, size))
        rng = random.Random(SEED + 3)
        while len(families) < 550:
            size = rng.randint(4, poset.n)
            families.append(frozenset(rng.sample(range(poset.n), size)))
        for fam in families:
            total = key_lemma_sum(poset, fam)
            alt = az_identity_sum(bounded, fam).total
            if total != 1 or alt != total:
                return False, {"family": sorted(fam), "total": str(total)}
        return True, {"cases": len(families)}

    return _timed(3, "bounded-extension identity on affine:2,2", body)


def _sample_skew_system(poset: RankedPoset, rng: random.Random) -> SkewPairSystem:
    while True:
        m = rng.randint(1, 3)
        pairs = []
        for _ in range(m):
            a = rng.randrange(poset.n)
            ups = sorted(poset.upset([a]))
            pairs.append((a, rng.choice(ups)))
        system = SkewPairSystem(pairs=tuple(pairs))
        try:
            system.validate(poset)
        except SkewViolationError:
            continue
        return system


def criterion_4() -> CriterionResult:
    """Beta closed form vs the binomial specialization and interval brute force."""

    def body():
        for n in (3, 4):
            poset = gen_boolean(n)
            table = lambda_table(poset)
            for k in range(n + 1):
                for l in range(k, n + 1):
                    expected = Fraction(1, math.comb(n - l + k, k))
                    if beta(poset, table, k, l) != expected:
                        return False, {"poset": poset.name, "k": k, "l": l}
            rng = random.Random(SEED + 40 + n)
            for _ in range(50):
                system = _sample_skew_system(poset, rng)
                report = second_az_identity(poset, system, table)
                if report.total != 1:
                    return False, {
                        "poset": poset.name,
                        "pairs": [list(p) for p in system.pairs],
                        "total": str(report.total),
                    }
        lposet = gen_subspace_lattice(3, 2)
        ltable = lambda_table(lposet)
        for a in range(lposet.n):
            mask = lposet.up_mask[a]
            while mask:
                low = mask & -mask
                b = low.bit_length() - 1
                mask ^= low
                k, l = lposet.ranks[a], lposet.ranks[b]
                if beta(lposet, ltable, k, l) != interval_w_sum(lposet, a, b):
                    return False, {"poset": lposet.name, "pair": [a, b]}
        return True, {"skew_systems": 100}

    return _timed(4, "beta values and skew-pair identity", body)


def criterion_5() -> CriterionResult:
    """Chain coverings exist on every normal test poset and verify exactly."""

    def body():
        posets = [
            gen_fig1a(),
            gen_fig1b(),
            gen_chain_product([3, 2, 2]),
            gen_boolean(2),
            gen_boolean(3),
            gen_boolean(4),
            gen_subspace_lattice(3, 2),
            gen_star_power(2, 2),
            gen_chain_product([3, 2]),
            gen_affine_poset(2, 2),
        ]
        for poset in posets:
            covering = build_chain_covering(poset)
            report = verify_chain_covering(poset, covering)
            if not report.holds:
                return False, {"poset": poset.name, "report": report.to_json()}
        return True, {"posets": [p.name for p in posets]}

    return _timed(5, "chain coverings build and verify", body)


def criterion_6() -> CriterionResult:
    """Maximum antichains of small strictly normal posets are full levels."""

    def body():
        strict_posets = [
            gen_boolean(1),
            gen_boolean(2),
            gen_boolean(3),
            gen_subspace_lattice(2, 2),
            gen_star_power(2, 2),
            gen_chain_product([3, 3]),
            gen_chain_product([3, 2, 2]),
            gen_chain_product([2, 2]),
        ]
        for poset in strict_posets:
            result = check_strict_k_sperner(poset, 1)
            if not result.holds:
                return False, {"poset": poset.name, "witness": sorted(result.witness)}
        fig1a = gen_fig1a()
        result = check_strict_k_sperner(fig1a, 1)
        expected = frozenset(
            {fig1a.element_by_label("a"), fig1a.element_by_label("c")}
        )
        if result.holds or result.witness != expected:
            return False, {"fig1a": result.to_json()}
        return True, {"posets": [p.name for p in strict_posets], "fig1a_witness": "a,c"}

    return _timed(6, "strict 1-part Sperner at desk scale", body)


def _random_nonempty_slices(
    p: RankedPoset, q: RankedPoset, rng: random.Random
) -> frozenset[tuple[int, int]]:
    fam = set()
    for y in range(q.n):
        size = rng.randint(1, p.n)
        for a in rng.sample(range(p.n), size):
            fam.add((a, y))
    return frozenset(fam)


def _random_two_part_sperner(
    p: RankedPoset, q: RankedPoset, rng: random.Random
) -> frozenset[tuple[int, int]]:
    """Nonempty-slice 2-part Sperner family from a random full transversal."""
    t = min(p.height, q.height) + 1
    p_choice = rng.sample(range(p.height + 1), t)
    fam = set()
    for j in range(q.height + 1):
        i = p_choice[j % t]
        level = p.levels[i]
        size = rng.randint(1, len(level))
        for a in rng.sample(level, size):
            for b in q.levels[j]:
                fam.add((a, b))
    return frozenset(fam)


def criterion_7() -> CriterionResult:
    """Two-part identity totals r(Q)+1; the Sperner split agrees."""

    def body():
        products = [
            (gen_boolean(2), gen_boolean(1)),
            (gen_boolean(2), gen_boolean(2)),
        ]
        for pi, (p, q) in enumerate(products):
            rng = random.Random(SEED + 70 + pi)
            expected = q.height + 1
            for _ in range(100):
                fam = _random_nonempty_slices(p, q, rng)
                report = two_part_az_sum(p, q, fam)
                if report.total != expected:
                    return False, {"product": (p.name, q.name), "total": str(report.total)}
                for y, slice_a in slices_by_q(q, fam).items():
                    _, per = boundary_chain_fractions(p, slice_a)
                    weight = Fraction(1, q.whitney[q.ranks[y]])
                    for x, value in per.items():
                        if report.per_element.get((x, y), Fraction(0)) != value * weight:
                            return False, {
                                "product": (p.name, q.name),
                                "element": [x, y],
                            }
            for _ in range(30):
                fam = _random_two_part_sperner(p, q, rng)
                lym, remainder = two_part_sperner_identity(p, q, fam)
                if lym + remainder != expected or lym != two_part_lym(p, q, fam):
                    return False, {"product": (p.name, q.name), "family": sorted(fam)}
        return True, {"cases": 260}

    return _timed(7, "two-part identity and its Sperner split", body)


def _criterion_8_products():
    chain3 = gen_chain_product([3])
    return [
        (gen_boolean(2), gen_boolean(2)),
        (gen_boolean(2), chain3),
        (chain3, gen_chain_product([3])),
    ]


def criterion_8() -> CriterionResult:
    """All maximum 2-part Sperner families are well-paired homogeneous."""

    def body():
        maxima: dict[str, int] = {}
        for p, q in _criterion_8_products():
            result = verify_strict_two_part(p, q)
            _, best = best_full_transversal(p, q)
            if not result.holds or result.max_size != best:
                return False, {"product": (p.name, q.name), "result": result.to_json()}
            maxima[f"{p.name} x {q.name}"] = result.max_size
        b2 = gen_boolean(2)
        # every bijection of b2's three levels onto themselves
        perm_values = {
            sum(b2.whitney[i] * b2.whitney[perm[i]] for i in range(3))
            for perm in product(range(3), repeat=3)
            if len(set(perm)) == 3
        }
        if max(perm_values) != 6 or maxima["boolean:2 x boolean:2"] != 6:
            return False, {"permutation_values": sorted(perm_values)}
        return True, {"maxima": maxima, "b2xb2_permutation_max": 6}

    return _timed(8, "strict two-part Sperner via exact enumeration", body)


def criterion_9() -> CriterionResult:
    """Pair-sum equalities for maximum families and chain pairs."""

    def body():
        for p, q in _criterion_8_products():
            n2_plus_1 = min(p.height, q.height) + 1
            _, families = max_two_part_sperner_exact(p, q, enumerate_all=True)
            cov1 = build_chain_covering(p)
            cov2 = build_chain_covering(q)
            for fam in families:
                if two_part_lym(p, q, fam) != n2_plus_1:
                    return False, {"product": (p.name, q.name), "family": sorted(fam)}
                for member in fam:
                    sub = fam - {member}
                    if two_part_lym(p, q, sub) >= n2_plus_1:
                        return False, {
                            "product": (p.name, q.name),
                            "subfamily_without": list(member),
                        }
                report = product_covering_report(p, q, fam, cov1, cov2)
                if not report.holds:
                    return False, {
                        "product": (p.name, q.name),
                        "report": report.to_json(),
                    }
        return True, {}

    return _timed(9, "pair sums attain the bound exactly for maxima", body)


def criterion_10() -> CriterionResult:
    """Cross-oracle consistency: modes, whitney numbers, level sizes."""

    def body():
        both_modes = [
            gen_fig1a(),
            gen_fig1b(),
            gen_boolean(2),
            gen_boolean(3),
            gen_boolean(4),
            gen_subspace_lattice(3, 2),
            gen_chain_product([3, 2, 2]),
            gen_star_power(2, 2),
            gen_affine_poset(2, 2),
            _non_normal_witness_poset(),
        ]
        for poset in both_modes:
            flow = check_normal(poset, mode="flow")
            enum = check_normal(poset, mode="enumerate")
            if flow.holds != enum.holds:
                return False, {"poset": poset.name, "flow": flow.holds, "enumerate": enum.holds}
        for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
            poset = gen_subspace_lattice(n, q)
            if list(poset.whitney) != whitney_oracle("subspace", n, q):
                return False, {"poset": poset.name, "whitney": list(poset.whitney)}
        regular_posets = [
            gen_boolean(3),
            gen_boolean(4),
            gen_subspace_lattice(3, 2),
            gen_star_power(2, 3),
            gen_affine_poset(2, 2),
            gen_fig1b(),
            truncate(gen_boolean(5), 1, 4),
        ]
        for poset in regular_posets:
            if not level_size_identity_holds(poset):
                return False, {"poset": poset.name, "identity": "level-size"}
        return True, {}

    return _timed(10, "cross-oracle consistency", body)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]
