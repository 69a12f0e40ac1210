"""The four workloads: a fixed, seeded list of operations each.

Building a list is the workload's set-up: it generates the posets, warms
their cached closures, chain counts and lambda-tables, and draws the inputs
from the seed.  One round runs the whole list; a run repeats whole rounds.
Every operation is a call into azsperner paired with an independent check
(see checks.py).  The benchmark's own views of the posets (OwnOrder) are
built lazily by the first check, so they stay out of the timed set-up.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import checks as C

# Tail percentile per workload: the highest of 80, 90, 95, 97.5, 99 that
# leaves at least ten samples beyond it.  Rounds repeat the same inputs, so
# for the in-process workloads the samples counted are the distinct
# operations of one round; the cli cycle is short, so there the samples are
# the calls of a run, which makes at least MIN_SAMPLES of them.
TAIL_PERCENTILE = {"identity": 95, "structure": 90, "search": 95, "cli": 80}
MIN_SAMPLES = {name: math.ceil(1000 / (100 - p)) for name, p in TAIL_PERCENTILE.items()}


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


class Own:
    """Lazily built OwnOrder per poset object."""

    def __init__(self):
        self._cache: dict[int, tuple] = {}

    def __call__(self, poset) -> C.OwnOrder:
        key = id(poset)
        if key not in self._cache:
            self._cache[key] = (poset, C.OwnOrder(poset))
        return self._cache[key][1]


def log_size(j: int, m: int, hi: int) -> int:
    """Slot j of m on a log-uniform grid from 1 to hi.

    Sizes are fixed and only the members are drawn, because the cost of an
    operation follows its size: random sizes made the tail move by seed.
    """
    return max(1, min(hi, round(hi ** ((j + 0.5) / m))))


def draw_family(rng: random.Random, poset, size: int) -> frozenset:
    """A random family of the given size, spread over the levels in proportion to their sizes.

    Systematic allocation fixes each level's share to within one element, so
    the cost of an identity (which grows with the upsets of low-rank members)
    depends on the size far more than on the seed; the members within each
    level are drawn at random.
    """
    counts = []
    cum, offset = 0.0, rng.random()
    for level in poset.levels:
        lo = math.floor(cum + offset)
        cum += size * len(level) / poset.n
        counts.append(math.floor(cum + offset) - lo)
    members = []
    for level, k in zip(poset.levels, counts):
        members += rng.sample(level, k)
    return frozenset(members)


def warm(poset) -> None:
    poset.up_mask, poset.down_mask, poset.level_mask
    poset.up_cover_mask, poset.down_cover_mask
    if poset.is_graded:
        poset.count_maximal_chains()


def relabel(poset, rng: random.Random):
    """An isomorphic copy with ids permuted by the seeded rng."""
    from azsperner import build_poset

    perm = list(range(poset.n))
    rng.shuffle(perm)
    labels = [None] * poset.n
    for x in range(poset.n):
        labels[perm[x]] = poset.labels[x]
    return build_poset(
        [(perm[x], poset.ranks[x]) for x in range(poset.n)],
        [(perm[a], perm[b]) for a, b in poset.covers],
        name=poset.name,
        labels=labels,
    )


def non_normal_5():
    """Three rank-1 elements over two rank-0 elements; normalized matching fails."""
    from azsperner import build_poset

    return build_poset(
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)],
        [(0, 2), (0, 3), (0, 4), (1, 4)],
        name="non-normal-5",
    )


def boolean_plus_chain(n: int):
    """B_n beside a chain of n+1 elements: graded, not normal at level 1."""
    from azsperner import build_poset, gen_boolean

    b = gen_boolean(n)
    size = b.n
    elements = [(x, b.ranks[x]) for x in range(size)]
    elements += [(size + i, i) for i in range(n + 1)]
    covers = list(b.covers) + [(size + i, size + i + 1) for i in range(n)]
    return build_poset(elements, covers, name=f"boolean:{n}+chain:{n + 1}")


# -- identity -------------------------------------------------------------------


def _skew_system(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Up to m pairs a_i <= b_i on B_n (ids are subsets) with a_i <= b_j only if i = j."""
    pairs: list[tuple[int, int]] = []
    for _ in range(50 * m):
        if len(pairs) == m:
            break
        a = rng.getrandbits(n)
        b = a | (rng.getrandbits(n) & rng.getrandbits(n))
        if all(a & ~b2 and a2 & ~b for a2, b2 in pairs):
            pairs.append((a, b))
    return pairs


def identity(seed: int) -> list[Op]:
    import azsperner as az

    rng = random.Random(seed)
    own = Own()
    b11 = az.gen_boolean(11)
    s52 = az.gen_subspace_lattice(5, 2)
    key_posets = [
        az.gen_star_power(2, 6),
        az.gen_star_power(3, 5),
        az.truncate(b11, 1, 10),
        az.gen_affine_poset(3, 4),
    ]
    b9 = az.gen_boolean(9)
    for p in [b11, s52, b9] + key_posets:
        warm(p)
    table = az.lambda_table(b9)
    if any(b9.ranks[m] != m.bit_count() for m in range(b9.n)):
        raise RuntimeError("boolean ids are expected to be subset bitmasks")

    ops: list[Op] = []

    def thm1(p, fam):
        return Op(
            "thm1",
            lambda: az.az_identity_sum(p, fam),
            lambda r: C.check_thm1(own(p), r, az.boundary_chain_fractions(p, fam)),
        )

    def keylemma(p, fam):
        return Op(
            "keylemma",
            lambda: az.key_lemma_sum(p, fam),
            lambda r: C.check_total_one("keylemma", r),
        )

    def cor2(p, fam):
        return Op("cor2", lambda: az.antichain_az(p, fam), lambda r: C.check_cor2(own(p), fam, r))

    def thm5(pairs):
        system = az.SkewPairSystem(pairs=tuple(pairs))
        ranks = [(b9.ranks[a], b9.ranks[b]) for a, b in pairs]
        return Op(
            "thm5",
            lambda: az.second_az_identity(b9, system, table),
            lambda r: C.check_thm5(9, ranks, r),
        )

    for p, m in ((b11, 48), (s52, 48)):
        for j in range(m):
            ops.append(thm1(p, draw_family(rng, p, log_size(j, m, p.n // 4))))
    for p in key_posets:
        m = 24
        for j in range(m):
            ops.append(keylemma(p, draw_family(rng, p, log_size(j, m, p.n // 4))))
    for p, m in ((b11, 40), (s52, 24)):
        inner = list(range(1, p.height))
        for j in range(m):
            level = p.levels[inner[j % len(inner)]]
            size = log_size(j, m, min(len(level), p.n // 4))
            ops.append(cor2(p, frozenset(rng.sample(level, size))))
    m = 48
    for j in range(m):
        ops.append(thm5(_skew_system(rng, 9, log_size(j, m, 16))))
    rng.shuffle(ops)
    return ops


# -- structure -------------------------------------------------------------------

# (spec, verify_chain_covering, enumerate_maximum_antichains); every poset
# also gets check_normal and build_chain_covering.  Many posets of graded
# sizes, so that operation costs spread evenly from 2 to 250 ms and no gap
# sits at the median.
STRUCTURE_POSETS = [
    ("boolean:7", False, True),
    ("boolean:8", False, True),
    ("boolean:9", False, False),
    ("trunc(boolean:8,1,7)", False, True),
    ("subspace:3,5", True, True),
    ("subspace:4,2", True, True),
    ("subspace:4,3", True, True),
    ("subspace:5,2", False, True),
    ("trunc(subspace:4,3,1,3)", True, True),
    ("affine:3,3", True, True),
    ("affine:4,2", False, True),
    ("star:3,3", True, True),
    ("star:2,4", True, True),
    ("star:2,5", True, True),
    ("star:3,4", True, True),
    ("star:4,3", True, True),
    ("star:5,3", True, True),
    ("chains:9,8", False, True),
    ("chains:4,4,4", True, True),
    ("chains:3,3,3,3", True, True),
    ("chains:5,4,3", True, True),
    ("chains:6,5,4", False, True),
    ("chains:7,6,5", False, True),
    ("chains:8,8,8", False, False),
    ("divisor:9240", True, True),
    ("divisor:5040", True, True),
    ("divisor:27720", False, True),
    ("divisor:55440", False, True),
    ("divisor:720720", False, True),
]


def structure(seed: int) -> list[Op]:
    import azsperner as az

    rng = random.Random(seed)
    own = Own()
    ops: list[Op] = []

    def normal(p, expect):
        return Op(
            "normal",
            lambda: az.check_normal(p, mode="flow"),
            lambda r: C.check_normal(own(p), r, expect),
        )

    def cover(p):
        return Op("cover", lambda: az.build_chain_covering(p), lambda r: C.check_covering(own(p), r))

    def verify(p, cov):
        return Op("verify", lambda: az.verify_chain_covering(p, cov), C.check_covering_report)

    def antichains(p):
        return Op(
            "antichains",
            lambda: az.enumerate_maximum_antichains(p),
            lambda r: C.check_max_antichains(own(p), r[0], r[1]),
        )

    for spec, do_verify, do_anti in STRUCTURE_POSETS:
        p = relabel(az.parse_poset_spec(spec), rng)
        warm(p)
        ops.append(normal(p, True))
        ops.append(cover(p))
        if do_verify:
            ops.append(verify(p, az.build_chain_covering(p)))
        if do_anti:
            ops.append(antichains(p))
    bad = relabel(boolean_plus_chain(7), rng)
    warm(bad)
    ops.append(normal(bad, False))
    rng.shuffle(ops)
    return ops


# -- search -------------------------------------------------------------------------

# (spec, largest k): the branch and bound on 24 elements costs 0.1-0.6 s at
# k = 3 and moves 5x with the labelling, so the larger posets stop at a lower k.
SEARCH_K_POSETS = [
    ("boolean:4", 3), ("chains:3,3,2", 3), ("chains:4,3,2", 1), ("chains:3,2,2,2", 2),
    ("chains:5,4", 2), ("chains:6,4", 1), ("chains:4,4", 3), ("subspace:3,2", 3),
    ("star:2,2", 3), ("fig1a", 3), ("non-normal-5", 2),
]
SEARCH_STRICT_PRODUCTS = [
    ("boolean:2", "boolean:2"), ("boolean:2", "chains:3"), ("boolean:3", "chains:4"),
    ("boolean:3", "boolean:2"), ("chains:2,2,2", "chains:4"), ("star:2,2", "chains:4"),
    ("star:2,2", "boolean:2"), ("chains:6", "chains:6"), ("chains:5", "chains:7"),
    ("boolean:2", "chains:3,3"), ("boolean:2", "chains:4"),
]
SEARCH_MAX_PRODUCTS = [
    ("boolean:3", "boolean:3"), ("boolean:2", "boolean:4"), ("chains:4,2", "boolean:3"),
    ("boolean:3", "chains:4,2"), ("chains:4,4", "chains:4"), ("boolean:2", "chains:4,4"),
    ("chains:3,3", "chains:3,2"), ("chains:5", "chains:3,3"), ("star:2,2", "chains:7"),
    ("chains:8", "chains:8"),
]
SEARCH_COPIES = 8


def search(seed: int) -> list[Op]:
    import azsperner as az

    rng = random.Random(seed)
    own = Own()
    ops: list[Op] = []

    def base(spec):
        return non_normal_5() if spec == "non-normal-5" else az.parse_poset_spec(spec)

    def fresh(spec):
        p = relabel(base(spec), rng)
        warm(p)
        return p

    def strict_k(p, k):
        return Op(
            f"strict-{k}",
            lambda: az.check_strict_k_sperner(p, k),
            lambda r: C.check_strict_k(own(p), k, r),
        )

    def strict_two(p, q):
        return Op(
            "strict-2part",
            lambda: az.verify_strict_two_part(p, q),
            lambda r: C.check_strict_two(own(p), own(q), r),
        )

    def max_two(p, q):
        return Op(
            "max-2part",
            lambda: az.max_two_part_sperner_exact(p, q),
            lambda r: C.check_max_two(own(p), own(q), r),
        )

    for _ in range(SEARCH_COPIES):
        for spec, top_k in SEARCH_K_POSETS:
            for k in range(1, top_k + 1):
                ops.append(strict_k(fresh(spec), k))
        for a, b in SEARCH_STRICT_PRODUCTS:
            ops.append(strict_two(fresh(a), fresh(b)))
        for a, b in SEARCH_MAX_PRODUCTS:
            ops.append(max_two(fresh(a), fresh(b)))
    rng.shuffle(ops)
    return ops


# -- cli ------------------------------------------------------------------------------


def _cli_gen(want_whitney):
    def check(out):
        (rep,) = C.parse_cli(*out, 0)
        C.require(rep["verdict"] == "pass", "gen did not pass")
        C.require(rep["whitney"] == want_whitney, f"whitney {rep['whitney']}")
        C.require(rep["elements"] == sum(want_whitney), "element count")

    return check


def _cli_verdict(code, verdict, **fields):
    def check(out):
        (rep,) = C.parse_cli(*out, code)
        C.require(rep["verdict"] == verdict, f"verdict {rep['verdict']} != {verdict}")
        for key, value in fields.items():
            got = C.frac(rep[key]) if isinstance(value, C.Fraction) else rep[key]
            C.require(got == value, f"{key} = {rep[key]!r}, expected {value!r}")

    return check


def _cli_criterion(k):
    def check(out):
        (rep,) = C.parse_cli(*out, 0)
        C.require(rep["criterion"] == k and rep["passed"] is True, f"criterion {k} failed")

    return check


def _cli_usage_error(out):
    (rep,) = C.parse_cli(*out, 2)
    C.require(rep["verdict"] == "error", "a malformed spec must give an error report")


def _gaussian(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def cli_commands(seed: int) -> list[tuple[list[str], Callable]]:
    """The command cycle: one call per subcommand, the ten criteria, fig1a, boolean:x."""
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    gen_spec, gen_whitney = rng.choice(
        [
            (f"boolean:{n}", [math.comb(n, i) for i in range(n + 1)]),
            (f"subspace:{n},2", [_gaussian(n, i, 2) for i in range(n + 1)]),
            (f"star:2,{n}", [math.comb(n, i) * 2**i for i in range(n + 1)]),
        ]
    )
    fam = f"random:{rng.randint(1, 16)}:{rng.randrange(10**6)}"
    one = C.Fraction(1)
    cmds = [
        (["gen", "--poset", gen_spec], _cli_gen(gen_whitney)),
        (["check", "--poset", f"boolean:{n}", "--property", "normal"],
         _cli_verdict(0, "pass", holds=True)),
        (["az", "verify", "--poset", "boolean:4", "--family", fam, "--identity", "thm1"],
         _cli_verdict(0, "pass", result=one, expected=one)),
        (["az", "verify", "--poset", "fig1a", "--family", "a,c", "--identity", "thm1"],
         _cli_verdict(1, "deviates", result=C.Fraction(5, 4))),
        (["sperner", "strict", "--poset", "boolean:3", "--k", "1"],
         _cli_verdict(0, "pass", holds=True, max_size=3,
                      maxima_count=C.level_choices([1, 3, 3, 1], 1, 3))),
        (["twopart", "verify-strict", "--p", "boolean:2", "--q", "chains:3"],
         _cli_verdict(0, "pass", max_size=C.well_paired_value([1, 2, 1], [1, 1, 1]))),
        (["cover", "--poset", "chains:3,2,2"], _cli_verdict(0, "pass", holds=True, total=one)),
    ]
    cmds += [(["suite", "--criterion", str(k)], _cli_criterion(k)) for k in range(1, 11)]
    cmds.append((["gen", "--poset", "boolean:x"], _cli_usage_error))
    return cmds


def cli(seed: int, root: str, env: dict, span_file: str | None) -> list[Op]:
    """Cold `python -m azsperner` calls; traced calls go through cli_shim.py."""
    if span_file is None:
        prefix = [sys.executable, "-m", "azsperner"]
    else:
        prefix = [sys.executable, os.path.join(root, "perfbench", "cli_shim.py"), span_file]

    def call(argv):
        def run():
            done = subprocess.run(prefix + argv, capture_output=True, text=True, env=env, cwd=root)
            return done.returncode, done.stdout

        return run

    return [Op(argv[0], call(argv), check) for argv, check in cli_commands(seed)]


IN_PROCESS = {"identity": identity, "structure": structure, "search": search}
