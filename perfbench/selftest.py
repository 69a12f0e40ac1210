"""Self-tests of the benchmark's checkers: each must reject a planted wrong answer.

Run from the root of a checkout:  python3 perfbench/selftest.py
Every case first passes the real answer through the checker (it must be
accepted), then a copy with one planted fault (it must be rejected with the
named reason).  Exits 1 if any checker lets a fault through.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import azsperner as az  # noqa: E402
from azsperner.sperner import StrictSpernerResult  # noqa: E402

import checks as C  # noqa: E402
import workloads as W  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, real, planted, reason: str, error=C.WrongAnswer) -> None:
    """real() must pass; planted() must raise `error` with `reason` in its message."""
    try:
        real()
    except Exception as exc:
        FAILURES.append(f"{name}: the real answer was rejected ({exc})")
        return
    try:
        planted()
    except error as exc:
        if reason not in str(exc):
            FAILURES.append(f"{name}: rejected for another reason ({exc})")
            return
        print(f"ok   {name}: {exc}")
        return
    FAILURES.append(f"{name}: the planted fault was accepted")


def thm1_total() -> None:
    p = az.gen_boolean(3)
    own = C.OwnOrder(p)
    fam = [1, 6]
    report = az.az_identity_sum(p, fam)
    oracle = az.boundary_chain_fractions(p, fam)
    bad = dataclasses.replace(report, total=Fraction(5, 4))
    expect(
        "thm1 total 5/4",
        lambda: C.check_thm1(own, report, oracle),
        lambda: C.check_thm1(own, bad, oracle),
        "thm1 total 5/4",
    )


def covering_weight() -> None:
    p = az.gen_subspace_lattice(3, 2)
    own = C.OwnOrder(p)
    cov = az.build_chain_covering(p)
    edge = sorted(cov.g)[len(cov.g) // 2]
    g = dict(cov.g)
    g[edge] += Fraction(1, 1000)
    bad = dataclasses.replace(cov, g=g)
    expect(
        "covering with one weight perturbed",
        lambda: C.check_covering(own, cov),
        lambda: C.check_covering(own, bad),
        "sum at",
    )


def k_sperner_chain() -> None:
    p = az.gen_chain_product([5, 4])
    own = C.OwnOrder(p)
    real = az.check_strict_k_sperner(p, 1)  # fails: a non-homogeneous maximum exists
    # a largest level with one member swapped for an element below another member
    level = next(lv for lv in p.levels if len(lv) == real.max_size)
    witness = frozenset(list(level[1:]) + [p.down_adj[level[1]][0]])
    bad = StrictSpernerResult(False, 1, real.max_size, real.maxima_count, witness)
    expect(
        "1-Sperner witness holding a 2-chain",
        lambda: C.check_strict_k(own, 1, real),
        lambda: C.check_strict_k(own, 1, bad),
        "contains a 2-chain",
    )


def two_part_conflict() -> None:
    p = q = az.gen_boolean(2)
    op = oq = C.OwnOrder(p)
    real = az.max_two_part_sperner_exact(p, q)
    size, (fam,) = real
    # swap one member (a, b) for (a2, b), where a2 is comparable to another member's a
    swap = next(
        ((a, b), (a2, b))
        for a, b in sorted(fam)
        for a2 in range(p.n)
        if (a2, b) not in fam
        and any(d == b and c != a and op.comparable(a2, c) for c, d in fam)
    )
    bad = (size, [fam - {swap[0]} | {swap[1]}])
    expect(
        "2-part family with a conflicting pair",
        lambda: C.check_max_two(op, oq, real),
        lambda: C.check_max_two(op, oq, bad),
        "conflicting pair",
    )


def exit_code() -> None:
    cmds = dict((" ".join(argv), check) for argv, check in W.cli_commands(1))
    check = cmds["az verify --poset fig1a --family a,c --identity thm1"]
    line = '{"cmd": "az", "verdict": "deviates", "result": "5/4", "expected": "1/1"}\n'
    expect(
        "fig1a deviation with exit code 0",
        lambda: check((1, line)),
        lambda: check((0, line)),
        "exit code 0",
        error=C.OpFailed,
    )


def main() -> int:
    for case in (thm1_total, covering_weight, k_sperner_chain, two_part_conflict, exit_code):
        case()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
