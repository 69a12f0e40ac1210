"""The best full transversal, its count and the 2-part certificate against
exhaustive oracles.

`best_full_transversal` walks the P-levels in order, each taking the first
free Q-level of a size the sorted pairing still owes it.  The oracles below
walk every injection of the smaller factor's levels: one keeps the
lexicographically smallest optimum, another the blocks that optima use and
the levels whose removal lowers the optimum.
"""

import math
import random
import time
from itertools import permutations, product
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import azsperner.cli as cli
import azsperner.twopart as twopart
from azsperner import best_full_transversal, build_poset, parse_poset_spec, verify_strict_two_part
from azsperner.twopart import (
    Transversal,
    _lym_certificate,
    _optimal_transversal_count,
    well_paired_value,
)


def exhaustive_transversal(p, q) -> tuple[Transversal, int]:
    t = min(p.height, q.height) + 1
    swap = p.height < q.height
    big = range((q if swap else p).height + 1)
    small = range((p if swap else q).height + 1)
    best_value = -1
    best_pairs = None
    for perm in permutations(big, t):
        if swap:
            pairs = tuple(sorted((j, perm[j]) for j in small))
        else:
            pairs = tuple(sorted((perm[j], j) for j in small))
        value = sum(p.whitney[i] * q.whitney[j] for i, j in pairs)
        if value > best_value or (value == best_value and pairs < best_pairs):
            best_value, best_pairs = value, pairs
    return Transversal(pairs=best_pairs, full=len(best_pairs) == t), best_value


def whitney_poset(sizes):
    """A graded poset with the given level sizes, consecutive levels fully joined."""
    levels, elements = [], []
    for rank, size in enumerate(sizes):
        levels.append(range(len(elements), len(elements) + size))
        elements += [(x, rank) for x in levels[-1]]
    covers = [(x, y) for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi]
    return build_poset(elements, covers, name=f"whitney:{sizes}")


def whitney_vectors(min_height, max_height, smallest):
    """Level sizes smallest..4, so that many levels tie, with a positive top
    level: `whitney_poset` takes its height from the last rank."""
    sizes = st.integers(min_value=smallest, max_value=4)
    below = st.lists(sizes, min_size=min_height, max_size=max_height)
    return st.tuples(below, st.integers(min_value=1, max_value=4)).map(lambda v: [*v[0], v[1]])


@st.composite
def whitney_pairs(draw, relation, smallest=1):
    if relation == "<":
        a = draw(whitney_vectors(0, 4, smallest))
        b = draw(whitney_vectors(len(a), 5, smallest))
    elif relation == "=":
        a = draw(whitney_vectors(0, 5, smallest))
        b = draw(whitney_vectors(len(a) - 1, len(a) - 1, smallest))
    else:
        b = draw(whitney_vectors(0, 4, smallest))
        a = draw(whitney_vectors(len(b), 5, smallest))
    return whitney_poset(a), whitney_poset(b)


@pytest.mark.parametrize("relation", ["<", "=", ">"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_greedy_matches_exhaustive_oracle(relation, data):
    # levels of size 0 take the long levels left over
    p, q = data.draw(whitney_pairs(relation, smallest=0))
    sign = (p.height > q.height) - (p.height < q.height)
    assert sign == {"<": -1, "=": 0, ">": 1}[relation]
    transversal, value = best_full_transversal(p, q)
    expected, expected_value = exhaustive_transversal(p, q)
    assert transversal == expected
    assert value == expected_value == well_paired_value(p, q)
    assert transversal.full


@pytest.mark.parametrize("relation", ["<", "=", ">"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_optimal_transversal_count_matches_the_permutation_loop(relation, data):
    p, q = data.draw(whitney_pairs(relation))
    short, long = sorted((p.whitney, q.whitney), key=len)
    values = [
        sum(x * long[j] for x, j in zip(short, injection))
        for injection in permutations(range(len(long)), len(short))
    ]
    assert _optimal_transversal_count(p.whitney, q.whitney) == values.count(max(values))


def optimum(x, y):
    """The largest level-product sum of a full transversal, by every injection."""
    short, long = sorted((x, y), key=len)
    return max(
        sum(s * long[j] for s, j in zip(short, injection))
        for injection in permutations(range(len(long)), len(short))
    )


@pytest.mark.parametrize("relation", ["<", "=", ">"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_certificate_is_silent_exactly_where_a_used_block_fails(relation, data):
    p, q = data.draw(whitney_pairs(relation))
    a, b = p.whitney, q.whitney
    swap = len(a) > len(b)
    short, long = (b, a) if swap else (a, b)
    values = {}
    for injection in permutations(range(len(long)), len(short)):
        blocks = tuple((j, i) if swap else (i, j) for i, j in enumerate(injection))
        values[blocks] = sum(a[i] * b[j] for i, j in blocks)
    best = max(values.values())
    used = {block for blocks, value in values.items() if value == best for block in blocks}
    rows = {i for i in range(len(a)) if optimum(a[:i] + a[i + 1 :], b) < best}
    cols = {j for j in range(len(b)) if optimum(a, b[:j] + b[j + 1 :]) < best}
    fails = any(
        not ((i in rows or b[j] == 1) and (j in cols or a[i] == 1)) for i, j in used
    )
    assert (_lym_certificate(p, q) is None) == fails


SPECS = [
    "boolean:0", "boolean:2", "boolean:4", "chains:3", "chains:3,2,2",
    "subspace:3,2", "star:2,3", "divisor:360", "fig1a", "fig1b",
]


@pytest.mark.parametrize("p_spec", SPECS)
def test_generated_posets_match_oracle(p_spec):
    p = parse_poset_spec(p_spec)
    for q_spec in SPECS:
        q = parse_poset_spec(q_spec)
        transversal, value = best_full_transversal(p, q)
        expected, expected_value = exhaustive_transversal(p, q)
        assert transversal.to_json() == expected.to_json()
        assert value == expected_value


def test_empty_levels_match_oracle():
    # ranks may skip a level, which then has size 0
    vectors = [v for v in product(range(3), repeat=3) if v[-1]] + [(1,), (0, 2), (3, 0, 0, 1)]
    posets = [whitney_poset(v) for v in vectors]
    assert any(0 in p.whitney for p in posets)
    for p in posets:
        for q in posets:
            assert best_full_transversal(p, q) == exhaustive_transversal(p, q)


def test_boolean_9_pairs_levels_in_order():
    # ten levels on each side: the oracle would walk 10! injections
    b9 = parse_poset_spec("boolean:9")
    transversal, value = best_full_transversal(b9, b9)
    assert transversal.pairs == tuple((i, i) for i in range(10))
    assert transversal.full
    assert value == 48620


def test_boolean_20_level_sizes():
    # the transversal reads only the level sizes, so these stand in for boolean:20
    b20 = SimpleNamespace(height=20, whitney=tuple(comb(20, i) for i in range(21)))
    transversal, value = best_full_transversal(b20, b20)
    assert value == 137846528820 == comb(40, 20)
    assert transversal.pairs == tuple((i, i) for i in range(21))


def test_tall_random_vectors_pair_quickly():
    # 3,000 levels a side: re-pairing the free levels per candidate took 42 s
    rng = random.Random(3000)
    p, q = (
        SimpleNamespace(height=2999, whitney=tuple(rng.randint(1, 50) for _ in range(3000)))
        for _ in range(2)
    )
    start = time.perf_counter()
    transversal, value = best_full_transversal(p, q)
    assert time.perf_counter() - start < 2.0
    assert transversal.full and len(transversal.pairs) == 3000
    assert len({i for i, _ in transversal.pairs}) == len({j for _, j in transversal.pairs}) == 3000
    assert value == well_paired_value(p, q)
    assert value == sum(p.whitney[i] * q.whitney[j] for i, j in transversal.pairs)


def test_tall_chains_certify_in_closed_form():
    # one sort per side: per-level and per-block re-pairings took 3.1 s
    c3000 = parse_poset_spec("chains:3000")
    start = time.perf_counter()
    res = verify_strict_two_part(c3000, c3000)
    assert time.perf_counter() - start < 1.0
    assert (res.holds, res.max_size, res.well_paired_size, res.maxima_count, res.method) == (
        True,
        3000,
        3000,
        math.factorial(3000),
        "certificate",
    )


def test_tie_prefers_smaller_q_level():
    # levels 1 and 2 of q tie, so level 0 of p takes q-level 1
    p = whitney_poset([2])
    q = whitney_poset([1, 3, 3])
    transversal, value = best_full_transversal(p, q)
    assert transversal.pairs == ((0, 1),)
    assert value == 6


def test_each_caller_solves_the_transversal_at_most_once(monkeypatch, capsys):
    calls = []
    solve = twopart.best_full_transversal

    def counted(p, q):
        calls.append((p.name, q.name))
        return solve(p, q)

    monkeypatch.setattr(twopart, "best_full_transversal", counted)
    monkeypatch.setattr(cli, "best_full_transversal", counted, raising=False)
    b2 = parse_poset_spec("boolean:2")
    assert twopart.verify_strict_two_part(b2, b2).well_paired_size == 6
    assert calls == []
    assert cli.main(["twopart", "well-paired", "--p", "boolean:2", "--q", "chains:3"]) == 0
    assert calls == [("boolean:2", "chains:3")]
    assert '"size": 4' in capsys.readouterr().out
