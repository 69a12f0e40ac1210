"""Depth layers and level connectivity against their pairwise references.

`dual_dilworth_decompose` and `longest_chain_in` share one depth pass over
down-set masks, and `check_level_connected` walks the cover adjacency.  The
references below are quadratic DPs over `poset.lt` and a per-level rescan
of every cover.
"""

from hypothesis import given, settings, strategies as st

from azsperner import (
    check_level_connected,
    dual_dilworth_decompose,
    gen_boolean,
    gen_fig1b,
    parse_poset_spec,
)
from azsperner.sperner import longest_chain_in
from test_invariants import graded_posets


def reference_longest_chain(poset, fam):
    members = sorted(fam, key=lambda x: (poset.ranks[x], x))
    best_len = {}
    parent = {}
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


def reference_decompose(poset, fam):
    members = sorted(fam, key=lambda x: (poset.ranks[x], x))
    depth = {}
    for x in members:
        depth[x] = 1 + max(
            (depth[y] for y in members if y in depth and poset.lt(y, x)), default=0
        )
    parts = []
    for x, d in depth.items():
        while len(parts) < d:
            parts.append(set())
        parts[d - 1].add(x)
    return [frozenset(p) for p in parts]


def reference_level_connected(poset):
    """The first level i whose bipartite cover graph with level i + 1 is disconnected."""
    for i in range(poset.height):
        nodes = list(poset.levels[i]) + list(poset.levels[i + 1])
        adjacency = {x: set() for x in nodes}
        for lo, hi in poset.covers:
            if poset.ranks[lo] == i:
                adjacency[lo].add(hi)
                adjacency[hi].add(lo)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(nodes):
            return i
    return None


@st.composite
def poset_and_subset(draw):
    poset = draw(graded_posets())
    members = draw(st.sets(st.integers(min_value=0, max_value=poset.n - 1)))
    return poset, frozenset(members)


@given(poset_and_subset())
@settings(max_examples=200, deadline=None)
def test_depth_pass_matches_reference(case):
    poset, fam = case
    assert dual_dilworth_decompose(poset, fam) == reference_decompose(poset, fam)
    assert longest_chain_in(poset, fam) == reference_longest_chain(poset, fam)


def test_depth_pass_on_whole_lattices():
    for spec in ["boolean:5", "subspace:3,2", "chains:4,3", "fig1a", "fig1b"]:
        poset = parse_poset_spec(spec)
        fam = range(poset.n)
        assert dual_dilworth_decompose(poset, fam) == reference_decompose(poset, fam)
        assert longest_chain_in(poset, fam) == reference_longest_chain(poset, fam)


def test_depth_pass_on_duplicated_members():
    b3 = gen_boolean(3)
    fam = [0, 1, 1, 3, 7, 7]
    assert dual_dilworth_decompose(b3, fam) == reference_decompose(b3, fam)
    assert longest_chain_in(b3, fam) == reference_longest_chain(b3, fam)


@given(graded_posets())
@settings(max_examples=200, deadline=None)
def test_level_connected_matches_reference(poset):
    result = check_level_connected(poset)
    level = reference_level_connected(poset)
    assert result.holds == (level is None)
    assert result.detail == ({} if level is None else {"level": level})


def test_level_connected_fig1b():
    result = check_level_connected(gen_fig1b())
    assert not result.holds
    assert result.detail == {"level": reference_level_connected(gen_fig1b())}
