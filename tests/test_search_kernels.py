"""The exhaustive searches against independent references.

Each reference lives here: a sequential first-fit clique cover, brute force
over all vertex subsets, the pairwise conflict definition, and brute force
over all families filtered by ``is_k_sperner``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from azsperner import build_poset, enumerate_maximum_k_sperner, is_k_sperner, parse_poset_spec
from azsperner import flows
from azsperner.errors import SizeLimitError
from azsperner.sperner import max_k_sperner_size
from azsperner.mis import MaxIndependentSet, _clique_cover
from azsperner.twopart import _conflict, conflict_graph


def sequential_first_fit_cover(cand, adj):
    """Clique count of first-fit in id order: each vertex joins the first open
    clique whose common neighbourhood holds it, or opens a new one."""
    commons = []
    for v in range(len(adj)):
        if not (cand >> v) & 1:
            continue
        for idx, common in enumerate(commons):
            if (common >> v) & 1:
                commons[idx] = common & adj[v]
                break
        else:
            commons.append(adj[v])
    return len(commons)


@st.composite
def graphs(draw, max_vertices):
    """(adjacency bitmasks, candidate mask) of a random simple graph."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    cand = rng.getrandbits(n) if n else 0
    return adj, cand


@st.composite
def graded_posets(draw, max_elements, graded=True, max_levels=4):
    """Small ranked posets with ids shuffled across the levels.  Graded ones
    get covers patched in until no element is minimal above rank 0 or maximal
    below the top; the others keep only their random covers."""
    sizes = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_levels))):
        room = min(4, max_elements - sum(sizes))
        if room:
            sizes.append(draw(st.integers(min_value=1, max_value=room)))
    ids = draw(st.permutations(range(sum(sizes))))
    levels, offset = [], 0
    for size in sizes:
        levels.append(ids[offset : offset + size])
        offset += size
    covers = set()
    for lower, upper in zip(levels, levels[1:]):
        for x in lower:
            for y in upper:
                if draw(st.booleans()):
                    covers.add((x, y))
        if not graded:
            continue
        for y in upper:
            if not any((x, y) in covers for x in lower):
                covers.add((draw(st.sampled_from(lower)), y))
        for x in lower:
            if not any((x, y) in covers for y in upper):
                covers.add((x, draw(st.sampled_from(upper))))
    elements = [(x, r) for r, level in enumerate(levels) for x in level]
    return build_poset(elements, sorted(covers), name="random")


def brute_force_independent_sets(adj):
    """Every independent set of the graph as a bitmask, by a subset DP."""
    n = len(adj)
    independent = [True] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        independent[mask] = independent[rest] and not adj[low.bit_length() - 1] & rest
    return [mask for mask in range(1 << n) if independent[mask]]


@given(graphs(40))
@settings(max_examples=200, deadline=None)
def test_clique_cover_bound_matches_sequential_first_fit(graph):
    adj, cand = graph
    assert len(_clique_cover(cand, adj)) == sequential_first_fit_cover(cand, adj)


@given(graphs(14))
@settings(max_examples=80, deadline=None)
def test_mis_matches_brute_force(graph):
    adj, _ = graph
    sets = brute_force_independent_sets(adj)
    size = max(mask.bit_count() for mask in sets)
    maxima = sorted(mask for mask in sets if mask.bit_count() == size)

    found_size, witness = MaxIndependentSet(adj).run()
    assert found_size == size and witness in maxima

    found_size, found = MaxIndependentSet(adj).enumerate()
    assert found_size == size
    assert sorted(found) == maxima


@given(graded_posets(8), graded_posets(6))
@settings(max_examples=80, deadline=None)
def test_conflict_graph_matches_pairwise_definition(p, q):
    vertices, adj = conflict_graph(p, q)
    assert vertices == [(a, b) for a in range(p.n) for b in range(q.n)]
    for i, x in enumerate(vertices):
        row = sum(1 << j for j, y in enumerate(vertices) if _conflict(p, q, x, y))
        assert adj[i] == row


@given(st.booleans().flatmap(lambda graded: graded_posets(12, graded=graded, max_levels=6)))
@settings(max_examples=60, deadline=None)
def test_maximum_k_sperner_matches_brute_force(poset):
    subsets = [
        frozenset(x for x in range(poset.n) if (mask >> x) & 1) for mask in range(1 << poset.n)
    ]
    # the families come take-before-skip over the elements in (rank, id) order
    order = sorted(range(poset.n), key=lambda x: (poset.ranks[x], x))
    for k in (1, 2, 3, 4):
        families = [fam for fam in subsets if is_k_sperner(poset, fam, k)[0]]
        size = max(len(fam) for fam in families)
        maxima = sorted(
            (fam for fam in families if len(fam) == size),
            key=lambda fam: [x not in fam for x in order],
        )
        assert enumerate_maximum_k_sperner(poset, k) == (size, maxima)
        assert max_k_sperner_size(poset, k) == size


@given(graphs(14))
@settings(max_examples=80, deadline=None)
def test_mis_enumerates_brute_force_maxima_in_ascending_order(graph):
    adj, _ = graph
    sets = brute_force_independent_sets(adj)
    size = max(mask.bit_count() for mask in sets)
    maxima = sorted(mask for mask in sets if mask.bit_count() == size)
    assert MaxIndependentSet(adj).enumerate() == (size, maxima)


@given(graphs(14))
@settings(max_examples=80, deadline=None)
def test_mis_run_returns_an_independent_set_of_maximum_size(graph):
    # the greedy incumbent may be returned as is, so any maximum will do
    adj, _ = graph
    size = max(mask.bit_count() for mask in brute_force_independent_sets(adj))
    found_size, witness = MaxIndependentSet(adj).run()
    assert found_size == size == witness.bit_count()
    assert witness < 1 << len(adj)
    for v in range(len(adj)):
        if (witness >> v) & 1:
            assert not adj[v] & witness


def test_mis_on_the_empty_graph():
    assert MaxIndependentSet([]).run() == (0, 0)
    assert MaxIndependentSet([]).enumerate() == (0, [0])


def test_mis_listing_past_the_work_cap_is_refused(monkeypatch):
    # boolean:2 x chains:4 has 48 maximum independent sets of its 16 vertices
    _, adj = conflict_graph(parse_poset_spec("boolean:2"), parse_poset_spec("chains:4"))
    monkeypatch.setattr(flows, "LISTING_CAP", 48 * 16)
    _, maxima = MaxIndependentSet(adj).enumerate()
    assert len(maxima) == 48
    monkeypatch.setattr(flows, "LISTING_CAP", 48 * 16 - 1)
    with pytest.raises(SizeLimitError, match="over 47 maximum independent sets of 16 vertices"):
        MaxIndependentSet(adj).enumerate()


# (P, Q): (maximum, maxima, _search calls in run(), _search calls of the
# enumeration pass, which are enumerate()'s calls minus those of its run()).
# On the first three the greedy seed meets the root's cover bound, so run()
# stops at the root; the last one makes run() branch.
PINNED_TREES = {
    ("boolean:2", "chains:3"): (4, 6, 1, 22),
    ("boolean:3", "chains:4"): (8, 24, 1, 221),
    ("chains:6", "chains:6"): (6, 720, 1, 1957),
    ("chains:4,2", "boolean:3"): (15, 24, 856, 3351),
}


@pytest.mark.parametrize("specs", sorted(PINNED_TREES), ids="x".join)
def test_mis_tree_sizes_are_pinned(monkeypatch, specs):
    calls = []
    search = MaxIndependentSet._search

    def counted(self, *args):
        calls.append(args)
        return search(self, *args)

    monkeypatch.setattr(MaxIndependentSet, "_search", counted)
    _, adj = conflict_graph(*(parse_poset_spec(spec) for spec in specs))
    size, _ = MaxIndependentSet(adj).run()
    run_calls = len(calls)
    calls.clear()
    _, maxima = MaxIndependentSet(adj).enumerate()
    enumerate_calls = len(calls) - run_calls
    assert (size, len(maxima), run_calls, enumerate_calls) == PINNED_TREES[specs]
