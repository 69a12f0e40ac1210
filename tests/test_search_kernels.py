"""The bit-parallel search kernels against independent references.

Each reference lives here: a sequential first-fit clique cover, brute force
over all vertex subsets, the pairwise conflict definition, and brute force
over all families filtered by ``is_k_sperner``.
"""

import random

from hypothesis import given, settings, strategies as st

from azsperner import build_poset, enumerate_maximum_k_sperner, is_k_sperner
from azsperner.mis import MaxIndependentSet, _greedy_clique_cover_bound
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
def graded_posets(draw, max_elements):
    """Small graded posets with ids shuffled across the levels."""
    sizes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
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
    assert _greedy_clique_cover_bound(cand, adj) == sequential_first_fit_cover(cand, adj)


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


@given(graded_posets(12))
@settings(max_examples=40, deadline=None)
def test_maximum_k_sperner_matches_brute_force(poset):
    subsets = [
        frozenset(x for x in range(poset.n) if (mask >> x) & 1) for mask in range(1 << poset.n)
    ]
    # the search takes an element before it skips it, in (rank, id) order
    order = sorted(range(poset.n), key=lambda x: (poset.ranks[x], x))
    for k in (1, 2, 3):
        families = [fam for fam in subsets if is_k_sperner(poset, fam, k)[0]]
        size = max(len(fam) for fam in families)
        maxima = sorted(
            (fam for fam in families if len(fam) == size),
            key=lambda fam: [x not in fam for x in order],
        )
        assert enumerate_maximum_k_sperner(poset, k) == (size, maxima)
