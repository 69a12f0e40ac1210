"""The plain-Python flow layer against networkx (a test-only oracle) and brute force."""

import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import azsperner
from azsperner.flows import (
    _topological_sccs,
    enumerate_maximum_antichain_ids,
    matching_min_cut_side,
    maximum_antichain_ids,
    minimum_chain_cover,
    transportation,
)


def random_instance(rng):
    """Small bipartite transportation instance; half of them with level-pair weights."""
    rows = list(range(rng.randint(1, 6)))
    cols = [f"c{j}" for j in range(rng.randint(1, 6))]
    density = rng.random()
    edges = [(r, c) for r in rows for c in cols if rng.random() < density]
    rng.shuffle(edges)
    if rng.random() < 0.5:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        supply = {r: a for r in rows}
        demand = {c: b for c in cols}
    else:
        supply = {r: rng.randint(0, 6) for r in rows}
        demand = {c: rng.randint(0, 6) for c in cols}
    return rows, cols, edges, supply, demand


def networkx_value(rows, cols, edges, supply, demand):
    g = nx.DiGraph()
    g.add_node("s")
    g.add_node("t")
    for r in rows:
        g.add_edge("s", ("r", r), capacity=supply[r])
    for c in cols:
        g.add_edge(("c", c), "t", capacity=demand[c])
    total = sum(supply.values())
    for r, c in edges:
        g.add_edge(("r", r), ("c", c), capacity=total)
    return nx.maximum_flow_value(g, "s", "t")


def deficiency(rows_subset, edges, supply, demand):
    nbrs = {c for r, c in edges if r in rows_subset}
    return sum(supply[r] for r in rows_subset) - sum(demand[c] for c in nbrs)


@pytest.mark.parametrize("seed", range(4))
def test_flow_layer_matches_networkx_and_hall(seed):
    rng = random.Random(seed)
    for _ in range(150):
        rows, cols, edges, supply, demand = random_instance(rng)
        total = sum(supply.values())
        value = networkx_value(rows, cols, edges, supply, demand)
        feasible = value == total == sum(demand.values())

        shipments = transportation(rows, cols, edges, supply, demand)
        assert (shipments is not None) == feasible
        if shipments is not None:
            assert all(type(v) is int and v > 0 for v in shipments.values())
            assert set(shipments) <= set(edges)
            for r in rows:
                assert sum(v for (x, _), v in shipments.items() if x == r) == supply[r]
            for c in cols:
                assert sum(v for (_, y), v in shipments.items() if y == c) == demand[c]

        ok, witness = matching_min_cut_side(rows, cols, edges, supply, demand)
        assert ok == (value == total)
        if ok:
            assert witness == set()
            continue
        # Hall's condition fails on the witness, by exactly the flow shortfall,
        # and the witness is the largest row set doing so.
        assert deficiency(witness, edges, supply, demand) == total - value > 0
        best = [
            set(sub)
            for k in range(len(rows) + 1)
            for sub in combinations(rows, k)
            if deficiency(set(sub), edges, supply, demand) == total - value
        ]
        assert witness == set().union(*best)


def test_min_flow_long_augmenting_path():
    # a_i = i sits below b_i = m + i and b_{i+1}.  The greedy cover pairs a_i
    # with b_{i+1} and leaves b_0 and a_{m-1} alone: one path too many, whose
    # cancellation runs back through every element.
    m = 3000
    succ = [[m + i + 1, m + i] for i in range(m - 1)] + [[2 * m - 1]] + [[] for _ in range(m)]
    chains = minimum_chain_cover(succ)
    assert sorted(chains) == [[i, m + i] for i in range(m)]
    antichain, _ = maximum_antichain_ids(succ)
    assert antichain == frozenset(range(m, 2 * m))


def random_dag(rng, most=11):
    """Successor lists of a random DAG on 0..n-1, ids shuffled against a
    topological order, some arcs transitive; its transitive closure is the order."""
    n = rng.randint(0, most)
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.random()
    return [[y for y in range(n) if rank[x] < rank[y] and rng.random() < density / 2]
            for x in range(n)]


def closure_of(succ):
    g = nx.DiGraph([(x, y) for x in range(len(succ)) for y in succ[x]])
    g.add_nodes_from(range(len(succ)))
    return nx.transitive_closure_dag(g)


def networkx_width(closure):
    """Elements less a maximum matching of the split graph of the closure."""
    split = nx.Graph()
    split.add_nodes_from((0, x) for x in closure)
    split.add_edges_from(((0, a), (1, b)) for a, b in closure.edges)
    top = [(0, x) for x in closure]
    return len(closure) - len(nx.bipartite.hopcroft_karp_matching(split, top_nodes=top)) // 2


def check_engine(succ, closure, width):
    """The chain cover has the width, holds every element and follows the
    order; every listed maximum is an antichain of that size, the highest
    among them."""
    n = len(succ)
    chains = minimum_chain_cover(succ)
    assert len(chains) == width
    assert set().union(*chains) == set(range(n))  # chains may share elements
    assert all(closure.has_edge(a, b) for c in chains for a, b in zip(c, c[1:]))
    antichains, cover = enumerate_maximum_antichain_ids(succ)
    assert len(cover) == width and len(set(antichains)) == len(antichains)
    for a in antichains:
        assert len(a) == width and not any(closure.has_edge(x, y) for x in a for y in a)
    highest, _ = maximum_antichain_ids(succ)
    down = {a: a.union(*(closure.predecessors(y) for y in a)) for a in antichains}
    assert highest in down and all(down[a] <= down[highest] for a in antichains)
    return antichains


def brute_force_maxima(succ):
    """Every subset that is an antichain of the closure; the largest, sorted."""
    n = len(succ)
    g = closure_of(succ)
    antichains = [
        frozenset(s)
        for k in range(n + 1)
        for s in combinations(range(n), k)
        if not any(g.has_edge(a, b) for a in s for b in s)
    ]
    size = max(map(len, antichains))
    return g, sorted((a for a in antichains if len(a) == size), key=sorted)


# The greedy cover 5-0, 2-1, 3-6, 4 cancels down to the width 2: the first
# cancellation routes a second path through 6, and the second takes it off.
SHARED_PATHS = [[], [], [1, 3, 4, 6], [6], [0, 6], [0, 1, 2, 3], [1]]


@pytest.mark.parametrize("seed", range(3))
def test_min_flow_engine_matches_networkx_and_brute_force(seed):
    rng = random.Random(seed)
    for succ in [SHARED_PATHS] + [random_dag(rng) for _ in range(60)]:
        closure, maxima = brute_force_maxima(succ)
        assert check_engine(succ, closure, networkx_width(closure)) == maxima


@pytest.mark.parametrize("seed", range(2))
def test_min_flow_engine_matches_networkx_on_larger_dags(seed):
    rng = random.Random(seed)
    for _ in range(80):
        succ = random_dag(rng, most=40)
        closure = closure_of(succ)
        check_engine(succ, closure, networkx_width(closure))


@pytest.mark.parametrize("seed", range(3))
def test_topological_sccs_match_networkx(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(0, 12)
        succ = [{b for b in range(n) if rng.random() < 0.15} for _ in range(n)]
        comp = _topological_sccs(succ)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((a, b) for a in range(n) for b in succ[a])
        expected = {frozenset(c) for c in nx.strongly_connected_components(g)}
        got = {}
        for x, c in enumerate(comp):
            got.setdefault(c, set()).add(x)
        assert {frozenset(c) for c in got.values()} == expected
        assert sorted(got) == list(range(len(expected)))
        assert all(comp[a] <= comp[b] for a in range(n) for b in succ[a])


def test_import_leaves_networkx_out():
    src = str(Path(azsperner.__file__).resolve().parents[1])
    code = "import azsperner, sys; assert 'networkx' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
