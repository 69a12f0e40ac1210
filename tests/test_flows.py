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
    _hopcroft_karp,
    _topological_sccs,
    matching_min_cut_side,
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


def test_hopcroft_karp_long_augmenting_path():
    # Greedy matching leaves one augmenting path through every vertex.
    n = 3000
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    pair_l, pair_r = _hopcroft_karp(n, n, adj)
    assert sorted(pair_l) == list(range(n))
    assert all(pair_r[pair_l[u]] == u for u in range(n))


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
