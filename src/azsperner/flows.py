"""Integer max-flow and bipartite-matching helpers in plain Python.

Capacities are integers throughout, so flow values are exact.  One Dinic
max-flow over a level pair (``level_pair_flow``) serves both the covering
construction and the normality check.

The Dilworth readers each solve one Hopcroft-Karp matching on the split
graph (``_dilworth``) and read everything off it: ``minimum_chain_cover``
returns the chain partition, ``maximum_antichain_ids`` the Koenig antichain
with that partition, and ``enumerate_maximum_antichain_ids`` every maximum
antichain, through an SCC condensation, with that partition.  An antichain
with one element per chain is maximum, which is the certificate the callers
check.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .errors import SizeLimitError

# maxima x elements an enumeration may list, for its time and memory
LISTING_CAP = 40_000_000


def level_pair_flow(
    rows: Iterable[Hashable],
    cols: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    supply: dict,
    demand: dict,
) -> tuple[int, dict[tuple[Hashable, Hashable], int], set]:
    """Dinic (1970) max-flow on source -> rows -> cols -> sink.

    Source arcs carry ``supply[r]``, sink arcs ``demand[c]``, and each edge
    ``(r, c)`` gets capacity = total supply, so cutting an edge never beats
    cutting every source arc.
    Returns (flow value, positive per-edge shipments, rows on the source side
    of a minimum cut).  The cut side is the largest one: every row that
    cannot reach the sink in the final residual graph.
    """
    rows = list(rows)
    cols = list(cols)
    edges = list(edges)
    n_rows = len(rows)
    n_cols = len(cols)
    row_node = {r: i for i, r in enumerate(rows)}
    col_node = {c: n_rows + j for j, c in enumerate(cols)}
    source = n_rows + n_cols
    sink = source + 1
    total = sum(supply[r] for r in rows)

    # Forward arc 2k runs tail[k] -> fwd_head[k]: source arcs, sink arcs, then
    # the edges.  Arc a runs to head[a] with residual cap[a]; its reverse is a ^ 1.
    tail = [source] * n_rows + list(range(n_rows, source)) + [row_node[r] for r, _ in edges]
    fwd_head = list(range(n_rows)) + [sink] * n_cols + [col_node[c] for _, c in edges]
    head = [0] * (2 * len(tail))
    head[0::2] = fwd_head
    head[1::2] = tail
    cap = [0] * len(head)
    cap[0::2] = (
        [supply[r] for r in rows] + [demand[c] for c in cols] + [total] * len(edges)
    )
    out: list[list[int]] = [[] for _ in range(sink + 1)]
    for k, (u, v) in enumerate(zip(tail, fwd_head)):
        out[u].append(2 * k)
        out[v].append(2 * k + 1)
    first_middle = 2 * (n_rows + n_cols)

    value = 0
    while True:
        level = [-1] * (sink + 1)
        level[source] = 0
        queue = [source]
        for u in queue:
            next_level = level[u] + 1
            for a in out[u]:
                v = head[a]
                if cap[a] and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            break
        value += _blocking_flow(source, sink, out, head, cap, level)

    shipments: dict[tuple[Hashable, Hashable], int] = {}
    for k, edge in enumerate(edges):
        amount = cap[first_middle + 2 * k + 1]
        if amount:
            shipments[edge] = shipments.get(edge, 0) + amount
    # Nodes that can still reach the sink in the residual graph; every row
    # outside them is on the largest source side of a minimum cut.
    reaches_sink = [False] * (sink + 1)
    reaches_sink[sink] = True
    queue = [sink]
    for v in queue:
        for a in out[v]:
            u = head[a]
            if cap[a ^ 1] and not reaches_sink[u]:
                reaches_sink[u] = True
                queue.append(u)
    cut_rows = {r for i, r in enumerate(rows) if not reaches_sink[i]}
    return value, shipments, cut_rows


def _blocking_flow(
    source: int, sink: int, out: list[list[int]], head: list[int], cap: list[int], level: list[int]
) -> int:
    """Saturate every shortest augmenting path of the level graph.

    Iterative DFS with current-arc pointers: an arc that is saturated or leads
    to a dead end is never tried again in this phase.
    """
    pointer = [0] * len(out)
    pushed = 0
    path: list[int] = []  # arcs from the source to u
    u = source
    while True:
        if u == sink:
            amount = min(cap[a] for a in path)
            for a in path:
                cap[a] -= amount
                cap[a ^ 1] += amount
            pushed += amount
            # retreat to the tail of the first saturated arc
            k = next(k for k, a in enumerate(path) if not cap[a])
            u = head[path[k] ^ 1]
            del path[k:]
            continue
        arcs = out[u]
        i = pointer[u]
        want = level[u] + 1
        while i < len(arcs):
            a = arcs[i]
            if cap[a] and level[head[a]] == want:
                break
            i += 1
        pointer[u] = i
        if i < len(arcs):
            a = arcs[i]
            path.append(a)
            u = head[a]
        elif u == source:
            return pushed
        else:
            level[u] = -1  # dead end for the rest of this phase
            a = path.pop()
            u = head[a ^ 1]
            pointer[u] += 1


def transportation(
    rows: Iterable[Hashable],
    cols: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    supply: dict,
    demand: dict,
) -> dict[tuple[Hashable, Hashable], int] | None:
    """Ship integer supplies to integer demands along allowed edges.

    Returns per-edge shipments (only positive ones) or None if infeasible.
    """
    rows = list(rows)
    cols = list(cols)
    total = sum(supply[r] for r in rows)
    if total != sum(demand[c] for c in cols):
        return None
    value, shipments, _ = level_pair_flow(rows, cols, edges, supply, demand)
    return shipments if value == total else None


def matching_min_cut_side(
    rows: Iterable[Hashable],
    cols: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    supply: dict,
    demand: dict,
) -> tuple[bool, set]:
    """Feasibility of the transportation instance plus a deficient row set.

    When infeasible, returns the rows on the source side of a minimum cut;
    their joint neighborhood certifies the matching-condition violation.
    """
    rows = list(rows)
    value, _, cut_rows = level_pair_flow(rows, cols, edges, supply, demand)
    if value == sum(supply[r] for r in rows):
        return True, set()
    return False, cut_rows


def _hopcroft_karp(n_left: int, n_right: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; returns (pair_left, pair_right) with -1 for free."""
    INF = float("inf")
    pair_l = [-1] * n_left
    pair_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        from collections import deque

        queue = deque()
        for u in range(n_left):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """Layered DFS without recursion; a frame is [u, index of the neighbor tried]."""
        frames = [[root, 0]]
        while frames:
            frame = frames[-1]
            u, i = frame
            nbrs = adj[u]
            while i < len(nbrs):
                w = pair_r[nbrs[i]]
                if w == -1 or dist[w] == dist[u] + 1:
                    break
                i += 1
            frame[1] = i
            if i == len(nbrs):
                dist[u] = INF
                frames.pop()
                if frames:
                    frames[-1][1] += 1
            elif pair_r[nbrs[i]] == -1:
                for x, j in frames:  # flip the augmenting path
                    v = adj[x][j]
                    pair_l[x] = v
                    pair_r[v] = x
                return
            else:
                frames.append([pair_r[nbrs[i]], 0])

    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1:
                augment(u)
    return pair_l, pair_r


def _dilworth(
    n: int, strict_pairs: Iterable[tuple[int, int]]
) -> tuple[list[list[int]], list[int], list[int], list[list[int]]]:
    """One Hopcroft-Karp solve on the split graph, with the chains it matches.

    The split graph joins x_L to y_R for every strict pair x < y.  Returns
    (adj, pair_l, pair_r, chains): following pair_l up from each element with
    no matched predecessor gives a minimum chain cover of n - |matching|
    chains (Dilworth via matching).
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in strict_pairs:
        adj[a].append(b)
    pair_l, pair_r = _hopcroft_karp(n, n, adj)
    chains = []
    for x in range(n):
        if pair_r[x] == -1:
            chain = [x]
            while pair_l[chain[-1]] != -1:
                chain.append(pair_l[chain[-1]])
            chains.append(chain)
    return adj, pair_l, pair_r, chains


def maximum_antichain_ids(
    n: int, strict_pairs: Iterable[tuple[int, int]]
) -> tuple[frozenset[int], list[list[int]]]:
    """A maximum antichain of an n-element order given all strict pairs a < b,
    and a minimum chain cover read off the same matching.

    The antichain is the set of elements missed by the Koenig vertex cover
    of the split graph: alternating reachability Z from free left vertices
    gives the cover (L minus Z) plus (R in Z), and the antichain takes x with
    x_L in Z and x_R out of Z.  It has one element per chain of the cover.
    """
    adj, pair_l, pair_r, chains = _dilworth(n, strict_pairs)
    in_z_left = [False] * n
    in_z_right = [False] * n
    stack = [u for u in range(n) if pair_l[u] == -1]
    for u in stack:
        in_z_left[u] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if pair_l[u] == v:
                continue
            if not in_z_right[v]:
                in_z_right[v] = True
                w = pair_r[v]
                if w != -1 and not in_z_left[w]:
                    in_z_left[w] = True
                    stack.append(w)
    antichain = frozenset(x for x in range(n) if in_z_left[x] and not in_z_right[x])
    return antichain, chains


def minimum_chain_cover(
    n: int, strict_pairs: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Partition 0..n-1 into the fewest chains (Dilworth via matching)."""
    return _dilworth(n, strict_pairs)[3]


def enumerate_maximum_antichain_ids(
    n: int, strict_pairs: Iterable[tuple[int, int]]
) -> tuple[list[frozenset[int]], list[list[int]]]:
    """All maximum antichains, sorted, and a minimum chain cover, off one matching.

    Maximum antichains correspond to minimum vertex covers, which pick one
    endpoint per matched edge subject to implications from the non-matching
    edges.  SCC-condensing the implication digraph and walking its closed
    sets makes the enumeration output-linear, so a unique maximum costs one
    matching, never a search.  Each maximum is decoded as soon as the walk
    finds it; listing more than ``LISTING_CAP`` maxima x elements raises a
    SizeLimitError.
    """
    adj, pair_l, pair_r, chains = _dilworth(n, strict_pairs)
    edges = [u for u in range(n) if pair_l[u] != -1]  # edge id = left endpoint
    edge_index = {u: i for i, u in enumerate(edges)}
    m = len(edges)

    # pick_left[i] == True puts the left endpoint of matched edge i in the cover
    implies: list[set[int]] = [set() for _ in range(m)]  # arc a -> b: a left => b left
    forced_true: set[int] = set()
    forced_false: set[int] = set()
    for u in range(n):
        for v in adj[u]:
            if pair_l[u] == v:
                continue
            eu = edge_index.get(u)
            ev = edge_index.get(pair_r[v])
            if eu is None and ev is None:
                raise RuntimeError("matching is not maximum")
            if eu is None:
                forced_false.add(ev)  # free left endpoint: v must be covered
            elif ev is None:
                forced_true.add(eu)  # free right endpoint: u must be covered
            else:
                implies[ev].add(eu)

    members = _topological_sccs(implies)  # edge id -> scc id, arcs go up
    n_sccs = max(members, default=-1) + 1
    preds: list[set[int]] = [set() for _ in range(n_sccs)]
    succs: list[set[int]] = [set() for _ in range(n_sccs)]
    for a in range(m):
        for b in implies[a]:
            if members[a] != members[b]:
                preds[members[b]].add(members[a])
                succs[members[a]].add(members[b])
    scc_true = {members[e] for e in forced_true}
    scc_false = {members[e] for e in forced_false}
    # forward-close the trues, backward-close the falses
    for s in range(n_sccs):
        if s in scc_true or not scc_true.isdisjoint(preds[s]):
            scc_true.add(s)
    for s in reversed(range(n_sccs)):
        if s in scc_false or not scc_false.isdisjoint(succs[s]):
            scc_false.add(s)
    if scc_true & scc_false:
        raise RuntimeError("inconsistent cover constraints")

    # the SCCs of the matched edges at x_L and x_R (unmatched: -1, never True,
    # and n_sccs, always True); x is in the antichain iff the cover takes neither
    left = [members[edge_index[x]] if pair_l[x] != -1 else -1 for x in range(n)]
    right = [left[pair_r[x]] if pair_r[x] != -1 else n_sccs for x in range(n)]
    antichains: list[frozenset[int]] = []
    stack: list[tuple[int, set[int]]] = [(0, scc_true | {n_sccs})]
    while stack:
        start, true_sccs = stack.pop()
        for s in range(start, n_sccs):
            if s in true_sccs or not true_sccs.isdisjoint(preds[s]):
                true_sccs.add(s)
            elif s not in scc_false:
                stack.append((s + 1, set(true_sccs)))  # branch with s False
                true_sccs.add(s)
        if (len(antichains) + 1) * n > LISTING_CAP:
            raise SizeLimitError(
                f"over {len(antichains)} maximum antichains of {n} elements (cap {LISTING_CAP})"
            )
        antichains.append(frozenset(
            x for x in range(n) if left[x] not in true_sccs and right[x] in true_sccs
        ))
    return sorted(antichains, key=sorted), chains


def _topological_sccs(succ: list[set[int]]) -> list[int]:
    """Strongly connected components numbered in a topological order of the DAG.

    Iterative Tarjan (1972).  Tarjan finishes a component only after every
    component it reaches, so components come out in reverse topological
    order; numbering them back to front makes every arc between components
    run from a lower number to a higher one.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    finished: list[int] = [-1] * n
    n_done = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        finished[w] = n_done
                        if w == v:
                            break
                    n_done += 1
    return [n_done - 1 - c for c in finished]
