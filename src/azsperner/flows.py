"""Integer max-flow and minimum-flow helpers in plain Python.

Capacities are integers throughout, so flow values are exact.  One Dinic
max-flow over a level pair (``level_pair_flow``) serves both the covering
construction and the normality check.

The Dilworth readers each solve one minimum flow (``_MinFlow``) on a DAG
given by successor lists, such as a poset's covers: O(elements + arcs) work,
not a pass over the strict pairs.  Its paths are a minimum chain cover, and
its minimum cuts the maximum antichains.  An antichain with one element per
chain of a cover is maximum, which is the certificate the callers check.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Hashable, Iterable, Sequence

from .core import _ids_of
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


class _MinFlow:
    """Minimum flow through the split network of a DAG (Ntafos and Hakimi 1979).

    x becomes x_in -> x_out with lower bound 1, beside s -> x_in, x_out -> t
    and x_out -> y_in for each arc x -> y; no arc has a capacity.  A flow is a
    cover by paths that may share elements, so the minimum is the width of the
    order the arcs generate.  A greedy cover (each walk steps to an uncovered
    successor while one exists) is cut down along t -> s residual paths.
    Nodes: x_in is x, x_out is n + x.  Arc k runs tails[k] -> heads[k] with
    flow[k]; first[x] .. first[x + 1] - 1 leave x and into[y] enter y.  start
    and through are the flows on s -> x_in and x_in -> x_out; reach marks the
    nodes the final residual reaches from t.
    """

    def __init__(self, succ: Sequence[Sequence[int]]):
        n = len(succ)
        first = self.first = list(accumulate(map(len, succ), initial=0))
        heads = self.heads = [y for ys in succ for y in ys]
        tails = self.tails = [x for x, ys in enumerate(succ) for _ in ys]
        into = self.into = [[] for _ in range(n)]
        for k, y in enumerate(heads):
            into[y].append(k)
        order = [y for y in range(n) if not into[y]]  # Kahn (1962): a topological order
        missing = [len(arcs) for arcs in into]
        for x in order:
            for y in succ[x]:
                missing[y] -= 1
                if not missing[y]:
                    order.append(y)

        flow = self.flow = [0] * len(heads)
        start = self.start = [0] * n
        through = self.through = [0] * n
        end = [0] * n
        for x in order:
            if not through[x]:
                start[x] = through[x] = 1
                k = first[x]
                while k < first[x + 1]:
                    y = heads[k]
                    if through[y]:
                        k += 1
                    else:
                        flow[k] = through[y] = 1
                        x, k = y, first[y]
                end[x] = 1

        # Each pass searches the residual from every path end not yet marked;
        # reaching a path start cancels one unit along the way back.  Marks
        # last the pass, so a pass that cancels nothing marks what t reaches.
        # In the residual x_in -> x_out and x_out -> y_in always run forward,
        # and an arc runs backward while its flow is above its lower bound.
        parent = [0] * (2 * n)
        via = [0] * (2 * n)  # the arc a node was reached along, -1 for x_in <-> x_out
        cancelled = True
        while cancelled:
            reach = self.reach = bytearray(2 * n)
            cancelled = False
            for root in range(n, 2 * n):
                if not end[root - n] or reach[root]:
                    continue
                reach[root] = 1
                parent[root] = -1
                stack = [root]
                while stack:
                    v = stack.pop()
                    if v >= n:
                        x = v - n
                        if through[x] > 1 and not reach[x]:
                            reach[x], parent[x], via[x] = 1, v, -1
                            stack.append(x)
                        for k in range(first[x], first[x + 1]):
                            y = heads[k]
                            if not reach[y]:
                                reach[y], parent[y], via[y] = 1, v, k
                                stack.append(y)
                    elif start[v]:
                        start[v] -= 1
                        while parent[v] >= 0:
                            if via[v] >= 0:
                                flow[via[v]] += 1 if v < n else -1
                            else:
                                through[v % n] += 1 if v >= n else -1
                            v = parent[v]
                        end[v - n] -= 1
                        cancelled = True
                        break
                    else:
                        out = n + v
                        if not reach[out]:
                            reach[out], parent[out], via[out] = 1, v, -1
                            stack.append(out)
                        for k in into[v]:
                            w = n + tails[k]
                            if flow[k] and not reach[w]:
                                reach[w], parent[w], via[w] = 1, v, k
                                stack.append(w)

    def chains(self) -> list[list[int]]:
        """The paths of a flow decomposition: one chain per unit leaving s."""
        first, heads, left = self.first, self.heads, self.flow[:]
        chains = []
        for x, units in enumerate(self.start):
            for _ in range(units):
                chain = [x]
                k = first[x]
                while k < first[chain[-1] + 1]:
                    if left[k]:
                        left[k] -= 1
                        chain.append(heads[k])
                        k = first[heads[k]]
                    else:
                        k += 1
                chains.append(chain)
        return chains

    def antichains(self) -> list[frozenset[int]]:
        """Every maximum antichain, sorted, one per minimum cut (Picard and
        Queyranne 1980): its t side T is closed in the final residual, holds
        what t reaches and nothing that reaches a path start.  The walk takes
        the SCCs of the nodes left in topological order, adding an SCC with
        all it reaches as bitmasks.  Over ``LISTING_CAP`` maxima x elements
        raise a SizeLimitError before any is decoded.
        """
        first, heads, tails, into = self.first, self.heads, self.tails, self.into
        flow, through, reach, n = self.flow, self.through, self.reach, len(self.start)
        blocked = bytearray(2 * n)  # nodes that reach a path start
        stack = [y for y in range(n) if self.start[y]]
        while stack:
            v = stack.pop()
            if not blocked[v]:
                blocked[v] = 1
                if v < n:
                    stack += [n + tails[k] for k in into[v]] + [n + v] * (through[v] > 1)
                else:
                    x = v - n
                    stack += [x] + [heads[k] for k in range(first[x], first[x + 1]) if flow[k]]
        free = [v for v in range(2 * n) if not reach[v] and not blocked[v]]
        local = {v: i for i, v in enumerate(free)}
        residual = []
        for v in free:
            if v < n:
                succ = [n + v] + [n + tails[k] for k in into[v] if flow[k]]
            else:
                succ = [v - n] * (through[v - n] > 1) + heads[first[v - n] : first[v - n + 1]]
            residual.append([local[w] for w in succ if w in local])

        members = _topological_sccs(residual)  # free node -> scc id, arcs go up
        n_sccs = max(members, default=-1) + 1
        # above[c]: the SCCs c reaches; nodes_above[c]: their nodes, as bitmasks
        above = [1 << c for c in range(n_sccs)]
        nodes_above = [0] * n_sccs
        for i, c in enumerate(members):
            nodes_above[c] |= 1 << free[i]
        for i in sorted(range(len(free)), key=members.__getitem__, reverse=True):
            c = members[i]
            for d in {members[j] for j in residual[i]} - {c}:
                above[c] |= above[d]
                nodes_above[c] |= nodes_above[d]

        every = (1 << n_sccs) - 1
        masks: list[int] = []
        stack = [(0, sum(1 << v for v in range(2 * n) if reach[v]), 0)]
        while stack:
            in_t, nodes, lowest = stack.pop()
            rest = (every & ~in_t) >> lowest
            while rest:
                c = lowest + (rest & -rest).bit_length() - 1
                stack.append((in_t, nodes, c + 1))  # branch with c outside T
                in_t |= above[c]
                nodes |= nodes_above[c]
                lowest = c + 1
                rest = (every & ~in_t) >> lowest
            if (len(masks) + 1) * n > LISTING_CAP:
                raise SizeLimitError(
                    f"over {len(masks)} maximum antichains of {n} elements (cap {LISTING_CAP})"
                )
            masks.append(nodes >> n & ~nodes)
        return sorted(map(_ids_of, masks), key=sorted)


def maximum_antichain_ids(succ: Sequence[Sequence[int]]) -> tuple[frozenset[int], list[list[int]]]:
    """The highest maximum antichain of the order generated by the arcs
    x -> y, y in succ[x], and a minimum chain cover, off one minimum flow.
    It takes x with x_out and not x_in reached from t in the final residual,
    the same for every minimum flow, so it is fixed: its down-set holds every
    other's."""
    flow, n = _MinFlow(succ), len(succ)
    return frozenset(x for x in range(n) if flow.reach[n + x] and not flow.reach[x]), flow.chains()


def minimum_chain_cover(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The fewest chains covering the order generated by the arcs, as paths
    of one minimum flow; two chains may share elements."""
    return _MinFlow(succ).chains()


def enumerate_maximum_antichain_ids(succ: Sequence[Sequence[int]]) -> tuple[list, list]:
    """All maximum antichains of the order generated by the arcs, sorted, and
    a minimum chain cover, off one minimum flow; a unique maximum costs just
    the flow and two searches of its residual."""
    flow = _MinFlow(succ)
    return flow.antichains(), flow.chains()


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
