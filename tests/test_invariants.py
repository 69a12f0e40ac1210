"""Cross-cutting invariants fuzzed over randomly generated graded posets."""

from fractions import Fraction
from functools import lru_cache

import networkx as nx

from hypothesis import given, settings, strategies as st

from azsperner import (
    SkewPairSystem,
    adjoin_bounds,
    az_identity_sum,
    build_poset,
    check_normal,
    compute_w,
    dual_dilworth_decompose,
    gen_boolean,
    gen_subspace_lattice,
    interval_w_sum,
    is_k_sperner,
    key_lemma_sum,
    lambda_table,
    lym_sum,
    max_antichain,
    second_az_identity,
)
from azsperner.errors import PosetError
from azsperner.properties import build_chain_covering, verify_chain_covering
from azsperner.errors import NotNormalError


@st.composite
def graded_posets(draw):
    """Small graded posets: random level sizes, covers patched so that no
    minimal element sits above rank 0 and no maximal element below the top."""
    n_levels = draw(st.integers(min_value=1, max_value=4))
    sizes = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_levels)]
    ids = []
    ranks = []
    for r, size in enumerate(sizes):
        for _ in range(size):
            ranks.append(r)
            ids.append(len(ids))
    levels = []
    offset = 0
    for size in sizes:
        levels.append(list(range(offset, offset + size)))
        offset += size
    covers = set()
    for r in range(n_levels - 1):
        for x in levels[r]:
            for y in levels[r + 1]:
                if draw(st.booleans()):
                    covers.add((x, y))
        for y in levels[r + 1]:
            if not any((x, y) in covers for x in levels[r]):
                covers.add((draw(st.sampled_from(levels[r])), y))
        for x in levels[r]:
            if not any((x, y) in covers for y in levels[r + 1]):
                covers.add((x, draw(st.sampled_from(levels[r + 1]))))
    return build_poset(list(zip(ids, ranks)), sorted(covers), name="random")


@st.composite
def poset_and_family(draw):
    poset = draw(graded_posets())
    members = draw(
        st.sets(st.integers(min_value=0, max_value=poset.n - 1), min_size=1)
    )
    return poset, frozenset(members)


@given(graded_posets())
@settings(max_examples=60, deadline=None)
def test_chain_counts_consistent_per_level(poset):
    counts = poset.count_maximal_chains()
    for i in range(poset.height + 1):
        assert sum(counts.through[x] for x in poset.levels[i]) == counts.total
    chains = poset.enumerate_maximal_chains()
    assert len(chains) == counts.total
    assert all(len(c) == poset.height + 1 for c in chains)


@given(graded_posets())
@settings(max_examples=40, deadline=None)
def test_leq_matches_graph_reachability(poset):
    g = nx.DiGraph(poset.covers)
    g.add_nodes_from(range(poset.n))
    for a in range(poset.n):
        reach = nx.descendants(g, a) | {a}
        for b in range(poset.n):
            assert poset.leq(a, b) == (b in reach)


@given(poset_and_family())
@settings(max_examples=60, deadline=None)
def test_upset_idempotent_and_monotone(pf):
    poset, fam = pf
    up = poset.upset(fam)
    assert poset.upset(up) == up
    assert fam <= up
    smaller = frozenset(list(fam)[: max(1, len(fam) // 2)])
    assert poset.upset(smaller) <= up


def brute_lower_covers(poset, x):
    return [v for v in range(poset.n) if poset.lt(v, x) and poset.ranks[v] == poset.ranks[x] - 1]


def brute_w(poset, fam, x):
    """W_A(x) from the definition: lower covers of x above no a in A^x = {a in A : a <= x}.

    Zero when A^x is empty."""
    below_x = [a for a in fam if poset.leq(a, x)]
    if not below_x:
        return 0
    return sum(
        1
        for v in brute_lower_covers(poset, x)
        if not any(poset.leq(a, v) for a in below_x)
    )


def brute_term(poset, fam, x):
    """W_A(x)/(d-(x) N_rank(x)), zero when W vanishes."""
    w = brute_w(poset, fam, x)
    if not w:
        return Fraction(0)
    return Fraction(w, len(brute_lower_covers(poset, x)) * poset.whitney[poset.ranks[x]])


def brute_in_upset(poset, fam, x):
    return any(poset.leq(a, x) for a in fam)


@given(poset_and_family())
@settings(max_examples=80, deadline=None)
def test_w_equals_boundary_group_size(pf):
    poset, fam = pf
    grouped = poset.boundary_edges(fam)
    for x in range(poset.n):
        if poset.ranks[x] == 0:
            continue
        w = brute_w(poset, fam, x)
        assert w == len(grouped.get(x, ()))
        assert compute_w(poset, fam, x) == w


@st.composite
def regular_posets(draw):
    """Regular graded posets: equal levels of s elements, each consecutive pair
    joined by a circulant (x_j covers y_(j+t) for t in a nonempty offset set,
    under random relabellings), with universal bounds adjoined or not."""
    height = draw(st.integers(min_value=0, max_value=3))
    s = draw(st.integers(min_value=1, max_value=4))
    levels = [list(range(r * s, (r + 1) * s)) for r in range(height + 1)]
    for level in levels:
        level[:] = draw(st.permutations(level))
    covers = []
    for lower, upper in zip(levels, levels[1:]):
        offsets = draw(st.sets(st.integers(min_value=0, max_value=s - 1), min_size=1))
        covers += [(lower[(j + t) % s], upper[j]) for j in range(s) for t in offsets]
    ranks = [(x, x // s) for x in range(s * (height + 1))]
    poset = build_poset(ranks, covers, name="circulant")
    return adjoin_bounds(poset) if draw(st.booleans()) else poset


def families_of(poset):
    return st.sets(st.integers(min_value=0, max_value=poset.n - 1), min_size=1)


@given(st.one_of(graded_posets().map(adjoin_bounds), regular_posets()), st.data())
@settings(max_examples=80, deadline=None)
def test_thm1_matches_brute_force(poset, data):
    if not poset.is_u_poset:
        poset = adjoin_bounds(poset)
    fam = data.draw(families_of(poset))
    report = az_identity_sum(poset, fam)
    assert len(report.terms) == poset.n
    total = Fraction(0)
    for x, t in enumerate(report.terms):
        assert t.element == x
        assert t.in_family == (x in fam)
        assert t.in_upset == brute_in_upset(poset, fam, x)
        if poset.ranks[x] == 0:
            expected = Fraction(int(x in fam))
            assert t.w == 0 and t.convention_bottom == (x in fam)
        else:
            expected = brute_term(poset, fam, x)
            assert t.w == brute_w(poset, fam, x) and not t.convention_bottom
        assert t.term == expected
        total += expected
    assert report.total == total
    if poset.irregular_pair is None:
        assert total == 1


@given(regular_posets(), st.data())
@settings(max_examples=80, deadline=None)
def test_key_lemma_matches_brute_force(poset, data):
    fam = data.draw(families_of(poset))
    top = poset.height
    total = Fraction(0)
    for x in range(poset.n):
        r = poset.ranks[x]
        if r == 0 and x in fam:
            total += Fraction(1, poset.whitney[0])
        elif r == top and not brute_in_upset(poset, fam, x):
            total += Fraction(1, poset.whitney[top])
        elif r != 0:
            total += brute_term(poset, fam, x)
    assert key_lemma_sum(poset, fam) == total == 1


@given(graded_posets(), st.data())
@settings(max_examples=80, deadline=None)
def test_interval_w_sum_matches_brute_force(poset, data):
    a = data.draw(st.integers(min_value=0, max_value=poset.n - 1))
    b = data.draw(st.sampled_from([y for y in range(poset.n) if poset.leq(a, y)]))
    expected = sum(
        (
            Fraction(1) if poset.ranks[x] == 0 else brute_term(poset, [a], x)
            for x in range(poset.n)
            if poset.leq(a, x) and poset.leq(x, b)
        ),
        Fraction(0),
    )
    assert interval_w_sum(poset, a, b) == expected


@lru_cache(maxsize=None)
def strongly_regular(spec):
    poset = gen_boolean(spec[1]) if spec[0] == "boolean" else gen_subspace_lattice(*spec[1:])
    return poset, lambda_table(poset)


@given(
    st.sampled_from([("boolean", 2), ("boolean", 3), ("boolean", 4), ("subspace", 3, 2)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_thm5_boundary_sum_matches_brute_force(spec, data):
    poset, table = strongly_regular(spec)
    candidates = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=poset.n - 1),
                st.integers(min_value=0, max_value=poset.n - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    pairs = []
    for pair in candidates:
        try:
            SkewPairSystem(pairs=tuple(pairs + [pair])).validate(poset)
        except PosetError:
            continue
        pairs.append(pair)
    if not pairs:
        return
    report = second_az_identity(poset, SkewPairSystem(pairs=tuple(pairs)), table)
    a_fam = [a for a, _ in pairs]
    expected = sum(
        (
            brute_term(poset, a_fam, x)
            for x in range(poset.n)
            if brute_in_upset(poset, a_fam, x)
            and not any(poset.leq(x, b) for _, b in pairs)
        ),
        Fraction(0),
    )
    assert report.boundary_sum == expected
    assert report.total == 1


@given(graded_posets())
@settings(max_examples=40, deadline=None)
def test_normal_modes_agree_and_covering_matches(poset):
    flow = check_normal(poset, mode="flow")
    enum = check_normal(poset, mode="enumerate")
    assert flow.holds == enum.holds
    assert flow.detail["levels"] == enum.detail["levels"]
    try:
        covering = build_chain_covering(poset)
        built = True
    except NotNormalError:
        built = False
    assert built == flow.holds
    if built:
        assert verify_chain_covering(poset, covering).holds


@given(graded_posets())
@settings(max_examples=40, deadline=None)
def test_lym_at_most_one_on_normal_posets(poset):
    if not check_normal(poset).holds:
        return
    antichain = max_antichain(poset)
    assert lym_sum(poset, antichain) <= 1


@given(poset_and_family())
@settings(max_examples=60, deadline=None)
def test_dilworth_decomposition_roundtrip(pf):
    poset, fam = pf
    parts = dual_dilworth_decompose(poset, fam)
    assert frozenset().union(*parts) == fam
    assert all(poset.is_antichain(p) for p in parts)
    ok, _ = is_k_sperner(poset, fam, len(parts))
    assert ok
    if len(parts) > 1:
        ok_short, _ = is_k_sperner(poset, fam, len(parts) - 1)
        assert not ok_short


@given(graded_posets())
@settings(max_examples=60, deadline=None)
def test_antichain_enumeration_routes_agree(poset):
    from azsperner.sperner import (
        enumerate_maximum_antichains,
        enumerate_maximum_k_sperner,
    )

    size_m, fams_m = enumerate_maximum_antichains(poset)
    size_b, fams_b = enumerate_maximum_k_sperner(poset, 1)
    # brute force: every antichain, as a mask grown one element at a time
    comparable = [poset.up_mask[x] | poset.down_mask[x] for x in range(poset.n)]
    antichains = [0]
    for x in range(poset.n):
        antichains += [a | 1 << x for a in antichains if not a & comparable[x]]
    size = max(a.bit_count() for a in antichains)
    maxima = {
        frozenset(x for x in range(poset.n) if a >> x & 1)
        for a in antichains
        if a.bit_count() == size
    }
    assert size_m == size_b == size
    assert set(fams_m) == set(fams_b) == maxima


@given(poset_and_family())
@settings(max_examples=40, deadline=None)
def test_gamma_composition_through_levels(pf):
    poset, fam = pf
    top_rank = max(poset.ranks[a] for a in fam)
    for i in range(top_rank, poset.height + 1):
        mid = poset.gamma_up_to_level(fam, i)
        for j in range(i, poset.height + 1):
            assert poset.gamma_up_to_level(mid, j) == poset.gamma_up_to_level(fam, j)
