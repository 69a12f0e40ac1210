import json
import random
from collections import Counter

import pytest

import azsperner.core
from azsperner import boundary_chain_fractions, build_poset, from_json, gen_boolean
from azsperner.core import family
from azsperner.errors import (
    ChainLimitError,
    CoverRankError,
    NotGradedError,
    PosetError,
)


def label_set(poset, labels):
    return frozenset(poset.element_by_label(lab) for lab in labels)


def labels_of(poset, ids):
    return frozenset(poset.label(x) for x in ids)


class TestBuildPoset:
    def test_one_point(self):
        p = build_poset([(0, 0)], [], name="pt")
        assert p.is_graded and p.is_u_poset and p.height == 0
        assert list(p.whitney) == [1]

    def test_b2_by_hand(self):
        elements = [(0, 0), (1, 1), (2, 1), (3, 2)]
        covers = [(0, 1), (0, 2), (1, 3), (2, 3)]
        p = build_poset(elements, covers)
        assert p.is_graded and p.is_u_poset
        assert list(p.whitney) == [1, 2, 1]

    def test_fig1b_shape(self, fig1b):
        assert fig1b.is_graded and fig1b.is_u_poset
        assert list(fig1b.whitney) == [1, 2, 2, 1]

    def test_cover_rank_error(self):
        with pytest.raises(CoverRankError):
            build_poset([(0, 0), (1, 2)], [(0, 1)])

    def test_duplicate_ids(self):
        with pytest.raises(PosetError):
            build_poset([(0, 0), (0, 1)], [])

    def test_non_dense_ids(self):
        with pytest.raises(PosetError):
            build_poset([(0, 0), (2, 1)], [])

    def test_non_graded_flagged(self):
        # rank-1 element with no lower cover: minimal above rank 0
        p = build_poset([(0, 0), (1, 1)], [])
        assert not p.is_graded
        with pytest.raises(NotGradedError):
            p.count_maximal_chains()


class TestUPoset:
    """A least and a greatest element, read off the Whitney numbers of a graded poset."""

    def test_agrees_with_the_closure_definition(self):
        # random ranked posets, graded or not, some with empty levels; the
        # definition: an element of rank 0 below everything and one of the top
        # rank above everything
        rng = random.Random(14)
        seen = Counter()
        for _ in range(3000):
            ranks = [rng.randrange(4) for _ in range(rng.randrange(1, 8))]
            covers = [
                (lo, hi)
                for lo in range(len(ranks))
                for hi in range(len(ranks))
                if ranks[hi] == ranks[lo] + 1 and rng.random() < 0.7
            ]
            p = build_poset(list(enumerate(ranks)), covers)
            u_poset = p.is_u_poset
            full = (1 << p.n) - 1
            bounded = any(p.up_mask[x] == full for x in p.levels[0]) and any(
                p.down_mask[x] == full for x in p.levels[-1]
            )
            assert u_poset == bounded, (ranks, covers)
            seen[p.is_graded, u_poset] += 1
        assert seen[True, True] > 100 and seen[True, False] > 100 and seen[False, False] > 100

    def test_builds_no_closure(self):
        for p in (gen_boolean(6), build_poset([(0, 0), (1, 1), (2, 1)], [(0, 1)])):
            p.is_u_poset
            assert "up_mask" not in p.__dict__ and "down_mask" not in p.__dict__


class TestGamma:
    def test_gamma_down_top_of_b2(self, b2):
        top = b2.element_by_label("{1,2}")
        assert labels_of(b2, b2.gamma_down(top)) == {"{1}", "{2}"}

    def test_gamma_down_bottom(self, b2):
        assert b2.gamma_down(b2.element_by_label("{}")) == frozenset()

    def test_fig1a_b_has_two_lower_covers(self, fig1a):
        b = fig1a.element_by_label("b")
        assert labels_of(fig1a, fig1a.gamma_down(b)) == {"p", "c"}
        assert fig1a.d_minus(b) == 2

    def test_gamma_up_to_level(self, b3):
        a = b3.element_by_label("{1}")
        got = labels_of(b3, b3.gamma_up_to_level([a], 2))
        assert got == {"{1,2}", "{1,3}"}

    def test_gamma_empty_generator(self, b3):
        for i in range(b3.height + 1):
            assert b3.gamma_up_to_level([], i) == frozenset()

    def test_gamma_fig1a_c_at_own_level(self, fig1a):
        c = fig1a.element_by_label("c")
        assert fig1a.gamma_up_to_level([c], 1) == frozenset({c})

    def test_gamma_out_of_range_is_empty(self, b3):
        a = b3.element_by_label("{1}")
        assert b3.gamma_up_to_level([a], -1) == frozenset()
        assert b3.gamma_up_to_level([a], 99) == frozenset()
        assert b3.gamma_down_to_level([a], -2) == frozenset()

    def test_gamma_below_family_rank_is_empty_upward(self, b3):
        a = b3.element_by_label("{1,2}")
        assert b3.gamma_up_to_level([a], 0) == frozenset()

    def test_upset_downset(self, b3):
        a = b3.element_by_label("{1}")
        up = b3.upset([a])
        assert all(b3.leq(a, x) for x in up)
        assert len(up) == 4
        down = b3.downset([a])
        assert labels_of(b3, down) == {"{}", "{1}"}

    def test_upset_idempotent_monotone(self, b3):
        fam1 = label_set(b3, ["{1}"])
        fam2 = label_set(b3, ["{1}", "{2,3}"])
        assert b3.upset(b3.upset(fam1)) == b3.upset(fam1)
        assert b3.upset(fam1) <= b3.upset(fam2)

    def test_gamma_composition(self, b3):
        fam = label_set(b3, ["{1}", "{2}"])
        mid = b3.gamma_up_to_level(fam, 2)
        assert b3.gamma_up_to_level(mid, 3) == b3.gamma_up_to_level(fam, 3)


class TestChains:
    def test_b3_six_chains(self, b3):
        assert b3.count_maximal_chains().total == 6

    def test_fig1a_three_chains(self, fig1a):
        counts = fig1a.count_maximal_chains()
        assert counts.total == 3
        chains = {
            tuple(fig1a.label(x) for x in chain)
            for chain in fig1a.enumerate_maximal_chains()
        }
        assert chains == {
            ("z", "p", "a", "t"),
            ("z", "p", "b", "t"),
            ("z", "c", "b", "t"),
        }

    def test_single_chain(self):
        p = build_poset([(i, i) for i in range(4)], [(i, i + 1) for i in range(3)])
        assert p.count_maximal_chains().total == 1

    def test_per_level_sums(self, b4, fig1a, l32):
        for poset in (b4, fig1a, l32):
            counts = poset.count_maximal_chains()
            for i in range(poset.height + 1):
                assert sum(counts.through[x] for x in poset.levels[i]) == counts.total

    def test_enumeration_matches_count(self, b4):
        chains = b4.enumerate_maximal_chains()
        assert len(chains) == b4.count_maximal_chains().total
        assert all(len(c) == b4.height + 1 for c in chains)

    def test_chain_limit(self, b4, monkeypatch):
        monkeypatch.setattr(azsperner.core, "CHAIN_ENUM_CAP", 3)
        with pytest.raises(ChainLimitError):
            b4.enumerate_maximal_chains()

    def test_is_maximal_chain(self, b3):
        chains = b3.enumerate_maximal_chains()
        assert all(b3.is_maximal_chain(c) for c in chains)
        assert not b3.is_maximal_chain(chains[0][1:])

    def test_enumeration_is_lexicographic(self, b4):
        # depth-first over the sorted cover lists, bottom level first
        chains = b4.enumerate_maximal_chains()
        assert chains == sorted(chains)

    def test_long_chain_has_no_recursion_limit(self):
        n = 3000
        p = build_poset([(i, i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        assert p.enumerate_maximal_chains() == [tuple(range(n))]


class TestBoundary:
    def test_b2_singleton(self, b2):
        fam = label_set(b2, ["{1}"])
        grouped = b2.boundary_edges(fam)
        edges = {
            (b2.label(v), b2.label(x)) for x, lows in grouped.items() for v in lows
        }
        assert edges == {("{}", "{1}"), ("{2}", "{1,2}")}

    def test_whole_poset_empty(self, b2):
        assert b2.boundary_edges(range(b2.n)) == {}

    def test_empty_family_empty(self, b2):
        assert b2.boundary_edges([]) == {}

    def test_bottom_family_empty(self, b2):
        # upset of the bottom is everything, so no boundary edges
        assert b2.boundary_edges([b2.element_by_label("{}")]) == {}


class TestOrderQueries:
    def test_leq_matches_cover_reachability(self, fig1a):
        import networkx as nx

        g = nx.DiGraph(fig1a.covers)
        g.add_nodes_from(range(fig1a.n))
        for a in range(fig1a.n):
            reach = nx.descendants(g, a) | {a}
            for b in range(fig1a.n):
                assert fig1a.leq(a, b) == (b in reach)

    def test_is_antichain(self, b3):
        assert b3.is_antichain(label_set(b3, ["{1}", "{2,3}"]))
        assert not b3.is_antichain(label_set(b3, ["{1}", "{1,2}"]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_is_antichain_rejects_foreign_ids(self, b2, bad):
        with pytest.raises(PosetError):
            b2.is_antichain([1, bad])

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_family_rejects_non_integer_ids(self, b3, bad):
        with pytest.raises(PosetError, match="not an integer"):
            family(b3, [0, bad])
        with pytest.raises(PosetError, match="not an integer"):
            b3.is_antichain([bad])

    @pytest.mark.parametrize(
        "query",
        [
            lambda p, ids: p.upset(ids),
            lambda p, ids: p.downset(ids),
            lambda p, ids: p.gamma_up_to_level(ids, 1),
            lambda p, ids: p.gamma_down_to_level(ids, 1),
            lambda p, ids: p.gamma_up_to_level(ids, 99),
            lambda p, ids: p.boundary_edges(ids),
            lambda p, ids: boundary_chain_fractions(p, ids),
        ],
        ids=["upset", "downset", "gamma_up", "gamma_down", "gamma_up_off_rank",
             "boundary_edges", "boundary_chain_fractions"],
    )
    @pytest.mark.parametrize("bad", [-1, -8, 8, 99, True])
    def test_neighbourhood_queries_reject_foreign_ids(self, b3, query, bad):
        with pytest.raises(PosetError):
            query(b3, [bad])

    @pytest.mark.parametrize(
        "query",
        [
            lambda p, x: p.leq(x, 7),
            lambda p, x: p.leq(0, x),
            lambda p, x: p.lt(x, 3),
            lambda p, x: p.lt(0, x),
            lambda p, x: p.lt(x, x),
            lambda p, x: p.comparable(x, 7),
            lambda p, x: p.comparable(0, x),
            lambda p, x: p.gamma_up(x),
            lambda p, x: p.gamma_down(x),
            lambda p, x: p.d_minus(x),
            lambda p, x: p.d_plus(x),
            lambda p, x: p.rank(x),
            lambda p, x: p.label(x),
        ],
        ids=["leq_lower", "leq_upper", "lt_lower", "lt_upper", "lt_self", "comparable_first",
             "comparable_second", "gamma_up", "gamma_down", "d_minus", "d_plus", "rank", "label"],
    )
    @pytest.mark.parametrize("bad", [-1, 8, 99, True])
    def test_single_element_queries_reject_foreign_ids(self, b3, query, bad):
        with pytest.raises(PosetError):
            query(b3, bad)

    def test_single_element_queries_on_valid_ids(self, b3):
        assert b3.leq(0, 7) and not b3.leq(7, 0) and b3.lt(0, 7) and not b3.lt(7, 7)
        assert b3.comparable(7, 0) and not b3.comparable(1, 2)
        assert b3.gamma_down(7) == {3, 5, 6} and b3.gamma_up(0) == {1, 2, 4}
        assert (b3.d_minus(7), b3.d_plus(7), b3.rank(7)) == (3, 0, 3)

    def test_boundary_chain_fractions_reads_a_generator_once(self, b3):
        grand, _ = boundary_chain_fractions(b3, iter([1]))
        assert grand == 1

    def test_unknown_label_is_a_poset_error(self, fig1a):
        with pytest.raises(PosetError, match="no element labelled 'missing'"):
            fig1a.element_by_label("missing")


class TestSerialization:
    def test_json_round_trip(self, fig1a):
        clone = from_json(fig1a.to_json())
        assert clone.ranks == fig1a.ranks
        assert clone.covers == fig1a.covers
        assert clone.labels == fig1a.labels

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"elements": [{"id": 0}], "covers": []}, "'rank'"),
            ({"elements": [{"id": 0, "rank": 0}]}, "'covers'"),
            ({"elements": [{"id": True, "rank": 0}], "covers": []}, "'id'"),
            ([], "JSON object"),
            ("{", "not valid JSON"),
        ],
    )
    def test_bad_json_names_the_key(self, obj, key):
        with pytest.raises(PosetError, match=key):
            from_json(obj)

    def test_json_str(self, b2):
        obj = json.loads(json.dumps(b2.to_json(), indent=2))
        assert {e["id"] for e in obj["elements"]} == set(range(4))

    def test_dot_output(self, fig1a):
        dot = fig1a.to_dot()
        assert "rank=same" in dot
        assert dot.count("->") == len(fig1a.covers)
        assert '"fig1a"' in dot

    def test_labels_round_trip(self, fig1a):
        assert fig1a.element_by_label("a") == 3
        with pytest.raises(KeyError):
            fig1a.element_by_label("missing")
