import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azsperner import (
    build_poset,
    check_strict_k_sperner,
    check_strict_lym,
    check_strictly_normal,
    dual_dilworth_decompose,
    enumerate_maximum_antichains,
    enumerate_maximum_k_sperner,
    gen_boolean,
    gen_chain_product,
    gen_subspace_lattice,
    is_k_sperner,
    lym_sum,
    max_antichain,
    parse_poset_spec,
)
from azsperner.errors import (
    LevelTooLargeError,
    NotKSpernerError,
    NotStrictlyNormalError,
    PosetError,
    SizeLimitError,
)
import azsperner.flows as flows
import azsperner.properties as properties
import azsperner.sperner as sperner
from azsperner.sperner import (
    StrictSpernerResult,
    is_homogeneous,
    max_k_sperner_size,
)
from test_search_kernels import graded_posets
from test_twopart import relabelled


def level_set(poset, i):
    return frozenset(poset.levels[i])


def brute_force_max_antichain_size(poset):
    assert poset.n <= 14
    best = 0
    for mask in range(1 << poset.n):
        ids = [x for x in range(poset.n) if (mask >> x) & 1]
        if len(ids) > best and poset.is_antichain(ids):
            best = len(ids)
    return best


class TestKSperner:
    def test_middle_level_is_antichain(self, b4):
        ok, _ = is_k_sperner(b4, level_set(b4, 2), 1)
        assert ok

    def test_two_levels(self, b3):
        fam = level_set(b3, 1) | level_set(b3, 2)
        assert is_k_sperner(b3, fam, 2)[0]
        ok, chain = is_k_sperner(b3, fam, 1)
        assert not ok and len(chain) == 2

    def test_full_chain_witness(self, b3):
        chain = b3.enumerate_maximal_chains()[0]
        ok, witness = is_k_sperner(b3, chain, 3)
        assert not ok
        assert len(witness) == 4
        assert all(b3.lt(a, b) for a, b in zip(witness, witness[1:]))


class TestDualDilworth:
    def test_antichain_single_part(self, b4):
        parts = dual_dilworth_decompose(b4, level_set(b4, 2))
        assert len(parts) == 1

    def test_two_levels_peel_to_levels(self, b3):
        fam = level_set(b3, 1) | level_set(b3, 2)
        parts = dual_dilworth_decompose(b3, fam)
        assert parts == [level_set(b3, 1), level_set(b3, 2)]

    def test_chain_plus_point(self, b3):
        chain = [
            b3.element_by_label("{}"),
            b3.element_by_label("{1}"),
            b3.element_by_label("{1,2}"),
        ]
        fam = frozenset(chain) | {b3.element_by_label("{3}")}
        parts = dual_dilworth_decompose(b3, fam)
        assert len(parts) == 3

    def test_reunion_and_part_count(self, b4):
        fam = level_set(b4, 1) | level_set(b4, 3)
        parts = dual_dilworth_decompose(b4, fam)
        assert frozenset().union(*parts) == fam
        assert all(b4.is_antichain(p) for p in parts)
        ok, _ = is_k_sperner(b4, fam, len(parts))
        assert ok


class TestLymSum:
    def test_full_level_is_one(self, b4):
        for i in range(5):
            assert lym_sum(b4, level_set(b4, i)) == 1

    def test_two_chain(self, b3):
        fam = [b3.element_by_label("{}"), b3.element_by_label("{1,2,3}")]
        assert lym_sum(b3, fam) == 2

    def test_two_thirds(self, b3):
        fam = [b3.element_by_label("{1}"), b3.element_by_label("{2,3}")]
        assert lym_sum(b3, fam) == Fraction(2, 3)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_foreign_ids(self, b2, bad):
        with pytest.raises(PosetError):
            lym_sum(b2, [bad])


class TestMaxAntichain:
    def test_b4_central(self, b4):
        assert len(max_antichain(b4)) == 6

    def test_fig1a(self, fig1a):
        assert len(max_antichain(fig1a)) == 2

    def test_chain(self):
        poset = gen_chain_product([5])
        assert len(max_antichain(poset)) == 1

    def test_matches_brute_force(self, fig1a, fig1b, b3, c322, star22, non_normal_5):
        for poset in (fig1a, fig1b, b3, c322, star22, non_normal_5):
            assert len(max_antichain(poset)) == brute_force_max_antichain_size(poset)

    @given(st.booleans().flatmap(lambda graded: graded_posets(16, graded=graded)))
    @settings(max_examples=60, deadline=None)
    def test_is_the_highest_maximum_antichain(self, base):
        # the residual's t side is the same for every minimum flow, so the
        # answer is fixed: the maximum whose down-set holds all the others
        answer = max_antichain(base)
        identity = {x: x for x in range(base.n)}
        for poset, back in ((base, identity), relabelled(base, 1), relabelled(base, 2)):
            _, families = enumerate_maximum_antichains(poset)
            downs = [poset.downset_mask(f) for f in families]
            top = max(range(len(families)), key=lambda i: downs[i].bit_count())
            assert all(not down & ~downs[top] for down in downs)
            found = max_antichain(poset)
            assert found == families[top]
            assert {back[x] for x in found} == answer

    def test_size_limit(self):
        import azsperner.sperner as sp

        poset = gen_boolean(3)
        old = sp.ORACLE_CAP
        sp.ORACLE_CAP = 4
        try:
            with pytest.raises(SizeLimitError):
                max_antichain(poset)
        finally:
            sp.ORACLE_CAP = old

    @pytest.mark.parametrize(
        "spec",
        [
            "boolean:4",
            "boolean:6",
            "subspace:3,2",
            "star:2,3",
            "chains:3,2,2",
            "chains:4,4",
            "trunc(boolean:5,1,4)",
        ],
    )
    def test_equals_largest_level_on_strictly_normal(self, spec):
        from azsperner import check_strictly_normal, parse_poset_spec

        poset = parse_poset_spec(spec)
        assert check_strictly_normal(poset).holds
        assert len(max_antichain(poset)) == max(poset.whitney)


class TestMaximumAntichainsOfLevels:
    """Regular, level-connected posets are strictly normal: their maximum
    antichains are their largest levels, found with no flow."""

    @pytest.mark.parametrize(
        "spec",
        [
            *(f"boolean:{n}" for n in range(1, 7)),
            "subspace:3,2",
            "subspace:4,2",
            "star:2,3",
            "affine:3,2",
            "trunc(boolean:6,1,5)",
            "chains:1",
            "chains:9",
        ],
    )
    def test_equal_the_matching(self, monkeypatch, spec):
        base = parse_poset_spec(spec)
        for poset in (base, relabelled(base, 1)[0], relabelled(base, 2)[0]):
            assert poset.is_graded and sperner.strictly_normal_fast_path(poset)
            answer = enumerate_maximum_antichains(poset)
            with monkeypatch.context() as patch:
                patch.setattr(sperner, "strictly_normal_fast_path", lambda poset: False)
                assert answer == enumerate_maximum_antichains(poset)

    def test_tall_chain_needs_no_matching(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no flow expected")

        monkeypatch.setattr(flows, "_MinFlow", refuse)
        monkeypatch.setattr(sperner, "_strict_pairs", refuse)
        size, families = enumerate_maximum_antichains(gen_chain_product([1999]))
        assert (size, len(families)) == (1, 1999)
        assert families == [frozenset({x}) for x in range(1999)]

    def test_past_the_oracle_cap(self):
        b11 = gen_boolean(11)
        assert b11.n > sperner.ORACLE_CAP
        size, families = enumerate_maximum_antichains(b11)
        assert (size, families) == (462, sorted(map(frozenset, b11.levels[5:7]), key=sorted))
        # a non-regular poset past the cap still goes to the flow, which refuses it
        tall = gen_chain_product([1001, 2])
        assert tall.n > sperner.ORACLE_CAP and not sperner.strictly_normal_fast_path(tall)
        with pytest.raises(SizeLimitError):
            enumerate_maximum_antichains(tall)

    def test_wide_listing_is_refused_quickly(self):
        # chains:999,2 is under the oracle cap and not regular; its C(1000, 2)
        # maxima pass the listing cap, which the flow's walk refuses before
        # decoding any of them
        poset = gen_chain_product([999, 2])
        assert poset.n <= sperner.ORACLE_CAP and not sperner.strictly_normal_fast_path(poset)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="over 20020 maximum antichains of 1998"):
            enumerate_maximum_antichains(poset)
        assert time.perf_counter() - start < 5


class TestStrictSperner:
    def test_b3_k1(self, b3):
        res = check_strict_k_sperner(b3, 1)
        assert res.holds and res.max_size == 3 and res.maxima_count == 2

    def test_fig1a_witness(self, fig1a):
        res = check_strict_k_sperner(fig1a, 1)
        assert not res.holds
        assert res.witness == frozenset(
            {fig1a.element_by_label("a"), fig1a.element_by_label("c")}
        )

    def test_fig1b_fails(self, fig1b):
        res = check_strict_k_sperner(fig1b, 1)
        assert not res.holds

    def test_b3_k2(self, b3):
        res = check_strict_k_sperner(b3, 2)
        assert res.holds and res.max_size == 6

    def test_b4_k2(self, b4):
        res = check_strict_k_sperner(b4, 2)
        assert res.holds and res.max_size == 10

    def test_k_exceeding_height(self, b2):
        res = check_strict_k_sperner(b2, 5)
        assert res.holds and res.max_size == b2.n

    def test_oracle_mode_b5(self):
        poset = gen_boolean(5)  # 32 elements, k = 1 (decided by the certificate)
        res = check_strict_k_sperner(poset, 1)
        # the two middle levels tie for maximum and both are homogeneous
        assert res.holds and res.max_size == 10 and res.maxima_count == 2

    def test_enumerate_matches_exhaustive(self, b3):
        size_a, fams_a = enumerate_maximum_antichains(b3)
        size_b, fams_b = enumerate_maximum_k_sperner(b3, 1)
        assert size_a == size_b == 3
        assert set(fams_a) == set(fams_b)

    def test_l22_strict(self):
        res = check_strict_k_sperner(gen_subspace_lattice(2, 2), 1)
        assert res.holds and res.max_size == 3

    def test_c322_strict_k2(self, c322):
        assert check_strict_k_sperner(c322, 2).holds

    def test_size_limit(self):
        # 28 elements and not strictly normal: no certificate, so the search
        # lifts into P x C_2 (at most 56 elements) and answers
        poset = gen_chain_product([7, 4])
        assert not check_strictly_normal(poset).holds
        res = check_strict_k_sperner(poset, 2)
        assert (res.holds, res.max_size, res.maxima_count, res.method) == (False, 8, 105, "search")
        res = check_strict_k_sperner(poset, 1)
        assert (res.holds, res.max_size, res.maxima_count, res.method) == (False, 4, 35, "search")
        # 1,066 elements, not strictly normal: k = 2 needs 2,132 product
        # elements, past ORACLE_CAP, and is refused before any product is built
        poset = gen_chain_product([41, 26])
        with pytest.raises(SizeLimitError, match="search cap"):
            check_strict_k_sperner(poset, 2)
        # boolean:5 (32 elements) is strictly normal: the certificate answers
        # k = 2, as the search does (levels 2 and 3 only)
        b5 = gen_boolean(5)
        res = check_strict_k_sperner(b5, 2)
        assert (res.holds, res.max_size, res.maxima_count, res.method) == (
            True, 20, 1, "certificate"
        )
        size, families = enumerate_maximum_k_sperner(b5, 2)
        assert (size, len(families), max_k_sperner_size(b5, 2)) == (20, 1, 20)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "search", [check_strict_k_sperner, max_k_sperner_size, enumerate_maximum_k_sperner]
    )
    def test_rejects_k_below_one(self, b3, search, k):
        with pytest.raises(PosetError, match="k must be at least 1"):
            search(b3, k)


def reference_strict_k_sperner(poset, k):
    """The search composition: every maximum from the lifts into P x C_k,
    each tested with ``is_homogeneous``, the first failure as the witness."""
    size, families = enumerate_maximum_k_sperner(poset, k)
    for fam in families:
        if not is_homogeneous(poset, fam):
            return StrictSpernerResult(False, k, size, len(families), fam)
    return StrictSpernerResult(True, k, size, len(families), None)


class TestStrictSpernerCertificate:
    """The LYM certificate against the search, on strictly normal posets."""

    @pytest.mark.parametrize(
        "spec",
        [
            "boolean:1", "boolean:3", "boolean:4", "subspace:2,2", "subspace:3,2",
            "star:2,2", "star:3,2", "chains:3,3", "chains:3,3,2", "chains:4,4",
            "chains:2,2,2,2", "chains:3,2,2,2", "divisor:30", "affine:2,2",
        ],
    )
    def test_equals_the_search_for_every_k(self, spec):
        poset = parse_poset_spec(spec)
        for k in range(1, len(poset.whitney) + 1):
            result = check_strict_k_sperner(poset, k)
            reference = reference_strict_k_sperner(poset, k)
            assert result == reference, k
            assert result.to_json() == {**reference.to_json(), "method": "certificate"}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("spec", ["boolean:5", "boolean:6", "subspace:4,2", "chains:5,5,5"])
    def test_equals_the_search_past_24_elements(self, monkeypatch, spec, k):
        # the old branch and bound stopped at 24 elements; chains:5,5,5 is
        # scanned for strict normality here even though the search could decide
        monkeypatch.setattr(sperner, "SCAN_BUDGET", 1 << 30)
        poset = parse_poset_spec(spec)
        assert poset.n > 24
        result = check_strict_k_sperner(poset, k)
        assert result.method == "certificate"
        assert result == reference_strict_k_sperner(poset, k)

    @given(graded_posets(14))
    @settings(max_examples=150, deadline=None)
    def test_random_graded_posets(self, poset):
        strict = check_strictly_normal(poset).holds
        for k in range(1, len(poset.whitney) + 1):
            result = check_strict_k_sperner(poset, k)
            top = k == len(poset.whitney)
            assert result.method == ("certificate" if strict or top else "search")
            assert result == reference_strict_k_sperner(poset, k)

    def test_method_names_the_path(self, b3, fig1a):
        assert check_strict_k_sperner(b3, 2).method == "certificate"
        # k above the number of levels: the whole poset, with no search
        assert check_strict_k_sperner(b3, 5).method == "certificate"
        res = check_strict_k_sperner(fig1a, 1)
        assert res.method == "search" and res.to_json()["method"] == "search"

    def test_k_at_or_above_the_levels_takes_the_whole_poset(self):
        # not graded: element 1 is minimal and maximal below the top rank
        poset = build_poset([(0, 0), (1, 0), (2, 1), (3, 2)], [(0, 2), (2, 3)])
        assert not poset.is_graded
        for k in (3, 4):
            result = check_strict_k_sperner(poset, k)
            assert result.method == "certificate"
            assert (result.holds, result.max_size, result.maxima_count) == (True, 4, 1)
            assert result == reference_strict_k_sperner(poset, k)

    def test_falls_back_when_the_strictness_scan_refuses(self, monkeypatch):
        # a 25-element level is past the subset scan: the search decides k = 1
        # and k = 2 without scanning the smaller levels first
        poset = gen_chain_product([6, 6, 6])
        with pytest.raises(LevelTooLargeError):
            check_strictly_normal(poset)
        scanned = []
        scan = properties._normal_level_enumerate

        def counted(poset, i, strict):
            scanned.append(i)
            return scan(poset, i, strict)

        monkeypatch.setattr(properties, "_normal_level_enumerate", counted)
        res = check_strict_k_sperner(poset, 1)
        assert res.method == "search" and res.max_size == max(poset.whitney)
        res = check_strict_k_sperner(poset, 2)
        assert (res.holds, res.max_size, res.maxima_count, res.method) == (True, 54, 1, "search")
        assert scanned == []

    def test_large_scan_left_to_the_search_within_its_caps(self, monkeypatch):
        # chains:15,15 is strictly normal, but not regular: the scan would visit
        # about 98,000 subsets, so k = 8 (1,800 product elements) goes to the
        # search; k = 9 (2,025) is past the search cap, so the scan runs and
        # certifies
        poset = gen_chain_product([15, 15])
        scanned = []
        scan = properties._normal_level_enumerate

        def counted(poset, i, strict):
            scanned.append(i)
            return scan(poset, i, strict)

        monkeypatch.setattr(properties, "_normal_level_enumerate", counted)
        res = check_strict_k_sperner(poset, 8)
        assert res.method == "search" and scanned == []
        assert (res.holds, res.max_size, res.maxima_count) == (True, 104, 2)
        res = check_strict_k_sperner(poset, 9)
        assert res.method == "certificate" and scanned
        assert (res.holds, res.max_size, res.maxima_count) == (True, 115, 1)

    def test_counts_maxima_in_closed_form(self):
        # a 1000-element chain: every level has one element, so the maxima for
        # k = 500 are the C(1000, 500) sets of 500 levels, counted without listing
        poset = parse_poset_spec("chains:1000")
        start = time.perf_counter()
        res = check_strict_k_sperner(poset, 500)
        assert time.perf_counter() - start < 5.0
        assert res == StrictSpernerResult(True, 500, 500, math.comb(1000, 500), None)
        assert res.method == "certificate"


class TestHomogeneous:
    def test_levels_are_homogeneous(self, b3):
        assert is_homogeneous(b3, level_set(b3, 1))
        assert is_homogeneous(b3, level_set(b3, 1) | level_set(b3, 2))
        assert is_homogeneous(b3, frozenset())

    def test_partial_level_is_not(self, b3):
        assert not is_homogeneous(b3, [b3.element_by_label("{1}")])


class TestStrictLym:
    def test_two_largest_levels_of_l32(self, l32):
        fam = level_set(l32, 1) | level_set(l32, 2)
        verdict = check_strict_lym(l32, fam, 2)
        assert verdict.verdict == "homogeneous" and verdict.total == 2

    def test_below_k(self, b3):
        verdict = check_strict_lym(b3, [b3.element_by_label("{1}")], 1)
        assert verdict.verdict == "below-k"

    def test_not_k_sperner(self, b3):
        chain = b3.enumerate_maximal_chains()[0]
        with pytest.raises(NotKSpernerError):
            check_strict_lym(b3, chain, 1)

    def test_non_strict_poset_rejected(self, fig1a):
        with pytest.raises(NotStrictlyNormalError):
            check_strict_lym(fig1a, [fig1a.element_by_label("a")], 1)

    @pytest.mark.parametrize("spec_k", [("boolean:3", 1), ("boolean:3", 2), ("chains:3,3", 1), ("subspace:2,2", 1)])
    def test_no_counterexample_exhaustive(self, spec_k):
        from azsperner import parse_poset_spec

        spec, k = spec_k
        poset = parse_poset_spec(spec)
        assert poset.n <= 9
        for mask in range(1, 1 << poset.n):
            fam = frozenset(x for x in range(poset.n) if (mask >> x) & 1)
            ok, _ = is_k_sperner(poset, fam, k)
            if not ok:
                continue
            verdict = check_strict_lym(poset, fam, k)
            assert verdict.verdict != "counterexample"
            assert verdict.verdict != "exceeds-k"
