from fractions import Fraction

import pytest

from azsperner import (
    check_strict_k_sperner,
    check_strict_lym,
    dual_dilworth_decompose,
    enumerate_maximum_antichains,
    enumerate_maximum_k_sperner,
    gen_boolean,
    gen_chain_product,
    gen_subspace_lattice,
    is_k_sperner,
    lym_sum,
    max_antichain,
)
from azsperner.errors import (
    NotKSpernerError,
    NotStrictlyNormalError,
    PosetError,
    SizeLimitError,
)
from azsperner.sperner import is_homogeneous


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
        poset = gen_boolean(5)  # 32 elements, k = 1 via matching route
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
        with pytest.raises(SizeLimitError):
            check_strict_k_sperner(gen_boolean(5), 2)


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
            verdict = check_strict_lym(poset, fam, k, check_poset=False)
            assert verdict.verdict != "counterexample"
            assert verdict.verdict != "exceeds-k"
