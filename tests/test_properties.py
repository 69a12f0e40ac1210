import math
from fractions import Fraction

import pytest

from azsperner import (
    build_chain_covering,
    check_level_connected,
    check_normal,
    check_regular,
    check_strictly_normal,
    check_strongly_regular,
    gen_boolean,
    gen_chain_product,
    gen_star_power,
    gen_subspace_lattice,
    lambda_table,
    verify_chain_covering,
)
from azsperner import flows, properties
from azsperner.errors import (
    LevelTooLargeError,
    NotGradedError,
    NotNormalError,
    NotUPosetError,
)
from azsperner.gf import gaussian_binomial
from azsperner.properties import ChainCovering, level_size_identity_holds


class TestRegular:
    def test_b4_profile(self, b4):
        res = check_regular(b4)
        assert res.holds
        prof = res.detail["profile"]
        assert prof["d_minus"] == [0, 1, 2, 3, 4]
        assert prof["d_plus"] == [4, 3, 2, 1, 0]

    def test_fig1a_violation_at_rank_two(self, fig1a):
        res = check_regular(fig1a)
        assert not res.holds
        assert res.detail["rank"] == 2 and res.detail["degree"] == "lower"
        x, y = res.witness
        assert {fig1a.label(x), fig1a.label(y)} == {"a", "b"}

    def test_chain_product_not_regular(self, c322):
        assert not check_regular(c322).holds

    def test_fig1b_regular(self, fig1b):
        assert check_regular(fig1b).holds


class TestNormal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_boolean_both_modes(self, n):
        poset = gen_boolean(n)
        assert check_normal(poset, mode="flow").holds
        assert check_normal(poset, mode="enumerate").holds

    def test_figures_normal(self, fig1a, fig1b):
        for poset in (fig1a, fig1b):
            assert check_normal(poset, mode="flow").holds
            assert check_normal(poset, mode="enumerate").holds

    @pytest.mark.parametrize("mode", ["flow", "enumerate"])
    def test_witness_violates(self, non_normal_5, mode):
        res = check_normal(non_normal_5, mode=mode)
        assert not res.holds
        fam = res.witness
        i = res.detail["level"]
        shadow = non_normal_5.gamma_down_to_level(fam, i - 1)
        assert len(fam) * non_normal_5.whitney[i - 1] > len(shadow) * non_normal_5.whitney[i]

    def test_modes_agree(self, fig1a, fig1b, b3, l32, c322, star22, non_normal_5):
        for poset in (fig1a, fig1b, b3, l32, c322, star22, non_normal_5):
            assert (
                check_normal(poset, mode="flow").holds
                == check_normal(poset, mode="enumerate").holds
            )

    def test_level_too_large(self):
        poset = gen_subspace_lattice(4, 2)  # middle level has 35 elements
        with pytest.raises(LevelTooLargeError):
            check_normal(poset, mode="enumerate")
        assert check_normal(poset, mode="flow").holds

    def test_not_graded(self):
        from azsperner import build_poset

        poset = build_poset([(0, 0), (1, 1)], [])
        with pytest.raises(NotGradedError):
            check_normal(poset)

    def test_regular_implies_normal(self, b4, l32, fig1b, star22):
        for poset in (b4, l32, fig1b, star22):
            if check_regular(poset).holds:
                assert check_normal(poset).holds

    def test_regular_needs_no_flow(self, b4, monkeypatch):
        def no_flow(*args):
            raise AssertionError("a uniform level pair ran a max-flow")

        monkeypatch.setattr(flows, "level_pair_flow", no_flow)
        res = check_normal(b4, mode="flow")
        assert res.holds
        assert res.detail["levels"] == [{"level": i, "ok": True} for i in range(1, 5)]


class TestStrictlyNormal:
    def test_l32_fast_path(self, l32):
        res = check_strictly_normal(l32)
        assert res.holds and res.detail["method"] == "fast-path"

    def test_fig1b_tight_witness(self, fig1b):
        res = check_strictly_normal(fig1b)
        assert not res.holds
        assert res.detail["level"] == 2
        assert len(res.witness) == 1
        (x,) = res.witness
        assert fig1b.label(x) in {"a", "b"}

    def test_c322_by_enumeration(self, c322):
        res = check_strictly_normal(c322)
        assert res.holds and res.detail["method"] == "enumeration"

    def test_fig1a_not_strict(self, fig1a):
        assert not check_strictly_normal(fig1a).holds

    def test_fast_path_agrees_with_enumeration(self, b3, star22):
        from azsperner.properties import _normal_level_enumerate

        for poset in (b3, star22):
            assert check_strictly_normal(poset).holds
            for i in range(1, poset.height + 1):
                assert _normal_level_enumerate(poset, i, strict=True) is None


class TestLevelConnected:
    def test_b3(self, b3):
        assert check_level_connected(b3).holds

    def test_fig1b_at_one(self, fig1b):
        res = check_level_connected(fig1b)
        assert not res.holds and res.detail["level"] == 1

    def test_parallel_chains(self):
        from azsperner import build_poset

        elements = [(0, 0), (1, 1), (2, 1), (3, 2)]
        covers = [(0, 1), (0, 2), (1, 3), (2, 3)]
        poset = build_poset(elements, covers)
        assert check_level_connected(poset).holds  # B_2-like is connected
        fig1b_like = build_poset(
            [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)],
            [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)],
        )
        res = check_level_connected(fig1b_like)
        assert not res.holds and res.detail["level"] == 1


class TestStronglyRegular:
    def test_b4_binomial_lambdas(self, b4):
        table = lambda_table(b4)
        for k in range(5):
            for l in range(k, 5):
                for i in range(k, l + 1):
                    assert table.get(i, k, l) == math.comb(l - k, i - k)

    def test_l32_gaussian_lambdas(self, l32):
        table = lambda_table(l32)
        for k in range(4):
            for l in range(k, 4):
                for i in range(k, l + 1):
                    assert table.get(i, k, l) == gaussian_binomial(l - k, i - k, 2)

    def test_endpoints_are_one(self, b4):
        table = lambda_table(b4)
        for (i, k, l), value in table.entries.items():
            if i in (k, l):
                assert value == 1

    def test_interval_size_sum(self, b4):
        table = lambda_table(b4)
        for a in range(b4.n):
            for b in sorted(b4.upset([a])):
                k, l = b4.ranks[a], b4.ranks[b]
                interval = b4.up_mask[a] & b4.down_mask[b]
                assert sum(
                    table.get(i, k, l) for i in range(k, l + 1)
                ) == interval.bit_count()

    def test_fig1a_not_strongly_regular(self, fig1a):
        res = check_strongly_regular(fig1a)
        assert not res.holds and res.witness is not None

    def test_requires_u_poset(self, star22):
        with pytest.raises(NotUPosetError):
            check_strongly_regular(star22)

    def test_zero_extension(self, b4):
        table = lambda_table(b4)
        assert table.get(0, 1, 1) == 0
        assert table.get(5, 0, 4) == 0


class TestChainCovering:
    def test_uniform_on_regular(self, b3):
        # on a regular poset, spreading each level's mass evenly over its
        # up-edges weights every maximal chain equally
        total = b3.count_maximal_chains().total
        g = {
            (lo, hi): Fraction(1, b3.whitney[b3.ranks[lo]] * b3.d_plus(lo))
            for lo, hi in b3.covers
        }
        uniform = ChainCovering(poset=b3, g=g)
        for chain in b3.enumerate_maximal_chains():
            assert uniform.chain_weight(chain) == Fraction(1, total)
        assert verify_chain_covering(b3, uniform).holds
        assert build_chain_covering(b3).g == g

    def test_flow_only_on_non_uniform_pairs(self, monkeypatch):
        # chains:9,8 has 15 level pairs; only the end pairs 0 and 14 have
        # constant up-degrees below and constant down-degrees above
        poset = gen_chain_product([9, 8])
        pairs = []
        original = properties.transportation

        def counted(rows, *args):
            pairs.append(poset.ranks[rows[0]])
            return original(rows, *args)

        monkeypatch.setattr(properties, "transportation", counted)
        covering = build_chain_covering(poset)
        assert pairs == list(range(1, 14))
        assert verify_chain_covering(poset, covering).holds

    def test_builder_on_fig1a(self, fig1a):
        covering = build_chain_covering(fig1a)
        report = verify_chain_covering(fig1a, covering)
        assert report.holds
        weights = {covering.chain_weight(c) for c in fig1a.enumerate_maximal_chains()}
        assert weights != {Fraction(1, 3)}  # necessarily non-uniform

    def test_builder_on_c32(self):
        poset = gen_chain_product([3, 2])
        report = verify_chain_covering(poset, build_chain_covering(poset))
        assert report.holds

    def test_not_normal(self, non_normal_5):
        with pytest.raises(NotNormalError):
            build_chain_covering(non_normal_5)

    def test_perturbation_detected(self, b3):
        covering = build_chain_covering(b3)
        edge = next(iter(covering.g))
        g = dict(covering.g)
        g[edge] += Fraction(1, 1000)
        bad = ChainCovering(poset=b3, g=g)
        report = verify_chain_covering(b3, bad)
        assert not report.holds
        assert not report.marginals_ok and not report.chains_ok
        assert report.violations

    @pytest.mark.parametrize(
        "spec",
        ["boolean:4", "subspace:3,2", "chains:3,2,2", "star:2,2", "affine:2,2"],
    )
    def test_builder_verifies_across_families(self, spec):
        from azsperner import parse_poset_spec

        poset = parse_poset_spec(spec)
        assert verify_chain_covering(poset, build_chain_covering(poset)).holds


class TestLevelSizeIdentity:
    def test_regular_posets(self, b3, b4, l32, fig1b, star22):
        for poset in (b3, b4, l32, fig1b, star22):
            assert level_size_identity_holds(poset)

    def test_star_power(self):
        assert level_size_identity_holds(gen_star_power(2, 3))
