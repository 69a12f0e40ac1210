import random
from fractions import Fraction

import pytest

from azsperner import (
    best_full_transversal,
    chain_pair_bound,
    gen_boolean,
    gen_chain_product,
    gen_fig1a,
    gen_fig1b,
    is_two_part_sperner,
    max_two_part_sperner_exact,
    product_covering_report,
    two_part_az_sum,
    two_part_lym,
    two_part_sperner_identity,
    verify_strict_two_part,
    well_paired_family,
)
from azsperner.errors import (
    EmptySliceError,
    NotMaximalChainError,
    NotStrictlyNormalError,
    NotTwoPartSpernerError,
    PosetError,
    SizeLimitError,
)
from azsperner.twopart import is_homogeneous_product, is_two_part_sperner_slices


@pytest.fixture(scope="module")
def b1():
    return gen_boolean(1)


@pytest.fixture(scope="module")
def chain3():
    return gen_chain_product([3])


def transversal_family(p, q, pairs):
    return frozenset(
        (a, b) for i, j in pairs for a in p.levels[i] for b in q.levels[j]
    )


class TestRecognition:
    def test_transversal_product(self, b1):
        fam = transversal_family(b1, b1, [(1, 0), (0, 1)])
        ok, _ = is_two_part_sperner(b1, b1, fam)
        assert ok

    def test_shared_second_coordinate(self, b1):
        fam = {(0, 0), (1, 0)}  # bottom and top of P paired with bottom of Q
        ok, witness = is_two_part_sperner(b1, b1, fam)
        assert not ok and witness == ((0, 0), (1, 0))

    def test_homogeneous_from_any_transversal(self, b2, chain3):
        fam = transversal_family(b2, chain3, [(0, 0), (1, 1), (2, 2)])
        assert is_two_part_sperner(b2, chain3, fam)[0]

    def test_slice_characterization_agrees(self, b2, b1):
        rng = random.Random(13)
        space = [(a, b) for a in range(b2.n) for b in range(b1.n)]
        for _ in range(300):
            fam = frozenset(rng.sample(space, rng.randint(0, len(space))))
            assert is_two_part_sperner(b2, b1, fam)[0] == is_two_part_sperner_slices(
                b2, b1, fam
            )


class TestTwoPartAZ:
    def test_b1_b1_example(self, b1):
        fam = {(0, 0), (0, 1)}  # bottom of P against both levels of Q
        assert two_part_az_sum(b1, b1, fam).total == 2

    def test_bottom_times_q(self, b2, b1):
        bottom = b2.levels[0][0]
        fam = {(bottom, y) for y in range(b1.n)}
        assert two_part_az_sum(b2, b1, fam).total == b1.height + 1

    def test_empty_slice(self, b1):
        with pytest.raises(EmptySliceError):
            two_part_az_sum(b1, b1, {(0, 0)})

    def test_random_nonempty_slices(self, b2, b1):
        rng = random.Random(29)
        for _ in range(100):
            fam = set()
            for y in range(b1.n):
                for a in rng.sample(range(b2.n), rng.randint(1, b2.n)):
                    fam.add((a, y))
            assert two_part_az_sum(b2, b1, fam).total == b1.height + 1

    def test_orientation_totals(self, b2, b1):
        # swapping the factor roles changes the expected total accordingly
        fam_pq = set()
        fam_qp = set()
        rng = random.Random(41)
        for y in range(b1.n):
            for a in rng.sample(range(b2.n), rng.randint(1, b2.n)):
                fam_pq.add((a, y))
        for y in range(b2.n):
            for a in rng.sample(range(b1.n), rng.randint(1, b1.n)):
                fam_qp.add((a, y))
        assert two_part_az_sum(b2, b1, fam_pq).total == b1.height + 1
        assert two_part_az_sum(b1, b2, fam_qp).total == b2.height + 1


class TestSpernersplit:
    def test_well_paired_on_b2_b2(self, b2):
        fam, _ = well_paired_family(b2, b2)
        lym, rem = two_part_sperner_identity(b2, b2, fam)
        assert lym == 3 and rem == 0

    def test_bottom_times_q_identity(self, b2):
        q = b2
        bottom = b2.levels[0][0]
        fam = {(bottom, y) for y in range(q.n)}
        lym, rem = two_part_sperner_identity(b2, q, fam)
        assert lym == sum(
            (Fraction(1, q.whitney[q.ranks[y]]) for y in range(q.n)), Fraction(0)
        )
        assert lym + rem == q.height + 1

    def test_swaps_when_q_taller(self, b1, b2):
        fam = {(y, x) for x, y in well_paired_family(b2, b1)[0]}
        lym, rem = two_part_sperner_identity(b1, b2, fam)
        assert lym + rem == b1.height + 1

    def test_rejects_non_sperner(self, b1):
        with pytest.raises(NotTwoPartSpernerError):
            two_part_sperner_identity(b1, b1, {(0, 0), (1, 0)})


class TestTransversals:
    def test_b2_b2_value_and_table(self, b2):
        transversal, value = best_full_transversal(b2, b2)
        assert value == 6
        from itertools import permutations

        values = sorted(
            sum(b2.whitney[i] * b2.whitney[p[i]] for i in range(3))
            for p in permutations(range(3))
        )
        assert values == [5, 5, 5, 5, 6, 6]
        assert transversal.full
        assert transversal.pairs == ((0, 0), (1, 1), (2, 2))

    def test_b3_b2(self, b3, b2):
        _, value = best_full_transversal(b3, b2)
        assert value == 10

    def test_single_level_q(self, b3):
        flat = gen_chain_product([1])
        _, value = best_full_transversal(b3, flat)
        assert value == max(b3.whitney)

    def test_well_paired_family_sizes(self, b2, b1):
        fam, _ = well_paired_family(b2, b2)
        assert len(fam) == 6
        fam_fig, _ = well_paired_family(gen_fig1a(), b1)
        assert len(fam_fig) == 4


class TestExactMaxima:
    def test_b2_b2(self, b2):
        size, fams = max_two_part_sperner_exact(b2, b2)
        assert size == 6
        ok, _ = is_two_part_sperner(b2, b2, fams[0])
        assert ok

    def test_b1_b1_all(self, b1):
        size, fams = max_two_part_sperner_exact(b1, b1, enumerate_all=True)
        assert size == 2
        expected = {
            transversal_family(b1, b1, [(0, 0), (1, 1)]),
            transversal_family(b1, b1, [(0, 1), (1, 0)]),
        }
        assert set(fams) == expected

    def test_fig1b_times_b1_recorded(self, b1):
        # not strictly normal, so no homogeneity assertion: record only
        fig1b = gen_fig1b()
        size, fams = max_two_part_sperner_exact(fig1b, b1, enumerate_all=True)
        _, well = best_full_transversal(fig1b, b1)
        assert size >= well
        for fam in fams:
            assert is_two_part_sperner(fig1b, b1, fam)[0]

    def test_size_limit(self, b3):
        with pytest.raises(SizeLimitError):
            max_two_part_sperner_exact(b3, b3, enumerate_all=True)


class TestPairValidation:
    @pytest.mark.parametrize(
        "pair", [(1.0, 0), (0, 1.0), (True, 0), (0, False), (8, 0), (0, -1), (1,), (0, 0, 0), 5]
    )
    def test_rejects_foreign_or_non_integer_ids(self, b3, b2, pair):
        with pytest.raises(PosetError):
            two_part_lym(b3, b2, [pair])
        with pytest.raises(PosetError):
            is_two_part_sperner(b3, b2, [(0, 0), pair])
        with pytest.raises(PosetError):
            is_homogeneous_product(b3, b2, [pair])


class TestStrictTwoPart:
    def test_b2_b2(self, b2):
        res = verify_strict_two_part(b2, b2)
        assert res.holds and res.max_size == 6 and res.maxima_count == 2

    def test_b2_chain3(self, b2, chain3):
        res = verify_strict_two_part(b2, chain3)
        assert res.holds and res.max_size == res.well_paired_size == 4

    def test_chain3_chain3(self, chain3):
        res = verify_strict_two_part(chain3, gen_chain_product([3]))
        assert res.holds and res.max_size == 3 and res.maxima_count == 6

    def test_b1_b1(self, b1):
        res = verify_strict_two_part(b1, b1)
        assert res.holds and res.max_size == 2

    def test_rejects_non_strict_factor(self, b1):
        with pytest.raises(NotStrictlyNormalError):
            verify_strict_two_part(gen_fig1b(), b1)


class TestChainPairs:
    def test_well_paired_hits_three(self, b2):
        fam, _ = well_paired_family(b2, b2)
        for c1 in b2.enumerate_maximal_chains():
            for c2 in b2.enumerate_maximal_chains():
                assert chain_pair_bound(b2, b2, fam, c1, c2) == 3

    def test_small_families(self, b2):
        chains = b2.enumerate_maximal_chains()
        assert chain_pair_bound(b2, b2, {(0, 0)}, chains[0], chains[0]) <= 3
        assert chain_pair_bound(b2, b2, set(), chains[0], chains[0]) == 0

    def test_rejects_non_maximal_chain(self, b2):
        chains = b2.enumerate_maximal_chains()
        with pytest.raises(NotMaximalChainError):
            chain_pair_bound(b2, b2, set(), chains[0][:2], chains[0])

    def test_covering_report_on_maxima(self, b2, chain3):
        for p, q in ((b2, b2), (b2, chain3)):
            _, fams = max_two_part_sperner_exact(p, q, enumerate_all=True)
            for fam in fams:
                report = product_covering_report(p, q, fam)
                assert report.holds
                assert report.equal_pairs == report.positive_pairs
                assert report.meeting_mass == 1


class TestTwoPartLym:
    def test_well_paired_value(self, b2):
        fam, _ = well_paired_family(b2, b2)
        assert two_part_lym(b2, b2, fam) == 3

    def test_single_level_product(self, b2):
        fam = transversal_family(b2, b2, [(1, 1)])
        assert two_part_lym(b2, b2, fam) == 1

    def test_submaximum_strictly_below(self, b2):
        fam, _ = well_paired_family(b2, b2)
        for member in fam:
            assert two_part_lym(b2, b2, fam - {member}) < 3

    def test_never_exceeds_bound(self, b2, b1):
        rng = random.Random(3)
        space = [(a, b) for a in range(b2.n) for b in range(b1.n)]
        bound = min(b2.height, b1.height) + 1
        seen = 0
        while seen < 50:
            fam = frozenset(rng.sample(space, rng.randint(1, len(space))))
            if not is_two_part_sperner(b2, b1, fam)[0]:
                continue
            seen += 1
            assert two_part_lym(b2, b1, fam) <= bound
