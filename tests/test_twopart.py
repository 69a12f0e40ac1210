import importlib
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from azsperner import (
    best_full_transversal,
    build_poset,
    chain_pair_bound,
    check_normal,
    gen_boolean,
    gen_chain_product,
    gen_fig1a,
    gen_fig1b,
    is_two_part_sperner,
    max_two_part_sperner_exact,
    parse_poset_spec,
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
import azsperner.twopart as twopart
from azsperner.mis import MaxIndependentSet
from azsperner.twopart import (
    ENUMERATE_CAP,
    MIS_CAP,
    StrictTwoPartResult,
    _level_blocks,
    conflict_graph,
    well_paired_value,
)
from test_search_kernels import graded_posets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def is_homogeneous_product(p, q, fam):
    """True iff the family of (p, q) id pairs is a union of complete level
    products P_i x Q_j: the oracle for the block masks of ``_level_blocks``."""
    fam = frozenset(fam)
    seen = {(p.ranks[a], q.ranks[b]) for a, b in fam}
    return sum(p.whitney[i] * q.whitney[j] for i, j in seen) == len(fam)


@pytest.fixture(scope="module")
def b1():
    return gen_boolean(1)


@pytest.fixture(scope="module")
def chain3():
    return gen_chain_product([3])


def is_two_part_sperner_slices(p, q, fam):
    """The slice characterization: every row and column slice is an antichain."""
    rows: dict[int, set[int]] = {}
    cols: dict[int, set[int]] = {}
    for a, b in fam:
        rows.setdefault(b, set()).add(a)
        cols.setdefault(a, set()).add(b)
    return all(p.is_antichain(r) for r in rows.values()) and all(
        q.is_antichain(c) for c in cols.values()
    )


def transversal_family(p, q, pairs):
    return frozenset(
        (a, b) for i, j in pairs for a in p.levels[i] for b in q.levels[j]
    )


def relabelled(poset, seed):
    """An isomorphic copy with seeded shuffled ids, and the map back to the old ids."""
    perm = list(range(poset.n))
    random.Random(seed).shuffle(perm)
    copy = build_poset(
        [(perm[x], poset.ranks[x]) for x in range(poset.n)],
        [(perm[lo], perm[hi]) for lo, hi in poset.covers],
    )
    return copy, {perm[x]: x for x in range(poset.n)}


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

    @pytest.mark.parametrize("seeds", [(1, 2), (3, 4)])
    def test_maxima_do_not_depend_on_the_labelling(self, b2, chain3, seeds):
        runs = []
        for seed in seeds:
            (p, back_p), (q, back_q) = relabelled(b2, seed), relabelled(chain3, seed + 10)
            size, fams = max_two_part_sperner_exact(p, q, enumerate_all=True)
            runs.append((size, {frozenset((back_p[a], back_q[b]) for a, b in f) for f in fams}))
        assert runs[0] == runs[1] == (4, set(max_two_part_sperner_exact(b2, chain3, True)[1]))
        assert len(runs[0][1]) == 6


class TestPairValidation:
    @pytest.mark.parametrize(
        "pair", [(1.0, 0), (0, 1.0), (True, 0), (0, False), (8, 0), (0, -1), (1,), (0, 0, 0), 5]
    )
    def test_rejects_foreign_or_non_integer_ids(self, b3, b2, pair):
        with pytest.raises(PosetError):
            two_part_lym(b3, b2, [pair])
        with pytest.raises(PosetError):
            is_two_part_sperner(b3, b2, [(0, 0), pair])


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


def reference_strict_two_part(p, q):
    """The decode-everything composition: every maximum as pairs, each tested
    with ``is_homogeneous_product``, the first failure as the witness."""
    size, families = max_two_part_sperner_exact(p, q, enumerate_all=True)
    well_paired = well_paired_value(p, q)
    for fam in families:
        if not is_homogeneous_product(p, q, fam):
            return StrictTwoPartResult(False, size, well_paired, len(families), fam)
    return StrictTwoPartResult(True, size, well_paired, len(families), None)


@pytest.fixture(scope="module")
def strict_products():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads").SEARCH_STRICT_PRODUCTS
    finally:
        sys.path.remove(str(PERFBENCH))


class TestStrictTwoPartOnMasks:
    """The block-mask verdict against the decode-everything reference."""

    def test_benchmark_products_and_relabellings(self, strict_products):
        assert len(strict_products) == 11
        failing = set()
        for specs in strict_products:
            p, q = (parse_poset_spec(spec) for spec in specs)
            result = verify_strict_two_part(p, q)
            assert result == reference_strict_two_part(p, q), specs
            if not result.holds:
                failing.add(specs)
                assert result.witness is not None
                assert not is_homogeneous_product(p, q, result.witness)
            for seed in (5, 6):
                (rp, _), (rq, _) = relabelled(p, seed), relabelled(q, seed + 10)
                assert verify_strict_two_part(rp, rq) == reference_strict_two_part(rp, rq)
        assert failing == {("star:2,2", "chains:4"), ("boolean:2", "chains:4")}

    @given(graded_posets(6), graded_posets(5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_block_test_agrees_with_is_homogeneous_product(self, p, q, data):
        m = q.n
        blocks = _level_blocks(p, q)

        def block_test(mask):
            return all(mask & block in (0, block) for block in blocks)

        def pairs(mask):
            return {divmod(v, m) for v in range(p.n * m) if mask >> v & 1}

        mask = data.draw(st.integers(min_value=0, max_value=(1 << p.n * m) - 1))
        assert block_test(mask) == is_homogeneous_product(p, q, pairs(mask))
        rank_pairs = data.draw(
            st.sets(st.tuples(st.integers(0, p.height), st.integers(0, q.height)))
        )
        union = sum(
            1 << a * m + b for i, j in rank_pairs for a in p.levels[i] for b in q.levels[j]
        )
        assert block_test(union) and is_homogeneous_product(p, q, pairs(union))
        # one vertex off a union: homogeneous only if its block is that vertex
        near = union ^ 1 << data.draw(st.integers(min_value=0, max_value=p.n * m - 1))
        assert block_test(near) == is_homogeneous_product(p, q, pairs(near))


def shifted_family(p, q):
    """A maximum 2-part Sperner family that is not homogeneous, where the LYM
    certificate is silent: in the best full transversal, a short level L_i of
    two or more elements meets a long level, and a long level of that size is
    left over; L_i's first element keeps the block, the rest move to the spare."""
    flip = len(p.whitney) > len(q.whitney)
    short, long = (q, p) if flip else (p, q)
    transversal, _ = best_full_transversal(short, long)
    used = {j for _, j in transversal.pairs}
    for i, j in transversal.pairs:
        spare = [
            j2 for j2, size in enumerate(long.whitney) if j2 not in used and size == long.whitney[j]
        ]
        if len(short.levels[i]) > 1 and spare:
            first, *rest = short.levels[i]
            kept = [ij for ij in transversal.pairs if ij != (i, j)]
            fam = transversal_family(short, long, kept)
            fam |= {(first, b) for b in long.levels[j]}
            fam |= {(a, b) for a in rest for b in long.levels[spare[0]]}
            return frozenset((b, a) for a, b in fam) if flip else fam
    raise AssertionError(f"no level to shift in {p.name} x {q.name}")


# strictly normal factors whose products of at most 36 elements the
# enumeration can decide
STRICT_FACTORS = [
    "boolean:1", "boolean:2", "boolean:3", "chains:3", "chains:4", "chains:5", "chains:6",
    "chains:3,3", "chains:2,2,2", "star:2,2", "subspace:2,2",
]


class TestStrictTwoPartCertificate:
    """The LYM certificate against the enumeration, and the paths it takes."""

    def test_every_small_product_and_relabelling(self):
        factors = [parse_poset_spec(spec) for spec in STRICT_FACTORS]
        silent, failing, products = set(), set(), 0
        for p, q in product(factors, factors):
            if p.n * q.n > ENUMERATE_CAP:
                continue
            products += 1
            result = verify_strict_two_part(p, q)
            assert result == reference_strict_two_part(p, q), (p.name, q.name)
            if result.method == "search":
                silent.add((p.name, q.name))
            if not result.holds:
                failing.add((p.name, q.name))
            for seed in (5, 6):
                (rp, _), (rq, _) = relabelled(p, seed), relabelled(q, seed + 10)
                copy = verify_strict_two_part(rp, rq)
                assert copy == reference_strict_two_part(rp, rq), (p.name, q.name, seed)
                assert copy.method == result.method
        assert products == 81
        # the certificate was silent only where the verdict fails
        assert silent == failing and len(failing) == 14

    def test_silent_only_where_the_verdict_fails(self):
        # a silent certificate pairs a short level of two or more elements with
        # a long level while a long level of that size is left over; moving
        # part of that block to the spare level keeps the size and every slice
        # an antichain, but breaks homogeneity
        factors = [parse_poset_spec(spec) for spec in STRICT_FACTORS]
        silent = searched = 0
        for p, q in product(factors, factors):
            if twopart._lym_certificate(p, q) is not None:
                continue
            silent += 1
            fam = shifted_family(p, q)
            assert is_two_part_sperner(p, q, fam)[0], (p.name, q.name)
            assert len(fam) == well_paired_value(p, q)
            assert not is_homogeneous_product(p, q, fam)
            if p.n * q.n <= ENUMERATE_CAP:
                searched += 1
                assert not verify_strict_two_part(p, q).holds
        assert (silent, searched) == (28, 14)

    def test_method_names_the_path(self, b2, chain3):
        certified = verify_strict_two_part(b2, chain3)
        assert certified.method == "certificate" and certified.to_json()["method"] == "certificate"
        searched = verify_strict_two_part(b2, gen_chain_product([4]))
        assert searched.method == "search" and searched.to_json()["method"] == "search"
        assert not searched.holds

    def test_certificate_builds_no_conflict_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the conflict graph was built")

        monkeypatch.setattr(twopart, "conflict_graph", refuse)
        b8 = gen_boolean(8)
        result = verify_strict_two_part(b8, b8)
        assert (result.holds, result.max_size, result.maxima_count) == (True, 12870, 16)
        assert max_two_part_sperner_exact(b8, b8)[0] == 12870


def mis_size(p, q):
    return MaxIndependentSet(conflict_graph(p, q)[1]).run()[0]


class TestExactMaximaCertificate:
    """The well-paired family on normal factors against the MIS."""

    NORMAL_FACTORS = [
        "boolean:1", "boolean:2", "boolean:3", "chains:3", "chains:5", "chains:3,2",
        "chains:4,2", "star:2,2", "subspace:2,2", "fig1a", "fig1b", "divisor:12",
    ]

    def test_normal_products_reach_the_mis(self):
        factors = [parse_poset_spec(spec) for spec in self.NORMAL_FACTORS]
        assert all(check_normal(f).holds for f in factors)
        for p, q in product(factors, factors):
            if p.n * q.n > MIS_CAP:
                continue
            size, (fam,) = max_two_part_sperner_exact(p, q)
            assert size == len(fam) == mis_size(p, q) == well_paired_value(p, q)
            assert is_two_part_sperner(p, q, fam)[0]
            assert fam == well_paired_family(p, q)[0]

    @given(graded_posets(6), graded_posets(5))
    @settings(max_examples=80, deadline=None)
    def test_random_graded_products(self, p, q):
        size, (fam,) = max_two_part_sperner_exact(p, q)
        assert size == len(fam) == mis_size(p, q)
        assert is_two_part_sperner(p, q, fam)[0]

    def test_refuses_a_family_past_the_element_cap(self, monkeypatch):
        # 184,756 pairs: the certificate knows the size but will not list them,
        # and the refusal comes before any factor's normality flow check
        b10 = gen_boolean(10)
        assert well_paired_value(b10, b10) == 184756

        def no_flow(poset):
            raise AssertionError(f"check_normal ran on {poset.name}")

        monkeypatch.setattr(twopart, "check_normal", no_flow)
        with pytest.raises(SizeLimitError, match="184756 pairs"):
            max_two_part_sperner_exact(b10, b10)

    def test_non_normal_factor_is_searched(self, monkeypatch, non_normal_5, b1):
        calls = []
        solve = twopart._maximum_masks

        def counted(p, q, enumerate_all):
            calls.append((p.name, q.name))
            return solve(p, q, enumerate_all)

        monkeypatch.setattr(twopart, "_maximum_masks", counted)
        size, (fam,) = max_two_part_sperner_exact(non_normal_5, b1)
        assert calls == [("non-normal-5", "boolean:1")]
        assert size == len(fam) == mis_size(non_normal_5, b1)
        assert is_two_part_sperner(non_normal_5, b1, fam)[0]
        max_two_part_sperner_exact(b1, b1)
        assert len(calls) == 1
        # not graded (a maximal element below the top rank): searched as well
        ragged = build_poset([(0, 0), (1, 0), (2, 1)], [(0, 2)], name="ragged")
        assert not ragged.is_graded
        size, (fam,) = max_two_part_sperner_exact(ragged, b1)
        assert calls[1:] == [("ragged", "boolean:1")]
        assert size == len(fam) == mis_size(ragged, b1)


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
