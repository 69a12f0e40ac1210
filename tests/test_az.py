import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import azsperner.az as az
from azsperner import (
    SkewPairSystem,
    adjoin_bounds,
    antichain_az,
    az_identity_sum,
    beta,
    boundary_chain_fractions,
    compute_w,
    gen_boolean,
    gen_chain_product,
    gen_fig1a,
    gen_fig1b,
    gen_star_power,
    gen_subspace_lattice,
    interval_w_sum,
    k_sperner_az,
    key_lemma_sum,
    lambda_table,
    lym_sum,
    parse_poset_spec,
    second_az_identity,
    two_part_az_sum,
)
from azsperner.acceptance import _sample_skew_system
from azsperner.az import AZTerm, _boundary_w, _exact_sum, _w_sums
from azsperner.core import family
from azsperner.errors import (
    EmptyFamilyError,
    NotAntichainError,
    NotKSpernerError,
    NotRegularError,
    NotUPosetError,
    PosetError,
    SkewViolationError,
)
from test_twopart import relabelled


def ids(poset, labels):
    return frozenset(poset.element_by_label(lab) for lab in labels)


class TestComputeW:
    def test_boolean_example(self, b3):
        fam = ids(b3, ["{1}"])
        assert compute_w(b3, fam, b3.element_by_label("{1,2}")) == 1

    def test_empty_restriction(self, b3):
        fam = ids(b3, ["{1,2}"])
        assert compute_w(b3, fam, b3.element_by_label("{3}")) == 0

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_foreign_element(self, b2, bad):
        with pytest.raises(PosetError):
            compute_w(b2, [0], bad)

    def test_fig1a_remark_values(self, fig1a):
        fam = ids(fig1a, ["a", "c"])
        for lab, expected in (("a", 1), ("b", 1), ("c", 1), ("t", 0)):
            assert compute_w(fig1a, fam, fig1a.element_by_label(lab)) == expected

    def test_antichain_members_get_down_degree(self, b4):
        fam = frozenset(b4.levels[2][:3])
        for x in fam:
            assert compute_w(b4, fam, x) == b4.d_minus(x)

    def test_boolean_intersection_formula(self, b4):
        # on subset lattices W is the size of the intersection of the members below x
        rng = random.Random(7)
        for _ in range(50):
            fam = frozenset(rng.sample(range(b4.n), rng.randint(1, 6)))
            for x in range(b4.n):
                below = [a for a in fam if b4.leq(a, x)]
                got = compute_w(b4, fam, x)
                if not below:
                    assert got == 0
                else:
                    meet = below[0]
                    for a in below[1:]:
                        meet &= a  # element ids are subset bitmasks
                    assert got == bin(meet).count("1")


class TestIdentitySum:
    def test_b2_breakdown(self, b2):
        report = az_identity_sum(b2, ids(b2, ["{1}"]))
        assert report.total == 1
        by_label = {b2.label(t.element): t.term for t in report.terms if t.term}
        assert by_label == {"{1}": Fraction(1, 2), "{1,2}": Fraction(1, 2)}

    def test_bottom_convention(self, b3):
        report = az_identity_sum(b3, ids(b3, ["{}"]))
        assert report.total == 1
        bottom_term = report.terms[b3.element_by_label("{}")]
        assert bottom_term.convention_bottom and bottom_term.term == 1
        assert all(t.term == 0 for t in report.terms if t.element != bottom_term.element)

    def test_fig1a_deviates(self, fig1a):
        assert az_identity_sum(fig1a, ids(fig1a, ["a", "c"])).total == Fraction(5, 4)

    def test_empty_family(self, b3):
        with pytest.raises(EmptyFamilyError):
            az_identity_sum(b3, [])

    def test_needs_u_poset(self, star22):
        with pytest.raises(NotUPosetError):
            az_identity_sum(star22, [0])

    def test_all_families_of_b3(self, b3):
        for mask in range(1, 1 << b3.n):
            fam = [x for x in range(b3.n) if (mask >> x) & 1]
            report = az_identity_sum(b3, fam)
            grand, per = boundary_chain_fractions(b3, fam)
            assert report.total == 1 == grand
            for term in report.terms:
                assert term.term == per.get(term.element, Fraction(0))

    def test_w_equals_boundary_group_size(self, fig1a, b3, c322):
        rng = random.Random(11)
        for poset in (fig1a, b3, c322):
            for _ in range(40):
                fam = frozenset(rng.sample(range(poset.n), rng.randint(1, poset.n)))
                grouped = poset.boundary_edges(fam)
                for x in range(poset.n):
                    if poset.ranks[x] == 0:
                        continue
                    assert compute_w(poset, fam, x) == len(grouped.get(x, ()))


def eager_identity(poset, fam):
    """Oracle: the identity total and every term, built in one eager loop."""
    ids = family(poset, fam)
    up = poset.upset_mask(ids)
    w_of, by_denominator = _boundary_w(poset, up, up)
    (bottom,) = poset.levels[0]
    bottom_in = bottom in ids
    total = _exact_sum(by_denominator) + int(bottom_in)
    denominators = poset.identity_denominator
    shared = {key: Fraction(*key) for key in {(w, denominators[x]) for x, w in w_of.items()}}
    zero = Fraction(0)
    in_up = format(up, f"0{poset.n}b")[::-1]
    terms = []
    for x in range(poset.n):
        w = w_of.get(x, 0)
        term = shared[w, denominators[x]] if w else zero
        terms.append(AZTerm(x, w, term, False, x in ids, in_up[x] == "1"))
    terms[bottom] = AZTerm(bottom, 0, Fraction(int(bottom_in)), bottom_in, bottom_in, bottom_in)
    return total, tuple(terms)


# U-posets, regular and not; the bounded ones put the bottom at id n, not 0
LAZY_POSETS = [
    gen_boolean(2),
    gen_boolean(4),
    gen_fig1a(),
    gen_subspace_lattice(3, 2),
    gen_chain_product([3, 2, 2]),
    adjoin_bounds(gen_star_power(2, 2)),
    adjoin_bounds(gen_fig1b()),
]


@st.composite
def u_poset_families(draw):
    poset = draw(st.sampled_from(LAZY_POSETS))
    fam = draw(st.sets(st.integers(min_value=0, max_value=poset.n - 1), min_size=1))
    return poset, fam


class TestLazyTerms:
    @given(u_poset_families())
    @settings(max_examples=150, deadline=None)
    def test_matches_eager_loop(self, case):
        poset, fam = case
        total, terms = eager_identity(poset, fam)
        report = az_identity_sum(poset, fam)
        assert report.total == total
        assert type(report.terms) is tuple and report.terms == terms
        assert all(type(t) is AZTerm for t in report.terms)
        assert report.to_json() == {
            "total": f"{total.numerator}/{total.denominator}",
            "terms": [t.to_json() for t in terms],
        }

    def test_no_record_before_terms_read(self, b4, monkeypatch):
        # a record built inside the call would be a plain AZTerm; one built on
        # first read is of the class the module holds by then
        class Marked(AZTerm):
            pass

        report = az_identity_sum(b4, [1, 6])
        assert report.total == 1 and "terms" not in vars(report)
        monkeypatch.setattr(az, "AZTerm", Marked)
        terms = report.terms
        assert sum(type(t) is Marked for t in terms) == b4.n
        assert report.terms is terms  # cached

    def test_total_walks_nothing(self, b4, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _boundary_w(*args)

        monkeypatch.setattr(az, "_boundary_w", counted)
        report = az_identity_sum(b4, [1, 6])
        assert report.total == 1 and not calls
        assert "w_of" not in vars(report) and "terms" not in vars(report)
        up = b4.upset_mask([1, 6])
        total, terms = eager_identity(b4, [1, 6])
        assert report.w_of == _boundary_w(b4, up, up)[0]
        assert report.terms == terms and report.total == total
        assert len(calls) == 1  # w_of is walked once, and terms reuse it
        bad = dataclasses.replace(report, total=Fraction(5, 4))
        assert bad.total == Fraction(5, 4) and bad.w_of == report.w_of
        again = az_identity_sum(b4, [6, 1])
        assert again == report and hash(again) == hash(report) and bad != report

    def test_replace_keeps_terms(self, b3):
        report = az_identity_sum(b3, [1, 6])
        bad = dataclasses.replace(report, total=Fraction(5, 4))
        assert bad.total == Fraction(5, 4) and report.total == 1
        assert bad.terms == report.terms
        assert bad != report

    def test_equality_and_hash(self, b3, fig1a):
        a = az_identity_sum(b3, [1, 6])
        b = az_identity_sum(b3, [6, 1])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # same total, different terms
        c = az_identity_sum(b3, [2])
        assert c.total == a.total and c != a
        # equal reports on distinct but equal posets
        assert az_identity_sum(gen_boolean(3), [1, 6]) == a
        assert a != az_identity_sum(fig1a, [0])
        assert a != (a.total, a.terms)


def walked_sums(poset, up, cut=0):
    """Oracle: the nonzero per-denominator W sums over U(A) minus cut, walked."""
    return _boundary_w(poset, up, up & ~cut)[1]


def nonzero(sums):
    return {d: w for d, w in sums.items() if w}


def with_walk(fn, *args):
    """fn(*args) with every identity sum walked, as before the level closed form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(az, "_w_sums", walked_sums)
        return fn(*args)


def walk_calls(fn, *args):
    """fn(*args), and the number of _boundary_w walks it made."""
    calls = []

    def counted(*walk_args):
        calls.append(walk_args)
        return _boundary_w(*walk_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(az, "_boundary_w", counted)
        return fn(*args), len(calls)


# regular graded posets, with and without universal bounds, and relabelled copies
_REGULAR_BASES = [gen_boolean(n) for n in range(1, 7)] + [
    parse_poset_spec(spec)
    for spec in (
        "subspace:3,2",
        "subspace:4,2",
        "subspace:3,3",
        "star:2,3",
        "affine:2,3",
        "trunc(boolean:5,1,4)",
    )
]
REGULAR_POSETS = _REGULAR_BASES + [
    relabelled(p, seed)[0] for p in _REGULAR_BASES for seed in (1, 2)
]
B6 = gen_boolean(6)


@st.composite
def regular_families(draw):
    poset = draw(st.sampled_from(REGULAR_POSETS))
    fam = draw(st.sets(st.integers(min_value=0, max_value=poset.n - 1), min_size=1))
    return poset, frozenset(fam)


class TestLevelClosedForm:
    @given(regular_families())
    @settings(max_examples=200, deadline=None)
    def test_popcounts_equal_the_walk(self, case):
        poset, fam = case
        up = poset.upset_mask(fam)
        sums, walks = walk_calls(_w_sums, poset, up)
        assert walks == 0
        assert nonzero(sums) == walked_sums(poset, up)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_skew_cut_equals_the_walk(self, seed):
        system = _sample_skew_system(B6, random.Random(seed))
        up = B6.upset_mask(a for a, _ in system.pairs)
        below = B6.downset_mask(b for _, b in system.pairs)
        assert nonzero(_w_sums(B6, up, below)) == walked_sums(B6, up, below)
        report = second_az_identity(B6, system)
        assert report.total == 1
        assert report == with_walk(second_az_identity, B6, system)

    @given(regular_families())
    @settings(max_examples=150, deadline=None)
    def test_identity_totals_unchanged(self, case):
        poset, fam = case
        assert key_lemma_sum(poset, fam) == with_walk(key_lemma_sum, poset, fam) == 1
        if not poset.is_u_poset:
            return
        report = az_identity_sum(poset, fam)
        assert report.total == with_walk(az_identity_sum, poset, fam).total == 1
        antichain = set()
        for x in sorted(fam):
            if poset.is_antichain(antichain | {x}):
                antichain.add(x)
        lym, rem = antichain_az(poset, antichain)
        assert (lym, rem) == with_walk(antichain_az, poset, antichain)
        assert lym == sum((Fraction(1, poset.whitney[poset.ranks[a]]) for a in antichain), Fraction(0))
        assert lym + rem == 1

    def test_irregular_posets_take_the_walk(self, fig1a, c322):
        report, walks = walk_calls(az_identity_sum, fig1a, ids(fig1a, ["a", "c"]))
        assert walks == 1 and report.total == Fraction(5, 4)
        rng = random.Random(41)
        for poset in (fig1a, c322):
            for _ in range(20):
                fam = frozenset(rng.sample(range(poset.n), rng.randint(1, poset.n)))
                up = poset.upset_mask(fam)
                sums, walks = walk_calls(_w_sums, poset, up)
                assert walks == 1 and sums == walked_sums(poset, up)

    def test_fig1b_is_regular_and_takes_the_closed_form(self, fig1b):
        # fig1b has the degrees of a regular poset, so the closed form applies
        rng = random.Random(43)
        for _ in range(20):
            fam = frozenset(rng.sample(range(fig1b.n), rng.randint(1, fig1b.n)))
            up = fig1b.upset_mask(fam)
            sums, walks = walk_calls(_w_sums, fig1b, up)
            assert walks == 0 and nonzero(sums) == walked_sums(fig1b, up)
            assert az_identity_sum(fig1b, fam) == with_walk(az_identity_sum, fig1b, fam)


def walked_two_part(p, q, fam):
    """Oracle: the product identity by walking each slice's terms and dropping zeros."""
    slices = {}
    for a, b in fam:
        slices.setdefault(b, set()).add(a)
    per = {}
    total = Fraction(0)
    for y in range(q.n):
        weight = Fraction(1, q.whitney[q.ranks[y]])
        report = az_identity_sum(p, slices[y])
        for term in report.terms:
            if term.term:
                per[(term.element, y)] = term.term * weight
        total += report.total * weight
    return total, per


class TestTwoPartFromWTable:
    @pytest.mark.parametrize("p_index", range(len(LAZY_POSETS)))
    def test_matches_term_walk(self, p_index, b2):
        p = LAZY_POSETS[p_index]
        rng = random.Random(53 + p_index)
        for q in (b2, gen_chain_product([2, 1])):
            for _ in range(15):
                fam = {(a, y) for y in range(q.n) for a in rng.sample(range(p.n), rng.randint(1, 4))}
                total, per = walked_two_part(p, q, fam)
                report = two_part_az_sum(p, q, fam)
                assert report.total == total
                assert report.per_element == per
                assert list(report.per_element) == list(per)


class TestKeyLemma:
    def test_affine_single_points(self, a22):
        for x in a22.levels[0]:
            assert key_lemma_sum(a22, [x]) == 1

    def test_matches_identity_on_u_poset(self, b3):
        for mask in range(1, 1 << b3.n):
            fam = [x for x in range(b3.n) if (mask >> x) & 1]
            assert key_lemma_sum(b3, fam) == az_identity_sum(b3, fam).total

    def test_matches_bounded_identity(self, a22):
        bounded = adjoin_bounds(a22)
        rng = random.Random(23)
        for _ in range(100):
            fam = frozenset(rng.sample(range(a22.n), rng.randint(1, a22.n)))
            assert key_lemma_sum(a22, fam) == az_identity_sum(bounded, fam).total == 1

    def test_whole_bottom_level(self, a22):
        assert key_lemma_sum(a22, a22.levels[0]) == 1

    def test_requires_regular(self, fig1a):
        with pytest.raises(NotRegularError):
            key_lemma_sum(fig1a, [0])

    def test_single_level_poset(self):
        from azsperner import build_poset

        flat = build_poset([(0, 0), (1, 0), (2, 0)], [], name="flat3")
        assert key_lemma_sum(flat, [0]) == 1
        assert key_lemma_sum(flat, [0, 1, 2]) == 1


class TestAdjoinBounds:
    def test_structure(self, a22):
        bounded = adjoin_bounds(a22)
        assert bounded.is_u_poset and bounded.is_graded
        assert bounded.n == a22.n + 2
        assert list(bounded.whitney) == [1, 4, 6, 1, 1]
        for x in range(a22.n):
            assert bounded.ranks[x] == a22.ranks[x] + 1


class TestAntichainSplit:
    def test_full_level(self, b4):
        lym, rem = antichain_az(b4, b4.levels[2])
        assert lym == 1 and rem == 0

    def test_singleton_in_b2(self, b2):
        lym, rem = antichain_az(b2, ids(b2, ["{1}"]))
        assert lym == Fraction(1, 2) and rem == Fraction(1, 2)

    def test_b3_pair(self, b3):
        lym, rem = antichain_az(b3, ids(b3, ["{1}", "{2,3}"]))
        assert lym == Fraction(2, 3) and rem == Fraction(1, 3)
        assert lym + rem == 1

    def test_rejects_comparable(self, b3):
        with pytest.raises(NotAntichainError):
            antichain_az(b3, ids(b3, ["{1}", "{1,2}"]))

    def test_monotone_in_family(self, b4):
        level = list(b4.levels[2])
        for size in range(1, len(level)):
            small = level[:size]
            large = level[: size + 1]
            lym_s, rem_s = antichain_az(b4, small)
            lym_l, rem_l = antichain_az(b4, large)
            assert lym_s < lym_l and rem_s > rem_l

    def test_lym_bounded_by_one(self, b4, l32):
        rng = random.Random(5)
        for poset in (b4, l32):
            for _ in range(60):
                fam = set()
                for x in rng.sample(range(poset.n), rng.randint(1, poset.n)):
                    if poset.is_antichain(fam | {x}):
                        fam.add(x)
                lym, _ = antichain_az(poset, fam)
                assert lym <= 1
                assert lym == lym_sum(poset, fam)


class TestKSpernersplit:
    def test_two_full_levels(self, b3):
        fam = frozenset(b3.levels[1]) | frozenset(b3.levels[2])
        assert k_sperner_az(b3, fam, 2) == 2

    def test_bottom_alone(self, b2):
        assert k_sperner_az(b2, ids(b2, ["{}"]), 1) == 1

    def test_random_two_sperner_in_b4(self, b4):
        rng = random.Random(31)
        for _ in range(30):
            fam = set()
            for x in rng.sample(range(b4.n), rng.randint(2, b4.n)):
                from azsperner import is_k_sperner

                if is_k_sperner(b4, fam | {x}, 2)[0]:
                    fam.add(x)
            if len(fam) < 2:
                continue
            assert k_sperner_az(b4, fam, 2) == 2

    def test_antichain_with_k2_needs_split(self, b3):
        fam = frozenset(b3.levels[1])  # 3 elements, longest chain 1
        assert k_sperner_az(b3, fam, 2) == 2

    def test_rejects_long_chain(self, b3):
        with pytest.raises(NotKSpernerError):
            k_sperner_az(b3, b3.enumerate_maximal_chains()[0], 2)

    def test_family_smaller_than_k(self, b3):
        with pytest.raises(EmptyFamilyError):
            k_sperner_az(b3, ids(b3, ["{}"]), 2)


class TestBeta:
    def test_diagonal_is_inverse_whitney(self, b4):
        table = lambda_table(b4)
        for k in range(5):
            assert beta(b4, table, k, k) == Fraction(1, b4.whitney[k])

    def test_bottom_row_is_one(self, b4):
        table = lambda_table(b4)
        for l in range(5):
            assert beta(b4, table, 0, l) == 1

    def test_matches_interval_brute_force(self, b4, l32):
        for poset in (b4, l32):
            table = lambda_table(poset)
            for a in range(poset.n):
                for b in sorted(poset.upset([a])):
                    k, l = poset.ranks[a], poset.ranks[b]
                    assert beta(poset, table, k, l) == interval_w_sum(poset, a, b)

    @pytest.mark.parametrize("a, b", [(-8, 7), (0, -1), (0, 8)])
    def test_interval_rejects_foreign_element(self, b3, a, b):
        with pytest.raises(PosetError):
            interval_w_sum(b3, a, b)


class TestSecondIdentity:
    def test_bottom_top_pair(self, b3):
        system = SkewPairSystem(
            pairs=((b3.element_by_label("{}"), b3.element_by_label("{1,2,3}")),)
        )
        report = second_az_identity(b3, system)
        assert report.total == 1
        assert report.betas == (Fraction(1),)
        assert report.boundary_sum == 0

    def test_valid_two_pair_system(self, b3):
        pairs = (
            (b3.element_by_label("{1}"), b3.element_by_label("{1,2}")),
            (b3.element_by_label("{3}"), b3.element_by_label("{2,3}")),
        )
        report = second_az_identity(b3, SkewPairSystem(pairs=pairs))
        assert report.total == 1
        assert report.betas == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("pair", [(-8, -1), (0, 9)])
    def test_rejects_foreign_element(self, b3, pair):
        with pytest.raises(PosetError, match="not in"):
            second_az_identity(b3, SkewPairSystem(pairs=(pair,)))

    def test_skew_violation_detected(self, b3):
        pairs = (
            (b3.element_by_label("{1}"), b3.element_by_label("{1,2}")),
            (b3.element_by_label("{2}"), b3.element_by_label("{2,3}")),
        )
        with pytest.raises(SkewViolationError):
            second_az_identity(b3, SkewPairSystem(pairs=pairs))

    def test_chain_classification_oracle(self, b4):
        # each maximal chain either meets exactly one interval or enters the
        # upset outside the down-set of the b's; the class sizes match the
        # identity's parts
        from azsperner.acceptance import _sample_skew_system

        rng = random.Random(17)
        chains = b4.enumerate_maximal_chains()
        table = lambda_table(b4)
        for _ in range(25):
            system = _sample_skew_system(b4, rng)
            report = second_az_identity(b4, system, table)
            assert report.total == 1
            interval_hits = [0] * len(system.pairs)
            rest = 0
            for chain in chains:
                hit = [
                    i
                    for i, (a, b) in enumerate(system.pairs)
                    if any(b4.leq(a, x) and b4.leq(x, b) for x in chain)
                ]
                assert len(hit) <= 1
                if hit:
                    interval_hits[hit[0]] += 1
                else:
                    rest += 1
            total = len(chains)
            for i, count in enumerate(interval_hits):
                assert Fraction(count, total) == report.betas[i]
            assert Fraction(rest, total) == report.boundary_sum

    def test_requires_strongly_regular(self, c322):
        from azsperner.errors import NotStronglyRegularError

        system = SkewPairSystem(pairs=((0, c322.n - 1),))
        with pytest.raises((NotStronglyRegularError, NotUPosetError)):
            second_az_identity(c322, system)
