import math
import time
from functools import cache
from itertools import product as iproduct

import networkx as nx
import pytest

from azsperner import (
    build_poset,
    check_level_connected,
    check_normal,
    check_regular,
    check_strictly_normal,
    gen_affine_poset,
    gen_boolean,
    gen_chain_product,
    gen_divisor_lattice,
    gen_star_power,
    gen_subspace_lattice,
    parse_poset_spec,
    product,
    truncate,
)
from azsperner.errors import (
    NotPrimePowerError,
    PosetError,
    RankOutOfRangeError,
    SizeLimitError,
)
import azsperner.families as families
from azsperner.families import whitney_oracle
from azsperner.gf import field, gaussian_binomial


@cache
def gaussian_binomial_recurrence(n, k, q):
    """The q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k], one call per n."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    rec = gaussian_binomial_recurrence
    return rec(n - 1, k - 1, q) + q**k * rec(n - 1, k, q)


def ranked_hasse(poset):
    g = nx.DiGraph()
    for x in range(poset.n):
        g.add_node(x, rank=poset.ranks[x])
    g.add_edges_from(poset.covers)
    return g


def isomorphic(p, q):
    return nx.is_isomorphic(
        ranked_hasse(p),
        ranked_hasse(q),
        node_match=lambda a, b: a["rank"] == b["rank"],
    )


class TestBoolean:
    def test_n0(self):
        p = gen_boolean(0)
        assert p.n == 1 and p.is_u_poset

    def test_n3(self):
        p = gen_boolean(3)
        assert list(p.whitney) == [1, 3, 3, 1]
        assert p.count_maximal_chains().total == 6

    def test_n4_degrees(self):
        p = gen_boolean(4)
        for x in range(p.n):
            assert p.d_minus(x) == p.ranks[x]
            assert p.d_plus(x) == 4 - p.ranks[x]

    def test_whitney_oracle(self):
        for n in range(6):
            assert list(gen_boolean(n).whitney) == whitney_oracle("boolean", n)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            gen_boolean(21)


class TestStarPower:
    def test_s1_cubed_is_boolean(self):
        assert isomorphic(gen_star_power(1, 3), gen_boolean(3))

    def test_s2_squared_whitney(self):
        assert list(gen_star_power(2, 2).whitney) == [1, 4, 4]

    def test_s2_cubed_regular_level_connected(self):
        p = gen_star_power(2, 3)
        assert check_regular(p).holds
        assert check_level_connected(p).holds

    def test_whitney_oracle(self):
        assert list(gen_star_power(2, 3).whitney) == whitney_oracle("star", 2, 3)
        assert list(gen_star_power(3, 2).whitney) == whitney_oracle("star", 3, 2)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            gen_star_power(9, 6)


class TestSubspaceLattice:
    def test_l22_whitney(self):
        assert list(gen_subspace_lattice(2, 2).whitney) == [1, 3, 1]

    def test_l32_whitney(self):
        assert list(gen_subspace_lattice(3, 2).whitney) == [1, 7, 7, 1]

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
    def test_gaussian_oracle(self, n, q):
        poset = gen_subspace_lattice(n, q)
        assert list(poset.whitney) == [gaussian_binomial(n, k, q) for k in range(n + 1)]

    def test_u_poset(self):
        assert gen_subspace_lattice(3, 2).is_u_poset

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePowerError):
            gen_subspace_lattice(2, 6)


class TestAffinePoset:
    def test_a12(self):
        p = gen_affine_poset(1, 2)
        assert list(p.whitney) == [2, 1]

    def test_a22(self, a22):
        assert list(a22.whitney) == [4, 6, 1]
        assert not a22.is_u_poset
        assert a22.is_graded

    def test_point_below_line(self, a22):
        origin = a22.element_by_label("00+[]")
        line = a22.element_by_label("00+[01]")  # x = 0
        assert a22.leq(origin, line)

    def test_whitney_oracle(self):
        assert list(gen_affine_poset(2, 3).whitney) == whitney_oracle("affine", 2, 3)


class TestChainProduct:
    def test_c22_is_b2(self):
        assert isomorphic(gen_chain_product([2, 2]), gen_boolean(2))

    def test_c32_whitney(self):
        assert list(gen_chain_product([3, 2]).whitney) == [1, 2, 2, 1]

    def test_c322_condition_and_properties(self, c322):
        # k_2 + ... + k_n >= k_1, the sufficient condition for strict normality
        sizes = (3, 2, 2)
        assert sum(sizes[1:]) >= sizes[0]
        assert not check_regular(c322).holds
        assert check_strictly_normal(c322).holds

    def test_non_increasing_required(self):
        with pytest.raises(PosetError):
            gen_chain_product([2, 3])

    def test_whitney_oracle(self):
        assert list(gen_chain_product([4, 3, 2]).whitney) == whitney_oracle(
            "chains", (4, 3, 2)
        )


class TestDivisorLattice:
    def test_divisor_360(self):
        p = gen_divisor_lattice(360)
        assert p.n == 24
        assert isomorphic(p, gen_chain_product([4, 3, 2]))

    def test_divisor_prime(self):
        p = gen_divisor_lattice(7)
        assert list(p.whitney) == [1, 1]

    def test_matches_trial_division_build(self):
        # the old construction: every d in 1..m tested, primes among the divisors
        def brute(m):
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            omega = {1: 0}
            for d in divisors[1:]:
                p = next(f for f in divisors[1:] if d % f == 0)
                omega[d] = omega[d // p] + 1
            primes = [d for d in divisors if omega[d] == 1]
            index = {d: i for i, d in enumerate(divisors)}
            covers = [
                (index[d], index[d * p]) for d in divisors for p in primes if m % (d * p) == 0
            ]
            return build_poset(
                [(index[d], omega[d]) for d in divisors],
                covers,
                name=f"divisor:{m}",
                labels=[str(d) for d in divisors],
            )

        for m in range(1, 2001):
            assert gen_divisor_lattice(m).to_json() == brute(m).to_json(), m

    def test_size_oracle_matches_the_built_lattice(self):
        for m in [*range(1, 2001), 720720]:
            whitney = list(gen_divisor_lattice(m).whitney)
            assert families._level_sizes(f"divisor:{m}") == whitney_oracle("divisor", m) == whitney, m
        kinds = {
            "boolean:4": ("boolean", 4),
            "star:2,3": ("star", 2, 3),
            "chains:4,3,2": ("chains", (4, 3, 2)),
            "subspace:3,3": ("subspace", 3, 3),
            "affine:2,3": ("affine", 2, 3),
            "fig1a": ("fig1a",),
            "fig1b": ("fig1b",),
        }
        for spec, (kind, *args) in kinds.items():
            whitney = list(parse_poset_spec(spec).whitney)
            assert families._level_sizes(spec) == whitney_oracle(kind, *args) == whitney, spec
        # refused by the builder, so the builder names the fault
        assert families._level_sizes("divisor:0") is None
        assert families._level_sizes("divisor:100000000000031") is None

    def test_large_modulus(self):
        p = parse_poset_spec("divisor:100000000")
        assert p.n == 81
        assert isomorphic(p, gen_chain_product([9, 9]))

    def test_divisor_cap(self):
        # 5^8 = 390,625 divisors: refused from the exponents, before any is listed
        with pytest.raises(SizeLimitError, match="too many divisors"):
            gen_divisor_lattice((2 * 3 * 5 * 7 * 11 * 13 * 17 * 19) ** 4)

    def test_large_prime_refused_quickly(self):
        # trial division stops at 10**6; the 15-digit prime cofactor cannot be certified
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="divisor:100000000000031"):
            gen_divisor_lattice(100000000000031)
        assert time.perf_counter() - start < 1.0

    def test_cofactor_below_cap_squared_is_prime(self):
        assert list(gen_divisor_lattice(999999999989).whitney) == [1, 1]  # largest prime < 10**12
        assert list(gen_divisor_lattice(999983 * 999979).whitney) == [1, 2, 1]
        assert list(gen_divisor_lattice(2 * 999999999989).whitney) == [1, 2, 1]

    @pytest.mark.parametrize("p, a, q, b", [(2, 60, 3, 0), (2, 8, 5, 8)])
    def test_two_prime_moduli_unchanged(self, p, a, q, b):
        # divisor:2**60 and divisor:10**8, listed from their exponents
        divisors = sorted((p**i * q**j, i + j) for i in range(a + 1) for j in range(b + 1))
        index = {d: k for k, (d, _) in enumerate(divisors)}
        covers = [(index[d], index[d * f]) for d, _ in divisors for f in (p, q) if d * f in index]
        expected = build_poset(
            [(index[d], r) for d, r in divisors],
            covers,
            name=f"divisor:{p**a * q**b}",
            labels=[str(d) for d, _ in divisors],
        )
        assert parse_poset_spec(f"divisor:{p**a * q**b}").to_json() == expected.to_json()


class TestTruncateAndProduct:
    def test_truncate_whitney(self):
        t = truncate(gen_boolean(5), 1, 3)
        assert list(t.whitney) == [5, 10, 10]
        assert t.height == 2

    def test_truncate_bad_range(self):
        with pytest.raises(RankOutOfRangeError):
            truncate(gen_boolean(3), 2, 2)

    def test_product_whitney_convolution(self, b3):
        q = gen_chain_product([3, 2])
        prod = product(b3, q)
        conv = [0] * (b3.height + q.height + 1)
        for i, a in enumerate(b3.whitney):
            for j, b in enumerate(q.whitney):
                conv[i + j] += a * b
        assert list(prod.whitney) == conv

    def test_boolean_product_is_boolean(self):
        assert isomorphic(product(gen_boolean(1), gen_boolean(2)), gen_boolean(3))


class TestFigures:
    def test_fig1a_caption(self, fig1a):
        assert check_normal(fig1a).holds
        assert not check_regular(fig1a).holds

    def test_fig1b_caption(self, fig1b):
        assert check_normal(fig1b).holds
        res = check_level_connected(fig1b)
        assert not res.holds and res.detail["level"] == 1

    def test_degrees_match_remark(self, fig1a):
        for lab, expected in (("a", 1), ("b", 2), ("c", 1)):
            assert fig1a.d_minus(fig1a.element_by_label(lab)) == expected


class TestSpecParser:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("boolean:3", 8),
            ("star:2,2", 9),
            ("chains:3,2,2", 12),
            ("subspace:2,2", 5),
            ("affine:2,2", 11),
            ("divisor:12", 6),
            ("fig1a", 6),
            ("fig1b", 6),
            ("trunc(boolean:5,1,3)", 25),
            ("prod(boolean:1,chains:3,2)", 12),
            ("prod(chains:3,2,boolean:1)", 12),
        ],
    )
    def test_specs(self, spec, n):
        assert parse_poset_spec(spec).n == n

    def test_bad_spec(self):
        with pytest.raises(PosetError):
            parse_poset_spec("mystery:3")

    @pytest.mark.parametrize(
        "spec,factor",
        [
            ("prod(boolean:2,chains:x)", "'chains:x'"),
            ("prod(chains:x,boolean:2)", "'chains:x'"),
            ("prod(chains:3,2,boolean:x)", "'boolean:x'"),
        ],
    )
    def test_bad_product_factor_is_named(self, spec, factor):
        with pytest.raises(PosetError, match=f"factor {factor}: .*needs integer arguments"):
            parse_poset_spec(spec)

    def test_product_needs_two_factors(self):
        with pytest.raises(PosetError, match="needs two factor specs"):
            parse_poset_spec("prod(boolean:2)")
        # three factor specs: no single cut splits them
        with pytest.raises(PosetError, match="needs two factor specs"):
            parse_poset_spec("prod(boolean:1,boolean:1,boolean:1)")

    @pytest.mark.parametrize(
        "spec",
        [
            "prod(boolean:14,boolean:14)",
            "prod(trunc(boolean:14,1,13),chains:4,2)",
            "prod(prod(star:2,5,boolean:3),subspace:4,3)",
            "prod(divisor:720720,boolean:16)",
            "prod(fig1a,boolean:16)",
            "prod(boolean:16,fig1b)",
        ],
    )
    def test_product_past_the_cap_is_refused_before_building(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("no factor should be built")

        monkeypatch.setattr(families, "build_poset", refuse)
        for name in ("gen_boolean", "gen_divisor_lattice", "gen_fig1a", "gen_fig1b"):
            monkeypatch.setattr(families, name, refuse)
        with pytest.raises(SizeLimitError, match="product too large"):
            parse_poset_spec(spec)

    @pytest.mark.parametrize(
        "spec, error, text",
        [
            (  # a kind check inside a factor
                "prod(chains:3,4,boolean:2)",
                PosetError,
                "cannot split product spec 'prod(chains:3,4,boolean:2)': factor 'chains:3,4':"
                " chain sizes must be non-increasing",
            ),
            (  # a nested product
                "prod(prod(boolean:2,star:0,1),boolean:1)",
                PosetError,
                "cannot split product spec 'prod(prod(boolean:2,star:0,1),boolean:1)':"
                " factor 'prod(boolean:2,star:0,1)': cannot split product spec"
                " 'prod(boolean:2,star:0,1)': factor 'star:0,1': star power needs k >= 1 and n >= 1",
            ),
            (  # a trunc range inside a factor
                "prod(boolean:16,trunc(chains:3,0,9))",
                PosetError,
                "cannot split product spec 'prod(boolean:16,trunc(chains:3,0,9))':"
                " factor 'trunc(chains:3,0,9)': need 0 <= lo < hi <= 2, got (0,9)",
            ),
            (  # a trunc of a product
                "trunc(prod(boolean:1,chains:3),0,9)",
                RankOutOfRangeError,
                "need 0 <= lo < hi <= 3, got (0,9)",
            ),
            ("prod(boolean:14,boolean:14)", SizeLimitError, "product too large"),
            (  # the product cap inside a factor
                "prod(prod(boolean:14,boolean:14),fig1a)",
                PosetError,
                "cannot split product spec 'prod(prod(boolean:14,boolean:14),fig1a)':"
                " factor 'prod(boolean:14,boolean:14)': product too large",
            ),
        ],
        ids=["factor", "nested-prod", "trunc-in-factor", "trunc-of-prod", "cap", "cap-in-factor"],
    )
    def test_refusal_text_at_each_layer(self, monkeypatch, spec, error, text):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused spec should build nothing")

        monkeypatch.setattr(families, "build_poset", refuse)
        with pytest.raises(PosetError) as caught:
            parse_poset_spec(spec)
        assert type(caught.value) is error and str(caught.value) == text

    @pytest.mark.parametrize(
        "spec", ["subspace:2000,2", "affine:3103,3", "trunc(subspace:1200,2,0,1)", "star:2,10000"]
    )
    def test_exponential_sizes_hit_the_cap(self, spec):
        # n past a recursive q-binomial's depth and its size past str()'s digit limit
        with pytest.raises(SizeLimitError, match="at least 2\\^"):
            parse_poset_spec(spec)


class TestFields:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_field_axioms(self, q):
        add, mul = field(q)
        elems = range(q)
        for a in elems:
            assert add[a][0] == a
            assert mul[a][1] == a
            assert any(add[a][b] == 0 for b in elems)
            if a:
                assert any(mul[a][b] == 1 for b in elems)
        for a, b, c in iproduct(elems, elems, elems):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            assert mul[a][mul[b][c]] == mul[mul[a][b]][c]

    def test_gaussian_binomial_values(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(3, 1, 3) == 13
        assert gaussian_binomial(4, 2, 3) == 130
        for n in range(6):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, 1) == math.comb(n, k)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_gaussian_binomial_matches_the_recurrence(self, q):
        for n in range(13):
            for k in range(-1, n + 2):
                assert gaussian_binomial(n, k, q) == gaussian_binomial_recurrence(n, k, q)
