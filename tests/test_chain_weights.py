"""Integer chain weights against the per-chain Fraction references.

``verify_chain_covering`` and ``product_covering_report`` weigh chains with
per-level integer scaling.  The references here do it the direct way: one
Fraction product per edge per chain (``ChainCovering.chain_weight``) and one
Fraction add per element per chain.  Every report must equal its reference,
field for field, on built coverings and on perturbed ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from azsperner import (
    build_poset,
    gen_boolean,
    gen_chain_product,
    max_two_part_sperner_exact,
    parse_poset_spec,
    product_covering_report,
)
from azsperner.acceptance import _criterion_8_products
from azsperner.errors import NotGradedError, NotNormalError
from azsperner.properties import (
    ChainCovering,
    CoveringReport,
    build_chain_covering,
    verify_chain_covering,
)
from azsperner.twopart import ChainPairReport
from test_invariants import graded_posets


def reference_verify(poset, covering):
    """Marginals summed as Fractions; every chain weighed by chain_weight."""
    violations = []
    marginals_ok = True
    for (x, y), w in covering.g.items():
        if w < 0:
            marginals_ok = False
            violations.append(f"negative weight on edge ({x},{y})")
    for i in range(poset.height):
        for x in poset.levels[i]:
            row = sum((covering.g.get((x, y), Fraction(0)) for y in poset.up_adj[x]), Fraction(0))
            if row != Fraction(1, poset.whitney[i]):
                marginals_ok = False
                violations.append(f"row sum at element {x}")
        for y in poset.levels[i + 1]:
            col = sum((covering.g.get((x, y), Fraction(0)) for x in poset.down_adj[y]), Fraction(0))
            if col != Fraction(1, poset.whitney[i + 1]):
                marginals_ok = False
                violations.append(f"column sum at element {y}")
    chains_ok = True
    mass = Fraction(0)
    per_element = [Fraction(0)] * poset.n
    for chain in poset.enumerate_maximal_chains():
        w = covering.chain_weight(chain)
        mass += w
        for x in chain:
            per_element[x] += w
    if mass != 1:
        chains_ok = False
        violations.append("total chain mass differs from 1")
    for x in range(poset.n):
        if per_element[x] != Fraction(1, poset.whitney[poset.ranks[x]]):
            chains_ok = False
            violations.append(f"element mass at {x}")
    return CoveringReport(
        holds=marginals_ok and chains_ok,
        marginals_ok=marginals_ok,
        chains_ok=chains_ok,
        total=mass,
        violations=tuple(violations),
    )


def reference_pair_report(p, q, fam, cov1, cov2):
    """The nested loop over chain pairs, each pair weighed as a Fraction product."""
    fam = frozenset(fam)
    n2_plus_1 = min(p.height, q.height) + 1
    positive = equal = 0
    meeting_mass = Fraction(0)
    holds = True
    for c1 in p.enumerate_maximal_chains():
        for c2 in q.enumerate_maximal_chains():
            weight = cov1.chain_weight(c1) * cov2.chain_weight(c2)
            count = sum(1 for a in c1 for b in c2 if (a, b) in fam)
            if count:
                meeting_mass += weight
            if weight > 0:
                positive += 1
                if count == n2_plus_1:
                    equal += 1
                else:
                    holds = False
    return ChainPairReport(
        n2_plus_1=n2_plus_1,
        positive_pairs=positive,
        equal_pairs=equal,
        meeting_mass=meeting_mass,
        holds=holds and meeting_mass == 1,
    )


PERTURBATIONS = ("none", "shift", "negate", "drop", "extra")


def perturb(draw, covering, kind):
    """A copy of the covering with one of the four defects planted."""
    poset = covering.poset
    g = dict(covering.g)
    edges = sorted(g)
    if kind == "shift" and len(edges) >= 2:
        a, b = draw(st.lists(st.sampled_from(edges), min_size=2, max_size=2, unique=True))
        delta = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 12)))
        g[a] += delta
        g[b] -= delta
    elif kind == "negate" and edges:
        edge = draw(st.sampled_from(edges))
        g[edge] = -g[edge] if g[edge] else Fraction(-1, 7)
    elif kind == "drop" and edges:
        del g[draw(st.sampled_from(edges))]
    elif kind == "extra":
        x = draw(st.integers(0, poset.n - 1))
        y = draw(st.integers(0, poset.n - 1))
        if (x, y) not in poset.covers:
            g[(x, y)] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 5)))
    return ChainCovering(poset=poset, g=g)


@st.composite
def coverings(draw):
    """A graded poset with its built covering, or random weights if it has none,
    then one planted defect (or none)."""
    poset = draw(graded_posets())
    try:
        covering = build_chain_covering(poset)
    except NotNormalError:
        weights = st.fractions(min_value=0, max_value=1, max_denominator=12)
        covering = ChainCovering(poset=poset, g={c: draw(weights) for c in poset.covers})
    return perturb(draw, covering, draw(st.sampled_from(PERTURBATIONS)))


@given(coverings())
@settings(max_examples=150, deadline=None)
def test_report_equals_reference(covering):
    poset = covering.poset
    assert verify_chain_covering(poset, covering) == reference_verify(poset, covering)


@pytest.mark.parametrize(
    "spec", ["affine:3,3", "trunc(subspace:4,3,1,3)", "divisor:5040", "chains:5,4"]
)
def test_named_posets_equal_reference(spec):
    poset = parse_poset_spec(spec)
    covering = build_chain_covering(poset)
    for cov in (covering, spoil(covering)):
        assert verify_chain_covering(poset, cov) == reference_verify(poset, cov)


@given(graded_posets())
@settings(max_examples=40, deadline=None)
def test_integer_weights_are_chain_weights(poset):
    try:
        covering = build_chain_covering(poset)
    except NotNormalError:
        return
    chains = poset.enumerate_maximal_chains()
    ws, p, q = covering.integer_chain_weights(chains)
    assert [Fraction(w * p, q) for w in ws] == [covering.chain_weight(c) for c in chains]


class TestEdgeCases:
    def test_height_zero_antichain(self):
        poset = build_poset([(0, 0), (1, 0), (2, 0)], [], name="antichain3")
        report = verify_chain_covering(poset, build_chain_covering(poset))
        assert report.holds and report.total == 1 and not report.violations

    def test_single_long_chain(self):
        poset = gen_chain_product([3000])
        report = verify_chain_covering(poset, build_chain_covering(poset))
        assert report.holds and report.total == 1

    @pytest.mark.parametrize("spec", ["boolean:12", "subspace:5,3", "chains:6,6,6"])
    def test_past_the_chain_enumeration_cap(self, spec):
        # 479,001,600, 251,680 and 756,756 maximal chains
        poset = parse_poset_spec(spec)
        report = verify_chain_covering(poset, build_chain_covering(poset))
        assert report.holds and report.total == 1 and not report.violations

    def test_negated_edge_past_the_cap(self):
        poset = gen_chain_product([6, 6, 6])
        g = dict(build_chain_covering(poset).g)
        edge = min(g)
        g[edge] = -g[edge]
        report = verify_chain_covering(poset, ChainCovering(poset=poset, g=g))
        assert not report.chains_ok
        assert any(v.startswith("element mass at") for v in report.violations)

    def test_not_graded_is_refused(self):
        # element 1 is minimal and maximal below the top rank
        poset = build_poset([(0, 0), (1, 0), (2, 1)], [(0, 2)])
        covering = ChainCovering(poset=poset, g={(0, 2): Fraction(1, 2)})
        with pytest.raises(NotGradedError):
            verify_chain_covering(poset, covering)

    def test_int_weights(self):
        # g may hold ints: a two-element chain with g = 1
        poset = build_poset([(0, 0), (1, 1)], [(0, 1)])
        covering = ChainCovering(poset=poset, g={(0, 1): 1})
        assert verify_chain_covering(poset, covering) == reference_verify(poset, covering)


def spoil(covering):
    """Negative and zero chain weights: the first edge negated, the second dropped."""
    g = dict(covering.g)
    first, second = sorted(g)[:2]
    g[first] = -g[first]
    del g[second]
    return ChainCovering(poset=covering.poset, g=g)


@pytest.mark.parametrize("pair", range(3))
def test_pair_report_equals_nested_loop(pair):
    p, q = _criterion_8_products()[pair]
    cov1, cov2 = build_chain_covering(p), build_chain_covering(q)
    _, families = max_two_part_sperner_exact(p, q, enumerate_all=True)
    # the maxima hold; dropping a member breaks the equalities
    cases = list(families) + [fam - {min(fam)} for fam in families]
    covs = [(cov1, cov2), (spoil(cov1), cov2), (cov1, spoil(cov2))]
    for fam in cases:
        for c1, c2 in covs:
            got = product_covering_report(p, q, fam, c1, c2)
            assert got == reference_pair_report(p, q, fam, c1, c2)
    assert all(product_covering_report(p, q, fam, cov1, cov2).holds for fam in families)


def test_pair_report_on_boolean_factors():
    b2, b3 = gen_boolean(2), gen_boolean(3)
    cov1, cov2 = build_chain_covering(b2), build_chain_covering(b3)
    fam = {(a, b) for a in range(b2.n) for b in range(b3.n) if b2.ranks[a] + b3.ranks[b] == 2}
    assert product_covering_report(b2, b3, fam, cov1, cov2) == reference_pair_report(
        b2, b3, fam, cov1, cov2
    )
