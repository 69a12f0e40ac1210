"""The Dilworth readers: one minimum flow per call, the same answers as the
two-solve composition and a brute force, and the names the benchmark's
tracer looks up."""

import functools
import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from azsperner import flows, parse_poset_spec, sperner
from azsperner.core import RankedPoset
from azsperner.errors import PosetError, SizeLimitError
from azsperner.mis import MaxIndependentSet
from test_invariants import graded_posets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def composed_max_antichain(poset):
    """The antichain from one flow, certified by the chain cover of another."""
    antichain, _ = flows.maximum_antichain_ids(poset.up_adj)
    cover = flows.minimum_chain_cover(poset.up_adj)
    assert len(antichain) == len(cover) and poset.is_antichain(antichain)
    # the chains are paths of covers, and together they hold every element
    assert all(b in poset.up_adj[a] for c in cover for a, b in zip(c, c[1:]))
    assert set().union(*cover) == set(range(poset.n))
    return antichain


def composed_enumeration(poset):
    """The size from composed_max_antichain, then the maxima from a third flow."""
    size = len(composed_max_antichain(poset))
    families, _ = flows.enumerate_maximum_antichain_ids(poset.up_adj)
    assert all(len(f) == size for f in families)
    return size, families


def brute_force_maxima(poset):
    """Every antichain, grown in id order over comparability masks; the largest, sorted."""
    comparable = [poset.up_mask[x] | poset.down_mask[x] for x in range(poset.n)]
    found = []

    def grow(start, chosen, blocked):
        found.append(chosen)
        for x in range(start, poset.n):
            if not blocked >> x & 1:
                grow(x + 1, chosen | {x}, blocked | comparable[x])

    grow(0, frozenset(), 0)
    size = max(map(len, found))
    return size, sorted((f for f in found if len(f) == size), key=sorted)


@given(graded_posets())
@settings(max_examples=80, deadline=None)
def test_one_matching_gives_the_composed_answers(poset):
    antichain = sperner.max_antichain(poset)
    assert antichain == composed_max_antichain(poset)
    size, families = sperner.enumerate_maximum_antichains(poset)
    assert (size, families) == composed_enumeration(poset)
    assert (size, families) == brute_force_maxima(poset)
    assert antichain in families


def counted(monkeypatch):
    calls = {"flows": 0, "pair_lists": 0}
    min_flow, pairs = flows._MinFlow, sperner._strict_pairs

    def counted_flow(*args):
        calls["flows"] += 1
        return min_flow(*args)

    def counted_pairs(*args):
        calls["pair_lists"] += 1
        return pairs(*args)

    monkeypatch.setattr(flows, "_MinFlow", counted_flow)
    monkeypatch.setattr(sperner, "_strict_pairs", counted_pairs)
    return calls


@pytest.mark.parametrize(
    "call", [sperner.max_antichain, sperner.enumerate_maximum_antichains],
    ids=["max_antichain", "enumerate_maximum_antichains"],
)
@pytest.mark.parametrize("spec", ["boolean:4", "chains:3,3", "fig1a", "subspace:3,2", "chains:7"])
def test_one_matching_and_one_pair_list_per_call(monkeypatch, call, spec):
    # One Dilworth solve per call, a minimum flow on the cover relation, and
    # no strict-pair list at all.  boolean:4, subspace:3,2 and chains:7
    # are regular and level-connected: their maximum antichains are their
    # largest levels, read with no flow.
    poset = parse_poset_spec(spec)
    calls = counted(monkeypatch)
    call(poset)
    certified = call is sperner.enumerate_maximum_antichains and spec in (
        "boolean:4", "subspace:3,2", "chains:7"
    )
    assert calls == {"flows": 0 if certified else 1, "pair_lists": 0}


def test_uncertified_answers_are_poset_errors(monkeypatch):
    poset = parse_poset_spec("boolean:2")  # ids 1 and 2 are the incomparable middle
    chains = [[0, 1, 3], [2]]
    monkeypatch.setattr(sperner, "maximum_antichain_ids", lambda succ: ({1, 2, 3}, chains))
    with pytest.raises(PosetError, match="failed to certify"):
        sperner.max_antichain(poset)
    monkeypatch.setattr(sperner, "maximum_antichain_ids", lambda succ: ({0, 1}, chains))
    with pytest.raises(PosetError, match="failed to certify"):
        sperner.max_antichain(poset)
    # boolean:2 is regular and level-connected: force the enumeration's flow path
    monkeypatch.setattr(sperner, "strictly_normal_fast_path", lambda poset: False)
    for families, message in [
        ([{0, 1}], "failed to certify"),
        ([{1, 2}, {3}], "disagrees with the Dilworth size"),
    ]:
        monkeypatch.setattr(
            sperner, "enumerate_maximum_antichain_ids", lambda succ: (families, chains)
        )
        with pytest.raises(PosetError, match=message):
            sperner.enumerate_maximum_antichains(poset)


def test_listing_past_the_work_cap_is_refused(monkeypatch):
    # chains:7,4 has 35 maximum antichains of its 28 elements
    poset = parse_poset_spec("chains:7,4")
    monkeypatch.setattr(flows, "LISTING_CAP", 35 * 28)
    families, _ = flows.enumerate_maximum_antichain_ids(poset.up_adj)
    assert len(families) == 35
    monkeypatch.setattr(flows, "LISTING_CAP", 35 * 28 - 1)
    with pytest.raises(SizeLimitError, match="over 34 maximum antichains of 28 elements"):
        flows.enumerate_maximum_antichain_ids(poset.up_adj)


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_names_resolve(tracing):
    for modname, entries in tracing.FUNCTIONS.items():
        module = importlib.import_module(modname)
        for fname, _, _ in entries:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    for prop in ("up_mask", "down_mask", "_chain_dp"):
        assert isinstance(RankedPoset.__dict__.get(prop), functools.cached_property), prop
    for method in ("run", "enumerate"):
        assert callable(getattr(MaxIndependentSet, method, None)), method
