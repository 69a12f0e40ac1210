"""Every public result type's to_json() is plain JSON: it survives a
json.dumps/json.loads round trip unchanged (no tuples, no non-str keys, no
objects)."""

import json

import pytest

from azsperner import (
    SkewPairSystem,
    az_identity_sum,
    best_full_transversal,
    build_chain_covering,
    check_level_connected,
    check_normal,
    check_regular,
    check_strict_k_sperner,
    check_strict_lym,
    check_strictly_normal,
    check_strongly_regular,
    gen_boolean,
    gen_chain_product,
    gen_fig1a,
    lambda_table,
    product_covering_report,
    second_az_identity,
    two_part_az_sum,
    verify_chain_covering,
    verify_strict_two_part,
    well_paired_family,
)
from azsperner.acceptance import criterion_2

B2, B3, C3, FIG1A = gen_boolean(2), gen_boolean(3), gen_chain_product([3]), gen_fig1a()

RESULTS = {
    "check_regular": lambda: check_regular(B3),
    "check_regular-fails": lambda: check_regular(FIG1A),
    "check_normal": lambda: check_normal(B3),
    "check_strictly_normal": lambda: check_strictly_normal(B3),
    "check_level_connected": lambda: check_level_connected(B3),
    "check_strongly_regular": lambda: check_strongly_regular(B3),
    "check_strongly_regular-fails": lambda: check_strongly_regular(FIG1A),
    "AZReport": lambda: az_identity_sum(B3, [1, 2]),
    "SkewIdentityReport": lambda: second_az_identity(B3, SkewPairSystem(pairs=((1, 3),))),
    "TwoPartAZReport": lambda: two_part_az_sum(B2, C3, [(0, y) for y in range(C3.n)]),
    "CoveringReport": lambda: verify_chain_covering(B3, build_chain_covering(B3)),
    "ChainCovering": lambda: build_chain_covering(FIG1A),
    "LambdaTable": lambda: lambda_table(B3),
    "StrictSpernerResult": lambda: check_strict_k_sperner(FIG1A, 1),
    "StrictLymVerdict": lambda: check_strict_lym(B3, B3.levels[1], 1),
    "StrictTwoPartResult": lambda: verify_strict_two_part(B2, C3),
    "Transversal": lambda: best_full_transversal(B2, C3)[0],
    "ChainPairReport": lambda: product_covering_report(B2, C3, well_paired_family(B2, C3)[0]),
    "CriterionResult": criterion_2,
}


@pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS)
def test_to_json_is_json(make):
    obj = make().to_json()
    assert json.loads(json.dumps(obj)) == obj
