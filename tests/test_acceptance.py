"""Acceptance criteria, one test per criterion; each prints its JSON report."""

import pytest

from azsperner import acceptance


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.ALL_CRITERIA) + 1)],
)
def test_criterion(criterion):
    result = criterion()
    print(result.to_json())
    assert result.passed, result.detail


def test_runtime_targets():
    targets = {1: 60.0, 8: 120.0}
    for num, limit in targets.items():
        result = acceptance.ALL_CRITERIA[num - 1]()
        print(result.to_json())
        assert result.passed
        assert result.seconds < limit
