"""Short random spec, JSON, family and command-line text: every input gets an
answer or a PosetError (exit 2 from the CLI), never another exception."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest
from hypothesis import given, settings, strategies as st

from azsperner.cli import main, parse_family, parse_pair_family
from azsperner.core import ELEMENT_CAP, from_json
from azsperner.errors import PosetError, SizeLimitError
from azsperner.families import gen_boolean, parse_poset_spec

FUZZ = settings(max_examples=150, deadline=None)

# small digits only, so that the posets a token string can name stay small
SPEC_TOKENS = [
    "boolean:", "star:", "chains:", "subspace:", "affine:", "divisor:", "trunc(", "prod(",
    ")", ",", ":", "0", "1", "2", "3", "-", "x", " ", "fig1a", "fig1b",
]
specs = st.lists(st.sampled_from(SPEC_TOKENS), max_size=8).map("".join)
FAMILY_TOKENS = ["random:", ":", ",", "0", "1", "2", "3", "9", "-", "x", " ", "{", "}", "{1}", "{1,2}"]
families = st.lists(st.sampled_from(FAMILY_TOKENS), max_size=8).map("".join)
PAIR_TOKENS = [":", ",", "0", "1", "2", "9", "-", "x", " ", "(", ")"]
pair_families = st.lists(st.sampled_from(PAIR_TOKENS), max_size=10).map("".join)

scalars = st.none() | st.booleans() | st.integers(-2, 4) | st.just(10**9) | st.text(max_size=2)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "rank", "elements", "covers", "labels"]), inner, max_size=3),
    max_leaves=8,
)
ranks = st.integers(-1, 3) | st.just(ELEMENT_CAP + 1) | st.just(10**8) | scalars
poset_objects = st.fixed_dictionaries(
    {
        "elements": st.lists(
            st.fixed_dictionaries({"id": st.integers(-1, 4) | scalars, "rank": ranks}), max_size=5
        ),
        "covers": st.lists(st.lists(st.integers(-1, 4) | scalars, max_size=3), max_size=5),
    },
    optional={"labels": json_values, "name": json_values},
)


@given(specs)
@FUZZ
def test_spec_text(spec):
    with suppress(PosetError):
        parse_poset_spec(spec)


@given(poset_objects | json_values)
@FUZZ
def test_json_objects(obj):
    with suppress(PosetError):
        from_json(obj)
    with suppress(PosetError):
        from_json(json.dumps(obj))


@given(st.text(alphabet='{}[]":,0123456789abcdeilmnorstv -', max_size=40))
@FUZZ
def test_json_text(text):
    with suppress(PosetError):
        from_json(text)


@given(families)
@FUZZ
def test_family_text(text):
    with suppress(PosetError):
        parse_family(gen_boolean(2), text)


@given(pair_families)
@FUZZ
def test_pair_family_text(text):
    with suppress(PosetError):
        parse_pair_family(text)


def run(argv):
    """Exit code and report lines of one CLI run; argparse refusals exit 2."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def assert_contract(argv):
    code, lines = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2 and lines:
        assert lines[0]["verdict"] == "error"


@given(specs)
@FUZZ
def test_cli_gen(spec):
    assert_contract(["gen", "--poset", spec])


@given(
    families,
    st.sampled_from(["thm1", "keylemma", "cor2", "cor3"]),
    st.integers(-1, 4).map(str),
)
@FUZZ
def test_cli_az_families(fam, identity, k):
    assert_contract(["az", "verify", "--poset", "boolean:2", "--family", fam, "--identity", identity, "--k", k])


@given(families, st.sampled_from(["max", "lym", "strict", "decompose"]), st.integers(-1, 4).map(str))
@FUZZ
def test_cli_sperner_families(fam, action, k):
    assert_contract(["sperner", action, "--poset", "fig1a", "--family", fam, "--k", k])


@given(pair_families, st.sampled_from(["az", "identity", "lym"]))
@FUZZ
def test_cli_twopart_families(pairs, action):
    assert_contract(["twopart", action, "--p", "boolean:1", "--q", "chains:2", "--family", pairs])


@given(families)
@FUZZ
def test_cli_thm5_pairs(pairs):
    assert_contract(["az", "verify", "--poset", "boolean:2", "--identity", "thm5", "--pairs", pairs])


class TestFoundInputs:
    """Inputs past the interpreter's or the memory's reach, refused up front."""

    def test_deep_spec_nesting_is_refused(self):
        spec = "boolean:2"
        for _ in range(1200):
            spec = f"trunc({spec},0,1)"
        with pytest.raises(PosetError, match="nests deeper"):
            parse_poset_spec(spec)
        code, lines = run(["gen", "--poset", spec])
        assert code == 2 and "nests deeper" in lines[0]["error"]

    def test_nesting_up_to_the_cap_parses(self):
        spec = "boolean:2"
        for _ in range(100):
            spec = f"trunc({spec},0,1)"
        assert parse_poset_spec(spec).whitney == (1, 2)

    def test_huge_rank_is_refused_before_allocating(self):
        text = '{"elements": [{"id": 0, "rank": 100000000}], "covers": []}'
        with pytest.raises(SizeLimitError, match="rank 100000000"):
            from_json(text)

    def test_deep_json_nesting_is_invalid_json(self, tmp_path):
        with pytest.raises(PosetError, match="not valid JSON"):
            from_json("[" * 100_000)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, lines = run(["gen", "--poset", f"@{path}"])
        assert code == 2 and "not valid JSON" in lines[0]["error"]
