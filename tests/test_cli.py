import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import azsperner
from azsperner import acceptance, flows
from azsperner.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, lines


class TestGenExport:
    def test_gen_summary(self, capsys):
        code, lines = run_cli(capsys, "gen", "--poset", "boolean:3")
        assert code == 0
        assert lines[0]["whitney"] == [1, 3, 3, 1]
        assert lines[0]["u_poset"] is True

    def test_export_dot(self, capsys, tmp_path):
        path = tmp_path / "b2.dot"
        code, lines = run_cli(capsys, "export", "--poset", "boolean:2", "--dot", str(path))
        assert code == 0
        assert "rank=same" in path.read_text()

    def test_export_json_loads_back(self, capsys, tmp_path):
        path = tmp_path / "fig1a.json"
        code, _ = run_cli(capsys, "export", "--poset", "fig1a", "--json", str(path))
        assert code == 0
        code, lines = run_cli(capsys, "gen", "--poset", f"@{path}")
        assert code == 0 and lines[0]["elements"] == 6

    @pytest.mark.parametrize("flag, target", [("--dot", "absent-dir/x.dot"), ("--json", "")])
    def test_unwritable_path_is_input_error(self, capsys, tmp_path, flag, target):
        # a file under a missing directory, and the directory tmp_path itself
        path = tmp_path / target
        code, lines = run_cli(capsys, "export", "--poset", "fig1a", flag, str(path))
        assert code == 2 and lines[0]["verdict"] == "error"
        assert str(path) in lines[0]["error"]


class TestCheck:
    def test_fig1a_regular_fails_with_rank2_witness(self, capsys):
        code, lines = run_cli(capsys, "check", "--poset", "fig1a", "--property", "regular")
        assert code == 1
        report = lines[0]
        assert report["verdict"] == "fail"
        assert report["rank"] == 2
        assert sorted(report["witness"]) == [3, 4]

    def test_fig1b_level_connected(self, capsys):
        code, lines = run_cli(
            capsys, "check", "--poset", "fig1b", "--property", "level-connected"
        )
        assert code == 1 and lines[0]["level"] == 1

    @pytest.mark.parametrize("mode", ["flow", "enumerate"])
    def test_normal_modes(self, capsys, mode):
        code, lines = run_cli(
            capsys, "check", "--poset", "fig1a", "--property", "normal", "--mode", mode
        )
        assert code == 0 and lines[0]["holds"] is True

    def test_strongly_regular_table(self, capsys):
        code, lines = run_cli(
            capsys, "check", "--poset", "boolean:3", "--property", "strongly-regular"
        )
        assert code == 0
        assert lines[0]["lambda_table"]["1,0,2"] == 2


class TestAZ:
    def test_fig1a_deviates(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "fig1a",
            "--family",
            "a,c",
            "--identity",
            "thm1",
        )
        assert code == 1
        assert lines[0]["result"] == "5/4"
        assert lines[0]["verdict"] == "deviates"

    def test_random_family_passes(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "boolean:4",
            "--family",
            "random:5:42",
            "--identity",
            "thm1",
        )
        assert code == 0 and lines[0]["result"] == "1/1"
        assert lines[0]["random_algorithm"] == "mt19937"

    def test_random_seed_reaches_the_digest(self, capsys):
        argv = ["az", "verify", "--poset", "boolean:4", "--identity", "thm1", "--family"]
        _, one = run_cli(capsys, *argv, "random:5:1")
        _, two = run_cli(capsys, *argv, "random:5:2")
        assert one[0]["inputs_digest"] != two[0]["inputs_digest"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["az", "verify", "--poset", "boolean:4", "--family", "random:5", "--identity",
             "thm1", "--seed", "1"],
            ["sperner", "lym", "--poset", "boolean:3", "--family", "random:2", "--seed", "1"],
            ["suite", "--level", "desk", "--criterion", "2"],
        ],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_keylemma_on_affine(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "affine:2,2",
            "--family",
            "0,1",
            "--identity",
            "keylemma",
        )
        assert code == 0 and lines[0]["result"] == "1/1"

    def test_cor2_breakdown(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "boolean:3",
            "--family",
            "{1},{2,3}",
            "--identity",
            "cor2",
            "--breakdown",
        )
        assert code == 0
        assert lines[0]["breakdown"]["lym_part"] == "2/3"

    def test_cor3(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "boolean:3",
            "--family",
            "{1},{2},{3},{1,2},{1,3},{2,3}",
            "--identity",
            "cor3",
            "--k",
            "2",
        )
        assert code == 0 and lines[0]["result"] == "2/1"

    def test_thm5_pairs(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "boolean:3",
            "--identity",
            "thm5",
            "--pairs",
            "{1}:{1,2},{3}:{2,3}",
        )
        assert code == 0 and lines[0]["result"] == "1/1"

    def test_skew_violation_is_usage_error(self, capsys):
        code, lines = run_cli(
            capsys,
            "az",
            "verify",
            "--poset",
            "boolean:3",
            "--identity",
            "thm5",
            "--pairs",
            "{1}:{1,2},{2}:{2,3}",
        )
        assert code == 2 and lines[0]["verdict"] == "error"


class TestSperner:
    def test_max(self, capsys):
        code, lines = run_cli(capsys, "sperner", "max", "--poset", "boolean:4")
        assert code == 0 and lines[0]["size"] == 6

    def test_strict_fig1a(self, capsys):
        code, lines = run_cli(capsys, "sperner", "strict", "--poset", "fig1a", "--k", "1")
        assert code == 1
        assert sorted(lines[0]["witness"]) == [2, 3]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_strict_k_below_one_is_usage_error(self, capsys, k):
        code, lines = run_cli(capsys, "sperner", "strict", "--poset", "boolean:3", "--k", k)
        assert code == 2 and lines[0]["verdict"] == "error"
        assert "k must be at least 1" in lines[0]["error"]

    def test_lym(self, capsys):
        code, lines = run_cli(
            capsys, "sperner", "lym", "--poset", "boolean:3", "--family", "{1},{2,3}"
        )
        assert code == 0 and lines[0]["result"] == "2/3"

    def test_decompose_tests_the_family_against_k(self, capsys):
        argv = ["sperner", "decompose", "--poset", "boolean:3", "--family", "0,1,3", "--k"]
        code, lines = run_cli(capsys, *argv, "1")
        assert code == 1
        assert lines[0]["verdict"] == "fail" and lines[0]["chain"] == [0, 1]
        assert lines[0]["parts"] == [[0], [1], [3]]
        code, lines = run_cli(capsys, *argv, "3")
        assert code == 0
        assert lines[0]["verdict"] == "pass" and lines[0]["chain"] is None

    def test_strict_refused_enumeration_exits_2(self, capsys, monkeypatch):
        # chains:7,4 has 105 maximum 2-Sperner families, and more lifts of them
        monkeypatch.setattr(flows, "LISTING_CAP", 1000)
        code, lines = run_cli(capsys, "sperner", "strict", "--poset", "chains:7,4", "--k", "2")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert "maximum antichains" in lines[0]["error"]

    @pytest.mark.parametrize("spec, k, n", [("boolean:5", "7", 32), ("chains:7,4", "10", 28)])
    def test_strict_k_past_the_levels_is_the_whole_poset(self, capsys, spec, k, n):
        code, lines = run_cli(capsys, "sperner", "strict", "--poset", spec, "--k", k)
        assert code == 0
        report = lines[0]
        assert (report["holds"], report["max_size"], report["maxima_count"]) == (True, n, 1)
        assert report["method"] == "certificate"


class TestTwoPart:
    def test_max(self, capsys):
        code, lines = run_cli(
            capsys, "twopart", "max", "--p", "boolean:2", "--q", "boolean:2"
        )
        assert code == 0 and lines[0]["size"] == 6

    def test_verify_strict(self, capsys):
        code, lines = run_cli(
            capsys, "twopart", "verify-strict", "--p", "boolean:2", "--q", "chains:3"
        )
        assert code == 0 and lines[0]["holds"] is True

    def test_max_all_lists_families_in_mask_order(self, capsys):
        # pair (a, b) is bit 3a + b, and the families come in ascending mask order
        code, lines = run_cli(
            capsys, "twopart", "max", "--p", "boolean:2", "--q", "chains:3", "--all"
        )
        assert code == 0 and lines[0]["count"] == 6
        assert lines[0]["families"] == [
            [[0, 2], [1, 1], [2, 1], [3, 0]],
            [[0, 1], [1, 2], [2, 2], [3, 0]],
            [[0, 2], [1, 0], [2, 0], [3, 1]],
            [[0, 0], [1, 2], [2, 2], [3, 1]],
            [[0, 1], [1, 0], [2, 0], [3, 2]],
            [[0, 0], [1, 1], [2, 1], [3, 2]],
        ]

    def test_az_with_family_file(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[0, 0], [0, 1]]))
        code, lines = run_cli(
            capsys,
            "twopart",
            "az",
            "--p",
            "boolean:1",
            "--q",
            "boolean:1",
            "--family",
            f"@{path}",
        )
        assert code == 0 and lines[0]["result"] == "2/1"

    def test_inline_pairs(self, capsys):
        code, lines = run_cli(
            capsys,
            "twopart",
            "lym",
            "--p",
            "boolean:2",
            "--q",
            "boolean:2",
            "--family",
            "0:0,3:3",
        )
        assert code == 0 and lines[0]["result"] == "2/1"

    def test_well_paired(self, capsys):
        code, lines = run_cli(
            capsys, "twopart", "well-paired", "--p", "boolean:2", "--q", "boolean:2"
        )
        assert code == 0 and lines[0]["size"] == 6


class TestCoverAndSuite:
    def test_cover(self, capsys):
        code, lines = run_cli(capsys, "cover", "--poset", "fig1a")
        assert code == 0 and lines[0]["holds"] is True

    def test_cover_past_the_chain_enumeration_cap(self, capsys):
        # boolean:12 has 12! maximal chains
        code, lines = run_cli(capsys, "cover", "--poset", "boolean:12")
        assert code == 0 and lines[0]["holds"] is True

    def test_suite_single_criterion(self, capsys):
        code, lines = run_cli(capsys, "suite", "--criterion", "2")
        assert code == 0
        assert lines[0]["criterion"] == 2 and lines[0]["passed"] is True

    @pytest.mark.parametrize("criterion", ["0", "11"])
    def test_criterion_outside_the_range_is_an_input_error(self, capsys, monkeypatch, criterion):
        # stubs that record a run: no criterion may start
        ran = []
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [lambda i=i: ran.append(i) for i in range(10)])
        code, lines = run_cli(capsys, "suite", "--criterion", criterion)
        assert code == 2 and ran == []
        assert [r["verdict"] for r in lines] == ["error"]
        assert "between 1 and 10" in lines[0]["error"]

    def test_failing_criterion_streams_and_exits_1(self, capsys, monkeypatch):
        def criterion(num, passed):
            return lambda: acceptance.CriterionResult(num, f"stub {num}", passed, {}, 0.0)

        stubs = [criterion(1, True), criterion(2, False), criterion(3, True)]
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
        code, lines = run_cli(capsys, "suite")
        assert code == 1
        assert [(r["criterion"], r["passed"]) for r in lines] == [(1, True), (2, False), (3, True)]

    def test_bad_spec_is_usage_error(self, capsys):
        code, lines = run_cli(capsys, "gen", "--poset", "nope:1")
        assert code == 2 and lines[0]["verdict"] == "error"

    @pytest.mark.parametrize("spec", ["boolean:x", "boolean:"])
    def test_bad_spec_argument_is_usage_error(self, capsys, spec):
        code, lines = run_cli(capsys, "gen", "--poset", spec)
        assert code == 2 and lines[0]["verdict"] == "error"
        assert spec in lines[0]["error"]

    def test_bad_product_factor_is_usage_error(self, capsys):
        code, lines = run_cli(capsys, "gen", "--poset", "prod(boolean:2,chains:x)")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert "factor 'chains:x'" in lines[0]["error"]
        assert "needs integer arguments" in lines[0]["error"]

    def test_unfactorable_divisor_is_usage_error(self, capsys):
        code, lines = run_cli(capsys, "gen", "--poset", "divisor:100000000000031")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert "divisor:100000000000031" in lines[0]["error"]


class TestInputErrors:
    """Bad --family text and bad @file posets are usage errors: exit 2, JSON report."""

    @pytest.mark.parametrize("family", ["random:x", "random:99:1", "no-such-label"])
    def test_bad_family_is_usage_error(self, capsys, family):
        code, lines = run_cli(
            capsys, "az", "verify", "--poset", "boolean:2", "--family", family,
            "--identity", "thm1",
        )
        assert code == 2 and lines[0]["verdict"] == "error"
        assert family in lines[0]["error"]

    def test_missing_poset_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, lines = run_cli(capsys, "gen", "--poset", f"@{path}")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert str(path) in lines[0]["error"]

    def test_poset_file_element_without_rank(self, capsys, tmp_path):
        path = tmp_path / "norank.json"
        path.write_text(json.dumps({"elements": [{"id": 0}], "covers": []}))
        code, lines = run_cli(capsys, "gen", "--poset", f"@{path}")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert "'rank'" in lines[0]["error"] and str(path) in lines[0]["error"]

    def test_poset_file_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"elements": [')
        code, lines = run_cli(capsys, "gen", "--poset", f"@{path}")
        assert code == 2 and lines[0]["verdict"] == "error"
        assert str(path) in lines[0]["error"]

    def test_family_file_rejects_json_true(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text("[true]")
        code, lines = run_cli(
            capsys, "sperner", "lym", "--poset", "boolean:2", "--family", f"@{path}"
        )
        assert code == 2 and str(path) in lines[0]["error"]

    def test_thm1_breakdown_only_when_asked(self, capsys):
        argv = ["az", "verify", "--poset", "boolean:3", "--family", "1", "--identity", "thm1"]
        _, plain = run_cli(capsys, *argv)
        _, detailed = run_cli(capsys, *argv, "--breakdown")
        assert "breakdown" not in plain[0]
        assert len(detailed[0]["breakdown"]["terms"]) == 8

    @pytest.mark.parametrize(
        "poset,fam,code,terms,digest",
        [
            ("fig1a", "a,c", 1, 6, "a7da28645a3d55cc"),
            ("boolean:4", "random:6:1", 0, 16, "930aeecbc2ed20a5"),
            ("subspace:3,2", "random:6:1", 0, 16, "46562b3cb1910618"),
        ],
    )
    def test_thm1_breakdown_pinned(self, capsys, poset, fam, code, terms, digest):
        # the digest of the whole report line but its timing, as the eager term loop printed it
        got, lines = run_cli(
            capsys, "az", "verify", "--poset", poset, "--identity", "thm1", "--family", fam,
            "--breakdown",
        )
        line = lines[0]
        line.pop("ms")
        assert got == code and len(line["breakdown"]["terms"]) == terms
        text = json.dumps(line, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest


NON_NORMAL_5 = {
    "name": "non-normal-5",
    "elements": [{"id": i, "rank": r} for i, r in enumerate([0, 0, 1, 1, 1])],
    "covers": [[0, 2], [0, 3], [0, 4], [1, 4]],
}

# one passing and one failing or deviating call per subcommand where both
# exist, and input errors, with the exit code each must give; {tmp} is a
# scratch directory
CONTRACT_CALLS = [
    (0, ["gen", "--poset", "boolean:3"]),
    (2, ["gen", "--poset", "nope:1"]),
    (0, ["export", "--poset", "fig1a", "--json", "{tmp}/fig1a.json"]),
    (2, ["export", "--poset", "@{tmp}/absent.json", "--json", "{tmp}/out.json"]),
    (0, ["check", "--poset", "boolean:3", "--property", "regular"]),
    (1, ["check", "--poset", "fig1a", "--property", "regular"]),
    (0, ["az", "verify", "--poset", "boolean:4", "--family", "random:5:42", "--identity", "thm1"]),
    (1, ["az", "verify", "--poset", "fig1a", "--family", "a,c", "--identity", "thm1"]),
    (2, ["az", "verify", "--poset", "boolean:3", "--identity", "thm5"]),
    (0, ["sperner", "strict", "--poset", "boolean:3", "--k", "1"]),
    (1, ["sperner", "strict", "--poset", "fig1a", "--k", "1"]),
    (1, ["sperner", "decompose", "--poset", "boolean:3", "--family", "0,1,3,7", "--k", "1"]),
    (2, ["sperner", "lym", "--poset", "boolean:3"]),
    (0, ["twopart", "verify-strict", "--p", "boolean:2", "--q", "chains:3"]),
    (1, ["twopart", "verify-strict", "--p", "boolean:2", "--q", "chains:4"]),
    (0, ["twopart", "identity", "--p", "boolean:1", "--q", "boolean:1", "--family", "0:0,1:1"]),
    (1, ["twopart", "az", "--p", "fig1a", "--q", "boolean:1", "--family", "0:0,1:0,2:1,3:0,4:1,5:1"]),
    (2, ["twopart", "az", "--p", "boolean:2", "--q", "boolean:2", "--family", "0:0"]),
    (0, ["cover", "--poset", "fig1a"]),
    (2, ["cover", "--poset", "@{tmp}/non-normal-5.json"]),
    (0, ["suite", "--criterion", "2"]),
    (2, ["suite", "--criterion", "11"]),
]


@pytest.mark.parametrize(
    "code, argv", CONTRACT_CALLS, ids=[f"{argv[0]}-{code}" for code, argv in CONTRACT_CALLS]
)
def test_exit_code_follows_the_reports(capsys, tmp_path, code, argv):
    # 2 with an error report; otherwise 0 iff every report passes
    (tmp_path / "non-normal-5.json").write_text(json.dumps(NON_NORMAL_5))
    got, lines = run_cli(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert lines
    if any(r.get("verdict") == "error" for r in lines):
        derived = 2
    elif all(r.get("verdict") == "pass" or r.get("passed") is True for r in lines):
        derived = 0
    else:
        derived = 1
    assert got == derived == code


@pytest.mark.parametrize(
    "argv",
    [
        ["twopart", "well-paired", "--p", "boolean:9", "--q", "boolean:9"],
        ["suite", "--criterion", "8"],
    ],
)
def test_runs_without_scipy_or_numpy(argv):
    # a None entry in sys.modules makes every import of that name fail
    src = str(Path(azsperner.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['scipy'] = sys.modules['numpy'] = None; "
        f"from azsperner.cli import main; sys.exit(main({argv!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[0])
    if argv[0] == "twopart":
        assert report["transversal"]["pairs"] == [[i, i] for i in range(10)]
        assert report["size"] == 48620
    else:
        assert report["criterion"] == 8 and report["passed"] is True


# every generator head past its cap, products past it with a divisor or a
# figure-1 factor, a deep q-binomial under trunc(), sizes past the 4,300
# digits that str() converts, and negative dimensions
OVER_CAP_SPECS = [
    "boolean:17",
    "boolean:21",
    "chains:1000,1000",
    "star:9,9",
    "subspace:2000,2",
    "affine:3103,3",
    "divisor:100000000000031",
    "prod(divisor:720720,boolean:16)",
    "prod(fig1a,boolean:16)",
    "trunc(subspace:1200,2,0,1)",
    "star:2,10000",
    "chains:" + ",".join(["100000"] * 1000),
    "affine:-1,2",
    "subspace:-1,2",
    "trunc(boolean:16,5,40)",
    "prod(boolean:16,subspace:2,6)",
    "prod(boolean:16,trunc(chains:3,0,9))",
    "prod(boolean:14,boolean:x)",
]


@pytest.mark.parametrize("spec", OVER_CAP_SPECS, ids=lambda spec: spec[:30])
def test_specs_past_the_caps_exit_2_before_building(spec):
    src = str(Path(azsperner.__file__).resolve().parents[1])
    code = (
        "import sys, azsperner.families as families\n"
        "def refuse(*args, **kwargs):\n"
        "    raise SystemExit('the poset was built')\n"
        "families.build_poset = refuse\n"
        "from azsperner.cli import main\n"
        f"sys.exit(main(['gen', '--poset', {spec!r}]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 2, done.stderr
    (report,) = [json.loads(line) for line in done.stdout.splitlines()]
    assert report["cmd"] == "gen" and report["verdict"] == "error"


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["twopart", "verify-strict", "--p", "boolean:8", "--q", "boolean:8"], (12870, 16)),
        (["sperner", "strict", "--poset", "boolean:12", "--k", "3"], (2508, 1)),
    ],
)
def test_certificate_answers_where_the_search_cannot(argv, fields):
    # a 65,536-vertex conflict graph and a 4,096-element 3-Sperner search: the
    # generous wall bound catches a fall-back to the search
    src = str(Path(azsperner.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "azsperner", *argv],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr
    (report,) = [json.loads(line) for line in done.stdout.splitlines()]
    assert report["holds"] is True and report["method"] == "certificate"
    assert (report["max_size"], report["maxima_count"]) == fields


@pytest.mark.parametrize(
    "argv, count",
    [
        (["twopart", "verify-strict", "--p", "chains:2000", "--q", "chains:2000"], math.factorial(2000)),
        (["sperner", "strict", "--poset", "chains:15000", "--k", "7500"], math.comb(15000, 7500)),
    ],
    ids=["2000!", "C(15000,7500)"],
)
def test_prints_counts_past_the_int_to_str_digit_limit(argv, count):
    # 5,736 and 4,513 digits: past the 4,300 that int-to-str converts by default
    src = str(Path(azsperner.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "azsperner", *argv],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        (report,) = [json.loads(line) for line in done.stdout.splitlines()]
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    assert report["holds"] is True and report["method"] == "certificate"
    assert report["maxima_count"] == count
