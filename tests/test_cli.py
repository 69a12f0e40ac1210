import json

import pytest

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

    def test_suite_single_criterion(self, capsys):
        code, lines = run_cli(capsys, "suite", "--criterion", "2")
        assert code == 0
        assert lines[0]["criterion"] == 2 and lines[0]["passed"] is True

    def test_bad_spec_is_usage_error(self, capsys):
        code, lines = run_cli(capsys, "gen", "--poset", "nope:1")
        assert code == 2 and lines[0]["verdict"] == "error"

    @pytest.mark.parametrize("spec", ["boolean:x", "boolean:"])
    def test_bad_spec_argument_is_usage_error(self, capsys, spec):
        code, lines = run_cli(capsys, "gen", "--poset", spec)
        assert code == 2 and lines[0]["verdict"] == "error"
        assert spec in lines[0]["error"]


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
