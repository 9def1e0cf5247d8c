"""Command-line contract: exit codes, pretty output, and JSON records."""

import json
import subprocess
import sys

import pytest

from tensorlogic.cli import main
from tests.conftest import BROWN_DOG_TEXT, LOVES_TEXT, MATHEMATICIAN_TEXT

TOP, BOT = "\u22a4", "\u22a5"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tensorlogic", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "people.model"
    path.write_text(MATHEMATICIAN_TEXT)
    return str(path)


@pytest.fixture
def loves_file(tmp_path):
    path = tmp_path / "loves.model"
    path.write_text(LOVES_TEXT)
    return str(path)


class TestEvalCommand:
    def test_true_formula(self, model_file):
        result = run_cli("eval", "--model", model_file, "--formula", "mathematician(john)")
        assert result.returncode == 0
        assert result.stdout.strip() == TOP

    def test_false_formula(self, model_file):
        result = run_cli("eval", "--model", model_file, "--formula", "mathematician(tom)")
        assert result.returncode == 1
        assert result.stdout.strip() == BOT

    def test_false_relation(self, loves_file):
        result = run_cli("eval", "--model", loves_file, "--formula", "loves(j, m)")
        assert result.returncode == 1

    def test_malformed_formula(self, model_file):
        result = run_cli("eval", "--model", model_file, "--formula", "mathematician(")
        assert result.returncode == 2
        assert "line 1" in result.stderr and "column" in result.stderr

    def test_unknown_name(self, model_file):
        result = run_cli("eval", "--model", model_file, "--formula", "physicist(john)")
        assert result.returncode == 2
        assert "physicist" in result.stderr

    def test_missing_model_file(self, tmp_path):
        result = run_cli(
            "eval", "--model", str(tmp_path / "nope.model"), "--formula", "p(a)"
        )
        assert result.returncode == 2

    def test_formula_file_input(self, model_file, tmp_path):
        formula_path = tmp_path / "query.formula"
        formula_path.write_text("~mathematician(tom)  # negated\n")
        result = run_cli("eval", "--model", model_file, "--formula-file", str(formula_path))
        assert result.returncode == 0
        assert result.stdout.strip() == TOP

    def test_prob_mode_output(self, model_file):
        result = run_cli(
            "eval", "--model", model_file, "--formula", "mathematician(john)",
            "--mode", "prob",
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "[1, 0]"

    def test_records_golden_line(self, model_file):
        result = run_cli(
            "eval", "--model", model_file, "--formula", "mathematician(john)",
            "--output", "records",
        )
        assert result.returncode == 0
        assert result.stdout == (
            '{"command": "eval", "false_weight": 0.0, "formula": "mathematician(john)", '
            '"result": "T", "true_weight": 1.0}\n'
        )

    def test_quantified_formula(self, tmp_path):
        path = tmp_path / "pets.model"
        path.write_text(BROWN_DOG_TEXT)
        result = run_cli("eval", "--model", str(path), "--formula", "exists (brown & dog)")
        assert result.returncode == 0


class TestTruthTableCommand:
    def test_and_golden_output(self):
        result = run_cli("truth-table", "and")
        assert result.returncode == 0
        assert result.stdout == (
            "and: block matrix [first argument true | first argument false]\n"
            "[1 0 | 0 0]\n"
            "[0 1 | 1 1]\n"
            "\n"
            f"{TOP} {TOP} -> {TOP}\n"
            f"{TOP} {BOT} -> {BOT}\n"
            f"{BOT} {TOP} -> {BOT}\n"
            f"{BOT} {BOT} -> {BOT}\n"
        )

    def test_not_swap_matrix(self):
        result = run_cli("truth-table", "not")
        assert result.returncode == 0
        assert "[0 1]\n[1 0]" in result.stdout
        assert f"{TOP} -> {BOT}" in result.stdout

    def test_self_check_flag(self):
        for name in ("not", "and", "or", "implies"):
            result = run_cli("truth-table", name, "--check")
            assert result.returncode == 0
            assert "self-check: ok" in result.stdout

    def test_records_mode(self):
        result = run_cli("truth-table", "or", "--output", "records")
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        assert lines[0]["tensor"] == [[[1.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        rows = {tuple(r["inputs"]): r["output"] for r in lines[1:]}
        assert rows == {
            ("T", "T"): "T", ("T", "F"): "T", ("F", "T"): "T", ("F", "F"): "F",
        }

    def test_unknown_connective(self):
        result = run_cli("truth-table", "xor")
        assert result.returncode == 2


class TestShowCommand:
    def test_show_predicate(self, model_file):
        result = run_cli("show", "--model", model_file, "mathematician")
        assert result.returncode == 0
        assert "[1 1 0]" in result.stdout
        assert "[0 0 1]" in result.stdout
        assert "conversion round-trip: ok" in result.stdout

    def test_show_empty_predicate(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("domain a b\npred p:\n")
        result = run_cli("show", "--model", str(path), "p")
        assert result.returncode == 0
        assert "[0 0]" in result.stdout and "[1 1]" in result.stdout

    def test_show_relation(self, loves_file):
        result = run_cli("show", "--model", loves_file, "loves")
        assert result.returncode == 0
        assert "true slice" in result.stdout and "false slice" in result.stdout

    def test_show_relation_records(self, loves_file):
        result = run_cli("show", "--model", loves_file, "loves", "--output", "records")
        record = json.loads(result.stdout)
        assert record["kind"] == "relation" and record["arity"] == 2
        assert record["tensor"][0] == [[1.0, 1.0], [0.0, 1.0]]

    def test_show_unknown_name(self, model_file):
        result = run_cli("show", "--model", model_file, "nothing")
        assert result.returncode == 2


class TestSweepCommand:
    def test_small_sweep_passes(self, tmp_path):
        report_path = tmp_path / "report.jsonl"
        result = run_cli(
            "sweep", "--seed", "5", "--count", "40", "--max-domain", "3",
            "--report", str(report_path),
        )
        assert result.returncode == 0
        assert "disagreements=0" in result.stdout
        lines = report_path.read_text().splitlines()
        assert len(lines) == 40
        assert all("agree" in json.loads(line) for line in lines)

    def test_sweep_reproducible(self, tmp_path):
        args = ("sweep", "--seed", "9", "--count", "30", "--output", "records")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestFlagRanges:
    @pytest.mark.parametrize(
        "args",
        [
            ("eval", "--cap", "-1", "--formula", "mathematician(john)"),
            ("eval", "--cap", "0", "--formula", "mathematician(john)"),
            ("show", "--cap", "-1", "mathematician"),
        ],
    )
    def test_cap_below_one_is_refused(self, model_file, args):
        result = run_cli(args[0], "--model", model_file, *args[1:])
        assert result.returncode == 2
        assert "--cap" in result.stderr and "Traceback" not in result.stderr

    def test_max_domain_below_one_is_refused(self):
        result = run_cli("sweep", "--max-domain", "0", "--count", "1")
        assert result.returncode == 2
        assert "--max-domain" in result.stderr and "Traceback" not in result.stderr

    def test_cap_guards_predicate_loads(self, model_file):
        # pred:mathematician is a 2 x 3 matrix: 6 elements.
        result = run_cli("eval", "--model", model_file, "--cap", "5",
                         "--formula", "mathematician(john)")
        assert result.returncode == 2
        assert result.stderr.startswith("error:") and "pred:mathematician" in result.stderr


class TestInProcessEntryPoint:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.model"
        path.write_text(MATHEMATICIAN_TEXT)
        code = main(["eval", "--model", str(path), "--formula", "mathematician(chris)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == TOP

    def test_main_error_path(self, capsys):
        code = main(["eval", "--model", "/nonexistent.model", "--formula", "p(a)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
