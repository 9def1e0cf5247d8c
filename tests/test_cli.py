"""Command-line contract: exit codes, pretty output, and JSON records."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import tensorlogic.cli as cli
from tensorlogic.cli import main
from tensorlogic.dsl import MAX_DEPTH
from tensorlogic.tensor import DEFAULT_ELEMENT_CAP, Tensor
from tensorlogic.truth import CONNECTIVES, Connective, ConnectiveTensor, PredicateMatrix
from tests.conftest import BROWN_DOG_TEXT, LOVES_TEXT, MATHEMATICIAN_TEXT
from tests.helpers import DEEP_SHAPES, ONE_ATOM_TEXT, patch_sweep_tensor_path

TOP, BOT = "\u22a4", "\u22a5"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "tensorlogic", *args],
        capture_output=True,
        text=True,
        env=env,
    )


#: An environment whose standard streams encode ASCII only, so no truth glyph
#: can be written.
ASCII_ENV = dict(os.environ, PYTHONIOENCODING="ascii")


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
        # Evaluation is always crisp, so there is no --mode flag.
        result = run_cli(
            "eval", "--model", model_file, "--formula", "mathematician(john)",
            "--mode", "prob",
        )
        assert result.returncode == 2
        assert "--mode" in result.stderr and "Traceback" not in result.stderr

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


#: The whole stdout of ``truth-table NAME`` in each output, written out; with
#: ``--check``, pretty output ends with one more line and records are the same.
TRUTH_TABLES = {
    ("not", "pretty"): (
        "not: swap matrix\n"
        "[0 1]\n"
        "[1 0]\n"
        "\n"
        f"{TOP} -> {BOT}\n"
        f"{BOT} -> {TOP}\n"
    ),
    ("and", "pretty"): (
        "and: block matrix [first argument true | first argument false]\n"
        "[1 0 | 0 0]\n"
        "[0 1 | 1 1]\n"
        "\n"
        f"{TOP} {TOP} -> {TOP}\n"
        f"{TOP} {BOT} -> {BOT}\n"
        f"{BOT} {TOP} -> {BOT}\n"
        f"{BOT} {BOT} -> {BOT}\n"
    ),
    ("or", "pretty"): (
        "or: block matrix [first argument true | first argument false]\n"
        "[1 1 | 1 0]\n"
        "[0 0 | 0 1]\n"
        "\n"
        f"{TOP} {TOP} -> {TOP}\n"
        f"{TOP} {BOT} -> {TOP}\n"
        f"{BOT} {TOP} -> {TOP}\n"
        f"{BOT} {BOT} -> {BOT}\n"
    ),
    ("implies", "pretty"): (
        "implies: block matrix [first argument true | first argument false]\n"
        "[1 0 | 1 1]\n"
        "[0 1 | 0 0]\n"
        "\n"
        f"{TOP} {TOP} -> {TOP}\n"
        f"{TOP} {BOT} -> {BOT}\n"
        f"{BOT} {TOP} -> {TOP}\n"
        f"{BOT} {BOT} -> {TOP}\n"
    ),
    ("not", "records"): (
        '{"command": "truth-table", "connective": "not", "tensor": [[0.0, 1.0], [1.0, 0.0]]}\n'
        '{"command": "truth-table", "connective": "not", "inputs": ["T"], "output": "F"}\n'
        '{"command": "truth-table", "connective": "not", "inputs": ["F"], "output": "T"}\n'
    ),
    ("and", "records"): (
        '{"command": "truth-table", "connective": "and", '
        '"tensor": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]}\n'
        '{"command": "truth-table", "connective": "and", "inputs": ["T", "T"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "and", "inputs": ["T", "F"], "output": "F"}\n'
        '{"command": "truth-table", "connective": "and", "inputs": ["F", "T"], "output": "F"}\n'
        '{"command": "truth-table", "connective": "and", "inputs": ["F", "F"], "output": "F"}\n'
    ),
    ("or", "records"): (
        '{"command": "truth-table", "connective": "or", '
        '"tensor": [[[1.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]}\n'
        '{"command": "truth-table", "connective": "or", "inputs": ["T", "T"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "or", "inputs": ["T", "F"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "or", "inputs": ["F", "T"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "or", "inputs": ["F", "F"], "output": "F"}\n'
    ),
    ("implies", "records"): (
        '{"command": "truth-table", "connective": "implies", '
        '"tensor": [[[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]]}\n'
        '{"command": "truth-table", "connective": "implies", "inputs": ["T", "T"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "implies", "inputs": ["T", "F"], "output": "F"}\n'
        '{"command": "truth-table", "connective": "implies", "inputs": ["F", "T"], "output": "T"}\n'
        '{"command": "truth-table", "connective": "implies", "inputs": ["F", "F"], "output": "T"}\n'
    ),
}


class TestTruthTableCommand:
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("name, output", list(TRUTH_TABLES))
    def test_golden_output(self, name, output, check):
        argv = ["truth-table", name, "--output", output] + ["--check"] * check
        expected = TRUTH_TABLES[name, output]
        if check and output == "pretty":
            expected += "self-check: ok\n"
        assert run_main(argv) == (0, expected, "")

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

    def test_choices_are_the_connectives_in_table_order(self):
        actions = cli._parsers()[1]["truth-table"]._actions
        (action,) = [a for a in actions if a.dest == "connective"]
        assert action.choices == [c.value for c in Connective] == ["not", "and", "or", "implies"]
        code, out, err = run_main(["truth-table", "xor"])
        assert (code, out) == (2, "")
        message = err.splitlines()[-1]
        positions = [message.index(repr(name)) for name in action.choices]
        assert positions == sorted(positions), message

    def test_self_check_failure(self, monkeypatch, capsys):
        # The fault --check exists to catch: a wrong tensor under a connective.
        wrong = ConnectiveTensor(Connective.AND, CONNECTIVES[Connective.OR].tensor)
        monkeypatch.setitem(CONNECTIVES, Connective.AND, wrong)
        assert main(["truth-table", "and", "--check"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "self-check failed" in err

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

    @pytest.mark.parametrize("cap, code", [("8", 2), ("9", 0)])
    def test_cap_guards_predicates(self, model_file, cap, code):
        # The set formulation of a 3-atom predicate is a 3 x 3 matrix.
        result = run_cli("show", "--model", model_file, "--cap", cap, "mathematician")
        assert result.returncode == code
        assert result.stderr.startswith("error:") == (code == 2)

    def test_show_unknown_name(self, model_file):
        result = run_cli("show", "--model", model_file, "nothing")
        assert result.returncode == 2

    @pytest.mark.parametrize("output", ["pretty", "records"])
    def test_a_relation_with_more_axes_than_numpy_allows(self, tmp_path, output):
        path = tmp_path / "wide.model"
        path.write_text("domain a\nrel r/65:\n")
        result = run_cli("show", "--model", str(path), "r", "--output", output)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: r needs a tensor of 66 axes, more than numpy allows\n"

    @pytest.mark.parametrize("output", ["pretty", "records"])
    def test_round_trip_mismatch_is_an_error(self, model_file, output, monkeypatch, capsys):
        real = cli.convert_set_to_truth

        def swapped(set_form):
            return PredicateMatrix(Tensor(real(set_form).tensor.array[::-1]))

        monkeypatch.setattr(cli, "convert_set_to_truth", swapped)
        assert main(["show", "--model", model_file, "mathematician", "--output", output]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "round-trip" in err


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

    def test_an_error_exits_2(self, monkeypatch, capsys):
        patch_sweep_tensor_path(monkeypatch, fail_at=3)
        assert main(["sweep", "--seed", "1", "--count", "6"]) == 2
        out, err = capsys.readouterr()
        assert "agreements=5 disagreements=0 errors=1 " in out
        assert err.startswith("error:") and "1 of 6 instances" in err

    def test_a_disagreement_outranks_an_error(self, monkeypatch, capsys):
        patch_sweep_tensor_path(monkeypatch, fail_at=3, lie_at=4)
        assert main(["sweep", "--seed", "1", "--count", "6"]) == 1
        out, err = capsys.readouterr()
        assert "agreements=4 disagreements=1 errors=1 " in out and err == ""


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

    @pytest.mark.parametrize(
        "args",
        [
            ("eval", "--formula", "mathematician(john)"),
            ("show", "mathematician"),
        ],
        ids=["eval", "show"],
    )
    def test_cap_above_the_default_is_refused(self, model_file, args):
        # --cap only ever lowers the cap: the default itself is accepted.
        default = str(DEFAULT_ELEMENT_CAP)
        assert run_cli(args[0], "--model", model_file, "--cap", default, *args[1:]).returncode == 0
        above = str(DEFAULT_ELEMENT_CAP + 1)
        result = run_cli(args[0], "--model", model_file, "--cap", above, *args[1:])
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("usage:") and "Traceback" not in result.stderr
        assert f"argument --cap: must be <= {default}, got {above}" in result.stderr

    def test_max_domain_below_one_is_refused(self):
        result = run_cli("sweep", "--max-domain", "0", "--count", "1")
        assert result.returncode == 2
        assert "--max-domain" in result.stderr and "Traceback" not in result.stderr

    def test_max_domain_above_the_cap_is_refused(self):
        # Sweeps draw relations up to arity 3: 2 * 170^3 = 9,826,000 elements
        # fit the default cap of 10,000,000, and 2 * 171^3 = 10,000,422 do not.
        assert cli.build_parser().parse_args(["sweep", "--max-domain", "170"]).max_domain == 170
        result = run_cli("sweep", "--max-domain", "171", "--count", "1")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("usage:") and "Traceback" not in result.stderr
        assert (
            "argument --max-domain: a random arity-3 relation over 171 atoms needs a "
            "tensor of 10000422 elements, above the cap of 10000000"
        ) in result.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--count", "-5"), ("--count", "0"), ("--max-depth", "0")]
    )
    def test_sweep_sizes_below_one_are_refused(self, flag, value):
        result = run_cli("sweep", "--max-domain", "2", "--count", "1", flag, value)
        assert result.returncode == 2
        assert flag in result.stderr and "Traceback" not in result.stderr

    def test_max_depth_above_half_the_nesting_limit_is_refused(self):
        # A depth-50 formula prints at most 98 levels deep, within MAX_DEPTH.
        parse = cli.build_parser().parse_args
        assert parse(["sweep", "--max-depth", str(MAX_DEPTH // 2)]).max_depth == 50
        result = run_cli("sweep", "--max-depth", "2000", "--count", "20")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("usage:") and "Traceback" not in result.stderr
        assert "argument --max-depth: must be <= 50, got 2000" in result.stderr

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

    def test_the_shared_parser_carries_no_state_between_calls(
        self, model_file, tmp_path, capsys
    ):
        # One parser serves every call: flags, defaults and the mutually
        # exclusive formula source must not leak from one call to the next.
        formula_file = tmp_path / "tom.formula"
        formula_file.write_text("mathematician(tom)\n")
        john = ["--formula", "mathematician(john)"]
        calls = [
            (["--cap", "5", *john], 2),
            (john, 0),
            (["--formula-file", str(formula_file)], 1),
            (john, 0),
            (["--output", "records", *john], 0),
            (john, 0),
        ]
        for flags, code in calls:
            assert main(["eval", "--model", model_file, *flags]) == code
            out, err = capsys.readouterr()
            if code == 2:
                assert err.startswith("error:") and "pred:mathematician" in err
            elif "--output" in flags:
                assert json.loads(out)["result"] == "T" and err == ""
            else:
                assert (out, err) == ((TOP if code == 0 else BOT) + "\n", "")
        with pytest.raises(SystemExit) as info:
            main(["eval", "--model", model_file, *john, "--formula-file", str(formula_file)])
        assert info.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
        assert main(["eval", "--model", model_file, *john]) == 0
        assert capsys.readouterr() == (TOP + "\n", "")
        assert cli.build_parser() is cli.build_parser()


def run_main(argv):
    """``main(argv)`` in process: its return code (or ``SystemExit`` code),
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def abbreviated_flags(model):
    """Argvs that abbreviate a flag, one per command besides ``eval``, each a
    usage error."""
    return [
        ["show", "--mod", model, "mathematician"],
        ["truth-table", "and", "--che"],
        ["sweep", "--coun", "5"],
    ]


class TestArgvRoute:
    """An argv that starts with a command name goes straight to that
    command's parser; every outcome must be the top-level parser's own."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "m.model").write_text(MATHEMATICIAN_TEXT)
        (tmp_path / "q.formula").write_text("mathematician(tom)\n")
        return tmp_path

    def corpus(self, files):
        model, formula = str(files / "m.model"), str(files / "q.formula")
        john = ["eval", "--model", model, "--formula", "mathematician(john)"]
        return [
            [], ["-h"], ["--help"], ["-h", "eval"], ["--", "eval"], ["--bogus", "eval"],
            ["evl"], ["eval=x"], ["eval"], ["eval", "-h"], ["eval", "--he"],
            ["eval", "--mod", model, "--formula", "mathematician(john)"],
            ["eval", "--model", model, "--formula=mathematician(john)"],
            ["eval", "--model", model, "--formula", "-mathematician(john)"],
            ["eval", "--model", model, "--formula=-mathematician(john)"],
            [*john, "--formula-file", formula],
            [*john, "--cap", "0"], [*john, "--bogus"], [*john, "--", "x"], [*john, "x"],
            [*john, "--output", "records"],
            ["eval", "--model", model, "--formula-file", formula],
            ["show", "--model", model], ["show", "--model", model, "mathematician"],
            ["truth-table", "xor"], ["truth-table", "and", "--check"],
            ["truth-table", "implies", "--output", "records"],
            ["sweep", "--max-domain", "171"], ["sweep", "--max-depth", "99"],
            ["sweep", "--count", "5", "--output", "records"],
            *abbreviated_flags(model),
        ]

    def test_every_outcome_is_the_top_level_parsers(self, files, monkeypatch):
        parser, commands = cli._parsers()
        namespaces, top_level = [], []

        def spy(handler):
            def record(args):
                namespaces.append(vars(args).copy())
                return handler(args)
            return record

        for command in commands.values():
            handler = command.get_default("handler")
            monkeypatch.setitem(command._defaults, "handler", spy(handler))
        parse_args = parser.parse_args

        def counted_parse_args(argv):
            top_level.append(argv)
            return parse_args(argv)

        monkeypatch.setattr(parser, "parse_args", counted_parse_args)

        def outcomes():
            """Per argv: code, stdout, stderr, the namespace its handler
            received, and whether the top-level parser read it."""
            results = []
            for argv in self.corpus(files):
                del namespaces[:], top_level[:]
                results.append((*run_main(argv), namespaces[:], bool(top_level)))
            return results

        routed = outcomes()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        for argv, direct, plain in zip(self.corpus(files), routed, outcomes()):
            assert direct[:4] == plain[:4], argv
            # Only an argv that starts with a command name bypasses the
            # top-level parser.
            assert (direct[4], plain[4]) == (not argv or argv[0] not in commands, True), argv
        # Eight argvs parse and reach their command; the rest are usage
        # errors and help, which exit before it.
        assert sum(bool(r[3]) for r in routed) == 8
        assert {r[0] for r in routed} == {0, 1, 2}
        # No command reads an abbreviated flag.
        abbreviated = abbreviated_flags(str(files / "m.model"))
        assert [r[0] for r in routed[-len(abbreviated):]] == [2] * len(abbreviated)


def assert_contract(argv):
    """Run ``main(argv)`` in process: exit 0, 1 or 2, and 2 exactly when
    stderr starts with ``error:``."""
    code, _, err = run_main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error:")


# Reproducible, and writes no example database.
CONTRACT_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


class TestExitCodeContract:
    """0 true, 1 false, 2 error with an ``error:`` message, whatever the input."""

    def test_latin1_model_file(self, tmp_path):
        path = tmp_path / "latin1.model"
        path.write_bytes("domain e0 caf\xe9\npred p0: e0\n".encode("latin-1"))
        result = run_cli("eval", "--model", str(path), "--formula", "p0(e0)")
        assert result.returncode == 2
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr

    def test_latin1_formula_file(self, model_file, tmp_path):
        path = tmp_path / "latin1.formula"
        path.write_bytes("mathematician(john) # caf\xe9\n".encode("latin-1"))
        result = run_cli("eval", "--model", model_file, "--formula-file", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--formula", "mathematician(john)"],
            ["eval", "--formula", "mathematician(tom)"],
            ["truth-table", "and"],
        ],
        ids=["eval-true", "eval-false", "truth-table"],
    )
    def test_pretty_output_to_an_ascii_stdout_is_an_error(self, model_file, args):
        if args[0] == "eval":
            args = [*args, "--model", model_file]
        result = run_cli(*args, env=ASCII_ENV)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
        assert "--output records writes ASCII" in result.stderr

    @pytest.mark.parametrize("formula, code", [("mathematician(john)", 0), ("mathematician(tom)", 1)])
    def test_records_output_to_an_ascii_stdout_keeps_its_exit_code(self, model_file, formula, code):
        result = run_cli(
            "eval", "--model", model_file, "--formula", formula, "--output", "records", env=ASCII_ENV
        )
        assert result.returncode == code
        assert json.loads(result.stdout)["result"] == "TF"[code]
        assert result.stderr == ""

    def test_files_with_a_byte_order_mark(self, tmp_path, capsys):
        model = tmp_path / "bom.model"
        model.write_text(MATHEMATICIAN_TEXT, encoding="utf-8-sig")
        formula = tmp_path / "bom.formula"
        formula.write_text("~mathematician(tom)  # negated\n", encoding="utf-8-sig")
        assert main(["eval", "--model", str(model), "--formula", "mathematician(tom)"]) == 1
        assert main(["eval", "--model", str(model), "--formula-file", str(formula)]) == 0
        assert capsys.readouterr() == (BOT + "\n" + TOP + "\n", "")

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("contract")
        (path / "people.model").write_text(MATHEMATICIAN_TEXT)
        return path

    @CONTRACT_SETTINGS
    @given(text=st.text(max_size=60))
    def test_any_formula_text(self, workdir, text):
        assert_contract(["eval", "--model", str(workdir / "people.model"), f"--formula={text}"])

    @CONTRACT_SETTINGS
    @given(text=st.text(max_size=60))
    def test_any_model_text(self, workdir, text):
        path = workdir / "any-text.model"
        path.write_text(text, encoding="utf-8")
        assert_contract(["eval", "--model", str(path), "--formula=p(a)"])

    @CONTRACT_SETTINGS
    @given(data=st.binary(max_size=60))
    def test_any_model_bytes(self, workdir, data):
        path = workdir / "any-bytes.model"
        path.write_bytes(data)
        assert_contract(["eval", "--model", str(path), "--formula=p(a)"])

    def test_an_arity_too_long_to_read(self, workdir):
        # More digits than int() reads by default (4,300).
        path = workdir / "long-arity.model"
        path.write_text("domain a\nrel r/" + "1" * 5000 + ":\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--model", str(path), "--formula=p(a)"])
        assert code == 2
        assert err.getvalue() == (
            "error: arity has too many digits (5000) (line 2, column 7)\n"
        )

    # The shapes nest ``depth`` levels deep; past MAX_DEPTH each is an error.
    @CONTRACT_SETTINGS
    @given(shape=st.sampled_from(sorted(DEEP_SHAPES)), depth=st.integers(1, 3000))
    def test_deep_formulas(self, workdir, shape, depth):
        path = workdir / "one-atom.model"
        path.write_text(ONE_ATOM_TEXT)
        text, truth = DEEP_SHAPES[shape](depth)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--model", str(path), f"--formula={text}"])
        if depth > MAX_DEPTH:
            assert code == 2
            assert err.getvalue().startswith("error: formula nests deeper than")
            assert "(line 1, column " in err.getvalue()
        else:
            assert (code, err.getvalue()) == (0 if truth else 1, "")


class TestInputFiles:
    """Model and formula files are read as UTF-8 text with an optional byte
    order mark and universal newlines."""

    MODEL = "domain a b\n# people\npred p: a\nrel r/2: (a, b)\n"
    FORMULAS = [
        "p(a) &\n  exists r(a, _)  # true\n",
        # The comment ends at the line end: p(b) is false.
        "p(a)  # c\n& p(b)\n",
        "p(a) &\n  p(zz)\n",
    ]

    @pytest.mark.parametrize(
        "prefix, newline", [("", "\r\n"), ("", "\r"), ("\ufeff", "\r\n")],
        ids=["crlf", "cr", "bom-crlf"],
    )
    @pytest.mark.parametrize("formula", FORMULAS, ids=["true", "comment", "error"])
    def test_line_ends_read_as_newlines(self, tmp_path, prefix, newline, formula):
        def outcome(name, start, end):
            for suffix, text in (("model", self.MODEL), ("formula", formula)):
                data = (start + text.replace("\n", end)).encode("utf-8")
                (tmp_path / f"{name}.{suffix}").write_bytes(data)
            return run_main([
                "eval", "--model", str(tmp_path / f"{name}.model"),
                "--formula-file", str(tmp_path / f"{name}.formula"), "--output", "records",
            ])

        assert outcome("twin", prefix, newline) == outcome("lf", "", "\n")

    def test_what_the_line_end_cases_read(self, tmp_path):
        outcomes = []
        for i, formula in enumerate(self.FORMULAS):
            (tmp_path / "m.model").write_text(self.MODEL)
            (tmp_path / f"{i}.formula").write_text(formula)
            outcomes.append(run_main([
                "eval", "--model", str(tmp_path / "m.model"),
                "--formula-file", str(tmp_path / f"{i}.formula"),
            ]))
        assert outcomes == [
            (0, TOP + "\n", ""),
            (1, BOT + "\n", ""),
            (2, "", "error: unknown atom: 'zz' (line 2, column 5)\n"),
        ]

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_latin1_model_names_the_byte(self, tmp_path, bom):
        path = tmp_path / "latin1.model"
        path.write_bytes(bom + "domain e0 caf\xe9\npred p0: e0\n".encode("latin-1"))
        assert run_main(["eval", "--model", str(path), "--formula", "p0(e0)"]) == (
            2,
            "",
            "error: 'utf-8' codec can't decode byte 0xe9 in position 13: "
            "invalid continuation byte\n",
        )

    @pytest.mark.parametrize("path", ["", "./nope.model"], ids=["empty", "dot-slash"])
    def test_a_missing_file_is_quoted_as_given(self, tmp_path, monkeypatch, path):
        # The path reaches the OS unnormalized: "" is no file, not ".".
        monkeypatch.chdir(tmp_path)
        assert run_main(["eval", "--model", path, "--formula", "p(a)"]) == (
            2, "", f"error: [Errno 2] No such file or directory: {path!r}\n"
        )
        (tmp_path / "m.model").write_text(MATHEMATICIAN_TEXT)
        assert run_main(["eval", "--model", "m.model", "--formula-file", path]) == (
            2, "", f"error: [Errno 2] No such file or directory: {path!r}\n"
        )


def test_only_sweep_loads_the_generator():
    """``eval``, ``show`` and ``truth-table`` start without
    :mod:`tensorlogic.generate`; parsing a ``sweep --max-domain`` loads it."""
    probe = (
        "import sys, tensorlogic.cli as cli\n"
        "parser = cli.build_parser()\n"
        "parser.parse_args(['eval', '--model', 'm', '--formula', 'p(a)'])\n"
        "parser.parse_args(['truth-table', 'and'])\n"
        "parser.parse_args(['show', '--model', 'm', 'p'])\n"
        "parser.parse_args(['sweep'])\n"
        "print('tensorlogic.generate' in sys.modules)\n"
        "parser.parse_args(['sweep', '--max-domain', '4'])\n"
        "print('tensorlogic.generate' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\nTrue\n", "")
