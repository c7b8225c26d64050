import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import fotensor
import fotensor.cli as cli
import fotensor.tensors as tensors
from fotensor import Alphabet, build_successor_model, dump_structure
from fotensor.cli import main

ONE_B = "exists x. forall y. (b(x) & (b(y) -> x = y))"
DISS = (
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_eval_one_b_abba(capsys):
    code = run(["eval", "--expr", ONE_B, "--word", "abba", "--model", "succ"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_no_b_present(capsys):
    code = run(["eval", "--expr", "exists x. b(x)", "--word", "aaaa", "--model", "succ"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_dissimilation(capsys):
    code = run(["eval", "--expr", DISS, "--word", "laral", "--model", "prec"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_json_document(capsys):
    code = run(["eval", "--expr", ONE_B, "--word", "ab", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "eval", "value": 1}


def test_eval_json_bytes_are_json_dumps(capsys):
    # Written without the encoder that indent=2 selects, byte for byte the same.
    for word, value in (("ab", 1), ("bb", 0)):
        assert run(["eval", "--expr", ONE_B, "--word", word, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"command": "eval", "value": value}, indent=2) + "\n"


def test_eval_trace(capsys):
    code = run(["eval", "--expr", "exists x. b(x)", "--word", "abba", "--trace"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1"
    assert any("exists-sum x: sum=2" in line for line in out[1:])


def test_eval_trace_json(capsys):
    code = run(["eval", "--expr", "exists x. b(x)", "--word", "abba", "--trace", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "command": "eval",
        "value": 1,
        "trace": [{"node": "exists-sum", "variable": "x", "bindings": {}, "sum": 2}],
    }


def test_eval_empty_word_with_a_label_free_formula(capsys):
    # No labels and no letters: the alphabet falls back to "a".
    assert run(["eval", "--expr", "forall x. x = x", "--word", ""]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["eval", "--expr", "exists x. x = x", "--word", ""]) == 0
    assert capsys.readouterr().out == "0\n"


def test_unreadable_files_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert run(["eval", "--formula-file", missing, "--word", "ab"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read formula file")
    assert run(["eval", "--expr", "exists x. b(x)", "--structure", missing]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read structure file")


def test_eval_structure_file(tmp_path, capsys):
    doc = dump_structure(build_successor_model("abba", Alphabet("abc")))
    path = tmp_path / "abba.json"
    path.write_text(doc)
    code = run(["eval", "--expr", "exists x. exists y. succ(x, y)", "--structure", str(path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_formula_file(tmp_path, capsys):
    path = tmp_path / "one_b.fo"
    path.write_text(ONE_B + "\n")
    code = run(["eval", "--formula-file", str(path), "--word", "aba"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_parse_error_exits_1(capsys):
    assert run(["eval", "--expr", "b(x", "--word", "ab"]) == 1


def test_eval_free_variable_exits_2(capsys):
    assert run(["eval", "--expr", "b(x)", "--word", "ab"]) == 2


def test_eval_unknown_predicate_exits_2(capsys):
    assert run(["eval", "--expr", "exists x. zz(x)", "--word", "ab"]) == 2


def test_eval_plan_too_large_exits_2(capsys):
    # A 4-clique: every elimination order leaves three variables in a step.
    expr = (
        "exists x. exists y. exists z. exists w. "
        "(succ(x, y) & succ(x, z) & succ(x, w) & succ(y, z) & succ(y, w) & succ(z, w))"
    )
    assert run(["eval", "--expr", expr, "--word", "a" * 400]) == 2
    err = capsys.readouterr().err
    assert "domain size 400" in err and "400^3" in err


def test_eval_past_the_axis_limit_exits_2(capsys):
    # 70 nested quantified variables need 70 axes on the plain plan, which
    # --trace evaluates; the planned plan gives the 69 unused ones none.
    expr = "exists x. " * 70 + "a(x)"
    assert run(["eval", "--trace", "--expr", expr, "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs arrays of 70 axes, over numpy's limit of {tensors.MAX_AXES}" in captured.err
    assert run(["eval", "--expr", expr, "--word", "a"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_eval_dissimilation_at_length_1024(capsys):
    # Past N = 256 only the planned plan fits under the cell limit.
    for word, value in (("lr" * 512, "1"), ("l" + "a" * 1022 + "l", "0")):
        assert run(["eval", "--expr", DISS, "--model", "prec", "--word", word]) == 0
        assert capsys.readouterr().out == value + "\n"


def test_eval_corrupted_build_exits_2(monkeypatch, capsys):
    # Without the clamp, two true disjuncts leave {0, 1}: a closure error,
    # reported like any other error rather than as a traceback.
    monkeypatch.setattr(tensors, "min1", lambda x: x)
    assert run(["eval", "--expr", "exists x. (b(x) | b(x))", "--word", "b"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_unknown_word_symbol_exits_2(capsys):
    assert run(["eval", "--expr", "exists x. b(x)", "--word", "abq", "--alphabet", "ab"]) == 2
    capsys.readouterr()
    assert run(["eval", "--expr", "exists x. b(x)", "--word", "abc", "--alphabet", "ab"]) == 2
    assert capsys.readouterr() == ("", "error: symbol 'c' at position 3 not in alphabet\n")


def test_eval_word_builds_no_structure_model(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("eval --word built a StructureModel")

    monkeypatch.setattr(fotensor.StructureModel, "__init__", refuse)
    assert run(["eval", "--expr", ONE_B, "--word", "abba"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_eval_requires_one_formula_source(capsys):
    assert run(["eval", "--word", "ab"]) == 1


def test_enumerate_one_b(capsys):
    code = run(["enumerate", "--expr", ONE_B, "--alphabet", "ab", "--max-len", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["b", "ab", "ba"]


def test_enumerate_diss_includes_empty_word(capsys):
    code = run(
        ["enumerate", "--expr", DISS, "--model", "prec", "--alphabet", "lra", "--max-len", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["", "l", "r", "a"]


def test_enumerate_count(capsys):
    code = run(
        ["enumerate", "--expr", DISS, "--model", "prec", "--alphabet", "lra",
         "--max-len", "2", "--count"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "12"


def test_enumerate_empty_result(capsys):
    code = run(["enumerate", "--expr", "exists x. b(x)", "--alphabet", "ab", "--max-len", "0"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_enumerate_json(capsys):
    code = run(
        ["enumerate", "--expr", ONE_B, "--alphabet", "ab", "--max-len", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "enumerate", "count": 3, "words": ["b", "ab", "ba"]}


def test_enumerate_rejects_negative_max_len(capsys):
    assert run(["enumerate", "--expr", ONE_B, "--alphabet", "ab", "--max-len", "-1"]) == 1


def test_enumerate_formula_the_spec_refuses_exits_2(capsys):
    assert run(["enumerate", "--expr", "exists x. c(x)", "--alphabet", "ab", "--max-len", "2"]) == 2
    assert capsys.readouterr().err == "error: unary predicate 'c' is not an alphabet label\n"


def test_enumerate_rejects_tree_model(capsys):
    code = run(
        ["enumerate", "--expr", "exists x. exists y. dom(x, y)", "--model", "tree",
         "--alphabet", "st", "--max-len", "2"]
    )
    assert code == 1


def test_bad_alphabet_exits_1_from_eval_and_enumerate(capsys):
    commands = (
        ["eval", "--expr", "exists x. a(x)", "--word", "ab"],
        ["enumerate", "--expr", "exists x. a(x)", "--max-len", "2"],
    )
    messages = {
        "aab": "error: alphabet has duplicate symbols: ('a', 'a', 'b')\n",
        "": "error: alphabet must be nonempty\n",
    }
    for argv in commands:
        for alphabet, message in messages.items():
            assert run([*argv, "--alphabet", alphabet]) == 1, (argv, alphabet)
            assert capsys.readouterr() == ("", message)


def test_enumerate_word_over_the_limit_exits_2(capsys):
    expr = (
        "exists x. exists y. exists z. exists w. "
        "(succ(x, y) & succ(x, z) & succ(x, w) & succ(y, z) & succ(y, w) & succ(z, w))"
    )
    assert run(["enumerate", "--expr", expr, "--alphabet", "ab", "--max-len", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "400^3" in captured.err


def test_enumerate_past_the_word_limit_exits_2(capsys):
    argv = ["enumerate", "--expr", "exists x. a(x)", "--alphabet", "ab", "--max-len", "5000", "--count"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration to length 5000 over 2 letters decides at least 2097151 words, "
        "over the limit of 1048576\n"
    )


def test_compile_one_b_plan(capsys):
    code = run(["compile", "--expr", ONE_B])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("prenex: exists x. forall y.")
    assert out.count("(exists-sum") == 1
    assert out.count("(forall-dual") == 1


def test_compile_atom_plan(capsys):
    code = run(["compile", "--expr", "b(x)"])
    assert code == 0
    assert "(rel b x)" in capsys.readouterr().out


def test_compile_dissimilation_plan(capsys):
    code = run(["compile", "--expr", DISS])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("(forall-dual") == 2
    assert out.count("(exists-sum") == 1


def test_compile_optimized_section(capsys):
    code = run(["compile", "--expr", "exists x. b(x)", "--optimized"])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimized:" in out
    assert "(contract x" in out


def test_compile_converts_to_prenex_once(capsys, monkeypatch):
    calls = []
    real = tensors.to_prenex
    counting = lambda f: calls.append(f) or real(f)  # noqa: E731
    monkeypatch.setattr(tensors, "to_prenex", counting)
    assert run(["compile", "--expr", DISS, "--optimized"]) == 0
    assert len(calls) == 1


def test_compile_json(capsys):
    code = run(["compile", "--expr", "exists x. b(x)", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "prenex", "plan"}


def test_check_reports_agreement(capsys):
    code = run(["check", "--random", "120", "--seed", "42"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "120/120 agree (seed 42)"


def test_check_deterministic_output(capsys):
    run(["check", "--random", "30", "--seed", "5"])
    first = capsys.readouterr().out
    run(["check", "--random", "30", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_check_json_document(capsys):
    code = run(["check", "--random", "25", "--seed", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 25 and doc["agreements"] == 25 and doc["mismatches"] == []


def test_check_zero_is_usage_error(capsys):
    assert run(["check", "--random", "0"]) == 1


def test_check_corrupted_build_exits_3(monkeypatch, capsys):
    # A single case suffices: without the clamp, seed 1's case breaks 0/1
    # closure (the healthy build passes the same case, see below).
    assert run(["check", "--random", "1", "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(tensors, "min1", lambda x: x)
    code = run(["check", "--random", "1", "--seed", "1"])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_word_and_structure_are_exclusive(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_structure(build_successor_model("ab", Alphabet("ab"))))
    code = run(
        ["eval", "--expr", "exists x. b(x)", "--word", "ab", "--structure", str(path)]
    )
    assert code == 1


def test_malformed_structure_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run(["eval", "--expr", "exists x. b(x)", "--structure", str(path)]) == 1


def test_structure_documents_of_the_wrong_shape_are_refused(tmp_path, capsys):
    cases = [
        ('{"domain": 2, "unary": []}', 1, "'unary' must be an object"),
        ('{"domain": 2, "unary": {"a": 1}}', 1, "unary relation 'a' must be a list"),
        ('{"domain": 2, "binary": {"r": 3}}', 1, "binary relation 'r' must be a list of pairs"),
        (
            '{"domain": 2, "unary": {"a": [1]}, "binary": {"a": [[1, 2]]}}',
            2,
            "relation names used at two arities: ['a']",
        ),
        ('{"domain": 2, "unary": {"a": [{}]}}', 2, "relation 'a': index {} is not an integer"),
        ('{"domain": 2, "binary": {"r": [[1, [2]]]}}', 2, "relation 'r': index [2] is not an integer"),
        ('{"domain": 2, "unary": {"a": [1, true]}}', 2, "relation 'a': index True is not an integer"),
        ('{"domain": 2, "unary": {"a": [1, 1.0]}}', 2, "relation 'a': index 1.0 is not an integer"),
        ("[" * 200_000 + "]" * 200_000, 1, "document nests too deeply to decode"),
    ]
    path = tmp_path / "doc.json"
    for doc, code, message in cases:
        path.write_text(doc)
        assert run(["eval", "--expr", "exists x. a(x)", "--structure", str(path)]) == code, doc
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_eval_tree_model_from_a_word_is_a_usage_error(capsys):
    assert run(["eval", "--expr", "exists x. a(x)", "--model", "tree", "--word", "ab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: fotensor eval ")
    assert "\nfotensor eval: error: argument --model: invalid choice: 'tree'" in captured.err


def test_word_options_with_a_structure_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_structure(build_successor_model("ab", Alphabet("ab"))))
    argv = ["eval", "--expr", "exists x. b(x)", "--structure", str(path)]
    assert run(argv) == 0
    assert capsys.readouterr() == ("1\n", "")
    for extra, option in (
        (["--model", "succ"], "model"),
        (["--alphabet", "zz"], "alphabet"),
        (["--model", "prec", "--alphabet", "ab"], "model"),
    ):
        assert run(argv + extra) == 1, extra
        message = f"fotensor eval: error: argument --{option}: not allowed with argument --structure\n"
        assert capsys.readouterr() == ("", message)
    assert run(argv + ["--model", "tree", "--alphabet", "zz"]) == 1
    assert "invalid choice: 'tree'" in capsys.readouterr().err


def test_structure_with_bad_index_exits_2(tmp_path, capsys):
    path = tmp_path / "range.json"
    path.write_text('{"domain": 2, "unary": {"b": [5]}, "binary": {}}')
    assert run(["eval", "--expr", "exists x. b(x)", "--structure", str(path)]) == 2


def test_huge_structure_domain_exits_2_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"domain": 3000000, "unary": {"a": [1]}, "binary": {"r": [[1, 2]]}}')
    argv = ["eval", "--expr", "exists x. a(x)", "--structure", str(path)]
    run(argv)  # the first call builds the argument parser
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a structure of domain size 3000000 needs N x N tensors of "
        "9000000000000 cells, over the limit of 16777216\n"
    )


def test_long_word_exits_2_before_allocating(capsys):
    # The word's N x N order relation is refused before it is built, and
    # before its letters are read: "b" is outside the second alphabet.
    argv = ["eval", "--expr", "exists x. a(x)", "--word", "ab" * 2500]
    run(argv)  # the first call builds the argument parser
    capsys.readouterr()
    for alphabet in ([], ["--alphabet", "a"]):
        tracemalloc.start()
        try:
            code = run(argv + alphabet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a structure of domain size 5000 needs N x N tensors of "
            "25000000 cells, over the limit of 16777216\n"
        )


# --- deep nesting ---------------------------------------------------------

# Formulas at the parser's nesting limit of 100 levels; each holds on "a".
AT_NESTING_LIMIT = [
    "exists x. " + "(" * 99 + "a(x)" + ")" * 99,
    "exists x. " + "!" * 98 + "(a(x))",
    "exists x. " + "a(x) -> " * 99 + "a(x)",
    "exists x. " + "!(a(x) & " * 49 + "!a(x))" + ")" * 48,
    "".join(f"exists x{i}. (" for i in range(50)) + "a(x0)" + ")" * 50,
]


def test_nesting_past_the_limit_exits_1(capsys):
    for expr in ("exists x. " + "(" * 300 + "a(x)" + ")" * 300, "exists x. " + "!" * 1000 + "a(x)"):
        assert run(["eval", "--expr", expr, "--word", "a"]) == 1
        assert run(["compile", "--expr", expr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "error: formula nested more than 100 levels deep (at position 109)\n"
        assert captured.err == message * 2


def test_nesting_at_the_limit_runs(capsys):
    model = build_successor_model("a", Alphabet("a"))
    for expr in AT_NESTING_LIMIT:
        assert run(["eval", "--expr", expr, "--word", "a"]) == 0
        assert capsys.readouterr().out == "1\n", expr
        assert run(["compile", "--expr", expr, "--optimized"]) == 0
        assert "optimized:" in capsys.readouterr().out
        assert fotensor.tarski_eval(fotensor.parse_formula(expr), model)


# --- one parser per process ----------------------------------------------

# Help text wraps at the terminal width; pin it for both interpreters.
_FIXED_TERMINAL = {"COLUMNS": "80", "LINES": "24"}


def _fresh_interpreter(args):
    """Run python with the package on its path in a new process; returns
    (exit code, stdout, stderr)."""
    env = {**os.environ, **_FIXED_TERMINAL}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(fotensor.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_check_output_is_the_same_under_python_O():
    # python -O strips asserts: were any check of the evaluator one, the
    # differential check would run differently without it.
    argv = ["-m", "fotensor", "check", "--random", "300", "--seed", "0", "--format", "json"]
    normal = _fresh_interpreter(argv)
    assert normal[0] == 0, normal[2]
    assert _fresh_interpreter(["-O", *argv]) == normal


def test_enumerate_output_is_the_same_under_python_O():
    # The batched path's checks (embedding, contraction steps, clamps) are
    # explicit raises, so enumeration runs the same without asserts.
    for flags in (["--expr", ONE_B, "--alphabet", "ab", "--max-len", "9"],
                  ["--expr", DISS, "--alphabet", "lra", "--max-len", "5", "--model", "prec"]):
        argv = ["-m", "fotensor", "enumerate", *flags, "--format", "json"]
        normal = _fresh_interpreter(argv)
        assert normal[0] == 0 and json.loads(normal[1])["count"] > 0, normal[2]
        assert _fresh_interpreter(["-O", *argv]) == normal


def test_reused_parser_matches_fresh_interpreters(monkeypatch):
    for name, value in _FIXED_TERMINAL.items():
        monkeypatch.setenv(name, value)
    requests = [
        ["enumerate", "--expr", ONE_B, "--alphabet", "ab", "--max-len", "-1"],
        ["eval", "--word", "ab"],
        ["eval", "--expr", DISS, "--word", "laral", "--model", "prec"],
        ["compile", "--expr", ONE_B, "--format", "json"],
        ["--help"],
        ["enumerate", "--help"],
        # Argument errors, as pinned in test_cli_golden.py.
        ["eval", "--expr", ONE_B, "--word", "ab", "--bogus"],
        ["eval", "--expr", ONE_B, "--word", "ab", "extra"],
        ["evaluate", "--expr", ONE_B, "--word", "ab"],
        [],
        ["eval", "--expr", ONE_B, "--word", "ab", "--format", "xml"],
    ]
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == _fresh_interpreter(
            ["-m", "fotensor", *argv]
        ), argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", init)
    assert run(["eval", "--expr", ONE_B, "--word", "ab"]) == 0
    parsers_per_build = len(built)
    assert parsers_per_build > 0
    assert run(["enumerate", "--expr", ONE_B, "--alphabet", "ab", "--max-len", "2"]) == 0
    assert len(built) == parsers_per_build


def test_a_named_command_skips_the_top_level_parser(monkeypatch, capsys):
    # Only the command's own parser reads the arguments after the command.
    progs = []
    real = cli._ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "parse_known_args", spy)
    requests = {
        "eval": ["--expr", ONE_B, "--word", "ab"],
        "enumerate": ["--expr", ONE_B, "--alphabet", "ab", "--max-len", "2"],
        "compile": ["--expr", ONE_B],
        "check": ["--random", "3"],
    }
    for command, rest in requests.items():
        progs.clear()
        assert run([command, *rest]) == 0
        assert progs == [f"fotensor {command}"]
    progs.clear()
    assert run(["--help"]) == 0
    assert progs == ["fotensor"]


def test_eval_builds_only_the_relations_its_plan_reads(monkeypatch, capsys):
    # One-b reads the label b and equality: no order relation, no label a.
    orders, models = [], []
    real_order, real_embed = tensors.order_relation, cli.embed_word
    monkeypatch.setattr(tensors, "order_relation", lambda *a: orders.append(a) or real_order(*a))
    monkeypatch.setattr(cli, "embed_word", lambda *a: models.append(real_embed(*a)) or models[-1])
    assert run(["eval", "--expr", ONE_B, "--word", "abaa"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert orders == []
    (model,) = models
    assert list(model.relation_tensors) == ["a", "b", "succ"]
    assert list(model.relation_tensors.built) == ["b"]


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "def init(self, *a, **k):\n"
        "    built.append(self)\n"
        "    real(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = init\n"
        "import fotensor.cli\n"
        "print(len(built))\n"
    )
    assert _fresh_interpreter(["-c", probe]) == (0, "0\n", "")


def test_eval_trace_over_the_event_limit_exits_2(monkeypatch, capsys):
    # Eight nested existentials on "ab" trace 1 + 2 + ... + 128 = 255 events.
    monkeypatch.setattr(tensors, "MAX_TRACE_EVENTS", 100)
    expr = " ".join(f"exists x{i}." for i in range(1, 9)) + " a(x1)"
    assert run(["eval", "--trace", "--expr", expr, "--word", "ab"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds 255 events, over the limit of 100" in captured.err
    assert run(["eval", "--expr", expr, "--word", "ab"]) == 0
    assert capsys.readouterr().out == "1\n"
