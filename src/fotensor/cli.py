"""Command-line interface.

Subcommands: eval, enumerate, compile, check. Exit codes: 0 ok, 1 for
parse/usage errors, 2 for semantic errors (free variables, unknown
predicates, bad symbols), 3 when a differential check finds a mismatch.
All evaluation work is delegated to the library; the CLI only wires
arguments and formats output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .diffcheck import run_differential_check
from .errors import FotensorError, ParseError, SemanticError, StructureFormatError
from .formulas import predicates
from .languages import LanguageSpec, enumerate_language
from .models import MODEL_KINDS, SUCC, Alphabet, load_structure
from .optimize import optimize
from .parser import parse_formula
from .tensors import compile_formula, dump_expr, embed_model, embed_word, eval_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_MISMATCH = 3


def _usage_error(prog: str, message: str) -> SystemExit:
    """Print an argparse-style error for prog; the returned exit carries the
    usage exit code."""
    print(f"{prog}: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _usage_error(self.prog, message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and its subparser by command name, built on the first
    main() call and reused after: parsing returns a fresh namespace each
    time, and argparse looks up sys.stdout/sys.stderr only when it prints."""
    parser = _ArgumentParser(prog="fotensor")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def add_formula_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--expr", help="formula text")
        group.add_argument("--formula-file", help="path to a file holding the formula")

    p_eval = sub.add_parser("eval", help="evaluate a closed formula over a word or structure")
    add_formula_source(p_eval)
    target = p_eval.add_mutually_exclusive_group(required=True)
    target.add_argument("--word", help="surface string to build the model from")
    target.add_argument("--structure", help="path to a structure JSON document")
    p_eval.add_argument("--model", choices=MODEL_KINDS, help="word order (default: succ)")
    p_eval.add_argument("--alphabet", help="model alphabet, e.g. 'abc'")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("--trace", action="store_true", help="print per-quantifier partial sums")

    p_enum = sub.add_parser("enumerate", help="list words of a formula's language")
    add_formula_source(p_enum)
    p_enum.add_argument("--model", choices=MODEL_KINDS, default="succ")
    p_enum.add_argument("--alphabet", required=True)
    p_enum.add_argument("--max-len", type=int, required=True)
    p_enum.add_argument("--count", action="store_true", help="print only the number of words")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")

    p_compile = sub.add_parser("compile", help="show the prenex form and tensor plan")
    add_formula_source(p_compile)
    p_compile.add_argument("--optimized", action="store_true", help="also show the optimized plan")
    p_compile.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="random differential test, tensor vs oracle")
    p_check.add_argument("--random", type=int, required=True, metavar="N")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    return parser, sub.choices


def _read_formula(args):
    if args.expr is not None:
        return parse_formula(args.expr)
    try:
        with open(args.formula_file, encoding="utf-8") as fh:
            return parse_formula(fh.read().strip())
    except OSError as exc:
        raise StructureFormatError(f"cannot read formula file: {exc}") from exc


def _word_alphabet(args, formula):
    if args.alphabet is not None:
        return Alphabet(args.alphabet)
    # Default: word characters plus single-character unary predicate labels.
    labels = {name for name, arity in predicates(formula).items() if arity == 1 and len(name) == 1}
    return Alphabet(sorted(set(args.word) | labels) or ["a"])


def _cmd_eval(args) -> int:
    for option in ("model", "alphabet"):
        if args.structure is not None and getattr(args, option) is not None:
            message = f"argument --{option}: not allowed with argument --structure"
            raise _usage_error("fotensor eval", message)
    formula = _read_formula(args)
    if free := formula.free_names:
        raise SemanticError(f"formula has free variables: {', '.join(sorted(free))}")
    if args.word is not None:
        embedded = embed_word(args.word, _word_alphabet(args, formula), args.model or SUCC)
    else:
        try:
            with open(args.structure, encoding="utf-8") as fh:
                embedded = embed_model(load_structure(fh.read()))
        except OSError as exc:
            raise StructureFormatError(f"cannot read structure file: {exc}") from exc
    trace = [] if args.trace else None
    # Trace events are defined on the plain plan's quantifiers.
    plan = compile_formula(formula) if args.trace else optimize(compile_formula(formula))
    value = eval_tensor(plan, embedded, trace=trace)
    if args.format == "json" and trace is None:
        # The bytes of json.dumps(doc, indent=2) without its pure-Python encoder.
        print(f'{{\n  "command": "eval",\n  "value": {value}\n}}')
    elif args.format == "json":
        trace_doc = [
            {"node": t.tag, "variable": t.variable, "bindings": dict(t.bindings), "sum": t.partial_sum}
            for t in trace
        ]
        print(json.dumps({"command": "eval", "value": value, "trace": trace_doc}, indent=2))
    else:
        print(value)
        if trace is not None:
            for t in trace:
                bound = " ".join(f"{k}={v}" for k, v in t.bindings) or "-"
                print(f"{t.tag} {t.variable}: sum={t.partial_sum} [{bound}]")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.max_len < 0:
        raise _usage_error("fotensor enumerate", "--max-len must be >= 0")
    formula = _read_formula(args)
    alphabet = Alphabet(args.alphabet)  # a bad alphabet is a usage error
    try:
        spec = LanguageSpec(formula, args.model, alphabet)
    except ValueError as exc:
        raise SemanticError(str(exc)) from exc
    words = enumerate_language(spec, args.max_len)
    if args.format == "json":
        # The bytes of json.dumps(doc, indent=2), the words encoded by the C
        # encoder, which runs only without indent: the separator puts each
        # word on its own line, as indent does.
        listed = "[\n    " + json.dumps(words, separators=(",\n    ", ": "))[1:-1] + "\n  ]" if words else "[]"
        print(f'{{\n  "command": "enumerate",\n  "count": {len(words)},\n  "words": {listed}\n}}')
    elif args.count:
        print(len(words))
    elif words:
        print("\n".join(words))
    return EXIT_OK


def _cmd_compile(args) -> int:
    formula = _read_formula(args)
    plan = compile_formula(formula)  # the prenex form
    sections = {"prenex": str(plan), "plan": dump_expr(plan)}
    if args.optimized:
        sections["optimized"] = dump_expr(optimize(plan))
    if args.format == "json":
        print(json.dumps({"command": "compile", **sections}, indent=2))
    else:
        print(f"prenex: {sections['prenex']}")
        print("plan:")
        print(sections["plan"])
        if args.optimized:
            print("optimized:")
            print(sections["optimized"])
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.random < 1:
        raise _usage_error("fotensor check", "--random must be at least 1")
    report = run_differential_check(args.random, seed=args.seed)
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


_COMMANDS = {
    "eval": _cmd_eval,
    "enumerate": _cmd_enumerate,
    "compile": _cmd_compile,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    if argv and argv[0] in commands:  # parse_args without its top-level scan
        args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, StructureFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FotensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
