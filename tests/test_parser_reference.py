"""The parser against the recursive-descent parser it replaced.

The reference is the old parser, one method per operator level
(implication, disjunction, conjunction, negation), reading the
(kind, text, position) tuples of `_tokenize` up front; the tokenizer itself
is pinned against its own reference in test_tokenizer_reference.py. Every
input must give the same AST, or the same error class, message and position.
"""

import collections
import random
import re

from conftest import traversal_corpus
from fotensor.errors import ArityMismatchError, ParseError
from fotensor.formulas import (
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    PredicateSymbol,
    Variable,
    and_,
    or_,
)
from fotensor.parser import MAX_NESTING, RESERVED_BINARY, _tokenize, parse_formula

# --- reference parser -------------------------------------------------------


class ReferenceParser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._depth = 0
        self._variables: dict[str, Variable] = {}
        self._predicates = {name: PredicateSymbol(name, 2) for name in RESERVED_BINARY}

    def parse(self) -> Formula:
        f = self._formula()
        kind, text, pos = self._peek()
        if kind != "EOF":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return f

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._pos]

    def _at(self, kind: str) -> bool:
        return self._tokens[self._pos][0] == kind

    def _advance(self) -> tuple[str, str, int]:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _open(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            message = f"formula nested more than {MAX_NESTING} levels deep"
            raise ParseError(message, self._peek()[2])

    def _expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if not self._at(kind):
            _, text, pos = self._peek()
            raise ParseError(f"expected {what}, found {text or 'end of input'!r}", pos)
        return self._advance()

    def _formula(self) -> Formula:
        if self._at("KEYWORD"):
            self._open()
            _, keyword, _ = self._advance()
            _, var, _ = self._expect("IDENT", "a variable after the quantifier")
            self._expect(".", "'.'")
            body = self._formula()
            self._depth -= 1
            ctor = Exists if keyword == "exists" else Forall
            return ctor(self._variable(var), body)
        return self._implication()

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._at("->"):
            self._open()
            self._advance()
            right = self._formula()
            self._depth -= 1
            return or_([Not(left), right])
        return left

    def _disjunction(self) -> Formula:
        items = [self._conjunction()]
        while self._at("|"):
            self._advance()
            items.append(self._conjunction())
        return or_(items) if len(items) > 1 else items[0]

    def _conjunction(self) -> Formula:
        items = [self._negation()]
        while self._at("&"):
            self._advance()
            items.append(self._negation())
        return and_(items) if len(items) > 1 else items[0]

    def _negation(self) -> Formula:
        if self._at("!"):
            self._open()
            self._advance()
            body = self._negation()
            self._depth -= 1
            return Not(body)
        return self._atom()

    def _atom(self) -> Formula:
        if self._at("("):
            self._open()
            self._advance()
            inner = self._formula()
            self._expect(")", "')'")
            self._depth -= 1
            return inner
        _, name, pos = self._expect("IDENT", "a predicate or variable name")
        if self._at("("):
            self._advance()
            args = [self._expect("IDENT", "a variable name")[1]]
            while self._at(","):
                self._advance()
                args.append(self._expect("IDENT", "a variable name")[1])
            self._expect(")", "')'")
            if len(args) > 2:
                raise ParseError(
                    f"predicate {name!r} used with {len(args)} arguments; "
                    "relations are at most binary",
                    pos,
                )
            arity = len(args)
            symbol = self._predicates.get(name) or self._predicates.setdefault(
                name, PredicateSymbol(name, arity)
            )
            if symbol.arity != arity:
                raise ArityMismatchError(
                    f"predicate {name!r} used with {arity} argument(s) but "
                    f"previously with {symbol.arity} (at position {pos})"
                )
            return Atom(symbol, tuple(map(self._variable, args)))
        if self._at("="):
            self._advance()
            _, right, _ = self._expect("IDENT", "a variable name")
            return Equal(self._variable(name), self._variable(right))
        raise ParseError(f"expected '(' or '=' after {name!r}", self._peek()[2])

    def _variable(self, name: str) -> Variable:
        return self._variables.get(name) or self._variables.setdefault(name, Variable(name))


def reference_parse(text: str) -> Formula:
    return ReferenceParser(text).parse()


def _outcome(parse, text):
    """("ok", the AST), or the error's class, message and position."""
    try:
        return ("ok", parse(text))
    except (ParseError, ArityMismatchError) as err:
        return (type(err), str(err), getattr(err, "position", None))


# --- inputs -----------------------------------------------------------------

# Tokens to insert: every punctuation, both keywords, names of each arity,
# reserved names, and tokens that are no punctuation and no identifier.
_INSERTS = [
    "(", ")", ",", ".", "=", "&", "|", "!", "->", "exists", "forall",
    "x", "y", "z", "a", "b", "succ", "prec", "p", "2", "-", "#",
    "a(x) &", "x = y |", "!", ", z", "a(x, y) ->", "succ(x) ->",
]


def mutated_texts(rng: random.Random, count: int) -> list[str]:
    """count corpus texts, each with one or two tokens deleted or inserted
    at random, rejoined by single spaces."""
    corpus = [str(f) for f in traversal_corpus()]
    out = []
    for _ in range(count):
        tokens = [text for _, text, _ in _tokenize(rng.choice(corpus))[:-1]]
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                del tokens[rng.randrange(len(tokens))]
            else:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(_INSERTS))
        out.append(" ".join(tokens))
    return out


def nested_texts() -> list[str]:
    """For each kind that opens a level, "(", "!", a quantifier and "->":
    99, 100 and 101 levels (under one outer quantifier), then 150 levels
    of it side by side, which close again, each within one conjunct."""
    kinds = [
        lambda n: "exists x. " + "(" * (n - 1) + "a(x)" + ")" * (n - 1),
        lambda n: "exists x. " + "!" * (n - 1) + "a(x)",
        lambda n: "exists x. " * n + "a(x)",
        lambda n: "exists x. " + "a(x) -> " * (n - 1) + "a(x)",
    ]
    siblings = ["(a(x))", "!a(x)", "(exists y. a(y))", "(a(x) -> a(x))"]
    deep = [nested(n) for nested in kinds for n in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)]
    return deep + ["exists x. " + " & ".join([sibling] * 150) for sibling in siblings]


# --- tests ------------------------------------------------------------------


def test_traversal_corpus_parses_as_the_reference():
    for f in traversal_corpus():
        text = str(f)
        assert parse_formula(text) == reference_parse(text) == f


def test_mutated_texts_parse_as_the_reference():
    kinds = collections.Counter()
    for text in mutated_texts(random.Random(20261019), 2000):
        got = _outcome(parse_formula, text)
        assert got == _outcome(reference_parse, text), text
        kinds[got[0] if got[0] == "ok" else re.sub(r"'[^']*'|\d+", "_", got[1])] += 1
    # Every outcome is exercised: each error message with any quoted text
    # and number blanked, and a parse that succeeds.
    assert set(kinds) == {
        "ok",
        "unexpected character _ (at position _)",
        "unexpected trailing input _ (at position _)",
        "expected _, found _ (at position _)",
        "expected a variable after the quantifier, found _ (at position _)",
        "expected a predicate or variable name, found _ (at position _)",
        "expected a variable name, found _ (at position _)",
        "expected _ or _ after _ (at position _)",
        "predicate _ used with _ arguments; relations are at most binary (at position _)",
        "predicate _ used with _ argument(s) but previously with _ (at position _)",
    }, kinds


def test_nesting_parses_as_the_reference():
    outcomes = [_outcome(parse_formula, text) for text in nested_texts()]
    assert outcomes == [_outcome(reference_parse, text) for text in nested_texts()]
    # 99 and 100 levels parse, 101 are refused, and levels side by side parse.
    assert [got[0] == "ok" for got in outcomes] == [True, True, False] * 4 + [True] * 4
