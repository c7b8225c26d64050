"""Recursive-descent parser for the formula surface syntax.

Grammar (quantifier scope extends maximally to the right; precedence
! > & > | > ->, implication right-associative):

    formula     = quantified | implication
    quantified  = ("exists" | "forall") ident "." formula
    implication = disjunction [ "->" formula ]
    disjunction = conjunction { "|" conjunction }
    conjunction = negation { "&" negation }
    negation    = "!" negation | atom
    atom        = ident "(" ident { "," ident } ")"
                | ident "=" ident
                | "(" formula ")"

`succ`, `prec`, `dom` and `leftof` are reserved binary relation names; any
other predicate takes its arity from first use, which must stay consistent
within one parse. One parse builds one Variable per variable name and one
PredicateSymbol per predicate name, shared by every use.

Each "(", "!", quantifier and "->" opens one level of nesting until what it
scopes over ends; a formula nested deeper than MAX_NESTING levels is
rejected with a ParseError, so that no later pass runs out of stack.
"""

from __future__ import annotations

import re

from .errors import ArityMismatchError, ParseError
from .formulas import (
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    PredicateSymbol,
    Variable,
    and_,
    or_,
)

RESERVED_BINARY = ("succ", "prec", "dom", "leftof")

MAX_NESTING = 100

_KEYWORDS = ("exists", "forall")
# Each match is one token after optional whitespace: punctuation, a word, or
# any other character. \S, not ".", so that trailing whitespace matches nothing.
_TOKEN = re.compile(r"\s*(?:(->|[(),.=&|!])|(\w+)|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) for each token, then ("EOF", "", len(text)).
    Punctuation is its own kind; a word is a KEYWORD or an IDENT and must
    start with a letter or "_"."""
    tokens = []
    for m in _TOKEN.finditer(text):
        punct, word, other = m.groups()
        pos = m.start(m.lastindex)
        if punct:
            tokens.append((punct, punct, pos))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("KEYWORD" if word in _KEYWORDS else "IDENT", word, pos))
        else:
            raise ParseError(f"unexpected character {(word or other)[0]!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


class FormulaParser:
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
        """Enter one more level of nesting at the current token."""
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
            # Right-associative; the consequent may open a quantifier whose
            # scope then extends maximally right.
            right = self._formula()
            self._depth -= 1
            return Implies(left, right)
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


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a Formula AST."""
    return FormulaParser(text).parse()
