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
within one parse. One parse shares one Variable per variable name and one
PredicateSymbol per predicate name among all their uses.

Tokens are the matches of one pattern, _TOKEN. The parser reads their texts
from one findall and takes each kind from the text: punctuation is its own
kind, "exists" and "forall" are keywords, and any other token must be an
identifier, starting with a letter or "_". Positions are computed only for
an error, by _tokenize over the same pattern; it raises the "unexpected
character" error first if some token is no identifier. One loop in _formula
covers the operator levels: a run of "!" before each atom, runs of "&"
joined by and_, "|" between them, and "->" recursing for its right side.
No node stands for an implication: p -> q is built as or_([Not(p), q]),
the disjunction !p | q, so every parsed formula is a plan (tensors.py).

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
    Not,
    PredicateSymbol,
    Variable,
    and_,
    or_,
)

RESERVED_BINARY = ("succ", "prec", "dom", "leftof")
_RESERVED = {name: PredicateSymbol(name, 2) for name in RESERVED_BINARY}

MAX_NESTING = 100

_KEYWORDS = ("exists", "forall")
_PUNCT = frozenset(("->", "(", ")", ",", ".", "=", "&", "|", "!"))
# The texts that are no identifier whatever their first character.
_NOT_IDENT = frozenset((*_KEYWORDS, ""))
# Each match is one token after optional whitespace: punctuation, a word, or
# any other character. \S, not ".", so that trailing whitespace matches nothing.
_TOKEN = re.compile(r"\s*(->|[(),.=&|!]|\w+|\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) for each token, then ("EOF", "", len(text)).
    Punctuation is its own kind; a word is a KEYWORD or an IDENT and must
    start with a letter or "_"."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, pos = m[1], m.start(1)
        if tok in _PUNCT:
            tokens.append((tok, tok, pos))
        elif tok[0].isalpha() or tok[0] == "_":
            tokens.append(("KEYWORD" if tok in _KEYWORDS else "IDENT", tok, pos))
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


class FormulaParser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = [*_TOKEN.findall(text), ""]  # "" ends the input
        self._pos = self._depth = 0
        self._variables: dict[str, Variable] = {}
        self._predicates = dict(_RESERVED)

    def parse(self) -> Formula:
        f = self._formula()
        if self._tokens[self._pos]:
            raise ParseError(f"unexpected trailing input {self._tokens[self._pos]!r}", self._position())
        return f

    def _position(self, k: int | None = None) -> int:
        """Position of token k, by default the current one, for an error;
        _tokenize raises first if the text has an unexpected character."""
        return _tokenize(self._text)[self._pos if k is None else k][2]

    def _open(self) -> None:
        """Enter one more level of nesting at the current token, and pass it."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"formula nested more than {MAX_NESTING} levels deep", self._position())
        self._pos += 1

    def _expect(self, what: str, punct: str = "") -> str:
        """Pass the current token and return its text, which must be punct
        or, by default, an identifier."""
        text = self._tokens[self._pos]
        ok = text == punct if punct else text not in _NOT_IDENT and (text[0].isalpha() or text[0] == "_")
        if not ok:
            raise ParseError(f"expected {what}, found {text or 'end of input'!r}", self._position())
        self._pos += 1
        return text

    def _formula(self) -> Formula:
        tokens = self._tokens
        keyword = tokens[self._pos]
        if keyword in _KEYWORDS:
            self._open()
            var = self._expect("a variable after the quantifier")
            self._expect("'.'", ".")
            body = self._formula()
            self._depth -= 1
            return (Exists if keyword == "exists" else Forall)(self._variable(var), body)
        disjuncts, conjuncts = [], []
        while True:
            start = self._pos
            while tokens[self._pos] == "!":
                self._open()
            negations = self._pos - start
            f = self._atom()
            for _ in range(negations):
                f = Not(f)
            self._depth -= negations
            conjuncts.append(f)
            text = tokens[self._pos]
            if text != "&":
                disjuncts.append(and_(conjuncts) if len(conjuncts) > 1 else conjuncts[0])
                conjuncts = []
                if text != "|":
                    break
            self._pos += 1
        left = or_(disjuncts) if len(disjuncts) > 1 else disjuncts[0]
        if text != "->":
            return left
        self._open()
        # Right-associative; the consequent may open a quantifier whose
        # scope then extends maximally right. p -> q is read as !p | q.
        right = self._formula()
        self._depth -= 1
        return or_([Not(left), right])

    def _atom(self) -> Formula:
        if self._tokens[self._pos] == "(":
            self._open()
            inner = self._formula()
            self._expect("')'", ")")
            self._depth -= 1
            return inner
        start = self._pos
        name = self._expect("a predicate or variable name")
        text = self._tokens[self._pos]
        if text == "(":
            self._pos += 1
            args = [self._expect("a variable name")]
            while self._tokens[self._pos] == ",":
                self._pos += 1
                args.append(self._expect("a variable name"))
            self._expect("')'", ")")
            arity = len(args)
            if arity > 2:
                message = f"predicate {name!r} used with {arity} arguments; relations are at most binary"
                raise ParseError(message, self._position(start))
            symbol = self._predicates.get(name)
            if symbol is None:
                symbol = self._predicates[name] = PredicateSymbol(name, arity)
            elif symbol.arity != arity:
                message = f"predicate {name!r} used with {arity} argument(s) but previously with {symbol.arity}"
                raise ArityMismatchError(f"{message} (at position {self._position(start)})")
            return Atom(symbol, tuple(map(self._variable, args)))
        if text == "=":
            self._pos += 1
            return Equal(self._variable(name), self._variable(self._expect("a variable name")))
        raise ParseError(f"expected '(' or '=' after {name!r}", self._position())

    def _variable(self, name: str) -> Variable:
        return self._variables.get(name) or self._variables.setdefault(name, Variable(name))


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a Formula AST."""
    return FormulaParser(text).parse()
