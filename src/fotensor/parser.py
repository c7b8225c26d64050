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
_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "=": "EQ",
    "&": "AMP",
    "|": "PIPE",
    "!": "BANG",
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("ARROW", "->", i))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
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
        tok = self._peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return f

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _open(self) -> None:
        """Enter one more level of nesting at the current token."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            message = f"formula nested more than {MAX_NESTING} levels deep"
            raise ParseError(message, self._peek().pos)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {found!r}", tok.pos)
        return self._advance()

    def _formula(self) -> Formula:
        tok = self._peek()
        if tok.kind == "KEYWORD":
            self._open()
            self._advance()
            var = self._expect("IDENT", "a variable after the quantifier")
            self._expect("DOT", "'.'")
            body = self._formula()
            self._depth -= 1
            ctor = Exists if tok.text == "exists" else Forall
            return ctor(self._variable(var.text), body)
        return self._implication()

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._peek().kind == "ARROW":
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
        while self._peek().kind == "PIPE":
            self._advance()
            items.append(self._conjunction())
        return or_(items) if len(items) > 1 else items[0]

    def _conjunction(self) -> Formula:
        items = [self._negation()]
        while self._peek().kind == "AMP":
            self._advance()
            items.append(self._negation())
        return and_(items) if len(items) > 1 else items[0]

    def _negation(self) -> Formula:
        if self._peek().kind == "BANG":
            self._open()
            self._advance()
            body = self._negation()
            self._depth -= 1
            return Not(body)
        return self._atom()

    def _atom(self) -> Formula:
        tok = self._peek()
        if tok.kind == "LPAREN":
            self._open()
            self._advance()
            inner = self._formula()
            self._expect("RPAREN", "')'")
            self._depth -= 1
            return inner
        name = self._expect("IDENT", "a predicate or variable name")
        nxt = self._peek()
        if nxt.kind == "LPAREN":
            self._advance()
            args = [self._expect("IDENT", "a variable name")]
            while self._peek().kind == "COMMA":
                self._advance()
                args.append(self._expect("IDENT", "a variable name"))
            self._expect("RPAREN", "')'")
            if len(args) > 2:
                raise ParseError(
                    f"predicate {name.text!r} used with {len(args)} arguments; "
                    "relations are at most binary",
                    name.pos,
                )
            arity = len(args)
            symbol = self._predicates.get(name.text) or self._predicates.setdefault(
                name.text, PredicateSymbol(name.text, arity)
            )
            if symbol.arity != arity:
                raise ArityMismatchError(
                    f"predicate {name.text!r} used with {arity} argument(s) but "
                    f"previously with {symbol.arity} (at position {name.pos})"
                )
            return Atom(symbol, tuple(self._variable(a.text) for a in args))
        if nxt.kind == "EQ":
            self._advance()
            right = self._expect("IDENT", "a variable name")
            return Equal(self._variable(name.text), self._variable(right.text))
        raise ParseError(
            f"expected '(' or '=' after {name.text!r}", nxt.pos
        )

    def _variable(self, name: str) -> Variable:
        return self._variables.get(name) or self._variables.setdefault(name, Variable(name))


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a Formula AST."""
    return FormulaParser(text).parse()
