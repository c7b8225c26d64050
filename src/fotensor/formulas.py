"""First-order formula ASTs over a relational signature.

Terms are variables only; predicates are unary or binary. Connectives are
negation, n-ary conjunction/disjunction and implication, sugar for !p | q
that :func:`prenex.to_prenex` rewrites as it converts (:func:`desugar`
rewrites only that).
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing
from dataclasses import dataclass


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name or not self.name.isascii():
            raise ValueError(f"variable name must be a nonempty ASCII token: {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise ValueError(f"predicate arity must be 1 or 2, got {self.arity}")


class Node:
    """Base class of tree nodes. A node class is a frozen dataclass; its
    subnodes are the fields annotated with a Node type, or else the one
    field annotated with a tuple of one."""


@functools.cache
def _child_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """(name, holds a tuple) for each subnode field of a node class, read
    once per class from its field annotations."""
    if not issubclass(cls, Node):
        raise TypeError(f"not a tree node: {cls.__name__}")
    hints = typing.get_type_hints(cls)
    out = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        many = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if many else hint
        if isinstance(kind, type) and issubclass(kind, Node):
            out.append((field.name, many))
    return tuple(out)


# The children() getter of each node class, made on first use.
_GETTERS: dict[type, typing.Callable[[Node], tuple[Node, ...]]] = {}


def children(node: Node) -> tuple[Node, ...]:
    """The subnodes of node, in field order."""
    try:
        get = _GETTERS[type(node)]
    except KeyError:
        get = _GETTERS[type(node)] = _child_getter(type(node))
    return get(node)


def _child_getter(cls: type) -> typing.Callable[[Node], tuple[Node, ...]]:
    """children() for one class: an attrgetter, which runs in C, wherever it
    yields the tuple, since every pass calls children() once per node."""
    fields = _child_fields(cls)
    names = [name for name, _ in fields]
    if fields and fields[0][1]:
        return operator.attrgetter(names[0])
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


def rebuild(node: Node, fn: typing.Callable[[Node], Node]) -> Node:
    """node with fn applied to each of its subnodes; node itself when fn
    returns every subnode unchanged."""
    changes = {}
    for name, many in _child_fields(type(node)):
        old = getattr(node, name)
        new = tuple(map(fn, old)) if many else fn(old)
        if any(map(operator.is_not, new, old)) if many else new is not old:
            changes[name] = new
    return dataclasses.replace(node, **changes) if changes else node


class Formula(Node):
    """Base class for formula nodes. Instances are immutable values."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: PredicateSymbol
    terms: tuple[Variable, ...]

    def __post_init__(self):
        if len(self.terms) != self.predicate.arity:
            raise ValueError(
                f"atom {self.predicate.name} expects {self.predicate.arity} "
                f"arguments, got {len(self.terms)}"
            )


@dataclass(frozen=True)
class Equal(Formula):
    left: Variable
    right: Variable


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Variable
    body: Formula


def atom(name: str, *vars: str | Variable) -> Atom:
    """Convenience constructor: ``atom("b", "x")`` for ``b(x)``."""
    terms = tuple(v if isinstance(v, Variable) else Variable(v) for v in vars)
    return Atom(PredicateSymbol(name, len(terms)), terms)


def and_(items) -> Formula:
    """N-ary conjunction; flattens nested conjunctions and drops the wrapper
    around a single item."""
    return _flatten(And, items, "conjunction")


def or_(items) -> Formula:
    """N-ary disjunction; flattens like :func:`and_`."""
    return _flatten(Or, items, "disjunction")


def _flatten(cls: type[And] | type[Or], items, what: str) -> Formula:
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, cls):
            flat.extend(f.items)
        else:
            flat.append(f)
    if not flat:
        raise ValueError(f"empty {what}")
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def free_variables(f: Formula) -> set[Variable]:
    if isinstance(f, Atom):
        return set(f.terms)
    if isinstance(f, Equal):
        return {f.left, f.right}
    out: set[Variable] = set()
    for g in children(f):
        out |= free_variables(g)
    if isinstance(f, (Exists, Forall)):
        out.discard(f.var)
    return out


def is_closed(f: Formula) -> bool:
    return not free_variables(f)


def desugar(f: Formula) -> Formula:
    """Rewrite every implication p -> q into !p | q, flattening nested
    conjunctions and disjunctions as and_/or_ do. Idempotent; free
    variables are unchanged."""
    f = rebuild(f, desugar)
    if isinstance(f, Implies):
        return or_([Not(f.left), f.right])
    if isinstance(f, (And, Or)) and type(f) in map(type, f.items):
        return (and_ if isinstance(f, And) else or_)(f.items)
    return f


def contains(f: Node, types: type | tuple[type, ...]) -> bool:
    """Whether f or a node below it is an instance of types."""
    if isinstance(f, types):
        return True
    for g in children(f):
        if contains(g, types):
            return True
    return False


def contains_quantifier(f: Formula) -> bool:
    return contains(f, (Exists, Forall))


def predicates(f: Formula) -> dict[str, int]:
    """Map every predicate name used in f to its arity."""
    if isinstance(f, Atom):
        return {f.predicate.name: f.predicate.arity}
    out: dict[str, int] = {}
    for g in children(f):
        out.update(predicates(g))
    return out


# Rendering. Levels mirror the surface grammar: -> binds loosest, then |, &, !.
# Output re-parses to the same AST (for ASTs built through and_/or_).
_IMPLIES, _OR, _AND, _NOT, _ATOM = 1, 2, 3, 4, 5


def to_text(f: Formula, level: int = 0) -> str:
    if isinstance(f, Atom):
        return f"{f.predicate.name}({', '.join(v.name for v in f.terms)})"
    if isinstance(f, Equal):
        return _wrap(f"{f.left.name} = {f.right.name}", _ATOM, level)
    if isinstance(f, Not):
        return _wrap("!" + to_text(f.body, _NOT), _NOT, level)
    if isinstance(f, And):
        return _wrap(" & ".join(to_text(g, _NOT) for g in f.items), _AND, level)
    if isinstance(f, Or):
        return _wrap(" | ".join(to_text(g, _AND) for g in f.items), _OR, level)
    if isinstance(f, Implies):
        text = f"{to_text(f.left, _OR)} -> {to_text(f.right, _IMPLIES)}"
        return _wrap(text, _IMPLIES, level)
    if isinstance(f, (Exists, Forall)):
        word = "exists" if isinstance(f, Exists) else "forall"
        text = f"{word} {f.var.name}. {to_text(f.body, 0)}"
        return f"({text})" if level > 0 else text
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, own: int, required: int) -> str:
    return f"({text})" if own < required else text
