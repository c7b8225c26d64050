"""First-order formula ASTs over a relational signature.

Terms are variables only; predicates are unary or binary. Connectives are
negation, n-ary conjunction/disjunction and implication (which is sugar and
removed by :func:`desugar` before any downstream processing).
"""

from __future__ import annotations

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


class Formula:
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
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, And):
            flat.extend(f.items)
        else:
            flat.append(f)
    if not flat:
        raise ValueError("empty conjunction")
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(items) -> Formula:
    """N-ary disjunction; flattens like :func:`and_`."""
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, Or):
            flat.extend(f.items)
        else:
            flat.append(f)
    if not flat:
        raise ValueError("empty disjunction")
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def free_variables(f: Formula) -> set[Variable]:
    if isinstance(f, Atom):
        return set(f.terms)
    if isinstance(f, Equal):
        return {f.left, f.right}
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or)):
        out: set[Variable] = set()
        for g in f.items:
            out |= free_variables(g)
        return out
    if isinstance(f, Implies):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_closed(f: Formula) -> bool:
    return not free_variables(f)


def desugar(f: Formula) -> Formula:
    """Rewrite every implication p -> q into !p | q. Idempotent; free
    variables are unchanged."""
    if isinstance(f, (Atom, Equal)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.body))
    if isinstance(f, And):
        return and_(desugar(g) for g in f.items)
    if isinstance(f, Or):
        return or_(desugar(g) for g in f.items)
    if isinstance(f, Implies):
        return or_([Not(desugar(f.left)), desugar(f.right)])
    if isinstance(f, Exists):
        return Exists(f.var, desugar(f.body))
    if isinstance(f, Forall):
        return Forall(f.var, desugar(f.body))
    raise TypeError(f"not a formula: {f!r}")


def contains_implies(f: Formula) -> bool:
    if isinstance(f, Implies):
        return True
    if isinstance(f, (Atom, Equal)):
        return False
    if isinstance(f, Not):
        return contains_implies(f.body)
    if isinstance(f, (And, Or)):
        return any(contains_implies(g) for g in f.items)
    if isinstance(f, (Exists, Forall)):
        return contains_implies(f.body)
    raise TypeError(f"not a formula: {f!r}")


def contains_quantifier(f: Formula) -> bool:
    if isinstance(f, (Exists, Forall)):
        return True
    if isinstance(f, (Atom, Equal)):
        return False
    if isinstance(f, Not):
        return contains_quantifier(f.body)
    if isinstance(f, (And, Or)):
        return any(contains_quantifier(g) for g in f.items)
    if isinstance(f, Implies):
        return contains_quantifier(f.left) or contains_quantifier(f.right)
    raise TypeError(f"not a formula: {f!r}")


def predicates(f: Formula) -> dict[str, int]:
    """Map every predicate name used in f to its arity."""
    out: dict[str, int] = {}

    def walk(g: Formula):
        if isinstance(g, Atom):
            out[g.predicate.name] = g.predicate.arity
        elif isinstance(g, Equal):
            pass
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for h in g.items:
                walk(h)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
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
