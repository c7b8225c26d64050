"""First-order formula ASTs over a relational signature.

Terms are variables only; predicates are unary or binary. Connectives are
negation and n-ary conjunction and disjunction; the parser reads the
implication p -> q as the disjunction !p | q, so no node stands for it.
Every formula is also an evaluation plan (see tensors.py).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be nonempty")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise ValueError(f"predicate arity must be 1 or 2, got {self.arity}")


class cached:
    """functools.cached_property without the lock that Python before 3.12
    takes at each first access: the value is kept in the instance __dict__."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, node, cls=None):
        return self if node is None else node.__dict__.setdefault(self.name, self.method(node))


class Formula:
    """Base class of formula nodes, which are also plan nodes (see
    tensors.py). A node class is a frozen dataclass whose children() lists
    its formula-valued fields in field order; free_names is kept per node."""

    def __str__(self):
        return to_text(self)

    def children(self) -> tuple[Formula, ...]:
        """The subformulas, in field order."""
        return ()

    def __getstate__(self):
        """The fields alone, for pickling: cached values are rebuilt on use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached
    def free_names(self) -> frozenset[str]:
        """Names of the free variables of the formula rooted here, computed
        once per node from its fields: by default, its children's names."""
        kids = self.children()
        return kids[0].free_names if len(kids) == 1 else frozenset().union(*[k.free_names for k in kids])


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

    @cached
    def free_names(self):
        return frozenset([v.name for v in self.terms])


@dataclass(frozen=True)
class Equal(Formula):
    left: Variable
    right: Variable

    @cached
    def free_names(self):
        return frozenset((self.left.name, self.right.name))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty conjunction")

    def children(self):
        return self.items


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty disjunction")

    def children(self):
        return self.items


@dataclass(frozen=True)
class Exists(Formula):
    var: Variable
    body: Formula

    def children(self):
        return (self.body,)

    @cached
    def free_names(self):
        return self.body.free_names - {self.var.name}


@dataclass(frozen=True)
class Forall(Formula):
    var: Variable
    body: Formula

    def children(self):
        return (self.body,)

    free_names = Exists.free_names


def atom(name: str, *vars: str | Variable) -> Atom:
    """Convenience constructor: ``atom("b", "x")`` for ``b(x)``."""
    terms = tuple(v if isinstance(v, Variable) else Variable(v) for v in vars)
    return Atom(PredicateSymbol(name, len(terms)), terms)


def and_(items) -> Formula:
    """N-ary conjunction; flattens nested conjunctions and drops the wrapper
    around a single item."""
    return _flatten(And, items)


def or_(items) -> Formula:
    """N-ary disjunction; flattens like :func:`and_`."""
    return _flatten(Or, items)


def _flatten(cls: type[And] | type[Or], items) -> Formula:
    flat: list[Formula] = []
    for f in items:
        if type(f) is cls:
            flat.extend(f.items)
        else:
            flat.append(f)
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def free_variables(f: Formula) -> set[Variable]:
    return set(map(Variable, f.free_names))


def predicates(f: Formula) -> dict[str, int]:
    """Map every predicate name used in f to its arity."""
    if isinstance(f, Atom):
        return {f.predicate.name: f.predicate.arity}
    out: dict[str, int] = {}
    for g in f.children():
        out.update(predicates(g))
    return out


# Rendering. Levels mirror the surface grammar: | binds loosest, then &, !.
# Output re-parses to the same AST (for ASTs built through and_/or_).
_OR, _AND, _NOT, _ATOM = 1, 2, 3, 4


def to_text(f: Formula, level: int = 0) -> str:
    t = type(f)
    if t is Atom:
        return f"{f.predicate.name}({', '.join([v.name for v in f.terms])})"
    if t is Equal:
        return _wrap(f"{f.left.name} = {f.right.name}", _ATOM, level)
    if t is Not:
        return _wrap("!" + to_text(f.body, _NOT), _NOT, level)
    if t is And:
        return _wrap(" & ".join([to_text(g, _NOT) for g in f.items]), _AND, level)
    if t is Or:
        return _wrap(" | ".join([to_text(g, _AND) for g in f.items]), _OR, level)
    if t is Exists or t is Forall:
        text = f"{'exists' if t is Exists else 'forall'} {f.var.name}. {to_text(f.body, 0)}"
        return f"({text})" if level > 0 else text
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, own: int, required: int) -> str:
    return f"({text})" if own < required else text
