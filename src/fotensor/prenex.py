"""Prenex normal form conversion.

One walk of the tree does the whole conversion. It flattens nested
conjunctions and disjunctions, renames bound variables apart (fresh-name
suffixing x, x1, x2, ...), moves negations down just far enough to expose
every quantifier (!exists x G => forall x !G and dually; a negation over a
quantifier-free subtree is left in place as a whole-subformula
complement), and floats the quantifiers out in the order the walk meets
them, left to right. The result is a formula: the quantifier chain over
the matrix.
"""

from __future__ import annotations

import itertools

from .formulas import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Variable,
    and_,
    or_,
)


def to_prenex(f: Formula) -> Formula:
    """Convert f to an equivalent prenex formula: a chain of Exists and
    Forall, its variables distinct, over a matrix with no quantifier.

    Equivalence holds on every finite model, the empty one included: pulling
    a quantifier out of a boolean combination preserves truth only on
    nonempty domains, so when the extracted prefix would get the
    empty-domain value wrong, a vacuous quantifier over a fresh dummy
    variable is prepended (a no-op whenever the domain is inhabited).
    """
    used = set(f.free_names)
    closed = not used
    prefix: list[tuple[type[Exists] | type[Forall], Variable]] = []

    def walk(g: Formula, negated: bool, renamed: dict[str, Variable]) -> Formula:
        """The matrix of g, or of !g when negated; appends g's quantifiers,
        renamed apart, to prefix in pre-order. renamed maps the source name
        of each renamed binder in scope to its new variable; a binder that
        keeps its name needs no entry, as its name was never met before."""
        t = type(g)
        if t is Atom:
            if renamed:
                g = Atom(g.predicate, tuple(renamed.get(v.name, v) for v in g.terms))
            return Not(g) if negated else g
        if t is Equal:
            if renamed:
                g = Equal(renamed.get(g.left.name, g.left), renamed.get(g.right.name, g.right))
            return Not(g) if negated else g
        if t is Not:
            return walk(g.body, not negated, renamed)
        if t is Exists or t is Forall:
            name = g.var.name
            var = Variable(_fresh(name, used)) if name in used else g.var
            used.add(var.name)
            prefix.append((Exists if (t is Exists) != negated else Forall, var))
            return walk(g.body, negated, renamed if var is g.var else {**renamed, name: var})
        if t is not And and t is not Or:
            raise TypeError(f"not a formula: {g!r}")
        conjunction = t is And
        start = len(prefix)
        parts = [walk(h, negated, renamed) for h in _operands(g, [])]
        if negated and len(prefix) == start:
            # No quantifier below: the negation stays over the whole subtree,
            # whose parts were normalized negated and differ by one Not.
            parts = [p.body if isinstance(p, Not) else Not(p) for p in parts]
            return Not((and_ if conjunction else or_)(parts))
        return (and_ if conjunction != negated else or_)(parts)

    out = walk(f, False, {})
    if closed and prefix:
        want = _empty_domain_value(f)
        if want != (prefix[0][0] is Forall):
            dummy = Variable("v" if "v" not in used else _fresh("v", used))
            prefix.insert(0, (Forall if want else Exists, dummy))
    for quantifier, var in reversed(prefix):
        out = quantifier(var, out)
    return out


def _operands(f: And | Or, out: list) -> list[Formula]:
    """out extended by the operands of the conjunction or disjunction f: an
    operand of f's own class is replaced by its own operands."""
    for g in f.items:
        if type(g) is type(f):
            _operands(g, out)
        else:
            out.append(g)
    return out


def _empty_domain_value(f: Formula) -> bool:
    """Truth of a closed formula over the empty domain.

    Every quantified subformula collapses to a constant there, so the value
    never depends on any atom."""
    if isinstance(f, Exists):
        return False
    if isinstance(f, Forall):
        return True
    if isinstance(f, Not):
        return not _empty_domain_value(f.body)
    if isinstance(f, And):
        return all(_empty_domain_value(g) for g in f.items)
    if isinstance(f, Or):
        return any(_empty_domain_value(g) for g in f.items)
    raise ValueError(f"formula is not closed: atom {f} outside every quantifier")


def _fresh(name: str, used: set[str]) -> str:
    stem = name.rstrip("0123456789") or name
    for k in itertools.count(1):
        candidate = f"{stem}{k}"
        if candidate not in used:
            return candidate
    raise AssertionError("unreachable")
