"""Prenex normal form conversion.

One walk of the tree does the whole conversion. It removes implications
(p -> q becomes the disjunction !p | q), flattens nested conjunctions and
disjunctions, renames bound variables apart (fresh-name suffixing x, x1,
x2, ...), moves negations down just far enough to expose every quantifier
(!exists x G => forall x !G and dually; a negation over a quantifier-free
subtree is left in place as a whole-subformula complement), and floats the
quantifiers out in the order the walk meets them, left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Variable,
    and_,
    contains,
    contains_quantifier,
    free_names,
    or_,
    to_text,
)

EXISTS = "exists"
FORALL = "forall"


@dataclass(frozen=True)
class PrenexFormula:
    """A quantifier prefix over a quantifier-free, implication-free matrix."""

    prefix: tuple[tuple[str, Variable], ...]
    matrix: Formula

    def __post_init__(self):
        for quant, _ in self.prefix:
            if quant not in (EXISTS, FORALL):
                raise ValueError(f"bad quantifier {quant!r}")
        names = [v.name for _, v in self.prefix]
        if len(names) != len(set(names)):
            raise ValueError(f"prefix variables not distinct: {names}")
        if contains(self.matrix, (Exists, Forall, Implies)):
            what = "a quantifier" if contains_quantifier(self.matrix) else "an implication"
            raise ValueError(f"matrix contains {what}")

    def to_formula(self) -> Formula:
        f = self.matrix
        for quant, var in reversed(self.prefix):
            f = Exists(var, f) if quant == EXISTS else Forall(var, f)
        return f

    def __str__(self):
        return to_text(self.to_formula())


def to_prenex(f: Formula) -> PrenexFormula:
    """Convert f to an equivalent prenex formula.

    Equivalence holds on every finite model, the empty one included: pulling
    a quantifier out of a boolean combination preserves truth only on
    nonempty domains, so when the extracted prefix would get the
    empty-domain value wrong, a vacuous quantifier over a fresh dummy
    variable is prepended (a no-op whenever the domain is inhabited).
    """
    used = free_names(f)
    closed = not used
    prefix: list[tuple[str, Variable]] = []

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
            prefix.append((EXISTS if (t is Exists) != negated else FORALL, var))
            return walk(g.body, negated, renamed if var is g.var else {**renamed, name: var})
        if t is not And and t is not Or and t is not Implies:
            raise TypeError(f"not a formula: {g!r}")
        conjunction = t is And
        start = len(prefix)
        parts = [walk(h, negated != flip, renamed) for h, flip in _operands(g, [])]
        if negated and len(prefix) == start:
            # No quantifier below: the negation stays over the whole subtree,
            # whose parts were normalized negated and differ by one Not.
            parts = [p.body if isinstance(p, Not) else Not(p) for p in parts]
            return Not((and_ if conjunction else or_)(parts))
        return (and_ if conjunction != negated else or_)(parts)

    matrix = walk(f, False, {})
    if closed and prefix:
        want = _empty_domain_value(f)
        if want != (prefix[0][0] == FORALL):
            dummy = Variable("v" if "v" not in used else _fresh("v", used))
            prefix.insert(0, (FORALL if want else EXISTS, dummy))
    # No __post_init__: it would walk the matrix again for a quantifier or an
    # implication, which the walk never puts there, or a repeated prefix name.
    pf = object.__new__(PrenexFormula)
    pf.__dict__.update(prefix=tuple(prefix), matrix=matrix)
    return pf


def _operands(f: Formula, out: list) -> list[tuple[Formula, bool]]:
    """out extended by the operands of the conjunction, disjunction or
    implication f, as (subformula, negated) pairs: a conjunct that is a
    conjunction, or a disjunct that is a disjunction or implication, is
    replaced by its own operands, and p -> q has the disjuncts !p and q."""
    t = type(f)
    if t is Implies:
        out.append((f.left, True))
        items = (f.right,)
    else:
        items = f.items
    nested = (And,) if t is And else (Or, Implies)
    for g in items:
        if type(g) in nested:
            _operands(g, out)
        else:
            out.append((g, False))
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
    if isinstance(f, Implies):
        return not _empty_domain_value(f.left) or _empty_domain_value(f.right)
    raise ValueError(f"formula is not closed: atom {f} outside every quantifier")


def _fresh(name: str, used: set[str]) -> str:
    stem = name.rstrip("0123456789") or name
    for k in itertools.count(1):
        candidate = f"{stem}{k}"
        if candidate not in used:
            return candidate
    raise AssertionError("unreachable")
