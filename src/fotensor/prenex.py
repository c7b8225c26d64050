"""Prenex normal form conversion.

The pipeline is: remove implications and standardize bound variables
apart (fresh-name suffixing x, x1, x2, ...) in one rebuild of the tree,
normalize negations downward (through quantifiers: !exists x G => forall x
!G and dually; a negation over a quantifier-free subtree is left in place
as a whole-subformula complement), then float the quantifiers out
left-to-right.
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
    desugar_step,
    free_variables,
    or_,
    rebuild,
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
    used = {v.name for v in free_variables(f)}
    closed = not used
    g = _standardize(f, used)
    prefix, matrix = _pull(_nnf(g)[0])
    if closed and prefix:
        want = _empty_domain_value(g)
        if want != (prefix[0][0] == FORALL):
            dummy = Variable("v" if "v" not in used else _fresh("v", used))
            prefix = [(FORALL if want else EXISTS, dummy)] + prefix
    return PrenexFormula(tuple(prefix), matrix)


def _empty_domain_value(f: Formula) -> bool:
    """Truth of a closed, desugared formula over the empty domain.

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


def _standardize(f: Formula, used: set[str]) -> Formula:
    """f with implications removed and every bound variable renamed apart
    from the names in used, which collects them; one rebuild of the tree."""

    def visit(g: Formula) -> Formula:
        if isinstance(g, (Exists, Forall)):
            if g.var.name in used:
                renamed = Variable(_fresh(g.var.name, used))
                g = type(g)(renamed, _rename_free(g.body, g.var, renamed))
            used.add(g.var.name)
            return rebuild(g, visit)
        return desugar_step(rebuild(g, visit))

    return visit(f)


def _rename_free(f: Formula, old: Variable, new: Variable) -> Formula:
    def visit(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(new if t == old else t for t in g.terms))
        if isinstance(g, Equal):
            return Equal(new if g.left == old else g.left, new if g.right == old else g.right)
        if isinstance(g, (Exists, Forall)) and g.var == old:
            return g
        return rebuild(g, visit)

    return visit(f)


def _nnf(f: Formula, negated: bool = False) -> tuple[Formula, bool]:
    """Normalize negations (of f, or of !f when negated) just far enough to
    expose every quantifier; also returns whether the result has one.

    Double negations cancel and negations flip quantifiers on the way down,
    but a negation over a quantifier-free subtree stays put: it compiles to
    a whole-subformula complement, mirroring the complement-of-a-product
    form the dissimilation study is presented in. Each node is visited once:
    the subtree's normal form is rebuilt from its negated children's."""
    if isinstance(f, (Atom, Equal)):
        return (Not(f) if negated else f), False
    if isinstance(f, Not):
        return _nnf(f.body, not negated)
    if isinstance(f, (Exists, Forall)):
        body, _ = _nnf(f.body, negated)
        exists = isinstance(f, Exists) != negated
        return (Exists if exists else Forall)(f.var, body), True
    if isinstance(f, (And, Or)):
        parts = [_nnf(g, negated) for g in f.items]
        quantified = any(q for _, q in parts)
        if negated and not quantified:
            combine = and_ if isinstance(f, And) else or_
            return Not(combine(_unnegated(g) for g, _ in parts)), False
        combine = and_ if isinstance(f, And) != negated else or_
        return combine(g for g, _ in parts), quantified
    raise TypeError(f"not a desugared formula: {f!r}")


def _unnegated(f: Formula) -> Formula:
    """The normal form of a quantifier-free g, given f, the normal form of
    !g: the two differ by one negation at the top."""
    return f.body if isinstance(f, Not) else Not(f)


def _pull(f: Formula) -> tuple[list[tuple[str, Variable]], Formula]:
    if isinstance(f, (Atom, Equal, Not)):
        return [], f
    if isinstance(f, (And, Or)):
        prefix: list[tuple[str, Variable]] = []
        matrices: list[Formula] = []
        for g in f.items:
            p, m = _pull(g)
            prefix.extend(p)
            matrices.append(m)
        combine = and_ if isinstance(f, And) else or_
        return prefix, combine(matrices)
    if isinstance(f, (Exists, Forall)):
        quant = EXISTS if isinstance(f, Exists) else FORALL
        p, m = _pull(f.body)
        return [(quant, f.var)] + p, m
    raise TypeError(f"not an NNF formula: {f!r}")

