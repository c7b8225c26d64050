"""Prenex normal form conversion.

The pipeline is: remove implications, standardize bound variables apart
(fresh-name suffixing x, x1, x2, ...), normalize negations downward
(through quantifiers: !exists x G => forall x !G and dually; a negation
over a quantifier-free subtree is left in place as a whole-subformula
complement), then float the quantifiers out left-to-right. The matrix can
optionally be reshaped into CNF or DNF, which first pushes the remaining
negations onto literals.
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
    Not,
    Or,
    Variable,
    and_,
    contains_implies,
    contains_quantifier,
    desugar,
    free_variables,
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
        if contains_quantifier(self.matrix):
            raise ValueError("matrix contains a quantifier")
        if contains_implies(self.matrix):
            raise ValueError("matrix contains an implication")

    def to_formula(self) -> Formula:
        f = self.matrix
        for quant, var in reversed(self.prefix):
            f = Exists(var, f) if quant == EXISTS else Forall(var, f)
        return f

    def __str__(self):
        return to_text(self.to_formula())


def to_prenex(f: Formula, shape: str | None = None) -> PrenexFormula:
    """Convert f to an equivalent prenex formula.

    Equivalence holds on every finite model, the empty one included: pulling
    a quantifier out of a boolean combination preserves truth only on
    nonempty domains, so when the extracted prefix would get the
    empty-domain value wrong, a vacuous quantifier over a fresh dummy
    variable is prepended (a no-op whenever the domain is inhabited).

    shape: None leaves the matrix in NNF; "cnf"/"dnf" force a clause shape;
    "auto" picks CNF under an innermost universal and DNF under an innermost
    existential.
    """
    g = desugar(f)
    used = {v.name for v in free_variables(g)}
    closed = not used
    g = _standardize(g, used)
    g = _nnf(g)
    prefix, matrix = _pull(g)
    if closed and prefix:
        want = _empty_domain_value(g)
        if want != (prefix[0][0] == FORALL):
            dummy = Variable("v" if "v" not in used else _fresh("v", used))
            prefix = [(FORALL if want else EXISTS, dummy)] + prefix
    if shape is not None:
        matrix = _shape_matrix(matrix, prefix, shape)
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
    if isinstance(f, (Atom, Equal)):
        return f
    if isinstance(f, Not):
        return Not(_standardize(f.body, used))
    if isinstance(f, And):
        return And(tuple(_standardize(g, used) for g in f.items))
    if isinstance(f, Or):
        return Or(tuple(_standardize(g, used) for g in f.items))
    if isinstance(f, (Exists, Forall)):
        var, body = f.var, f.body
        if var.name in used:
            renamed = Variable(_fresh(var.name, used))
            body = _rename_free(body, var, renamed)
            var = renamed
        used.add(var.name)
        ctor = Exists if isinstance(f, Exists) else Forall
        return ctor(var, _standardize(body, used))
    raise TypeError(f"not a desugared formula: {f!r}")


def _rename_free(f: Formula, old: Variable, new: Variable) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(new if t == old else t for t in f.terms))
    if isinstance(f, Equal):
        return Equal(new if f.left == old else f.left, new if f.right == old else f.right)
    if isinstance(f, Not):
        return Not(_rename_free(f.body, old, new))
    if isinstance(f, And):
        return And(tuple(_rename_free(g, old, new) for g in f.items))
    if isinstance(f, Or):
        return Or(tuple(_rename_free(g, old, new) for g in f.items))
    if isinstance(f, (Exists, Forall)):
        if f.var == old:
            return f
        ctor = Exists if isinstance(f, Exists) else Forall
        return ctor(f.var, _rename_free(f.body, old, new))
    raise TypeError(f"not a desugared formula: {f!r}")


def _nnf(f: Formula) -> Formula:
    """Normalize negations just far enough to expose every quantifier.

    Double negations cancel and negations flip quantifiers on the way down,
    but a negation over a quantifier-free subtree stays put: it compiles to
    a whole-subformula complement, mirroring the complement-of-a-product
    form the dissimilation study is presented in."""
    if isinstance(f, (Atom, Equal)):
        return f
    if isinstance(f, Not):
        return _nnf_negated(f.body)
    if isinstance(f, And):
        return and_(_nnf(g) for g in f.items)
    if isinstance(f, Or):
        return or_(_nnf(g) for g in f.items)
    if isinstance(f, Exists):
        return Exists(f.var, _nnf(f.body))
    if isinstance(f, Forall):
        return Forall(f.var, _nnf(f.body))
    raise TypeError(f"not a desugared formula: {f!r}")


def _nnf_negated(f: Formula) -> Formula:
    if isinstance(f, (Atom, Equal)):
        return Not(f)
    if isinstance(f, Not):
        return _nnf(f.body)
    if isinstance(f, (And, Or)):
        if not contains_quantifier(f):
            return Not(_nnf(f))
        flipped = (_nnf_negated(g) for g in f.items)
        return or_(flipped) if isinstance(f, And) else and_(flipped)
    if isinstance(f, Exists):
        return Forall(f.var, _nnf_negated(f.body))
    if isinstance(f, Forall):
        return Exists(f.var, _nnf_negated(f.body))
    raise TypeError(f"not a desugared formula: {f!r}")


def _literal_nnf(f: Formula) -> Formula:
    """Full negation normal form of a quantifier-free matrix (negations on
    literals only); the clause-shaping passes need this."""
    if isinstance(f, (Atom, Equal)):
        return f
    if isinstance(f, And):
        return and_(_literal_nnf(g) for g in f.items)
    if isinstance(f, Or):
        return or_(_literal_nnf(g) for g in f.items)
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, (Atom, Equal)):
            return f
        if isinstance(g, Not):
            return _literal_nnf(g.body)
        if isinstance(g, And):
            return or_(_literal_nnf(Not(h)) for h in g.items)
        if isinstance(g, Or):
            return and_(_literal_nnf(Not(h)) for h in g.items)
    raise TypeError(f"not a quantifier-free matrix: {f!r}")


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


def _shape_matrix(matrix: Formula, prefix, shape: str) -> Formula:
    if shape == "auto":
        if not prefix:
            return matrix
        shape = "cnf" if prefix[-1][0] == FORALL else "dnf"
    matrix = _literal_nnf(matrix)
    if shape == "cnf":
        return and_(or_(clause) for clause in _clauses(matrix, inner=Or))
    if shape == "dnf":
        return or_(and_(clause) for clause in _clauses(matrix, inner=And))
    raise ValueError(f"unknown matrix shape {shape!r}")


def _clauses(f: Formula, inner) -> list[list[Formula]]:
    """Clause lists for CNF (inner=Or) or DNF (inner=And) of an NNF matrix."""
    outer = And if inner is Or else Or
    if isinstance(f, outer):
        out: list[list[Formula]] = []
        for g in f.items:
            out.extend(_clauses(g, inner))
        return out
    if isinstance(f, inner):
        parts = [_clauses(g, inner) for g in f.items]
        out = []
        for combo in itertools.product(*parts):
            merged: list[Formula] = []
            for clause in combo:
                merged.extend(clause)
            out.append(merged)
        return out
    return [[f]]
