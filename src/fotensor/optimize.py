"""The planner: rewriting of evaluation plans into contractions.

Each maximal run of like quantifiers becomes one Contract node over all of
its variables: a run of exists-sums the contraction of the body's factors,
and a run of forall-duals the complement of the contraction of the factors
of !body, with negations pushed inward by De Morgan's laws (exact on 0/1
values). Dropping the clamps inside a run is exact too: on nonnegative
integers min1(sum_i min1(x_i)) = min1(sum_i x_i). Contract.order plans the
summation, lazily, per node. Only the quantifier prefix is walked: a
compiled plan is prenex, so the matrix below it is kept as it is, and so is
any node other than a quantifier (with a hand-built quantifier under it).

Miniscoping keeps in the contraction only the parts of the body in which a
variable of the run is free. The factors of an exists run's product (terms
of a forall run's sum) that ignore the run always stay outside; the terms
of an exists run's sum (factors of a forall run's product) only below an
enclosing variable, since on an empty domain an exists is 0 and a forall 1
whatever the body. Rewrites never change evaluation results; the test
suite checks this per pattern and on random plans.
"""

from __future__ import annotations

from .formulas import children
from .tensors import (
    Complement,
    Contract,
    DualSumOverDomain,
    Min1Sum,
    Min1SumOverDomain,
    Product,
    TensorExpr,
)


def optimize(e: TensorExpr) -> TensorExpr:
    return _plan(e, False)


def _plan(e: TensorExpr, nonempty: bool) -> TensorExpr:
    """The planned form of e, evaluated only on nonempty domains if nonempty."""
    if not isinstance(e, (Min1SumOverDomain, DualSumOverDomain)):
        return e
    kind, bound = type(e), []
    while isinstance(e, kind):
        bound.append(e.var)
        e = e.body
    return _block(tuple(bound), _plan(e, True), nonempty, kind is Min1SumOverDomain)


def _block(bound: tuple, body: TensorExpr, nonempty: bool, exists: bool) -> TensorExpr:
    """The planned form of the run (exists or forall) bound. body, with the
    parts of body that use none of bound outside the contraction."""
    always, guarded = (Product, Min1Sum) if exists else (Min1Sum, Product)
    kind = guarded if nonempty and isinstance(body, guarded) else always
    parts, inside, outside = _parts(body, kind), [], []
    for p in parts:
        # A lone part stays inside even if it ignores the run (counted N^k times).
        (outside if len(parts) > 1 and p.variables.isdisjoint(bound) else inside).append(p)
    if not inside and nonempty:
        return body
    inner = _join(kind, inside)
    block = Contract(bound, _parts(inner if exists else _negate(inner), Product))
    return _join(kind, outside + [block if exists else Complement(block)])


def _parts(e: TensorExpr, kind: type) -> tuple[TensorExpr, ...]:
    """The factors (kind Product) or terms (kind Min1Sum) of e."""
    return children(e) if isinstance(e, kind) else (e,)


def _join(kind: type, parts) -> TensorExpr:
    """The flattened product or sum (kind) of the parts; one part stands alone."""
    flat = []
    for p in parts:
        flat.extend(_parts(p, kind))
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def _negate(e: TensorExpr) -> TensorExpr:
    """The complement of the planned plan e, by De Morgan's laws."""
    if isinstance(e, Complement):
        return e.body
    if isinstance(e, Product):
        return _join(Min1Sum, map(_negate, e.factors))
    if isinstance(e, Min1Sum):
        return _join(Product, map(_negate, e.terms))
    return Complement(e)
