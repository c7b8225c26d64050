"""The planner: rewriting of evaluation plans into contractions.

Each maximal run of like quantifiers, Exists or Forall, becomes one
Contract node over all of its variables: a run of Exists the contraction
of the body's factors, and a run of Forall the complement of the
contraction of the factors of !body, with negations pushed inward by De
Morgan's laws (exact on 0/1 values). Dropping the clamps inside a run is
exact too: on nonnegative integers min1(sum_i min1(x_i)) = min1(sum_i x_i).
Lowering orders each contraction once per plan (Contract.plan). Only the
quantifier prefix is walked: a compiled plan is prenex, so the matrix
below it is kept as it is, and so is any node other than a quantifier
(with a hand-built quantifier under it).

Miniscoping keeps in the contraction only the parts of the body in which a
variable of the run is free. The conjuncts of an Exists run's body (the
disjuncts of a Forall run's) that ignore the run always stay outside; the
disjuncts of an Exists run's body (the conjuncts of a Forall run's) only
below an enclosing variable, since on an empty domain an exists is 0 and a
forall 1 whatever the body. Rewrites never change evaluation results; the
test suite checks this per pattern and on random plans.
"""

from __future__ import annotations

from .formulas import And, Exists, Forall, Formula, Not, Or, and_, or_
from .tensors import Contract


def optimize(e: Formula) -> Formula:
    return _plan(e, False)


def _plan(e: Formula, nonempty: bool) -> Formula:
    """The planned form of e, evaluated only on nonempty domains if nonempty."""
    if not isinstance(e, (Exists, Forall)):
        return e
    kind, bound = type(e), {}
    while isinstance(e, kind):
        bound[e.var.name] = e.var  # one binder per name: the inner one shadows the outer
        e = e.body
    return _block(tuple(bound.values()), _plan(e, True), nonempty, kind is Exists)


def _block(bound: tuple, body: Formula, nonempty: bool, exists: bool) -> Formula:
    """The planned form of the run (exists or forall) bound. body, with the
    parts of body that use none of bound outside the contraction."""
    always, guarded = (And, Or) if exists else (Or, And)
    kind = guarded if nonempty and isinstance(body, guarded) else always
    join = and_ if kind is And else or_
    parts, inside, outside = _parts(body, kind), [], []
    for p in parts:
        # A lone part stays inside even if it ignores the run (counted N^k times).
        (outside if len(parts) > 1 and p.free_names.isdisjoint(v.name for v in bound) else inside).append(p)
    if not inside and nonempty:
        return body
    factors = ()  # With no part inside, the block is the run alone: 1 on a nonempty domain.
    if inside:
        inner = join(inside)
        factors = _parts(inner if exists else _negate(inner), And)
    block = Contract(bound, factors)
    return join(outside + [block if exists else Not(block)])


def _parts(e: Formula, kind: type) -> tuple[Formula, ...]:
    """The conjuncts (kind And) or disjuncts (kind Or) of e."""
    return e.children() if isinstance(e, kind) else (e,)


def _negate(e: Formula) -> Formula:
    """The complement of the planned plan e, by De Morgan's laws."""
    if isinstance(e, Not):
        return e.body
    if isinstance(e, And):
        return or_(map(_negate, e.items))
    if isinstance(e, Or):
        return and_(map(_negate, e.items))
    return Not(e)
