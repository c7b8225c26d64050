"""Rewriting of evaluation plans into contractions.

Each maximal run of like quantifiers becomes one Contract node over all of
its variables:

  * a run of exists-sums over a body becomes the contraction of the body's
    factors, min1(sum over the run's variables of their product);
  * a run of forall-duals becomes the complement of the contraction of the
    factors of the negated body, 1 - min1(sum of the product of !body).

The negation is pushed through products, sums, complements and literals by
De Morgan's laws, which hold on 0/1 values; any other node is complemented
as a whole. Dropping the clamps between the quantifiers of a run is exact:
all values are nonnegative integers, so min1(sum_i min1(x_i)) and
min1(sum_i x_i) agree. Rewrites never change evaluation results; the test
suite checks this per pattern and on random plans.
"""

from __future__ import annotations

import dataclasses

from .formulas import rebuild
from .tensors import (
    Complement,
    Contract,
    DualSumOverDomain,
    EqApply,
    Min1Sum,
    Min1SumOverDomain,
    Product,
    RelApply,
    TensorExpr,
)


def optimize(e: TensorExpr) -> TensorExpr:
    if not isinstance(e, (Min1SumOverDomain, DualSumOverDomain)):
        return rebuild(e, optimize)
    kind, bound = type(e), []
    while isinstance(e, kind):
        bound.append(e.var)
        e = e.body
    if kind is Min1SumOverDomain:
        return Contract(tuple(bound), _factors(optimize(e)))
    return Complement(Contract(tuple(bound), _factors(_negate(e))))


def _factors(e: TensorExpr) -> tuple[TensorExpr, ...]:
    return e.factors if isinstance(e, Product) else (e,)


def _negate(e: TensorExpr) -> TensorExpr:
    """The optimized plan of the complement of e, by De Morgan's laws."""
    if isinstance(e, (RelApply, EqApply)):
        return dataclasses.replace(e, negated=not e.negated)
    if isinstance(e, Complement):
        return optimize(e.body)
    if isinstance(e, Product):
        return Min1Sum(tuple(map(_negate, e.factors)))
    if isinstance(e, Min1Sum):
        return Product(tuple(map(_negate, e.terms)))
    return Complement(optimize(e))
