"""Algebraic rewriting of evaluation plans into closed matrix forms.

Basis iteration is replaced by inner products wherever a quantifier matches
one of these patterns; anything else is returned unchanged (children may
still be rewritten):

  * exists-sum over a body that is componentwise expressible as a length-N
    vector in the bound variable, e.g. min1(sum_i b_i) becomes
    min1(1 . R_b);
  * a pair of exists-sums over a conjunction of literals in the two bound
    variables with at most one cross literal, folded into a bilinear form
    min1(u . B w);
  * forall-dual over a vectorizable body, folded through its dual
    1 - min1(1 . (1 - v)).

Dropping the inner clamp when folding nested sums is exact here: all
component values are nonnegative integers, so min1(sum_i min1(x_i)) and
min1(sum_i x_i) agree. Rewrites never change evaluation results; the test
suite checks this per pattern and on random plans.
"""

from __future__ import annotations

from .formulas import Variable, rebuild
from .tensors import (
    BasisVec,
    Complement,
    ComplementVec,
    DiagVec,
    DualSumOverDomain,
    EqApply,
    HadamardVec,
    IdentityMat,
    MatExpr,
    MatVec,
    Min1Dot,
    Min1Sum,
    Min1SumOverDomain,
    Min1Vec,
    OnesMat,
    OnesVec,
    Product,
    RelApply,
    RelMat,
    RelVec,
    ScaleVec,
    TensorExpr,
    VecAdd,
    VecExpr,
)


def optimize(e: TensorExpr) -> TensorExpr:
    if not isinstance(e, TensorExpr):
        return e  # a vector or matrix node is a closed form already
    pair = _fold_pair(e)
    if pair is not None:
        return pair
    e = rebuild(e, optimize)
    if isinstance(e, Min1SumOverDomain):
        vec = _body_vector(e.body, e.var)
        if vec is not None:
            return Min1Dot(OnesVec(), vec)
    if isinstance(e, DualSumOverDomain):
        vec = _body_vector(e.body, e.var)
        if vec is not None:
            return Complement(Min1Dot(OnesVec(), ComplementVec(vec)))
    return e


def _body_vector(body, var: Variable) -> VecExpr | None:
    """Express the body as a vector whose i-th component is the body's value
    with var bound to i, or None when no pattern applies."""
    if var not in body.variables:
        return ScaleVec(body, OnesVec())
    return _vectorize(body, var)


def _vectorize(e, v: Variable) -> VecExpr | None:
    if isinstance(e, RelApply):
        if len(e.terms) == 1:
            return RelVec(e.predicate, e.negated)
        t, u = e.terms
        if t == v and u == v:
            return DiagVec(RelMat(e.predicate, e.negated))
        if t == v:
            return MatVec(RelMat(e.predicate, e.negated), BasisVec(u))
        return MatVec(RelMat(e.predicate, e.negated, transposed=True), BasisVec(t))
    if isinstance(e, EqApply):
        if e.left == v and e.right == v:
            base: VecExpr = OnesVec()
        else:
            base = BasisVec(e.right if e.left == v else e.left)
        return ComplementVec(base) if e.negated else base
    if isinstance(e, Complement):
        inner = _body_vector(e.body, v)
        return None if inner is None else ComplementVec(inner)
    if isinstance(e, Product):
        scalars = [f for f in e.factors if v not in f.variables]
        pointwise = [_vectorize(f, v) for f in e.factors if v in f.variables]
        if any(p is None for p in pointwise):
            return None
        vec = pointwise[0] if len(pointwise) == 1 else HadamardVec(tuple(pointwise))
        if not scalars:
            return vec
        scalar = scalars[0] if len(scalars) == 1 else Product(tuple(scalars))
        return ScaleVec(scalar, vec)
    if isinstance(e, Min1Sum):
        parts = [_body_vector(t, v) for t in e.terms]
        if any(p is None for p in parts):
            return None
        return Min1Vec(VecAdd(tuple(parts)))
    return None


def _fold_pair(e) -> TensorExpr | None:
    """min1(sum_x min1(sum_y prod(...))) over literals in {x, y} with at most
    one cross literal becomes min1(ux . B uy)."""
    if not isinstance(e, Min1SumOverDomain) or not isinstance(e.body, Min1SumOverDomain):
        return None
    x, y = e.var, e.body.var
    if x == y:
        return None
    body = e.body.body
    factors = list(body.factors) if isinstance(body, Product) else [body]

    scalars: list[TensorExpr] = []
    x_vecs: list[VecExpr] = []
    y_vecs: list[VecExpr] = []
    cross: list[MatExpr] = []
    for f in factors:
        involved = f.variables & {x, y}
        if not involved:
            scalars.append(f)
        elif involved == {x}:
            vec = _vectorize(f, x)
            if vec is None:
                return None
            x_vecs.append(vec)
        elif involved == {y}:
            vec = _vectorize(f, y)
            if vec is None:
                return None
            y_vecs.append(vec)
        else:
            mat = _cross_matrix(f, x, y)
            if mat is None:
                return None
            cross.append(mat)
    if len(cross) > 1:
        return None

    ux = _hadamard(x_vecs)
    uy = _hadamard(y_vecs)
    folded: TensorExpr = Min1Dot(ux, MatVec(cross[0] if cross else OnesMat(), uy))
    if scalars:
        folded = Product(tuple(scalars) + (folded,))
    return folded


def _hadamard(vecs: list[VecExpr]) -> VecExpr:
    if not vecs:
        return OnesVec()
    if len(vecs) == 1:
        return vecs[0]
    return HadamardVec(tuple(vecs))


def _cross_matrix(f, x: Variable, y: Variable) -> MatExpr | None:
    if isinstance(f, Complement):
        inner = _cross_matrix(f.body, x, y)
        return None if inner is None else _negate_mat(inner)
    if isinstance(f, RelApply) and len(f.terms) == 2:
        if f.terms == (x, y):
            return RelMat(f.predicate, f.negated)
        if f.terms == (y, x):
            return RelMat(f.predicate, f.negated, transposed=True)
        return None
    if isinstance(f, EqApply) and {f.left, f.right} == {x, y}:
        return IdentityMat(f.negated)
    return None


def _negate_mat(m: MatExpr) -> MatExpr:
    if isinstance(m, RelMat):
        return RelMat(m.predicate, not m.negated, m.transposed)
    if isinstance(m, IdentityMat):
        return IdentityMat(not m.negated)
    raise TypeError(f"cannot negate {m!r}")
