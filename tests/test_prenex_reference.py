"""The one-walk prenex conversion against a reference made of separate passes.

The reference is the conversion as it once was, one walk per step: free
variables, standardize apart (nested conjunctions and disjunctions
flattened in the same rebuild), negation normal form, quantifier pulling
and the empty-domain dummy. One change: the old
standardize renamed a binder's variable in its body with a second walk,
which captured the new name under an inner binder of that name (in
`a(x) & (exists x. exists x1. succ(x, x1))` both arguments became x2); the
reference renames through an environment instead, and the truth tests below
check the renaming against the oracle.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words, rebuild, traversal_corpus, word_model
from fotensor import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    PredicateSymbol,
    Variable,
    and_,
    atom,
    or_,
    parse_formula,
    tarski_eval,
    to_prenex,
)
from fotensor.formulas import Formula

# --- reference passes -------------------------------------------------------


def reference_prenex(f: Formula) -> Formula:
    used = {v.name for v in _free_variables(f)}
    closed = not used
    g = _standardize(f, used)
    prefix, matrix = _pull(_nnf(g)[0])
    if closed and prefix:
        want = _empty_domain_value(g)
        if want != (prefix[0][0] is Forall):
            dummy = Variable("v" if "v" not in used else _fresh("v", used))
            prefix = [(Forall if want else Exists, dummy)] + prefix
    for quantifier, var in reversed(prefix):
        matrix = quantifier(var, matrix)
    return matrix


def _free_variables(f):
    if isinstance(f, Atom):
        return set(f.terms)
    if isinstance(f, Equal):
        return {f.left, f.right}
    out = set()
    for g in f.children():
        out |= _free_variables(g)
    if isinstance(f, (Exists, Forall)):
        out.discard(f.var)
    return out


def _fresh(name, used):
    stem = name.rstrip("0123456789") or name
    return next(f"{stem}{k}" for k in itertools.count(1) if f"{stem}{k}" not in used)


def _standardize(f, used):
    def visit(g, env):
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(env.get(t, t) for t in g.terms))
        if isinstance(g, Equal):
            return Equal(env.get(g.left, g.left), env.get(g.right, g.right))
        if isinstance(g, (Exists, Forall)):
            var = Variable(_fresh(g.var.name, used)) if g.var.name in used else g.var
            used.add(var.name)
            return type(g)(var, visit(g.body, {**env, g.var: var}))
        return _flatten_step(rebuild(g, lambda h: visit(h, env)))

    return visit(f, {})


def _flatten_step(f):
    if isinstance(f, (And, Or)) and type(f) in map(type, f.items):
        return (and_ if isinstance(f, And) else or_)(f.items)
    return f


def _nnf(f, negated=False):
    if isinstance(f, (Atom, Equal)):
        return (Not(f) if negated else f), False
    if isinstance(f, Not):
        return _nnf(f.body, not negated)
    if isinstance(f, (Exists, Forall)):
        body, _ = _nnf(f.body, negated)
        exists = isinstance(f, Exists) != negated
        return (Exists if exists else Forall)(f.var, body), True
    parts = [_nnf(g, negated) for g in f.items]
    quantified = any(q for _, q in parts)
    if negated and not quantified:
        combine = and_ if isinstance(f, And) else or_
        return Not(combine(g.body if isinstance(g, Not) else Not(g) for g, _ in parts)), False
    combine = and_ if isinstance(f, And) != negated else or_
    return combine(g for g, _ in parts), quantified


def _pull(f):
    if isinstance(f, (Atom, Equal, Not)):
        return [], f
    if isinstance(f, (Exists, Forall)):
        p, m = _pull(f.body)
        return [(type(f), f.var)] + p, m
    prefix, matrices = [], []
    for g in f.items:
        p, m = _pull(g)
        prefix.extend(p)
        matrices.append(m)
    return prefix, (and_ if isinstance(f, And) else or_)(matrices)


def _empty_domain_value(f):
    if isinstance(f, (Exists, Forall)):
        return isinstance(f, Forall)
    if isinstance(f, Not):
        return not _empty_domain_value(f.body)
    values = [_empty_domain_value(g) for g in f.items]
    return all(values) if isinstance(f, And) else any(values)


# --- node trees --------------------------------------------------------------


# Few names, so that binders often shadow one another and collide with the
# fresh names the conversion makes (x1, v).
NAMES = ("x", "x1", "v")
A, SUCC = PredicateSymbol("a", 1), PredicateSymbol("succ", 2)
_variables = st.sampled_from(NAMES).map(Variable)
_literals = st.one_of(
    _variables.map(lambda v: Atom(A, (v,))),
    st.tuples(_variables, _variables).map(lambda p: Atom(SUCC, p)),
    st.tuples(_variables, _variables).map(lambda p: Equal(*p)),
)


def _compound(inner):
    items = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        inner.map(Not),
        items.map(And),
        items.map(Or),
        # p -> q as the parser reads it.
        st.tuples(inner, inner).map(lambda p: or_([Not(p[0]), p[1]])),
        st.tuples(_variables, inner).map(lambda p: Exists(*p)),
        st.tuples(_variables, inner).map(lambda p: Forall(*p)),
    )


def _close(f, quantifiers):
    """f under one quantifier per free variable, drawn from quantifiers."""
    for var, forall in zip(sorted(_free_variables(f), key=str), quantifiers):
        f = (Forall if forall else Exists)(var, f)
    return f


# Trees built straight from the node classes: And in And, Or in Or,
# Not(Not(...)), one-item And/Or, shadowed binders, open formulas;
# half of them closed, so that the empty-domain dummy is exercised.
_open_trees = st.recursive(_literals, _compound, max_leaves=10)
TREES = st.one_of(_open_trees, st.builds(_close, _open_trees, st.lists(st.booleans(), min_size=5)))


# --- tests -------------------------------------------------------------------


def test_one_walk_matches_reference_on_traversal_corpus():
    for f in traversal_corpus():
        assert to_prenex(f) == reference_prenex(f), f


@given(TREES)
@settings(max_examples=500, deadline=None)
def test_one_walk_matches_reference_on_node_trees(f):
    assert to_prenex(f) == reference_prenex(f)


def _agree_on_small_words(f, g):
    free = sorted(v.name for v in _free_variables(f))
    assert free == sorted(v.name for v in _free_variables(g))
    for word in all_words("ab", 3):
        m = word_model(word, "ab", "succ")
        for values in itertools.product(range(1, len(word) + 1), repeat=len(free)):
            a = dict(zip(free, values))
            assert tarski_eval(f, m, a) == tarski_eval(g, m, a), (word, a)


@given(TREES)
@settings(max_examples=150, deadline=None)
def test_one_walk_preserves_truth_on_node_trees(f):
    _agree_on_small_words(f, to_prenex(f))


def test_renaming_does_not_capture_a_free_occurrence():
    # The binder x is renamed x1, and the inner binder x1 must then move to
    # x2 rather than capture the renamed x.
    f = parse_formula("a(x) & (exists x. exists x1. succ(x, x1))")
    pf = to_prenex(f)
    assert str(pf) == "exists x1. exists x2. a(x) & succ(x1, x2)"
    _agree_on_small_words(f, pf)


def test_negation_over_nested_conjunction_is_pushed_flat():
    x, y = Variable("x"), Variable("y")
    nested = And((And((atom("a", x), atom("b", x))), Exists(y, atom("c", y))))
    expected = "forall x. forall y. !a(x) | !b(x) | !c(y)"
    assert str(to_prenex(Forall(x, Not(nested)))) == expected
    assert str(to_prenex(parse_formula("forall x. !((a(x) & b(x)) & (exists y. c(y)))"))) == expected
