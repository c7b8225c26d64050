import copy
import dataclasses
import hashlib

import pytest

from conftest import rebuild, traversal_corpus
from fotensor import (
    Alphabet,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    Variable,
    and_,
    atom,
    build_word_model,
    embed_model,
    eval_tensor,
    free_variables,
    or_,
    parse_formula,
    tarski_eval,
    to_text,
)
from fotensor.optimize import optimize
from fotensor.prenex import to_prenex
from fotensor.tensors import Contract, compile_formula, dump_expr, plan_extent

X, Y = Variable("x"), Variable("y")
A, SUCC = atom("a", "x"), atom("succ", "x", "y")
REL, NEQ = atom("a", X), Not(Equal(X, Y))

# One node of every formula and plan node class.
EXAMPLES = [
    A,
    Equal(X, Y),
    Not(A),
    and_([A, SUCC]),
    or_([A, Equal(X, Y)]),
    Exists(X, A),
    Forall(Y, SUCC),
    Contract((X, Y), (REL, NEQ)),
]


def _node_classes(cls=Formula):
    out = set()
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            out.add(sub)
        out |= _node_classes(sub)
    return out


def test_examples_cover_every_node_class():
    assert sorted(type(n).__name__ for n in EXAMPLES) == sorted(c.__name__ for c in _node_classes())


@pytest.mark.parametrize("node", EXAMPLES, ids=lambda n: type(n).__name__)
def test_rebuild_with_own_children_keeps_the_node(node):
    # The subnodes are exactly the Formula values among the fields, in order.
    values = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        values.extend(value if isinstance(value, tuple) else (value,))
    kids = node.children()
    assert [id(k) for k in kids] == [id(v) for v in values if isinstance(v, Formula)]

    assert rebuild(node, lambda child: child) is node
    copies = {id(k): copy.copy(k) for k in kids}
    rebuilt = rebuild(node, lambda child: copies[id(child)])
    assert rebuilt == node
    assert [id(k) for k in rebuilt.children()] == [id(copies[id(k)]) for k in kids]
    assert (rebuilt is node) == (not kids)


@pytest.mark.parametrize("node", EXAMPLES, ids=lambda n: type(n).__name__)
def test_every_walk_takes_every_node_class(node):
    # Each walk has a branch for each node class it may meet, so a class
    # added without its branches fails here. A Contract is a plan node and
    # no formula; its value is checked against the formula it stands for.
    model = build_word_model("ab", Alphabet("ab"), "succ")
    env = {"x": 1, "y": 2}
    value = eval_tensor(node, embed_model(model), env)
    assert dump_expr(node).startswith("(")
    formula = node
    if isinstance(node, Contract):
        formula = and_(node.factors)
        for var in reversed(node.bound):
            formula = Exists(var, formula)
    else:
        assert parse_formula(to_text(node)) == node
    assert tarski_eval(formula, model, env) == tarski_eval(to_prenex(formula), model, env) == value
    assert node.free_names == _reference_names(node)


def _reference_variables(e) -> frozenset[Variable]:
    """The free variables of plan e, bottom-up from its children's, by the
    rule of the former Formula.variables and Contract.variables, after
    checking e.free_names against their names at every node of e."""
    if isinstance(e, Atom):
        out = frozenset(e.terms)
    elif isinstance(e, Equal):
        out = frozenset((e.left, e.right))
    else:
        out = frozenset().union(*[_reference_variables(k) for k in e.children()])
        if isinstance(e, (Exists, Forall)):
            out -= {e.var}
        elif isinstance(e, Contract):
            out -= set(e.bound)
    assert e.free_names == {v.name for v in out}, e
    return out


def _reference_names(e) -> set[str]:
    return {v.name for v in _reference_variables(e)}


def test_plan_variables():
    assert Exists(X, atom("succ", X, Y)).free_names == {"y"}
    assert Forall(X, Exists(Y, NEQ)).free_names == frozenset()
    assert Contract((X,), (REL, NEQ)).free_names == {"y"}
    assert Contract((X, Y), (REL, NEQ)).free_names == frozenset()
    assert Contract((), (REL, NEQ)).free_names == {"x", "y"}
    assert Contract((X,), ()).free_names == frozenset()
    assert Not(Contract((Y,), (Exists(X, REL),))).free_names == frozenset()
    hand_built = [
        Contract((X, Y), (Contract((Y,), (SUCC,)), Equal(X, Y))),
        or_([Contract((Y,), (A, Not(SUCC))), Exists(Y, Contract((X,), (SUCC,)))]),
        Forall(X, Not(Contract((), (REL, Contract((X,), (NEQ,)))))),
    ]
    assert [_reference_names(e) for e in hand_built] == [set(), {"x"}, {"y"}]


def test_free_names_match_the_reference_on_every_node():
    # Every node of each formula, of its prenex form, of its compiled plan
    # and of the optimized plan: a closed formula's plans are closed too,
    # contractions included.
    for f in traversal_corpus(6000):
        plan = compile_formula(f)
        optimized = optimize(plan)
        for e in (f, to_prenex(f), plan, optimized):
            _reference_variables(e)
        assert free_variables(f) == free_variables(optimized) == set()
    f = parse_formula("exists x. (a(x) & (exists y. succ(x, y)))")
    assert free_variables(optimize(compile_formula(f))) == set()


def _front_end_digest(passes):
    """SHA-256 of the texts that passes make of 3,000 random formulas; each
    pass maps a formula and its compiled plan to a text."""
    digest = hashlib.sha256()
    for f in traversal_corpus():
        for text in passes(f, compile_formula(f)):
            digest.update(text.encode() + b"\0")
    return digest.hexdigest()


def test_front_end_output_is_pinned():
    # The prenex text and the plan; a deliberate change of the printed forms
    # has to update the digest.
    digest = _front_end_digest(lambda f, plan: (str(to_prenex(f)), dump_expr(plan)))
    assert digest == "dfe18360c193b764764520eb86070238e2c6b0b5158e19b8f01925bfe5bad7cf"


def test_optimized_plan_output_is_pinned():
    # The optimized plan, as contractions; a deliberate change of what
    # optimize makes of a plan has to update the digest.
    digest = _front_end_digest(lambda f, plan: (dump_expr(optimize(plan)),))
    assert digest == "10e7993cccb0f45dff2fa6c83d5947acc294b04574eb49ce1e281390caf40527"


def _contractions(e):
    """The Contract nodes of plan e, in pre-order."""
    found = [e] if isinstance(e, Contract) else []
    for child in e.children():
        found.extend(_contractions(child))
    return found


def _peaks(plan):
    # The memory guard's inputs: each plan's planned peak (plan_extent) and
    # each contraction's order, the plain plan's and the optimized one's.
    for p in (plan, optimize(plan)):
        yield repr(plan_extent(p))
        yield from (repr(c.plan(frozenset())) for c in _contractions(p))


def test_planned_peaks_are_pinned():
    # What the memory guard predicts of each plan; a change to the lowering
    # or Contract.plan that moves any peak or step has to update the digest.
    digest = _front_end_digest(lambda f, plan: tuple(_peaks(plan)))
    assert digest == "262e17e632ed6ffdc61f4a8f826d9c084e2d388947417c17b620c5b1fbf41c86"


TRACE_WORDS = {"ab": ("b", "ba", "abb"), "abc": ("c", "ca", "abc")}


def test_traces_are_pinned():
    # The value and the trace of the first 1,000 formulas, as parsed, as
    # compiled and as optimized, on three short words each; a change to what
    # a trace records, or to the order of its events, has to update the digest.
    digest = hashlib.sha256()
    for i, f in enumerate(traversal_corpus(1000)):
        symbols, kind = ("ab", "abc")[i % 2], ("succ", "prec")[i // 2 % 2]
        plans = (f, compile_formula(f), optimize(compile_formula(f)))
        for word in TRACE_WORDS[symbols]:
            em = embed_model(build_word_model(word, Alphabet(symbols), kind))
            for p in plans:
                trace = []
                value = eval_tensor(p, em, trace=trace)
                digest.update(repr((value, trace)).encode() + b"\0")
    assert digest.hexdigest() == "b1a1ee4352d023972730e011945fdd6547e15409c0a90f509e48c69ace64e878"
