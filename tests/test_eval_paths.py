"""Each way the evaluator computes a node, against tarski_eval and, for a
closed plan, against eval_batch over a padded batch of words: a literal at
an assigned variable, a transposed or diagonal binary literal, a
quantifier whose body ignores its variable, an equality inside a
contraction, a contraction step that is a stack of dot products, and a
negation, which has no step of its own."""

import hashlib

import numpy as np
import pytest

import fotensor.tensors as tensors
from conftest import all_words, contains, word_model
from fotensor import (
    Alphabet,
    compile_formula,
    dump_expr,
    embed_word,
    embed_words,
    enumerate_language,
    eval_batch,
    eval_tensor,
    formula_diss,
    optimize,
    parse_formula,
    tarski_eval,
)
from fotensor.formulas import Equal, Not, Variable, atom
from fotensor.models import word_digits
from fotensor.tensors import Contract, embed_digits


def _plans(formula):
    plan = compile_formula(formula)
    return plan, optimize(plan)


def _equality_in_a_contraction(plan):
    if isinstance(plan, Contract):
        return any(contains(f, Equal) for f in plan.factors)
    return any(map(_equality_in_a_contraction, plan.children()))


def _check_closed(text, kind, words, symbols="ab"):
    """Each plan of the closed formula text, on each word alone and on one
    padded batch of all of them, agrees with tarski_eval."""
    formula = parse_formula(text)
    alphabet = Alphabet(symbols)
    want = [int(tarski_eval(formula, word_model(w, symbols, kind))) for w in words]
    batch = embed_words(alphabet, max(map(len, words)), kind)
    position = {w: k for k, w in enumerate(all_words(symbols, batch.basis_size))}
    for plan in _plans(formula):
        assert [eval_tensor(plan, embed_word(w, alphabet, kind)) for w in words] == want, text
        got = eval_batch(plan, batch).tolist()
        assert [got[position[w]] for w in words] == want, text


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize(
    "text", ["b(c)", "!b(c)", "exists x. (b(c) & succ(x, c))", "forall x. (a(x) | !b(c))"]
)
def test_a_literal_at_an_assigned_variable(text, kind):
    # c is bound by the assignment, so its literal reads one entry, or the
    # row or column of a binary relation.
    formula = parse_formula(text.replace("succ", kind))
    for word in all_words("ab", 3):
        m = word_model(word, "ab", kind)
        for c in range(1, len(word) + 1):
            want = int(tarski_eval(formula, m, {"c": c}))
            for plan in _plans(formula):
                assert eval_tensor(plan, embed_word(word, Alphabet("ab"), kind), {"c": c}) == want


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize(
    "text",
    [
        "exists x. exists y. ({kind}(y, x) & a(x))",
        "forall x. forall y. ({kind}(y, x) -> b(y))",
        "exists x. forall y. ({kind}(y, x) | x = y | a(y))",
    ],
)
def test_a_transposed_binary_literal(text, kind):
    # The relation's first index is on the inner variable's axis.
    _check_closed(text.format(kind=kind), kind, all_words("ab", 4))


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize(
    "text",
    ["exists x. {kind}(x, x)", "forall x. !{kind}(x, x)", "exists x. (a(x) & !{kind}(x, x))"],
)
def test_a_diagonal_binary_literal(text, kind):
    _check_closed(text.format(kind=kind), kind, all_words("ab", 4))


@pytest.mark.parametrize(
    "text",
    [
        "exists x. exists y. a(x)",
        "forall x. forall y. a(x)",
        "exists y. forall x. a(x)",
        "forall y. exists x. a(x)",
        "exists x. forall y. (a(x) | b(x))",
    ],
)
def test_a_quantifier_whose_body_ignores_its_variable(text):
    # The body counts N times, 0 at N = 0, whatever its value.
    _check_closed(text, "succ", ["", "a", "b", "aba", "bbb", "abb"])


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize(
    "text",
    [
        "exists x. exists y. (x = y & a(x))",
        "exists x. exists y. (!(x = y) & a(x) & b(y))",
        "forall x. forall y. (x = y | !{kind}(x, y) | a(y))",
    ],
)
def test_an_equality_inside_a_contraction(text, kind):
    text = text.format(kind=kind)
    optimized = _plans(parse_formula(text))[1]
    assert _equality_in_a_contraction(optimized), dump_expr(optimized)
    _check_closed(text, kind, all_words("ab", 4))


def test_a_stacked_dot_step_in_a_padded_batch(monkeypatch):
    # Dissimilation's last contraction step multiplies two factors that
    # share every axis but the summed one: a stack of dot products, one per
    # word and x, over words padded to length 5.
    calls = []
    matmul = tensors._matmul

    def spy(a, b, v):
        calls.append(all(p == q for k, (p, q) in enumerate(zip(a.shape, b.shape)) if k != v))
        return matmul(a, b, v)

    monkeypatch.setattr(tensors, "_matmul", spy)
    spec = formula_diss()
    want = [w for w in all_words("lra", 5) if tarski_eval(spec.formula, word_model(w, "lra", "prec"))]
    assert enumerate_language(spec, 5) == want
    assert any(calls) and not all(calls)


@pytest.mark.parametrize("n", [255, 256, 300])
@pytest.mark.parametrize("text", ["exists x. a(x)", "forall x. a(x)"])
def test_a_stacked_dot_step_counts_past_255(text, n, monkeypatch):
    # Over a batch, each plan contracts the domain mask with a(x), or with
    # !a(x), as a stack of dot products, one per word. n letters count n:
    # past 255, an 8-bit count would wrap, 256 to 0.
    calls = []
    matmul = tensors._matmul

    def spy(a, b, v):
        calls.append(all(p == q for k, (p, q) in enumerate(zip(a.shape, b.shape)) if k != v))
        return matmul(a, b, v)

    monkeypatch.setattr(tensors, "_matmul", spy)
    formula = parse_formula(text)
    alphabet = Alphabet("ab")
    words = ["a" * n, "b" * n, "ab" * (n // 2), "b" * 200]
    digits = np.full((len(words), n), len(alphabet), np.uint8)
    for row, word in zip(digits, words):
        row[: len(word)] = word_digits(word, alphabet)
    batch = embed_digits(digits, alphabet, "succ")
    want = [int(tarski_eval(formula, word_model(w, "ab", "succ"))) for w in words]
    assert eval_batch(optimize(compile_formula(formula)), batch).tolist() == want
    assert calls and all(calls)


# Each way a negation folds into the step under it: a literal's inverted
# view, != for an equality, a negated body under a universal, the
# complement from a clamp (of a disjunction, a quantifier or a
# contraction) and an inverted product; the parsed formula keeps every !
# as written, a Not over a Not included.
_NEGATIONS = [
    "exists x. !!b(x)",
    "exists x. !!!(a(x) | b(x))",
    "exists x. !(a(x) | succ(x, x))",
    "forall x. !(b(x) | a(x))",
    "exists x. exists y. (!(a(x) & b(y)) & succ(x, y))",
    "exists x. exists y. (!(x = y) & a(x) & a(y))",
    "forall x. !b(x)",
    "forall x. !!(a(x) | b(x))",
    "!(exists x. exists y. (a(x) & succ(x, y) & b(y)))",
    "!!(exists x. b(x))",
    "!(forall x. a(x))",
    "forall x. forall y. forall z. ((succ(x, y) & succ(y, z)) -> !(a(x) & a(z)))",
    "forall x. forall y. !(succ(x, y) & !(exists z. (b(z) & succ(y, z))))",
]
_X, _Y = Variable("x"), Variable("y")
# ! over a contraction, hand-built, with the formula it computes: twice,
# and over one that binds a variable no factor uses.
_NEGATED_CONTRACTIONS = [
    (Not(Not(Contract((_X,), (atom("b", "x"),)))), "!!(exists x. b(x))"),
    (Not(Contract((_X, _Y), (atom("a", "x"), Not(atom("succ", "x", "x"))))),
     "!(exists x. exists y. (a(x) & !succ(x, x)))"),
]


def test_a_negation_folds_into_the_step_under_it():
    # Plain, planned, batched and traced paths against tarski_eval, on every
    # word over ab to length 4; the traces' digest is the one recorded
    # before negations were folded.
    words, digest = all_words("ab", 4), hashlib.sha256()
    batch = embed_words(Alphabet("ab"), 4, "succ")
    cases = [(parse_formula(t), [parse_formula(t), *_plans(parse_formula(t))]) for t in _NEGATIONS]
    cases += [(parse_formula(t), [plan]) for plan, t in _NEGATED_CONTRACTIONS]
    for formula, plans in cases:
        want = [int(tarski_eval(formula, word_model(w, "ab", "succ"))) for w in words]
        for plan in plans:
            assert eval_batch(plan, batch).tolist() == want, dump_expr(plan)
            for w, value in zip(words, want):
                em, trace = embed_word(w, Alphabet("ab"), "succ"), []
                assert eval_tensor(plan, em) == eval_tensor(plan, em, trace=trace) == value, (dump_expr(plan), w)
                digest.update(repr(trace).encode())
    # An assigned variable, c, under a negation: its row, inverted.
    for text in ("forall x. !(x = c)", "exists x. (!succ(c, x) & !!b(x))", "!b(c)"):
        formula = parse_formula(text)
        for w in words[1:]:
            em = embed_word(w, Alphabet("ab"), "succ")
            for c in range(1, len(w) + 1):
                want = int(tarski_eval(formula, word_model(w, "ab", "succ"), {"c": c}))
                for plan in (formula, *_plans(formula)):
                    trace = []
                    assert eval_tensor(plan, em, {"c": c}) == eval_tensor(plan, em, {"c": c}, trace) == want
                    digest.update(repr(trace).encode())
    assert digest.hexdigest() == "35b8b4fe579c6ca478c9cc0837da06053d69dba4d106324b200902133658de8e"
