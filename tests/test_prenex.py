import random
import sys

import pytest

from conftest import (
    all_words,
    contains_quantifier,
    corpus_formulas,
    split_prenex,
    traversal_corpus,
    word_model,
)
from fotensor import (
    And,
    Atom,
    Exists,
    Forall,
    Not,
    Or,
    Variable,
    free_variables,
    parse_formula,
    tarski_eval,
    to_prenex,
)
from fotensor import prenex
from fotensor.diffcheck import random_formula

ONE_B = "exists x. forall y. (b(x) & (b(y) -> x = y))"
DISS = (
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)


def test_one_b_prenex_shape():
    prefix, matrix = split_prenex(to_prenex(parse_formula(ONE_B)))
    assert prefix == [(Exists, "x"), (Forall, "y")]
    # matrix: b(x) & (!b(y) | x = y)
    assert isinstance(matrix, And)
    first, second = matrix.items
    assert isinstance(first, Atom) and first.predicate.name == "b"
    assert isinstance(second, Or)
    assert isinstance(second.items[0], Not)


def test_quantifier_free_input_gets_empty_prefix():
    pf = to_prenex(parse_formula("!(a(x) & b(y))"))
    # No quantifiers below the negation, so it stays a whole-subformula
    # complement rather than being pushed onto the literals.
    assert isinstance(pf, Not)
    assert isinstance(pf.body, And)


def test_negation_pushes_through_quantifiers_only():
    prefix, matrix = split_prenex(to_prenex(parse_formula("!(a(x) & (exists y. succ(x, y)))")))
    assert prefix == [(Forall, "y")]
    # !a(x) | !succ(x, y): the quantifier forced the push at the top, but
    # the leftover pieces are quantifier-free.
    assert isinstance(matrix, Or)


def test_dissimilation_prenex_prefix():
    # The universal pair stays outer and the witness quantifier is pulled
    # innermost; equivalence with the source formula is checked against the
    # oracle below.
    prefix, matrix = split_prenex(to_prenex(parse_formula(DISS)))
    assert prefix == [(Forall, "x"), (Forall, "y"), (Exists, "z")]
    assert not contains_quantifier(matrix)
    # Matrix shape: !(l(x) & l(y) & prec(x, y)) | (r(z) & prec(x, z) & prec(z, y))
    assert isinstance(matrix, Or)
    negated, witness = matrix.items
    assert isinstance(negated, Not) and isinstance(negated.body, And)
    assert isinstance(witness, And)


def test_dissimilation_prenex_equivalent_on_small_words():
    f = parse_formula(DISS)
    g = to_prenex(f)
    for word in all_words("lra", 4):
        m = word_model(word, "lra", "prec")
        assert tarski_eval(f, m) == tarski_eval(g, m), word


@pytest.mark.parametrize("formula,symbols,kinds", list(corpus_formulas()))
def test_prenex_preserves_truth_on_all_small_models(formula, symbols, kinds):
    prenexed = to_prenex(formula)
    for kind in kinds:
        for word in all_words(symbols[:2], 6):
            m = word_model(word, symbols, kind)
            assert tarski_eval(formula, m) == tarski_eval(prenexed, m), (word, kind)


def test_prenex_preserves_free_variables():
    for text in ["prec(x, y) & !(exists z. (prec(x, z) & prec(z, y)))", "exists x. b(y)"]:
        f = parse_formula(text)
        assert free_variables(to_prenex(f)) == free_variables(f)


def test_standardize_apart_renames_collisions():
    f = parse_formula("(exists x. a(x)) & (exists x. b(x))")
    names = [name for _, name in split_prenex(to_prenex(f))[0]]
    assert len(names) == len(set(names))
    assert "x" in names and "x1" in names


def test_standardize_apart_avoids_free_variables():
    f = parse_formula("a(x) & (exists x. b(x))")
    pf = to_prenex(f)
    bound = {name for _, name in split_prenex(pf)[0]}
    assert "x" not in bound  # the free x keeps its name
    assert free_variables(pf) == {Variable("x")}


def test_shadowed_quantifier_keeps_meaning():
    f = parse_formula("exists x. (a(x) & (exists x. b(x)))")
    g = to_prenex(f)
    for word in all_words("ab", 5):
        m = word_model(word, "ab", "succ")
        assert tarski_eval(f, m) == tarski_eval(g, m), word


def test_matrix_is_quantifier_free_structurally():
    for formula, _, _ in corpus_formulas():
        prefix, matrix = split_prenex(to_prenex(formula))
        assert not contains_quantifier(matrix)
        assert len({name for _, name in prefix}) == len(prefix)


def test_to_prenex_is_idempotent():
    # A prenex formula is its own prenex form: no renaming, no second dummy
    # quantifier, the matrix rebuilt as it was.
    rng = random.Random(2207)
    draws = [random_formula(rng, ("a", "b"), ("succ", "prec")[i % 2], max_depth=5) for i in range(3000)]
    for formula in [*traversal_corpus(), *draws, *(f for f, _, _ in corpus_formulas())]:
        pf = to_prenex(formula)
        assert to_prenex(pf) == pf, formula


def test_empty_domain_value_matches_oracle():
    # Prenexing must stay faithful on the zero-length word, where quantifier
    # extraction over boolean combinations is not otherwise an equivalence.
    texts = [
        "(forall y. y = y) & (exists y. !b(y))",
        "(exists z. succ(z, z)) | !(exists x. b(x))",
        "!((exists x. b(x)) -> (exists x. b(x)))",
        "(forall x. a(x)) | (forall y. b(y))",
    ]
    empty = word_model("", "ab", "succ")
    for text in texts:
        f = parse_formula(text)
        assert tarski_eval(to_prenex(f), empty) == tarski_eval(f, empty), text


def test_negation_normal_form_walks_each_subtree_once():
    # Whether a negated subtree holds a quantifier comes out of the same walk
    # that normalizes it, not from a second walk of the subtree: the
    # conversion's walk is entered at most once per node.
    texts = (DISS, "!(a(x) & !(exists y. (b(y) | !(a(x) & b(y)))))", "!!(a(x) | b(x))")
    sources = [parse_formula(text) for text in texts] + [f for f, _, _ in corpus_formulas()]
    walked = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == prenex.__file__:
            walked.append(frame.f_locals["g"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for f in sources:
            to_prenex(f)
    finally:
        sys.setprofile(previous)
    assert len(walked) > len(sources)
    assert len(set(map(id, walked))) == len(walked)
