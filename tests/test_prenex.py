import pytest

from conftest import all_words, corpus_formulas, word_model
from fotensor import (
    And,
    Atom,
    Not,
    Or,
    Variable,
    free_variables,
    parse_formula,
    tarski_eval,
    to_prenex,
)
from fotensor import formulas, prenex
from fotensor.formulas import Implies, contains, contains_quantifier
from fotensor.prenex import EXISTS, FORALL, PrenexFormula

ONE_B = "exists x. forall y. (b(x) & (b(y) -> x = y))"
DISS = (
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)


def test_one_b_prenex_shape():
    pf = to_prenex(parse_formula(ONE_B))
    assert [(q, v.name) for q, v in pf.prefix] == [(EXISTS, "x"), (FORALL, "y")]
    # matrix: b(x) & (!b(y) | x = y)
    assert isinstance(pf.matrix, And)
    first, second = pf.matrix.items
    assert isinstance(first, Atom) and first.predicate.name == "b"
    assert isinstance(second, Or)
    assert isinstance(second.items[0], Not)


def test_quantifier_free_input_gets_empty_prefix():
    pf = to_prenex(parse_formula("!(a(x) & b(y))"))
    assert pf.prefix == ()
    # No quantifiers below the negation, so it stays a whole-subformula
    # complement rather than being pushed onto the literals.
    assert isinstance(pf.matrix, Not)
    assert isinstance(pf.matrix.body, And)


def test_negation_pushes_through_quantifiers_only():
    pf = to_prenex(parse_formula("!(a(x) & (exists y. succ(x, y)))"))
    assert [(q, v.name) for q, v in pf.prefix] == [(FORALL, "y")]
    # !a(x) | !succ(x, y): the quantifier forced the push at the top, but
    # the leftover pieces are quantifier-free.
    assert isinstance(pf.matrix, Or)


def test_dissimilation_prenex_prefix():
    # The universal pair stays outer and the witness quantifier is pulled
    # innermost; equivalence with the source formula is checked against the
    # oracle below.
    pf = to_prenex(parse_formula(DISS))
    assert [(q, v.name) for q, v in pf.prefix] == [
        (FORALL, "x"),
        (FORALL, "y"),
        (EXISTS, "z"),
    ]
    assert not contains_quantifier(pf.matrix)
    assert not contains(pf.matrix, Implies)
    # Matrix shape: !(l(x) & l(y) & prec(x, y)) | (r(z) & prec(x, z) & prec(z, y))
    assert isinstance(pf.matrix, Or)
    negated, witness = pf.matrix.items
    assert isinstance(negated, Not) and isinstance(negated.body, And)
    assert isinstance(witness, And)


def test_dissimilation_prenex_equivalent_on_small_words():
    f = parse_formula(DISS)
    g = to_prenex(f).to_formula()
    for word in all_words("lra", 4):
        m = word_model(word, "lra", "prec")
        assert tarski_eval(f, m) == tarski_eval(g, m), word


@pytest.mark.parametrize("formula,symbols,kinds", list(corpus_formulas()))
def test_prenex_preserves_truth_on_all_small_models(formula, symbols, kinds):
    prenexed = to_prenex(formula).to_formula()
    for kind in kinds:
        for word in all_words(symbols[:2], 6):
            m = word_model(word, symbols, kind)
            assert tarski_eval(formula, m) == tarski_eval(prenexed, m), (word, kind)


def test_prenex_preserves_free_variables():
    for text in ["prec(x, y) & !(exists z. (prec(x, z) & prec(z, y)))", "exists x. b(y)"]:
        f = parse_formula(text)
        assert free_variables(to_prenex(f).to_formula()) == free_variables(f)


def test_standardize_apart_renames_collisions():
    f = parse_formula("(exists x. a(x)) & (exists x. b(x))")
    pf = to_prenex(f)
    names = [v.name for _, v in pf.prefix]
    assert len(names) == len(set(names))
    assert "x" in names and "x1" in names


def test_standardize_apart_avoids_free_variables():
    f = parse_formula("a(x) & (exists x. b(x))")
    pf = to_prenex(f)
    bound = {v.name for _, v in pf.prefix}
    assert "x" not in bound  # the free x keeps its name
    assert free_variables(pf.to_formula()) == {Variable("x")}


def test_shadowed_quantifier_keeps_meaning():
    f = parse_formula("exists x. (a(x) & (exists x. b(x)))")
    g = to_prenex(f).to_formula()
    for word in all_words("ab", 5):
        m = word_model(word, "ab", "succ")
        assert tarski_eval(f, m) == tarski_eval(g, m), word


def test_matrix_is_quantifier_free_structurally():
    for formula, _, _ in corpus_formulas():
        pf = to_prenex(formula)
        assert not contains_quantifier(pf.matrix)
        assert not contains(pf.matrix, Implies)


def test_prenex_formula_validates():
    with pytest.raises(ValueError):
        PrenexFormula(((EXISTS, Variable("x")),), parse_formula("exists y. b(y)"))
    with pytest.raises(ValueError):
        PrenexFormula(
            ((EXISTS, Variable("x")), (FORALL, Variable("x"))),
            parse_formula("b(x)"),
        )
    with pytest.raises(ValueError, match="implication"):
        PrenexFormula(((EXISTS, Variable("x")),), parse_formula("b(x) -> a(x)"))


def test_to_prenex_builds_its_result_without_walking_it_again(monkeypatch):
    # The conversion walk already makes the matrix quantifier- and
    # implication-free; built again through the constructor, its checks pass.
    def refuse(*args):
        raise AssertionError("the matrix was walked again")

    with monkeypatch.context() as patched:
        patched.setattr(prenex, "contains", refuse)
        forms = [to_prenex(formula) for formula, _, _ in corpus_formulas()]
    for pf in forms:
        assert PrenexFormula(pf.prefix, pf.matrix) == pf


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
        assert tarski_eval(to_prenex(f).to_formula(), empty) == tarski_eval(f, empty), text


def test_desugar_required_first_is_handled_internally():
    f = parse_formula("a(x) -> b(x)")
    pf = to_prenex(f)
    assert not contains(pf.matrix, Implies)


def test_negation_normal_form_walks_each_subtree_once(monkeypatch):
    # Whether a negated subtree holds a quantifier comes out of the same walk
    # that normalizes it, not from a second walk of the subtree.
    calls = []
    counting = lambda f: calls.append(f) or contains_quantifier(f)  # noqa: E731
    monkeypatch.setattr(formulas, "contains_quantifier", counting)
    monkeypatch.setattr(prenex, "contains_quantifier", counting)
    for text in (DISS, "!(a(x) & !(exists y. (b(y) | !(a(x) & b(y)))))", "!!(a(x) | b(x))"):
        to_prenex(parse_formula(text))
    for formula, _, _ in corpus_formulas():
        to_prenex(formula)
    assert calls == []
