import pytest

from conftest import all_words, word_model
from fotensor import (
    ArityMismatchError,
    StructureModel,
    UnboundVariableError,
    UnknownPredicateError,
    Variable,
    enumerate_assignments,
    parse_formula,
    tarski_eval,
)

ONE_B = parse_formula("exists x. forall y. (b(x) & (b(y) -> x = y))")
DISS = parse_formula(
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)


def test_one_b_on_abba_is_false():
    assert tarski_eval(ONE_B, word_model("abba", "ab", "succ")) is False


def test_exists_on_empty_domain_is_false():
    assert tarski_eval(parse_formula("exists x. a(x)"), word_model("", "ab", "succ")) is False


def test_forall_on_empty_domain_is_true():
    assert tarski_eval(parse_formula("forall x. a(x)"), word_model("", "ab", "succ")) is True


def test_dissimilation_examples():
    # Brute description: every pair of l positions needs an intervening r.
    assert tarski_eval(DISS, word_model("laral", "lra", "prec")) is True
    assert tarski_eval(DISS, word_model("lal", "lra", "prec")) is False
    assert tarski_eval(DISS, word_model("rrr", "lra", "prec")) is True


def test_oracle_matches_direct_count_for_one_b():
    for word in all_words("ab", 6):
        expected = word.count("b") == 1
        assert tarski_eval(ONE_B, word_model(word, "ab", "succ")) == expected, word


def test_open_formula_uses_assignment():
    f = parse_formula("succ(x, y)")
    m = word_model("abba", "ab", "succ")
    assert tarski_eval(f, m, {"x": 1, "y": 2}) is True
    assert tarski_eval(f, m, {"x": 2, "y": 1}) is False


def test_unbound_variable_error():
    with pytest.raises(UnboundVariableError):
        tarski_eval(parse_formula("b(x)"), word_model("ab", "ab", "succ"))


def test_unknown_predicate_error():
    with pytest.raises(UnknownPredicateError):
        tarski_eval(parse_formula("exists x. q(x)"), word_model("ab", "ab", "succ"))
    with pytest.raises(UnknownPredicateError, match="no binary relation 'prec'"):
        tarski_eval(parse_formula("exists x. prec(x, x)"), word_model("ab", "ab", "succ"))


def test_arity_mismatch_error():
    m = word_model("ab", "ab", "succ")
    with pytest.raises(ArityMismatchError):
        tarski_eval(parse_formula("exists x. exists y. a(x, y)"), m)
    with pytest.raises(ArityMismatchError):
        # succ used unary: the parser blocks the reserved name, so build the
        # collision through a non-reserved predicate name instead.
        from fotensor import Atom, Exists, PredicateSymbol

        f = Exists(Variable("x"), Atom(PredicateSymbol("succ", 1), (Variable("x"),)))
        tarski_eval(f, m)


def test_quantifier_duality_native():
    for text in ["a(x)", "succ(x, y) | b(x)", "!b(x)"]:
        inner = text
        f_all = parse_formula(f"forall x. ({inner})")
        f_dual = parse_formula(f"!(exists x. !({inner}))")
        for word in all_words("ab", 4):
            m = word_model(word, "ab", "succ")
            env = {"y": 1} if "y" in text and len(word) else None
            if "y" in text and not len(word):
                continue
            assert tarski_eval(f_all, m, env) == tarski_eval(f_dual, m, env), (text, word)


def test_determinism():
    m = word_model("abab", "ab", "succ")
    values = {tarski_eval(ONE_B, m) for _ in range(5)}
    assert len(values) == 1


def test_enumerate_assignments_order():
    m = word_model("abc", "abc", "succ")
    xs = list(enumerate_assignments([Variable("x")], m))
    assert xs == [{"x": 1}, {"x": 2}, {"x": 3}]


def test_enumerate_assignments_empty_vars():
    m = word_model("ab", "ab", "succ")
    assert list(enumerate_assignments([], m)) == [{}]


def test_enumerate_assignments_two_vars():
    m = word_model("ab", "ab", "succ")
    combos = list(enumerate_assignments([Variable("x"), Variable("y")], m))
    assert combos == [
        {"x": 1, "y": 1},
        {"x": 1, "y": 2},
        {"x": 2, "y": 1},
        {"x": 2, "y": 2},
    ]


def test_enumerate_assignments_empty_domain():
    m = word_model("", "ab", "succ")
    assert list(enumerate_assignments([Variable("x")], m)) == []


def test_structure_without_word_origin():
    # The oracle works over any structure, not only word models.
    m = StructureModel.from_sets(3, {"p": [1, 3]}, {"r": [(1, 2), (3, 1)]})
    f = parse_formula("forall x. (p(x) -> exists y. r(x, y))")
    assert tarski_eval(f, m) is True  # 1 -> 2 and 3 -> 1; position 2 is not p
    g = parse_formula("forall x. exists y. r(x, y)")
    assert tarski_eval(g, m) is False  # nothing follows position 2
