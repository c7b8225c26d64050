import pytest

from conftest import traversal_corpus
from fotensor import (
    And,
    ArityMismatchError,
    Atom,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    ParseError,
    PredicateSymbol,
    Variable,
    parse_formula,
)
from fotensor.formulas import to_text
from fotensor import parser
from fotensor.parser import MAX_NESTING

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_parse_one_b_formula():
    f = parse_formula("exists x. forall y. (b(x) & (b(y) -> x = y))")
    b = PredicateSymbol("b", 1)
    expected = Exists(
        x,
        Forall(y, And((Atom(b, (x,)), Or((Not(Atom(b, (y,))), Equal(x, y)))))),
    )
    assert f == expected


def test_parse_single_atom():
    f = parse_formula("a(x)")
    assert f == Atom(PredicateSymbol("a", 1), (x,))


def test_parse_dissimilation_formula():
    f = parse_formula(
        "forall x. forall y. ((l(x) & l(y) & prec(x,y)) -> "
        "exists z. (r(z) & prec(x,z) & prec(z,y)))"
    )
    l = PredicateSymbol("l", 1)
    r = PredicateSymbol("r", 1)
    prec = PredicateSymbol("prec", 2)
    expected = Forall(
        x,
        Forall(
            y,
            Or(
                (
                    Not(And((Atom(l, (x,)), Atom(l, (y,)), Atom(prec, (x, y))))),
                    Exists(z, And((Atom(r, (z,)), Atom(prec, (x, z)), Atom(prec, (z, y))))),
                )
            ),
        ),
    )
    assert f == expected


def test_precedence_not_binds_tightest():
    f = parse_formula("!a(x) & b(x) | c(x) -> d(x)")
    assert isinstance(f, Or)
    antecedent = f.items[0].body
    assert isinstance(antecedent, Or)
    assert isinstance(antecedent.items[0], And)
    assert isinstance(antecedent.items[0].items[0], Not)


def test_quantifier_scope_extends_right():
    f = parse_formula("exists x. a(x) & b(x)")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


A, B, C = (Atom(PredicateSymbol(name, 1), (x,)) for name in "abc")

# p -> q is read as the disjunction !p | q: the text, its AST, and the
# printed form of that AST.
IMPLICATIONS = [
    ("a(x) -> b(x)", Or((Not(A), B)), "!a(x) | b(x)"),
    # Right-associative: !a | (!b | c), flattened into one disjunction.
    ("a(x) -> b(x) -> c(x)", Or((Not(A), Not(B), C)), "!a(x) | !b(x) | c(x)"),
    ("(a(x) -> b(x)) -> c(x)", Or((Not(Or((Not(A), B))), C)), "!(!a(x) | b(x)) | c(x)"),
    ("!(a(x) -> b(x))", Not(Or((Not(A), B))), "!(!a(x) | b(x))"),
]


@pytest.mark.parametrize("text,ast,printed", IMPLICATIONS, ids=[t for t, _, _ in IMPLICATIONS])
def test_implication_is_read_as_a_disjunction(text, ast, printed):
    f = parse_formula(text)
    assert f == ast
    assert to_text(f) == printed
    assert parse_formula(printed) == f


def test_implication_right_associative():
    assert parse_formula("a(x) -> b(x) -> c(x)") == parse_formula("!a(x) | !b(x) | c(x)")


def test_negated_equality():
    f = parse_formula("!x = y")
    assert f == Not(Equal(x, y))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("a(x) &")
    assert err.value.position == 6

    with pytest.raises(ParseError) as err:
        parse_formula("a(x y)")
    assert "position" in str(err.value)


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_formula("a(x) ? b(x)")


def test_arity_mismatch_against_prior_use():
    with pytest.raises(ArityMismatchError):
        parse_formula("p(x) & p(x, y)")


def test_reserved_names_are_binary():
    with pytest.raises(ArityMismatchError):
        parse_formula("succ(x)")
    with pytest.raises(ArityMismatchError):
        parse_formula("prec(x)")
    parse_formula("dom(x, y) & leftof(y, x)")  # fine


def test_ternary_atom_rejected():
    with pytest.raises(ParseError):
        parse_formula("p(x, y, z)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("a(x) b(x)")


# One formula per kind of nesting level: n - 1 levels of that kind under the
# outer quantifier, n levels in all; and the position of the opener of the
# 101st level.
NESTED = {
    "parentheses": (lambda n: "exists x. " + "(" * (n - 1) + "a(x)" + ")" * (n - 1), 109),
    "negations": (lambda n: "exists x. " + "!" * (n - 1) + "a(x)", 109),
    "implications": (lambda n: "exists x. " + "a(x) -> " * (n - 1) + "a(x)", 10 + 99 * 8 + 5),
    "quantifiers": (lambda n: "exists x. " * n + "a(x)", 1000),
}


@pytest.mark.parametrize("kind", NESTED)
def test_nesting_limit(kind):
    nested, position = NESTED[kind]
    assert MAX_NESTING == 100
    parse_formula(nested(100))
    with pytest.raises(ParseError) as info:
        parse_formula(nested(101))
    assert info.value.position == position
    assert str(info.value) == f"formula nested more than 100 levels deep (at position {position})"


def _assert_one_symbol_per_name(f):
    """Every use of a variable or predicate name in f is one object; returns
    the names."""
    seen = {}

    def visit(g):
        if isinstance(g, Atom):
            found = [g.predicate, *g.terms]
        elif isinstance(g, Equal):
            found = [g.left, g.right]
        else:
            found = [g.var] if isinstance(g, (Exists, Forall)) else []
            for child in g.children():
                visit(child)
        for symbol in found:
            assert seen.setdefault((type(symbol), symbol.name), symbol) is symbol

    visit(f)
    return sorted(name for _, name in seen)


def test_one_parse_builds_each_symbol_once():
    f = parse_formula("exists x. forall y. (b(x) & succ(x, y) & (b(y) -> x = y | succ(y, x)))")
    assert _assert_one_symbol_per_name(f) == ["b", "succ", "x", "y"]
    # Operands of "!", alone and in runs, share them too.
    f = parse_formula("forall x. (!b(x) & !!(x = y | !succ(x, y)) -> !!!b(y) | !a(x))")
    assert _assert_one_symbol_per_name(f) == ["a", "b", "succ", "x", "y"]


def test_parses_of_the_traversal_corpus_build_each_symbol_once():
    for f in traversal_corpus():
        _assert_one_symbol_per_name(parse_formula(str(f)))


def test_well_formed_input_never_computes_token_positions(monkeypatch):
    # Positions come from parser._tokenize, which only an error may call.
    calls = []
    real = parser._tokenize
    monkeypatch.setattr(parser, "_tokenize", lambda text: calls.append(text) or real(text))
    for f in traversal_corpus():
        parse_formula(str(f))
    assert calls == []


@pytest.mark.parametrize(
    "text",
    [
        "a(x) &",
        "a(x y)",
        "a(x) ? b(x)",
        "a(x) b(x)",
        "exists 2x. a(x)",
        "(a(x) & b(y)",
        "forall x a(x)",
        "p(x, y, z)",
        "p(x) & p(x, y)",
        "x",
        "exists x. " + "!" * 100 + "a(x)",
        "exists x. " + "!" * 100 + "a(x) #",
    ],
)
def test_malformed_input_raises_at_a_tokenize_position(monkeypatch, text):
    calls = []
    real = parser._tokenize
    monkeypatch.setattr(parser, "_tokenize", lambda text: calls.append(text) or real(text))
    with pytest.raises((ParseError, ArityMismatchError)) as info:
        parse_formula(text)
    assert calls == [text]
    try:
        positions = {pos for _, _, pos in real(text)}
    except ParseError as err:
        # An unexpected character anywhere is the error, wherever parsing stopped.
        assert (type(info.value), str(info.value)) == (ParseError, str(err))
    else:
        position = getattr(info.value, "position", None)
        if position is None:  # ArityMismatchError names its position in the message
            position = int(str(info.value).rsplit(" ", 1)[1].rstrip(")"))
        assert position in positions


def test_rendering_reparses_the_traversal_corpus():
    for f in traversal_corpus():
        assert parse_formula(to_text(f)) == f
