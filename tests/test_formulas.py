from fotensor import (
    And,
    Atom,
    Or,
    Variable,
    and_,
    atom,
    free_variables,
    or_,
    parse_formula,
    predicates,
    to_prenex,
)


def test_atom_arity_checked():
    import pytest

    with pytest.raises(ValueError):
        from fotensor import PredicateSymbol

        Atom(PredicateSymbol("b", 1), (Variable("x"), Variable("y")))


def test_symbols_are_checked():
    import pytest

    from fotensor import PredicateSymbol

    with pytest.raises(ValueError, match="variable name must be nonempty"):
        Variable("")
    with pytest.raises(ValueError, match="predicate arity must be 1 or 2, got 3"):
        PredicateSymbol("p", 3)


def test_an_optimized_plan_with_a_contraction_is_no_formula():
    # A Contract is a plan node only: the formula walks refuse it.
    import pytest

    from fotensor import StructureModel, compile_formula, optimize, tarski_eval

    plan = optimize(compile_formula(parse_formula("exists x. a(x)")))
    model = StructureModel(1, {"a": [1]})
    for walk in (str, lambda f: tarski_eval(f, model), to_prenex):
        with pytest.raises(TypeError, match="not a formula"):
            walk(plan)


def test_desugar_matches_truth_table():
    # p -> q and !p | q agree on all four {0,1}x{0,1} combinations, checked
    # with the Tarskian oracle over one-element models.
    from fotensor import StructureModel, tarski_eval

    sugar = parse_formula("p(x) -> q(x)")
    plain = to_prenex(sugar)
    for p in (0, 1):
        for q in (0, 1):
            m = StructureModel(1, {"p": [p], "q": [q]})
            a = {"x": 1}
            assert tarski_eval(sugar, m, a) == tarski_eval(plain, m, a) == (not p or q)


def test_free_variables():
    assert free_variables(parse_formula("b(x) & b(y)")) == {Variable("x"), Variable("y")}
    assert free_variables(parse_formula("exists x. prec(x, y)")) == {Variable("y")}
    one_b = parse_formula("exists x. forall y. (b(x) & (b(y) -> x = y))")
    assert free_variables(one_b) == set()


def test_free_names_gives_each_caller_its_own_set():
    # The names are kept on each node, immutable; free_variables hands each
    # caller a set of its own, which it may change.
    f = parse_formula("exists x. prec(x, y)")
    assert type(f.free_names) is frozenset and f.free_names is f.free_names
    first = free_variables(f)
    first.add(Variable("z"))
    assert free_variables(f) == {Variable("y")} and free_variables(f) is not free_variables(f)
    assert f.free_names == {"y"}


def test_desugar_preserves_free_variables():
    f = parse_formula("a(x) -> exists y. succ(x, y)")
    assert free_variables(to_prenex(f)) == free_variables(f) == {Variable("x")}


def test_constructors_flatten():
    a, b, c = atom("p", "x"), atom("q", "x"), atom("r", "x")
    assert and_([a, And((b, c))]) == And((a, b, c))
    assert or_([Or((a, b)), c]) == Or((a, b, c))
    assert and_([a]) is a


def test_empty_conjunction_and_disjunction_are_refused():
    import pytest

    for build, what in ((And, "conjunction"), (Or, "disjunction")):
        with pytest.raises(ValueError, match=f"empty {what}"):
            build(())
    for build, what in ((and_, "conjunction"), (or_, "disjunction")):
        with pytest.raises(ValueError, match=f"empty {what}"):
            build([])
        with pytest.raises(ValueError, match=f"empty {what}"):
            build(iter(()))


def test_predicates_collects_arities():
    f = parse_formula("exists x. forall y. (b(x) & succ(x, y))")
    assert predicates(f) == {"b": 1, "succ": 2}


def test_rendering_reparses():
    texts = [
        "exists x. forall y. (b(x) & (b(y) -> x = y))",
        "a(x) | b(x) & !c(x)",
        "(a(x) | b(x)) & c(x)",
        "a(x) -> b(x) -> c(x)",
        "!(a(x) -> b(x))",
        "exists x. (a(x) | (exists y. succ(x, y)))",
        "!x = y & a(x)",
        "exists xé. forall x². (a(xé) & (a(x²) -> xé = x²))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(str(f)) == f


def test_rendering_keeps_precedence():
    f = parse_formula("(a(x) | b(x)) & c(x)")
    g = parse_formula("a(x) | b(x) & c(x)")
    assert f != g
    assert parse_formula(str(f)) == f
    assert parse_formula(str(g)) == g
