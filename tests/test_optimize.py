import itertools
import random

import pytest

from conftest import all_words, embed_length, traversal_corpus, word_model
from fotensor import (
    compile_formula,
    embed_model,
    eval_batch,
    eval_tensor,
    optimize,
    parse_formula,
    tarski_eval,
)
from fotensor.diffcheck import random_formula
from fotensor.models import MAX_CELLS
from fotensor.formulas import And, Atom, Equal, Exists, Forall, Not, Or, Variable, atom
from fotensor.tensors import Contract, batch_limit

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _rel(name, *terms, negated=False):
    rel = atom(name, *terms)
    return Not(rel) if negated else rel


def _assert_equivalent(plan, optimized, words, symbols, kind, assignment=None):
    for word in words:
        em = embed_model(word_model(word, symbols, kind))
        if assignment and any(v > len(word) for v in assignment.values()):
            continue
        assert eval_tensor(optimized, em, assignment) == eval_tensor(plan, em, assignment), word


def test_exists_unary_becomes_inner_product():
    plan = compile_formula(parse_formula("exists x. b(x)"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (_rel("b", X),))
    _assert_equivalent(plan, optimized, all_words("ab", 6), "ab", "succ")


def test_unmatched_expression_unchanged():
    plan = compile_formula(parse_formula("b(x)"))
    assert optimize(plan) == plan
    assert isinstance(optimize(plan), Atom)


def test_exists_pair_becomes_bilinear_form():
    plan = compile_formula(parse_formula("exists x. exists y. (b(x) & succ(x, y))"))
    optimized = optimize(plan)
    assert optimized == Contract((X, Y), (_rel("b", X), _rel("succ", X, Y)))
    rng = random.Random(11)
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(0, 5))) for _ in range(100)]
    _assert_equivalent(plan, optimized, words, "ab", "succ")


def test_negated_unary_literal():
    plan = compile_formula(parse_formula("exists x. !b(x)"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (_rel("b", X, negated=True),))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_disjunctive_body_vectorizes():
    plan = compile_formula(parse_formula("exists x. (a(x) | b(x))"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (Or((_rel("a", X), _rel("b", X))),))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_open_body_uses_basis_vector():
    plan = compile_formula(parse_formula("exists x. (succ(y, x) & b(x))"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (_rel("succ", Y, X), _rel("b", X)))
    assert optimized.free_names == {"y"}
    for word in all_words("ab", 5):
        if not word:
            continue
        em = embed_model(word_model(word, "ab", "succ"))
        for y in range(1, len(word) + 1):
            a = {"y": y}
            assert eval_tensor(optimized, em, a) == eval_tensor(plan, em, a), (word, y)


def test_transposed_argument_order():
    plan = compile_formula(parse_formula("exists x. exists y. succ(y, x)"))
    optimized = optimize(plan)
    assert optimized == Contract((X, Y), (_rel("succ", Y, X),))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_equality_cross_literal_uses_identity():
    plan = compile_formula(parse_formula("exists x. exists y. (b(x) & x = y & a(y))"))
    optimized = optimize(plan)
    assert optimized == Contract((X, Y), (_rel("b", X), Equal(X, Y), _rel("a", Y)))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_reflexive_binary_atom_uses_diagonal():
    plan = compile_formula(parse_formula("exists x. prec(x, x)"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (_rel("prec", X, X),))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "prec")


def test_forall_folds_through_dual():
    plan = compile_formula(parse_formula("forall x. b(x)"))
    optimized = optimize(plan)
    assert optimized == Not(Contract((X,), (_rel("b", X, negated=True),)))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_nested_quantifier_keeps_outer_iteration():
    # The universal pair is one contraction of the negated body, and the
    # witness sum in that body is another, beside the factors over x and y
    # that miniscoping moved out of it.
    plan = compile_formula(
        parse_formula(
            "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
            "exists z. (r(z) & prec(x, z) & prec(z, y)))"
        )
    )
    optimized = optimize(plan)
    witness = Contract((Z,), (_rel("r", Z), _rel("prec", X, Z), _rel("prec", Z, Y)))
    assert optimized == Not(
        Contract((X, Y), (_rel("l", X), _rel("l", Y), _rel("prec", X, Y), Not(witness)))
    )
    _assert_equivalent(plan, optimized, all_words("lra", 4), "lra", "prec")


def test_hadamard_of_unary_factors():
    plan = compile_formula(parse_formula("exists x. (a(x) & b(x))"))
    optimized = optimize(plan)
    assert optimized == Contract((X,), (_rel("a", X), _rel("b", X)))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


def test_scalar_factor_pulled_out():
    plan = compile_formula(parse_formula("exists y. ((exists x. a(x)) & b(y))"))
    optimized = optimize(plan)
    assert optimized == Contract((Y, X), (_rel("a", X), _rel("b", Y)))
    _assert_equivalent(plan, optimized, all_words("ab", 5), "ab", "succ")


@pytest.mark.parametrize("text", ["exists x. exists y. a(x)", "forall x. forall y. b(y)"])
def test_contract_over_a_variable_no_factor_uses(text):
    # The unused bound variable's axis still counts N times, and 0 times on
    # the empty word.
    formula = parse_formula(text)
    optimized = optimize(compile_formula(formula))
    contract = optimized.body if isinstance(optimized, Not) else optimized
    assert contract.bound == (X, Y) and len(contract.factors) == 1
    for length in range(4):
        words = ["".join(w) for w in itertools.product("ab", repeat=length)]
        want = [int(tarski_eval(formula, word_model(w, "ab", "succ"))) for w in words]
        single = [eval_tensor(optimized, embed_model(word_model(w, "ab", "succ"))) for w in words]
        batched = eval_batch(optimized, embed_length("ab", length, "succ"))
        assert single == batched.tolist() == want, length


@pytest.mark.parametrize(
    ("text", "planned"),
    [
        ("exists z. (a(x) & b(y))", And((_rel("a", X), _rel("b", Y), Contract((Z,), ())))),
        ("forall z. (a(x) | b(y))", Or((_rel("a", X), _rel("b", Y), Not(Contract((Z,), ()))))),
    ],
)
def test_a_run_no_part_uses_contracts_no_factor(text, planned):
    # Every part leaves the block; what stays is the run's count, and no
    # empty conjunction or disjunction is built on the way.
    formula = parse_formula(text)
    optimized = optimize(compile_formula(formula))
    assert optimized == planned
    for word in all_words("ab", 3)[1:]:
        m = word_model(word, "ab", "succ")
        for a in itertools.product(range(1, len(word) + 1), repeat=2):
            env = dict(zip("xy", a))
            assert eval_tensor(optimized, embed_model(m), env) == int(tarski_eval(formula, m, env))


@pytest.mark.parametrize(
    ("text", "planned"),
    [
        (
            "forall x. (b(x) | (exists y. a(y)))",
            Or(
                (Contract((Y,), (_rel("a", Y),)), Not(Contract((X,), (_rel("b", X, negated=True),))))
            ),
        ),
        (
            "exists x. (a(x) & (forall y. b(y)))",
            And(
                (Not(Contract((Y,), (_rel("b", Y, negated=True),))), Contract((X,), (_rel("a", X),)))
            ),
        ),
        # Here the inner block stays in: on the empty word it is 1 (0) while
        # the outer exists (forall) must be 0 (1).
        (
            "exists x. (a(x) | (forall y. b(y)))",
            Contract((X,), (Or((_rel("a", X), Not(Contract((Y,), (_rel("b", Y, negated=True),))))),)),
        ),
        (
            "forall x. (b(x) & (exists y. a(y)))",
            Not(
                Contract((X,), (Or((_rel("b", X, negated=True), Not(Contract((Y,), (_rel("a", Y),))))),))
            ),
        ),
    ],
)
def test_miniscoping_at_the_top_of_a_closed_plan(text, planned):
    # The inner block leaves the outer one where that holds on every domain,
    # so that the empty word still makes the outer forall 1 and exists 0.
    formula = parse_formula(text)
    optimized = optimize(compile_formula(formula))
    assert optimized == planned
    for length in range(4):
        words = ["".join(w) for w in itertools.product("ab", repeat=length)]
        want = [int(tarski_eval(formula, word_model(w, "ab", "succ"))) for w in words]
        single = [eval_tensor(optimized, embed_model(word_model(w, "ab", "succ"))) for w in words]
        batched = eval_batch(optimized, embed_length("ab", length, "succ"))
        assert single == batched.tolist() == want, length


def test_quantifier_below_another_node_keeps_its_value():
    # Only the quantifier prefix is planned; a hand-built plan with a
    # quantifier under a product is evaluated as it was built.
    plan = And((Exists(X, _rel("a", X)), Forall(Y, _rel("b", Y, negated=True))))
    formula = parse_formula("(exists x. a(x)) & (forall y. !b(y))")
    optimized = optimize(plan)
    for word in all_words("ab", 4):
        m = word_model(word, "ab", "succ")
        assert eval_tensor(optimized, embed_model(m)) == int(tarski_eval(formula, m)), word


def _contracts(e):
    found = [e] if isinstance(e, Contract) else []
    for child in e.children():
        found += _contracts(child)
    return found


@pytest.mark.parametrize(
    ("text", "depth", "peak"),
    [
        (
            "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
            "exists z. (r(z) & prec(x, z) & prec(z, y)))",
            3,
            2,
        ),
        # A star: eliminating its leaves first leaves two variables at most.
        ("exists x. exists y. exists z. exists w. (succ(x, y) & succ(x, z) & succ(x, w))", 4, 2),
        # A 4-clique: every order has a step over three variables.
        (
            "exists x. exists y. exists z. exists w. "
            "(succ(x, y) & succ(x, z) & succ(x, w) & succ(y, z) & succ(y, w) & succ(z, w))",
            4,
            3,
        ),
    ],
)
def test_contraction_order_sets_the_planned_peak(text, depth, peak, monkeypatch):
    ordered, plan_order = [], Contract.plan
    monkeypatch.setattr(Contract, "plan", lambda c, rows: ordered.append(c) or plan_order(c, rows))
    plan = compile_formula(parse_formula(text))
    optimized = optimize(plan)
    # Planning lowers nothing and orders no contraction; the first read of
    # the guard lowers each plan once, ordering each contraction once, and
    # evaluation reuses that program.
    assert ordered == [] and not any("_program" in vars(c) for c in [optimized, *_contracts(optimized)])
    assert batch_limit(optimized, 10) == MAX_CELLS // 10**peak
    assert batch_limit(plan, 10) == MAX_CELLS // 10**depth
    assert "_program" in vars(optimized) and "_program" in vars(plan)
    assert sorted(map(id, ordered)) == sorted(map(id, _contracts(optimized))) != []
    symbols, kind = ("lra", "prec") if "prec" in text else ("ab", "succ")
    for p in (plan, optimized):
        eval_batch(p, embed_length(symbols, 3, kind))
    assert len(ordered) == len(_contracts(optimized))


def test_contraction_counts_stay_exact_past_int64():
    # 64^11 = 2^66 witnesses: an int64 count would wrap around to 0.
    names = [f"x{i}" for i in range(11)]
    text = " ".join(f"exists {v}." for v in names) + " (" + " & ".join(f"a({v})" for v in names) + ")"
    optimized = optimize(compile_formula(parse_formula(text)))
    assert eval_tensor(optimized, embed_model(word_model("a" * 64, "ab", "succ"))) == 1
    assert eval_batch(optimized, embed_length("ab", 64, "succ", 0, 2)).tolist() == [1, 1]


def test_random_plans_preserve_evaluation():
    # 100 random compiled plans; optimized evaluation must agree everywhere.
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        symbols = "abc"[: rng.randint(1, 3)]
        kind = rng.choice(("succ", "prec"))
        formula = random_formula(rng, tuple(symbols), kind)
        plan = compile_formula(formula)
        optimized = optimize(plan)
        words = {"".join(rng.choice(symbols) for _ in range(rng.randint(0, 5))) for _ in range(12)}
        words.add("")
        for word in words:
            em = embed_model(word_model(word, symbols, kind))
            assert eval_tensor(optimized, em) == eval_tensor(plan, em), (str(formula), word)
        checked += 1
    assert checked == 100


def _corpus_words():
    """Each traversal-corpus formula with its alphabet, its kind and three
    short words, the empty one included, as models."""
    for i, f in enumerate(traversal_corpus()):
        symbols, kind = ("ab", "abc")[i % 2], ("succ", "prec")[i // 2 % 2]
        yield f, [word_model(w, symbols, kind) for w in ("", symbols[-1], symbols[::-1] + symbols[0])]


def test_optimize_takes_every_parsed_formula():
    # As parsed, a run of like quantifiers may bind a name twice; the inner
    # binder shadows the outer one, which optimize drops.
    assert optimize(parse_formula("forall y. forall y. c(y)")) == Not(Contract((Y,), (_rel("c", Y, negated=True),)))
    for f, models in _corpus_words():
        optimized = optimize(f)
        for m in models:
            assert eval_tensor(optimized, embed_model(m)) == int(tarski_eval(f, m)), (str(f), m.domain_size)


def test_an_optimized_plan_prints_as_the_formula_it_computes():
    # A contraction prints as its block of existentials, x = x standing for
    # no factor; the text parses back to a formula of the same value.
    assert str(Not(Contract((X, Y), ()))) == "!(exists x. exists y. x = x)"
    assert str(Contract((X,), (_rel("a", X), _rel("b", X, negated=True)))) == "exists x. a(x) & !b(x)"
    assert str(Contract((), ())) == "forall x. x = x"
    for f, models in _corpus_words():
        text = str(optimize(compile_formula(f)))
        for m in models:
            assert tarski_eval(parse_formula(text), m) == tarski_eval(f, m), (str(f), text, m.domain_size)


def test_optimized_plan_dump_renders():
    from fotensor import dump_expr

    optimized = optimize(compile_formula(parse_formula("exists x. b(x)")))
    assert dump_expr(optimized).splitlines() == ["(contract x", "  (rel b x))"]
