import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fotensor
from conftest import all_words, corpus_formulas, embed_length, traversal_corpus, word_model
from fotensor import (
    Alphabet,
    ArityMismatchError,
    AssignmentError,
    ClosureError,
    SemanticError,
    StructureModel,
    UnboundVariableError,
    UnknownPredicateError,
    build_tree_model,
    compile_formula,
    dump_expr,
    embed_model,
    embed_word,
    embed_words,
    eval_batch,
    eval_tensor,
    formula_diss,
    formula_one_b,
    load_structure,
    min1,
    optimize,
    parse_formula,
    tarski_eval,
)
from fotensor.formulas import And, Exists, Forall, Not, Or, Variable, atom
from fotensor.diffcheck import run_differential_check
from fotensor.tensors import MAX_CELLS, Contract, TraceEvent, batch_limit, plan_extent
from fotensor.tensors import MAX_TRACE_EVENTS, EmbeddedModel, _Program, _program

ONE_B = parse_formula("exists x. forall y. (b(x) & (b(y) -> x = y))")
DISS = parse_formula(
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)


def _embedded(word, symbols, kind):
    return embed_model(word_model(word, symbols, kind))


def test_embed_abba_successor():
    em = _embedded("abba", "abc", "succ")
    assert em.basis_size == 4
    assert em.relation_tensors["b"].tolist() == [0, 1, 1, 0]
    expected_succ = np.zeros((4, 4), dtype=int)
    for i, j in [(1, 2), (2, 3), (3, 4)]:
        expected_succ[i - 1, j - 1] = 1
    assert np.array_equal(em.relation_tensors["succ"], expected_succ)


def test_embed_empty_structure():
    em = _embedded("", "ab", "succ")
    assert em.basis_size == 0
    assert em.relation_tensors["a"].shape == (0,)
    assert em.relation_tensors["succ"].shape == (0, 0)


def test_embed_abba_precedence_upper_triangular():
    em = _embedded("abba", "abc", "prec")
    prec = em.relation_tensors["prec"]
    assert prec.sum() == 6
    assert np.array_equal(prec, np.triu(np.ones((4, 4), dtype=int), k=1))


def test_relation_contraction_matches_source_truth():
    # Contracting a relation tensor with one-hot vectors reproduces exactly
    # the 0/1 relation of the source structure.
    m = word_model("abba", "abc", "succ")
    em = embed_model(m)
    basis = np.eye(4, dtype=int)
    for i in range(1, 5):
        assert int(em.relation_tensors["b"] @ basis[i - 1]) == (i in m.unary_positions("b"))
        for j in range(1, 5):
            value = int(basis[i - 1] @ em.relation_tensors["succ"] @ basis[j - 1])
            assert value == ((i, j) in m.binary_pairs("succ"))


def test_transpose_encode_examples():
    # R(y, x) reads the transpose of R.
    em = _embedded("abba", "abc", "succ")
    plan = compile_formula(parse_formula("succ(y, x)"))
    pairs = {
        (x, y) for x in range(1, 5) for y in range(1, 5) if eval_tensor(plan, em, {"x": x, "y": y})
    }
    assert pairs == {(2, 1), (3, 2), (4, 3)}


def test_transpose_swaps_arguments_exhaustively():
    for kind in ("succ", "prec"):
        em = _embedded("abba", "ab", kind)
        swapped = compile_formula(parse_formula(f"{kind}(y, x)"))
        straight = compile_formula(parse_formula(f"{kind}(x, y)"))
        for i in range(1, 5):
            for j in range(1, 5):
                at_ij, at_ji = {"x": i, "y": j}, {"x": j, "y": i}
                assert eval_tensor(swapped, em, at_ij) == eval_tensor(straight, em, at_ji)


def test_min1():
    assert min1(0) == 0
    assert min1(1) == 1
    assert min1(3) == 1
    assert min1(np.array([0, 1, 5])).tolist() == [0, 1, 1]
    with pytest.raises(AssertionError):
        min1(-1)


def test_min1_check_survives_python_O():
    # An assert would be stripped under -O and min1(-1) would return -1.
    code = (
        "from fotensor import ClosureError, min1\n"
        "try:\n"
        "    print(min1(-1))\n"
        "except ClosureError:\n"
        "    print('raised')\n"
    )
    src = str(Path(fotensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


# Each mode's program has its own clamps, so each is run: a single
# structure, a batch holding the same word, and a traced evaluation.
_EACH_MODE = (
    "for run in (lambda: tensors.eval_tensor(plan, em), lambda: tensors.eval_batch(plan, batch),\n"
    "            lambda: tensors.eval_tensor(plan, em, trace=[])):\n"
    "    try:\n"
    "        print(run())\n"
    "    except ClosureError:\n"
    "        print('raised')\n"
)


def test_corrupted_clamp_is_caught_under_python_O():
    # Without min1, b(x) | b(x) sums to 2 at the b; the cast to bool would
    # read that as 1, so only the clamp's explicit check can catch it.
    code = (
        "import fotensor.tensors as tensors\n"
        "from fotensor import Alphabet, ClosureError, build_word_model, compile_formula, parse_formula\n"
        "tensors.min1 = lambda x: x\n"
        "plan = compile_formula(parse_formula('exists x. (b(x) | b(x))'))\n"
        "em = tensors.embed_model(build_word_model('b', Alphabet('ab'), 'succ'))\n"
        "batch = tensors.embed_words(Alphabet('ab'), 1, 'succ')\n"
    ) + _EACH_MODE
    src = str(Path(fotensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 3


def test_corrupted_contraction_clamp_is_caught_under_python_O():
    # The contraction of b(x) over bb counts 2.0, a float: without min1
    # only the clamp's explicit check can catch it.
    code = (
        "import fotensor.tensors as tensors\n"
        "from fotensor import Alphabet, ClosureError, compile_formula, optimize, parse_formula\n"
        "tensors.min1 = lambda x: x\n"
        "plan = optimize(compile_formula(parse_formula('exists x. b(x)')))\n"
        "em = tensors.embed_word('bb', Alphabet('ab'), 'succ')\n"
        "batch = tensors.embed_words(Alphabet('ab'), 2, 'succ')\n"
    ) + _EACH_MODE
    src = str(Path(fotensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 3


def test_corrupted_negated_clamp_is_caught_under_python_O():
    # A negation folds into the clamp under it, which returns the
    # complement. Without min1, b(x) | b(x) still sums to 2 on "b": in the
    # plans of forall x. !(b(x) | b(x)) under the clamp whose complement the
    # universal's, or the contraction's, clamp takes, and in both plans of
    # exists x. !(b(x) | b(x)) under a negated clamp.
    code = (
        "import fotensor.tensors as tensors\n"
        "from fotensor import Alphabet, ClosureError, compile_formula, optimize, parse_formula\n"
        "tensors.min1 = lambda x: x\n"
        "em = tensors.embed_word('b', Alphabet('ab'), 'succ')\n"
        "batch = tensors.embed_words(Alphabet('ab'), 1, 'succ')\n"
        "for text in ('forall x. !(b(x) | b(x))', 'exists x. !(b(x) | b(x))'):\n"
        "  plain = compile_formula(parse_formula(text))\n"
        "  for plan in (plain, optimize(plain)):\n"
    ) + "".join("    " + line + "\n" for line in _EACH_MODE.splitlines())
    src = str(Path(fotensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 12


def test_compile_one_b_plan_structure():
    plan = compile_formula(ONE_B)
    assert isinstance(plan, Exists)
    assert isinstance(plan.body, Forall)
    assert isinstance(plan.body.body, And)


def test_compile_dissimilation_plan_structure():
    # forall-dual x (forall-dual y (exists-sum z (min1sum of a complemented
    # product and a product))): the negated antecedent compiles as a
    # complement over the whole conjunction, not literal by literal.
    plan = compile_formula(DISS)
    assert isinstance(plan, Forall)
    assert isinstance(plan.body, Forall)
    assert isinstance(plan.body.body, Exists)
    matrix = plan.body.body.body
    assert isinstance(matrix, Or)
    negated, witness = matrix.items
    assert isinstance(negated, Not) and isinstance(negated.body, And)
    assert isinstance(witness, And)


def test_a_plan_is_a_formula():
    # Every parsed formula evaluates as its own plan, and the plain plan is
    # its prenex formula: both agree with the oracle. Batched, the formula
    # itself, with quantifiers under connectives, agrees on each word of up
    # to 3 letters.
    checks = 0
    for formula, symbols, kinds in corpus_formulas():
        plan = compile_formula(formula)
        for kind, word in itertools.product(kinds, all_words(symbols, 4)):
            em = embed_word(word, Alphabet(symbols), kind)
            want = int(tarski_eval(formula, word_model(word, symbols, kind)))
            assert eval_tensor(formula, em) == eval_tensor(plan, em) == want, (str(formula), kind, word)
            checks += 1
        for kind in kinds:
            words = all_words(symbols, 3)
            got = eval_batch(formula, embed_words(Alphabet(symbols), 3, kind)).tolist()
            want = [int(tarski_eval(formula, word_model(w, symbols, kind))) for w in words]
            assert got == want, (str(formula), kind)
    assert checks == 555


def test_implication_is_its_disjunction():
    # p -> q is parsed as !p | q, so it evaluates and dumps as that
    # disjunction. A variable is no plan node, and is refused.
    implication = parse_formula("forall x. (a(x) -> exists y. succ(x, y))")
    disjunction = parse_formula("forall x. (!a(x) | (exists y. succ(x, y)))")
    assert dump_expr(implication) == dump_expr(disjunction)
    for word in all_words("ab", 3):
        em = embed_word(word, Alphabet("ab"), "succ")
        assert eval_tensor(implication, em) == eval_tensor(disjunction, em), word
    with pytest.raises(TypeError, match="not a plan node"):
        eval_tensor(Variable("x"), embed_word("ab", Alphabet("ab"), "succ"))
    with pytest.raises(TypeError, match="not a plan node"):
        dump_expr(Variable("x"))


@pytest.mark.parametrize("thing", [Variable("x"), "a(x)"], ids=repr)
def test_every_entry_point_refuses_what_is_no_plan_node(thing):
    # The same TypeError from each, raised before any guard reads the plan.
    alphabet = Alphabet("ab")
    calls = [
        lambda: eval_tensor(thing, embed_word("ab", alphabet, "succ")),
        lambda: eval_batch(thing, embed_words(alphabet, 2, "succ")),
        lambda: batch_limit(thing, 2),
        lambda: dump_expr(thing),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="not a plan node"):
            call()


def test_compile_open_atom_is_a_leaf():
    plan = compile_formula(parse_formula("b(x)"))
    assert plan == atom("b", parse_formula("b(x)").terms[0])


def test_negative_literal_compiles_to_complement_tensor():
    plan = compile_formula(parse_formula("!b(x)"))
    assert plan == Not(atom("b", *plan.body.terms))
    em = _embedded("ab", "ab", "succ")
    assert eval_tensor(plan, em, {"x": 1}) == 1
    assert eval_tensor(plan, em, {"x": 2}) == 0


def test_one_b_worked_example_values():
    plan = compile_formula(ONE_B)
    assert eval_tensor(plan, _embedded("abba", "abc", "succ")) == 0
    assert eval_tensor(plan, _embedded("aba", "ab", "succ")) == 1
    assert eval_tensor(plan, _embedded("b", "ab", "succ")) == 1
    assert eval_tensor(plan, _embedded("", "ab", "succ")) == 0


def test_exists_b_expansion():
    # min1(0 + 1 + 1 + 0) over the b-vector of abba.
    plan = compile_formula(parse_formula("exists x. b(x)"))
    trace: list[TraceEvent] = []
    value = eval_tensor(plan, _embedded("abba", "abc", "succ"), trace=trace)
    assert value == 1
    assert trace == [TraceEvent("exists-sum", "x", (), 2)]


def test_empty_domain_quantifiers():
    em = _embedded("", "ab", "succ")
    assert eval_tensor(compile_formula(parse_formula("exists x. a(x)")), em) == 0
    assert eval_tensor(compile_formula(parse_formula("forall x. a(x)")), em) == 1


@pytest.mark.parametrize(
    "text",
    [
        "exists x. a(x)",
        "forall x. a(x)",
        "exists x. forall y. (a(x) | succ(x, y))",
        "forall x. exists y. (a(x) & succ(x, y))",
        "exists x. forall y. b(y)",
        "forall x. exists y. b(y)",
    ],
)
def test_empty_domain_prefix_shapes_match_oracle(text):
    formula = parse_formula(text)
    m = word_model("", "ab", "succ")
    plan = compile_formula(formula)
    expected = int(tarski_eval(formula, m))
    assert eval_tensor(plan, embed_model(m)) == expected
    assert eval_tensor(optimize(plan), embed_model(m)) == expected


def test_empty_word_language_specs_match_oracle():
    for spec in (formula_one_b(), formula_diss()):
        m = word_model("", "".join(spec.alphabet), spec.model_kind)
        expected = int(tarski_eval(spec.formula, m))
        assert eval_tensor(compile_formula(spec.formula), embed_model(m)) == expected


def test_unknown_predicate_raises_on_every_word_length():
    # A signature error does not depend on the word: prec is not a relation
    # of the successor model, on the empty word as on any other.
    plan = compile_formula(parse_formula("exists x. exists y. prec(x, y)"))
    for word in ("", "ab"):
        with pytest.raises(UnknownPredicateError):
            eval_tensor(plan, _embedded(word, "ab", "succ"))


def test_eval_requires_bindings():
    plan = compile_formula(parse_formula("b(x)"))
    with pytest.raises(UnboundVariableError):
        eval_tensor(plan, _embedded("ab", "ab", "succ"))


@pytest.mark.parametrize(
    "text, word, env",
    [
        ("a(x)", "ab", {"x": 0}),
        ("a(x)", "ab", {"x": 3}),
        ("a(x)", "ab", {"x": 1, "y": 9}),  # y is read nowhere
        ("exists x. a(x)", "", {"x": 1}),
    ],
)
def test_out_of_range_bindings_are_refused_on_both_paths(text, word, env):
    # Each binding is checked before evaluation, read or not, with one message.
    formula = parse_formula(text)
    bad = next(name for name, i in env.items() if not 1 <= i <= len(word))
    message = f"assignment binds {bad} to {env[bad]}, outside domain of size {len(word)}"
    with pytest.raises(AssignmentError, match=message):
        tarski_eval(formula, word_model(word, "ab", "succ"), env)
    for plan in (compile_formula(formula), optimize(compile_formula(formula))):
        with pytest.raises(AssignmentError, match=message):
            eval_tensor(plan, _embedded(word, "ab", "succ"), env)


@pytest.mark.parametrize("value", [1.7, 1.0, np.float64(1.0), "1", True, np.bool_(True), None])
def test_non_integer_bindings_are_refused_on_both_paths(value):
    # Read or not, a binding that is no integer is refused, not truncated.
    message = f"assignment binds x to {value!r}, which is not an integer"
    model = word_model("ab", "ab", "succ")
    for env in ({"x": value}, {"y": 1, Variable("x"): value}):
        with pytest.raises(AssignmentError, match=re.escape(message)):
            tarski_eval(parse_formula("a(y)" if "y" in env else "a(x)"), model, env)
        for plan in (compile_formula(parse_formula("a(y)")), optimize(compile_formula(ONE_B))):
            with pytest.raises(AssignmentError, match=re.escape(message)):
                eval_tensor(plan, embed_model(model), env)


def test_numpy_integer_bindings_are_accepted():
    formula = parse_formula("exists y. (succ(x, y) & b(y))")
    model = word_model("abb", "ab", "succ")
    for x, want in ((1, 1), (2, 1), (3, 0)):
        for value in (x, np.int64(x), np.int32(x), np.uint8(x)):
            assert tarski_eval(formula, model, {"x": value}) == want
            assert eval_tensor(optimize(compile_formula(formula)), embed_model(model), {"x": value}) == want


def test_negative_sizes_are_refused_with_the_package_messages():
    with pytest.raises(ValueError, match="domain size must be nonnegative"):
        StructureModel(-1)
    with pytest.raises(ValueError, match="domain size must be nonnegative"):
        EmbeddedModel(-1, {})
    for kind in ("succ", "prec"):
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            embed_words(Alphabet("ab"), -1, kind)
    assert EmbeddedModel(0, {}).basis_size == embed_words(Alphabet("ab"), 0, "succ").basis_size == 0


def test_plan_too_large_is_refused_before_allocating():
    plan = compile_formula(
        parse_formula("exists x. exists y. exists z. exists w. (a(x) & a(y) & a(z) & a(w))")
    )
    em = _embedded("a" * 400, "ab", "succ")
    assert 400**4 > MAX_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(SemanticError, match=r"400\^4"):
            eval_tensor(plan, em)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_eval_unknown_predicate():
    plan = compile_formula(parse_formula("exists x. q(x)"))
    with pytest.raises(UnknownPredicateError):
        eval_tensor(plan, _embedded("ab", "ab", "succ"))


def test_equality_via_identity_matrix():
    plan = compile_formula(parse_formula("x = y"))
    em = _embedded("abb", "ab", "succ")
    assert eval_tensor(plan, em, {"x": 2, "y": 2}) == 1
    assert eval_tensor(plan, em, {"x": 1, "y": 2}) == 0


# Equality, its negation, x = x and a negated relation literal.
EQUALITY_BODIES = ["x = y", "!(x = y)", "x = x", "b(x) & !(x = y)", "!{kind}(x, y) | x = y"]


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize("body", EQUALITY_BODIES)
def test_equality_and_complement_literals_match_oracle(body, kind):
    # Every word of length 0-4. Each body is evaluated under exists and
    # forall, both closed and with x bound by the assignment, on the plain
    # plan, the planned plan and (closed) the batched path.
    body = body.format(kind=kind)
    for q1, q2 in itertools.product(["exists", "forall"], repeat=2):
        closed = parse_formula(f"{q1} x. {q2} y. ({body})")
        opened = parse_formula(f"{q2} y. ({body})")
        plans = [(f, compile_formula(f), optimize(compile_formula(f))) for f in (closed, opened)]
        for length in range(5):
            words = ["".join(w) for w in itertools.product("ab", repeat=length)]
            for word in words:
                m = word_model(word, "ab", kind)
                em = embed_model(m)
                for f, plain, planned in plans:
                    bindings = [{}] if f is closed else [{"x": i} for i in range(1, length + 1)]
                    for a in bindings:
                        want = int(tarski_eval(f, m, a))
                        got = (eval_tensor(plain, em, a), eval_tensor(planned, em, a))
                        assert got == (want, want), (str(f), word, a)
            batched = eval_batch(plans[0][2], embed_length("ab", length, kind))
            want = [int(tarski_eval(closed, word_model(w, "ab", kind))) for w in words]
            assert batched.tolist() == want, (str(closed), length)


def test_planned_one_b_peak_at_n_1024():
    # Embedding stores no N x N identity, and equality is computed from index
    # ranges rather than read from the identity's complement, so embedding
    # and evaluating peak at two N x N int64 arrays.
    plan = optimize(compile_formula(ONE_B))
    m = word_model("a" * 600 + "b" + "a" * 423, "ab", "succ")
    tracemalloc.start()
    try:
        value = eval_tensor(plan, embed_model(m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 20 << 20


def test_values_are_exactly_zero_or_one():
    # Several disjuncts true at once still clamps to 1.
    plan = compile_formula(parse_formula("exists x. (b(x) | b(x) | b(x))"))
    assert eval_tensor(plan, _embedded("bbbb", "ab", "succ")) == 1


def test_quantifier_duality_at_evaluation_level():
    for inner in ["b(x)", "b(x) | a(x)", "!a(x)"]:
        f_all = parse_formula(f"forall x. ({inner})")
        f_dual = parse_formula(f"!(exists x. !({inner}))")
        for word in all_words("ab", 4):
            em = _embedded(word, "ab", "succ")
            assert eval_tensor(compile_formula(f_all), em) == eval_tensor(
                compile_formula(f_dual), em
            ), (inner, word)


def test_de_morgan_at_evaluation_level():
    f = parse_formula("!((exists x. a(x)) & (exists x. b(x)))")
    g = parse_formula("!(exists x. a(x)) | !(exists x. b(x))")
    for word in all_words("ab", 4):
        em = _embedded(word, "ab", "succ")
        va, vb = eval_tensor(compile_formula(f), em), eval_tensor(compile_formula(g), em)
        assert va == vb and va in (0, 1), word


def test_double_complement():
    f = parse_formula("!!(exists x. b(x))")
    g = parse_formula("exists x. b(x)")
    for word in all_words("ab", 4):
        em = _embedded(word, "ab", "succ")
        assert eval_tensor(compile_formula(f), em) == eval_tensor(compile_formula(g), em)


def test_oracle_equivalence_on_corpus():
    from conftest import corpus_formulas

    for formula, symbols, kinds in corpus_formulas():
        plan = compile_formula(formula)
        for kind in kinds:
            for word in all_words(symbols[:2], 5):
                m = word_model(word, symbols, kind)
                assert eval_tensor(plan, embed_model(m)) == int(tarski_eval(formula, m)), (
                    str(formula),
                    word,
                    kind,
                )


def test_dump_format_and_determinism():
    plan = compile_formula(ONE_B)
    text = dump_expr(plan)
    assert text == dump_expr(compile_formula(ONE_B))
    assert text.splitlines()[0] == "(exists-sum x"
    assert "(forall-dual y" in text
    assert "(rel b x)" in text
    assert "(compl" in text
    assert "(eq x y)" in text


def test_trace_dissimilation_is_unchanged():
    # Nested-loop order: for each x, the z-sum of every y, then the y-dual;
    # the x-dual last.
    em = _embedded("lral", "lra", "prec")
    trace: list[TraceEvent] = []
    assert eval_tensor(compile_formula(DISS), em, trace=trace) == 1
    expected = []
    for x in range(1, 5):
        for y in range(1, 5):
            total = 1 if (x, y) == (1, 4) else 4
            expected.append(TraceEvent("exists-sum", "z", (("x", x), ("y", y)), total))
        expected.append(TraceEvent("forall-dual", "y", (("x", x),), 0))
    expected.append(TraceEvent("forall-dual", "x", (), 0))
    assert trace == expected


def test_trace_open_formula_under_assignment_is_unchanged():
    f = parse_formula("exists z. (prec(x, z) & (forall w. (prec(z, w) -> (r(w) | w = y))))")
    em = _embedded("lral", "lra", "prec")
    trace: list[TraceEvent] = []
    assert eval_tensor(compile_formula(f), em, {"x": 1, "y": 4}, trace=trace) == 1
    assert trace == [
        TraceEvent("forall-dual", "w", (("x", 1), ("y", 4), ("z", 1)), 4),
        TraceEvent("forall-dual", "w", (("x", 1), ("y", 4), ("z", 2)), 1),
        TraceEvent("forall-dual", "w", (("x", 1), ("y", 4), ("z", 3)), 0),
        TraceEvent("forall-dual", "w", (("x", 1), ("y", 4), ("z", 4)), 0),
        TraceEvent("exists-sum", "z", (("x", 1), ("y", 4)), 2),
    ]


def test_trace_reports_partial_sums():
    plan = compile_formula(ONE_B)
    trace: list[TraceEvent] = []
    eval_tensor(plan, _embedded("abba", "abc", "succ"), trace=trace)
    # One forall event per candidate x, then the closing exists event.
    tags = [t.tag for t in trace]
    assert tags.count("forall-dual") == 4
    assert tags[-1] == "exists-sum"
    assert trace[-1].partial_sum == 0


# --- batched evaluation ----------------------------------------------------

def _same_length(symbols, n):
    return [w for w in all_words(symbols, n) if len(w) == n]


@pytest.mark.parametrize(
    "text",
    [
        "exists x. exists y. (a(x) & !(x = y) & a(y))",
        "exists x. exists y. exists z. (a(x) & x = y & succ(y, z) & b(z))",
        "forall x. exists y. (x = y & a(y))",
        "exists x. exists y. (succ(x, y) & !(y = x))",
    ],
)
def test_an_equality_in_a_contraction_step_of_a_padded_batch(text, monkeypatch):
    # An equality's value has no batch axis: a step multiplying it with
    # batched factors meets operands of different rank. Each row of a batch
    # of words padded to 4 letters agrees with eval_tensor and the oracle.
    ranks, matmul = set(), fotensor.tensors._matmul
    monkeypatch.setattr(fotensor.tensors, "_matmul", lambda a, b, v: ranks.add((a.ndim, b.ndim)) or matmul(a, b, v))
    formula = parse_formula(text)
    plan = optimize(compile_formula(formula))
    got = eval_batch(plan, embed_words(Alphabet("ab"), 4, "succ")).tolist()
    assert any(p != q for p, q in ranks), ranks
    for word, value in zip(all_words("ab", 4), got):
        want = int(tarski_eval(formula, word_model(word, "ab", "succ")))
        assert value == eval_tensor(plan, embed_word(word, Alphabet("ab"), "succ")) == want, word
    assert 0 < sum(got) < len(got)


def test_embed_words_stacks_per_word_labels():
    for kind in ("succ", "prec"):
        for n in range(4):
            words = _same_length("lra", n)
            em = embed_length("lra", n, kind)
            assert em.batch_size == 3**n and em.basis_size == n
            assert all(em.relation_tensors[sym].shape == (3**n, n) for sym in "lra")
            assert em.relation_tensors[kind].shape == (1, n, n)
            for b, word in enumerate(words):
                single = _embedded(word, "lra", kind)
                for sym in "lra":
                    assert np.array_equal(em.relation_tensors[sym][b], single.relation_tensors[sym])
                assert np.array_equal(em.relation_tensors[kind][0], single.relation_tensors[kind])


def test_embed_words_slices_by_code():
    full = embed_length("ab", 4, "succ")
    part = embed_length("ab", 4, "succ", 5, 9)
    assert part.batch_size == 4
    assert np.array_equal(part.relation_tensors["b"], full.relation_tensors["b"][5:9])
    for start, stop in ((-1, 2), (3, 2), (0, 32)):
        with pytest.raises(ValueError):
            embed_words(Alphabet("ab"), 4, "succ", start, stop)
    with pytest.raises(ValueError):
        embed_words(Alphabet("ab"), 2, "tree")


def test_embed_words_refuses_a_code_past_int64():
    # Codes within a length are int64. The largest that fits still embeds;
    # a chunk reaching 2^63 is refused with ValueError, not numpy's
    # OverflowError or a silently wrapped code.
    first = sum(2**k for k in range(64))
    for code in (2**63 - 2, 2**63 - 1):
        em = embed_words(Alphabet("ab"), 64, "prec", first + code, first + code + 1)
        assert em.digits[0].tolist() == [int(d) for d in format(code, "064b")]
    assert em.digits[0, :4].tolist() == [0, 1, 1, 1]
    for start, stop in ((2**63, 2**63 + 1), (2**63 - 2, 2**63 + 1)):
        with pytest.raises(ValueError, match=r"over the limit of 2\^63 - 1"):
            embed_words(Alphabet("ab"), 64, "prec", first + start, first + stop)
    # Over three letters, length 40 crosses the limit part way.
    first = sum(3**k for k in range(40))
    with pytest.raises(ValueError, match="limit"):
        embed_words(Alphabet("abc"), 40, "succ", first + 2**63 - 1, first + 2**63 + 1)


def test_embed_word_is_the_embedding_of_the_word_model():
    for symbols in ("ab", "lra"):
        for kind in ("succ", "prec"):
            for n in range(5):
                batch = embed_length(symbols, n, kind)
                for b, word in enumerate(_same_length(symbols, n)):
                    em, old = embed_word(word, Alphabet(symbols), kind), _embedded(word, symbols, kind)
                    assert em.domain is None and em.basis_size == old.basis_size == n
                    assert list(em.relation_tensors) == list(old.relation_tensors)
                    for name, t in em.relation_tensors.items():
                        assert t.dtype == old.relation_tensors[name].dtype == bool
                        assert np.array_equal(t, old.relation_tensors[name]), (word, name)
                    for sym in symbols:
                        assert np.array_equal(em.relation_tensors[sym], batch.relation_tensors[sym][b])
                    assert em.digits.dtype == batch.digits.dtype
                    assert np.array_equal(em.digits, batch.digits[b])


def test_embed_word_at_n_4096_allocates_only_its_order():
    # The succ relation is 16 MiB; a StructureModel on the way would copy it.
    word = "a" * 2048 + "b" + "a" * 2047
    tracemalloc.start()
    try:
        em = embed_word(word, Alphabet("ab"), "succ")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert em.basis_size == 4096 and peak < 17 << 20


def test_eval_batch_matches_eval_tensor_per_word():
    for formula, symbols, kinds in corpus_formulas():
        plan = compile_formula(formula)
        optimized = optimize(plan)
        for kind in kinds:
            for n in range(5):
                expected = [eval_tensor(plan, _embedded(w, symbols, kind)) for w in _same_length(symbols, n)]
                em = embed_length(symbols, n, kind)
                got = eval_batch(plan, em)
                assert got.shape == (len(expected),) and got.tolist() == expected, (formula, kind, n)
                assert eval_batch(optimized, em).tolist() == expected, (formula, kind, n)


def test_eval_batch_of_a_single_structure():
    em = _embedded("abba", "ab", "succ")
    plan = compile_formula(ONE_B)
    assert eval_batch(plan, em).tolist() == [eval_tensor(plan, em)] == [0]


def test_eval_batch_keeps_signature_errors():
    for n in (0, 2):
        em = embed_length("ab", n, "succ")
        with pytest.raises(UnknownPredicateError):
            eval_batch(compile_formula(parse_formula("exists x. exists y. prec(x, y)")), em)
        with pytest.raises(ArityMismatchError):
            eval_batch(compile_formula(parse_formula("exists x. exists y. b(x, y)")), em)
        with pytest.raises(UnboundVariableError):
            eval_batch(compile_formula(parse_formula("b(x)")), em)


def test_eval_tensor_refuses_a_batched_model():
    with pytest.raises(ValueError, match="eval_batch"):
        eval_tensor(compile_formula(ONE_B), embed_length("ab", 2, "succ"))


def test_batch_too_large_is_refused(monkeypatch):
    plan = compile_formula(ONE_B)  # depth 2
    monkeypatch.setattr(fotensor.tensors, "MAX_CELLS", 100)
    assert batch_limit(plan, 3) == 11 and batch_limit(plan, 10) == 1
    assert eval_batch(plan, embed_length("ab", 3, "succ")).tolist() == [0, 1, 1, 0, 1, 0, 0, 0]
    with pytest.raises(SemanticError, match=r"16 \* 4\^2"):
        eval_batch(plan, embed_length("ab", 4, "succ"))
    with pytest.raises(SemanticError, match=r"11\^2"):
        batch_limit(plan, 11)


def test_corrupted_clamp_breaks_the_batched_path(monkeypatch):
    plan = compile_formula(parse_formula("exists x. (b(x) | b(x))"))
    em = embed_length("ab", 2, "succ")
    assert eval_batch(plan, em).tolist() == [0, 1, 1, 1]
    monkeypatch.setattr(fotensor.tensors, "min1", lambda x: x)
    with pytest.raises(ClosureError):
        eval_batch(plan, em)


def _trace_size(plan, n):
    """The events a trace of plan records on domain size n, as its lowering counts them."""
    return sum(n**k for k in _program(plan, True).events)


def test_trace_size_is_counted_before_evaluating():
    # The count matches the events recorded, plain and planned; dissimilation
    # at N = 256 stays traceable, a chain of 24 existentials on "ab" (2^24
    # cells, the cell limit itself) does not, and is never evaluated here.
    em = _embedded("abab", "ab", "succ")
    for formula, _, kinds in corpus_formulas():
        if "succ" in kinds:
            for plan in (compile_formula(formula), optimize(compile_formula(formula))):
                trace: list[TraceEvent] = []
                eval_tensor(plan, em, trace=trace)
                assert len(trace) == _trace_size(plan, 4), str(formula)
    assert _trace_size(compile_formula(DISS), 256) == 1 + 256 + 256**2 <= MAX_TRACE_EVENTS
    chain = parse_formula(" ".join(f"exists x{i}." for i in range(1, 25)) + " a(x1)")
    assert _trace_size(compile_formula(chain), 2) == 2**24 - 1 > MAX_TRACE_EVENTS


def test_planned_peak_counts_no_variable_the_assignment_binds():
    # x, bound by the assignment, reads a row: the optimized plan's arrays
    # have N^2 cells, as the plain plan's do, not the N^3 of {x, y, z}.
    formula = parse_formula("exists y. exists z. (succ(x, y) & succ(x, z) & (succ(y, z) | a(x)))")
    word, at = "a" * 300, {"x": 1}
    plan = compile_formula(formula)
    em = embed_word(word, Alphabet("ab"), "succ")
    want = int(tarski_eval(formula, word_model(word, "ab", "succ"), at))
    assert eval_tensor(plan, em, at) == eval_tensor(optimize(plan), em, at) == want == 1
    assert plan_extent(plan)[1] == plan_extent(optimize(plan))[1] == 2


def _lowerings(monkeypatch) -> list:
    """(plan, traced) of every lowering from here on."""
    made, init = [], _Program.__init__

    def counting(self, e, traced):
        made.append((e, traced))
        init(self, e, traced)

    monkeypatch.setattr(_Program, "__init__", counting)
    return made


def test_an_enumeration_lowers_its_plan_once(monkeypatch):
    # One-b to length 5 in batches of at most 4 words: many eval_batch
    # calls, one program.
    made, calls = _lowerings(monkeypatch), []
    eval_batch_ = fotensor.languages.eval_batch
    monkeypatch.setattr(fotensor.languages, "eval_batch", lambda e, m: calls.append(e) or eval_batch_(e, m))
    monkeypatch.setattr(fotensor.tensors, "MAX_CELLS", 100)
    spec = formula_one_b()
    want = [w for w in all_words("ab", 5) if tarski_eval(spec.formula, word_model(w, "ab", "succ"))]
    assert fotensor.enumerate_language(spec, 5) == want
    assert len(calls) > 10 and len(set(map(id, calls))) == 1
    assert [(id(e), traced) for e, traced in made] == [(id(calls[0]), False)]


def test_a_check_case_lowers_once_per_plan(monkeypatch):
    # The plain plan for eval_tensor; the planned one, lowered once, for
    # eval_tensor and for eval_batch.
    made, batched = _lowerings(monkeypatch), []
    eval_batch_ = fotensor.diffcheck.eval_batch
    monkeypatch.setattr(fotensor.diffcheck, "eval_batch", lambda e, m: batched.append(e) or eval_batch_(e, m))
    assert run_differential_check(1, 7).failures == ()
    assert [traced for _, traced in made] == [False, False]
    assert made[0][0] is not made[1][0] and batched == [made[1][0]]


def test_one_program_serves_every_entry_point(monkeypatch):
    # eval_tensor, eval_batch with and without a mask, batch_limit and
    # plan_extent share one untraced program; a trace lowers its own.
    made = _lowerings(monkeypatch)
    plan = optimize(compile_formula(ONE_B))
    em = embed_word("aba", Alphabet("ab"), "succ")
    assert eval_tensor(plan, em) == 1 and eval_batch(plan, em).tolist() == [1]
    assert eval_batch(plan, embed_words(Alphabet("ab"), 2, "succ")).tolist() == [0, 0, 1, 0, 1, 1, 0]
    assert batch_limit(plan, 4) == MAX_CELLS // 4**2 and plan_extent(plan) == (2, 2)
    assert [(id(e), traced) for e, traced in made] == [(id(plan), False)]
    assert eval_tensor(plan, em, trace=[]) == eval_tensor(plan, em, trace=[]) == 1
    assert [(id(e), traced) for e, traced in made] == [(id(plan), False), (id(plan), True)]


def test_one_program_serves_every_word_and_assignment(monkeypatch):
    # Lowered once per plan, each program binds N, the word and the
    # assignment at run time: x reads a row, y = x compares an index with
    # the range, succ(z, y) is a transpose.
    made = _lowerings(monkeypatch)
    formula = parse_formula("exists y. (succ(x, y) & !(y = x) & (forall z. (succ(z, y) -> (z = x | b(z)))))")
    plans = [compile_formula(formula), optimize(compile_formula(formula))]
    checks = 0
    for word in all_words("ab", 4)[1:]:
        em = embed_word(word, Alphabet("ab"), "succ")
        for x in range(1, len(word) + 1):
            want = int(tarski_eval(formula, word_model(word, "ab", "succ"), {"x": x}))
            assert [eval_tensor(p, em, {"x": x}) for p in plans] == [want] * 2, (word, x)
            checks += want
    assert checks and [(id(e), traced) for e, traced in made] == [(id(p), False) for p in plans]


def test_an_evaluated_plan_pickles_without_its_programs():
    # A program holds closures, which do not pickle; the copy lowers its own.
    plan = optimize(compile_formula(ONE_B))
    em = embed_word("aba", Alphabet("ab"), "succ")
    assert eval_tensor(plan, em) == eval_tensor(plan, em, trace=[]) == 1
    assert eval_batch(plan, embed_words(Alphabet("ab"), 2, "succ")).tolist() == [0, 0, 1, 0, 1, 1, 0]
    programs = {"_program", "_traced_program"}
    assert programs <= plan.__dict__.keys()
    copy = pickle.loads(pickle.dumps(plan))
    assert copy == plan and not programs & copy.__dict__.keys() and eval_tensor(copy, em) == 1


def test_contract_refuses_a_repeated_bound_variable():
    # As a prenex prefix never holds one; optimize renames apart.
    x = Variable("x")
    with pytest.raises(ValueError, match="bound variables not distinct"):
        Contract((x, x), (atom("a", "x"),))


def test_trace_under_a_contraction_with_an_unused_bound_variable():
    # The quantifier below the contraction loops over x only, so its trace
    # holds N events whichever bound variables the contraction lists.
    x, y, z = (fotensor.Variable(name) for name in "xyz")
    body = (atom("a", x), Exists(z, atom("succ", x, z)))
    em = _embedded("aab", "ab", "succ")
    for bound in ((x, y), (y, x), (x,)):
        plan = Contract(bound, (And(body),))
        trace: list[TraceEvent] = []
        assert eval_tensor(plan, em, trace=trace) == 1
        assert len(trace) == _trace_size(plan, 3) == 3
        assert [dict(t.bindings)["x"] for t in trace] == [1, 2, 3]


def test_embedding_prec_at_n_1024_allocates_no_temporary():
    m = word_model("ab" * 512, "ab", "prec")
    tracemalloc.start()
    try:
        embed_model(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_non_integer_relation_tensor_is_rejected():
    with pytest.raises(ClosureError, match="not a 0/1 tensor"):
        EmbeddedModel(1, {"a": np.array([0.5])})
    with pytest.raises(ClosureError, match="not a 0/1 tensor"):
        EmbeddedModel(2, {"a": np.array([0.0, 1.0])})
    assert EmbeddedModel(2, {"a": np.array([True, False])}).tensor("a", 1).tolist() == [True, False]


def test_relation_axes_must_have_basis_size():
    # Past construction, a short relation is misread by the planned plan
    # and crashes numpy in the plain and batched ones.
    short = np.array([True, False])
    cases = [
        ({"a": short}, None, r"\(2,\)"),
        ({"succ": np.ones((3, 2), dtype=bool)}, None, r"\(3, 2\)"),
        ({"a": short[None]}, np.ones((1, 3), dtype=bool), r"\(1, 2\)"),
    ]
    for relations, domain, shape in cases:
        with pytest.raises(ValueError, match=rf"relation tensor '\w+' has shape {shape}, not basis_size 3"):
            EmbeddedModel(3, relations, domain=domain)


# --- bool storage -----------------------------------------------------------

def test_relations_are_bool_wherever_built():
    doc = '{"domain": 3, "unary": {"a": [1, 3]}, "binary": {"r": [[1, 2]]}}'
    models = [
        word_model("abba", "ab", "succ"),
        word_model("abba", "ab", "prec"),
        build_tree_model([("", "s"), ("0", "t"), ("1", "s")], Alphabet("st")),
        load_structure(doc),
        StructureModel(2, {"a": [1, 0]}, {"r": np.array([[0, 1], [1, 1]])}),
    ]
    for m in models:
        assert all(t.dtype == bool for t in [*m.unary.values(), *m.binary.values()]), m
        assert all(t.dtype == bool for t in embed_model(m).relation_tensors.values()), m
    em = embed_words(Alphabet("ab"), 3, "prec")
    assert all(t.dtype == bool for t in em.relation_tensors.values()) and em.domain.dtype == bool


def test_every_node_value_is_bool(monkeypatch):
    # Plain, planned and batched evaluation of the traversal corpus: each
    # node's value, the clamps' included, is a bool array or scalar.
    dtypes = set()
    lower = _Program.lower

    def recording(self, e, *args):
        step = lower(self, e, *args)

        def recorded(run):
            value = step(run)
            dtypes.add(value.dtype)
            return value

        return recorded

    monkeypatch.setattr(_Program, "lower", recording)
    batches = {}
    for i, formula in enumerate(traversal_corpus()):
        symbols, kind = ("ab", "abc")[i % 2], ("succ", "prec")[i // 2 % 2]
        plan = compile_formula(formula)
        planned = optimize(plan)
        em = embed_model(word_model(symbols[::-1] * 2, symbols, kind))
        assert eval_tensor(plan, em) == eval_tensor(planned, em), str(formula)
        if (symbols, kind) not in batches:
            batches[symbols, kind] = embed_words(Alphabet(symbols), 3, kind)
        eval_batch(planned, batches[symbols, kind])
    assert dtypes == {np.dtype(bool)}
