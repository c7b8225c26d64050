"""Property tests driven by seeded random formulas."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words, contains_quantifier, split_prenex, word_model
from fotensor import (
    compile_formula,
    embed_model,
    eval_tensor,
    free_variables,
    optimize,
    parse_formula,
    tarski_eval,
    to_prenex,
)
from fotensor.diffcheck import random_formula, random_word
from fotensor.models import Alphabet

SMALL_WORDS = all_words("ab", 3) + ["abab", "bbaa"]


def _formula_from(seed, scope=()):
    rng = random.Random(seed)
    kind = rng.choice(("succ", "prec"))
    formula = random_formula(rng, ("a", "b"), kind, scope=scope)
    return formula, kind


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_rendering_round_trips(seed):
    formula, _ = _formula_from(seed)
    assert parse_formula(str(formula)) == formula


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_prenex_matrix_is_quantifier_free(seed):
    formula, _ = _formula_from(seed)
    pf = to_prenex(formula)
    assert not contains_quantifier(split_prenex(pf)[1])
    assert free_variables(pf) == free_variables(formula)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_prenex_preserves_truth(seed):
    formula, kind = _formula_from(seed)
    prenexed = to_prenex(formula)
    for word in SMALL_WORDS:
        m = word_model(word, "ab", kind)
        assert tarski_eval(formula, m) == tarski_eval(prenexed, m), word


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_tensor_matches_oracle(seed):
    formula, kind = _formula_from(seed)
    plan = compile_formula(formula)
    for word in SMALL_WORDS:
        m = word_model(word, "ab", kind)
        assert eval_tensor(plan, embed_model(m)) == int(tarski_eval(formula, m)), word


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_optimize_preserves_evaluation(seed):
    formula, kind = _formula_from(seed)
    plan = compile_formula(formula)
    optimized = optimize(plan)
    rng = random.Random(seed ^ 0xA5A5)
    words = {random_word(rng, Alphabet("ab"), 5) for _ in range(8)} | {""}
    for word in words:
        em = embed_model(word_model(word, "ab", kind))
        assert eval_tensor(optimized, em) == eval_tensor(plan, em), word


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_open_formulas_agree_under_assignments(seed):
    formula, kind = _formula_from(seed, scope=("x",))
    plan = compile_formula(formula)
    for word in ["a", "ab", "bab", "abba"]:
        m = word_model(word, "ab", kind)
        em = embed_model(m)
        for i in range(1, len(word) + 1):
            a = {"x": i}
            assert eval_tensor(plan, em, a) == int(tarski_eval(formula, m, a)), (word, i)
