import random

import pytest

import fotensor.diffcheck as diffcheck
import fotensor.tensors as tensors
from conftest import split_prenex
from fotensor import (
    compile_formula,
    embed_model,
    embed_words,
    eval_batch,
    eval_tensor,
    free_variables,
    optimize,
    parse_formula,
    to_prenex,
)
from fotensor.diffcheck import (
    batched_value,
    case_from_seed,
    compare_paths,
    random_formula,
    random_word,
    run_differential_check,
)
from fotensor.models import Alphabet, StructureModel, build_successor_model
from fotensor.formulas import Atom, Equal, Not


def test_random_formulas_are_closed_and_bounded():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, ("a", "b"), "succ")
        assert not free_variables(f)
        # The quantifier budget bounds the prenex prefix at three.
        assert len(split_prenex(to_prenex(f))[0]) <= 4  # + one possible padding quantifier


def test_random_words_respect_bounds():
    rng = random.Random(9)
    for _ in range(100):
        w = random_word(rng, Alphabet("ab"), max_len=5)
        assert len(w) <= 5 and set(w) <= {"a", "b"}


def test_reports_are_deterministic():
    a = run_differential_check(60, seed=123)
    b = run_differential_check(60, seed=123)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_small_run_agrees():
    report = run_differential_check(200, seed=0)
    assert report.ok, report.to_text()
    assert report.agreements == 200
    assert report.to_text().endswith("200/200 agree (seed 0)")


def test_case_reproducible_from_seed():
    report = run_differential_check(10, seed=77)
    case = case_from_seed(3, (77 * 1_000_003 + 3) & 0x7FFFFFFF)
    plan = compile_formula(case.formula)
    tensor_value, optimized_value, oracle_value = compare_paths(
        case.formula, plan, optimize(plan), case.word, case.kind, Alphabet(case.alphabet)
    )
    assert tensor_value == optimized_value == oracle_value
    assert report.total == 10


def test_corrupted_disjunction_detected(monkeypatch):
    # Removing the clamp breaks 0/1 closure as soon as two disjuncts hold at
    # once; the harness must surface it rather than hide it.
    plan = compile_formula(parse_formula("exists x. (b(x) | b(x))"))
    em = embed_model(build_successor_model("b", Alphabet("ab")))
    assert eval_tensor(plan, em) == 1

    monkeypatch.setattr(tensors, "min1", lambda x: x)
    with pytest.raises(AssertionError):
        eval_tensor(plan, em)


def test_corrupted_build_fails_the_check(monkeypatch):
    healthy = run_differential_check(40, seed=6)
    assert healthy.ok
    monkeypatch.setattr(tensors, "min1", lambda x: x)
    broken = run_differential_check(40, seed=6)
    assert not broken.ok
    assert any(f.error or f.tensor_value != f.oracle_value for f in broken.failures)


def test_optimized_plan_disagreement_fails_the_check(monkeypatch):
    # A rewriter that negates every plan breaks only the optimized path.
    monkeypatch.setattr(diffcheck, "optimize", lambda plan: Not(plan))
    report = run_differential_check(20, seed=0)
    assert len(report.failures) == 20
    for f in report.failures:
        assert f.tensor_value == f.oracle_value != f.optimized_value
    assert "optimized=" in report.to_text()
    assert '"optimized": ' in report.to_json()


def test_batched_path_disagreement_fails_the_check(monkeypatch):
    # Negating every batched value breaks only the batched path.
    real = diffcheck.eval_batch
    monkeypatch.setattr(diffcheck, "eval_batch", lambda plan, model: 1 - real(plan, model))
    report = run_differential_check(20, seed=0)
    assert len(report.failures) == 20
    for f in report.failures:
        assert f.tensor_value == f.optimized_value == f.oracle_value != f.batched_value
    assert "batched=" in report.to_text()
    assert '"batched": ' in report.to_json()


def test_batched_value_reads_the_case_word_from_its_chunk(monkeypatch):
    formula = parse_formula("forall x. (b(x) -> exists y. (a(y) & succ(y, x)))")
    alphabet = Alphabet("ab")
    # The plan peaks at N^2 cells, so at N = 5 a batch may hold 80 // 25 = 3
    # words: the two words of batched_value's batch fit.
    monkeypatch.setattr(tensors, "MAX_CELLS", 5 * 4**2)
    for word in ("aaaa", "abab", "aabb", "baaa", "abba", "bbbb"):
        em = embed_model(build_successor_model(word, alphabet))
        plan = compile_formula(formula)
        assert batched_value(plan, word, "succ", alphabet) == eval_tensor(plan, em)


def test_tensor_paths_embed_each_word_without_embed_model(monkeypatch):
    # Only the oracle reads the word's StructureModel.
    def refuse(m):
        raise RuntimeError("embed_model on a word")

    for module in (tensors, diffcheck):
        monkeypatch.setattr(module, "embed_model", refuse, raising=False)
    models = []
    real = diffcheck.tarski_eval
    monkeypatch.setattr(diffcheck, "tarski_eval", lambda f, m: models.append(m) or real(f, m))
    report = run_differential_check(20)
    assert report.to_text() == "20/20 agree (seed 0)"
    assert len(models) == 20 and all(isinstance(m, StructureModel) for m in models)


def test_each_case_is_compiled_once(monkeypatch):
    calls = []
    real = diffcheck.compile_formula
    monkeypatch.setattr(diffcheck, "compile_formula", lambda f: calls.append(f) or real(f))
    assert run_differential_check(100, seed=42).ok
    assert len(calls) == 100


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        run_differential_check(0)


# --- long words ---------------------------------------------------------
# Random formulas whose prenex prefix alternates (two blocks or more) and
# whose matrix relates two variables, each with a word as long as
# N^k <= 2^12 allows for its k-quantifier prefix: N up to 64 for the plain,
# optimized and batched paths against the oracle.
_LONG_WORD_LENGTHS = {2: (64, 61, 47, 33), 3: (16, 13), 4: (8, 7)}


def _relates_two_variables(f):
    if isinstance(f, Atom):
        return len(set(f.terms)) == 2
    if isinstance(f, Equal):
        return f.left != f.right
    return any(map(_relates_two_variables, f.children()))


def _long_word_cases():
    rng = random.Random(4096)
    wanted = {2: 20, 3: 8, 4: 4}
    while any(wanted.values()):
        symbols, kind = rng.choice(("ab", "abc")), rng.choice(("succ", "prec"))
        formula = random_formula(rng, tuple(symbols), kind, max_depth=4)
        prefix, matrix = split_prenex(to_prenex(formula))
        k = len(prefix)
        alternates = len({q for q, _ in prefix}) == 2
        if wanted.get(k) and alternates and _relates_two_variables(matrix):
            lengths = _LONG_WORD_LENGTHS[k]
            n = lengths[wanted[k] % len(lengths)]
            wanted[k] -= 1
            word = "".join(rng.choice(symbols) for _ in range(n))
            yield formula, Alphabet(symbols), kind, word


LONG_WORD_CASES = list(_long_word_cases())


def test_long_word_cases_reach_n_64():
    assert len(LONG_WORD_CASES) == 32
    assert max(len(word) for *_, word in LONG_WORD_CASES) == 64


@pytest.mark.parametrize("index", range(len(LONG_WORD_CASES)))
def test_long_words_agree_with_the_oracle(index):
    formula, alphabet, kind, word = LONG_WORD_CASES[index]
    plan = compile_formula(formula)
    tensor_value, optimized_value, oracle_value = compare_paths(
        formula, plan, optimize(plan), word, kind, alphabet
    )
    assert tensor_value == optimized_value == oracle_value, (str(formula), word)
    assert batched_value(plan, word, kind, alphabet) == oracle_value, (str(formula), word)


# The deep tier: formulas of 4 to 6 quantifiers over x, y and z, so that a
# variable is bound again below its own binder and the rank can pass the
# number of variables. A formula is kept only if it tells some two words of
# at most 4 letters over ab apart.
_DEEP_BUDGET, _DEEP_LEAST = 6, 4


def _deep_cases(kind, count):
    rng = random.Random(f"deep-{kind}")
    short_words = embed_words(Alphabet("ab"), 4, kind)
    cases = []
    while len(cases) < count:
        formula, rest = diffcheck._gen(rng, [], ("a", "b"), kind, 6, _DEEP_BUDGET)
        if _DEEP_BUDGET - rest < _DEEP_LEAST:
            continue
        plan = compile_formula(formula)
        # Filtered on the batched path; the oracle decides each kept case.
        if len(set(eval_batch(plan, short_words).tolist())) < 2:
            continue
        words = ["".join(rng.choices("ab", k=n)) for n in rng.sample(range(7), 3)]
        cases.append((formula, plan, words))
    return cases


@pytest.mark.parametrize("kind", ("succ", "prec"))
def test_deep_formulas_agree_with_the_oracle(kind):
    alphabet = Alphabet("ab")
    for formula, plan, words in _deep_cases(kind, 100):
        planned = optimize(plan)
        for word in words:
            tensor, optimized, oracle = compare_paths(formula, plan, planned, word, kind, alphabet)
            batched = batched_value(planned, word, kind, alphabet)
            assert tensor == optimized == batched == oracle, (str(formula), word)
