import random

import pytest

import fotensor.diffcheck as diffcheck
import fotensor.tensors as tensors
from fotensor import compile_formula, embed_model, eval_tensor, free_variables, optimize, parse_formula
from fotensor.diffcheck import (
    batched_value,
    case_from_seed,
    compare_paths,
    random_formula,
    random_word,
    run_differential_check,
)
from fotensor.models import Alphabet, build_successor_model
from fotensor.tensors import Complement


def test_random_formulas_are_closed_and_bounded():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, ("a", "b"), "succ")
        assert not free_variables(f)
        # The quantifier budget bounds the prenex prefix at three.
        from fotensor import to_prenex

        assert len(to_prenex(f).prefix) <= 4  # + one possible padding quantifier


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
    monkeypatch.setattr(diffcheck, "optimize", lambda plan: Complement(plan))
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
    # The plan peaks at N^2 cells, so at N = 5 a chunk holds 80 // 25 = 3
    # words from the case word on.
    monkeypatch.setattr(tensors, "MAX_CELLS", 5 * 4**2)
    for word in ("aaaa", "abab", "aabb", "baaa", "abba", "bbbb"):
        em = embed_model(build_successor_model(word, alphabet))
        plan = compile_formula(formula)
        assert batched_value(plan, word, "succ", alphabet) == eval_tensor(plan, em)


def test_each_case_is_compiled_once(monkeypatch):
    calls = []
    real = diffcheck.compile_formula
    monkeypatch.setattr(diffcheck, "compile_formula", lambda f: calls.append(f) or real(f))
    assert run_differential_check(100, seed=42).ok
    assert len(calls) == 100


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        run_differential_check(0)
