import random
import tracemalloc

import numpy as np
import pytest

import fotensor.languages as languages
import fotensor.tensors as tensors
from conftest import all_words, word_model
from fotensor import (
    Alphabet,
    LanguageSpec,
    SemanticError,
    Variable,
    build_successor_model,
    build_word_model,
    compile_formula,
    embed_model,
    embed_word,
    enumerate_assignments,
    enumerate_language,
    eval_tensor,
    formula_diss,
    formula_one_b,
    optimize,
    parse_formula,
    succ_from_prec_formula,
    tarski_eval,
)
from fotensor.diffcheck import random_formula


def _oracle(spec, word):
    """The reference: tarski_eval on the word's model."""
    return tarski_eval(spec.formula, build_word_model(word, spec.alphabet, spec.model_kind))


def _membership(spec, word):
    """The planned plan on the word's embedding."""
    plan = optimize(compile_formula(spec.formula))
    return bool(eval_tensor(plan, embed_word(word, spec.alphabet, spec.model_kind)))


def _one_b_truth(word):
    return word.count("b") == 1


def _diss_truth(word):
    # Independent description: every pair of l positions has an r between.
    ls = [i for i, c in enumerate(word) if c == "l"]
    for a in range(len(ls)):
        for b in range(a + 1, len(ls)):
            if not any(word[k] == "r" for k in range(ls[a] + 1, ls[b])):
                return False
    return True


def test_one_b_membership_examples():
    spec = formula_one_b()
    assert _membership(spec, "abba") is False
    assert _membership(spec, "b") is True
    assert _membership(spec, "") is False
    assert _membership(spec, "ba") is True
    assert _oracle(spec, "ba") is True


def test_diss_membership_examples():
    spec = formula_diss()
    assert _membership(spec, "lal") is False
    assert _membership(spec, "laral") is True
    assert _membership(spec, "rrr") is True
    assert _membership(spec, "ll") is False
    assert _membership(spec, "") is True


def test_one_b_matches_count_predicate():
    spec = formula_one_b()
    plan = compile_formula(spec.formula)
    for word in all_words("ab", 7):
        m = build_successor_model(word, spec.alphabet)
        assert bool(eval_tensor(plan, embed_model(m))) == _one_b_truth(word), word


def test_diss_matches_pairwise_scan():
    spec = formula_diss()
    for word in all_words("lra", 4):
        assert _membership(spec, word) == _diss_truth(word), word


def test_paths_agree():
    for spec, symbols in [(formula_one_b(), "ab"), (formula_diss(), "lra")]:
        for word in all_words(symbols, 4):
            assert _membership(spec, word) == _oracle(spec, word), word


def _long_words(rng, spec, n):
    """Two accepted and two rejected words of length n."""
    if spec.model_kind == "succ":
        i, j = rng.sample(range(n), 2)
        one = ["a"] * n
        one[i] = "b"
        two = list(one)
        two[j] = "b"
        return ["".join(one), "".join(one[::-1]), "".join(two), "a" * n]
    accepted = []
    while len(accepted) < 2:
        # An l is written only when an r came after the previous l.
        word, open_l = [], False
        for _ in range(n):
            c = rng.choice("lra")
            if c == "l" and open_l:
                c = "r"
            open_l = (open_l or c == "l") and c != "r"
            word.append(c)
        accepted.append("".join(word))
    rejected = []
    while len(rejected) < 2:
        word = "".join(rng.choice("lra") for _ in range(n))
        if not _diss_truth(word):
            rejected.append(word)
    return accepted + rejected


@pytest.mark.parametrize(
    "spec, truth, sizes",
    [(formula_one_b(), _one_b_truth, (32, 64, 128)), (formula_diss(), _diss_truth, (16, 32, 64))],
    ids=["one-b", "dissimilation"],
)
def test_long_words_all_paths_agree(spec, truth, sizes):
    rng = random.Random(2024)
    plan = compile_formula(spec.formula)
    optimized = optimize(plan)
    assert optimized != plan
    for n in sizes:
        words = _long_words(rng, spec, n)
        assert [truth(w) for w in words] == [True, True, False, False], words
        for word in words:
            m = word_model(word, "".join(spec.alphabet), spec.model_kind)
            em = embed_model(m)
            expected = int(truth(word))
            assert eval_tensor(plan, em) == expected, word
            assert eval_tensor(optimized, em) == expected, word
            assert int(tarski_eval(spec.formula, m)) == expected, word


def test_enumerate_one_b():
    assert enumerate_language(formula_one_b(), 2) == ["b", "ab", "ba"]


def test_enumerate_diss_max1():
    assert enumerate_language(formula_diss(), 1) == ["", "l", "r", "a"]


def test_enumerate_diss_excludes_only_ll_up_to_2():
    words = enumerate_language(formula_diss(), 2)
    assert len(words) == 12
    assert "ll" not in words
    assert set(words) == set(all_words("lra", 2)) - {"ll"}


def test_enumerate_zero_length():
    assert enumerate_language(formula_one_b(), 0) == []
    assert enumerate_language(formula_diss(), 0) == [""]
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        enumerate_language(formula_one_b(), -1)


def test_enumerate_paths_agree():
    spec = formula_diss()
    assert enumerate_language(spec, 3) == [w for w in all_words("lra", 3) if _oracle(spec, w)]


def test_enumeration_follows_alphabet_order():
    # {l, r, a} is not ASCII order; length-then-lex uses the alphabet order.
    words = enumerate_language(formula_diss(), 1)
    assert words == ["", "l", "r", "a"]
    anything = LanguageSpec(parse_formula("forall x. x = x"), "succ", Alphabet("ba"))
    assert enumerate_language(anything, 1) == all_words("ba", 1) == ["", "b", "a"]


@pytest.mark.parametrize("symbols", ["\x00b", "b\x00", "\U0001f600a", "a\U0001f600"])
@pytest.mark.parametrize("text", ["forall x. x = x", "exists x. {c}(x)", "forall x. (succ(x, x) | !{c}(x))"])
def test_enumerate_spells_nul_and_non_bmp_letters(symbols, text):
    # Words are read from code points, where numpy drops a string's trailing
    # NULs: a word that ends in a NUL letter keeps it, and a letter past
    # U+FFFF is one letter.
    letter = symbols.replace("\x00", "").replace("\U0001f600", "")
    spec = LanguageSpec(parse_formula(text.format(c=letter)), "succ", Alphabet(symbols))
    words = enumerate_language(spec, 3)
    assert words == [w for w in all_words(symbols, 3) if _oracle(spec, w)]


def test_one_b_insensitive_to_model_kind():
    succ_spec = formula_one_b()
    prec_spec = LanguageSpec(succ_spec.formula, "prec", succ_spec.alphabet)
    for word in all_words("ab", 5):
        assert _membership(succ_spec, word) == _membership(prec_spec, word), word


def test_succ_from_prec_recovers_successor():
    phi = succ_from_prec_formula()
    for word in all_words("ab", 5):
        prec_m = word_model(word, "ab", "prec")
        succ_m = word_model(word, "ab", "succ")
        expected = succ_m.binary_pairs("succ")
        derived = {
            (a["x"], a["y"])
            for a in enumerate_assignments([Variable("x"), Variable("y")], prec_m)
            if tarski_eval(phi, prec_m, a)
        }
        assert derived == expected, word


def test_succ_from_prec_examples():
    phi = succ_from_prec_formula()
    m1 = word_model("a", "ab", "prec")
    assert not any(
        tarski_eval(phi, m1, a)
        for a in enumerate_assignments([Variable("x"), Variable("y")], m1)
    )
    m2 = word_model("ab", "ab", "prec")
    holds = {
        (a["x"], a["y"])
        for a in enumerate_assignments([Variable("x"), Variable("y")], m2)
        if tarski_eval(phi, m2, a)
    }
    assert holds == {(1, 2)}


def test_language_spec_validation():
    with pytest.raises(ValueError):
        LanguageSpec(parse_formula("b(x)"), "succ", Alphabet("ab"))  # open
    with pytest.raises(ValueError):
        LanguageSpec(parse_formula("exists x. q(x)"), "succ", Alphabet("ab"))
    with pytest.raises(ValueError):
        # prec is not the successor model's order relation
        LanguageSpec(parse_formula("exists x. exists y. prec(x, y)"), "succ", Alphabet("ab"))


def test_embed_word_requires_known_symbols():
    from fotensor import UnknownSymbolError

    with pytest.raises(UnknownSymbolError):
        embed_word("abc", Alphabet("ab"), "succ")


def test_tree_kind_has_no_word_membership():
    with pytest.raises(ValueError, match="unknown model kind 'tree'"):
        LanguageSpec(parse_formula("exists x. exists y. dom(x, y)"), "tree", Alphabet("st"))


def test_enumerate_reaches_roadmap_targets():
    one_b = enumerate_language(formula_one_b(), 12)
    assert len(one_b) == 78
    assert one_b == [w for w in all_words("ab", 12) if _one_b_truth(w)]
    diss = enumerate_language(formula_diss(), 7)
    assert len(diss) == 1596
    assert diss == [w for w in all_words("lra", 7) if _diss_truth(w)]


def _consecutive_ls_have_an_r(word):
    # _diss_truth, in time linear in the word.
    return all("r" in between for between in word.split("l")[1:-1])


@pytest.mark.parametrize(
    "spec, truth, n",
    [(formula_diss(), _consecutive_ls_have_an_r, n) for n in (256, 512, 1024)]
    + [(formula_one_b(), _one_b_truth, n) for n in (512, 2048)],
    ids=["dissimilation-256", "dissimilation-512", "dissimilation-1024", "one-b-512", "one-b-2048"],
)
def test_planned_eval_on_long_words(spec, truth, n):
    # The plain plans are refused from N = 257 (dissimilation) and 4097
    # (one-b); the oracle is compared up to N = 128 above.
    planned = optimize(compile_formula(spec.formula))
    words = _long_words(random.Random(n), spec, n)
    assert [truth(w) for w in words] == [True, True, False, False], words
    for word, expected in zip(words, (1, 1, 0, 0)):
        m = word_model(word, "".join(spec.alphabet), spec.model_kind)
        assert eval_tensor(planned, embed_model(m)) == expected, word


def test_enumerate_in_chunks_equals_one_batch(monkeypatch):
    spec = formula_diss()  # depth 3
    whole = enumerate_language(spec, 5)
    batches = []
    real = languages.eval_batch

    def spy(plan, model):
        letters = np.array([*spec.alphabet.symbols, ""])
        batches.append((model.basis_size, list(map("".join, letters[model.digits].tolist()))))
        return real(plan, model)

    monkeypatch.setattr(languages, "eval_batch", spy)
    # The planned plan's arrays have at most two variables: N^2 per word,
    # N the chunk's longest word.
    monkeypatch.setattr(tensors, "MAX_CELLS", 7 * 5**2)
    assert enumerate_language(spec, 5) == whole
    assert all(len(words) * n**2 <= 7 * 5**2 for n, words in batches)
    assert all(n == max(map(len, words)) for n, words in batches)
    # Padding to N at most doubles a chunk's cells.
    assert all(len(words) * n**2 <= 2 * sum(len(w) ** 2 for w in words) for n, words in batches)
    # The chunks cover every word once, in order, and a chunk that ends
    # inside a length is full: one more word would pass the limit.
    assert [w for _, words in batches for w in words] == all_words("lra", 5)
    for (n, words), (_, after) in zip(batches, batches[1:]):
        assert len(after[0]) > n or (len(words) + 1) * n**2 > 7 * 5**2


def test_enumerate_refuses_a_word_over_the_limit_before_allocating():
    spec = LanguageSpec(
        parse_formula(
            "exists x. exists y. exists z. exists w. "
            "(succ(x, y) & succ(x, z) & succ(x, w) & succ(y, z) & succ(y, w) & succ(z, w))"
        ),
        "succ",
        Alphabet("ab"),
    )
    tracemalloc.start()
    try:
        with pytest.raises(SemanticError, match=r"400\^3"):
            enumerate_language(spec, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_refuses_a_long_order_relation_before_evaluating(monkeypatch):
    # The plan's peak, one variable, passes at length 5000; the order
    # relation of the longest words, 5000 x 5000 cells, does not, and is
    # refused before any word is embedded.
    def embed_words(*args, **kwargs):
        raise AssertionError("embed_words called")

    monkeypatch.setattr(languages, "embed_words", embed_words)
    spec = LanguageSpec(parse_formula("exists x. a(x)"), "succ", Alphabet("a"))
    with pytest.raises(SemanticError, match="domain size 5000 needs N x N tensors of 25000000 cells"):
        enumerate_language(spec, 5000)


def test_enumerate_tensor_path_matches_oracle_on_random_formulas():
    rng = random.Random(31)
    for i in range(102):
        symbols = ("ab", "abc", "lra")[i % 3]
        kind = ("succ", "prec")[i // 3 % 2]
        spec = LanguageSpec(random_formula(rng, tuple(symbols), kind), kind, Alphabet(symbols))
        oracle = [w for w in all_words(symbols, 4) if _oracle(spec, w)]
        assert enumerate_language(spec, 4) == oracle, spec.formula


def test_enumerate_refuses_more_words_than_the_limit(monkeypatch):
    spec = LanguageSpec(parse_formula("exists x. a(x)"), "succ", Alphabet("ab"))
    monkeypatch.setattr(languages, "MAX_WORDS", 7)
    assert enumerate_language(spec, 2) == ["a", "aa", "ab", "ba"]  # 1 + 2 + 4 = 7 words
    with pytest.raises(SemanticError, match="at least 15 words, over the limit of 7"):
        enumerate_language(spec, 3)
