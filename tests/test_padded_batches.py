"""Padded batches: words of different lengths in one eval_batch, each seeing
only its own positions through the domain mask."""

import json
import tracemalloc

import numpy as np
import pytest

import fotensor.languages as languages
import fotensor.tensors as tensors
from conftest import all_words, word_model
from fotensor import (
    Alphabet,
    ClosureError,
    Exists,
    LanguageSpec,
    Variable,
    compile_formula,
    embed_model,
    embed_words,
    enumerate_language,
    eval_batch,
    eval_tensor,
    load_structure,
    optimize,
    parse_formula,
    atom,
    tarski_eval,
)
from fotensor.formulas import And, Equal, Forall, Not, Or
from fotensor.tensors import Contract

X, Y = Variable("x"), Variable("y")

FORMULAS = [
    "exists x. forall y. ({b}(x) & ({b}(y) -> x = y))",  # one-b
    "forall x. forall y. (a(x) & {kind}(x, y) -> a(y))",  # a forall run
    "forall x. a(x)",
    "exists x. exists y. a(x)",  # an unused bound variable
    "forall x. forall y. {b}(y)",
    "exists x. exists y. x = y",
    "exists x. exists y. !(x = y)",
    "forall x. forall y. (x = y | {kind}(x, y) | {kind}(y, x))",
    "!(exists x. !a(x)) & (exists y. ({b}(y) | !{kind}(y, y)))",
]


def _hand_built(kind):
    """Plain plans with a quantifier under a complement or a product, as no
    compiled formula has them, and the closed formulas they stand for."""
    return [
        (Not(Exists(X, Not(atom("a", X)))), "forall x. a(x)"),
        (
            And((Not(Forall(Y, atom("b", Y))), Exists(X, atom("a", X)))),
            "!(forall y. b(y)) & (exists x. a(x))",
        ),
        (
            Or((Not(Exists(X, atom("a", X))), Forall(Y, atom("b", Y)))),
            "!(exists x. a(x)) | (forall y. b(y))",
        ),
        (
            Not(Contract((X, Y), (atom(kind, X, Y), Not(Equal(X, Y))))),
            f"!(exists x. exists y. ({kind}(x, y) & !(x = y)))",
        ),
        (
            Contract((X,), (Not(Contract((Y,), (Not(atom("b", Y)),))),)),
            "exists x. !(exists y. !b(y))",
        ),
        (Exists(X, Contract((Y,), (atom("a", X),))), "exists x. exists y. a(x)"),
    ]


def _chunks(total):
    """Every chunk of 1, 2, 5 and all consecutive words, from each start."""
    for size in (1, 2, 5, total):
        for start in range(total - size + 1):
            yield start, start + size


def _check_every_chunk(plans, formula, symbols, kind, max_len):
    words = all_words(symbols, max_len)
    want = [int(tarski_eval(formula, word_model(w, symbols, kind))) for w in words]
    for plan in plans:
        single = [eval_tensor(plan, embed_model(word_model(w, symbols, kind))) for w in words]
        assert single == want, str(formula)
        for start, stop in _chunks(len(words)):
            em = embed_words(Alphabet(symbols), max_len, kind, start, stop)
            assert em.basis_size == len(words[stop - 1])
            got = eval_batch(plan, em).tolist()
            assert got == want[start:stop], (str(formula), kind, words[start:stop])


@pytest.mark.parametrize("kind", ["succ", "prec"])
@pytest.mark.parametrize("text", FORMULAS)
@pytest.mark.parametrize("symbols, max_len", [("ab", 3), ("a", 5)])
def test_padded_chunks_match_each_word(text, kind, symbols, max_len):
    # Chunk [0, 1) holds the empty word alone (N = 0); the others pad
    # shorter words, the empty one included, to their longest.
    formula = parse_formula(text.format(kind=kind, b=symbols[-1]))
    plan = compile_formula(formula)
    _check_every_chunk((plan, optimize(plan)), formula, symbols, kind, max_len)


@pytest.mark.parametrize("kind", ["succ", "prec"])
def test_padded_chunks_relativize_hand_built_plans(kind):
    for plan, text in _hand_built(kind):
        for symbols, max_len in (("ab", 3), ("ba", 2)):
            _check_every_chunk((plan, optimize(plan)), parse_formula(text), symbols, kind, max_len)


def test_padding_is_no_letter_and_outside_the_domain():
    em = embed_words(Alphabet("ab"), 3, "succ", 2, 8)  # b, aa, ab, ba, bb, aaa
    assert em.basis_size == 3 and em.batch_size == 6
    assert em.digits.tolist() == [[1, 2, 2], [0, 0, 2], [0, 1, 2], [1, 0, 2], [1, 1, 2], [0, 0, 0]]
    assert em.domain.tolist() == (em.digits < 2).tolist()
    assert em.relation_tensors["a"].dtype == em.domain.dtype == bool
    assert em.relation_tensors["a"].tolist() == (em.digits == 0).tolist()
    empty = embed_words(Alphabet("ab"), 3, "succ", 0, 1)
    assert empty.basis_size == 0 and empty.domain.shape == (1, 0)


def test_enumerate_evaluates_one_chunk_for_every_length(monkeypatch):
    calls = []
    real = languages.eval_batch
    monkeypatch.setattr(languages, "eval_batch", lambda plan, m: calls.append(m.batch_size) or real(plan, m))
    spec = LanguageSpec(parse_formula(FORMULAS[0].format(b="b")), "succ", Alphabet("ab"))
    assert len(enumerate_language(spec, 9)) == sum(range(10))  # one b among L letters
    assert calls == [2**10 - 1]


def test_a_one_letter_alphabet_pads_each_chunk_at_most_twofold(monkeypatch):
    # One word per length: the planned one-b peaks at N^2 cells per word,
    # so a chunk of lengths s..N holds (N - s + 1) N^2 cells padded.
    chunks = []
    real = languages.eval_batch
    monkeypatch.setattr(languages, "eval_batch", lambda plan, m: chunks.append(m.domain.sum(1)) or real(plan, m))
    spec = LanguageSpec(parse_formula(FORMULAS[0].format(b="b")), "succ", Alphabet("b"))
    assert enumerate_language(spec, 300) == ["b"]
    assert np.concatenate(chunks).tolist() == list(range(301))
    assert all(len(c) * c.max() ** 2 <= 2 * (c**2).sum() for c in chunks)
    assert [len(c) for c in chunks] == [2, 5, 13, 36, 98, 147]


def test_a_300_letter_alphabet_keeps_every_digit(monkeypatch):
    # Letters 255, 256 and 299 need more than 8 bits, and the padding
    # digit, 300, more again.
    letters = [chr(0x100 + k) for k in range(300)]
    first, second, last = letters[255], letters[256], letters[299]
    text = f"exists x. exists y. (succ(x, y) & {first}(x) & ({second}(y) | {last}(y)))"
    spec = LanguageSpec(parse_formula(text), "succ", Alphabet(letters))
    # In one chunk of 90,301 words, built with only the three labels the
    # plan reads: all 300 take 51.7 MiB.
    tracemalloc.start()
    try:
        words = enumerate_language(spec, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words == [first + second, first + last] and peak < 8 << 20
    monkeypatch.setattr(tensors, "MAX_CELLS", 1 << 14)  # 23 chunks of 4,096 words
    assert enumerate_language(spec, 2) == [first + second, first + last]
    for word in ("", first, first + second, first + last, second + last, last + first, letters[44] * 2):
        m = word_model(word, "".join(letters), "succ")
        assert int(tarski_eval(spec.formula, m)) == int(word in (first + second, first + last)), word


def test_a_batch_ignores_relations_named_like_the_mask():
    # A tree's dom, or a relation named domain, #domain or #batch, is an
    # ordinary relation.
    doc = {
        "domain": 3,
        "unary": {"domain": [1], "#domain": [3], "#batch": [2]},
        "binary": {"dom": [[1, 2], [1, 3]]},
    }
    m = load_structure(json.dumps(doc))
    for text in (
        "exists x. (domain(x) & (forall y. (dom(x, y) | x = y)))",
        "forall x. forall y. (dom(x, y) -> !domain(y))",
        "exists x. exists y. (domain(x) & dom(x, y))",
    ):
        f = parse_formula(text)
        for plan in (compile_formula(f), optimize(compile_formula(f))):
            want = int(tarski_eval(f, m))
            assert eval_batch(plan, embed_model(m)).tolist() == [eval_tensor(plan, embed_model(m))] == [want]


def test_a_variable_named_like_the_batch_axis_is_an_ordinary_variable():
    # The batch axis is a scope position, not a name a variable can take.
    plan = compile_formula(Exists(Variable("#batch"), atom("b", "#batch")))
    em = embed_words(Alphabet("ab"), 2, "succ")  # "", a, b, aa, ab, ba, bb
    for p in (plan, optimize(plan)):
        assert eval_batch(p, em).tolist() == [0, 0, 1, 0, 1, 1, 1]


def test_eval_tensor_refuses_a_masked_model():
    # eval_tensor's scope has no batch axis for a mask to go on.
    m = tensors.EmbeddedModel(2, {"a": np.array([[True, False]])}, domain=np.array([[True, False]]))
    plan = compile_formula(parse_formula("forall x. a(x)"))
    with pytest.raises(ValueError, match="use eval_batch"):
        eval_tensor(plan, m)
    assert eval_batch(plan, m).tolist() == [1]


def test_a_batch_is_any_model_with_a_domain_mask():
    # Two structures over three elements, sharing a labels row and the
    # successor order through batch axes of size 1; the mask alone sets B.
    domain = np.array([[True, True, False], [True, True, True]])
    shared = {"a": np.array([[True, True, False]]), "succ": np.eye(3, k=1, dtype=bool)[None]}
    m = tensors.EmbeddedModel(3, shared, domain=domain)
    assert m.batch_size == 2
    for text, want in (("forall x. a(x)", [1, 0]), ("exists x. exists y. (succ(x, y) & !a(y))", [0, 1])):
        plan = compile_formula(parse_formula(text))
        assert eval_batch(plan, m).tolist() == eval_batch(optimize(plan), m).tolist() == want
    for bad in (np.array([True, True, False]), np.ones((3, 3), dtype=bool), np.ones((4, 3), dtype=bool)):
        with pytest.raises(ValueError, match="no batch axis of size 2 or 1"):
            tensors.EmbeddedModel(3, {"a": bad}, domain=domain)
    for mask in (domain[0], domain[:, :2], domain[None]):
        with pytest.raises(ValueError, match=r"expected \(B, 3\)"):
            tensors.EmbeddedModel(3, {}, domain=mask)
    with pytest.raises(ClosureError, match="the domain mask is not a 0/1 tensor"):
        tensors.EmbeddedModel(3, {}, domain=np.array([[1, 2, 0]]))


def test_shortlex_order_numbers_the_batch():
    # embed_words numbers words in shortlex order, in the alphabet's order.
    alphabet = Alphabet("rla")
    words = all_words("rla", 3)
    em = embed_words(alphabet, 3, "prec")
    letters = np.array([*alphabet.symbols, ""])
    assert list(map("".join, letters[em.digits].tolist())) == words
