import numpy as np
import pytest

from conftest import all_words
from fotensor import (
    Alphabet,
    SemanticError,
    StructureFormatError,
    StructureModel,
    UnknownSymbolError,
    build_precedence_model,
    build_successor_model,
    build_word_model,
    dump_structure,
    load_structure,
)
from fotensor import models
from fotensor.models import MAX_CELLS, is_zero_one, order_relation

ABC = Alphabet("abc")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet(["ab"])
    assert list(Alphabet("ab")) == ["a", "b"]


def test_alphabets_compare_by_symbols():
    assert Alphabet("ab") == Alphabet(["a", "b"]) != Alphabet("ba")
    assert Alphabet("ab") != "ab"
    assert len({Alphabet("ab"), Alphabet("ab"), Alphabet("ba")}) == 2
    assert repr(Alphabet("ab")) == "Alphabet('ab')"


def test_successor_model_of_abba():
    m = build_successor_model("abba", ABC)
    assert m.domain_size == 4
    assert m.unary_positions("a") == {1, 4}
    assert m.unary_positions("b") == {2, 3}
    assert m.unary_positions("c") == set()
    assert m.binary_pairs("succ") == {(1, 2), (2, 3), (3, 4)}


def test_precedence_model_of_abba():
    m = build_precedence_model("abba", ABC)
    assert m.binary_pairs("prec") == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert m.unary_positions("a") == {1, 4}
    assert m.unary_positions("b") == {2, 3}


def test_empty_word_models():
    for build in (build_successor_model, build_precedence_model):
        m = build("", Alphabet("ab"))
        assert m.domain_size == 0
        assert all(m.unary_positions(s) == set() for s in "ab")
        assert all(len(pairs) == 0 for pairs in (m.binary_pairs(r) for r in m.binary))


def test_singleton_word():
    m = build_successor_model("a", Alphabet("ab"))
    assert m.domain_size == 1
    assert m.binary_pairs("succ") == set()
    assert m.unary_positions("a") == {1}
    assert m.unary_positions("b") == set()


def test_precedence_model_of_abc():
    m = build_precedence_model("abc", ABC)
    assert m.binary_pairs("prec") == {(1, 2), (1, 3), (2, 3)}


def test_unknown_symbol_rejected():
    with pytest.raises(UnknownSymbolError):
        build_successor_model("abd", ABC)


def test_label_relations_agree_between_kinds():
    for word in all_words("ab", 5):
        succ = build_successor_model(word, Alphabet("ab"))
        prec = build_precedence_model(word, Alphabet("ab"))
        for s in "ab":
            assert succ.unary_positions(s) == prec.unary_positions(s)
        assert set(succ.binary) == {"succ"} and set(prec.binary) == {"prec"}


def test_order_relation_sizes():
    for word in all_words("ab", 6):
        n = len(word)
        succ = build_successor_model(word, Alphabet("ab"))
        prec = build_precedence_model(word, Alphabet("ab"))
        assert len(succ.binary_pairs("succ")) == max(0, n - 1)
        assert len(prec.binary_pairs("prec")) == n * (n - 1) // 2


def test_each_position_has_exactly_one_label():
    for word in all_words("ab", 5):
        m = build_successor_model(word, Alphabet("ab"))
        for i in range(1, len(word) + 1):
            labels = [s for s in "ab" if i in m.unary_positions(s)]
            assert len(labels) == 1


def test_structure_rejects_bad_entries():
    with pytest.raises(ValueError, match="domain size must be nonnegative"):
        StructureModel(-1)
    with pytest.raises(ValueError):
        StructureModel(2, {"a": [0, 2]})
    with pytest.raises(ValueError):
        StructureModel(2, {"a": [0, 1, 1]})
    with pytest.raises(ValueError):
        StructureModel(2, {"a": [0, 1]}, {"a": np.zeros((2, 2), dtype=int)})


def test_structures_are_immutable():
    m = build_successor_model("ab", Alphabet("ab"))
    with pytest.raises(ValueError):
        m.unary["a"][0] = 0
    # The model copies the caller's array: that stays writable, and writing
    # to it leaves the model as it was.
    a = np.array([1, 0])
    m = StructureModel(2, {"a": a})
    a[0] = 0
    assert m.unary["a"].tolist() == [1, 0]
    with pytest.raises(ValueError):
        m.unary["a"][0] = 0


def test_structure_equality_and_repr():
    m = build_successor_model("ab", Alphabet("ab"))
    assert m == build_successor_model("ab", Alphabet("ab")) != build_successor_model("ba", Alphabet("ab"))
    assert m != "ab" and m.__eq__("ab") is NotImplemented
    assert repr(m) == "StructureModel(N=2, unary=['a', 'b'], binary=['succ'])"


def test_dump_matches_documented_format():
    import json

    doc = json.loads(dump_structure(build_successor_model("abba", ABC)))
    assert doc == {
        "domain": 4,
        "unary": {"a": [1, 4], "b": [2, 3], "c": []},
        "binary": {"succ": [[1, 2], [2, 3], [3, 4]]},
    }


def test_round_trip_identity():
    for word in ["abba", "", "a", "cab"]:
        for build in (build_successor_model, build_precedence_model):
            m = build(word, ABC)
            assert load_structure(dump_structure(m)) == m


def test_load_out_of_range_index():
    with pytest.raises(SemanticError) as err:
        load_structure('{"domain": 4, "unary": {"a": [5]}, "binary": {}}')
    assert "out of range" in str(err.value)


def test_load_rejects_duplicates():
    with pytest.raises(SemanticError):
        load_structure('{"domain": 3, "unary": {"a": [1, 1]}, "binary": {}}')
    with pytest.raises(SemanticError):
        load_structure('{"domain": 3, "unary": {}, "binary": {"r": [[1, 2], [1, 2]]}}')


def test_load_refuses_a_domain_past_the_cell_limit(monkeypatch):
    assert 4096**2 == MAX_CELLS
    monkeypatch.setattr(models, "MAX_CELLS", 16)
    doc = '{"domain": %d, "unary": {"a": [1]}, "binary": {"r": [[1, 2]]}}'
    assert load_structure(doc % 4).domain_size == 4
    with pytest.raises(SemanticError) as err:
        load_structure(doc % 5)
    assert str(err.value) == (
        "a structure of domain size 5 needs N x N tensors of 25 cells, over the limit of 16"
    )


def test_every_builder_refuses_a_domain_past_the_cell_limit(monkeypatch):
    from fotensor import build_tree_model, embed_words

    monkeypatch.setattr(models, "MAX_CELLS", 16)
    chain = lambda n: [("0" * k, "a") for k in range(n)]  # noqa: E731
    builders = [
        lambda n: build_word_model("a" * n, ABC, "succ"),
        lambda n: build_word_model("a" * n, ABC, "prec"),
        lambda n: embed_words(Alphabet("ab"), n, "succ"),
        lambda n: StructureModel.from_sets(n, {"a": [1]}, {"r": [(1, 1)]}),
        lambda n: build_tree_model(chain(n), ABC),
    ]
    for build in builders:
        build(4)
        with pytest.raises(SemanticError) as err:
            build(5)
        assert str(err.value) == (
            "a structure of domain size 5 needs N x N tensors of 25 cells, over the limit of 16"
        )


def test_load_rejects_malformed_documents():
    with pytest.raises(StructureFormatError):
        load_structure("not json at all {")
    with pytest.raises(StructureFormatError):
        load_structure('["domain", 4]')
    with pytest.raises(StructureFormatError):
        load_structure('{"domain": -1}')
    with pytest.raises(StructureFormatError):
        load_structure('{"domain": 2, "unary": {"a": [[1]]}, "extra": 1}')
    with pytest.raises(StructureFormatError):
        load_structure('{"domain": 2, "binary": {"r": [1, 2]}}')
    with pytest.raises(StructureFormatError, match="nests too deeply"):
        load_structure("[" * 200_000 + "]" * 200_000)


def test_load_rejects_non_integer_entries():
    with pytest.raises(SemanticError):
        load_structure('{"domain": 2, "unary": {"a": [1.5]}, "binary": {}}')
    # Each entry's type is checked before duplicates: true and 1.0 equal 1.
    for entries in ('[{}]', '[1, true]', '[1, 1.0]'):
        with pytest.raises(SemanticError, match="is not an integer"):
            load_structure('{"domain": 2, "unary": {"a": %s}}' % entries)
    for pairs in ('[[1, [2]]]', '[[1, 2], [1, true]]', '[[1, 2], [1.0, 2]]'):
        with pytest.raises(SemanticError, match="is not an integer"):
            load_structure('{"domain": 2, "binary": {"r": %s}}' % pairs)


def test_load_checks_each_index_once(monkeypatch):
    checked = []
    real = models._check_index
    monkeypatch.setattr(models, "_check_index", lambda i, n, name: checked.append((i, name)) or real(i, n, name))
    m = load_structure('{"domain": 3, "unary": {"a": [1, 3], "b": []}, "binary": {"r": [[1, 2], [3, 1]]}}')
    assert checked == [(1, "a"), (3, "a"), (1, "r"), (2, "r"), (3, "r"), (1, "r")]
    assert m == StructureModel.from_sets(3, {"a": {1, 3}, "b": set()}, {"r": {(1, 2), (3, 1)}})
    checked.clear()
    StructureModel.from_sets(3, {"a": iter([2])}, {"r": iter([(2, 3)])})
    assert checked == [(2, "a"), (2, "r"), (3, "r")]
    # A bad unary index is reported before any binary pair is read.
    for pairs in ([(1, 2, 3)], [1]):
        with pytest.raises(SemanticError, match="index 7 out of range"):
            StructureModel.from_sets(3, {"a": [7]}, {"r": pairs})
    with pytest.raises(SemanticError, match="index 4 out of range"):
        StructureModel.from_sets(3, {}, {"r": [(1, 4), (1, 2, 3)]})


def test_relations_must_be_zero_one():
    for bad in ([0, 2], [-1, 1], [1, 3], [0.5, 1]):
        with pytest.raises(ValueError, match=r"entries outside \{0, 1\}"):
            StructureModel(2, {"a": bad})
    assert StructureModel(2, {"a": [1, 0]}, {"r": [[0, 1], [1, 1]]}).unary["a"].tolist() == [1, 0]
    assert StructureModel(0, {"a": []}).unary["a"].dtype == bool
    assert is_zero_one(np.zeros((0, 3), dtype=np.int64))
    assert not is_zero_one(np.array([[0, 1], [1, -2]]))


def test_order_relation_shared_by_word_models():
    for kind in ("succ", "prec"):
        for word in all_words("ab", 4):
            order = order_relation(len(word), kind)
            m = build_word_model(word, Alphabet("ab"), kind)
            assert list(m.binary) == [kind] and np.array_equal(m.binary[kind], order)
    with pytest.raises(ValueError, match="unknown model kind 'tree'"):
        order_relation(3, "tree")
