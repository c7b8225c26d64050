import pytest

from fotensor import (
    Alphabet,
    DuplicateAddressError,
    GornAddress,
    GornDomainError,
    build_tree_model,
    dump_structure,
    load_structure,
    validate_gorn_domain,
)

# The 13-address example tree: two children under the root, with further
# branching down to depth four.
TREE_ADDRESSES = [
    "",
    "0",
    "1",
    "00",
    "01",
    "010",
    "011",
    "10",
    "11",
    "110",
    "111",
    "1110",
    "112",
]


def _expected_dom(addresses):
    # Independent expansion: (parent, child) for every one-digit extension.
    addrs = {GornAddress.parse(a) for a in addresses}
    return {
        (str(a), str(b))
        for a in addrs
        for b in addrs
        if len(b.digits) == len(a.digits) + 1 and b.digits[: len(a.digits)] == a.digits
    }


def _expected_leftof(addresses):
    addrs = {GornAddress.parse(a) for a in addresses}
    return {
        (str(a), str(b))
        for a in addrs
        for b in addrs
        if a.digits and b.digits and a.digits[:-1] == b.digits[:-1]
        and b.digits[-1] == a.digits[-1] + 1
    }


def test_gorn_address_parsing_and_display():
    assert GornAddress.parse("ε").digits == ()
    assert GornAddress.parse("").digits == ()
    assert GornAddress.parse("110").digits == (1, 1, 0)
    assert GornAddress.parse("1.10.2").digits == (1, 10, 2)
    assert str(GornAddress((1, 1, 1, 0))) == "1110"
    assert str(GornAddress(())) == "ε"
    assert str(GornAddress((1, 10, 2))) == "1.10.2"


def test_gorn_address_errors():
    with pytest.raises(ValueError, match="address digits must be nonnegative"):
        GornAddress((0, -1))
    with pytest.raises(ValueError, match="not a Gorn address: '1.x'"):
        GornAddress.parse("1.x")
    with pytest.raises(ValueError, match="the root has no parent"):
        GornAddress(()).parent()


def test_example_tree_domain_is_valid():
    assert validate_gorn_domain(TREE_ADDRESSES).ok
    assert bool(validate_gorn_domain(TREE_ADDRESSES)) and not validate_gorn_domain(["00"])


def test_missing_left_sibling_rejected():
    result = validate_gorn_domain(["", "1"])
    assert not result.ok
    assert [(str(a), why) for a, why in result.violations] == [
        ("1", "missing left sibling 0")
    ]


def test_missing_prefixes_rejected():
    result = validate_gorn_domain(["00"])
    assert not result.ok
    reasons = {(str(a), why) for a, why in result.violations}
    assert ("00", "missing prefix 0") in reasons


def test_tree_model_relations():
    labels = [(a, "s") for a in TREE_ADDRESSES]
    m = build_tree_model(labels, Alphabet("st"))
    assert m.domain_size == 13

    order = sorted(
        (GornAddress.parse(a) for a in TREE_ADDRESSES),
        key=lambda a: (len(a.digits), a.digits),
    )
    index = {str(a): i + 1 for i, a in enumerate(order)}

    dom_pairs = {(index[a], index[b]) for a, b in _expected_dom(TREE_ADDRESSES)}
    leftof_pairs = {(index[a], index[b]) for a, b in _expected_leftof(TREE_ADDRESSES)}
    assert m.binary_pairs("dom") == dom_pairs
    assert m.binary_pairs("leftof") == leftof_pairs

    # Spot checks straight off the address list.
    for parent, child in [("ε", "0"), ("ε", "1"), ("11", "110"), ("11", "111"), ("11", "112")]:
        assert (index[parent], index[child]) in m.binary_pairs("dom")
    for left, right in [("0", "1"), ("110", "111"), ("111", "112")]:
        assert (index[left], index[right]) in m.binary_pairs("leftof")


def test_single_node_tree():
    m = build_tree_model([("", "s")], Alphabet("s"))
    assert m.domain_size == 1
    assert m.binary_pairs("dom") == set()
    assert m.binary_pairs("leftof") == set()


def test_unary_branching_tree_is_a_chain():
    m = build_tree_model([("", "s"), ("0", "s"), ("00", "t")], Alphabet("st"))
    assert m.binary_pairs("dom") == {(1, 2), (2, 3)}
    assert m.binary_pairs("leftof") == set()


def test_every_nonroot_has_one_parent_and_dom_is_acyclic():
    import numpy as np

    labels = [(a, "s") for a in TREE_ADDRESSES]
    m = build_tree_model(labels, Alphabet("st"))
    dom = m.binary["dom"]
    parents = dom.sum(axis=0)
    assert parents[0] == 0  # the root
    assert (parents[1:] == 1).all()
    # Acyclic: powers of the adjacency matrix die out.
    reach = np.linalg.matrix_power(dom, m.domain_size)
    assert (reach == 0).all()


def test_invalid_domain_raises():
    with pytest.raises(GornDomainError):
        build_tree_model([("", "s"), ("1", "s")], Alphabet("s"))


def test_duplicate_address_raises():
    with pytest.raises(DuplicateAddressError):
        build_tree_model([("", "s"), ("0", "s"), ("0", "t")], Alphabet("st"))


def test_unknown_label_raises():
    from fotensor import UnknownSymbolError

    with pytest.raises(UnknownSymbolError):
        build_tree_model([("", "q")], Alphabet("s"))


def test_tree_model_round_trip():
    labels = [(a, "st"[i % 2]) for i, a in enumerate(TREE_ADDRESSES)]
    m = build_tree_model(labels, Alphabet("st"))
    assert load_structure(dump_structure(m)) == m
