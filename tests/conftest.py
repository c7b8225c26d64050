"""Shared helpers for the test suite."""

import dataclasses
import random
from itertools import product

from fotensor import Alphabet, Exists, Forall, Formula, build_word_model, embed_words, parse_formula
from fotensor.diffcheck import random_formula


def all_words(symbols: str, max_len: int) -> list[str]:
    """Every word of length <= max_len, shortest first, lexicographic in the
    given symbol order."""
    out = []
    for length in range(max_len + 1):
        out.extend("".join(c) for c in product(symbols, repeat=length))
    return out


def word_model(word: str, symbols: str, kind: str):
    return build_word_model(word, Alphabet(symbols), kind)


def embed_length(symbols: str, n: int, kind: str, start: int = 0, stop: int | None = None):
    """embed_words over the words of length n alone: those whose codes run
    from start to stop - 1 (by default all of them)."""
    first = sum(len(symbols) ** k for k in range(n))
    stop = len(symbols) ** n if stop is None else stop
    return embed_words(Alphabet(symbols), n, kind, first + start, first + stop)


# Closed formulas paired with their alphabet and the model kinds they can be
# evaluated over. Used for prenex-equivalence and differential properties.
CLOSED_CORPUS = [
    ("exists x. forall y. (b(x) & (b(y) -> x = y))", "ab", ("succ", "prec")),
    (
        "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
        "exists z. (r(z) & prec(x, z) & prec(z, y)))",
        "lra",
        ("prec",),
    ),
    ("exists x. (a(x) | !b(x))", "ab", ("succ", "prec")),
    ("forall x. (a(x) -> exists y. succ(x, y))", "ab", ("succ",)),
    ("!(exists x. forall y. (prec(x, y) | x = y))", "ab", ("prec",)),
    ("(forall y. y = y) & (exists y. !b(y))", "ab", ("succ", "prec")),
    ("exists x. exists y. (succ(x, y) & !x = y)", "ab", ("succ",)),
    ("forall x. (b(x) -> !(forall y. prec(y, x)))", "ab", ("prec",)),
    ("exists x. exists x. a(x)", "ab", ("succ", "prec")),
    ("forall x. (a(x) | b(x))", "ab", ("succ", "prec")),
]


def corpus_formulas():
    for text, symbols, kinds in CLOSED_CORPUS:
        yield parse_formula(text), symbols, kinds


def traversal_corpus(count: int = 3000):
    """count random formulas; the first 3,000 are those whose front-end
    output test_traversal pins."""
    rng = random.Random(20191)
    for i in range(count):
        alphabet = ("ab", "abc")[i % 2]
        kind = ("succ", "prec")[i // 2 % 2]
        yield random_formula(rng, tuple(alphabet), kind, max_depth=2 + i // 4 % 4)


def split_prenex(f: Formula) -> tuple[list[tuple[type, str]], Formula]:
    """The quantifier chain at the top of f, as (Exists or Forall, variable
    name) pairs from the outside in, and the formula below it."""
    prefix = []
    while isinstance(f, (Exists, Forall)):
        prefix.append((type(f), f.var.name))
        f = f.body
    return prefix, f


def contains(f: Formula, types: type | tuple[type, ...]) -> bool:
    """Whether f or a node below it is an instance of types."""
    return isinstance(f, types) or any(contains(g, types) for g in f.children())


def contains_quantifier(f: Formula) -> bool:
    return contains(f, (Exists, Forall))


def rebuild(node: Formula, fn) -> Formula:
    """node with fn applied to each of its subformulas (node.children());
    node itself when fn returns every one unchanged."""
    changes = {}
    for field in dataclasses.fields(node):
        old = getattr(node, field.name)
        if isinstance(old, Formula):
            new = fn(old)
            if new is not old:
                changes[field.name] = new
        elif isinstance(old, tuple) and old and isinstance(old[0], Formula):
            new = tuple(map(fn, old))
            if any(a is not b for a, b in zip(new, old)):
                changes[field.name] = new
    return dataclasses.replace(node, **changes) if changes else node
