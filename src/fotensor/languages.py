"""Constraint languages: formulas paired with a model kind and alphabet.

The two built-in constraints are the classic subregular case studies:

* ``formula_one_b`` accepts exactly the words containing a single ``b``
  (the "exactly one primary stress" pattern), stated over the successor
  model.
* ``formula_diss`` accepts words in which no ``l`` follows another ``l``
  without an ``r`` in between (liquid dissimilation), stated over the
  precedence model, where the blocking effect is non-local.

Membership can be decided through the compiled tensor path or the symbolic
oracle; both must agree, and the test suite enforces that they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_right
from itertools import accumulate, product
from typing import Iterator

import numpy as np

from .formulas import Formula, free_variables, predicates
from .models import Alphabet, build_word_model, check_kind
from .optimize import optimize
from .oracle import tarski_eval
from .parser import parse_formula
from .tensors import batch_limit, compile_formula, embed_model, embed_words, eval_batch, eval_tensor

PATHS = ("tensor", "oracle")

_ORDER_RELATIONS = {"succ": ("succ",), "prec": ("prec",), "tree": ("dom", "leftof")}


@dataclass(frozen=True)
class LanguageSpec:
    formula: Formula
    model_kind: str
    alphabet: Alphabet

    def __post_init__(self):
        check_kind(self.model_kind)
        if free_variables(self.formula):
            raise ValueError("language formulas must be closed")
        order = _ORDER_RELATIONS[self.model_kind]
        for name, arity in predicates(self.formula).items():
            if arity == 1 and name not in self.alphabet:
                raise ValueError(f"unary predicate {name!r} is not an alphabet label")
            if arity == 2 and name not in order:
                raise ValueError(
                    f"binary predicate {name!r} is not the {self.model_kind!r} order relation"
                )


ONE_B_TEXT = "exists x. forall y. (b(x) & (b(y) -> x = y))"

DISS_TEXT = (
    "forall x. forall y. ((l(x) & l(y) & prec(x, y)) -> "
    "exists z. (r(z) & prec(x, z) & prec(z, y)))"
)

SUCC_FROM_PREC_TEXT = "prec(x, y) & !(exists z. (prec(x, z) & prec(z, y)))"


def formula_one_b(alphabet: Alphabet | None = None) -> LanguageSpec:
    """Words with exactly one occurrence of b, over the successor model."""
    return LanguageSpec(parse_formula(ONE_B_TEXT), "succ", alphabet or Alphabet("ab"))


def formula_diss(alphabet: Alphabet | None = None) -> LanguageSpec:
    """Words where every l ... l pair has an intervening r, over the
    precedence model."""
    return LanguageSpec(parse_formula(DISS_TEXT), "prec", alphabet or Alphabet("lra"))


def succ_from_prec_formula() -> Formula:
    """Open formula phi(x, y) defining the successor relation from
    precedence: x precedes y with nothing in between."""
    return parse_formula(SUCC_FROM_PREC_TEXT)


def membership(spec: LanguageSpec, word: str, path: str = "tensor") -> bool:
    """Decide whether the word satisfies the constraint, via the chosen
    evaluation path."""
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {PATHS}")
    model = build_word_model(word, spec.alphabet, spec.model_kind)
    if path == "oracle":
        return tarski_eval(spec.formula, model)
    return bool(eval_tensor(optimize(compile_formula(spec.formula)), embed_model(model)))


def iter_words(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """All words of length <= max_len, shortest first, then lexicographic in
    alphabet order."""
    for length in range(max_len + 1):
        for combo in product(alphabet.symbols, repeat=length):
            yield "".join(combo)


def enumerate_language(spec: LanguageSpec, max_len: int, path: str = "tensor") -> list[str]:
    """All accepted words of length <= max_len, in length-then-lex order.

    The tensor path evaluates the planned plan on the words in iter_words
    order in chunks, one eval_batch per chunk (see embed_words): a chunk
    runs across lengths, as far as batch_limit allows at its longest word
    and padding its words to that length at most doubles its cells. It
    raises SemanticError before evaluating anything when a single word of
    length max_len is already past the memory limit."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {PATHS}")
    if path == "oracle":
        return [
            w
            for w in iter_words(spec.alphabet, max_len)
            if tarski_eval(spec.formula, build_word_model(w, spec.alphabet, spec.model_kind))
        ]
    plan = optimize(compile_formula(spec.formula))
    batch_limit(plan, max_len)
    # The words of length L are numbered firsts[L] to firsts[L + 1] - 1.
    firsts = [0, *accumulate(len(spec.alphabet) ** n for n in range(max_len + 1))]
    letters = np.array([*spec.alphabet.symbols, ""])  # a padding digit reads as no letter
    words, start, k = [], 0, plan._extent[1]
    while start < firsts[-1]:
        stop = own = 0  # own: the chunk's cells unpadded, L^k per word of length L
        for length in range(bisect_right(firsts, start) - 1, max_len + 1):
            end = min(start + batch_limit(plan, length), firsts[length + 1])
            own += (end - max(start, firsts[length])) * length**k
            if end > stop and (end - start) * length**k <= 2 * own:
                stop = end
            if stop < firsts[length + 1]:  # no longer word joins the chunk
                break
        model = embed_words(spec.alphabet, max_len, spec.model_kind, start, stop)
        accepted = model.digits[eval_batch(plan, model).nonzero()[0]]
        words.extend(map("".join, letters[accepted].tolist()))
        start = stop
    return words
