"""Constraint languages: formulas paired with a model kind and alphabet.

The two built-in constraints are the classic subregular case studies:

* ``formula_one_b`` accepts exactly the words containing a single ``b``
  (the "exactly one primary stress" pattern), stated over the successor
  model.
* ``formula_diss`` accepts words in which no ``l`` follows another ``l``
  without an ``r`` in between (liquid dissimilation), stated over the
  precedence model, where the blocking effect is non-local.

A model kind is a word order, ``succ`` or ``prec``, and names the one binary
predicate a language's formula may use. Enumeration runs the planned tensor
plan on batches of words; the test suite checks it against ``tarski_eval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_right

import numpy as np

from .errors import SemanticError
from .formulas import Formula, predicates
from .models import Alphabet, check_domain_size, check_kind
from .optimize import optimize
from .parser import parse_formula
from .tensors import batch_limit, compile_formula, embed_words, eval_batch, plan_extent

# Most words one enumeration may decide. It bounds the word count, apart
# from MAX_CELLS, which bounds the arrays of each batch.
MAX_WORDS = 1 << 20


@dataclass(frozen=True)
class LanguageSpec:
    formula: Formula
    model_kind: str
    alphabet: Alphabet

    def __post_init__(self):
        check_kind(self.model_kind)
        if self.formula.free_names:
            raise ValueError("language formulas must be closed")
        for name, arity in predicates(self.formula).items():
            if arity == 1 and name not in self.alphabet:
                raise ValueError(f"unary predicate {name!r} is not an alphabet label")
            if arity == 2 and name != self.model_kind:
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


def enumerate_language(spec: LanguageSpec, max_len: int) -> list[str]:
    """All accepted words of length <= max_len, in shortlex order: shortest
    first, then lexicographic in alphabet order.

    It evaluates the planned plan on the words in that order in chunks, one
    eval_batch per chunk (see embed_words): a chunk runs across lengths, as
    far as batch_limit allows at its longest word and padding its words to
    that length at most doubles its cells. It raises SemanticError before
    evaluating anything when a single word of length max_len, or its N x N
    order relation, is already past the memory limit, or when there are
    more than MAX_WORDS words of length <= max_len."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    plan = optimize(compile_formula(spec.formula))
    batch_limit(plan, max_len)
    firsts = [0]  # the words of length L are numbered firsts[L] to firsts[L + 1] - 1
    for length in range(max_len + 1):  # stops once past MAX_WORDS, whatever max_len
        firsts.append(firsts[-1] + len(spec.alphabet) ** length)
        if firsts[-1] > MAX_WORDS:
            raise SemanticError(
                f"enumeration to length {max_len} over {len(spec.alphabet)} letters decides "
                f"at least {firsts[-1]} words, over the limit of {MAX_WORDS}"
            )
    check_domain_size(max_len)  # the order relation embed_words may build
    words, start, k = [], 0, plan_extent(plan)[1]
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
        words.extend(_spell(model.digits[eval_batch(plan, model).nonzero()[0]], spec.alphabet.symbols))
        start = stop
    return words


def _spell(digits: np.ndarray, symbols: tuple[str, ...]) -> list[str]:
    """The words of (B, N) digits, len(symbols) past a word's letters, read
    at once as B strings of N code points: numpy drops the trailing NULs
    that stand for the padding, and with them any NUL letters that end a
    word, which are put back when the alphabet holds NUL."""
    if not digits.shape[1]:
        return [""] * len(digits)
    points = np.array([*map(ord, symbols), 0], np.uint32)  # a padding digit reads as NUL
    words = points.take(digits).view(f"U{digits.shape[1]}")[:, 0].tolist()
    if "\0" in symbols:
        lengths = (digits < len(symbols)).sum(1).tolist()
        return [w.ljust(n, "\0") for w, n in zip(words, lengths)]
    return words
