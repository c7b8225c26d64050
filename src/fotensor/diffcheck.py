"""Randomized differential testing: compiled tensor plans vs the oracle.

Each case draws an alphabet, a string model kind, a word and a random
closed formula over matching predicates, then evaluates the formula along
every path: the compiled plan, its optimized (planned) form, the planned
plan on a two-word batch in which the case word is padded (read at the
case word), and the oracle. Any disagreement (or evaluation failure, which
includes a violated 0/1-closure check) is reported with the per-case seed
so it can be replayed.
Generation is fully deterministic in the base seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .formulas import (
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    Variable,
    and_,
    atom,
    or_,
)
from .models import MODEL_KINDS, Alphabet, build_word_model, word_digits
from .optimize import optimize
from .oracle import tarski_eval
from .tensors import compile_formula, embed_digits, embed_word, eval_batch, eval_tensor

_VAR_POOL = ("x", "y", "z")

# Most quantifiers in one random formula, which bounds its prenex prefix.
_MAX_QUANTIFIERS = 3

# Node choice weights: connective / atom / quantifier / equality.
_WEIGHTS = {"connective": 40, "atom": 30, "quantifier": 20, "equality": 10}


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int = 5) -> str:
    return "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_len)))


def random_formula(
    rng: random.Random,
    labels: tuple[str, ...],
    order_relation: str,
    max_depth: int = 3,
    scope: tuple[str, ...] = (),
) -> Formula:
    """A random formula over the given unary labels and binary order
    relation; closed whenever the initial scope is empty. At most
    _MAX_QUANTIFIERS quantifiers appear in total."""
    formula, _ = _gen(rng, list(scope), labels, order_relation, max_depth, _MAX_QUANTIFIERS)
    return formula


def _gen(rng, scope, labels, order, depth, budget) -> tuple[Formula, int]:
    """Returns (formula, remaining quantifier budget).

    A subformula over an empty scope must open with a quantifier before it
    can place an atom, so it needs depth >= 1 and budget >= 1; connectives
    reserve accordingly for their right child."""
    kinds = []
    weights = []
    if depth >= 1 and (scope or (depth >= 2 and budget >= 2)):
        kinds.append("connective")
        weights.append(_WEIGHTS["connective"])
    if depth >= 1 and budget >= 1:
        kinds.append("quantifier")
        weights.append(_WEIGHTS["quantifier"])
    if scope:
        kinds.append("atom")
        weights.append(_WEIGHTS["atom"])
        kinds.append("equality")
        weights.append(_WEIGHTS["equality"])
    if not kinds:
        raise AssertionError(f"generator stuck: depth={depth} scope={scope} budget={budget}")
    kind = rng.choices(kinds, weights)[0]

    if kind == "atom":
        if rng.random() < 0.5:
            return atom(rng.choice(labels), rng.choice(scope)), budget
        return atom(order, rng.choice(scope), rng.choice(scope)), budget
    if kind == "equality":
        return Equal(Variable(rng.choice(scope)), Variable(rng.choice(scope))), budget
    if kind == "quantifier":
        var = rng.choice(_VAR_POOL)
        ctor = Exists if rng.random() < 0.5 else Forall
        inner_scope = scope if var in scope else scope + [var]
        body, rest = _gen(rng, list(inner_scope), labels, order, depth - 1, budget - 1)
        return ctor(Variable(var), body), rest
    op = rng.choice(("not", "and", "or", "implies"))
    if op == "not":
        body, rest = _gen(rng, scope, labels, order, depth - 1, budget)
        return Not(body), rest
    reserve = 0 if scope else 1
    left, rest = _gen(rng, scope, labels, order, depth - 1, budget - reserve)
    right, rest = _gen(rng, scope, labels, order, depth - 1, rest + reserve)
    if op == "and":
        return and_([left, right]), rest
    if op == "or":
        return or_([left, right]), rest
    return or_([Not(left), right]), rest


@dataclass(frozen=True)
class CheckCase:
    index: int
    seed: int
    kind: str
    alphabet: str
    word: str
    formula: Formula


@dataclass(frozen=True)
class CheckFailure:
    case: CheckCase
    tensor_value: int | None
    optimized_value: int | None
    batched_value: int | None
    oracle_value: int | None
    error: str | None

    def describe(self) -> str:
        c = self.case
        what = (
            f"error: {self.error}"
            if self.error
            else f"tensor={self.tensor_value} optimized={self.optimized_value} "
            f"batched={self.batched_value} oracle={self.oracle_value}"
        )
        return (
            f"case {c.index} (seed {c.seed}): MISMATCH {what}\n"
            f"  kind={c.kind} alphabet={c.alphabet} word={c.word!r}\n"
            f"  formula: {c.formula}"
        )


@dataclass(frozen=True)
class CheckReport:
    total: int
    seed: int
    failures: tuple[CheckFailure, ...]

    @property
    def agreements(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f.describe() for f in self.failures]
        lines.append(f"{self.agreements}/{self.total} agree (seed {self.seed})")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "command": "check",
            "seed": self.seed,
            "total": self.total,
            "agreements": self.agreements,
            "mismatches": [
                {
                    "index": f.case.index,
                    "seed": f.case.seed,
                    "kind": f.case.kind,
                    "alphabet": f.case.alphabet,
                    "word": f.case.word,
                    "formula": str(f.case.formula),
                    "tensor": f.tensor_value,
                    "optimized": f.optimized_value,
                    "batched": f.batched_value,
                    "oracle": f.oracle_value,
                    "error": f.error,
                }
                for f in self.failures
            ],
        }
        return json.dumps(doc, indent=2)


def case_from_seed(index: int, case_seed: int) -> CheckCase:
    rng = random.Random(case_seed)
    alphabet_text = "abc"[: rng.randint(1, 3)]
    kind = rng.choice(MODEL_KINDS)
    word = random_word(rng, Alphabet(alphabet_text))
    formula = random_formula(rng, tuple(alphabet_text), kind)
    return CheckCase(index, case_seed, kind, alphabet_text, word, formula)


def compare_paths(
    formula: Formula, plan: Formula, optimized: Formula, word: str, kind: str,
    alphabet: Alphabet,
) -> tuple[int, int, int]:
    """Values of the compiled plan, its optimized form and the oracle."""
    embedded = embed_word(word, alphabet, kind)
    tensor_value = eval_tensor(plan, embedded)
    optimized_value = eval_tensor(optimized, embedded)
    oracle_value = int(tarski_eval(formula, build_word_model(word, alphabet, kind)))
    return tensor_value, optimized_value, oracle_value


def batched_value(plan: Formula, word: str, kind: str, alphabet: Alphabet) -> int:
    """Value of the plan at the word, read from one eval_batch over two
    rows: the word padded by one position, so that it relies on the domain
    mask, and the word followed by the alphabet's first letter."""
    rows = word_digits(word + alphabet.symbols[0], alphabet)[None].repeat(2, axis=0)
    rows[0, -1] = len(alphabet)  # the padding digit
    return int(eval_batch(plan, embed_digits(rows, alphabet, kind))[0])


def run_differential_check(count: int, seed: int = 0) -> CheckReport:
    if count < 1:
        raise ValueError("count must be at least 1")
    failures = []
    for index in range(count):
        case_seed = (seed * 1_000_003 + index) & 0x7FFFFFFF
        case = case_from_seed(index, case_seed)
        alphabet = Alphabet(case.alphabet)
        try:
            plan = compile_formula(case.formula)
            planned = optimize(plan)
            tensor, optimized, oracle = compare_paths(
                case.formula, plan, planned, case.word, case.kind, alphabet
            )
            batch = batched_value(planned, case.word, case.kind, alphabet)
        except Exception as exc:  # report, never hide: a crash is a failed case
            error = f"{type(exc).__name__}: {exc}"
            failures.append(CheckFailure(case, None, None, None, None, error))
            continue
        if len({tensor, optimized, batch, oracle}) > 1:
            failures.append(CheckFailure(case, tensor, optimized, batch, oracle, None))
    return CheckReport(count, seed, tuple(failures))
