"""The four benchmark workloads.

Each workload turns a seed into an endless stream of requests, runs one
request against the package, and judges the output against the references in
`inputs`. Requests are generated lazily, one index at a time and outside the
timed region, so no input repeats within a run and a cache inside the package
sees no more sharing than a real caller would give it.

A workload calls the package only through attributes looked up at call time
(`fx.parse_formula`, `fx.cli.main`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import inputs


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


class CommandFailed(Exception):
    """The CLI exited with a nonzero code."""


def run_cli(fx, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fx.cli.main(argv)
        except SystemExit as exc:  # argparse and usage errors exit this way
            code = exc.code
    if code != 0:
        raise CommandFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


# --- enumerate ------------------------------------------------------------

@dataclass(frozen=True)
class EnumerateRequest:
    text: str
    alphabet: str
    max_len: int
    model: str
    accept: object  # the reference constraint, a str -> bool function

    def argv(self) -> list[str]:
        return [
            "enumerate", "--expr", self.text, "--alphabet", self.alphabet,
            "--max-len", str(self.max_len), "--model", self.model, "--format", "json",
        ]


class Enumerate:
    """In-process `fotensor enumerate --format json`: one-b over ab and
    dissimilation over lra, every word up to the length limit."""

    def __init__(self, seed: int, one_b_max_len: int = 9, diss_max_len: int = 5, trace_passes: int = 2):
        self.seed = seed
        self.one_b_max_len = one_b_max_len
        self.diss_max_len = diss_max_len
        self.pass_length = 2
        self.trace_requests = trace_passes * self.pass_length

    def _one_b(self, rng, max_len):
        return EnumerateRequest(
            inputs.constraint_text(inputs.ONE_B_TEXT, rng), inputs.shuffled("ab", rng),
            max_len, "succ", inputs.one_b,
        )

    def _diss(self, rng, max_len):
        return EnumerateRequest(
            inputs.constraint_text(inputs.DISS_TEXT, rng), inputs.shuffled("lra", rng),
            max_len, "prec", inputs.dissimilation,
        )

    def warm_up(self):
        return self._one_b(_rng("enumerate-warm-up", self.seed), 2)

    def requests(self):
        index = 0
        while True:
            rng = _rng("enumerate", self.seed, index)
            yield self._one_b(rng, self.one_b_max_len)
            yield self._diss(rng, self.diss_max_len)
            index += 1

    def execute(self, fx, req: EnumerateRequest):
        return run_cli(fx, req.argv())

    def items(self, req: EnumerateRequest) -> int:
        return sum(len(req.alphabet) ** n for n in range(req.max_len + 1))

    def wrong(self, fx, req: EnumerateRequest, output: str) -> int:
        """Words whose membership the output gets wrong, plus one if the
        accepted words come in the wrong order."""
        got = json.loads(output)["words"]
        want = [w for w in inputs.words_upto(req.alphabet, req.max_len) if req.accept(w)]
        wrong = len(set(got) ^ set(want))
        return wrong + (1 if not wrong and got != want else 0)


# --- long-words -----------------------------------------------------------

@dataclass(frozen=True)
class EvalRequest:
    text: str
    word: str
    alphabet: str
    model: str
    accept: object

    def argv(self) -> list[str]:
        return [
            "eval", "--expr", self.text, "--word", self.word, "--alphabet", self.alphabet,
            "--model", self.model, "--format", "json",
        ]


class LongWords:
    """In-process `fotensor eval --format json` on one word per request:
    one-b (succ) and dissimilation (prec) at fixed lengths, shorter words
    repeated so that each length takes a similar share of a pass's time. Each
    request of a pass is accepted in exactly one of every two passes.

    The repeats also place the median request in the middle of one length,
    dissimilation at N=12, with about as many cheaper requests as dearer
    ones, so the median latency is a well-sampled quantile of one length."""

    def __init__(
        self,
        seed: int,
        one_b_sizes: tuple = ((32, 12), (64, 4), (96, 2), (128, 1)),
        diss_sizes: tuple = ((12, 8), (16, 4), (24, 1), (32, 1)),
        trace_passes: int = 2,
    ):
        """Sizes are (length, requests per pass) pairs."""
        self.seed = seed
        self.schedule = [
            (language, n)
            for language, sizes in (("one-b", one_b_sizes), ("diss", diss_sizes))
            for n, repeats in sizes
            for _ in range(repeats)
        ]
        self.pass_length = len(self.schedule)
        self.trace_requests = trace_passes * self.pass_length

    def _request(self, rng, language, n, accept):
        if language == "one-b":
            return EvalRequest(
                inputs.constraint_text(inputs.ONE_B_TEXT, rng), inputs.planted_one_b(n, accept, rng),
                inputs.shuffled("ab", rng), "succ", inputs.one_b,
            )
        return EvalRequest(
            inputs.constraint_text(inputs.DISS_TEXT, rng), inputs.planted_dissimilation(n, accept, rng),
            inputs.shuffled("lra", rng), "prec", inputs.dissimilation,
        )

    def warm_up(self):
        return self._request(_rng("long-words-warm-up", self.seed), "diss", 4, True)

    def requests(self):
        index = 0
        while True:
            # Passes come in pairs; each slot of the schedule is accepted in
            # exactly one pass of the pair. The seed picks which, and the
            # order of the slots within each pass.
            pair_rng = _rng("long-words-pair", self.seed, index // 2)
            accepted_first = [pair_rng.random() < 0.5 for _ in self.schedule]
            slots = list(enumerate(self.schedule))
            _rng("long-words-order", self.seed, index).shuffle(slots)
            for slot, (language, n) in slots:
                rng = _rng("long-words", self.seed, index, slot)
                accept = accepted_first[slot] == (index % 2 == 0)
                yield self._request(rng, language, n, accept)
            index += 1

    def execute(self, fx, req: EvalRequest):
        return run_cli(fx, req.argv())

    def items(self, req) -> int:
        return 1

    def wrong(self, fx, req: EvalRequest, output: str) -> int:
        return int(json.loads(output)["value"] != int(req.accept(req.word)))


# --- check ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckCase:
    formula: tuple  # the generator's own AST; the package sees only `text`
    text: str
    kind: str  # succ, prec or tree
    alphabet: str
    word: str  # for succ and prec
    nodes: tuple  # for tree: (address, label) pairs

    def structure(self) -> inputs.Structure:
        if self.kind == "tree":
            return inputs.tree_structure(self.nodes)
        return inputs.word_structure(self.word, self.kind)


# One cycle visits every (model kind, domain size, quantifiers, atoms)
# stratum once, in an order the seed shuffles. Fixing the strata fixes most of
# the evaluation cost, so runs with different seeds do the same work.
_CHECK_STRATA = [
    (kind, size, quants, atoms)
    for kind in ("succ", "prec", "tree")
    for size in range(7)
    for quants in (1, 2, 3)
    for atoms in (2, 3, 4, 5)
]


class Check:
    """Differential cases through library calls: parse, compile, build the
    model, plain plan eval, optimized plan eval, oracle."""

    pass_length = 1

    def __init__(self, seed: int, trace_items: int = len(_CHECK_STRATA) * 8):
        self.seed = seed
        self.trace_requests = trace_items

    def _case(self, rng, kind, size, quants, atoms):
        if kind == "tree":
            alphabet = "ab"
            relations = ("dom", "leftof")
            nodes, word = inputs.random_tree(size + 1, alphabet, rng), ""
        else:
            alphabet = rng.choice(("ab", "abc"))
            relations = (kind,)
            nodes, word = (), "".join(rng.choice(alphabet) for _ in range(size))
        formula = inputs.random_formula(rng, quants, atoms, alphabet, relations)
        return CheckCase(formula, inputs.render(formula), kind, alphabet, word, nodes)

    def warm_up(self):
        return self._case(_rng("check-warm-up", self.seed), "succ", 3, 2, 3)

    def requests(self):
        cycle = 0
        while True:
            strata = list(_CHECK_STRATA)
            _rng("check-cycle", self.seed, cycle).shuffle(strata)
            for slot, stratum in enumerate(strata):
                yield self._case(_rng("check", self.seed, cycle, slot), *stratum)
            cycle += 1

    def execute(self, fx, case: CheckCase):
        formula = fx.parse_formula(case.text)
        plan = fx.compile_formula(formula)
        alphabet = fx.Alphabet(case.alphabet)
        if case.kind == "tree":
            model = fx.build_tree_model(case.nodes, alphabet)
        else:
            model = fx.build_word_model(case.word, alphabet, case.kind)
        embedded = fx.embed_model(model)
        plain = fx.eval_tensor(plan, embedded)
        optimized = fx.eval_tensor(fx.optimize(plan), embedded)
        oracle = fx.tarski_eval(formula, model)
        return plain, optimized, int(oracle)

    def items(self, case) -> int:
        return 1

    def wrong(self, fx, case: CheckCase, output) -> int:
        want = int(inputs.holds(case.formula, case.structure()))
        return int(any(v != want for v in output))


# --- compile --------------------------------------------------------------

@dataclass(frozen=True)
class CompileItem:
    formula: tuple
    text: str
    kind: str


_COMPILE_STRATA = [
    (kind, quants, atoms)
    for kind in ("succ", "prec")
    for quants in (3, 4, 5)
    for atoms in (4, 5, 6)
]

# Small words on which a printed prenex form must agree with the original.
_COMPILE_CHECK_WORDS = ("", "b", "ca")


class Compile:
    """Per item, the library calls `fotensor compile --optimized` makes:
    parse, prenex, compile, optimize, and the three printed sections."""

    pass_length = 1

    def __init__(self, seed: int, trace_items: int = 8000):
        self.seed = seed
        self.trace_requests = trace_items
        self._models = []

    def _item(self, rng, kind, quants, atoms):
        formula = inputs.random_formula(rng, quants, atoms, "abc", (kind,), ("x", "y", "z", "u", "w"))
        return CompileItem(formula, inputs.render(formula), kind)

    def warm_up(self):
        return self._item(_rng("compile-warm-up", self.seed), "succ", 3, 4)

    def requests(self):
        cycle = 0
        while True:
            strata = list(_COMPILE_STRATA)
            _rng("compile-cycle", self.seed, cycle).shuffle(strata)
            for slot, stratum in enumerate(strata):
                yield self._item(_rng("compile", self.seed, cycle, slot), *stratum)
            cycle += 1

    def execute(self, fx, item: CompileItem):
        formula = fx.parse_formula(item.text)
        prenex = str(fx.to_prenex(formula))
        plan = fx.compile_formula(formula)
        fx.dump_expr(plan)
        fx.dump_expr(fx.optimize(plan))
        return prenex

    def items(self, item) -> int:
        return 1

    def wrong(self, fx, item: CompileItem, prenex: str) -> int:
        """Re-parse the printed prenex form and decide it with the oracle on
        a few small words; the original formula is decided by the reference."""
        reparsed = fx.parse_formula(prenex)
        for kind, model, structure in self._check_models(fx):
            if kind == item.kind and fx.tarski_eval(reparsed, model) != inputs.holds(item.formula, structure):
                return 1
        return 0

    def _check_models(self, fx):
        if not self._models:
            alphabet = fx.Alphabet("abc")
            self._models = [
                (kind, fx.build_word_model(word, alphabet, kind), inputs.word_structure(word, kind))
                for word in _COMPILE_CHECK_WORDS
                for kind in ("succ", "prec")
            ]
        return self._models


WORKLOADS = {
    "enumerate": Enumerate,
    "long-words": LongWords,
    "check": Check,
    "compile": Compile,
}

# Sizes for the harness smoke test: every code path, a fraction of a second.
TINY = {
    "enumerate": dict(one_b_max_len=3, diss_max_len=2, trace_passes=1),
    "long-words": dict(one_b_sizes=((4, 2), (6, 1)), diss_sizes=((4, 1), (5, 1)), trace_passes=1),
    "check": dict(trace_items=12),
    "compile": dict(trace_items=12),
}
