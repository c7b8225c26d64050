"""Tensor embedding of finite structures and compiled formula evaluation.

Domain elements become one-hot basis vectors; a k-ary relation becomes an
order-k 0/1 tensor whose contraction with basis vectors yields the atom's
truth value (for binary relations, e_i . R e_j), and equality is the
bilinear form of the identity, e_i . I e_j = [i = j]. A plan is a
formula, read node by node as a tensor operation by exact arithmetic:

    Atom      rel          the relation tensor R, placed
    Equal     eq           [i = j]
    Not       compl        1 - x, folded into the operation under it
    And       prod         product of the conjuncts
    Or        min1sum      min1(sum of the disjuncts)
    Exists    exists-sum   min1(sum over the basis substitutions)
    Forall    forall-dual  via the dual: 1 - min1(sum of 1 - body)
    Contract  contract     min1(sum over the bound variables of a product)

where min1(x) = min(x, 1) componentwise, and the middle column is each
node's tag in dump_expr. Every formula is a plan: each formula node class
has its operation above, and the parser reads p -> q as !p | q. The plain
plan, compile_formula's, is the prenex formula. Contract,
the one plan node that is not a formula node, is one block of existentials
over a conjunction, a multilinear map; optimize (optimize.py) plans the
plain plan into contractions. An embedded model holds only its
relation tensors: evaluation never builds the basis vectors or the
identity. A word is embedded from its digits, its letters' alphabet
positions, by embed_digits (embed_word alone, embed_words in a batch),
which builds each label, and the order, on the plan's first read of it.

Evaluation works on whole arrays. Each plan node computes its value for
all assignments to the quantified variables in its scope at once, as a
bool array with one axis per such variable, of size 1 where the node does
not depend on the variable. A literal is its relation tensor placed on
its variables' axes: transposed for R(y, x), the diagonal for R(x, x), a
row or column for a variable the assignment binds. An equality x = y
compares the index range 0..N-1 placed on the axis of x and on the axis
of y, so [i = j] comes from the indices alone. Conjunction is a broadcast
product and disjunction a clamped sum. A quantifier sums its body over
the variable's axis, and a body without that axis counts N times, which
makes existentials 0 and universals 1 on an empty domain. A negation
has no operation of its own: a literal's view is inverted, an equality
compares by !=, a universal sums its body negated, a clamp returns its
complement and a product is inverted. A contraction runs its order
(Contract.plan): it eliminates the bound variables one at a time, summing
an axis that one factor uses and contracting two or more factors by
_matmul on float64 counts (exact below 2^53); a bound variable that no
factor uses gets no axis. Counts exist only inside a sum: int64 for a
quantifier or a disjunction, float64 for a contraction; the clamp
turns them back into bool.

A plan is lowered once (a traced one once more), on its first
evaluation, by one walk into a program kept on its root node: a step per
node but Not, with every index decision above, the contraction steps and
the trace's loop positions fixed, so that a run only binds the model, N
and the assignment; plans of one shape share literal steps and contraction
orders from bounded caches. The same walk finds the planned peak: before
allocating anything, evaluation refuses a plan whose largest array, N^k
cells, is past MAX_CELLS, where k counts the quantifiers around a node of
a plain plan, or the axes of a contraction's largest factor, step or
output (a variable the assignment binds has none).

A batch is a model with a (B, N) domain mask. embed_words builds one for
B words, each padded to the longest, N letters: (B, N) labels and the mask
of each word's own positions, next to the order tensor as a (1, N, N)
view, which on a word's first L positions is the order of that word. Its
digits are rows of a cached table of base-|alphabet| numerals: a slice
for the words of one length up to the table's width, a lookup per group
of that many digits past it.
eval_batch runs a closed plan's one program on all of them at once: the
batch is one more axis in front of the quantified variables', carried by
every relation (size 1 when shared) and passed over by every step, which
indexes from the last axis; arrays grow to B * N^k cells. Each sum over
a variable multiplies in the mask on its axis, so that each word sees
only its own positions.

Every node value of a well-formed plan is exactly 0 or 1: the relation
tensors are checked when the model is embedded, or are 0/1 by
construction, and every clamp runs min1, which rejects negative input,
then checks its output: each entry is 0 or 1, so as many entries are
nonzero as equal 1, and its bool value compares with 1, not a cast. Both
raise ClosureError explicitly, so the checks also run under python -O.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityMismatchError,
    AssignmentError,
    ClosureError,
    SemanticError,
    UnboundVariableError,
    UnknownPredicateError,
)
from .formulas import And, Atom, Equal, Exists, Forall, Formula, Not, Or, Variable, cached
from .models import (
    MAX_CELLS,
    Alphabet,
    Assignment,
    StructureModel,
    check_domain_size,
    check_kind,
    is_zero_one,
    normalize_assignment,
    order_relation,
    word_digits,
)
from .prenex import to_prenex

def min1(x):
    """min(x, 1), componentwise, as a numpy array or scalar. Raises
    ClosureError on negative input."""
    if np.minimum.reduce(x, axis=None, initial=0) < 0:
        raise ClosureError("min1 requires nonnegative input")
    return np.minimum(x, 1)


class EmbeddedModel:
    """A structure mapped into R^N: its relation tensors over a domain of
    basis_size elements, stored as bool.

    A model with a (B, N) `domain` mask is a batch of B structures over the
    same domain, each restricted to the elements where its mask row holds;
    only eval_batch takes it, and reads the mask wherever it sums a variable
    out. Every relation of a batch carries a leading axis of size B, one
    entry per structure, or of size 1, shared by all of them. For word
    models, `digits` holds each word's letters as alphabet positions.
    Raises ClosureError unless every tensor is 0/1, and ValueError for a
    negative basis_size, or a mask or a relation without those shapes: a
    relation's own axes, after any batch axis, have basis_size elements."""

    def __init__(
        self,
        basis_size: int,
        relation_tensors: dict[str, np.ndarray],
        digits: np.ndarray | None = None,
        domain: np.ndarray | None = None,
    ):
        if basis_size < 0:
            raise ValueError("domain size must be nonnegative")
        if domain is not None:
            if not is_zero_one(domain):
                raise ClosureError("the domain mask is not a 0/1 tensor")
            if domain.ndim != 2 or domain.shape[1] != basis_size:
                raise ValueError(f"the domain mask has shape {domain.shape}, expected (B, {basis_size})")
            domain = domain.astype(bool, copy=False)
        for name, t in relation_tensors.items():
            if not is_zero_one(t):
                raise ClosureError(f"relation tensor {name!r} is not a 0/1 tensor")
            if domain is not None and t.shape[:1] not in ((1,), (len(domain),)):
                raise ValueError(f"relation tensor {name!r} has no batch axis of size {len(domain)} or 1")
            if set(t.shape[domain is not None:]) - {basis_size}:
                raise ValueError(f"relation tensor {name!r} has shape {t.shape}, not basis_size {basis_size} per axis")
        self.basis_size = basis_size
        self.batch_size = 1 if domain is None else len(domain)
        self.relation_tensors = {name: t.astype(bool, copy=False) for name, t in relation_tensors.items()}
        self.digits = digits
        self.domain = domain

    def tensor(self, name: str, arity: int) -> np.ndarray:
        try:
            t = self.relation_tensors[name]
        except KeyError:
            raise UnknownPredicateError(f"no relation tensor {name!r} in the model") from None
        own = t.ndim - (self.domain is not None)
        if own != arity:
            raise ArityMismatchError(f"relation {name!r} has arity {own}, atom uses {arity}")
        return t


def embed_model(m: StructureModel) -> EmbeddedModel:
    """Isomorphic image of a structure in R^N (N = domain size)."""
    return EmbeddedModel(m.domain_size, {**m.unary, **m.binary})


def embed_word(word: str, alphabet: Alphabet, kind: str) -> EmbeddedModel:
    """embed_model(build_word_model(word, alphabet, kind)) with `digits` set,
    by embed_digits. A word past MAX_CELLS is refused (check_domain_size)
    before its letters are read."""
    check_domain_size(len(word))
    return embed_digits(word_digits(word, alphabet), alphabet, kind)


def embed_words(
    alphabet: Alphabet, max_len: int, kind: str, start: int = 0, stop: int | None = None
) -> EmbeddedModel:
    """Batched model of the words of length <= max_len numbered start to
    stop - 1 in shortlex order (shortest first, then lexicographic in
    alphabet order), by default all of them, each padded to the longest of
    them, N letters: embed_digits of their (B, N) digits, which hold
    len(alphabet) past a word's own letters. Built from each word's code,
    its base-|alphabet| numeral, without a per-word model."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    base = len(alphabet)
    firsts = [0, *itertools.accumulate(base**k for k in range(max_len + 1))]
    stop = firsts[-1] if stop is None else stop
    if not 0 <= start <= stop <= firsts[-1]:
        raise ValueError(f"word numbers {start}..{stop} outside 0..{firsts[-1]}")
    # The words of length L are numbered firsts[L] to firsts[L + 1] - 1.
    low, n = (bisect.bisect_right(firsts, k, hi=max_len + 1) - 1 for k in (start, max(stop - 1, start)))
    runs = [(length, max(firsts[length], start) - start, min(firsts[length + 1], stop) - start)
            for length in range(low, n + 1)]
    top = max(start + b - 1 - firsts[length] for length, _, b in runs)  # int64 codes
    if top >= 1 << 63:
        raise ValueError(f"word code {top} within its length is over the limit of 2^63 - 1")
    check_domain_size(n)  # before the digits are allocated
    table = _numerals(base)
    width = table.shape[1]
    digits = np.full((stop - start, n), base, table.dtype)
    for length, a, b in runs:
        first = start + a - firsts[length]  # the code of the run's first word
        # Consecutive codes up to the table's width are consecutive rows: a
        # slice, which halves the digits' cost of a short enumeration.
        if length <= width:
            digits[a:b, :length] = table[first : first + b - a, width - length:]
            continue
        codes = np.arange(b - a) + first
        for end in range(length, 0, -width):  # `width` digits at a time, from the last
            k = min(end, width)
            low = codes
            if end > k:
                codes, low = np.divmod(codes, base**k)
            digits[a:b, end - k:end] = table.take(low, axis=0)[:, width - k:]
    return embed_digits(digits, alphabet, kind)


@functools.cache
def _numerals(base: int) -> np.ndarray:
    """Every numeral of m digits in base `base`, row r holding the digits of
    r, for the largest m up to 12 with base^m rows at most 4096 (m = 1 past
    that): the last k columns of row r < base^k are r's numeral in k digits.
    Read-only, as every caller shares it."""
    m = 1
    while m < 12 and base ** (m + 1) <= 1 << 12:
        m += 1
    table = np.ascontiguousarray(np.indices((base,) * m, np.min_scalar_type(base)).reshape(m, -1).T)
    table.flags.writeable = False
    return table


def embed_digits(digits: np.ndarray, alphabet: Alphabet, kind: str) -> EmbeddedModel:
    """The model of a word from its digits, (N,), or of a batch of words from
    their (B, N) digits, len(alphabet) past a word's own letters and in the
    domain mask elsewhere. Its relations, unchecked as 0/1 by construction,
    are each letter's label, digits == k, then the order of the kind, (N, N),
    a (1, N, N) view in a batch, each built on its first read. Refused past
    MAX_CELLS (check_domain_size) before anything is built."""
    check_kind(kind)
    check_domain_size(digits.shape[-1])
    model = EmbeddedModel(digits.shape[-1], {}, digits, digits != len(alphabet) if digits.ndim == 2 else None)
    model.relation_tensors = _WordRelations(digits, alphabet.symbols, kind)
    return model


class _WordRelations(Mapping):
    """A word model's relation tensors by name: the letters' labels in
    alphabet order, then the order relation, each built on its first read."""

    def __init__(self, digits: np.ndarray, symbols: tuple[str, ...], kind: str):
        self.digits, self.names, self.built = digits, (*symbols, kind), {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.built:
            if name not in self.names:
                raise KeyError(name)
            if name == self.names[-1]:
                order = order_relation(self.digits.shape[-1], name)
                self.built[name] = order[None] if self.digits.ndim == 2 else order
            else:
                self.built[name] = self.digits == self.names.index(name)
        return self.built[name]

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


# --- evaluation plans ---------------------------------------------------

@dataclass(frozen=True)
class Contract(Formula):
    """min1 of the sum, over every assignment to the bound variables, of the
    product of the factors: a block of existentials over a conjunction."""

    bound: tuple[Variable, ...]
    factors: tuple[Formula, ...]

    def __post_init__(self):
        if len({v.name for v in self.bound}) < len(self.bound):
            raise ValueError(f"bound variables not distinct: {[v.name for v in self.bound]}")

    def children(self):
        return self.factors

    @cached
    def free_names(self):
        return frozenset().union(*[f.free_names for f in self.factors]) - {v.name for v in self.bound}

    def plan(self, rows: frozenset) -> tuple:
        """(axes, steps, rest, peak) from the factors' free_names less rows,
        names an assignment binds, which read a row and have no axis. Each
        step (axis, slots) eliminates the bound variable leaving fewest
        variables: it multiplies the factors using it (slots of the factor
        list, which each step's result extends), the largest last, and sums
        its axis out. axes names the bound variables some factor uses, rest
        the slots left, peak the most variables of a factor, step or output."""
        # One bit per variable name: a set of names is an int, | its union.
        bits: dict[str, int] = {}
        sets = []
        for f in self.factors:
            s = 0
            for name in f.free_names - rows:
                s |= bits.setdefault(name, 1 << len(bits))
            sets.append(s)
        used = [v.name for v in self.bound if v.name in bits]
        steps, rest, peak = _elimination(tuple(sets), tuple([bits[v] for v in used]))
        return tuple(used), steps, rest, max(peak, len(bits) - len(used))


@functools.lru_cache(maxsize=1024)
def _elimination(sets: tuple[int, ...], bound: tuple[int, ...]) -> tuple:
    """(steps, rest, peak) of Contract.plan from all it reads, the factors'
    variable sets and the bound variables' bits: plans of one shape share it."""
    live, steps, todo, sets = list(range(len(sets))), [], list(range(len(bound))), list(sets)
    peak = max([s.bit_count() for s in sets], default=0)
    while todo:
        best = None
        for i in todo:
            bit, slots, left = bound[i], [], 0
            for k in live:
                if sets[k] & bit:
                    slots.append(k)
                    left |= sets[k]
            if best is None or left.bit_count() < best[2].bit_count():
                best = i, slots, left
        i, slots, left = best
        todo.remove(i)
        if len(slots) > 1:
            slots.sort(key=lambda k: sets[k].bit_count())
            peak = max(peak, functools.reduce(int.__or__, [sets[k] for k in slots[:-1]]).bit_count())
        live = [k for k in live if k not in slots] + [len(sets)]
        sets.append(left & ~bound[i])
        peak = max(peak, sets[-1].bit_count())
        steps.append((i, tuple(slots)))
    return tuple(steps), tuple(live), peak


# --- compilation --------------------------------------------------------

def compile_formula(f: Formula) -> Formula:
    """The evaluation plan of a formula: its prenex form, whose quantifier
    prefix optimize (optimize.py) plans. The formula is a plan as it is,
    too. Compilation never consults a model."""
    return to_prenex(f)


# --- evaluation ----------------------------------------------------------

class TraceEvent(NamedTuple):
    tag: str
    variable: str
    bindings: tuple[tuple[str, int], ...]
    partial_sum: int


def eval_tensor(
    e: Formula,
    m: EmbeddedModel,
    a: Assignment | None = None,
    trace: list[TraceEvent] | None = None,
) -> int:
    """Evaluate a plan over an embedded model; returns exactly 0 or 1.

    The assignment must bind every free variable of the plan (1-based
    indices). When a trace list is supplied, every quantifier node appends
    its pre-clamp partial sum once per assignment to the quantified
    variables around it, in the order of a nested-loop walk of the plan:
    inner quantifiers before outer ones, outer variables counting up.

    Raises AssignmentError, as tarski_eval does, for any binding outside the
    domain, read or not; SemanticError, before allocating anything, when the
    plan's largest array would exceed MAX_CELLS cells or MAX_AXES axes, or a
    trace would hold more than MAX_TRACE_EVENTS events."""
    if m.domain is not None:
        raise ValueError("eval_tensor takes a model of one structure; use eval_batch")
    env = normalize_assignment(a)
    n = m.basis_size
    for name, i in env.items():
        if not 1 <= i <= n:
            raise AssignmentError(f"assignment binds {name} to {i}, outside domain of size {n}")
    program = _program(e, trace is not None)
    program.cells(n)
    run = _Run(m, env, None if trace is None else [])
    value = int(program.step(run))
    if trace is not None:
        trace.extend(event for _, event in sorted(run.events, key=itemgetter(0)))
    return value


def eval_batch(e: Formula, m: EmbeddedModel) -> np.ndarray:
    """Evaluate a closed plan on each structure of a batch (see
    EmbeddedModel), each over its domain mask, at once: an array of B
    values, each exactly 0 or 1. A model without a mask is a batch of one.

    Raises SemanticError, before allocating anything, when B * N^k (see
    batch_limit) exceeds MAX_CELLS cells."""
    b, n = m.batch_size, m.basis_size
    program = _program(e, False)
    if b > MAX_CELLS // max(program.cells(n, m.domain is not None), 1):
        raise SemanticError(
            f"evaluation of {b} structures needs arrays of B * N^k = "
            f"{b} * {n}^{program.peak} cells, over the limit of {MAX_CELLS}"
        )
    return program.step(_Run(m, {}, None)) + np.zeros(b, np.int64)  # one value per structure, or one for all


# numpy's limit on the axes of an array (NPY_MAXDIMS).
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32

# Most events one traced evaluation may record. An event holds a binding per
# quantified variable around its node: about 0.6 KB under 8 of them, 0.9 KB under 12.
MAX_TRACE_EVENTS = 1 << 18


def batch_limit(e: Formula, n: int) -> int:
    """Most structures of domain size n that one eval_batch call may take
    for plan e: MAX_CELLS // N^k, N^k the planned peak of e per structure
    (the domain mask adds no variable). Raises SemanticError when one
    structure is past MAX_CELLS, or past MAX_AXES with the batch axis."""
    return MAX_CELLS // max(_program(e, False).cells(n, 1), 1)


def plan_extent(e: Formula) -> tuple[int, int]:
    """(most axes, k of the most cells N^k) of the arrays evaluating plan e on one structure."""
    program = _program(e, False)
    return program.axes, program.peak


def _program(e: Formula, traced: bool) -> _Program:
    """The program of plan e, traced or not, lowered on first use and kept
    in the root's __dict__. An object that is no plan node raises TypeError."""
    if not isinstance(e, Formula):
        raise TypeError(f"not a plan node: {e!r}")
    key = "_traced_program" if traced else "_program"
    return e.__dict__.get(key) or e.__dict__.setdefault(key, _Program(e, traced))


class _Run:
    """A program's run: the model, N, the mask, the assignment and, when
    tracing, the (sort key, event) pairs recorded."""

    def __init__(self, m: EmbeddedModel, env: dict[str, int], events: list | None):
        self.m, self.n, self.domain, self.env, self.events = m, m.basis_size, m.domain, env, events

    def record(self, tag: str, variable: str, total, where: dict[str, int], path: tuple):
        """An event per entry of a quantifier's sums, on the axes of `where`,
        keyed by path with each loop (None) its index, then math.inf."""
        totals = np.broadcast_to(total, (self.n,) * np.ndim(total))
        for idx in np.ndindex(totals.shape):
            loops = iter(idx)
            key = tuple(next(loops) if p is None else p for p in path) + (math.inf,)
            bindings = {**self.env, **{name: idx[axis] + 1 for name, axis in where.items()}}
            self.events.append((key, TraceEvent(tag, variable, tuple(sorted(bindings.items())), int(totals[idx]))))


class _Program:
    """A plan lowered by one walk: step(run) computes its value. Its arrays
    have at most `axes` axes after a batch's and N^peak cells per structure;
    a traced program records sum(N^k for k in events) events.

    lower(e, where, width, depth, path, negate) returns the step of e, or
    of !e when negate. e's value has `width` axes after any batch axis, one
    per quantified variable in scope (where: name -> its axis), indexed from
    the last. depth is the planned k at e; path, None unless traced, has a
    loop (None) per quantified variable around e and the position of the
    child taken at each other node. A Not has no step: its body is lowered
    negated."""

    def __init__(self, e: Formula, traced: bool):
        self.axes, self.peak, self.events = 0, 0, []
        self.step = self.lower(e, {}, 0, 0, () if traced else None, False)

    def cells(self, n: int, lead: int = 0) -> int:
        """N^peak, checked with the axes (`lead` more in front) and events on domain size n."""
        axes, cells, events = self.axes + lead, n**self.peak, sum([n**k for k in self.events])
        if axes > MAX_AXES:
            raise SemanticError(f"evaluation needs arrays of {axes} axes, over numpy's limit of {MAX_AXES}")
        if cells > MAX_CELLS:
            raise SemanticError(
                f"evaluation needs arrays of N^k = {n}^{self.peak} cells "
                f"(domain size {n}, k = {self.peak} variables), over the limit of {MAX_CELLS}"
            )
        if events > MAX_TRACE_EVENTS:
            raise SemanticError(
                f"a trace of this plan on domain size {n} holds {events} events, over the limit of {MAX_TRACE_EVENTS}"
            )
        return cells

    def lower(self, e, where: dict[str, int], width: int, depth: int, path: tuple | None, negate: bool):
        t = type(e)
        if t is Not:
            return self.lower(e.body, where, width, depth, None if path is None else path + (0,), not negate)
        if t is Atom or t is Equal:
            self.axes, self.peak = max(self.axes, width), max(self.peak, depth)
            terms = e.terms if t is Atom else (e.left, e.right)
            axes = tuple([where.get(v.name) for v in terms])
            rows = tuple([v.name if p is None else None for v, p in zip(terms, axes)]) if None in axes else ()
            return _literal(e.predicate.name if t is Atom else None, axes, rows, width, negate)
        if t is And or t is Or:
            steps = [self.lower(g, where, width, depth, None if path is None else path + (k,), False)
                     for k, g in enumerate(e.items)]
            if t is And:
                if negate:
                    return lambda run: ~functools.reduce(np.logical_and, [s(run) for s in steps])
                return lambda run: functools.reduce(np.logical_and, [s(run) for s in steps])
            # Summed as int64: a bool sum would clamp on its own and hide a broken min1.
            return lambda run: _clamp(functools.reduce(np.add, [s(run) for s in steps], np.int64(0)), negate)
        if t is Exists or t is Forall:
            return self.quantifier(e, where, width, depth, path, negate)
        if t is Contract:
            return self.contract(e, where, width, path, negate)
        raise TypeError(f"not a plan node: {e!r}")

    def quantifier(self, e, where: dict[str, int], width: int, depth: int, path: tuple | None, negate: bool):
        exists, var = type(e) is Exists, e.var.name
        body = self.lower(e.body, {**where, var: width}, width + 1, depth + 1,
                          None if path is None else path + (None,), not exists)
        mask = (slice(None), *_placement(width + 1, (width,))[0])  # a batch's domain mask, on the variable's axis
        if path is not None:
            self.events.append(width)

        def quantifier(run):
            value = body(run)
            if run.domain is not None:
                value = value & run.domain[mask]
            total = np.add.reduce(value, -1)
            if value.shape[-1] != run.n:
                total = total * run.n  # a body without the variable's axis counts N times
            if path is not None:
                run.record("exists-sum" if exists else "forall-dual", var, total, where, path)
            return _clamp(total, exists == negate)  # forall x. b is !(exists x. !b)

        return quantifier

    def contract(self, e: Contract, where: dict[str, int], outer: int, path: tuple | None, negate: bool):
        rows = e.free_names.difference(where)  # bound by the assignment
        axes, order, rest, peak = e.plan(rows)
        width = outer + len(axes)
        inner = {**where, **dict(zip(axes, range(outer, width)))}
        # The factors sit inside one loop per bound variable they use.
        path = None if path is None else path + (None,) * len(axes)
        factors = [self.lower(g, inner, width, len(g.free_names - rows), None if path is None else path + (k,), False)
                   for k, g in enumerate(e.factors)]
        self.axes, self.peak = max(self.axes, width), max(self.peak, peak)
        # Each step's axis counted from the last, and a batch's mask on it.
        steps = [(axis - len(axes), slots, (slice(None), *_placement(width, (outer + axis,))[0]))
                 for axis, slots in order]
        unused, nonempty = len(axes) < len(e.bound), (..., *[None] * outer)

        def contract(run):
            counts = [f(run) for f in factors]
            for v, slots, mask in steps:
                *head, last = (counts[k] for k in slots)
                if run.domain is not None:
                    head.insert(0, run.domain[mask])
                counts.append(
                    _matmul(functools.reduce(np.multiply, head), last, v)
                    if head else np.add.reduce(last, v, np.float64, keepdims=True)
                )
            total = functools.reduce(np.multiply, [counts[k] for k in rest] or [np.int64(1)])
            total = total.reshape(total.shape[:total.ndim - len(axes)])
            if unused:
                # N^k for the unused bound variables: min1 sees only whether N > 0.
                total = total * np.asarray(run.n > 0 if run.domain is None else run.domain.any(-1))[nonempty]
            return _clamp(total, negate)

        return contract


@functools.lru_cache(maxsize=1024)
def _literal(name: str | None, axes: tuple, rows: tuple, width: int, negate: bool):
    """The step of relation `name`, inverted when negate, its k-th axis on
    axes[k] of `width` after any batch axis, or the row of rows[k] where
    axes[k] is None (a variable the assignment binds). The name "" reads
    the index range 0..N-1, and None the equality of the two variables:
    that range placed on each side, compared by ==, or by != when negated.
    The key is all a step reads, so plans share steps."""
    if name is None:
        left, right = [_literal("", (p,), (v,) if p is None else (), width, False)
                       for p, v in zip(axes, rows or (None, None))]
        return (lambda run: left(run) != right(run)) if negate else (lambda run: left(run) == right(run))
    spread, diagonal, swap = _placement(width, axes)
    spread = (..., *spread)

    def view(run):
        t = run.m.tensor(name, len(axes)) if name else _indices(run.n)
        if rows:
            try:
                t = t[(..., *[slice(None) if v is None else run.env[v] - 1 for v in rows])]
            except KeyError as unbound:
                raise UnboundVariableError(f"variable {unbound.args[0]!r} is not bound") from None
        if swap:
            t = t.swapaxes(-1, -2)
        elif diagonal:
            t = np.einsum("...ii->...i", t)
        return ~t[spread] if negate else t[spread]

    return view


@functools.lru_cache(maxsize=128)
def _indices(n: int) -> np.ndarray:
    """The index range 0..N-1 that every equality step reads, as a read-only view."""
    return np.broadcast_to(np.arange(n), (n,))


@functools.cache
def _placement(width: int, axes: tuple) -> tuple[tuple, bool, bool]:
    """(index, diagonal, swap) that puts the axes of an array, one per entry
    of axes (None for a row read before), on those axes of `width`: its
    diagonal for (x, x), swapped for (y, x)."""
    axes = [p for p in axes if p is not None]
    diagonal, swap = len(axes) == 2 and axes[0] == axes[1], len(axes) == 2 and axes[0] > axes[1]
    return tuple([slice(None) if k in axes else None for k in range(width)]), diagonal, swap


def _matmul(a: np.ndarray, b: np.ndarray, v: int) -> np.ndarray:
    """The sum over axis v < 0 of a * b, kept as an axis of size 1, by
    np.matmul on float64 (numpy has no BLAS path for integers): the axes
    both carry (size not 1) stack the matrices, a's alone are their rows,
    b's their columns. A value without a batch's axis gets one of size 1."""
    if a.ndim != b.ndim:
        a, b = (x.reshape((1,) * (max(a.ndim, b.ndim) - x.ndim) + x.shape) for x in (a, b))
    v += a.ndim
    stack, rows, cols, ones = [], [], [], []
    for k, (p, q) in enumerate(zip(a.shape, b.shape)):
        if k != v:
            (stack if p != 1 and q != 1 else rows if p != 1 else cols if q != 1 else ones).append(k)
    if not rows and not cols:
        # A stack of dot products, no larger than a or b. Over the outermost
        # axis or one row, as in a single word, numpy's sum is quick and
        # einsum's setup costs more: about 2 us a step, 2-4% of a long-words
        # or check request. Over an inner axis of many rows, as in a batch,
        # numpy's sum is slow: there einsum sums the products, of bools in
        # uint8 (a view, so the axis must be shorter than 256 for every
        # count to fit), and only the counts are cast to float64.
        if v == 0 or not stack:
            return (a * b).sum(v, keepdims=True, dtype=np.float64)
        if a.dtype == b.dtype == bool and a.shape[v] < 256:
            both = (a & b).view(np.uint8)
        else:
            both = np.multiply(a, b, dtype=np.float64)
        outer, inner = both.shape[:v], both.shape[v + 1:]
        counts = np.einsum("ijk->ik", both.reshape(math.prod(outer), both.shape[v], math.prod(inner)))
        return counts.astype(np.float64, copy=False).reshape(outer + (1,) + inner)
    lead, r, c = [a.shape[k] for k in stack], [a.shape[k] for k in rows], [b.shape[k] for k in cols]
    x = a.transpose(stack + rows + [v] + cols + ones).reshape(lead + [math.prod(r), a.shape[v]])
    y = b.transpose(stack + [v] + cols + rows + ones).reshape(lead + [b.shape[v], math.prod(c)])
    x, y = x.astype(np.float64, copy=False), y.astype(np.float64, copy=False)
    out = np.matmul(x, y).reshape(lead + r + c + [1] * (len(ones) + 1))
    perm = stack + rows + cols + ones + [v]
    return out.transpose(sorted(range(len(perm)), key=perm.__getitem__))


def _clamp(total: np.ndarray, negate: bool) -> np.ndarray:
    """min1(total) == 1 as bool, or != 1 when negate, once every entry is
    checked to be 0 or 1: as many entries are nonzero as equal 1 (a count
    reads a fraction as nonzero, where a cast to bool would read it as 1)."""
    v = min1(total)
    out = v != 1 if negate else v == 1
    if np.count_nonzero(v) != (v.size - np.count_nonzero(out) if negate else np.count_nonzero(out)):
        raise ClosureError("plan node value outside {0, 1}")
    return out


# --- plan text format -----------------------------------------------------

def dump_expr(e) -> str:
    """Indented s-expression rendering, one node per line.

    Tags: rel, eq, compl, prod, min1sum, exists-sum, forall-dual, and in
    optimized plans contract, followed by the bound variables (see the
    module docstring). An object that is no plan node raises TypeError."""
    lines: list[str] = []
    _dump(e, "", lines)
    return "\n".join(lines)


def _dump(e, pad: str, out: list[str]) -> None:
    """Append e's lines, indented by pad, to out."""
    t = type(e)
    if t is Atom:
        head = f"rel {e.predicate.name} {' '.join([v.name for v in e.terms])}"
    elif t is And:
        head = "prod"
    elif t is Not:
        head = "compl"
    elif t is Or:
        head = "min1sum"
    elif t is Exists or t is Forall:
        head = f"{'exists-sum' if t is Exists else 'forall-dual'} {e.var.name}"
    elif t is Equal:
        head = f"eq {e.left.name} {e.right.name}"
    elif t is Contract:
        head = f"contract {' '.join([v.name for v in e.bound])}"
    else:
        raise TypeError(f"not a plan node: {e!r}")
    out.append(f"{pad}({head}")
    for child in e.children():
        _dump(child, pad + "  ", out)
    out[-1] += ")"
