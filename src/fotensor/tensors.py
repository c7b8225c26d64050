"""Tensor embedding of finite structures and compiled formula evaluation.

Domain elements become one-hot basis vectors; a k-ary relation becomes an
order-k 0/1 tensor whose contraction with basis vectors yields the atom's
truth value (for binary relations, e_i . R e_j), and equality is the
bilinear form of the identity, e_i . I e_j = [i = j]. Compiled formulas
evaluate by exact arithmetic over these tensors:

    negative literal      compl over the literal: 1...1 - R, placed
    negation              1 - x
    conjunction           product of the conjuncts
    disjunction           min1(sum of the disjuncts)
    existential           min1(sum over the basis substitutions)
    universal             via the dual: 1 - min1(sum of 1 - body)
    contraction           min1(sum over the bound variables of a product)

where min1(x) = min(x, 1) componentwise. A contraction is one block of
existentials over a conjunction, a multilinear map; optimize (optimize.py)
plans a compiled plan into contractions. An embedded model holds only its
relation tensors: evaluation never builds the basis vectors or the
identity.

Evaluation works on whole arrays. Each plan node is computed once, for all
assignments to the quantified variables in its scope at the same time, as
a bool array with one axis per such variable; the axis has size 1 where
the node does not depend on the variable. A literal is its relation
tensor placed on its variables' axes (the diagonal for R(x, x), a row or
column for a variable the assignment binds), and a negative literal the
complement node over it, the placed tensor inverted. An equality x = y
places the index range 0..N-1 on the axis of x and on the axis of y and
compares the two, so [i = j] comes from the indices alone. Conjunction is
a broadcast product and disjunction a clamped sum. A quantifier sums its
body over the variable's axis after broadcasting that axis to the domain
size N, which makes existentials 0 and universals 1 on an empty domain. A
contraction runs its order (Contract.order): it eliminates the bound
variables one at a time, summing an axis that one factor uses and
contracting two or more factors with one np.matmul on float64 counts
(exact below 2^53); a bound variable that no factor uses gets no axis.
Counts exist only inside a sum: int64 for a quantifier or a disjunction,
float64 in a contraction; the clamp turns them back into bool. Before
allocating anything, evaluation refuses a plan whose largest array, N^k
cells, is past MAX_CELLS, where k counts the quantifiers around a node of
a plain plan, or a contraction's variables in its largest factor, step or
output.

A batch is a model with a (B, N) domain mask. embed_words builds one for
B words, each padded to the longest, N letters: (B, N) labels and the mask
of each word's own positions, next to the order tensor as a (1, N, N)
view, which on a word's first L positions is the order of that word.
eval_batch evaluates a closed plan on all of them at once: the batch is
one more axis in front of the quantified variables', carried by every
relation (size 1 when shared), so arrays grow to B * N^k cells. Each sum
over a variable multiplies in the mask on its axis, so that each word sees
only its own positions.

Every node value of a well-formed plan is exactly 0 or 1: the relation
tensors are checked when the model is embedded, and every clamp runs
min1, which rejects negative input, then checks its output before the
cast to bool. Both raise ClosureError explicitly, so the checks also run
under python -O.

Plans are model-independent: the quantifier nodes carry the domain
iteration symbolically and bind its size only at evaluation time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
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
from .formulas import And, Atom, Equal, Formula, Node, Not, Or, Variable, children
from .models import (
    MAX_CELLS,
    Alphabet,
    Assignment,
    StructureModel,
    is_zero_one,
    normalize_assignment,
    order_relation,
)
from .prenex import EXISTS, PrenexFormula, to_prenex

def min1(x):
    """min(x, 1), componentwise on arrays and numpy scalars. Raises
    ClosureError on negative input."""
    if isinstance(x, (np.ndarray, np.generic)):
        if (x < 0).any():
            raise ClosureError("min1 requires nonnegative input")
        return np.minimum(x, 1)
    if x < 0:
        raise ClosureError("min1 requires nonnegative input")
    return min(int(x), 1)


class EmbeddedModel:
    """A structure mapped into R^N: its relation tensors over a domain of
    basis_size elements, stored as bool.

    A model with a (B, N) `domain` mask is a batch of B structures over the
    same domain, each restricted to the elements where its mask row holds;
    only eval_batch takes it, and reads the mask wherever it sums a variable
    out. Every relation of a batch carries a leading axis of size B, one
    entry per structure, or of size 1, shared by all of them. For
    embed_words, `digits` holds each word's letters as alphabet positions.
    Raises ClosureError unless every tensor is 0/1, and ValueError for a
    mask or a relation of a batch without those shapes."""

    def __init__(
        self,
        basis_size: int,
        relation_tensors: dict[str, np.ndarray],
        digits: np.ndarray | None = None,
        domain: np.ndarray | None = None,
    ):
        for name, t in relation_tensors.items():
            if not is_zero_one(t):
                raise ClosureError(f"relation tensor {name!r} is not a 0/1 tensor")
        if domain is not None:
            if not is_zero_one(domain):
                raise ClosureError("the domain mask is not a 0/1 tensor")
            if domain.ndim != 2 or domain.shape[1] != basis_size:
                raise ValueError(f"the domain mask has shape {domain.shape}, expected (B, {basis_size})")
            for name, t in relation_tensors.items():
                if t.ndim == 0 or t.shape[0] not in (1, len(domain)):
                    raise ValueError(
                        f"relation tensor {name!r} has no batch axis of size {len(domain)} or 1"
                    )
            domain = domain.astype(bool, copy=False)
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


def embed_words(
    alphabet: Alphabet, max_len: int, kind: str, start: int = 0, stop: int | None = None
) -> EmbeddedModel:
    """Batched model of the words of length <= max_len numbered start to
    stop - 1 in iter_words order (shortest first, then lexicographic in
    alphabet order), by default all of them, each padded to the longest of
    them, N letters. The labels and the domain mask are (B, N) bool tensors,
    0 past a word's own letters, and `digits` holds len(alphabet) there. The
    order relation is one (N, N) matrix, shared as a (1, N, N) view. Built
    from each word's code, its base-|alphabet| numeral, without a per-word
    model."""
    base = len(alphabet)
    firsts = [0, *itertools.accumulate(base**k for k in range(max_len + 1))]
    stop = firsts[-1] if stop is None else stop
    if not 0 <= start <= stop <= firsts[-1]:
        raise ValueError(f"word numbers {start}..{stop} outside 0..{firsts[-1]}")
    # The words of length L are numbered firsts[L] to firsts[L + 1] - 1.
    low, n = (bisect.bisect_right(firsts, k, hi=max_len + 1) - 1 for k in (start, max(stop - 1, start)))
    name, order = order_relation(n, kind)
    runs = [(length, max(firsts[length], start) - start, min(firsts[length + 1], stop) - start)
            for length in range(low, n + 1)]
    codes = np.concatenate([np.arange(a, b) + (start - firsts[length]) for length, a, b in runs])
    # Each code's numeral in n digits, then each word's own last L of them.
    numerals = np.empty((stop - start, n), np.min_scalar_type(base))
    for i in reversed(range(n)):
        codes, numerals[:, i] = np.divmod(codes, base)
    digits = np.full_like(numerals, base)
    for length, a, b in runs:
        digits[a:b, :length] = numerals[a:b, n - length:]
    labels = {sym: digits == k for k, sym in enumerate(alphabet)}
    return EmbeddedModel(n, {**labels, name: order[None]}, digits=digits, domain=digits != base)


# --- evaluation plans ---------------------------------------------------

class TensorExpr(Node):
    """Node of a compiled evaluation plan; its value is a scalar for each
    assignment to its free variables."""

    @functools.cached_property
    def variables(self) -> frozenset[Variable]:
        """Free variables of the plan rooted here (bound sum variables
        excluded), computed once per node from its children's."""
        if isinstance(self, RelApply):
            return frozenset(self.terms)
        if isinstance(self, EqApply):
            return frozenset((self.left, self.right))
        kids = children(self)
        out = kids[0].variables if len(kids) == 1 else frozenset().union(*[k.variables for k in kids])
        if isinstance(self, (Min1SumOverDomain, DualSumOverDomain)):
            out = out - {self.var}
        elif isinstance(self, Contract):
            out = out - set(self.bound)
        return out

    @functools.cached_property
    def _extent(self) -> tuple[int, int]:
        """_extent of the plan rooted here, walked once per root node: plans
        are immutable, and the cache lives outside the dataclass fields, so
        equality and hashing ignore it."""
        return _extent(self)


@dataclass(frozen=True)
class RelApply(TensorExpr):
    predicate: str
    terms: tuple[Variable, ...]


@dataclass(frozen=True)
class EqApply(TensorExpr):
    left: Variable
    right: Variable


@dataclass(frozen=True)
class Complement(TensorExpr):
    body: TensorExpr


@dataclass(frozen=True)
class Product(TensorExpr):
    factors: tuple[TensorExpr, ...]


@dataclass(frozen=True)
class Min1Sum(TensorExpr):
    terms: tuple[TensorExpr, ...]


@dataclass(frozen=True)
class Min1SumOverDomain(TensorExpr):
    var: Variable
    body: TensorExpr


@dataclass(frozen=True)
class DualSumOverDomain(TensorExpr):
    var: Variable
    body: TensorExpr


@dataclass(frozen=True)
class Contract(TensorExpr):
    """min1 of the sum, over every assignment to the bound variables, of the
    product of the factors: a block of existentials over a conjunction."""

    bound: tuple[Variable, ...]
    factors: tuple[TensorExpr, ...]

    @functools.cached_property
    def order(self) -> tuple:
        """(axes, steps, rest, peak) from the factors' variable sets, for every N.
        Each step (axis, slots) eliminates the bound variable leaving fewest
        variables: it multiplies the factors using it (slots of the factor
        list, which each step's result extends), the largest last, and sums
        its axis out. axes names the bound variables some factor uses, rest
        the slots left, peak the most variables of a factor, step or output."""
        # By name: str hashing and equality run in C, Variable's in Python.
        sets = [frozenset([v.name for v in f.variables]) for f in self.factors]
        free = frozenset().union(*sets)
        used = [v.name for v in self.bound if v.name in free]
        live, steps, todo = list(range(len(sets))), [], list(used)
        peak = max(map(len, sets), default=0)
        while todo:
            best = None
            for v in todo:
                slots = [k for k in live if v in sets[k]]
                left = frozenset().union(*[sets[k] for k in slots])
                if best is None or len(left) < len(best[2]):
                    best = v, slots, left
            v, slots, left = best
            todo.remove(v)
            if len(slots) > 1:
                slots.sort(key=lambda k: len(sets[k]))
                peak = max(peak, len(frozenset().union(*[sets[k] for k in slots[:-1]])))
            live = [k for k in live if k not in slots] + [len(sets)]
            sets.append(left - {v})
            peak = max(peak, len(sets[-1]))
            steps.append((used.index(v), tuple(slots)))
        return tuple(used), tuple(steps), tuple(live), max(peak, len(free) - len(used))


# --- compilation --------------------------------------------------------

def compile_formula(f: Formula | PrenexFormula) -> TensorExpr:
    """Compile a formula (sugared input is fine) into an evaluation plan.

    The formula is first brought into prenex normal form, unless it is a
    PrenexFormula; the prefix becomes nested sum-over-domain nodes and the
    NNF matrix maps literal-for-literal onto tensor operations. Compilation
    never consults a model."""
    pf = f if isinstance(f, PrenexFormula) else to_prenex(f)
    expr = _compile_matrix(pf.matrix)
    for quant, var in reversed(pf.prefix):
        node = Min1SumOverDomain if quant == EXISTS else DualSumOverDomain
        expr = node(var, expr)
    return expr


def _compile_matrix(f: Formula) -> TensorExpr:
    if isinstance(f, Atom):
        return RelApply(f.predicate.name, f.terms)
    if isinstance(f, Equal):
        return EqApply(f.left, f.right)
    if isinstance(f, Not):
        return Complement(_compile_matrix(f.body))
    if isinstance(f, And):
        return Product(tuple(_compile_matrix(g) for g in f.items))
    if isinstance(f, Or):
        return Min1Sum(tuple(_compile_matrix(g) for g in f.items))
    raise TypeError(f"not a quantifier-free NNF matrix: {f!r}")


# --- evaluation ----------------------------------------------------------

class TraceEvent(NamedTuple):
    tag: str
    variable: str
    bindings: tuple[tuple[str, int], ...]
    partial_sum: int


def eval_tensor(
    e: TensorExpr,
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

    Raises SemanticError, before allocating anything, when the plan's
    largest array would exceed MAX_CELLS cells or MAX_AXES axes, or a trace
    would hold more than MAX_TRACE_EVENTS events."""
    if m.domain is not None:
        raise ValueError("eval_tensor takes a model of one structure; use eval_batch")
    _planned_cells(e, m.basis_size, 0)
    if trace is not None:
        events = _trace_events(e, m.basis_size)
        if events > MAX_TRACE_EVENTS:
            raise SemanticError(
                f"a trace of this plan on domain size {m.basis_size} holds {events} "
                f"events, over the limit of {MAX_TRACE_EVENTS}"
            )
    ev = _Evaluator(m, normalize_assignment(a), trace is not None)
    value = int(ev.scalar(e, (), ()))
    if trace is not None:
        trace.extend(event for _, event in sorted(ev.events, key=itemgetter(0)))
    return value


def eval_batch(e: TensorExpr, m: EmbeddedModel) -> np.ndarray:
    """Evaluate a closed plan on each structure of a batch (see
    EmbeddedModel), each over its domain mask, at once: an array of B
    values, each exactly 0 or 1. A model without a mask is a batch of one.

    Raises SemanticError, before allocating anything, when B * N^k (see
    batch_limit) exceeds MAX_CELLS cells."""
    b, n = m.batch_size, m.basis_size
    if b > batch_limit(e, n):
        raise SemanticError(
            f"evaluation of {b} structures needs arrays of B * N^k = "
            f"{b} * {n}^{e._extent[1]} cells, over the limit of {MAX_CELLS}"
        )
    value = _Evaluator(m, {}, False).scalar(e, (None,), ())
    return np.broadcast_to(value, (b,)).astype(np.int64)


# numpy's limit on the axes of an array (NPY_MAXDIMS).
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32

# Most events one traced evaluation may record. An event holds a binding per
# quantified variable around its node: about 0.6 KB under 8 of them, 0.9 KB under 12.
MAX_TRACE_EVENTS = 1 << 18


def batch_limit(e: TensorExpr, n: int) -> int:
    """Most structures of domain size n that one eval_batch call may take
    for plan e: MAX_CELLS // N^k, N^k the planned peak of e per structure
    (the domain mask adds no variable). Raises SemanticError when one
    structure is past MAX_CELLS or MAX_AXES."""
    return MAX_CELLS // max(_planned_cells(e, n, 1), 1)


def _planned_cells(e: TensorExpr, n: int, batch_axes: int) -> int:
    """The planned peak N^k of e (see _extent), checked with the axes, batch
    axes included, against MAX_CELLS and MAX_AXES."""
    axes, depth = e._extent
    if axes + batch_axes > MAX_AXES:
        raise SemanticError(
            f"evaluation needs arrays of {axes + batch_axes} axes, "
            f"over numpy's limit of {MAX_AXES}"
        )
    cells = n**depth
    if cells > MAX_CELLS:
        raise SemanticError(
            f"evaluation needs arrays of N^k = {n}^{depth} cells "
            f"(domain size {n}, k = {depth} variables), over the limit of {MAX_CELLS}"
        )
    return cells


def _trace_events(e: TensorExpr, n: int, depth: int = 0) -> int:
    """Events a trace of e records on domain size n, inside `depth`
    quantified variables: N^k for each quantifier node, k the quantified
    variables around it (a contraction's used bound ones included)."""
    if isinstance(e, (Min1SumOverDomain, DualSumOverDomain)):
        return n**depth + _trace_events(e.body, n, depth + 1)
    if isinstance(e, Contract):
        depth += len(e.order[0])
    return sum(_trace_events(child, n, depth) for child in children(e))


class _Evaluator:
    """One evaluation of a plan. Each node value is a bool array with one
    axis per quantified variable in scope (outermost first), of size 1
    where the node does not depend on that variable. eval_batch opens the
    scope with the batch axis, named None as no variable can be, and
    multiplies in the domain mask, if any, at every sum over a variable.

    Trace events are recorded with a sort key that restores the nested-loop
    order: the path from the root, where a quantifier contributes its loop
    index (a contraction one per bound variable) and any other node the
    position of the child taken, followed by math.inf so that a node's own
    event sorts after its descendants'."""

    def __init__(self, m: EmbeddedModel, env: dict[str, int], tracing: bool):
        self.m = m
        self.n = m.basis_size
        self.env = env
        self.events: list | None = [] if tracing else None

    def scalar(self, e, scope: tuple[str | None, ...], path: tuple) -> np.ndarray:
        if isinstance(e, RelApply):
            return self.place(self.m.tensor(e.predicate, len(e.terms)), e.terms, scope)
        if isinstance(e, EqApply):
            left, right = (self.place(np.arange(self.n), (v,), scope) for v in (e.left, e.right))
            return left == right
        if isinstance(e, Complement):
            return ~self.scalar(e.body, scope, path + (0,))
        if isinstance(e, Product):
            values = [self.scalar(g, scope, path + (k,)) for k, g in enumerate(e.factors)]
            return functools.reduce(np.logical_and, values)
        if isinstance(e, Min1Sum):
            values = [self.scalar(g, scope, path + (k,)) for k, g in enumerate(e.terms)]
            # Summed as int64: a bool sum would clamp on its own and hide a broken min1.
            return _clamp(functools.reduce(np.add, values, np.int64(0)))
        if isinstance(e, (Min1SumOverDomain, DualSumOverDomain)):
            exists, inner = isinstance(e, Min1SumOverDomain), scope + (e.var.name,)
            body = self.scalar(e.body, inner, path + (None,))
            body = body if exists else ~body
            if self.m.domain is not None:
                body = body & self.mask(len(scope), len(inner))
            # Broadcast to N: a body that ignores the variable counts N times.
            total = np.broadcast_to(body, body.shape[:-1] + (self.n,)).sum(-1)
            if self.events is not None:
                tag = "exists-sum" if exists else "forall-dual"
                self.record(tag, e.var.name, total, scope, path)
            return _clamp(total) if exists else ~_clamp(total)
        if isinstance(e, Contract):
            (axes, steps, rest, _), outer = e.order, len(scope)
            # The factors sit inside one loop per bound variable they use.
            path += (None,) * len(axes)
            counts = [self.scalar(g, scope + axes, path + (k,)) for k, g in enumerate(e.factors)]
            for axis, slots in steps:
                *head, last = (counts[k] for k in slots)
                if self.m.domain is not None:
                    head.insert(0, self.mask(outer + axis, outer + len(axes)))
                counts.append(
                    _matmul(functools.reduce(np.multiply, head), last, outer + axis)
                    if head else last.sum(axis=outer + axis, keepdims=True, dtype=np.float64)
                )
            total = functools.reduce(np.multiply, [counts[k] for k in rest] or [np.int64(1)])
            total = total.reshape(total.shape[:outer])
            if len(axes) < len(e.bound):
                # N^k for the unused bound variables: min1 sees only whether N > 0.
                nonempty = np.array(self.n > 0) if self.m.domain is None else self.m.domain.any(-1)
                total = total * self.place(nonempty, (), scope)
            return _clamp(total)
        raise TypeError(f"not a plan node: {e!r}")

    def place(self, t: np.ndarray, terms, scope: tuple[str | None, ...]) -> np.ndarray:
        """Tensor t with its k-th index on the axis of terms[k], reshaped to
        one axis per scope variable. A quantified variable takes its scope
        axis (the innermost one of that name), and a variable the assignment
        binds fixes a row or column. A batch's t, one axis more than terms,
        has its leading axis on the batch axis, scope position 0."""
        index, axes = ([slice(None)], [0]) if t.ndim > len(terms) else ([], [])
        for v in terms:
            axis = _scope_axis(scope, v.name)
            if axis is None:
                index.append(self.index(v))
            else:
                index.append(slice(None))
                axes.append(axis)
        t = t[tuple(index)]
        out = sorted(set(axes))
        if axes != out:
            # A repeated variable reads the diagonal (R(x, x)); the rest are
            # permuted into axis order (R(y, x) reads the transpose).
            t = np.einsum(t, [out.index(p) for p in axes], list(range(len(out))))
        shape = [1] * len(scope)
        for p, size in zip(out, t.shape):
            shape[p] = size
        return t.reshape(shape)

    def mask(self, axis: int, width: int) -> np.ndarray:
        """The (B, N) domain mask on the batch axis and on `axis` of `width`."""
        shape = [1] * width
        shape[0], shape[axis] = self.m.domain.shape
        return self.m.domain.reshape(shape)

    def index(self, var: Variable) -> int:
        """0-based domain position the assignment gives var."""
        try:
            i = self.env[var.name]
        except KeyError:
            raise UnboundVariableError(f"variable {var.name!r} is not bound") from None
        if not 1 <= i <= self.n:
            raise AssignmentError(f"index {i} outside domain of size {self.n}")
        return i - 1

    def record(self, tag: str, variable: str, total: np.ndarray, scope: tuple[str, ...], path):
        totals = np.broadcast_to(total, (self.n,) * len(scope))
        for idx in np.ndindex(totals.shape):
            loops = iter(idx)
            key = tuple(next(loops) if p is None else p for p in path) + (math.inf,)
            bindings = dict(self.env)
            bindings.update(zip(scope, (i + 1 for i in idx)))
            event = TraceEvent(tag, variable, tuple(sorted(bindings.items())), int(totals[idx]))
            self.events.append((key, event))


def _scope_axis(scope: tuple[str | None, ...], name: str) -> int | None:
    for p in range(len(scope) - 1, -1, -1):
        if scope[p] == name:
            return p
    return None


def _matmul(a: np.ndarray, b: np.ndarray, v: int) -> np.ndarray:
    """The sum over axis v of a * b, kept as an axis of size 1, by np.matmul on
    float64 (numpy has no BLAS path for integers): the axes both carry (size
    not 1) stack the matrices, a's alone are their rows, b's their columns."""
    stack, rows, cols, ones = [], [], [], []
    for k, (p, q) in enumerate(zip(a.shape, b.shape)):
        if k != v:
            (stack if p != 1 and q != 1 else rows if p != 1 else cols if q != 1 else ones).append(k)
    lead, r, c = [a.shape[k] for k in stack], [a.shape[k] for k in rows], [b.shape[k] for k in cols]
    x = a.transpose(stack + rows + [v] + cols + ones).reshape(lead + [math.prod(r), a.shape[v]])
    y = b.transpose(stack + [v] + cols + rows + ones).reshape(lead + [b.shape[v], math.prod(c)])
    x, y = x.astype(np.float64, copy=False), y.astype(np.float64, copy=False)
    out = np.matmul(x, y).reshape(lead + r + c + [1] * (len(ones) + 1))
    perm = stack + rows + cols + ones + [v]
    return out.transpose(sorted(range(len(perm)), key=perm.__getitem__))


def _clamp(total: np.ndarray) -> np.ndarray:
    """min1(total) as bool, once every entry is checked to be 0 or 1: the
    cast alone would read any nonzero count as 1."""
    v = min1(total)
    out = v.astype(bool)
    if not (out == v).all():
        raise ClosureError("plan node value outside {0, 1}")
    return out


def _extent(e, axes: int = 0, depth: int = 0) -> tuple[int, int]:
    """(most axes, k of the most cells N^k) of the arrays evaluating e, whose
    value has `axes` axes over `depth` variables: a quantifier adds one to
    both, a contraction its order's axes and peak (Contract.order)."""
    if isinstance(e, (Min1SumOverDomain, DualSumOverDomain)):
        axes, depth = axes + 1, depth + 1
    elif isinstance(e, Contract):
        axes, depth = axes + len(e.order[0]), e.order[3]
    most = (axes, depth)
    for child in children(e):
        a, d = _extent(child, axes, len(child.variables) if isinstance(e, Contract) else depth)
        most = (max(most[0], a), max(most[1], d))
    return most


# --- plan text format -----------------------------------------------------

def dump_expr(e) -> str:
    """Indented s-expression rendering, one node per line.

    Tags: rel, eq, compl, prod, min1sum, exists-sum, forall-dual, and in
    optimized plans contract, followed by the bound variables. Negative
    literals render as compl over the literal."""
    lines: list[str] = []
    _dump(e, "", lines)
    return "\n".join(lines)


# The dump line of each plan node class, without its children.
_HEADS = {
    RelApply: lambda e: f"rel {e.predicate} {' '.join(v.name for v in e.terms)}",
    EqApply: lambda e: f"eq {e.left.name} {e.right.name}",
    Complement: lambda e: "compl",
    Product: lambda e: "prod",
    Min1Sum: lambda e: "min1sum",
    Min1SumOverDomain: lambda e: f"exists-sum {e.var.name}",
    DualSumOverDomain: lambda e: f"forall-dual {e.var.name}",
    Contract: lambda e: f"contract {' '.join(v.name for v in e.bound)}",
}


def _dump(e, pad: str, out: list[str]) -> None:
    """Append e's lines, indented by pad, to out."""
    try:
        head = _HEADS[type(e)](e)
    except KeyError:
        raise TypeError(f"not a plan node: {e!r}") from None
    out.append(f"{pad}({head}")
    for child in children(e):
        _dump(child, pad + "  ", out)
    out[-1] += ")"
