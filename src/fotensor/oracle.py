"""Brute-force Tarskian model checking over the raw set representation.

This is the reference side of all differential tests: it recurses over the
formula AST with ordinary boolean logic and set lookups, and deliberately
shares no evaluation machinery with the tensor path.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .errors import (
    ArityMismatchError,
    AssignmentError,
    UnboundVariableError,
    UnknownPredicateError,
)
from .formulas import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Variable,
)
from .models import Assignment, StructureModel, normalize_assignment


def tarski_eval(f: Formula, m: StructureModel, a: Assignment | None = None) -> bool:
    """Standard inductive truth over m under assignment a (1-based indices)."""
    env = normalize_assignment(a)
    for name, idx in env.items():
        if not 1 <= idx <= m.domain_size:
            raise AssignmentError(
                f"assignment binds {name} to {idx}, outside domain of size {m.domain_size}"
            )
    return _eval(f, m, env)


def _lookup(env: dict[str, int], var: Variable) -> int:
    try:
        return env[var.name]
    except KeyError:
        raise UnboundVariableError(f"variable {var.name!r} is not bound") from None


def _eval(f: Formula, m: StructureModel, env: dict[str, int]) -> bool:
    if isinstance(f, Atom):
        name = f.predicate.name
        if f.predicate.arity == 1:
            if name in m.binary:
                raise ArityMismatchError(f"predicate {name!r} is binary in the model")
            if name not in m.unary:
                raise UnknownPredicateError(f"no unary relation {name!r} in the model")
            return _lookup(env, f.terms[0]) in m.unary_positions(name)
        if name in m.unary:
            raise ArityMismatchError(f"predicate {name!r} is unary in the model")
        if name not in m.binary:
            raise UnknownPredicateError(f"no binary relation {name!r} in the model")
        pair = (_lookup(env, f.terms[0]), _lookup(env, f.terms[1]))
        return pair in m.binary_pairs(name)
    if isinstance(f, Equal):
        return _lookup(env, f.left) == _lookup(env, f.right)
    if isinstance(f, Not):
        return not _eval(f.body, m, env)
    if isinstance(f, And):
        return all(_eval(g, m, env) for g in f.items)
    if isinstance(f, Or):
        return any(_eval(g, m, env) for g in f.items)
    if isinstance(f, (Exists, Forall)):
        name = f.var.name
        saved = env.get(name)
        hits = (
            _eval_bound(f.body, m, env, name, i) for i in range(1, m.domain_size + 1)
        )
        result = any(hits) if isinstance(f, Exists) else all(hits)
        if saved is None:
            env.pop(name, None)
        else:
            env[name] = saved
        return result
    raise TypeError(f"not a formula: {f!r}")


def _eval_bound(body, m, env, name, i):
    env[name] = i
    return _eval(body, m, env)


def enumerate_assignments(
    variables: list[Variable], m: StructureModel
) -> Iterator[dict[str, int]]:
    """All |D|^k assignments for the given variables, lexicographically.

    No variables yields exactly one empty assignment; an empty domain with
    variables yields nothing."""
    names = [v.name if isinstance(v, Variable) else str(v) for v in variables]
    for combo in product(range(1, m.domain_size + 1), repeat=len(names)):
        yield dict(zip(names, combo))
