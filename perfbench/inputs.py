"""Seeded benchmark inputs and the references that judge the outputs.

Nothing here imports fotensor: the inputs a workload sends and the verdicts
it expects are fixed by the seed and by this file alone, so a change to the
package cannot change either.

Formulas are nested tuples:

    ("lab", label, var)          unary label atom      a(x)
    ("rel", relation, var, var)  binary order atom     succ(x, y)
    ("eq", var, var)             equality              x = y
    ("not", f) | ("and", f, g) | ("or", f, g) | ("imp", f, g)
    ("exists", var, f) | ("forall", var, f)

`render` turns one into the package's surface syntax and `holds` decides it
over a `Structure` by direct Tarskian recursion.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# --- the two shipped constraints, stated from their definitions -----------

ONE_B_TEXT = "exists {x}. forall {y}. (b({x}) & (b({y}) -> {x} = {y}))"
DISS_TEXT = (
    "forall {x}. forall {y}. ((l({x}) & l({y}) & prec({x}, {y})) -> "
    "exists {z}. (r({z}) & prec({x}, {z}) & prec({z}, {y})))"
)

# Variable names that clash with no label, relation or keyword.
_VARIABLE_NAMES = ("x", "y", "z", "p", "q", "s", "t", "u", "w", "k")


def one_b(word: str) -> bool:
    """Exactly one b."""
    return word.count("b") == 1


def dissimilation(word: str) -> bool:
    """Every l that follows another l has an r between them."""
    open_l = False
    for ch in word:
        if ch == "l":
            if open_l:
                return False
            open_l = True
        elif ch == "r":
            open_l = False
    return True


def constraint_text(template: str, rng: random.Random) -> str:
    """The constraint with seed-chosen variable names."""
    x, y, z = rng.sample(_VARIABLE_NAMES, 3)
    return template.format(x=x, y=y, z=z)


def shuffled(symbols: str, rng: random.Random) -> str:
    return "".join(rng.sample(symbols, len(symbols)))


def planted_one_b(n: int, accept: bool, rng: random.Random) -> str:
    """A word over ab of length n that one-b accepts or rejects as asked."""
    word = ["a"] * n
    if accept:
        word[rng.randrange(n)] = "b"
    elif rng.random() < 0.25:
        pass  # no b at all
    else:
        for i in rng.sample(range(n), rng.randint(2, max(2, n // 4))):
            word[i] = "b"
    out = "".join(word)
    assert one_b(out) == accept
    return out


def planted_dissimilation(n: int, accept: bool, rng: random.Random) -> str:
    """A word over lra of length n that dissimilation accepts or rejects as
    asked. Accepted words are drawn left to right, never opening a second l
    before an r; a rejected word then gets one l...l pair with no r between."""
    word = []
    open_l = False
    for _ in range(n):
        ch = rng.choice("ra" if open_l else "lra")
        open_l = (open_l or ch == "l") and ch != "r"
        word.append(ch)
    if not accept:
        i, j = sorted(rng.sample(range(n), 2))
        word[i] = word[j] = "l"
        word[i + 1 : j] = ["a" if ch == "r" else ch for ch in word[i + 1 : j]]
    out = "".join(word)
    assert dissimilation(out) == accept
    return out


def words_upto(alphabet: str, max_len: int):
    """All words of length <= max_len, shortest first, then lexicographic in
    the alphabet's order."""
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield "".join(combo)


# --- structures -------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    domain: tuple
    labels: dict  # label -> frozenset of elements
    relations: dict  # relation name -> frozenset of element pairs


def word_structure(word: str, kind: str) -> Structure:
    n = len(word)
    if kind == "succ":
        pairs = frozenset((i, i + 1) for i in range(n - 1))
    else:
        pairs = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    labels = {}
    for i, ch in enumerate(word):
        labels.setdefault(ch, set()).add(i)
    return Structure(tuple(range(n)), {k: frozenset(v) for k, v in labels.items()}, {kind: pairs})


def tree_structure(nodes: tuple) -> Structure:
    """nodes: (address, label) pairs, an address being a tuple of child
    indices. dom links a node to each child, leftof a node to its next
    sibling."""
    addresses = {a for a, _ in nodes}
    dom = frozenset((a[:-1], a) for a in addresses if a)
    leftof = frozenset(
        (a, a[:-1] + (a[-1] + 1,)) for a in addresses if a and a[:-1] + (a[-1] + 1,) in addresses
    )
    labels = {}
    for a, label in nodes:
        labels.setdefault(label, set()).add(a)
    return Structure(
        tuple(sorted(addresses)),
        {k: frozenset(v) for k, v in labels.items()},
        {"dom": dom, "leftof": leftof},
    )


def random_tree(size: int, alphabet: str, rng: random.Random) -> tuple:
    """A Gorn tree domain of `size` nodes, grown by giving a random node its
    next child, so it stays prefix- and left-sibling-closed."""
    children = {(): 0}
    while len(children) < size:
        parent = rng.choice(list(children))
        child = parent + (children[parent],)
        children[parent] += 1
        children[child] = 0
    return tuple((a, rng.choice(alphabet)) for a in children)


# --- formulas ---------------------------------------------------------------

def holds(f: tuple, s: Structure, env: dict | None = None) -> bool:
    env = {} if env is None else env
    op = f[0]
    if op == "lab":
        return env[f[2]] in s.labels.get(f[1], ())
    if op == "rel":
        return (env[f[2]], env[f[3]]) in s.relations[f[1]]
    if op == "eq":
        return env[f[1]] == env[f[2]]
    if op == "not":
        return not holds(f[1], s, env)
    if op == "and":
        return holds(f[1], s, env) and holds(f[2], s, env)
    if op == "or":
        return holds(f[1], s, env) or holds(f[2], s, env)
    if op == "imp":
        return not holds(f[1], s, env) or holds(f[2], s, env)
    var, body = f[1], f[2]
    hits = (holds(body, s, {**env, var: e}) for e in s.domain)
    return any(hits) if op == "exists" else all(hits)


_INFIX = {"and": "&", "or": "|", "imp": "->"}


def render(f: tuple) -> str:
    """Surface syntax, parenthesized so that no precedence rule matters."""
    op = f[0]
    if op == "lab":
        return f"{f[1]}({f[2]})"
    if op == "rel":
        return f"{f[1]}({f[2]}, {f[3]})"
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "not":
        inner = render(f[1])
        return f"!{inner}" if f[1][0] in ("lab", "rel", "not") else f"!({inner})"
    if op in _INFIX:
        return f"({render(f[1])} {_INFIX[op]} {render(f[2])})"
    return f"({op} {f[1]}. {render(f[2])})"


def random_formula(
    rng: random.Random,
    quantifiers: int,
    atoms: int,
    labels: str,
    relations: tuple,
    variables: tuple = ("x", "y", "z"),
) -> tuple:
    """A closed formula with exactly `quantifiers` quantifiers and `atoms`
    atoms. Fixing both fixes most of what evaluation costs, so pools drawn
    with different seeds cost about the same."""
    return _gen(rng, quantifiers, atoms, (), labels, relations, variables)


def _gen(rng, quants, atoms, scope, labels, relations, variables):
    # A subformula must bind a variable before it can hold an atom, and each
    # side of a connective over an empty scope needs a quantifier of its own.
    can_split = atoms >= 2 and (scope or quants >= 2)
    choices, weights = [], []
    if quants:
        choices.append("quant")
        weights.append(quants)
    if can_split:
        choices.append("split")
        weights.append(atoms - 1)
    if choices:
        choices.append("not")
        weights.append(0.25)
    else:
        choices, weights = ["atom", "not"], [1.0, 0.15]
    choice = rng.choices(choices, weights)[0]
    if choice == "not":
        return ("not", _gen(rng, quants, atoms, scope, labels, relations, variables))
    if choice == "quant":
        fresh = [v for v in variables if v not in scope]
        var = rng.choice(fresh if fresh and rng.random() < 0.85 else variables)
        inner = scope if var in scope else scope + (var,)
        body = _gen(rng, quants - 1, atoms, inner, labels, relations, variables)
        return (rng.choice(("exists", "forall")), var, body)
    if choice == "split":
        left_atoms = rng.randint(1, atoms - 1)
        left_quants = rng.randint(1, quants - 1) if not scope else rng.randint(0, quants)
        left = _gen(rng, left_quants, left_atoms, scope, labels, relations, variables)
        right = _gen(rng, quants - left_quants, atoms - left_atoms, scope, labels, relations, variables)
        return (rng.choices(("and", "or", "imp"), (4, 3, 3))[0], left, right)
    kind = rng.choices(("lab", "rel", "eq"), (45, 40, 15))[0]
    if kind == "lab":
        return ("lab", rng.choice(labels), rng.choice(scope))
    if kind == "rel":
        return ("rel", rng.choice(relations), rng.choice(scope), rng.choice(scope))
    return ("eq", rng.choice(scope), rng.choice(scope))
