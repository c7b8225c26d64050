"""Finite relational structures and the string-model builders.

A structure is a finite domain {1, ..., N} plus named unary relations
(length-N 0/1 vectors) and named binary relations (NxN 0/1 matrices).
Storage is dense; indices are 1-based at every public interface.

Structure document format (UTF-8 JSON, 1-based indices, duplicates
rejected):

    { "domain": 4,
      "unary":  { "a": [1, 4], "b": [2, 3], "c": [] },
      "binary": { "succ": [[1, 2], [2, 3], [3, 4]] } }
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import numpy as np

from .errors import SemanticError, StructureFormatError, UnknownSymbolError

SUCC = "succ"
PREC = "prec"

# Largest array, in cells, that building or evaluating a model may allocate:
# every builder refuses a structure whose N x N relations would pass it
# (check_domain_size), and evaluation refuses plans whose node values need
# more (see tensors.batch_limit). 2^24 cells are 16 MiB as bool relations and
# node values, 128 MiB as the float64 counts of a contraction.
MAX_CELLS = 1 << 24

# Variable assignments map variable names to 1-based domain indices.
Assignment = Mapping[str, int]


def check_domain_size(n: int) -> None:
    """Raise SemanticError when a structure of n elements needs N x N
    tensors past MAX_CELLS; builders call it before allocating them."""
    if n * n > MAX_CELLS:
        raise SemanticError(
            f"a structure of domain size {n} needs N x N tensors of "
            f"{n * n} cells, over the limit of {MAX_CELLS}"
        )


def normalize_assignment(a) -> dict[str, int]:
    """Accepts mappings keyed by name or by Variable; returns a plain dict."""
    if a is None:
        return {}
    out = {}
    for key, value in a.items():
        out[getattr(key, "name", key)] = int(value)
    return out


class Alphabet:
    """Ordered, duplicate-free collection of single-character labels."""

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be nonempty")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters: {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError(f"alphabet has duplicate symbols: {syms}")
        self.symbols = syms

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, s):
        return s in self.symbols

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"


class StructureModel:
    """Immutable finite relational structure with dense 0/1 relations, given
    as integer or boolean data; the model keeps its own bool copy."""

    def __init__(
        self,
        domain_size: int,
        unary: Mapping[str, object] | None = None,
        binary: Mapping[str, object] | None = None,
    ):
        if domain_size < 0:
            raise ValueError("domain size must be nonnegative")
        self.domain_size = int(domain_size)
        self.unary = {name: self._coerce(vec, (domain_size,), name) for name, vec in (unary or {}).items()}
        self.binary = {
            name: self._coerce(mat, (domain_size, domain_size), name) for name, mat in (binary or {}).items()
        }
        overlap = set(self.unary) & set(self.binary)
        if overlap:
            raise ValueError(f"relation names used at two arities: {sorted(overlap)}")
        self._unary_sets: dict[str, frozenset[int]] = {}
        self._binary_sets: dict[str, frozenset[tuple[int, int]]] = {}

    @staticmethod
    def _coerce(data, shape, name) -> np.ndarray:
        arr = np.asarray(data)
        if arr.shape != shape:
            raise ValueError(f"relation {name!r} has shape {arr.shape}, expected {shape}")
        # Checked before the cast, which would read 0.5 or 2 as 1; numpy types [] as float.
        if arr.size and not is_zero_one(arr):
            raise ValueError(f"relation {name!r} has entries outside {{0, 1}}")
        arr = arr.astype(bool)  # a copy: the caller's array stays theirs and writable
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_sets(
        cls,
        domain_size: int,
        unary: Mapping[str, Iterable[int]] | None = None,
        binary: Mapping[str, Iterable[tuple[int, int]]] | None = None,
    ) -> "StructureModel":
        """Build from 1-based position sets / pair sets (see check_domain_size)."""
        check_domain_size(domain_size)
        uvecs = {}
        for name, positions in (unary or {}).items():
            vec = np.zeros(domain_size, dtype=bool)
            for i in positions:
                _check_index(i, domain_size, name)
                vec[i - 1] = 1
            uvecs[name] = vec
        bmats = {}
        for name, pairs in (binary or {}).items():
            mat = np.zeros((domain_size, domain_size), dtype=bool)
            for i, j in pairs:
                _check_index(i, domain_size, name)
                _check_index(j, domain_size, name)
                mat[i - 1, j - 1] = 1
            bmats[name] = mat
        return cls(domain_size, uvecs, bmats)

    def unary_positions(self, name: str) -> frozenset[int]:
        """1-based positions where the unary relation holds."""
        if name not in self._unary_sets:
            vec = self.unary[name]
            self._unary_sets[name] = frozenset(int(i) + 1 for i in np.flatnonzero(vec))
        return self._unary_sets[name]

    def binary_pairs(self, name: str) -> frozenset[tuple[int, int]]:
        """1-based index pairs where the binary relation holds."""
        if name not in self._binary_sets:
            mat = self.binary[name]
            rows, cols = np.nonzero(mat)
            self._binary_sets[name] = frozenset(
                (int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)
            )
        return self._binary_sets[name]

    def __eq__(self, other):
        if not isinstance(other, StructureModel):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and self.unary.keys() == other.unary.keys()
            and self.binary.keys() == other.binary.keys()
            and all(np.array_equal(self.unary[k], other.unary[k]) for k in self.unary)
            and all(np.array_equal(self.binary[k], other.binary[k]) for k in self.binary)
        )

    def __repr__(self):
        return (
            f"StructureModel(N={self.domain_size}, "
            f"unary={sorted(self.unary)}, binary={sorted(self.binary)})"
        )


def is_zero_one(arr: np.ndarray) -> bool:
    """Whether arr is an integer or boolean array whose every entry is 0 or 1."""
    if arr.dtype.kind not in "biu":
        return False
    if arr.dtype.kind == "b" or arr.size == 0:  # bool is 0/1 by its type
        return True
    # Read as unsigned, a negative entry is huge: one reduction, no temporary.
    return bool(arr.view(arr.dtype.str.replace("i", "u")).max() <= 1)


def _check_index(i, domain_size, name):
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise SemanticError(f"relation {name!r}: index {i!r} is not an integer")
    if not 1 <= i <= domain_size:
        raise SemanticError(
            f"relation {name!r}: index {i} out of range for domain size {domain_size}"
        )


def _label_vectors(word: str, alphabet: Alphabet) -> dict[str, np.ndarray]:
    vectors = {sym: np.zeros(len(word), dtype=bool) for sym in alphabet}
    for pos, ch in enumerate(word):
        if ch not in alphabet:
            raise UnknownSymbolError(f"symbol {ch!r} at position {pos + 1} not in alphabet")
        vectors[ch][pos] = 1
    return vectors


def build_successor_model(word: str, alphabet: Alphabet) -> StructureModel:
    """Word positions 1..|w| with label relations and the successor order
    succ = {(i, i+1)}."""
    return build_word_model(word, alphabet, SUCC)


def build_precedence_model(word: str, alphabet: Alphabet) -> StructureModel:
    """Same labels as the successor model, but with the general order
    prec = {(i, j) | i < j}."""
    return build_word_model(word, alphabet, PREC)


MODEL_KINDS = ("succ", "prec", "tree")


def check_kind(kind: str) -> None:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def order_relation(length: int, kind: str) -> tuple[str, np.ndarray]:
    """Name and boolean matrix of the order relation of every word model of
    the given length: succ = {(i, i+1)} or prec = {(i, j) | i < j}. It does
    not depend on the word's labels. Refused past MAX_CELLS
    (check_domain_size)."""
    check_kind(kind)
    check_domain_size(length)
    if kind == "succ":
        return SUCC, np.eye(length, k=1, dtype=bool)
    if kind == "prec":
        return PREC, np.less.outer(np.arange(length), np.arange(length))
    raise ValueError("tree models are not built from words; use build_tree_model")


def build_word_model(word: str, alphabet: Alphabet, kind: str) -> StructureModel:
    name, order = order_relation(len(word), kind)
    return StructureModel(len(word), _label_vectors(word, alphabet), {name: order})


def dump_structure(m: StructureModel) -> str:
    """Serialize to the JSON document format (see module docstring)."""
    doc = {
        "domain": m.domain_size,
        "unary": {name: sorted(m.unary_positions(name)) for name in m.unary},
        "binary": {name: [list(p) for p in sorted(m.binary_pairs(name))] for name in m.binary},
    }
    return json.dumps(doc, indent=2)


def load_structure(text: str) -> StructureModel:
    """Parse a structure document. Raises StructureFormatError for documents
    that do not decode, SemanticError for out-of-range or duplicate entries
    and, before allocating any relation, for a domain whose N x N tensors
    would exceed MAX_CELLS."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructureFormatError("document must be a JSON object")
    unknown = set(doc) - {"domain", "unary", "binary"}
    if unknown:
        raise StructureFormatError(f"unknown document keys: {sorted(unknown)}")
    domain = doc.get("domain")
    if not isinstance(domain, int) or isinstance(domain, bool) or domain < 0:
        raise StructureFormatError("'domain' must be a nonnegative integer")
    check_domain_size(domain)

    unary_sets: dict[str, list[int]] = {}
    for name, positions in _mapping(doc, "unary").items():
        if not isinstance(positions, list):
            raise StructureFormatError(f"unary relation {name!r} must be a list")
        if len(set(map(_hashable, positions))) != len(positions):
            raise SemanticError(f"unary relation {name!r} has duplicate entries")
        unary_sets[name] = positions
    binary_sets: dict[str, list[tuple[int, int]]] = {}
    for name, pairs in _mapping(doc, "binary").items():
        if not isinstance(pairs, list):
            raise StructureFormatError(f"binary relation {name!r} must be a list of pairs")
        cleaned = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise StructureFormatError(
                    f"binary relation {name!r}: {pair!r} is not an index pair"
                )
            cleaned.append((pair[0], pair[1]))
        if len(set(map(_hashable, cleaned))) != len(cleaned):
            raise SemanticError(f"binary relation {name!r} has duplicate entries")
        binary_sets[name] = cleaned

    try:
        return StructureModel.from_sets(domain, unary_sets, binary_sets)
    except ValueError as exc:
        raise SemanticError(str(exc)) from exc


def _mapping(doc, key):
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise StructureFormatError(f"'{key}' must be an object")
    return section


def _hashable(x):
    return tuple(x) if isinstance(x, list) else x
