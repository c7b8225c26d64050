"""Gorn-address tree domains and the 2-d tree model builder.

A tree domain is a set of node addresses (sequences of child indices, the
empty sequence being the root) that is hereditarily prefix-closed and
left-sibling-closed. Tree models expose immediate dominance as the binary
relation "dom" and the immediate left-of sibling relation as "leftof".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DuplicateAddressError, GornDomainError, UnknownSymbolError
from .models import Alphabet, StructureModel, check_domain_size

DOM = "dom"
LEFTOF = "leftof"


@dataclass(frozen=True)
class GornAddress:
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d < 0 for d in self.digits):
            raise ValueError(f"address digits must be nonnegative: {self.digits}")

    @classmethod
    def parse(cls, text: str) -> "GornAddress":
        """Accepts "", "ε", a plain digit string like "110", or a dotted
        form like "1.1.0" (needed once child indices exceed 9)."""
        if text in ("", "ε"):
            return cls(())
        parts = text.split(".") if "." in text else list(text)
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"not a Gorn address: {text!r}") from exc

    @property
    def is_root(self) -> bool:
        return not self.digits

    def parent(self) -> "GornAddress":
        if self.is_root:
            raise ValueError("the root has no parent")
        return GornAddress(self.digits[:-1])

    def child(self, i: int) -> "GornAddress":
        return GornAddress(self.digits + (i,))

    def __str__(self):
        if not self.digits:
            return "ε"
        if all(d <= 9 for d in self.digits):
            return "".join(str(d) for d in self.digits)
        return ".".join(str(d) for d in self.digits)


def _as_address(a) -> GornAddress:
    if isinstance(a, GornAddress):
        return a
    if isinstance(a, str):
        return GornAddress.parse(a)
    return GornAddress(tuple(a))


@dataclass(frozen=True)
class DomainValidation:
    ok: bool
    violations: tuple[tuple[GornAddress, str], ...]

    def __bool__(self):
        return self.ok


def validate_gorn_domain(addresses: Iterable) -> DomainValidation:
    """Check hereditary prefix closure and left-sibling closure.

    Every violating address is reported, with the missing address it
    requires."""
    found = _violations({_as_address(a).digits for a in addresses})
    return DomainValidation(not found, tuple((GornAddress(a), why) for a, why in found))


def _violations(domain: set[tuple[int, ...]]) -> list[tuple[tuple[int, ...], str]]:
    """(digits, why) for each address of the domain, given by its digits,
    that misses its prefix or its left sibling, in (depth, digits) order."""
    found = []
    for a in sorted(domain, key=lambda a: (len(a), a)):
        if a and a[:-1] not in domain:
            found.append((a, f"missing prefix {GornAddress(a[:-1])}"))
        if a and a[-1] and (sibling := a[:-1] + (a[-1] - 1,)) not in domain:
            found.append((a, f"missing left sibling {GornAddress(sibling)}"))
    return found


def build_tree_model(
    nodes: Sequence[tuple[GornAddress | str | tuple, str]],
    alphabet: Alphabet,
) -> StructureModel:
    """Build the 2-d tree structure for labeled Gorn addresses.

    Domain indices are assigned 1-based in lexicographic-by-(depth, digits)
    address order, so serialized structures are deterministic. Refused past
    MAX_CELLS (check_domain_size)."""
    # Addresses are their digit tuples past this line; GornAddress is for messages.
    labeled = [(_as_address(a).digits, label) for a, label in nodes]
    addresses = [a for a, _ in labeled]
    if len(set(addresses)) != len(addresses):
        seen, dups = set(), set()
        for a in addresses:
            (dups if a in seen else seen).add(a)
        raise DuplicateAddressError(f"duplicate addresses: {sorted(str(GornAddress(a)) for a in dups)}")
    if violations := _violations(set(addresses)):
        details = "; ".join(f"{GornAddress(a)}: {why}" for a, why in violations)
        raise GornDomainError(f"not a Gorn tree domain: {details}")

    order = sorted(addresses, key=lambda a: (len(a), a))
    index = {a: i + 1 for i, a in enumerate(order)}
    n = len(order)
    check_domain_size(n)

    unary: dict[str, list[int]] = {sym: [] for sym in alphabet}
    for addr, label in labeled:
        if label not in alphabet:
            raise UnknownSymbolError(f"label {label!r} for node {GornAddress(addr)} not in alphabet")
        unary[label].append(index[addr])

    dom, leftof = [], []
    for addr in order[1:]:  # the root, first, has no parent
        dom.append((index[addr[:-1]], index[addr]))
        if nxt := index.get(addr[:-1] + (addr[-1] + 1,)):
            leftof.append((index[addr], nxt))
    # The indices are 1..n by construction: nothing to check again.
    return StructureModel._from_checked_sets(n, unary, {DOM: dom, LEFTOF: leftof})
