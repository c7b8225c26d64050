"""The regular-expression tokenizer against the character loop it replaced.

The reference is the old tokenizer, one character at a time: whitespace by
`str.isspace`, "->" before the one-character punctuation, a word starting
with a letter or "_" and running over `str.isalnum` or "_", anything else an
error at that character. It named each punctuation kind (LPAREN, ARROW, …);
the parser now uses the punctuation text itself as the kind, and
`reference_tuples` translates the reference stream to that form.
"""

import random

import pytest

from conftest import traversal_corpus
from fotensor.errors import ParseError
from fotensor.parser import _tokenize

# --- reference tokenizer ----------------------------------------------------

_KEYWORDS = ("exists", "forall")
_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "=": "EQ",
    "&": "AMP",
    "|": "PIPE",
    "!": "BANG",
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def reference_tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("ARROW", "->", i))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


def reference_tuples(text: str) -> list[tuple[str, str, int]]:
    """The reference stream in the parser's form: punctuation is its own kind."""
    named = {"ARROW", *_PUNCT.values()}
    tokens = reference_tokenize(text)
    return [(t.text if t.kind in named else t.kind, t.text, t.pos) for t in tokens]


def _outcome(tokenize, text):
    """The token stream, or the ParseError's message and position."""
    try:
        return tokenize(text)
    except ParseError as err:
        return ("error", str(err), err.position)


# --- random strings ---------------------------------------------------------

_WHITESPACE = [
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
]
_WORDS = [
    "exists", "forall", "existsx", "x", "y1", "a", "succ", "_", "_v2", "x_y",
    "é", "ǅx", "xé", "x²", "a٣", "bⅫ", "一",
    "2", "2ab", "²", "٣", "Ⅻ", "٣x",
]
_PUNCTUATION = [
    "(", ")", ",", ".", "=", "&", "|", "!", "->", "-", ">", "->->", "-x", "a->b", "->x", "x-",
]
_OTHER = ["#", "$", "\x00", "\u200b", "😀", "\ud800", "'", "~", "<->"]


def random_text(rng: random.Random) -> str:
    pools = [_WORDS, _PUNCTUATION, _WHITESPACE, _OTHER]
    pieces = []
    for _ in range(rng.randint(0, 12)):
        pool = rng.choices(pools, weights=(8, 8, 5, 1))[0]
        pieces.append(rng.choice(pool))
    if rng.random() < 0.3:
        pieces.append("".join(rng.choices(_WHITESPACE, k=rng.randint(1, 3))))
    return "".join(pieces)


# --- tests ------------------------------------------------------------------


def test_random_strings_tokenize_as_the_reference():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(100_000):
        text = random_text(rng)
        got = _outcome(_tokenize, text)
        assert got == _outcome(reference_tuples, text), text
        errors += got[0] == "error"
    # Both outcomes are exercised, not only one of them.
    assert 20_000 < errors < 80_000


def test_traversal_corpus_tokenizes_as_the_reference():
    for f in traversal_corpus():
        text = str(f)
        assert _tokenize(text) == reference_tuples(text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("a(x) \xa0\u3000\n", [("IDENT", "a", 0), ("(", "(", 1), ("IDENT", "x", 2), (")", ")", 3), ("EOF", "", 8)]),
        ("a->b", [("IDENT", "a", 0), ("->", "->", 1), ("IDENT", "b", 3), ("EOF", "", 4)]),
        ("forall é².", [("KEYWORD", "forall", 0), ("IDENT", "é²", 7), (".", ".", 9), ("EOF", "", 10)]),
        ("", [("EOF", "", 0)]),
        ("a - b", ("error", "unexpected character '-' (at position 2)", 2)),
        ("x\x85 2ab", ("error", "unexpected character '2' (at position 3)", 3)),
        ("Ⅻ(x)", ("error", "unexpected character 'Ⅻ' (at position 0)", 0)),
    ],
)
def test_pinned_token_streams(text, outcome):
    assert _outcome(_tokenize, text) == outcome == _outcome(reference_tuples, text)
