"""Tokenizer for the paper's MDX subset.

Handles the constructs the paper uses: braces for sets, parentheses for
tuples and argument lists, ``NEST``, axis clauses (``on COLUMNS`` / ``ROWS``
/ ``PAGES`` / ``CHAPTERS`` / ``SECTIONS``), ``CONTEXT``, ``FILTER``, dotted
member paths with ``CHILDREN``, primed level names (``A''``), and bracketed
members (``[1991]``).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple


class TokenType(Enum):
    """Kinds of MDX tokens."""
    IDENT = "ident"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    DOT = "."
    EOF = "eof"


#: Reserved words, case-insensitive (the paper capitalizes them).
KEYWORDS = {
    "NEST",
    "ON",
    "COLUMNS",
    "ROWS",
    "PAGES",
    "CHAPTERS",
    "SECTIONS",
    "CONTEXT",
    "FILTER",
    "CHILDREN",
    "MEMBERS",
    "PARENT",
}


class Token(NamedTuple):
    """One lexed token: type, value, source position, and the uppercased
    value when it is a reserved word ('' otherwise) — a plain tuple, built
    without a constructor call per token."""

    type: TokenType
    value: str
    position: int
    keyword: str


class MdxSyntaxError(ValueError):
    """Raised on malformed MDX input, with position context."""

    def __init__(self, message: str, text: str, position: int):
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position


# One pattern for every token, each after its leading whitespace (group 1):
# punctuation (2), a bare name possibly ending in primes — A'', Qtr1 — (3), a
# bracket-quoted name — [1991], [USA North] — (4), or any other character,
# which is an error (5).  Every character of the text is in some match.
_TOKEN_RE = re.compile(
    r"(\s*)(?:([{}(),.])|([A-Za-z_][A-Za-z0-9_]*'*)|(\[[^\]\n]*\])|(\S))"
)

_PUNCT = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
}
_IDENT, _EOF = TokenType.IDENT, TokenType.EOF


def lex(text: str) -> List[tuple]:
    """Tokenize ``text`` into plain ``(type, value, position, keyword)``
    tuples (a :class:`Token`'s fields); always ends with an EOF token."""
    tokens: List[tuple] = []
    append, position = tokens.append, 0
    for space, punct, name, bracketed, other in _TOKEN_RE.findall(text):
        position += len(space)
        if punct:
            append((_PUNCT[punct], punct, position, ""))
            position += 1
            continue
        if other:
            raise MdxSyntaxError(f"unexpected character {other!r}", text, position)
        if bracketed:
            name = bracketed[1:-1].strip()
            if not name:
                raise MdxSyntaxError("empty bracketed name", text, position)
        keyword = name.upper()
        append((_IDENT, name, position, keyword if keyword in KEYWORDS else ""))
        position += len(bracketed or name)
    append((_EOF, "", len(text), ""))
    return tokens


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into :class:`Token` s; always ends with an EOF token."""
    return list(map(Token._make, lex(text)))
