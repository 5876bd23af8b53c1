"""Lexer for the C subset ("the front ends" substrate).

The paper's code generator consumed intermediate forests from the PCC C,
Berkeley Pascal and f77 front ends; ours come from this small C-like
language, rich enough to exercise every code-generation path: scalar
types with signedness, pointers, one-dimensional arrays, register
variables, all the C operators including short-circuit and selection, and
the control statements.

One compiled master regex drives :func:`tokenize`: each match is one
token (or a run of newlines, or a comment) behind its leading blanks, so
the Python loop runs once per token instead of once per character.  The
character classes are Python's Unicode ones — ``\\w`` is exactly
``str.isalnum()`` or ``_``, ``\\s`` is ``str.isspace()`` and ``\\d`` is
``str.isdecimal()`` — so identifiers and numbers accept the same
non-ASCII letters and digits a character-at-a-time scanner built on the
``str`` predicates does.  Token texts are interned: a unit's hundred
thousand tokens share a few hundred distinct strings, and so do the
AST's names.
"""

from __future__ import annotations

import enum
import re
import sys
from typing import List

KEYWORDS = {
    "char", "short", "int", "long", "unsigned", "float", "double", "void",
    "register", "if", "else", "while", "for", "do", "return", "goto",
    "break", "continue",
}

# multi-character operators, longest first
_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ",", ";", "?", ":",
]


class TokKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    OP = "op"
    EOF = "eof"


class Tok:
    """One token: its kind, source text, literal value and line.

    Tokens compare and hash by all four fields.  They are never mutated
    after the lexer makes them.
    """

    __slots__ = ("kind", "text", "value", "line")

    def __init__(self, kind: TokKind, text: str, value: object = None,
                 line: int = 0) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.line = line

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokKind.OP and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text in kws

    def _fields(self) -> tuple:
        return (self.kind, self.text, self.value, self.line)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Tok:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.text}"


class LexError(SyntaxError):
    pass


#: Every alternative starts after the blanks (whitespace other than a
#: newline) before it.  Order matters where two could match: comments
#: (a ``block`` of just ``/*`` is unterminated) before the ``/``
#: operators, hex before decimal, floats before ints, the operators
#: longest first.  ``word`` is an identifier that starts with a
#: non-ASCII character, ``refuse`` any one character no other
#: alternative takes, and ``end`` the blanks that end the text.
_MASTER = re.compile(
    r"[^\S\n]*(?:"
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<block>/\*(?:.*?\*/)?)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d*)?|\d+[eE][+-]?\d*)"
    r"|(?P<int>\d+)"
    r"|(?P<newlines>\n\s*)"
    r"|(?P<char>'(?:\\.|[^\\])')"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<refuse>.)"
    r"|(?P<end>\Z)"
    r")",
    re.DOTALL,
)


def tokenize(source: str) -> List[Tok]:
    """Tokenize C-subset source into a token list ending with EOF."""
    tokens: List[Tok] = []
    append = tokens.append
    intern = sys.intern
    keywords = KEYWORDS
    IDENT, KEYWORD, OP = TokKind.IDENT, TokKind.KEYWORD, TokKind.OP
    line = 1
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        if kind == "ident":
            text = intern(match["ident"])
            append(Tok(KEYWORD if text in keywords else IDENT, text, None,
                       line))
        elif kind == "op":
            append(Tok(OP, intern(match["op"]), None, line))
        elif kind == "int":
            text = intern(match["int"])
            append(Tok(TokKind.INT, text, int(text), line))
        elif kind == "newlines":
            line += match["newlines"].count("\n")
        elif kind == "float":
            text = match["float"]
            append(Tok(TokKind.FLOAT, text, float(text), line))
        elif kind == "hex":
            text = match["hex"]
            append(Tok(TokKind.INT, text, int(text, 16), line))
        elif kind == "block":
            text = match["block"]
            if len(text) == 2:
                raise LexError(f"line {line}: unterminated comment")
            line += text.count("\n")
        elif kind == "char":
            text = match["char"]
            append(Tok(TokKind.CHAR, text, _char_value(text[1:-1], line),
                       line))
        elif kind == "word" and match["word"][0].isalpha():
            text = intern(match["word"])
            append(Tok(IDENT, text, None, line))
        elif kind == "end":
            break
        elif kind != "line_comment":
            _refuse(source, match.start(kind), line)
    tokens.append(Tok(TokKind.EOF, "", None, line))
    return tokens


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39}


def _char_value(body: str, line: int) -> int:
    if body.startswith("\\"):
        try:
            return _ESCAPES[body[1]]
        except (KeyError, IndexError):
            raise LexError(f"line {line}: bad escape {body!r}") from None
    if len(body) != 1:
        raise LexError(f"line {line}: bad character constant {body!r}")
    return ord(body)


def _refuse(source: str, position: int, line: int) -> None:
    """Raise for the text at *position*, where no token starts.

    A digit that is not a decimal digit (``²``), or a ``.`` before one,
    starts a number that ``int``/``float`` then refuse with a
    ``ValueError``; a lone ``'`` is a bad character constant; anything
    else is an unexpected character.
    """
    ch = source[position]
    if ch.isdigit() or (
        ch == "." and source[position + 1:position + 2].isdigit()
    ):
        raise ValueError(
            f"line {line}: invalid number at {source[position:position + 8]!r}"
        )
    if ch == "'":
        raise LexError(f"line {line}: bad character constant")
    raise LexError(f"line {line}: unexpected character {ch!r}")
