"""SQL tokenizer: one compiled regular expression scanned over the text.

Produces a flat list of :class:`Token`. Handles:

- identifiers (optionally double-quoted, lower-cased when unquoted,
  exactly like PostgreSQL),
- keywords (identified lazily by the parser — the lexer only tags WORD),
- string literals with ``''`` escaping and E'' strings,
- numeric literals (int / float / scientific),
- positional parameters ``$1`` and named parameters ``:name``,
- multi-character operators: ``::``, ``<=``, ``>=``, ``<>``, ``!=``, ``||``,
  ``->``, ``->>``, ``#>``, ``#>>``, ``@>``, ``<@``, ``~*``, ``!~``, ``:=``,
- comments ``--`` and ``/* */``.

One match of :data:`_SCAN` is the whitespace and comments before a token
and the token: each alternative is one token kind or one error, tried in a
fixed order, most frequent first (an unterminated string, quoted identifier
or dollar quote is the alternative after the terminated one; ``/*`` that
the skip did not take is an unterminated comment). A string's body is an
atomic group: ``''`` inside it is always a quote, never the end. A STRING
or NUMBER token's ``pos`` is where it ends, any other token's where it
starts. ``tests/lexer_reference.py`` keeps the character-by-character
lexer this one replaced, and ``tests/test_lexer.py`` holds the two to the
same tokens and errors (identifiers and numbers are read with ``re``'s
Unicode classes, so the two part only on numeric characters that are not
decimal digits, such as ``²``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import SyntaxErrorSQL

WORD = "word"
STRING = "string"
NUMBER = "number"
OP = "op"
PARAM = "param"
EOF = "eof"


@dataclass(slots=True)
class Token:
    kind: str
    value: object
    pos: int

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


_SCAN = re.compile(r"[ \t\r\n]*(?:(?:--[^\n]*|/\*.*?\*/)[ \t\r\n]*)*(?:" + "|".join((
    r"(?P<word>(?![eE]')[^\W\d][\w$]*)",
    r"(?P<op>->>|#>>|::|<=|>=|<>|!=|\|\||->|#>|@>|<@|~\*|!~|:="
    r"|/(?!\*)|\.(?!\d)|[(),;+\-*%=<>\[\]~?])",
    r"(?P<number>(?:\d+(?:\.(?!\.)\d*)?|\.\d+)(?:[eE](?=[\d+-])[+-]?\d*)?)",
    r"'(?P<string>(?>[^']*(?:''[^']*)*))'",
    r"[eE]'(?P<escaped>(?>[^'\\]*(?:(?:''|\\.)[^'\\]*)*))'",
    r"(?P<bad_string>[eE]?')",
    r"(?P<bad_comment>/\*)",
    r'"(?P<quoted>[^"]*)"',
    r'(?P<bad_quoted>")',
    r"\$(?P<position>\d+)",
    r"\$(?P<tag>\w*)\$(?P<dollar>.*?)\$(?P=tag)\$",
    r"(?P<bad_dollar>\$\w*\$)",
    r"(?P<bad_sign>\$)",
    r":(?P<named>[^\W\d]\w*)",
    r"(?P<bad_char>.)",
)) + ")?", re.DOTALL)

#: What an E'' string's escapes stand for (any other backslash is itself).
_ESCAPES = {"'": "'", "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = re.compile(r"''|\\(.)", re.DOTALL)


def _unescape(match) -> str:
    char = match.group(1)
    if char is None:
        return "'"
    return _ESCAPES.get(char) or "\\" + char


_GROUP = _SCAN.groupindex
_WORD, _OP, _NUMBER, _STRING = (_GROUP[name] for name in ("word", "op", "number", "string"))
_POSITION, _NAMED, _QUOTED = (_GROUP[name] for name in ("position", "named", "quoted"))
_ESCAPED, _DOLLAR, _TAG = (_GROUP[name] for name in ("escaped", "dollar", "tag"))
_BAD_SIGN, _BAD_CHAR = _GROUP["bad_sign"], _GROUP["bad_char"]
_ERRORS = {
    _GROUP["bad_comment"]: "unterminated block comment",
    _GROUP["bad_string"]: "unterminated string literal",
    _GROUP["bad_quoted"]: "unterminated quoted identifier",
    _GROUP["bad_dollar"]: "unterminated dollar-quoted string",
}


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for match in _SCAN.finditer(sql):
        group = match.lastindex
        if group is None:
            continue  # trailing whitespace or comments
        text = match[group]
        if group == _WORD:
            append(Token(WORD, text.lower(), match.start(group)))
        elif group == _OP:
            append(Token(OP, text, match.start(group)))
        elif group == _NUMBER:
            real = "." in text or "e" in text or "E" in text
            append(Token(NUMBER, float(text) if real else int(text), match.end()))
        elif group == _STRING:
            append(Token(STRING, text.replace("''", "'"), match.end()))
        elif group == _POSITION:
            append(Token(PARAM, int(text), match.start(group) - 1))
        elif group == _NAMED:
            append(Token(PARAM, text, match.start(group) - 1))
        elif group == _QUOTED:
            append(Token(WORD, text, match.start(group) - 1))
        elif group == _ESCAPED:
            append(Token(STRING, _ESCAPE.sub(_unescape, text), match.end()))
        elif group == _DOLLAR:
            append(Token(STRING, text, match.start(_TAG) - 1))
        elif group == _BAD_SIGN:
            raise SyntaxErrorSQL(f"unexpected character '$' at {match.start(group)}")
        elif group == _BAD_CHAR:
            raise SyntaxErrorSQL(
                f"unexpected character {text!r} at position {match.start(group)}")
        else:
            raise SyntaxErrorSQL(_ERRORS[group])
    append(Token(EOF, None, len(sql)))
    return tokens
