"""The hand-written character-by-character SQL tokenizer, kept as the
reference the regular-expression lexer (``repro.sql.lexer``) is held to by
``tests/test_lexer.py``: same tokens (kind, value, position) and the same
errors for any text.

Handles:

- identifiers (optionally double-quoted, lower-cased when unquoted,
  exactly like PostgreSQL),
- keywords (identified lazily by the parser — the lexer only tags WORD),
- string literals with ``''`` escaping and E'' strings,
- numeric literals (int / float / scientific),
- positional parameters ``$1`` and named parameters ``:name``,
- multi-character operators: ``::``, ``<=``, ``>=``, ``<>``, ``!=``, ``||``,
  ``->``, ``->>``, ``#>``, ``#>>``, ``@>``, ``<@``, ``~*``, ``!~``, ``:=``,
- comments ``--`` and ``/* */``.
"""

from __future__ import annotations

from repro.errors import SyntaxErrorSQL
from repro.sql.lexer import EOF, NUMBER, OP, PARAM, STRING, WORD, Token

# Longest-match-first operator table.
_OPERATORS = [
    "->>", "#>>", "::", "<=", ">=", "<>", "!=", "||", "->", "#>", "@>",
    "<@", "~*", "!~", ":=", "(", ")", ",", ";", "+", "-", "*", "/", "%",
    "=", "<", ">", ".", "[", "]", "~", "?",
]


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SyntaxErrorSQL("unterminated block comment")
            i = end + 2
            continue
        if ch == "'" or (ch in "eE" and i + 1 < n and sql[i + 1] == "'"):
            escapes = ch in "eE"
            if escapes:
                i += 1
            value, i = _read_string(sql, i, escapes)
            tokens.append(Token(STRING, value, i))
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end < 0:
                raise SyntaxErrorSQL("unterminated quoted identifier")
            tokens.append(Token(WORD, sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and sql[j].isdigit():
                j += 1
            if j > i + 1:
                tokens.append(Token(PARAM, int(sql[i + 1 : j]), i))
                i = j
                continue
            # dollar-quoted string $$...$$ / $tag$...$tag$
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            if j < n and sql[j] == "$":
                tag = sql[i : j + 1]
                end = sql.find(tag, j + 1)
                if end < 0:
                    raise SyntaxErrorSQL("unterminated dollar-quoted string")
                tokens.append(Token(STRING, sql[j + 1 : end], i))
                i = end + len(tag)
                continue
            raise SyntaxErrorSQL(f"unexpected character {ch!r} at {i}")
        if ch == ":" and i + 1 < n and (sql[i + 1].isalpha() or sql[i + 1] == "_"):
            # Named parameter :name (pgbench style), unless it is a cast `::`
            if sql[i + 1] != ":":
                j = i + 1
                while j < n and (sql[j].isalnum() or sql[j] == "_"):
                    j += 1
                tokens.append(Token(PARAM, sql[i + 1 : j], i))
                i = j
                continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append(Token(NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_" or sql[j] == "$"):
                j += 1
            tokens.append(Token(WORD, sql[i:j].lower(), i))
            i = j
            continue
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(OP, op, i))
                i += len(op)
                break
        else:
            raise SyntaxErrorSQL(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(EOF, None, n))
    return tokens


def _read_string(sql: str, i: int, escapes: bool = False) -> tuple[str, int]:
    """Read a string literal. Standard SQL strings treat backslash as an
    ordinary character; only E'' strings (``escapes=True``) process escape
    sequences — matching PostgreSQL's standard_conforming_strings=on."""
    assert sql[i] == "'"
    parts = []
    i += 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        if escapes and ch == "\\" and i + 1 < n and sql[i + 1] in "'\\nrt":
            esc = sql[i + 1]
            parts.append({"n": "\n", "r": "\r", "t": "\t"}.get(esc, esc))
            i += 2
            continue
        parts.append(ch)
        i += 1
    raise SyntaxErrorSQL("unterminated string literal")


def _read_number(sql: str, i: int):
    j = i
    n = len(sql)
    seen_dot = seen_exp = False
    while j < n:
        ch = sql[j]
        if ch.isdigit():
            j += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # Don't consume `1..10`-style ranges or method-ish dots.
            if j + 1 < n and sql[j + 1] == ".":
                break
            seen_dot = True
            j += 1
        elif ch in "eE" and not seen_exp and j + 1 < n and (
            sql[j + 1].isdigit() or sql[j + 1] in "+-"
        ):
            seen_exp = True
            j += 2 if sql[j + 1] in "+-" else 1
        else:
            break
    text = sql[i:j]
    value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
    return value, j
